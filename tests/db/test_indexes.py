"""Index object and creation-cost tests."""

import dataclasses

import pytest

from repro.db.catalog import Catalog, Column
from repro.db.indexes import Index
from repro.db.knobs import GB, MB
from repro.errors import CatalogError


class TestIndexIdentity:
    def test_auto_name(self):
        index = Index("lineitem", ("l_orderkey",))
        assert index.name == "idx_lineitem_l_orderkey"

    def test_explicit_name_kept(self):
        assert Index("t", ("a",), name="my_idx").name == "my_idx"

    def test_names_fold_to_lowercase(self):
        index = Index("LineItem", ("L_OrderKey",))
        assert index.table == "lineitem"
        assert index.columns == ("l_orderkey",)

    def test_key_identity(self):
        a = Index("t", ("x", "y"))
        b = Index("t", ("x", "y"), name="other")
        assert a.key == b.key

    def test_column_order_matters(self):
        assert Index("t", ("x", "y")).key != Index("t", ("y", "x")).key

    def test_empty_columns_rejected(self):
        with pytest.raises(CatalogError):
            Index("t", ())

    def test_leading_column(self):
        assert Index("t", ("a", "b")).leading_column == "a"

    def test_qualified_columns(self):
        assert Index("t", ("a", "b")).qualified_columns() == ("t.a", "t.b")

    @pytest.mark.parametrize(
        "index",
        [
            Index("lineitem", ("l_orderkey",)),
            Index("t", ("x", "y", "z")),
            Index("t", ("a",), name="my_idx"),
            Index("t", ("a", "b"), name="it's"),
            Index("t", ("a",), name='say "hi"'),
            Index("t", ("a",), name="""both ' and " quotes"""),
        ],
    )
    def test_repr_is_the_dataclass_text(self, index):
        """``str(index)`` orders a configuration's index universe, the
        bits of every relevance mask, so it must be the text dataclass
        generates: it prints all three compared fields."""
        generated = dataclasses.make_dataclass(
            "Index",
            [field.name for field in dataclasses.fields(Index)],
            frozen=True,
        )
        expected = repr(generated(index.table, index.columns, index.name))
        assert repr(index) == expected
        assert str(index) == expected


class TestValidation:
    def test_valid_index(self, tiny_catalog):
        Index("users", ("age",)).validate(tiny_catalog)

    def test_unknown_table(self, tiny_catalog):
        with pytest.raises(CatalogError):
            Index("ghosts", ("x",)).validate(tiny_catalog)

    def test_unknown_column(self, tiny_catalog):
        with pytest.raises(CatalogError):
            Index("users", ("salary",)).validate(tiny_catalog)


class TestCosts:
    @pytest.fixture()
    def catalog(self):
        catalog = Catalog()
        catalog.add_table("big", 10_000_000, [Column("k", 8), Column("v", 92)])
        catalog.add_table("small", 1_000, [Column("k", 8)])
        return catalog

    def test_size_scales_with_rows(self, catalog):
        big = Index("big", ("k",)).size_bytes(catalog)
        small = Index("small", ("k",)).size_bytes(catalog)
        assert big / small == pytest.approx(10_000, rel=0.01)

    def test_creation_time_positive(self, catalog):
        seconds = Index("small", ("k",)).creation_seconds(catalog, 64 * MB, 500)
        assert seconds >= 0.01

    def test_bigger_table_takes_longer(self, catalog):
        big = Index("big", ("k",)).creation_seconds(catalog, 64 * MB, 500)
        small = Index("small", ("k",)).creation_seconds(catalog, 64 * MB, 500)
        assert big > small * 100

    def test_more_maintenance_memory_is_faster(self, catalog):
        slow = Index("big", ("k",)).creation_seconds(catalog, 1 * MB, 500)
        fast = Index("big", ("k",)).creation_seconds(catalog, 4 * GB, 500)
        assert fast < slow

    def test_faster_disk_is_faster(self, catalog):
        slow = Index("big", ("k",)).creation_seconds(catalog, 64 * MB, 100)
        fast = Index("big", ("k",)).creation_seconds(catalog, 64 * MB, 1000)
        assert fast < slow

    def test_multicolumn_index_costs_more(self, catalog):
        one = Index("big", ("k",)).creation_seconds(catalog, 64 * MB, 500)
        two = Index("big", ("k", "v")).creation_seconds(catalog, 64 * MB, 500)
        assert two > one
