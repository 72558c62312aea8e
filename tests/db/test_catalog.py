"""Catalog and statistics tests."""

import pickle

import pytest

from repro.core.batch import BatchJob, run_job
from repro.db.catalog import PAGE_SIZE, Catalog, Column, Table
from repro.db.catalog_stats import catalog_stats
from repro.errors import CatalogError


class TestColumn:
    def test_distinct_values_unique_column(self):
        column = Column("id", ndv=-1)
        assert column.distinct_values(1000) == 1000

    def test_distinct_values_capped_by_rows(self):
        column = Column("x", ndv=500)
        assert column.distinct_values(100) == 100

    def test_distinct_values_normal(self):
        assert Column("x", ndv=50).distinct_values(1000) == 50

    def test_distinct_values_at_least_one(self):
        assert Column("x", ndv=5).distinct_values(0) == 1


class TestTable:
    def test_row_width_sums_columns(self):
        table = Table("t", 10, {"a": Column("a", 4), "b": Column("b", 12)})
        assert table.row_width == 16

    def test_row_width_minimum_one(self):
        assert Table("t", 10).row_width == 1

    def test_pages_rounds_up(self):
        table = Table("t", 1, {"a": Column("a", 10)})
        assert table.pages == 1
        big = Table("t2", PAGE_SIZE, {"a": Column("a", 2)})
        assert big.pages == 2

    def test_negative_rows_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", -1)

    def test_unknown_column_lookup(self):
        table = Table("t", 10)
        with pytest.raises(CatalogError):
            table.column("nope")


class TestCatalog:
    def test_add_and_lookup_case_insensitive(self):
        catalog = Catalog()
        catalog.add_table("Users", 10, [Column("id")])
        assert catalog.table("USERS").name == "users"
        assert catalog.has_table("users")

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.add_table("t", 1)
        with pytest.raises(CatalogError):
            catalog.add_table("T", 1)

    def test_duplicate_column_rejected(self):
        catalog = Catalog()
        catalog.add_table("t", 1, [Column("x")])
        with pytest.raises(CatalogError):
            catalog.add_column("t", Column("x"))

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("ghost")

    def test_tables_listing(self, tiny_catalog):
        names = {table.name for table in tiny_catalog.tables}
        assert names == {"users", "events"}

    def test_total_size(self, tiny_catalog):
        expected = sum(t.size_bytes for t in tiny_catalog.tables)
        assert tiny_catalog.total_size_bytes == expected

    def test_resolve_column(self, tiny_catalog):
        table, column = tiny_catalog.resolve_column("users.age")
        assert table.name == "users"
        assert column.name == "age"

    def test_resolve_requires_qualification(self, tiny_catalog):
        with pytest.raises(CatalogError):
            tiny_catalog.resolve_column("age")


class TestColumnOwnerMap:
    def test_unique_columns_mapped(self, tiny_catalog):
        owner = tiny_catalog.column_owner_map()
        assert owner["age"] == "users"
        assert owner["kind"] == "events"

    def test_ambiguous_columns_omitted(self):
        catalog = Catalog()
        catalog.add_table("a", 1, [Column("id")])
        catalog.add_table("b", 1, [Column("id")])
        assert "id" not in catalog.column_owner_map()


class TestScaling:
    def test_scaled_rows(self, tiny_catalog):
        scaled = tiny_catalog.scaled(10.0)
        assert scaled.table("users").rows == 100_000
        assert scaled.table("events").rows == 5_000_000

    def test_scaled_preserves_columns(self, tiny_catalog):
        scaled = tiny_catalog.scaled(2.0)
        assert set(scaled.table("users").columns) == {"user_id", "country", "age"}

    def test_scaled_keeps_small_ndv(self, tiny_catalog):
        # A 50-country column stays at 50 distinct values at any scale.
        scaled = tiny_catalog.scaled(10.0)
        assert scaled.table("users").column("country").ndv == 50

    def test_scaled_grows_large_ndv(self, tiny_catalog):
        scaled = tiny_catalog.scaled(10.0)
        assert scaled.table("events").column("payload").ndv == 1_000_000

    def test_invalid_scale_rejected(self, tiny_catalog):
        with pytest.raises(CatalogError):
            tiny_catalog.scaled(0)

    def test_original_untouched(self, tiny_catalog):
        tiny_catalog.scaled(5.0)
        assert tiny_catalog.table("users").rows == 10_000


class TestPickling:
    def test_catalog_pickle_drops_stats_view(self, tiny_catalog):
        catalog_stats(tiny_catalog)
        assert "_catalog_stats" in tiny_catalog.__dict__
        clone = pickle.loads(pickle.dumps(tiny_catalog))
        assert "_catalog_stats" not in clone.__dict__
        assert clone.content_fingerprint() == tiny_catalog.content_fingerprint()

    def test_catalog_pickle_drops_shared_caches(self, tiny_workload):
        """A used catalog pickles to its schema: the caches engines
        attach to it (analysis, plans, ...) stay behind."""
        catalog = tiny_workload.catalog
        run_job(BatchJob(workload=tiny_workload))
        assert catalog.__dict__.get("_shared_caches"), "the tune cached nothing"
        clone = pickle.loads(pickle.dumps(catalog))
        assert "_shared_caches" not in clone.__dict__
        assert clone.content_fingerprint() == catalog.content_fingerprint()
