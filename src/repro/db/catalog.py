"""Schema catalog with statistics.

The catalog plays the role of ``pg_catalog`` / ``information_schema``:
it records tables, columns, row counts, row widths, and per-column
distinct counts.  The planner derives page counts and join/filter
cardinalities from it, and the analyzer uses its column-ownership map to
resolve unqualified column references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError

PAGE_SIZE = 8192  # bytes, PostgreSQL default block size


@dataclass(frozen=True, slots=True)
class Column:
    """One column with the statistics the cost model needs."""

    name: str
    # Average width in bytes (as in pg_stats.avg_width).
    width: int = 8
    # Number of distinct values; -1 means "unique" (a key column).
    ndv: int = -1
    is_primary_key: bool = False

    def distinct_values(self, table_rows: int) -> int:
        """Resolve the distinct count against the owning table's row count."""
        if self.ndv < 0:
            return max(1, table_rows)
        return max(1, min(self.ndv, table_rows))


@dataclass(slots=True)
class Table:
    """One base table."""

    name: str
    rows: int
    columns: dict[str, Column] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rows < 0:
            raise CatalogError(f"table {self.name!r} has negative row count")

    @property
    def row_width(self) -> int:
        """Total average row width in bytes (minimum one byte)."""
        return max(1, sum(column.width for column in self.columns.values()))

    @property
    def size_bytes(self) -> int:
        return self.rows * self.row_width

    @property
    def pages(self) -> int:
        """Heap pages occupied by this table."""
        return max(1, -(-self.size_bytes // PAGE_SIZE))

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            ) from None


class Catalog:
    """A collection of tables forming one database schema."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._generation = 0
        self._fingerprint: str | None = None

    # -- schema construction ---------------------------------------------------

    def _bump_generation(self) -> None:
        self._generation += 1
        self._fingerprint = None

    @property
    def generation(self) -> int:
        """Monotonic counter bumped on every schema mutation.

        Process-local memoization (e.g. planner selectivities) keys on
        this to invalidate when the schema changes underneath it.
        """
        return self._generation

    def content_fingerprint(self) -> str:
        """SHA-256 over the full schema content (names, rows, stats).

        Unlike :attr:`generation` this is stable across processes, so
        the persistent artifact cache uses it as key material.  Memoized
        until the next schema mutation.
        """
        if self._fingerprint is None:
            from hashlib import sha256

            parts = [f"catalog|{self.name}"]
            for table_name in sorted(self._tables):
                table = self._tables[table_name]
                parts.append(f"t|{table.name}|{table.rows}")
                for column_name in sorted(table.columns):
                    column = table.columns[column_name]
                    parts.append(
                        "c|{}|{}|{}|{}".format(
                            column.name,
                            column.width,
                            column.ndv,
                            int(column.is_primary_key),
                        )
                    )
            self._fingerprint = sha256(
                "\n".join(parts).encode("utf-8")
            ).hexdigest()
        return self._fingerprint

    def __getstate__(self) -> dict:
        """Pickle the schema only, without any derived cache.

        Two kinds of derived state live on a used catalog object, and
        the far side rebuilds both on demand, bit identically:

        - the planner's numpy stats view (``catalog_stats``), which
          also holds per-query statics keyed by ``id()`` of the
          analyzed query -- an ``id()`` means nothing in another
          process;
        - the catalog-shared caches (``engine.shared_catalog_cache``:
          analysis, plans, join values, ...), which grow with use:
          after four in-process tunes one JOB ``BatchJob`` pickled to
          1.99 MB (99 ms to dump) against 246 KB cold.

        Pool jobs therefore ship the schema and nothing else.  A
        service job that names a registry spec string never crosses
        this way: the process running it resolves the string itself and
        keeps that workload, caches and all, for later jobs.
        """
        state = self.__dict__.copy()
        state.pop("_catalog_stats", None)
        state.pop("_shared_caches", None)
        return state

    def add_table(
        self,
        name: str,
        rows: int,
        columns: list[Column] | None = None,
    ) -> Table:
        """Register a table; rejects duplicates and duplicate column names."""
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name=key, rows=rows)
        self._tables[key] = table
        self._bump_generation()
        for column in columns or []:
            self.add_column(key, column)
        return table

    def add_column(self, table_name: str, column: Column) -> None:
        table = self.table(table_name)
        if column.name in table.columns:
            raise CatalogError(
                f"duplicate column {column.name!r} in table {table_name!r}"
            )
        table.columns[column.name] = column
        self._bump_generation()

    # -- lookups -----------------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    @property
    def tables(self) -> list[Table]:
        return list(self._tables.values())

    @property
    def total_size_bytes(self) -> int:
        return sum(table.size_bytes for table in self._tables.values())

    def column_owner_map(self) -> dict[str, str]:
        """Map each column name to its owning table.

        Columns whose names appear in several tables are omitted: the
        analyzer must not guess between ambiguous owners.
        """
        owner: dict[str, str] = {}
        ambiguous: set[str] = set()
        for table in self._tables.values():
            for column_name in table.columns:
                if column_name in owner:
                    ambiguous.add(column_name)
                else:
                    owner[column_name] = table.name
        for column_name in ambiguous:
            owner.pop(column_name, None)
        return owner

    def resolve_column(self, qualified: str) -> tuple[Table, Column]:
        """Resolve ``table.column`` to catalog objects."""
        if "." not in qualified:
            raise CatalogError(f"expected qualified column, got {qualified!r}")
        table_name, column_name = qualified.rsplit(".", 1)
        table = self.table(table_name)
        return table, table.column(column_name)

    def scaled(self, factor: float, name: str | None = None) -> "Catalog":
        """Return a copy with all row counts multiplied by ``factor``.

        Used to derive TPC-H SF10 from the SF1 schema definition.
        """
        if factor <= 0:
            raise CatalogError("scale factor must be positive")
        clone = Catalog(name or f"{self.name}@x{factor:g}")
        for table in self._tables.values():
            scaled_columns = []
            for column in table.columns.values():
                ndv = column.ndv
                if ndv > 0:
                    ndv = max(1, int(ndv * factor)) if factor < 1 or ndv > 1000 else ndv
                scaled_columns.append(
                    Column(
                        name=column.name,
                        width=column.width,
                        ndv=ndv,
                        is_primary_key=column.is_primary_key,
                    )
                )
            clone.add_table(
                table.name, max(1, int(table.rows * factor)), scaled_columns
            )
        return clone
