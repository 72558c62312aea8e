"""Workload and query containers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.catalog import Catalog
from repro.errors import ReproError
from repro.sql.analyzer import QueryInfo, analyze


@dataclass(frozen=True, slots=True)
class Query:
    """One named benchmark query with its cached analysis."""

    name: str
    sql: str
    info: QueryInfo

    @staticmethod
    def from_sql(name: str, sql: str, catalog: Catalog) -> "Query":
        """Parse and analyze SQL against a catalog's column-owner map."""
        info = analyze(sql, catalog.column_owner_map())
        for table in info.tables:
            if not catalog.has_table(table):
                raise ReproError(
                    f"query {name!r} references unknown table {table!r}"
                )
        return Query(name=name, sql=sql, info=info)

    def __repr__(self) -> str:
        return f"Query({self.name!r})"


@dataclass(slots=True)
class Workload:
    """A benchmark: catalog plus query set."""

    name: str
    catalog: Catalog
    queries: list[Query] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [query.name for query in self.queries]
        if len(names) != len(set(names)):
            raise ReproError(f"workload {self.name!r} has duplicate query names")

    def __len__(self) -> int:
        return len(self.queries)

    def query(self, name: str) -> Query:
        for query in self.queries:
            if query.name == name:
                return query
        raise ReproError(f"workload {self.name!r} has no query {name!r}")

    def subset(self, names: list[str]) -> "Workload":
        """A new workload restricted to the given query names (in order)."""
        return Workload(
            name=f"{self.name}-subset",
            catalog=self.catalog,
            queries=[self.query(name) for name in names],
        )

    @property
    def join_conditions(self):
        """Union of join conditions across all queries."""
        conditions = set()
        for query in self.queries:
            conditions.update(query.info.join_conditions)
        return conditions


def build_queries(catalog: Catalog, named_sql: list[tuple[str, str]]) -> list[Query]:
    """Helper used by the concrete workloads."""
    return [Query.from_sql(name, sql, catalog) for name, sql in named_sql]
