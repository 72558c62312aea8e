"""Prompt generation tests: tokens, ILP selection, compression, template."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LambdaTune
from repro.core.prompt import compression
from repro.core.prompt.compression import WorkloadCompressor, render_lines
from repro.core.prompt.ilp import build_snippet_ilp, select_snippets
from repro.core.prompt.obfuscate import Obfuscator
from repro.core.prompt.template import PromptGenerator, render_prompt
from repro.core.prompt.tokens import column_tokens, count_tokens
from repro.db.hardware import HardwareSpec
from repro.db.mysql import MySQLEngine
from repro.db.postgres import PostgresEngine
from repro.llm import SimulatedLLM
from repro.sql.analyzer import JoinCondition


class TestTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_words_and_punctuation(self):
        assert count_tokens("a b") == 2
        assert count_tokens("a.b") == 3

    def test_long_words_cost_more(self):
        assert count_tokens("effective_cache_size") > count_tokens("x")

    def test_monotone_in_text(self):
        assert count_tokens("abc def") <= count_tokens("abc def ghi")

    def test_column_tokens_includes_separator(self):
        assert column_tokens("t.c") == count_tokens("t.c") + 1

    @given(st.text(max_size=200))
    def test_never_negative(self, text):
        assert count_tokens(text) >= 0


def make_values(*triples):
    return {
        JoinCondition.make(left, right): value for left, right, value in triples
    }


class TestSnippetILP:
    def test_empty_values(self):
        selection = select_snippets({}, 100)
        assert selection.lines == {}
        assert selection.value == 0.0

    def test_zero_budget(self):
        values = make_values(("a.x", "b.y", 10.0))
        assert select_snippets(values, 0).lines == {}

    def test_single_condition_selected(self):
        values = make_values(("a.x", "b.y", 10.0))
        selection = select_snippets(values, 100)
        assert selection.conditions == set(values)
        assert selection.value == pytest.approx(10.0)

    def test_merging_shares_line_head(self):
        # A joins B, C, D: one line "a.x: b.y, c.y, d.y" is cheaper than
        # three separate lines.
        values = make_values(
            ("a.x", "b.y", 5.0), ("a.x", "c.y", 5.0), ("a.x", "d.y", 5.0)
        )
        selection = select_snippets(values, 1000)
        assert len(selection.lines) == 1
        head, partners = next(iter(selection.lines.items()))
        assert head == "a.x"
        assert len(partners) == 3

    def test_budget_prefers_high_value(self):
        cheap_budget = column_tokens("a.x") + column_tokens("b.y")
        values = make_values(("a.x", "b.y", 100.0), ("c.z", "d.w", 1.0))
        selection = select_snippets(values, cheap_budget)
        assert selection.conditions == {JoinCondition.make("a.x", "b.y")}

    def test_no_symmetric_duplicates(self):
        values = make_values(("a.x", "b.y", 10.0))
        selection = select_snippets(values, 1000)
        rendered = render_lines(selection, values)
        text = "\n".join(rendered)
        assert text.count("a.x") + text.count("b.y") == 2

    def test_tokens_used_within_budget(self):
        values = make_values(
            ("a.x", "b.y", 3.0), ("b.y", "c.z", 2.0), ("c.z", "d.w", 1.0)
        )
        for budget in (5, 10, 20, 50):
            selection = select_snippets(values, budget)
            assert selection.tokens_used <= budget

    def test_greedy_method_feasible(self):
        values = make_values(("a.x", "b.y", 3.0), ("c.z", "d.w", 2.0))
        selection = select_snippets(values, 12, method="greedy")
        assert selection.tokens_used <= 12

    def test_model_constraint_structure(self):
        values = make_values(("a.x", "b.y", 1.0))
        model, left_vars, right_vars = build_snippet_ilp(values, 10)
        # 2 columns => 2 L vars; 1 condition => 2 directed R vars.
        assert len(left_vars) == 2
        assert len(right_vars) == 2
        assert model.variable_count == 4

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(
                st.sampled_from(["a.c1", "b.c2", "c.c3", "d.c4"]),
                st.sampled_from(["e.k1", "f.k2", "g.k3"]),
            ),
            st.floats(0.1, 100.0, allow_nan=False),
            max_size=8,
        ),
        st.integers(min_value=0, max_value=80),
    )
    def test_selection_always_within_budget(self, pairs, budget):
        values = {
            JoinCondition.make(left, right): value
            for (left, right), value in pairs.items()
        }
        selection = select_snippets(values, budget)
        assert selection.tokens_used <= budget
        assert selection.value <= sum(values.values()) + 1e-9


class TestCompressor:
    def test_compress_tiny_workload(self, pg_engine, tiny_workload):
        compressor = WorkloadCompressor(pg_engine)
        result = compressor.compress(list(tiny_workload.queries), 200)
        assert result.lines
        assert "users.user_id" in result.text or "events.user_id2" in result.text

    def test_coverage_fraction(self, pg_engine, tiny_workload):
        compressor = WorkloadCompressor(pg_engine)
        full = compressor.compress(list(tiny_workload.queries), 10_000)
        assert full.coverage == pytest.approx(1.0)
        nothing = compressor.compress(list(tiny_workload.queries), 0)
        assert nothing.coverage == 0.0

    def test_lines_ordered_by_value(self, tpch):
        engine = PostgresEngine(tpch.catalog)
        compressor = WorkloadCompressor(engine)
        result = compressor.compress(list(tpch.queries), 10_000)
        values = compressor.snippet_values(list(tpch.queries))

        def line_total(line):
            head, _, rest = line.partition(":")
            return sum(
                values.get(JoinCondition.make(head.strip(), p.strip()), 0.0)
                for p in rest.split(",")
            )

        totals = [line_total(line) for line in result.lines]
        assert totals == sorted(totals, reverse=True)

    def test_co_occurrence_relation(self, pg_engine, tiny_workload):
        compressor = WorkloadCompressor(pg_engine, relation="co_occurrence")
        values = compressor.snippet_values(list(tiny_workload.queries))
        assert any("_table" in c.left for c in values)

    def test_column_usage_relation(self, pg_engine, tiny_workload):
        compressor = WorkloadCompressor(pg_engine, relation="column_usage")
        values = compressor.snippet_values(list(tiny_workload.queries))
        assert values

    def test_unknown_relation_rejected(self, pg_engine):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            WorkloadCompressor(pg_engine, relation="astrology")

    def test_expensive_joins_survive_small_budget(self, tpch):
        engine = PostgresEngine(tpch.catalog)
        compressor = WorkloadCompressor(engine)
        values = compressor.snippet_values(list(tpch.queries))
        top_condition = max(values, key=values.get)
        result = compressor.compress(list(tpch.queries), 60)
        assert any(
            top_condition.left in line and "." in line for line in result.lines
        ) or any(top_condition.right in line for line in result.lines)


class TestSnippetSelectionMemo:
    """``compress`` is memoized on the catalog: one solve per input."""

    @pytest.fixture()
    def solves(self, monkeypatch):
        """Budgets of the ``select_snippets`` calls made through the module."""
        budgets = []
        original = compression.select_snippets

        def counting(values, budget, **kwargs):
            budgets.append(budget)
            return original(values, budget, **kwargs)

        monkeypatch.setattr(compression, "select_snippets", counting)
        return budgets

    def test_second_prompt_on_a_fresh_engine_solves_nothing(
        self, tiny_workload, solves
    ):
        queries = list(tiny_workload.queries)

        def prompt(**engine_options):
            engine = PostgresEngine(tiny_workload.catalog, **engine_options)
            return LambdaTune(engine, SimulatedLLM()).generate_prompt(queries)

        first = prompt()
        assert len(solves) == 1
        second = prompt()
        assert len(solves) == 1
        assert second.text == first.text
        assert prompt(caches=False).text == first.text
        assert len(solves) == 2

    @pytest.mark.parametrize(
        "change", ["budget", "solver", "relation", "system", "config"]
    )
    def test_every_keyed_input_misses(self, tiny_workload, solves, change):
        catalog = tiny_workload.catalog
        queries = list(tiny_workload.queries)
        WorkloadCompressor(PostgresEngine(catalog)).compress(queries, 300)
        assert len(solves) == 1
        engine = PostgresEngine(catalog)
        options = {}
        budget = 300
        if change == "budget":
            budget = 200
        elif change == "solver":
            options["solver_method"] = "greedy"
        elif change == "relation":
            options["relation"] = "co_occurrence"
        elif change == "system":
            engine = MySQLEngine(catalog)
        else:
            engine.apply_config({"work_mem": "64MB"})
            assert engine.config_signature != PostgresEngine(catalog).config_signature
        WorkloadCompressor(engine, **options).compress(queries, budget)
        assert len(solves) == 2

    def test_concurrent_prompts_share_one_entry(self, tiny_workload):
        queries = list(tiny_workload.queries)

        def prompt(caches=True):
            engine = PostgresEngine(tiny_workload.catalog, caches=caches)
            return LambdaTune(engine, SimulatedLLM()).generate_prompt(queries).text

        expected = prompt(caches=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(prompt) for _ in range(32)]
                texts = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert texts == [expected] * 32
        sections = tiny_workload.catalog._shared_caches
        assert len(sections[compression.SELECTION_SECTION]) == 1

    def test_edits_to_a_result_never_reach_the_memo(self, tiny_workload, solves):
        compressor = WorkloadCompressor(PostgresEngine(tiny_workload.catalog))
        queries = list(tiny_workload.queries)
        first = compressor.compress(queries, 300)
        lines, conditions = list(first.lines), set(first.conditions)
        assert lines and conditions
        first.lines.append("edited: line")
        first.conditions.clear()
        second = compressor.compress(queries, 300)
        assert (second.lines, second.conditions) == (lines, conditions)
        second.lines.clear()
        second.conditions.add(JoinCondition.make("a.x", "b.y"))
        third = compressor.compress(queries, 300)
        assert (third.lines, third.conditions) == (lines, conditions)
        assert len(solves) == 1


class TestTemplate:
    def test_listing1_structure(self):
        text = render_prompt("postgres", "a.x: b.y", HardwareSpec(61, 8))
        assert "Recommend some configuration parameters for PostgreSQL" in text
        assert "a.x: b.y" in text
        assert "memory: 61GB" in text
        assert "cores: 8" in text

    def test_mysql_name(self):
        text = render_prompt("mysql", "", HardwareSpec(16, 4))
        assert "MySQL" in text

    def test_generator_compressed(self, pg_engine, tiny_workload):
        prompt = PromptGenerator(pg_engine).generate(
            list(tiny_workload.queries), 300
        )
        assert prompt.compression is not None
        assert prompt.tokens > 0

    def test_generator_raw_sql_mode(self, pg_engine, tiny_workload):
        prompt = PromptGenerator(pg_engine, use_compressor=False).generate(
            list(tiny_workload.queries), 10_000
        )
        assert prompt.compression is None
        assert "SELECT" in prompt.text

    def test_raw_sql_respects_budget(self, pg_engine, tiny_workload):
        prompt = PromptGenerator(pg_engine, use_compressor=False).generate(
            list(tiny_workload.queries), 15
        )
        assert prompt.text.count("SELECT") <= 1


class TestObfuscator:
    def test_encode_deterministic(self):
        obfuscator = Obfuscator()
        assert obfuscator.encode_qualified("lineitem.l_orderkey") == "t1.c1"
        assert obfuscator.encode_qualified("lineitem.l_partkey") == "t1.c2"
        assert obfuscator.encode_qualified("orders.o_orderkey") == "t2.c3"

    def test_encode_line(self):
        obfuscator = Obfuscator()
        line = obfuscator.encode_line("a.x: b.y, c.z")
        assert line == "t1.c1: t2.c2, t3.c3"

    def test_decode_round_trip(self):
        obfuscator = Obfuscator()
        obfuscator.encode_line("lineitem.l_orderkey: orders.o_orderkey")
        encoded = "CREATE INDEX ON t1 (c1); ALTER SYSTEM SET work_mem = '1GB';"
        decoded = obfuscator.decode_text(encoded)
        assert "ON lineitem (l_orderkey)" in decoded
        assert "work_mem" in decoded

    def test_decode_handles_double_digit_codes(self):
        obfuscator = Obfuscator()
        for i in range(12):
            obfuscator.encode_table(f"table{i}")
        decoded = obfuscator.decode_text("t12 t1")
        assert decoded == "table11 table0"

    def test_obfuscated_prompt_hides_names(self, pg_engine, tiny_workload):
        prompt = PromptGenerator(pg_engine, obfuscate=True).generate(
            list(tiny_workload.queries), 300
        )
        assert "users" not in prompt.text.split("Recommend")[1].split("memory")[0]
        assert prompt.obfuscator is not None


class TestBatchedSnippetValues:
    """PR 10: the compressor's value passes run through one ``plan_many``
    call; values must be bit-identical to a per-query ``explain`` loop."""

    @pytest.mark.parametrize("relation", ["co_occurrence", "column_usage"])
    def test_batched_values_match_per_query_reference(
        self, pg_engine, tiny_workload, relation
    ):
        queries = list(tiny_workload.queries)
        batched = WorkloadCompressor(pg_engine, relation=relation)
        values = batched.snippet_values(queries)

        # Reference: the pre-batching formulation, one explain per query.
        reference: dict = {}
        if relation == "co_occurrence":
            for query in queries:
                cost = pg_engine.explain(query).estimated_cost
                tables = sorted(pg_engine.query_info(query).tables)
                for i, left in enumerate(tables):
                    for right in tables[i + 1:]:
                        condition = JoinCondition.make(
                            f"{left}._table", f"{right}._table"
                        )
                        reference[condition] = (
                            reference.get(condition, 0.0) + cost
                        )
        else:
            for query in queries:
                plan = pg_engine.explain(query)
                scan_cost = {
                    scan.table: scan.estimated_cost for scan in plan.scans
                }
                info = pg_engine.query_info(query)
                for predicate in info.filters:
                    condition = JoinCondition.make(
                        f"{predicate.table}._filters",
                        predicate.qualified_column,
                    )
                    reference[condition] = reference.get(
                        condition, 0.0
                    ) + scan_cost.get(predicate.table, 0.0)

        assert set(values) == set(reference)
        for condition, value in values.items():
            assert repr(value) == repr(reference[condition]), condition

    @pytest.mark.parametrize("relation", ["co_occurrence", "column_usage"])
    def test_batched_values_on_tpch(self, tpch, relation):
        engine = PostgresEngine(tpch.catalog)
        queries = list(tpch.queries)
        values = WorkloadCompressor(engine, relation=relation).snippet_values(
            queries
        )
        assert values, f"{relation} produced no snippet values on tpch"


class TestTokenMemoization:
    """PR 10: ``count_tokens``/``column_tokens`` carry a bounded memo."""

    def test_memo_hit_returns_same_value(self):
        count_tokens.cache_clear()
        cold = count_tokens("effective_cache_size = '16GB'")
        info_after_miss = count_tokens.cache_info()
        warm = count_tokens("effective_cache_size = '16GB'")
        info_after_hit = count_tokens.cache_info()
        assert warm == cold
        assert info_after_hit.hits == info_after_miss.hits + 1

    def test_cache_is_bounded(self):
        assert count_tokens.cache_info().maxsize is not None
        assert column_tokens.cache_info().maxsize is not None

    def test_column_tokens_memoized_consistently(self):
        column_tokens.cache_clear()
        assert column_tokens("users.age") == count_tokens("users.age") + 1
        assert column_tokens("users.age") == count_tokens("users.age") + 1
