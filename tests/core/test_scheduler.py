"""Query scheduler tests: Equation 1, Algorithm 4, oracle cross-checks.

The DP takes index masks; these tests state index sets and reach it
through the oracle encoder (``compute_order_dp_sets``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import (
    MAX_DP_INPUT,
    expected_cost,
    greedy_order,
    marginal_index_cost,
)
from repro.errors import SchedulerError
from tests.oracles import brute_force_order, compute_order_dp_sets


def scenario(index_map, costs):
    return (
        {q: frozenset(indexes) for q, indexes in index_map.items()},
        costs,
    )


class TestMarginalCost:
    def test_all_new_indexes(self):
        index_map, costs = scenario({"q": {"a", "b"}}, {"a": 1.0, "b": 2.0})
        assert marginal_index_cost("q", frozenset(), index_map, costs) == 3.0

    def test_existing_indexes_free(self):
        index_map, costs = scenario({"q": {"a", "b"}}, {"a": 1.0, "b": 2.0})
        assert marginal_index_cost("q", frozenset({"a"}), index_map, costs) == 2.0

    def test_query_without_indexes(self):
        assert marginal_index_cost("q", frozenset(), {}, {}) == 0.0


class TestExpectedCost:
    def test_paper_example_5_1(self):
        """Example 5.1: q1 costs 1, q2 costs 5, interruption after each
        position equally likely."""
        index_map, costs = scenario(
            {"q1": {"i1"}, "q2": {"i2"}}, {"i1": 1.0, "i2": 5.0}
        )
        # Order q1-q2: pay 1 always, 5 with probability 1/2 => 3.5.
        assert expected_cost(["q1", "q2"], index_map, costs) == pytest.approx(3.5)
        # Order q2-q1: 5 + 0.5*1 = 5.5.
        assert expected_cost(["q2", "q1"], index_map, costs) == pytest.approx(5.5)

    def test_empty_order(self):
        assert expected_cost([], {}, {}) == 0.0

    def test_shared_index_paid_once(self):
        index_map, costs = scenario(
            {"q1": {"a"}, "q2": {"a"}}, {"a": 10.0}
        )
        # Position 1 weight 2/2, q2 adds nothing.
        assert expected_cost(["q1", "q2"], index_map, costs) == pytest.approx(10.0)

    def test_order_of_shared_indexes_irrelevant(self):
        index_map, costs = scenario(
            {"q1": {"a"}, "q2": {"a"}}, {"a": 7.0}
        )
        forward = expected_cost(["q1", "q2"], index_map, costs)
        backward = expected_cost(["q2", "q1"], index_map, costs)
        assert forward == backward


class TestDPScheduler:
    def test_matches_paper_example(self):
        index_map, costs = scenario(
            {"q1": {"i1"}, "q2": {"i2"}}, {"i1": 1.0, "i2": 5.0}
        )
        assert compute_order_dp_sets(["q2", "q1"], index_map, costs) == ["q1", "q2"]

    def test_empty_input(self):
        assert compute_order_dp_sets([], {}, {}) == []

    def test_single_query(self):
        index_map, costs = scenario({"q": {"a"}}, {"a": 1.0})
        assert compute_order_dp_sets(["q"], index_map, costs) == ["q"]

    def test_queries_without_indexes_first_is_optimal(self):
        index_map, costs = scenario(
            {"free": set(), "costly": {"big"}}, {"big": 100.0}
        )
        order = compute_order_dp_sets(["costly", "free"], index_map, costs)
        assert order[0] == "free"

    def test_input_cap_enforced(self):
        queries = [f"q{i}" for i in range(MAX_DP_INPUT + 1)]
        with pytest.raises(SchedulerError):
            compute_order_dp_sets(queries, {}, {})

    def test_duplicate_handles_rejected(self):
        with pytest.raises(SchedulerError):
            compute_order_dp_sets(["q", "q"], {}, {})

    def test_preserves_all_queries(self):
        index_map, costs = scenario(
            {"a": {"x"}, "b": {"y"}, "c": {"x", "y"}},
            {"x": 1.0, "y": 2.0},
        )
        order = compute_order_dp_sets(["a", "b", "c"], index_map, costs)
        assert sorted(order) == ["a", "b", "c"]


@st.composite
def scheduling_instance(draw):
    n_queries = draw(st.integers(min_value=1, max_value=6))
    n_indexes = draw(st.integers(min_value=1, max_value=5))
    index_names = [f"i{k}" for k in range(n_indexes)]
    costs = {
        name: draw(st.floats(0.1, 20.0, allow_nan=False))
        for name in index_names
    }
    index_map = {}
    for q in range(n_queries):
        subset = draw(st.sets(st.sampled_from(index_names), max_size=n_indexes))
        index_map[f"q{q}"] = frozenset(subset)
    return list(index_map), index_map, costs


class TestOptimalityProperties:
    @settings(max_examples=60, deadline=None)
    @given(scheduling_instance())
    def test_dp_matches_brute_force(self, instance):
        queries, index_map, costs = instance
        dp = compute_order_dp_sets(queries, index_map, costs)
        oracle = brute_force_order(queries, index_map, costs)
        assert expected_cost(dp, index_map, costs) == pytest.approx(
            expected_cost(oracle, index_map, costs)
        )

    @settings(max_examples=60, deadline=None)
    @given(scheduling_instance())
    def test_dp_never_worse_than_greedy_or_input_order(self, instance):
        queries, index_map, costs = instance
        dp_cost = expected_cost(
            compute_order_dp_sets(queries, index_map, costs), index_map, costs
        )
        greedy_cost = expected_cost(
            greedy_order(queries, index_map, costs), index_map, costs
        )
        input_cost = expected_cost(queries, index_map, costs)
        assert dp_cost <= greedy_cost + 1e-9
        assert dp_cost <= input_cost + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(scheduling_instance())
    def test_dp_output_is_permutation(self, instance):
        queries, index_map, costs = instance
        order = compute_order_dp_sets(queries, index_map, costs)
        assert sorted(map(str, order)) == sorted(map(str, queries))

    @settings(max_examples=40, deadline=None)
    @given(scheduling_instance())
    def test_principle_of_optimality_theorem_5_2(self, instance):
        """Improving a prefix never worsens the total (Theorem 5.2)."""
        queries, index_map, costs = instance
        if len(queries) < 3:
            return
        order = list(queries)
        k = len(order) // 2
        prefix, suffix = order[:k], order[k:]
        best_prefix = brute_force_order(prefix, index_map, costs)
        original = expected_cost(order, index_map, costs)
        improved = expected_cost(best_prefix + suffix, index_map, costs)
        assert improved <= original + 1e-9
