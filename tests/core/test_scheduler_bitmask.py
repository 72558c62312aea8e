"""Bitmask DP core vs. executable specification and oracle.

The production scheduler (:func:`compute_order_dp`) is a bitmask
rewrite of the original dict/frozenset Algorithm 4, kept as the test
oracle ``tests.oracles.compute_order_dp_reference``.  The instances
below are index sets, encoded to masks by the oracle encoder
(``compute_order_dp_sets``, ``encode_bitmasks``).  These tests pin
the rewrite to the specification:

- for n <= 8 the bitmask order achieves exactly the brute-force-optimal
  Equation-1 cost,
- for randomized instances up to the paper's cap (n = 13, beyond
  brute-force reach) the bitmask order is *identical* to the reference
  order -- both use the same canonical summation order and tie-break,
  so equality is exact, not approximate,
- the numpy-vectorized and pure-python scalar cores agree bit-for-bit
  on the layers where both apply.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import (
    MAX_DP_INPUT,
    _dp_parents_scalar,
    _dp_parents_vectorized,
    bit_positions,
    compute_order_dp,
    expected_cost,
    pack_bits,
)
from tests.oracles import (
    brute_force_order,
    compute_order_dp_reference,
    compute_order_dp_sets,
    encode_bitmasks,
)


def _random_instance(rng: random.Random, n_queries: int):
    n_indexes = rng.randint(1, 2 * n_queries)
    index_names = [f"i{k}" for k in range(n_indexes)]
    costs = {name: rng.uniform(0.05, 30.0) for name in index_names}
    index_map = {
        f"q{q}": frozenset(
            rng.sample(index_names, rng.randint(0, min(5, n_indexes)))
        )
        for q in range(n_queries)
    }
    return list(index_map), index_map, costs


def _random_encoded_instance(
    rng: random.Random, n_queries: int, costs: str, bits: tuple = (0, 63)
):
    """An encoded DP input: an index universe of ``bits`` bits (a range),
    ``costs`` random, all zero or all equal, and some repeated index
    sets."""
    n_bits = rng.randint(*bits)
    if costs == "zero":
        bit_costs = [0.0] * n_bits
    elif costs == "equal":
        bit_costs = [rng.choice([0.5, 1.0, 7.25])] * n_bits
    else:
        bit_costs = [
            rng.choice([0.0, 1.0, rng.uniform(0.0, 30.0), rng.uniform(0.0, 1e-11)])
            for _ in range(n_bits)
        ]
    qmasks: list[int] = []
    for _ in range(n_queries):
        if qmasks and rng.random() < 0.25:
            qmasks.append(rng.choice(qmasks))
            continue
        density = rng.choice([0.05, 0.2, 0.5])
        qmasks.append(
            sum(1 << bit for bit in range(n_bits) if rng.random() < density)
        )
    return qmasks, bit_costs


def _job_shaped_instance(rng: random.Random, n_queries: int, shape: str):
    """An encoded DP input shaped like the cluster inputs of a JOB tune:
    29-32 index bits, 7-22 per cluster.  ``shape`` adds a bit that one
    cluster owns alone, a bit that every cluster owns, or a cluster that
    needs no index."""
    n_bits = rng.randint(29, 32)
    bit_costs = [rng.uniform(0.1, 30.0) for _ in range(n_bits)]
    qmasks = [
        sum(1 << bit for bit in rng.sample(range(n_bits), rng.randint(7, 22)))
        for _ in range(n_queries)
    ]
    bit = 1 << rng.randrange(n_bits)
    if shape == "solo-bit":
        qmasks = [qmask & ~bit for qmask in qmasks]
        qmasks[rng.randrange(n_queries)] |= bit
    elif shape == "shared-bit":
        qmasks = [qmask | bit for qmask in qmasks]
    elif shape == "empty-cluster":
        qmasks[rng.randrange(n_queries)] = 0
    return qmasks, bit_costs


@st.composite
def bitmask_instance(draw, max_queries=8):
    n_queries = draw(st.integers(min_value=1, max_value=max_queries))
    n_indexes = draw(st.integers(min_value=1, max_value=6))
    index_names = [f"i{k}" for k in range(n_indexes)]
    costs = {
        name: draw(st.floats(0.05, 25.0, allow_nan=False))
        for name in index_names
    }
    index_map = {
        f"q{q}": frozenset(
            draw(st.sets(st.sampled_from(index_names), max_size=n_indexes))
        )
        for q in range(n_queries)
    }
    return list(index_map), index_map, costs


class TestBitmaskMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(bitmask_instance(max_queries=6))
    def test_cost_equals_brute_force_small(self, instance):
        queries, index_map, costs = instance
        dp = compute_order_dp_sets(queries, index_map, costs)
        oracle = brute_force_order(queries, index_map, costs)
        assert expected_cost(dp, index_map, costs) == pytest.approx(
            expected_cost(oracle, index_map, costs)
        )

    def test_cost_equals_brute_force_randomized_n8(self):
        rng = random.Random(1234)
        for _ in range(15):
            queries, index_map, costs = _random_instance(rng, 8)
            dp = compute_order_dp_sets(queries, index_map, costs)
            oracle = brute_force_order(queries, index_map, costs)
            assert expected_cost(dp, index_map, costs) == pytest.approx(
                expected_cost(oracle, index_map, costs)
            )


class TestBitmaskMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(bitmask_instance(max_queries=8))
    def test_order_identical_to_reference(self, instance):
        queries, index_map, costs = instance
        assert compute_order_dp_sets(
            queries, index_map, costs
        ) == compute_order_dp_reference(queries, index_map, costs)

    @pytest.mark.parametrize("n_queries", [9, 11, MAX_DP_INPUT])
    def test_order_identical_to_reference_large(self, n_queries):
        """Beyond brute-force reach, the rewrite must *be* the spec."""
        rng = random.Random(42 + n_queries)
        for _ in range(5):
            queries, index_map, costs = _random_instance(rng, n_queries)
            assert compute_order_dp_sets(
                queries, index_map, costs
            ) == compute_order_dp_reference(queries, index_map, costs)


class TestScalarVectorizedAgreement:
    @pytest.mark.parametrize("n_queries", [8, 9, 10, 12])
    def test_parents_bit_identical(self, n_queries):
        pytest.importorskip("numpy")
        rng = random.Random(7 * n_queries)
        for _ in range(4):
            queries, index_map, costs = _random_instance(rng, n_queries)
            masks, universe = encode_bitmasks(queries, index_map)
            qmasks = [masks[query] for query in queries]
            bit_costs = [costs[index] for index in universe]
            assert len(bit_costs) <= 63
            scalar = _dp_parents_scalar(n_queries, qmasks, bit_costs)
            vectorized = _dp_parents_vectorized(n_queries, qmasks, bit_costs)
            assert scalar == vectorized

    @pytest.mark.parametrize("costs", ["random", "zero", "equal"])
    def test_parents_bit_identical_wide_universes(self, costs):
        """n = 9..13 over up to 63 index bits, with zero costs, equal
        costs (every candidate ties), repeated index sets, and costs
        below 1e-11 that put candidates within the 1e-12 tie rule of
        each other, so the kernel's argmin and scan paths both run."""
        pytest.importorskip("numpy")
        rng = random.Random(f"wide-{costs}")
        for _ in range(40):
            n_queries = rng.randint(9, MAX_DP_INPUT)
            qmasks, bit_costs = _random_encoded_instance(rng, n_queries, costs)
            scalar = _dp_parents_scalar(n_queries, qmasks, bit_costs)
            vectorized = _dp_parents_vectorized(n_queries, qmasks, bit_costs)
            assert scalar == vectorized

    @pytest.mark.parametrize("costs", ["random", "zero", "equal"])
    def test_parents_bit_identical_beyond_63_bits(self, costs):
        """n = 8..13 over 64-100 index bits: the kernel keeps index bits
        in Python ints, so universes wider than an int64 take it too."""
        rng = random.Random(f"beyond-63-{costs}")
        for _ in range(10):
            n_queries = rng.randint(8, MAX_DP_INPUT)
            qmasks, bit_costs = _random_encoded_instance(
                rng, n_queries, costs, bits=(64, 100)
            )
            scalar = _dp_parents_scalar(n_queries, qmasks, bit_costs)
            vectorized = _dp_parents_vectorized(n_queries, qmasks, bit_costs)
            assert scalar == vectorized

    @pytest.mark.parametrize(
        "shape", ["plain", "solo-bit", "shared-bit", "empty-cluster"]
    )
    def test_parents_bit_identical_job_shaped(self, shape):
        """Two n = 13 inputs and one of n = 9..12 per shape."""
        pytest.importorskip("numpy")
        rng = random.Random(f"job-{shape}")
        for n_queries in (MAX_DP_INPUT, MAX_DP_INPUT, rng.randint(9, 12)):
            qmasks, bit_costs = _job_shaped_instance(rng, n_queries, shape)
            scalar = _dp_parents_scalar(n_queries, qmasks, bit_costs)
            vectorized = _dp_parents_vectorized(n_queries, qmasks, bit_costs)
            assert scalar == vectorized


def _spread(mask: int, spread_bits: int) -> int:
    """``mask`` with bit ``b`` moved to bit ``spread_bits * b + 1``."""
    return sum(1 << (spread_bits * bit + 1) for bit in bit_positions(mask))


class TestMaskInput:
    """``compute_order_dp`` reads masks over the caller's universe and
    keeps only the bits some query uses, packed in ascending order."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**70 - 1), max_size=12))
    def test_pack_bits_renumbers_used_bits(self, masks):
        used = 0
        for mask in masks:
            used |= mask
        positions = bit_positions(used)
        expected = [
            sum(1 << rank for rank, bit in enumerate(positions) if mask >> bit & 1)
            for mask in masks
        ]
        assert pack_bits(masks) == (expected, used)

    @pytest.mark.parametrize("n_queries", [5, 9, MAX_DP_INPUT])
    def test_unused_universe_bits_change_nothing(self, n_queries):
        """Spreading the used bits across a wider universe, with costs
        on bits no query uses, gives the same order and the same memo
        entry."""
        rng = random.Random(11 * n_queries)
        for _ in range(3):
            queries, index_map, costs = _random_instance(rng, n_queries)
            masks, universe = encode_bitmasks(queries, index_map)
            bit_costs = [costs[index] for index in universe]
            memo: dict = {}
            first = compute_order_dp(queries, masks, bit_costs, memo=memo)
            spread = {query: _spread(mask, 3) for query, mask in masks.items()}
            wide_costs = [rng.uniform(0.0, 30.0) for _ in range(3 * len(universe) + 2)]
            for bit, cost in enumerate(bit_costs):
                wide_costs[3 * bit + 1] = cost
            assert compute_order_dp(queries, spread, wide_costs) == first
            assert compute_order_dp(queries, spread, wide_costs, memo=memo) == first
            assert len(memo) == 1
            assert first == compute_order_dp_reference(queries, index_map, costs)


class TestOrderMemo:
    def test_hit_with_other_handles_returns_them_in_order(self):
        rng = random.Random(5)
        for n_queries in (4, 9, MAX_DP_INPUT):
            queries, index_map, costs = _random_instance(rng, n_queries)
            renamed = {f"other-{q}": index_map[q] for q in queries}
            memo: dict = {}
            first = compute_order_dp_sets(queries, index_map, costs, memo=memo)
            assert first == compute_order_dp_sets(queries, index_map, costs)
            assert len(memo) == 1
            hit = compute_order_dp_sets(list(renamed), renamed, costs, memo=memo)
            assert len(memo) == 1
            assert hit == [f"other-{q}" for q in first]
            assert hit == compute_order_dp_sets(list(renamed), renamed, costs)

    def test_hit_skips_the_solve(self, monkeypatch):
        import repro.core.scheduler as scheduler_module

        rng = random.Random(6)
        queries, index_map, costs = _random_instance(rng, 10)
        memo: dict = {}
        first = compute_order_dp_sets(queries, index_map, costs, memo=memo)

        def no_solve(*args):
            raise AssertionError("DP ran on a memo hit")

        monkeypatch.setattr(scheduler_module, "_dp_parents_vectorized", no_solve)
        monkeypatch.setattr(scheduler_module, "_dp_parents_scalar", no_solve)
        assert compute_order_dp_sets(queries, index_map, costs, memo=memo) == first
        used = min(index for q in queries for index in index_map[q])
        changed = dict(costs, **{used: costs[used] + 1.0})
        with pytest.raises(AssertionError, match="memo hit"):
            compute_order_dp_sets(queries, index_map, changed, memo=memo)
