"""Algorithm 4 as first written, a brute-force order oracle, and the
encoder between index sets and masks.

:func:`compute_order_dp_reference` keeps DP states as dicts of
frozensets and orders as tuples, summing costs in the same canonical
(str-sorted) index order and breaking ties with the same strict
``1e-12`` rule as ``repro.core.scheduler.compute_order_dp``, so the two
return identical orders.  :func:`brute_force_order` minimizes
Equation 1 over every permutation.

``src/`` passes index sets as int masks over a universe in ``str``
order.  :func:`encode_bitmasks` builds that encoding from a handle ->
frozenset map, over the union of the sets, and :func:`decode_mask`
reverses it; tests that state their inputs as sets go through them.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Mapping, Sequence

from repro.core.scheduler import (
    _EPS,
    _checked_handles,
    compute_order_dp,
    expected_cost,
)
from repro.errors import SchedulerError


def compute_order_dp_reference(
    queries: Sequence[Hashable],
    index_map: Mapping[Hashable, frozenset],
    index_cost: Mapping[Hashable, float],
) -> list[Hashable]:
    """Algorithm 4 over dict/frozenset states and tuple orders."""
    n = len(queries)
    if n == 0:
        return []
    handles = _checked_handles(queries)
    index_sets = [index_map.get(handle, frozenset()) for handle in handles]

    # States are bitmasks over query positions.
    dp_cost: dict[int, float] = {}
    dp_order: dict[int, tuple[int, ...]] = {}
    created_for: dict[int, frozenset] = {0: frozenset()}

    for i in range(n):
        mask = 1 << i
        weight = n  # position 1 of n
        dp_cost[mask] = (
            sum(index_cost[index] for index in sorted(index_sets[i], key=str))
            * weight
        )
        dp_order[mask] = (i,)
        created_for[mask] = frozenset(index_sets[i])

    full = (1 << n) - 1
    for size in range(2, n + 1):
        for subset in _masks_of_size(n, size):
            best_cost = float("inf")
            best_order: tuple[int, ...] | None = None
            weight = n - (size - 1)  # appended query lands at position `size`
            for i in range(n):
                bit = 1 << i
                if not subset & bit:
                    continue
                rest = subset ^ bit
                created = created_for[rest]
                z = sum(
                    index_cost[index]
                    for index in sorted(index_sets[i] - created, key=str)
                )
                cost = dp_cost[rest] + z * weight
                if cost < best_cost - _EPS:
                    best_cost = cost
                    best_order = dp_order[rest] + (i,)
            assert best_order is not None
            dp_cost[subset] = best_cost
            dp_order[subset] = best_order
            created_for[subset] = frozenset().union(
                *(index_sets[i] for i in range(n) if subset & (1 << i))
            )
    return [handles[i] for i in dp_order[full]]


def encode_bitmasks(
    queries: Sequence[Hashable], index_map: Mapping[Hashable, frozenset]
) -> tuple[dict[Hashable, int], list]:
    """``(handle -> mask, universe)``: the union of the queries' index
    sets sorted by ``str``, bit ``b`` standing for ``universe[b]``."""
    index_sets = [index_map.get(handle, frozenset()) for handle in queries]
    universe = sorted({index for s in index_sets for index in s}, key=str)
    bit_of = {index: bit for bit, index in enumerate(universe)}
    masks = {
        handle: sum(1 << bit_of[index] for index in index_set)
        for handle, index_set in zip(queries, index_sets)
    }
    return masks, universe


def decode_mask(mask: int, universe: Sequence) -> frozenset:
    """The members of ``universe`` at the set bits of ``mask``."""
    assert mask >> len(universe) == 0, "mask has bits beyond the universe"
    return frozenset(item for bit, item in enumerate(universe) if mask >> bit & 1)


def compute_order_dp_sets(
    queries: Sequence[Hashable],
    index_map: Mapping[Hashable, frozenset],
    index_cost: Mapping[Hashable, float],
    *,
    memo: dict | None = None,
) -> list[Hashable]:
    """``compute_order_dp`` on a handle -> index set map, encoded by
    :func:`encode_bitmasks`."""
    masks, universe = encode_bitmasks(queries, index_map)
    bit_costs = [index_cost[index] for index in universe]
    return compute_order_dp(queries, masks, bit_costs, memo=memo)


def compute_order_dp_adapter(queries, masks, bit_costs, *, memo=None):
    """:func:`compute_order_dp_reference` behind ``compute_order_dp``'s
    call shape.  Bit ``b`` becomes the zero-padded label of ``b``, so
    label ``str`` order is bit order; the memo is a cache, so the
    reference ignores it."""
    width = len(str(len(bit_costs)))
    labels = [f"{bit:0{width}d}" for bit in range(len(bit_costs))]
    index_map = {
        handle: decode_mask(masks.get(handle, 0), labels) for handle in queries
    }
    return compute_order_dp_reference(
        queries, index_map, dict(zip(labels, bit_costs))
    )


def brute_force_order(
    queries: Sequence[Hashable],
    index_map: Mapping[Hashable, frozenset],
    index_cost: Mapping[Hashable, float],
) -> list[Hashable]:
    """Exhaustive oracle: minimize Equation 1 over all permutations."""
    if len(queries) > 8:
        raise SchedulerError("brute force is limited to 8 queries")
    best_order = list(queries)
    best_cost = expected_cost(best_order, index_map, index_cost)
    for permutation in itertools.permutations(queries):
        cost = expected_cost(permutation, index_map, index_cost)
        if cost < best_cost - _EPS:
            best_cost = cost
            best_order = list(permutation)
    return best_order


def _masks_of_size(n: int, size: int):
    """All n-bit masks with exactly ``size`` bits set, via Gosper's hack."""
    mask = (1 << size) - 1
    limit = 1 << n
    while mask < limit:
        yield mask
        lowest = mask & -mask
        ripple = mask + lowest
        mask = ripple | (((mask ^ ripple) >> 2) // lowest)
