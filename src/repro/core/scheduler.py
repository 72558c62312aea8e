"""Query scheduling to minimize expected index-creation cost.

Implements the paper's §5.2 cost model (Equation 1) and the §5.3
dynamic-programming scheduler (Algorithm 4, Selinger-style enumeration
over query subsets), plus the greedy/arbitrary orders used by the
scheduler ablation.

Queries are identified by opaque hashable handles, each with an int
mask over the caller's index universe (see ``ConfigurationEvaluator``);
each universe bit has one creation cost.

:func:`compute_order_dp` is the bitmask DP.  It packs the bits some
query uses onto ``0 .. k-1`` in ascending order, so bit order is the
canonical summation order.  DP state lives in flat arrays of size
``2^n`` indexed by subset mask, order reconstruction uses parent
pointers instead of per-subset tuple copies, and marginal costs are
memoized per ``(query, needed-mask)``.  For ``n >= 8`` a hoisted kernel
builds every query's marginal cost over every prefix once, one masked
add per (query, index bit), then scores each subset layer over its
members' candidates in one array pass per member rank; below that size
the scalar layer loop is faster.  An optional caller-owned ``memo``
keyed on the packed input ``(n, qmasks, bit_costs)`` lets equal inputs
share one solve.

Costs are summed in ascending bit order, so the order never depends on
``PYTHONHASHSEED`` (set iteration order).  The dict/frozenset
formulation of Algorithm 4 and a brute-force oracle live in the test
package (``tests/oracles``), which pins this implementation to them.
"""

from __future__ import annotations

import functools
from collections.abc import Hashable, Mapping, Sequence

import numpy as _np

from repro.errors import SchedulerError

QueryHandle = Hashable

#: Hard cap on DP input size (paper §5.4: "we strictly limit the input
#: to our algorithm to a manageable size of 13 queries").
MAX_DP_INPUT = 13

#: Strict-improvement threshold shared by every implementation, so all
#: of them break cost ties identically (first candidate in ascending
#: position order wins).
_EPS = 1e-12

#: Vectorize layers only when the subset count is worth the numpy
#: call overhead.
_VECTOR_MIN_QUERIES = 8


def marginal_index_cost(
    query: QueryHandle,
    created: frozenset,
    index_map: Mapping[QueryHandle, frozenset],
    index_cost: Mapping[Hashable, float],
) -> float:
    """z_i(Q): cost of indexes query ``i`` needs beyond those created.

    Summation runs in canonical (str-sorted) index order so the value is
    independent of set iteration order (``PYTHONHASHSEED``).
    """
    needed = index_map.get(query, frozenset())
    return sum(index_cost[index] for index in sorted(needed - created, key=str))


def expected_cost(
    order: Sequence[QueryHandle],
    index_map: Mapping[QueryHandle, frozenset],
    index_cost: Mapping[Hashable, float],
) -> float:
    """Equation 1: expected index-creation cost under uniform interruption.

    With interruption equally likely after each of the ``n`` positions,
    the index cost of the query at position ``j`` (1-based) is paid in
    the ``n - j + 1`` scenarios where execution reaches it, each with
    probability ``1/n``.
    """
    n = len(order)
    if n == 0:
        return 0.0
    created: frozenset = frozenset()
    total = 0.0
    for position, query in enumerate(order, start=1):
        z = marginal_index_cost(query, created, index_map, index_cost)
        total += z * (n - position + 1)
        created = created | index_map.get(query, frozenset())
    return total / n


def _checked_handles(
    queries: Sequence[QueryHandle],
) -> list[QueryHandle]:
    handles = list(queries)
    n = len(handles)
    if n > MAX_DP_INPUT:
        raise SchedulerError(
            f"DP scheduler input of {n} exceeds the cap of {MAX_DP_INPUT}; "
            "cluster queries first (paper §5.4)"
        )
    if len(set(handles)) != n:
        raise SchedulerError("duplicate query handles in scheduler input")
    return handles


def bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def pack_bits(masks: Sequence[int]) -> tuple[list[int], int]:
    """The masks with the bits they use renumbered ``0, 1, ...`` in
    ascending order, and the union of those bits.  Each run of
    consecutive bits in the union moves in one shift per mask."""
    used = 0
    for mask in masks:
        used |= mask
    runs = []
    packed_width = 0
    rest = used
    while rest:
        start = (rest & -rest).bit_length() - 1
        shifted = rest >> start
        length = (shifted ^ (shifted + 1)).bit_length() - 1
        ones = (1 << length) - 1
        runs.append((start, ones, packed_width))
        packed_width += length
        rest ^= ones << start
    packed = []
    for mask in masks:
        value = 0
        for start, ones, target in runs:
            value |= ((mask >> start) & ones) << target
        packed.append(value)
    return packed, used


def compute_order_dp(
    queries: Sequence[QueryHandle],
    masks: Mapping[QueryHandle, int],
    bit_costs: Sequence[float],
    *,
    memo: dict | None = None,
) -> list[QueryHandle]:
    """Algorithm 4: optimal order by dynamic programming over subsets.

    The DP accumulates the *unnormalized* Equation-1 cost: appending a
    query to a prefix of size ``k`` (making position ``k+1`` of ``n``)
    adds ``z * (n - k)``.  The principle of optimality (Theorem 5.2)
    makes prefix-optimal solutions composable.

    ``masks`` maps each handle to its index set as a mask over the
    caller's universe (a missing handle needs no index), and
    ``bit_costs[b]`` is the creation cost of bit ``b``.  Only the bits
    some query uses enter the DP, packed in ascending order.

    This is the bitmask core: states are integer subset masks, DP cost
    and parent-pointer tables are flat arrays of size ``2^n``, and the
    "created indexes" of every subset is an int OR over member masks.

    ``memo`` (owned by the caller) maps the packed input
    ``(n, qmasks, bit_costs)`` to the order of input positions: the
    parent pointers depend on nothing else, so inputs that pack
    equally -- whatever their handles and universes -- share one solve.
    """
    n = len(queries)
    if n == 0:
        return []
    handles = _checked_handles(queries)
    qmasks, used = pack_bits([masks.get(handle, 0) for handle in handles])
    costs = [float(bit_costs[bit]) for bit in bit_positions(used)]

    key = None
    if memo is not None:
        key = (n, tuple(qmasks), tuple(costs))
        positions = memo.get(key)
        if positions is not None:
            return [handles[i] for i in positions]

    if n >= _VECTOR_MIN_QUERIES:
        parents = _dp_parents_vectorized(n, qmasks, costs)
    else:
        parents = _dp_parents_scalar(n, qmasks, costs)

    # Parent-pointer reconstruction: walk back from the full mask.
    order: list[int] = []
    mask = (1 << n) - 1
    while mask:
        i = parents[mask]
        order.append(i)
        mask ^= 1 << i
    order.reverse()
    if key is not None:
        memo[key] = tuple(order)
    return [handles[i] for i in order]


def _mask_cost(mask: int, bit_costs: list[float], memo: dict[int, float]) -> float:
    """Sum of bit costs in ascending-bit (canonical) order, memoized."""
    cached = memo.get(mask)
    if cached is not None:
        return cached
    total = 0.0
    remaining = mask
    while remaining:
        low = remaining & -remaining
        total += bit_costs[low.bit_length() - 1]
        remaining ^= low
    memo[mask] = total
    return total


def _dp_parents_scalar(
    n: int, qmasks: list[int], bit_costs: list[float]
) -> list[int]:
    """Pure-python bitmask DP, the faster one for n < 8."""
    size = 1 << n
    dp_cost = [0.0] * size
    parents = [-1] * size
    created = [0] * size
    zmemo: dict[int, float] = {0: 0.0}

    # Masks in increasing numeric order: every proper submask of a mask
    # is numerically smaller, so dependencies are always ready.  The
    # popcount gives the position weight ``n - (size - 1)``.
    bits = [1 << i for i in range(n)]
    for mask in range(1, size):
        low = mask & -mask
        rest_of_low = mask ^ low
        created[mask] = created[rest_of_low] | qmasks[low.bit_length() - 1]
        weight = n - mask.bit_count() + 1
        best_cost = float("inf")
        best_i = -1
        for i in range(n):
            bit = bits[i]
            if not mask & bit:
                continue
            rest = mask ^ bit
            needed = qmasks[i] & ~created[rest]
            cost = dp_cost[rest] + _mask_cost(needed, bit_costs, zmemo) * weight
            if cost < best_cost - _EPS:
                best_cost = cost
                best_i = i
        dp_cost[mask] = best_cost
        parents[mask] = best_i
    return parents


def _dp_parents_vectorized(
    n: int, qmasks: list[int], bit_costs: list[float]
) -> list[int]:
    """Numpy bitmask DP with the mask-invariant work hoisted out.

    No query's marginal cost over a prefix depends on ``dp_cost``, so
    ``z[i, rest]`` (query ``i``'s cost given the indexes of ``rest``) is
    built once.  Bit ``k`` of ``i`` is needed over ``rest`` exactly when
    no query that owns ``k`` is in ``rest``, so each distinct owner set
    gets one flag row over all masks, and each bit of ``i`` adds its
    cost where its flag holds, in ascending (canonical) bit order from
    0.0: the scalar core's sum, as a bit it skips adds nothing.  A bit
    that only ``i`` owns needs no flag.  No layer reads row ``i`` over
    the masks that hold ``i``.

    Each popcount layer is scored over its members only, in ascending
    ``i``, with the scalar core's scan: a candidate replaces the best so
    far only if it is cheaper by more than ``_EPS``.
    """
    size = 1 << n
    masks, layers = _subset_tables(n)

    owners = [0] * len(bit_costs)
    for i, qmask in enumerate(qmasks):
        remaining = qmask
        while remaining:
            low = remaining & -remaining
            owners[low.bit_length() - 1] |= 1 << i
            remaining ^= low

    z = _np.zeros((n, size), dtype=_np.float64)
    free_of: dict = {}
    for i, qmask in enumerate(qmasks):
        row = z[i]
        remaining = qmask
        while remaining:
            low = remaining & -remaining
            bit = low.bit_length() - 1
            remaining ^= low
            owner_set = owners[bit]
            if owner_set == 1 << i:
                row += bit_costs[bit]
                continue
            flag = free_of.get(owner_set)
            if flag is None:
                flag = free_of[owner_set] = (masks & owner_set) == 0
            _np.add(row, bit_costs[bit], out=row, where=flag)

    z_flat = z.ravel()
    dp_cost = _np.zeros(size, dtype=_np.float64)
    parents = _np.full(size, -1, dtype=_np.int64)
    for layer, (layer_masks, members, prefixes, positions) in enumerate(
        layers, start=1
    ):
        candidates = z_flat[positions]
        candidates *= float(n - layer + 1)
        candidates += dp_cost[prefixes]
        best_cost = _np.full(len(layer_masks), _np.inf, dtype=_np.float64)
        best_i = _np.full(len(layer_masks), -1, dtype=_np.int64)
        for cost, member in zip(candidates, members):
            improve = cost < best_cost - _EPS
            _np.copyto(best_cost, cost, where=improve)
            _np.copyto(best_i, member, where=improve)
        dp_cost[layer_masks] = best_cost
        parents[layer_masks] = best_i
    return parents.tolist()


@functools.lru_cache(maxsize=MAX_DP_INPUT)
def _subset_tables(n: int) -> tuple:
    """Mask tables that depend on ``n`` alone, built once per size.

    - ``masks``: ``0 .. 2^n - 1``;
    - per popcount layer ``p = 1..n`` with ``L`` masks: the masks
      (ascending), and three ``p x L`` tables whose row ``j`` holds, per
      mask, its ``j``-th smallest member ``i``, the prefix
      ``mask ^ bit_i`` that ``i`` extends, and ``i * 2^n + prefix``, the
      flat position of ``z[i, prefix]``.
    """
    size = 1 << n
    masks = _np.arange(size, dtype=_np.int64)
    popcount = _np.zeros(size, dtype=_np.int64)
    for i in range(n):
        popcount += (masks >> i) & 1
    queries = _np.arange(n, dtype=_np.int64)
    layers = []
    for layer in range(1, n + 1):
        layer_masks = masks[popcount == layer]
        is_member = (layer_masks[:, None] >> queries) & 1
        members = _np.ascontiguousarray(
            _np.nonzero(is_member)[1].reshape(len(layer_masks), layer).T
        )
        prefixes = layer_masks ^ (_np.int64(1) << members)
        layers.append((layer_masks, members, prefixes, members * size + prefixes))
    for table in (masks, *(table for entry in layers for table in entry)):
        table.setflags(write=False)
    return masks, tuple(layers)


def greedy_order(
    queries: Sequence[QueryHandle],
    index_map: Mapping[QueryHandle, frozenset],
    index_cost: Mapping[Hashable, float],
) -> list[QueryHandle]:
    """Cheapest-marginal-index-first heuristic (scheduler ablation)."""
    remaining = list(queries)
    order: list[QueryHandle] = []
    created: frozenset = frozenset()
    while remaining:
        next_query = min(
            remaining,
            key=lambda handle: (
                marginal_index_cost(handle, created, index_map, index_cost),
                str(handle),
            ),
        )
        remaining.remove(next_query)
        order.append(next_query)
        created = created | index_map.get(next_query, frozenset())
    return order
