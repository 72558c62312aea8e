"""Query scheduling to minimize expected index-creation cost.

Implements the paper's §5.2 cost model (Equation 1) and the §5.3
dynamic-programming scheduler (Algorithm 4, Selinger-style enumeration
over query subsets), plus the greedy/arbitrary orders used by the
scheduler ablation.

Queries are identified by opaque hashable handles; the caller supplies
``index_map`` (handle -> set of index keys potentially useful for that
query) and ``index_cost`` (index key -> creation seconds).

:func:`compute_order_dp` is the bitmask DP.  Index sets are encoded as
integers over a canonical (str-sorted) index universe, DP state lives in
flat arrays of size ``2^n`` indexed by subset mask, order reconstruction
uses parent pointers instead of per-subset tuple copies, and marginal
costs are memoized per ``(query, needed-mask)``.  When the index
universe fits in 63 bits, numpy is available and ``n >= 9``, a hoisted
kernel computes every mask's created-index set and every query's
marginal cost once, then scores each subset layer as one matrix; below
that size the scalar layer loop is faster.  An optional caller-owned
``memo`` keyed on the encoded input ``(n, qmasks, bit_costs)`` lets
equal inputs share one solve.

Costs are summed in one canonical order (ascending str-sorted index
universe), so the order never depends on ``PYTHONHASHSEED`` (set
iteration order).  The dict/frozenset formulation of Algorithm 4 and a
brute-force oracle live in the test package (``tests/oracles``), which
pins this implementation to them.
"""

from __future__ import annotations

import functools
from collections.abc import Hashable, Mapping, Sequence

try:  # numpy accelerates the subset layers; pure python works without it
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a hard dep of the repo
    _np = None

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
_VECTOR_MIN_QUERIES = 9


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


def _encode_bitmasks(
    handles: Sequence[QueryHandle],
    index_map: Mapping[QueryHandle, frozenset],
    index_cost: Mapping[Hashable, float],
) -> tuple[list[int], list[float]]:
    """Encode per-query index sets as ints over a canonical universe.

    The universe contains only indexes that some query actually needs,
    sorted by ``str`` -- so bit order equals canonical summation order
    and encodings are stable across processes.
    """
    index_sets = [index_map.get(handle, frozenset()) for handle in handles]
    universe = sorted({index for s in index_sets for index in s}, key=str)
    bit_of = {index: bit for bit, index in enumerate(universe)}
    qmasks = [
        sum(1 << bit_of[index] for index in index_set)
        for index_set in index_sets
    ]
    bit_costs = [float(index_cost[index]) for index in universe]
    return qmasks, bit_costs


def compute_order_dp(
    queries: Sequence[QueryHandle],
    index_map: Mapping[QueryHandle, frozenset],
    index_cost: Mapping[Hashable, float],
    *,
    memo: dict | None = None,
) -> list[QueryHandle]:
    """Algorithm 4: optimal order by dynamic programming over subsets.

    The DP accumulates the *unnormalized* Equation-1 cost: appending a
    query to a prefix of size ``k`` (making position ``k+1`` of ``n``)
    adds ``z * (n - k)``.  The principle of optimality (Theorem 5.2)
    makes prefix-optimal solutions composable.

    This is the bitmask core: states are integer subset masks, DP cost
    and parent-pointer tables are flat arrays of size ``2^n``, and the
    "created indexes" of every subset is an int OR over member masks.

    ``memo`` (owned by the caller) maps the encoded input
    ``(n, qmasks, bit_costs)`` to the order of input positions: the
    parent pointers depend on nothing else, so inputs that encode
    equally -- whatever their handles -- share one solve.
    """
    n = len(queries)
    if n == 0:
        return []
    handles = _checked_handles(queries)
    qmasks, bit_costs = _encode_bitmasks(handles, index_map, index_cost)

    key = None
    if memo is not None:
        key = (n, tuple(qmasks), tuple(bit_costs))
        positions = memo.get(key)
        if positions is not None:
            return [handles[i] for i in positions]

    if (
        _np is not None
        and len(bit_costs) <= 63
        and n >= _VECTOR_MIN_QUERIES
    ):
        parents = _dp_parents_vectorized(n, qmasks, bit_costs)
    else:
        parents = _dp_parents_scalar(n, qmasks, bit_costs)

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
    """Pure-python bitmask DP; works for index universes of any size."""
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

    Neither ``created[mask]`` nor a query's marginal cost over a prefix
    depends on ``dp_cost``, so both are computed once: ``z[i, rest]`` is
    query ``i``'s cost given the indexes of ``rest`` (every ``rest``
    without ``i``), accumulated bit by bit in ascending (canonical)
    order from 0.0 exactly like the scalar core.  Each popcount layer is
    then one ``n x L`` candidate matrix (appending ``i`` to
    ``mask ^ bit_i``; ``inf`` where ``i`` is not in the mask).

    The scalar core scans candidates in ascending ``i`` and takes one
    only if it beats the best so far by more than ``_EPS``.  Where every
    candidate either equals the column minimum or exceeds it by more
    than ``_EPS`` (``c - _EPS > min``, the scan's own arithmetic), that
    scan ends at the first minimum -- ``argmin`` -- so only the other
    columns (near-ties, a non-finite minimum) run the scan itself.
    """
    size = 1 << n
    costs = _np.array(bit_costs, dtype=_np.float64)

    # created[mask] = OR of member query masks; the masks in
    # [2^i, 2^(i+1)) are those below 2^i with query i added.
    created = _np.zeros(size, dtype=_np.int64)
    for i, qmask in enumerate(qmasks):
        half = 1 << i
        created[half : 2 * half] = created[:half] | qmask

    prefixes_without, layers = _subset_tables(n)
    z = _np.zeros((n, size), dtype=_np.float64)
    for i, qmask in enumerate(qmasks):
        if not qmask:
            continue
        prefixes = prefixes_without[i]
        needed = qmask & ~created[prefixes]
        row = _np.zeros(len(prefixes), dtype=_np.float64)
        remaining = qmask
        while remaining:
            low = remaining & -remaining
            bit = low.bit_length() - 1
            row += costs[bit] * ((needed >> bit) & 1)
            remaining ^= low
        z[i, prefixes] = row

    dp_cost = _np.zeros(size, dtype=_np.float64)
    parents = _np.full(size, -1, dtype=_np.int64)
    rows = _np.arange(n)[:, None]
    for layer, (layer_masks, rest) in enumerate(layers, start=1):
        weight = float(n - layer + 1)
        candidates = _np.where(
            rest < layer_masks, dp_cost[rest] + z[rows, rest] * weight, _np.inf
        )
        best_cost = candidates.min(axis=0)
        best_i = candidates.argmin(axis=0)
        decided = (
            (candidates == best_cost) | (candidates - _EPS > best_cost)
        ).all(axis=0) & (best_cost < _np.inf)
        if not decided.all():
            columns = _np.flatnonzero(~decided)
            scanned = candidates[:, columns]
            scan_cost = _np.full(len(columns), _np.inf, dtype=_np.float64)
            scan_i = _np.full(len(columns), -1, dtype=_np.int64)
            for i in range(n):
                improve = scanned[i] < scan_cost - _EPS
                scan_cost = _np.where(improve, scanned[i], scan_cost)
                scan_i[improve] = i
            best_cost[columns] = scan_cost
            best_i[columns] = scan_i
        dp_cost[layer_masks] = best_cost
        parents[layer_masks] = best_i
    return parents.tolist()


@functools.lru_cache(maxsize=MAX_DP_INPUT)
def _subset_tables(n: int) -> tuple:
    """Mask tables that depend on ``n`` alone, built once per size.

    - ``prefixes_without[i]``: the masks that lack query ``i``, ascending;
    - per popcount layer 1..n: its masks (ascending) and ``mask ^ bit_i``
      in row ``i`` -- below the mask where ``i`` is a member (the prefix
      it extends), above it where not.
    """
    masks = _np.arange(1 << n, dtype=_np.int64)
    popcount = _np.zeros(1 << n, dtype=_np.int64)
    for i in range(n):
        popcount += (masks >> i) & 1
    prefixes_without = tuple(masks[(masks >> i) & 1 == 0] for i in range(n))
    bits = (_np.int64(1) << _np.arange(n, dtype=_np.int64))[:, None]
    layers = []
    for layer in range(1, n + 1):
        layer_masks = masks[popcount == layer]
        layers.append((layer_masks, layer_masks ^ bits))
    for table in (*prefixes_without, *(a for pair in layers for a in pair)):
        table.setflags(write=False)
    return prefixes_without, tuple(layers)


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
