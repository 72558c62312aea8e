"""Query clustering by index dependencies (paper §5.4).

The DP scheduler is exponential, so large workloads are first clustered:
each query becomes a binary vector over the candidate indexes (1 if the
query could use the index), clusters are formed with K-means under
Euclidean distance, and the scheduler then orders *clusters* -- each
labelled with the union of its members' indexes -- instead of single
queries.  The input to the DP is strictly capped at 13.

A query's relevant indexes arrive as one int mask over the
configuration's index universe (see ``ConfigurationEvaluator``), so the
binary vectors are the masks' bits.

Clustering over frozensets and K-means as first written, one masked
mean per center, are the test oracles ``tests/oracles/clustering.py``.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.scheduler import MAX_DP_INPUT, bit_positions, pack_bits
from repro.errors import SchedulerError


@dataclass(slots=True)
class QueryCluster:
    """A group of queries scheduled as one unit."""

    queries: list = field(default_factory=list)
    indexes: int = 0  # the OR of the members' index masks

    def __hash__(self) -> int:
        return hash(tuple(str(query) for query in self.queries))


def kmeans(
    points: np.ndarray, k: int, *, seed: int = 0, max_iterations: int = 50
) -> np.ndarray:
    """Plain Lloyd's K-means with k-means++ seeding; returns labels.

    Each iteration moves every center with members to their sum, taken
    in row order as ``mean(axis=0)`` takes it for two or more columns,
    over their count.  Binary index vectors have exact sums in any order.
    """
    count = points.shape[0]
    if k <= 0:
        raise SchedulerError("k must be positive")
    if k >= count:
        return np.arange(count)

    rng = np.random.default_rng(seed)
    centers = _kmeans_plus_plus(points, k, rng)
    labels = np.zeros(count, dtype=int)
    for _ in range(max_iterations):
        distances = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sizes = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, points)
        filled = sizes > 0
        centers[filled] = sums[filled] / sizes[filled, None]
    return labels


def _kmeans_plus_plus(points: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeding; ``closest`` is each point's squared distance to
    its closest center so far."""
    count = points.shape[0]
    chosen = [rng.integers(count)]
    closest = None
    while len(chosen) < k:
        latest = np.sum((points - points[chosen[-1]]) ** 2, axis=1)
        closest = latest if closest is None else np.minimum(closest, latest)
        total = closest.sum()
        if total <= 0:
            # All remaining points coincide with a center; pick arbitrarily.
            chosen.append(rng.integers(count))
            continue
        chosen.append(rng.choice(count, p=closest / total))
    return np.array(points[chosen], dtype=float)


def _binary_rows(packed: list[int], width: int) -> np.ndarray:
    """Bit ``c`` of ``packed[r]`` at ``[r, c]``, over ``max(1, width)`` columns."""
    size = max(1, (width + 7) // 8)
    raw = b"".join(mask.to_bytes(size, "little") for mask in packed)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")
    return np.array(bits.reshape(len(packed), 8 * size)[:, : max(1, width)], float)


def cluster_queries(
    queries: Sequence[Hashable],
    masks: Mapping[Hashable, int],
    *,
    max_clusters: int = MAX_DP_INPUT,
    seed: int = 0,
    memo: dict | None = None,
) -> list[QueryCluster]:
    """Group queries into at most ``max_clusters`` clusters.

    ``masks`` maps each query to its relevant indexes (a missing query
    needs none).  Queries with identical masks always land in the same
    cluster (they are indistinguishable to the cost model -- the
    paper's ``q1: A``, ``q2: A`` example).  Distinct masks are ordered
    by popcount, then by ascending bit positions: ``(len(s),
    sorted(map(str, s)))`` over the index sets.  Beyond the cap K-means
    merges them, as binary rows over the packed bits of their union.

    ``memo`` (owned by the caller) maps ``(packed masks, max_clusters,
    seed)`` to the K-means labels, which depend on nothing else; the
    query handles are regrouped under them on every call.
    """
    if not queries:
        return []

    # Collapse identical masks first; K-means then only has to merge
    # *distinct* masks down to the cap.
    by_signature: dict[int, list] = {}
    for handle in queries:
        by_signature.setdefault(masks.get(handle, 0), []).append(handle)

    signatures = sorted(
        by_signature, key=lambda mask: (mask.bit_count(), bit_positions(mask))
    )
    if len(signatures) <= max_clusters:
        return [
            QueryCluster(queries=by_signature[signature], indexes=signature)
            for signature in signatures
        ]

    packed, union = pack_bits(signatures)
    key = (tuple(packed), max_clusters, seed)
    labels = None if memo is None else memo.get(key)
    if labels is None:
        rows = _binary_rows(packed, union.bit_count())
        labels = tuple(kmeans(rows, max_clusters, seed=seed).tolist())
        if memo is not None:
            memo[key] = labels

    clusters: dict[int, QueryCluster] = {}
    for signature, label in zip(signatures, labels):
        cluster = clusters.setdefault(label, QueryCluster())
        cluster.queries.extend(by_signature[signature])
        cluster.indexes |= signature
    return [clusters[label] for label in sorted(clusters)]
