"""Query clustering by index dependencies (paper §5.4).

The DP scheduler is exponential, so large workloads are first clustered:
each query becomes a binary vector over the candidate indexes (1 if the
query could use the index), clusters are formed with K-means under
Euclidean distance, and the scheduler then orders *clusters* -- each
labelled with the union of its members' indexes -- instead of single
queries.  The input to the DP is strictly capped at 13.

K-means as first written, one masked mean per center, is the test oracle
``tests/oracles/clustering.py``; :func:`kmeans` returns its labels.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.scheduler import MAX_DP_INPUT
from repro.errors import SchedulerError


@dataclass(slots=True)
class QueryCluster:
    """A group of queries scheduled as one unit."""

    queries: list = field(default_factory=list)
    indexes: frozenset = frozenset()

    def __hash__(self) -> int:
        return hash(tuple(str(query) for query in self.queries))


def index_vectors(
    queries: Sequence[Hashable],
    index_map: Mapping[Hashable, frozenset],
) -> tuple[np.ndarray, list[Hashable]]:
    """Binary query-by-index matrix plus the index column order."""
    all_indexes = sorted(
        {index for handle in queries for index in index_map.get(handle, frozenset())},
        key=str,
    )
    position = {index: column for column, index in enumerate(all_indexes)}
    matrix = np.zeros((len(queries), max(1, len(all_indexes))), dtype=float)
    for row, handle in enumerate(queries):
        for index in index_map.get(handle, frozenset()):
            matrix[row, position[index]] = 1.0
    return matrix, all_indexes


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


def cluster_queries(
    queries: Sequence[Hashable],
    index_map: Mapping[Hashable, frozenset],
    *,
    max_clusters: int = MAX_DP_INPUT,
    seed: int = 0,
    memo: dict | None = None,
) -> list[QueryCluster]:
    """Group queries into at most ``max_clusters`` clusters.

    Queries with identical index dependencies always land in the same
    cluster (they are indistinguishable to the cost model -- the paper's
    ``q1: A``, ``q2: A`` example).

    ``memo`` (owned by the caller) maps ``(distinct signatures,
    max_clusters, seed)`` to the K-means labels, which depend on nothing
    else; the query handles are regrouped under them on every call.
    """
    if not queries:
        return []
    handles = list(queries)

    # Collapse identical dependency signatures first; K-means then only
    # has to merge *distinct* signatures down to the cap.
    by_signature: dict[frozenset, list] = {}
    for handle in handles:
        signature = frozenset(index_map.get(handle, frozenset()))
        by_signature.setdefault(signature, []).append(handle)

    signatures = sorted(by_signature, key=lambda s: (len(s), sorted(map(str, s))))
    if len(signatures) <= max_clusters:
        return [
            QueryCluster(queries=list(by_signature[signature]), indexes=signature)
            for signature in signatures
        ]

    key = (tuple(signatures), max_clusters, seed)
    labels = None if memo is None else memo.get(key)
    if labels is None:
        signature_map = {signature: signature for signature in signatures}
        matrix, _ = index_vectors(signatures, signature_map)
        labels = tuple(kmeans(matrix, max_clusters, seed=seed).tolist())
        if memo is not None:
            memo[key] = labels

    clusters: dict[int, QueryCluster] = {}
    for signature, label in zip(signatures, labels):
        cluster = clusters.setdefault(int(label), QueryCluster())
        cluster.queries.extend(by_signature[signature])
        cluster.indexes = cluster.indexes | signature
    return [clusters[label] for label in sorted(clusters)]
