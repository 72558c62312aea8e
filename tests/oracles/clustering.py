"""Query clustering and K-means as first written.

:func:`kmeans_reference` runs Lloyd's iterations with one
``points[labels == c].mean(axis=0)`` per center, and its k-means++
seeding recomputes the squared distances to every chosen center at
each step.  ``repro.core.clustering.kmeans`` updates all centers in
one pass and keeps a running minimum of those distances; on the binary
index vectors that clustering passes it returns the same labels.

:func:`cluster_queries_reference` groups queries by frozenset index
signature, sorts the signatures on ``(len(s), sorted(map(str, s)))``
and builds the K-means rows with :func:`index_vectors`.
``repro.core.clustering.cluster_queries`` does the same on masks over
a universe in ``str`` order; decoded, its clusters equal these.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.scheduler import MAX_DP_INPUT
from repro.errors import SchedulerError


@dataclass
class SetCluster:
    """A cluster whose label is a set of indexes."""

    queries: list = field(default_factory=list)
    indexes: frozenset = frozenset()


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


def cluster_queries_reference(
    queries: Sequence[Hashable],
    index_map: Mapping[Hashable, frozenset],
    *,
    max_clusters: int = MAX_DP_INPUT,
    seed: int = 0,
) -> list[SetCluster]:
    """Group queries into at most ``max_clusters`` clusters."""
    if not queries:
        return []
    by_signature: dict[frozenset, list] = {}
    for handle in queries:
        signature = frozenset(index_map.get(handle, frozenset()))
        by_signature.setdefault(signature, []).append(handle)

    signatures = sorted(by_signature, key=lambda s: (len(s), sorted(map(str, s))))
    if len(signatures) <= max_clusters:
        return [
            SetCluster(queries=list(by_signature[signature]), indexes=signature)
            for signature in signatures
        ]

    matrix, _ = index_vectors(signatures, {s: s for s in signatures})
    labels = kmeans_reference(matrix, max_clusters, seed=seed).tolist()
    clusters: dict[int, SetCluster] = {}
    for signature, label in zip(signatures, labels):
        cluster = clusters.setdefault(int(label), SetCluster())
        cluster.queries.extend(by_signature[signature])
        cluster.indexes = cluster.indexes | signature
    return [clusters[label] for label in sorted(clusters)]


def kmeans_reference(
    points: np.ndarray, k: int, *, seed: int = 0, max_iterations: int = 50
) -> np.ndarray:
    """Plain Lloyd's K-means with k-means++ seeding; returns labels."""
    count = points.shape[0]
    if k <= 0:
        raise SchedulerError("k must be positive")
    if k >= count:
        return np.arange(count)

    rng = np.random.default_rng(seed)
    centers = _kmeans_plus_plus_reference(points, k, rng)
    labels = np.zeros(count, dtype=int)
    for _ in range(max_iterations):
        distances = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for center_index in range(k):
            members = points[labels == center_index]
            if len(members):
                centers[center_index] = members.mean(axis=0)
    return labels


def _kmeans_plus_plus_reference(points: np.ndarray, k: int, rng) -> np.ndarray:
    count = points.shape[0]
    centers = [points[rng.integers(count)]]
    while len(centers) < k:
        distances = np.min(
            [np.sum((points - center) ** 2, axis=1) for center in centers], axis=0
        )
        total = distances.sum()
        if total <= 0:
            # All remaining points coincide with a center; pick arbitrarily.
            centers.append(points[rng.integers(count)])
            continue
        probabilities = distances / total
        centers.append(points[rng.choice(count, p=probabilities)])
    return np.array(centers, dtype=float)
