"""K-means as first written: one masked mean per center.

:func:`kmeans_reference` runs Lloyd's iterations with one
``points[labels == c].mean(axis=0)`` per center, and its k-means++
seeding recomputes the squared distances to every chosen center at
each step.  ``repro.core.clustering.kmeans`` updates all centers in
one pass and keeps a running minimum of those distances; on the binary
index vectors that clustering passes it returns the same labels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulerError


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
