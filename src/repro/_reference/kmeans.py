"""Seed weighted k-means, kept as the parity oracle for the fast engine.

A verbatim copy of the per-cluster-loop implementation that
``repro.clustering.kmeans.weighted_kmeans`` replaced.  The production
engine must return a bit-identical :class:`KMeansResult` (labels, center
bytes, distortion, iterations) for every input; ``tests/test_parity.py``
checks that on randomized and real signature matrices.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.kmeans import KMeansResult
from repro.errors import ClusteringError


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, n_centers)."""
    p_sq = np.einsum("ij,ij->i", points, points)[:, None]
    c_sq = np.einsum("ij,ij->i", centers, centers)[None, :]
    cross = points @ centers.T
    return np.maximum(p_sq + c_sq - 2.0 * cross, 0.0)


def _kmeans_pp_init(
    points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted k-means++ seeding."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    probs = weights / weights.sum()
    first = rng.choice(n, p=probs)
    centers[0] = points[first]
    closest = _pairwise_sq_dists(points, centers[:1]).ravel()
    for j in range(1, k):
        scores = closest * weights
        total = scores.sum()
        if total <= 0.0:
            # All points coincide with chosen centers; reuse random picks.
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.choice(n, p=scores / total)
        centers[j] = points[idx]
        closest = np.minimum(
            closest, _pairwise_sq_dists(points, centers[j : j + 1]).ravel()
        )
    return centers


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    seed: int,
    max_iterations: int = 100,
    restarts: int = 5,
) -> KMeansResult:
    """Fit ``k`` clusters minimizing weighted distortion; best of restarts.

    Distortion is ``sum_i w_i * ||x_i - c_{label(i)}||^2``.  Empty clusters
    are re-seeded with the point of largest weighted residual.
    """
    pts = np.asarray(points, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    if pts.ndim != 2:
        raise ClusteringError(f"points must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if wts.shape != (n,):
        raise ClusteringError(f"weights shape {wts.shape} != ({n},)")
    if np.any(wts <= 0):
        raise ClusteringError("weights must be strictly positive")
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")

    rng = np.random.Generator(np.random.PCG64(seed))
    best: KMeansResult | None = None
    for _ in range(max(1, restarts)):
        centers = _kmeans_pp_init(pts, wts, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            dists = _pairwise_sq_dists(pts, centers)
            new_labels = dists.argmin(axis=1)
            # Re-seed any empty cluster with the worst-fit point.  Zero the
            # stolen point's residual so two empty clusters never take the
            # same point, and never steal a cluster's only member (that
            # would just move the hole).
            for j in range(k):
                if not np.any(new_labels == j):
                    residuals = dists[np.arange(n), new_labels] * wts
                    counts = np.bincount(new_labels, minlength=k)
                    stealable = counts[new_labels] > 1
                    if not np.any(stealable):
                        continue  # fewer distinct points than clusters
                    residuals[~stealable] = -1.0
                    worst = int(residuals.argmax())
                    new_labels[worst] = j
                    centers[j] = pts[worst]
                    dists[worst, :] = np.inf
                    dists[worst, j] = 0.0
            if np.array_equal(new_labels, labels) and iterations > 1:
                break
            labels = new_labels
            for j in range(k):
                members = labels == j
                if not np.any(members):
                    continue  # duplicate-heavy data: keep the old center
                w = wts[members]
                centers[j] = (pts[members] * w[:, None]).sum(axis=0) / w.sum()
        dists = _pairwise_sq_dists(pts, centers)
        distortion = float((dists[np.arange(n), labels] * wts).sum())
        candidate = KMeansResult(
            labels=labels, centers=centers.copy(),
            distortion=distortion, iterations=iterations,
        )
        if best is None or candidate.distortion < best.distortion:
            best = candidate
    assert best is not None
    return best
