"""Weighted k-means with k-means++ seeding.

Weights are the regions' aggregate instruction counts (section III-B):
they pull centroids toward long regions and, through the distortion
objective, bias cluster boundaries the same way SimPoint's variable-length
support does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one weighted k-means fit."""

    labels: np.ndarray
    centers: np.ndarray
    distortion: float
    iterations: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self.centers.shape[0]


def _pairwise_sq_dists(
    points: np.ndarray, p_sq: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, n_centers).

    ``p_sq`` is the points' squared norms as a column, computed once per
    fit because the points never change.
    """
    c_sq = np.einsum("ij,ij->i", centers, centers)[None, :]
    cross = points @ centers.T
    return np.maximum(p_sq + c_sq - 2.0 * cross, 0.0)


def _kmeans_pp_init(
    points: np.ndarray,
    p_sq: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Weighted k-means++ seeding."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    probs = weights / weights.sum()
    first = rng.choice(n, p=probs)
    centers[0] = points[first]
    closest = _pairwise_sq_dists(points, p_sq, centers[:1]).ravel()
    for j in range(1, k):
        scores = closest * weights
        total = scores.sum()
        if total <= 0.0:
            # All points coincide with chosen centers; reuse random picks.
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.choice(n, p=scores / total)
        centers[j] = points[idx]
        nearest_new = _pairwise_sq_dists(points, p_sq, centers[j : j + 1])
        closest = np.minimum(closest, nearest_new.ravel())
    return centers


def _update_centers(
    weighted_pts: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
) -> None:
    """Move each non-empty cluster's center to its weighted mean, in place.

    ``weighted_pts`` is ``points * weights[:, None]``.  Empty clusters keep
    their old center.  The sums reproduce, bit for bit, the per-cluster
    ``(points[members] * w[:, None]).sum(axis=0) / w.sum()``: numpy sums
    the rows of a multi-column block one by one in index order, which is
    what a flat ``bincount`` does, but sums a single column (and the
    weights) pairwise, which only a ``sum`` over the same contiguous
    values reproduces.
    """
    k, d = centers.shape
    counts = np.bincount(labels, minlength=k)
    used = np.flatnonzero(counts)
    ends = np.cumsum(counts)
    bounds = list(zip((ends - counts)[used].tolist(), ends[used].tolist()))
    order = np.argsort(labels, kind="stable")
    sorted_w = weights[order]
    totals = np.array([sorted_w[lo:hi].sum() for lo, hi in bounds])
    if d == 1:
        column = weighted_pts[order, 0]
        sums = np.array([column[lo:hi].sum() for lo, hi in bounds])[:, None]
    else:
        flat = (labels[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(
            flat, weights=weighted_pts.ravel(), minlength=k * d
        ).reshape(k, d)[used]
    centers[used] = sums / totals[:, None]


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
    are re-seeded with the point of largest weighted residual.  The result
    is bit-identical to the per-cluster-loop seed implementation kept in
    ``repro._reference.kmeans``.
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

    p_sq = np.einsum("ij,ij->i", pts, pts)[:, None]
    weighted_pts = pts * wts[:, None]
    rng = np.random.Generator(np.random.PCG64(seed))
    best: KMeansResult | None = None
    for _ in range(max(1, restarts)):
        centers = _kmeans_pp_init(pts, p_sq, wts, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            dists = _pairwise_sq_dists(pts, p_sq, centers)
            new_labels = dists.argmin(axis=1)
            # Re-seed each empty cluster, in ascending order, with the
            # worst-fit point.  Zero the stolen point's residual so two
            # empty clusters never take the same point, and never steal a
            # cluster's only member (that would just move the hole, and
            # is why no non-empty cluster can empty out here).
            empty = np.flatnonzero(np.bincount(new_labels, minlength=k) == 0)
            for j in empty.tolist():
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
            _update_centers(weighted_pts, wts, labels, centers)
        dists = _pairwise_sq_dists(pts, p_sq, centers)
        distortion = float((dists[np.arange(n), labels] * wts).sum())
        candidate = KMeansResult(
            labels=labels, centers=centers.copy(),
            distortion=distortion, iterations=iterations,
        )
        if best is None or candidate.distortion < best.distortion:
            best = candidate
    assert best is not None
    return best
