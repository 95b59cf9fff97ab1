"""The SimPoint-equivalent driver: project, sweep k, pick by BIC.

This is the piece the paper invokes as "SimPoint clustering software
version 3.2" with the Table II parameters; BarrierPoint feeds it one
signature vector per inter-barrier region plus instruction-count weights
and receives cluster labels and one representative region per cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.bic import weighted_bic
from repro.clustering.kmeans import weighted_kmeans
from repro.clustering.projection import random_projection
from repro.config import SimPointConfig
from repro.errors import ClusteringError


@dataclass(frozen=True)
class ClusteringResult:
    """Labels, representatives and model-selection diagnostics.

    ``chosen_k`` is the k the BIC sweep *selected* and is always a key of
    ``bic_by_k``; ``num_clusters`` is the number of clusters actually
    present after empty clusters (possible with duplicate-heavy data) are
    dropped and labels renumbered, so ``num_clusters <= chosen_k``.
    """

    labels: np.ndarray
    representatives: tuple[int, ...]
    chosen_k: int
    bic_by_k: dict[int, float]
    projected: np.ndarray
    weights: np.ndarray

    @property
    def num_clusters(self) -> int:
        """Number of (non-empty, compacted) clusters in ``labels``."""
        return len(self.representatives)

    def members_of(self, cluster: int) -> np.ndarray:
        """Region indices belonging to ``cluster``."""
        return np.flatnonzero(self.labels == cluster)


class KSweep:
    """The ``k = 1 .. maxK`` model sweep of one signature matrix.

    The fit at ``k`` (seed ``config.seed + k``) depends only on the
    projected matrix, the weights, ``k`` and the k-means settings, never
    on ``maxK``, so the sweep for a smaller ``maxK`` is a prefix of the
    sweep for a larger one.  :meth:`result` fits, on demand, only the
    ``k`` not fitted yet and keeps each fit's labels, centers and BIC, so
    selections at several ``maxK`` (Fig. 5) share one sweep.  ``config.max_k`` is not
    read: the caller passes ``max_k`` to :meth:`result`.
    """

    def __init__(
        self, config: SimPointConfig, signatures: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        sig = np.asarray(signatures, dtype=np.float64)
        wts = np.asarray(weights, dtype=np.float64)
        if sig.ndim != 2 or sig.shape[0] == 0:
            raise ClusteringError(f"bad signature matrix shape {sig.shape}")
        n = sig.shape[0]
        if wts.shape != (n,):
            raise ClusteringError(f"weights shape {wts.shape} != ({n},)")
        self.config = config
        self.projected = random_projection(
            sig, config.projected_dims, config.seed
        )
        self.weights = wts
        #: ``(labels, centers, bic)`` of the fit at ``k``, at index ``k-1``.
        self._fits: list[tuple[np.ndarray, np.ndarray, float]] = []

    def result(self, max_k: int) -> ClusteringResult:
        """Cluster with ``maxK = max_k``, fitting only the missing ``k``.

        Sweeps ``k = 1 .. min(max_k, n)``, scores each with weighted BIC
        and selects the smallest ``k`` whose normalized score reaches the
        configured threshold (SimPoint's rule).  The representative of
        each cluster is the member closest to the cluster centroid, ties
        broken toward the longer region.
        """
        if max_k <= 0:
            raise ClusteringError(f"max_k must be positive, got {max_k}")
        cfg = self.config
        top = min(max_k, self.projected.shape[0])
        for k in range(len(self._fits) + 1, top + 1):
            # Looked up as module globals at call time, so a tracer or a
            # test can substitute either function.
            fit = weighted_kmeans(
                self.projected, self.weights, k,
                seed=cfg.seed + k,
                max_iterations=cfg.kmeans_iterations,
                restarts=cfg.kmeans_restarts,
            )
            bic = weighted_bic(
                self.projected, self.weights, fit.labels, fit.centers
            )
            # A runner keeps its sweeps as long as its selections, so the
            # labels (all < k) are held in the narrowest integer type.
            labels = fit.labels.astype(np.min_scalar_type(k - 1))
            self._fits.append((labels, fit.centers, bic))

        bic_by_k = {k: fit[2] for k, fit in enumerate(self._fits[:top], 1)}
        chosen_k = self._select_k(bic_by_k)
        labels, centers, _ = self._fits[chosen_k - 1]
        labels, centers = self._compact(labels.astype(np.int64), centers)
        reps = self._representatives(
            self.projected, self.weights, labels, centers
        )
        # ``chosen_k`` stays the *selected* (pre-compaction) k so it keys
        # ``bic_by_k``; the compacted cluster count is ``num_clusters``.
        return ClusteringResult(
            labels=labels,
            representatives=reps,
            chosen_k=chosen_k,
            bic_by_k=bic_by_k,
            projected=self.projected,
            weights=self.weights,
        )

    @staticmethod
    def _compact(
        labels: np.ndarray, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop empty clusters (possible with duplicate-heavy data) and
        renumber labels densely."""
        used = np.unique(labels)
        if used.size == centers.shape[0]:
            return labels, centers
        return np.searchsorted(used, labels), centers[used]

    def _select_k(self, bic_by_k: dict[int, float]) -> int:
        """Smallest k whose normalized BIC clears the threshold."""
        scores = np.array([bic_by_k[k] for k in sorted(bic_by_k)])
        ks = sorted(bic_by_k)
        lo, hi = scores.min(), scores.max()
        if hi == lo:
            return ks[0]
        normalized = (scores - lo) / (hi - lo)
        for k, score in zip(ks, normalized):
            if score >= self.config.bic_threshold:
                return k
        return ks[-1]  # pragma: no cover - max always reaches 1.0

    @staticmethod
    def _representatives(
        points: np.ndarray,
        weights: np.ndarray,
        labels: np.ndarray,
        centers: np.ndarray,
    ) -> tuple[int, ...]:
        """Per-cluster representative: nearest to centroid, longest on ties."""
        reps = []
        for j in range(centers.shape[0]):
            members = np.flatnonzero(labels == j)
            if members.size == 0:
                raise ClusteringError(
                    f"cluster {j} is empty"
                )  # pragma: no cover - kmeans reseeds empties
            diffs = points[members] - centers[j]
            dists = np.einsum("ij,ij->i", diffs, diffs)
            best = dists.min()
            near = members[dists <= best * (1.0 + 1e-9) + 1e-30]
            if near.size > 1:
                near = near[np.argsort(-weights[near], kind="stable")]
            reps.append(int(near[0]))
        return tuple(reps)


class SimPointClusterer:
    """Clusters region signatures per the Table II configuration."""

    def __init__(self, config: SimPointConfig) -> None:
        self.config = config

    def fit(self, signatures: np.ndarray, weights: np.ndarray) -> ClusteringResult:
        """Cluster one signature per region, weighted by instructions.

        One :class:`KSweep` taken at ``config.max_k``; see
        :meth:`KSweep.result` for the selection rule.
        """
        return KSweep(self.config, signatures, weights).result(
            self.config.max_k
        )
