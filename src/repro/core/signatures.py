"""Signature Vector construction (section III-A3/A4).

A region's Signature Vector (SV) is built from its per-thread BBVs and/or
LDVs: per-thread vectors are *concatenated* (not summed — section III-A4
chooses concatenation so heterogeneous threads land in different clusters),
each constituent part is L1-normalized individually, and BBV/LDV parts are
concatenated into the final SV.

LDV bucket weighting (section III-A3): bucket ``n`` may be scaled by
``2^(n/v)`` to emphasize long-latency reuse distances; ``v = None`` means
unweighted, and the paper evaluates v in {1, 2, 5} (Fig. 5's
``reuse_dist-1_2`` etc.), settling on unweighted as the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError
from repro.profiling.profiler import RegionProfile

_KINDS = ("bbv", "ldv", "combined")
_THREAD_MODES = ("concat", "sum")


@dataclass(frozen=True)
class SignatureConfig:
    """How to turn region profiles into signature vectors.

    ``kind``: which information the SV carries ('bbv', 'ldv', 'combined').
    ``ldv_weight_v``: None for unweighted LDV buckets, else the ``v`` in
    the ``2^(n/v)`` bucket weighting.
    ``thread_mode``: 'concat' (default, the paper's choice) or 'sum'.
    """

    kind: str = "combined"
    ldv_weight_v: float | None = None
    thread_mode: str = "concat"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ClusteringError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.thread_mode not in _THREAD_MODES:
            raise ClusteringError(
                f"thread_mode must be one of {_THREAD_MODES}, got {self.thread_mode!r}"
            )
        if self.ldv_weight_v is not None and self.ldv_weight_v <= 0:
            raise ClusteringError("ldv_weight_v must be positive or None")

    @property
    def label(self) -> str:
        """Figure-5-style label, e.g. ``combine-1_2``."""
        base = {"bbv": "bbv", "ldv": "reuse_dist", "combined": "combine"}[self.kind]
        if self.kind != "bbv" and self.ldv_weight_v is not None:
            return f"{base}-1_{int(self.ldv_weight_v)}"
        return base


#: The seven clustering variants evaluated in Fig. 5, by label.
SIGNATURE_VARIANTS: dict[str, SignatureConfig] = {
    "bbv": SignatureConfig(kind="bbv"),
    "reuse_dist": SignatureConfig(kind="ldv"),
    "reuse_dist-1_2": SignatureConfig(kind="ldv", ldv_weight_v=2),
    "reuse_dist-1_5": SignatureConfig(kind="ldv", ldv_weight_v=5),
    "combine": SignatureConfig(kind="combined"),
    "combine-1_2": SignatureConfig(kind="combined", ldv_weight_v=2),
    "combine-1_5": SignatureConfig(kind="combined", ldv_weight_v=5),
}

#: Every variant a k sweep is fitted for: Fig. 5's seven plus the
#: section III-A4 ablation's default signature with per-thread vectors
#: summed instead of concatenated.
SWEEP_VARIANTS: dict[str, SignatureConfig] = {
    **SIGNATURE_VARIANTS,
    "combine-sum": SignatureConfig(kind="combined", thread_mode="sum"),
}


def _ldv_bucket_weights(num_buckets: int, v: float | None) -> np.ndarray:
    """Per-bucket scale factors ``2^(n/v)`` (1.0 when unweighted)."""
    if v is None:
        return np.ones(num_buckets, dtype=np.float64)
    exponents = np.arange(num_buckets, dtype=np.float64) / float(v)
    return np.exp2(exponents)


def _flatten_threads(per_thread: np.ndarray, mode: str) -> np.ndarray:
    """Combine a (threads, dims) matrix into one vector."""
    if mode == "sum":
        return per_thread.sum(axis=0)
    return per_thread.reshape(-1)


def _normalized(vec: np.ndarray) -> np.ndarray:
    total = vec.sum()
    return vec / total if total > 0 else vec


def signature_of(profile: RegionProfile, config: SignatureConfig) -> np.ndarray:
    """Build one region's SV from its profile."""
    parts: list[np.ndarray] = []
    if config.kind in ("bbv", "combined"):
        parts.append(_normalized(_flatten_threads(profile.bbv, config.thread_mode)))
    if config.kind in ("ldv", "combined"):
        weights = _ldv_bucket_weights(profile.ldv.shape[1], config.ldv_weight_v)
        weighted = profile.ldv * weights[None, :]
        parts.append(_normalized(_flatten_threads(weighted, config.thread_mode)))
    return np.concatenate(parts)


def build_signature_matrix(
    profiles: list[RegionProfile], config: SignatureConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Signature matrix (one row per region) plus instruction-count weights.

    All profiles must come from the same run (same thread count and static
    block set), otherwise row dimensions would disagree.
    """
    if not profiles:
        raise ClusteringError("no profiles to build signatures from")
    rows = [signature_of(p, config) for p in profiles]
    dims = {r.shape[0] for r in rows}
    if len(dims) != 1:
        raise ClusteringError(
            f"inconsistent signature dimensionality across regions: {sorted(dims)}"
        )
    matrix = np.vstack(rows)
    weights = np.array([float(p.instructions) for p in profiles])
    if np.any(weights <= 0):
        raise ClusteringError("every region must have positive instruction count")
    return matrix, weights
