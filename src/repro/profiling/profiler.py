"""The functional profiler: one pass, all signatures.

This plays the role of the paper's Pin tool: it "runs" the application at
functional speed (here: walking the deterministic traces), maintaining one
persistent LRU stack per thread and emitting, per inter-barrier region,
the per-thread BBVs and LDVs that the clustering consumes.

A second, cheaper pass (:meth:`FunctionalProfiler.capture_warmup`) re-walks
the trace maintaining only per-core MRU state and snapshots it at the
entry of each selected barrierpoint — mirroring the paper's dedicated
warmup-capture run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.profiling.bbv import collect_region_bbv
from repro.profiling.ldv import NUM_LDV_BUCKETS, bucketize
from repro.profiling.mru import MRUTracker
from repro.profiling.stackdist import FLUSH_THRESHOLD, StackDistanceEngine
from repro.sim.warmup import MRUWarmupData
from repro.workloads.base import Workload


@dataclass(frozen=True)
class RegionProfile:
    """Signatures and sizes of one inter-barrier region.

    ``bbv`` has shape ``(threads, static_blocks)`` and counts instructions
    per block; ``ldv`` has shape ``(threads, NUM_LDV_BUCKETS)`` and counts
    accesses per power-of-two stack-distance bin.
    """

    region_index: int
    phase: str
    instructions: int
    per_thread_instructions: tuple[int, ...]
    bbv: np.ndarray
    ldv: np.ndarray

    @property
    def num_threads(self) -> int:
        """Thread count the profile was collected with."""
        return self.bbv.shape[0]

    def to_state(self) -> dict:
        """Serialize to a plain dict (artifact-store payload).

        Returns:
            A dict of scalars plus the BBV/LDV arrays, consumed by
            :meth:`from_state`.
        """
        return {
            "region_index": self.region_index,
            "phase": self.phase,
            "instructions": self.instructions,
            "per_thread_instructions": tuple(self.per_thread_instructions),
            "bbv": self.bbv,
            "ldv": self.ldv,
        }

    @classmethod
    def from_state(cls, state: dict) -> RegionProfile:
        """Rebuild a region profile from a :meth:`to_state` dict.

        Args:
            state: A dict produced by :meth:`to_state`.

        Returns:
            An equivalent :class:`RegionProfile` (arrays bit-identical).
        """
        return cls(
            region_index=state["region_index"],
            phase=state["phase"],
            instructions=state["instructions"],
            per_thread_instructions=tuple(state["per_thread_instructions"]),
            bbv=np.asarray(state["bbv"]),
            ldv=np.asarray(state["ldv"]),
        )


def profiles_digest(profiles: list[RegionProfile]) -> str:
    """Order-sensitive content digest of a profile list.

    Covers every region's identity, instruction counts, and the raw BBV
    and LDV array bytes, so two digests match exactly when the profiles
    are bit-identical — the check ``repro trace replay --verify`` and the
    conformance tests print/compare.

    Args:
        profiles: Region profiles in program order.

    Returns:
        A short hex digest.
    """
    digest = hashlib.sha256()
    for p in profiles:
        digest.update(
            f"{p.region_index}|{p.phase}|{p.instructions}|"
            f"{','.join(map(str, p.per_thread_instructions))}|"
            f"{p.bbv.dtype}{p.bbv.shape}|{p.ldv.dtype}{p.ldv.shape}|"
            .encode()
        )
        digest.update(np.ascontiguousarray(p.bbv).tobytes())
        digest.update(np.ascontiguousarray(p.ldv).tobytes())
    return digest.hexdigest()[:16]


class _LdvBatcher:
    """Per-thread LDV accumulation across region boundaries.

    Region streams are buffered and flushed through the exact-distance
    engine in ~:data:`FLUSH_THRESHOLD`-access batches; each flush splits
    its bucketized distances back to the originating regions, so the
    per-region histograms are identical to per-region observation while
    tiny regions stop paying the engine's fixed per-chunk cost.
    """

    __slots__ = ("engine", "hist", "_chunks", "_regions", "_pending")

    def __init__(self, num_regions: int) -> None:
        self.engine = StackDistanceEngine()
        self.hist = np.zeros((num_regions, NUM_LDV_BUCKETS), dtype=np.int64)
        self._chunks: list[np.ndarray] = []
        self._regions: list[int] = []
        self._pending = 0

    def add(self, region_index: int, lines: np.ndarray) -> None:
        """Buffer one region stream; flush when the batch is large enough.

        ``lines`` is held by reference until the flush — callers must not
        mutate it afterwards.
        """
        self._chunks.append(lines)
        self._regions.append(region_index)
        self._pending += int(lines.size)
        if self._pending >= FLUSH_THRESHOLD:
            self.flush()

    def flush(self) -> None:
        """Run the buffered batch through the engine, split per region."""
        chunks = self._chunks
        if not chunks:
            return
        lines = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        sizes = [c.size for c in chunks]
        regions = self._regions
        self._chunks = []
        self._regions = []
        self._pending = 0
        buckets = bucketize(self.engine.observe(lines).distances)
        lo = regions[0]
        segments = np.repeat(np.asarray(regions, dtype=np.int64) - lo, sizes)
        span = regions[-1] - lo + 1
        counts = np.bincount(
            segments * NUM_LDV_BUCKETS + buckets,
            minlength=span * NUM_LDV_BUCKETS,
        )
        self.hist[lo:lo + span] += counts.reshape(span, NUM_LDV_BUCKETS)


class FunctionalProfiler:
    """Collects :class:`RegionProfile` s for a whole workload."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload

    def profile(self) -> list[RegionProfile]:
        """One functional pass over every region, in program order.

        LRU stacks persist across regions (the paper's Pintool behaviour),
        so first-touch iterations exhibit cold-dominated LDVs while later,
        code-identical iterations show finite reuse distances.
        """
        workload = self.workload
        num_blocks = workload.num_static_blocks
        num_regions = workload.num_regions
        batchers = [
            _LdvBatcher(num_regions) for _ in range(workload.num_threads)
        ]
        pending: list[tuple] = []
        for trace in workload.iter_regions():
            bbv = collect_region_bbv(trace, num_blocks)
            for thread in trace.threads:
                chunks = [e.lines for e in thread.blocks if e.lines.size]
                if chunks:
                    batchers[thread.thread_id].add(
                        trace.region_index,
                        chunks[0] if len(chunks) == 1
                        else np.concatenate(chunks),
                    )
            pending.append((
                trace.region_index,
                trace.phase,
                trace.instructions,
                tuple(t.instructions for t in trace.threads),
                bbv,
            ))
        for batcher in batchers:
            batcher.flush()
        profiles: list[RegionProfile] = []
        for region_index, phase, instructions, per_thread, bbv in pending:
            ldv = np.stack([
                b.hist[region_index].astype(np.float64) for b in batchers
            ])
            profiles.append(
                RegionProfile(
                    region_index=region_index,
                    phase=phase,
                    instructions=instructions,
                    per_thread_instructions=per_thread,
                    bbv=bbv,
                    ldv=ldv,
                )
            )
        return profiles

    def capture_warmup(
        self, barrierpoint_regions: set[int], llc_capacity_lines: int
    ) -> dict[int, MRUWarmupData]:
        """Second pass: snapshot MRU state at each selected barrierpoint.

        ``llc_capacity_lines`` should be the *largest* shared-LLC line count
        of any machine that will simulate the barrierpoints (section IV:
        one capture serves all configurations).
        """
        workload = self.workload
        if not barrierpoint_regions:
            return {}
        bad = {
            r for r in barrierpoint_regions
            if not 0 <= r < workload.num_regions
        }
        if bad:
            raise WorkloadError(f"barrierpoint regions out of range: {sorted(bad)}")
        tracker = MRUTracker(workload.num_threads, llc_capacity_lines)
        snapshots: dict[int, MRUWarmupData] = {}
        last_needed = max(barrierpoint_regions)
        for trace in workload.iter_regions():
            idx = trace.region_index
            if idx in barrierpoint_regions:
                snapshots[idx] = tracker.snapshot(idx)
            if idx >= last_needed:
                break
            for thread in trace.threads:
                chunks = [
                    (e.lines, e.writes) for e in thread.blocks
                    if e.lines.size
                ]
                if not chunks:
                    continue
                if len(chunks) == 1:
                    lines, writes = chunks[0]
                else:
                    lines = np.concatenate([c[0] for c in chunks])
                    writes = np.concatenate([c[1] for c in chunks])
                tracker.observe(thread.thread_id, lines, writes)
        return snapshots
