"""Most-recently-used line capture for warmup (section IV).

During the profiling run, each core tracks its most recently used cache
lines — together with whether the latest access was a write — in an
LRU-ordered structure whose capacity equals the largest shared LLC (in
lines) that will be simulated.  Snapshots taken at barrierpoint entry
become :class:`~repro.sim.warmup.MRUWarmupData`.

Implementation: the capacity-``cap`` MRU table is, at every instant, the
``cap`` most-recently-used *distinct* lines — so a line is still tracked
at its next access exactly when its LRU stack distance is below ``cap``.
That lets the tracker ride the chunked exact-distance engine
(:mod:`repro.profiling.stackdist`) instead of a per-access dict loop: a
line's sticky dirty bit survives a chunk iff no access in the chunk
re-entered it fresh (cold, or distance >= capacity), and the per-line
"any write since the last fresh entry" reduction is a vectorized
group-by over the chunk.  Snapshots and occupancy come straight from the
engine's recency order.  Parity with the seed dict implementation is
enforced by randomized tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.profiling.stackdist import FLUSH_THRESHOLD, StackDistanceEngine
from repro.sim.warmup import MRUWarmupData

_EMPTY_DIRTY = np.empty(0, dtype=bool)


class MRUTracker:
    """Per-core MRU line tracking with bounded capacity."""

    def __init__(self, num_cores: int, capacity_lines: int) -> None:
        if num_cores <= 0:
            raise WorkloadError("num_cores must be positive")
        if capacity_lines <= 0:
            raise WorkloadError("capacity_lines must be positive")
        self.capacity_lines = capacity_lines
        self._engines = [StackDistanceEngine() for _ in range(num_cores)]
        # Dirty flag per line, aligned with each engine's line table.
        self._dirty: list[np.ndarray] = [
            _EMPTY_DIRTY for _ in range(num_cores)
        ]
        # Pending (lines, writes) chunks per core: small observes are
        # accumulated and flushed through the engine in large batches so
        # the vectorized path amortizes even on tiny per-block streams.
        self._pending: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(num_cores)
        ]
        self._pending_size = [0] * num_cores

    def observe(self, core: int, lines: np.ndarray, writes: np.ndarray) -> None:
        """Stream one block's references for ``core`` through the tracker.

        The arrays are buffered by reference until the next flush, so
        callers must not mutate them afterwards (trace arrays are
        immutable in this codebase; pass a copy when streaming from a
        reused scratch buffer).
        """
        n = int(lines.size)
        if n == 0:
            return
        self._pending[core].append((lines, writes))
        self._pending_size[core] += n
        if self._pending_size[core] >= FLUSH_THRESHOLD:
            self._flush(core)

    def _flush(self, core: int) -> None:
        """Run the buffered stream of one core through the engine."""
        pending = self._pending[core]
        if not pending:
            return
        if len(pending) == 1:
            lines, writes = pending[0]
        else:
            lines = np.concatenate([c[0] for c in pending])
            writes = np.concatenate([c[1] for c in pending])
        self._pending[core] = []
        self._pending_size[core] = 0
        n = int(lines.size)
        view = self._engines[core].observe(
            lines, distance_floor=self.capacity_lines
        )
        writes = np.ascontiguousarray(writes, dtype=bool)
        distances = view.distances
        if view.kept is not None:
            # The engine collapsed consecutive repeats; a repeat keeps the
            # line tracked (distance 0), so its write simply ORs into the
            # run's surviving access.
            writes = np.logical_or.reduceat(writes, view.kept)
            distances = distances[view.kept]
            n = int(view.kept.size)
        # A "fresh entry": the line was not in the table when accessed, so
        # it re-enters carrying only this access's write flag.
        fresh = (distances < 0) | (distances >= self.capacity_lines)

        starts = view.group_starts
        perm = view.order
        fresh_g = fresh[perm]
        writes_g = writes[perm]
        # Per element: number of fresh entries strictly later in its group.
        cum = np.cumsum(fresh_g)
        group_ends = np.concatenate([starts[1:], [n]])
        counts = group_ends - starts
        gid = np.repeat(np.arange(starts.size), counts)
        fresh_after = cum[group_ends - 1][gid] - cum
        # A write survives iff the line is never re-entered fresh afterwards.
        live_write = writes_g & (fresh_after == 0)
        dirty_new = np.logical_or.reduceat(live_write, starts)
        reentered = np.logical_or.reduceat(fresh_g, starts)

        dirty = self._dirty[core]
        if view.was_new.any():
            dirty = np.insert(dirty, view.insert_at, False)
        prev = dirty[view.positions]
        dirty[view.positions] = dirty_new | (prev & ~reentered)
        self._dirty[core] = dirty

        # Only the top ``capacity`` lines can ever appear in a snapshot,
        # and any deeper line re-enters fresh anyway, so the engine may
        # forget them; this bounds per-chunk maintenance cost on workloads
        # whose footprint far exceeds the LLC.
        engine = self._engines[core]
        if engine.unique_lines > 2 * self.capacity_lines:
            kept = engine.prune_to(self.capacity_lines)
            if kept is not None:
                self._dirty[core] = self._dirty[core][kept]

    def snapshot(self, region_index: int) -> MRUWarmupData:
        """Freeze current state as warmup data for ``region_index``."""
        per_core = []
        cap = self.capacity_lines
        for core in range(len(self._engines)):
            self._flush(core)
        for engine, dirty in zip(self._engines, self._dirty):
            recency = engine.lines_by_recency()
            keep = recency[max(0, recency.size - cap):]
            lines = engine.line_table()[keep]
            per_core.append(
                tuple(zip(lines.tolist(), dirty[keep].tolist()))
            )
        return MRUWarmupData(
            region_index=region_index,
            per_core=tuple(per_core),
        )

    def occupancy(self, core: int) -> int:
        """Number of lines currently tracked for ``core``."""
        self._flush(core)
        return min(self._engines[core].unique_lines, self.capacity_lines)
