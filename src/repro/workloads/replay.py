"""Replay of recorded ``.rpt`` traces through the workload interface.

:class:`ReplayWorkload` makes a recorded trace (see
:mod:`repro.trace.capture`) indistinguishable from the workload that
produced it: it reconstructs the static basic-block table and the region
schedule from the trace metadata and serves every region's block
executions from the file, so the profiler, the detailed simulator, the
warmup capture, and every hierarchy backend observe bit-identical
executions — the differential-conformance property
``tests/test_trace_replay.py`` asserts.

Replay never materializes the full trace: the base class's region memo
is disabled and the reader keeps only a small LRU window of decoded
regions, so peak memory is bounded by a few regions regardless of trace
size.
"""

from __future__ import annotations

import math
import os

from repro.errors import WorkloadError
from repro.trace.capture import TraceReader
from repro.trace.program import BasicBlock, BlockExec
from repro.workloads.base import PhaseInstance, Workload


def index_blocks(
    blocks, label: str
) -> tuple[dict[str, BasicBlock], tuple[BasicBlock, ...]]:
    """Index a trace's declared blocks by name and by dense id.

    The one block-table builder of the replay workloads: it rejects a
    block name declared twice and ids that do not run ``0..n-1``.

    Args:
        blocks: The declared blocks (``TraceReader.blocks``).
        label: How errors name the source, e.g. ``"trace '/x.rpt'"``.

    Returns:
        ``(by_name, by_id)``: a name → block dict and the block table
        indexed by ``bb_id``.

    Raises:
        WorkloadError: On a duplicate name or non-dense ids.
    """
    by_name: dict[str, BasicBlock] = {}
    for block in blocks:
        if block.name in by_name:
            raise WorkloadError(
                f"{label} declares block {block.name!r} twice"
            )
        by_name[block.name] = block
    by_id = sorted(by_name.values(), key=lambda b: b.bb_id)
    if [b.bb_id for b in by_id] != list(range(len(by_id))):
        raise WorkloadError(f"{label} block ids are not dense")
    return by_name, tuple(by_id)


def decode_block_execs(
    reader: TraceReader,
    region_index: int,
    thread_id: int,
    table: tuple[BasicBlock, ...],
    origin: str,
) -> list[BlockExec]:
    """Decode one thread's recorded executions against a block table.

    Shared by :class:`ReplayWorkload` and the shard-chain replay in
    :mod:`repro.trace.shard`, so both paths resolve block ids and report
    unknown ids identically.

    Args:
        reader: The trace to serve from.
        region_index: Region index *local to that trace file*.
        thread_id: The thread whose executions to decode.
        table: Dense ``bb_id``-ordered block table.
        origin: Trace description for error messages.

    Returns:
        The thread's :class:`BlockExec` list for the region.

    Raises:
        WorkloadError: When the region references a block id the table
            does not declare.
    """
    execs = reader.region_execs(region_index)[thread_id]
    out = []
    for bb_id, count, lines, writes in execs:
        if bb_id >= len(table):
            raise WorkloadError(
                f"trace {origin} region {region_index} "
                f"references unknown block id {bb_id}"
            )
        out.append(BlockExec(table[bb_id], count=count,
                             lines=lines, writes=writes))
    return out


class ReplayWorkload(Workload):
    """A workload backed by a recorded trace file.

    Parameters
    ----------
    path:
        The ``.rpt`` trace file.
    num_threads:
        Optional expectation; must equal the recorded thread count
        (replay cannot re-thread a trace).  ``None`` accepts whatever
        was recorded.
    scale:
        Optional expectation; must equal the recorded scale.  ``None``
        accepts whatever was recorded.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        num_threads: int | None = None,
        scale: float | None = None,
    ) -> None:
        self._reader = TraceReader(path)
        meta = self._reader.meta
        self.name = meta["workload"]
        self.input_size = meta.get("input_size", "")
        self.trace_path = self._reader.path
        if num_threads is not None and num_threads != meta["num_threads"]:
            raise WorkloadError(
                f"trace {str(self.trace_path)!r} was recorded with "
                f"{meta['num_threads']} threads and cannot replay with "
                f"{num_threads}; re-record the workload at the desired "
                f"thread count (`repro trace record {self.name} "
                f"--threads {num_threads}`) or run it on machines with "
                f"{meta['num_threads']} cores (e.g. `repro sweep "
                f"--machines ...`)"
            )
        if scale is not None and not math.isclose(
            scale, meta["scale"], rel_tol=1e-12
        ):
            raise WorkloadError(
                f"trace {str(self.trace_path)!r} was recorded at scale "
                f"{meta['scale']} and cannot replay at scale {scale}; "
                f"re-record the workload at the desired scale"
            )
        super().__init__(
            num_threads=meta["num_threads"], scale=meta["scale"]
        )
        # Bounded-memory replay: the reader's LRU window is the only
        # region cache (REPRO_TRACE_CACHE applies to *generated* traces).
        self._cache_traces = False
        self._trace_cache.clear()

    def _build(self) -> None:
        """Reconstruct schedule and block table from the trace metadata."""
        meta = self._reader.meta
        for phase, iteration, param in meta["schedule"]:
            self._schedule.append(PhaseInstance(phase, iteration, param))
        by_name, self._block_table = index_blocks(
            self._reader.blocks, f"trace {str(self.trace_path)!r}"
        )
        self._blocks.update(by_name)

    def _build_thread(
        self, inst: PhaseInstance, region_index: int, thread_id: int
    ) -> list[BlockExec]:
        """Serve one thread's block executions from the recorded chunk."""
        return decode_block_execs(
            self._reader, region_index, thread_id, self._block_table,
            repr(str(self.trace_path)),
        )

    def close(self) -> None:
        """Close the underlying trace reader."""
        self._reader.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplayWorkload(name={self.name!r}, threads={self.num_threads}, "
            f"regions={self.num_regions}, path={str(self.trace_path)!r})"
        )
