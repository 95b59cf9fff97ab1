"""Workload base class: barrier-structured synthetic programs.

A workload is a deterministic generator of inter-barrier region traces.  It
fixes, independently of thread count:

* the *schedule* — an ordered list of ``(phase, iteration)`` pairs, one per
  inter-barrier region (so the dynamic barrier count matches the paper's
  Fig. 1 regardless of threads, the property BarrierPoint relies on), and
* the *total* work per phase — per-thread work is ``total / num_threads``
  (strong scaling, as for NPB class-A fixed-size inputs).

Subclasses declare static basic blocks in ``__init__`` via :meth:`_bb`,
allocate line-granular arrays via :meth:`_alloc`, and implement
:meth:`_build_thread` returning the block executions of one thread in one
region.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.trace import generators
from repro.trace.program import BasicBlock, BlockExec, RegionTrace, ThreadTrace
from repro.trace.rng import stream_rng

_CODE_SEGMENT_BASE = 1 << 40
_ARRAY_PAD_LINES = 129  # odd padding decorrelates power-of-two set aliasing


@dataclass(frozen=True)
class PhaseInstance:
    """One scheduled inter-barrier region.

    ``phase`` names the code executed (BBV identity), ``iteration`` is the
    enclosing loop trip, and ``param`` carries phase-specific structure such
    as the multigrid level or the annealing layer — phases sharing a name
    but differing in ``param`` run the *same* basic blocks over different
    footprints, which is exactly the case where BBV-only signatures fail
    and LDVs are needed (paper section VI-A1).
    """

    phase: str
    iteration: int
    param: int = 0


class Workload(ABC):
    """Deterministic barrier-synchronized synthetic program.

    Parameters
    ----------
    num_threads:
        Thread count; one software thread per simulated core.
    scale:
        Multiplies all footprints and reference counts.  ``1.0`` is the
        benchmark-harness default; tests use small values for speed.
    """

    #: Paper-facing benchmark name, e.g. ``"npb-ft"``. Set by subclasses.
    name: str = ""
    #: Input-size label as reported in Table III (``"A"`` or ``"large"``).
    input_size: str = ""

    def __init__(self, num_threads: int, scale: float = 1.0) -> None:
        if num_threads <= 0:
            raise WorkloadError(f"num_threads must be positive, got {num_threads}")
        if scale <= 0:
            raise WorkloadError(f"scale must be positive, got {scale}")
        self.num_threads = num_threads
        self.scale = scale
        self._next_base = 0
        self._arrays: dict[str, tuple[int, int]] = {}
        self._blocks: dict[str, BasicBlock] = {}
        self._next_code_line = _CODE_SEGMENT_BASE
        self._schedule: list[PhaseInstance] = []
        self._trace_cache: dict[int, RegionTrace] = {}
        # Memoization holds every generated region trace for the workload's
        # lifetime (peak memory O(total trace) instead of O(one region));
        # REPRO_TRACE_CACHE=0 restores regenerate-per-pass behavior for
        # memory-constrained full-scale runs.
        self._cache_traces = os.environ.get("REPRO_TRACE_CACHE", "1") != "0"
        # The pieces regions share — rng-free generator arrays, jitter and
        # other per-(phase, iteration) draws — built once while the trace
        # cache is on: region_trace serves them through
        # generators.piece_memo, the one place that turns the memo on.
        self._memo: dict = {}
        self._build()
        if not self._schedule:
            raise WorkloadError(f"workload {self.name!r} produced an empty schedule")

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------

    @abstractmethod
    def _build(self) -> None:
        """Declare arrays and basic blocks, and populate ``self._schedule``."""

    @abstractmethod
    def _build_thread(
        self, inst: PhaseInstance, region_index: int, thread_id: int
    ) -> list[BlockExec]:
        """Block executions of ``thread_id`` in the given region."""

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def num_regions(self) -> int:
        """Number of inter-barrier regions == dynamic barrier count."""
        return len(self._schedule)

    @property
    def barrier_count(self) -> int:
        """Dynamic barrier count (the quantity plotted in Fig. 1)."""
        return self.num_regions

    def phase_of(self, region_index: int) -> PhaseInstance:
        """The ``(phase, iteration)`` identity of a region."""
        self._check_region(region_index)
        return self._schedule[region_index]

    def region_trace(self, region_index: int) -> RegionTrace:
        """Build the full multi-threaded trace of one inter-barrier region.

        Traces are deterministic functions of (workload, region), so they
        are built once and memoized: every consumer after the first —
        profiling, the full reference run, warmup capture, barrierpoint
        replays — reads the cached immutable trace instead of re-running
        the generators.  This is a large fraction of end-to-end time on
        workloads with many small regions.

        Treat a trace's ``lines``/``writes`` arrays as read-only.  While the
        trace cache is on, pieces the generators build with the same
        arguments are shared across regions (see
        :func:`repro.trace.generators.piece_memo`) and flagged read-only, so
        writing to one raises ``ValueError``.
        """
        self._check_region(region_index)
        cached = self._trace_cache.get(region_index)
        if cached is not None:
            return cached
        inst = self._schedule[region_index]
        with generators.piece_memo(self._memo if self._cache_traces else None):
            threads = tuple(
                ThreadTrace(
                    thread_id=tid,
                    blocks=tuple(self._build_thread(inst, region_index, tid)),
                )
                for tid in range(self.num_threads)
            )
        trace = RegionTrace(
            region_index=region_index, phase=inst.phase, threads=threads
        )
        if self._cache_traces:
            self._trace_cache[region_index] = trace
        return trace

    def disable_trace_cache(self) -> None:
        """Regenerate traces on every request (the seed behavior).

        Used by the perf benchmarks so the reference measurements reflect
        the seed system, which re-ran the trace generators on every pass:
        the shared pieces are rebuilt on every call too.
        """
        self._cache_traces = False
        self._trace_cache.clear()
        self._memo.clear()

    def iter_regions(self):
        """Yield every region trace in program order."""
        for idx in range(self.num_regions):
            yield self.region_trace(idx)

    def region_instructions(self, region_index: int) -> int:
        """Aggregate instruction count of one region (multiplier weights)."""
        return self.region_trace(region_index).instructions

    # ------------------------------------------------------------------
    # Construction helpers for subclasses
    # ------------------------------------------------------------------

    def _alloc(self, name: str, total_lines: int) -> int:
        """Allocate a named array of ``total_lines`` cache lines; return base."""
        if name in self._arrays:
            raise WorkloadError(f"array {name!r} allocated twice")
        if total_lines <= 0:
            raise WorkloadError(f"array {name!r} must have positive size")
        base = self._next_base
        self._arrays[name] = (base, total_lines)
        self._next_base = base + total_lines + _ARRAY_PAD_LINES
        return base

    def array_base(self, name: str) -> int:
        """Base line address of a previously allocated array."""
        return self._arrays[name][0]

    def array_lines(self, name: str) -> int:
        """Line count of a previously allocated array."""
        return self._arrays[name][1]

    def _bb(
        self,
        name: str,
        instructions: int,
        mispredict_rate: float = 0.01,
        mlp: float = 2.0,
        code_lines: int = 3,
    ) -> BasicBlock:
        """Declare a static basic block with a fresh id and code footprint."""
        if name in self._blocks:
            raise WorkloadError(f"basic block {name!r} declared twice")
        lines = tuple(
            self._next_code_line + i for i in range(code_lines)
        )
        self._next_code_line += code_lines
        block = BasicBlock(
            bb_id=len(self._blocks),
            name=name,
            instructions=instructions,
            mispredict_rate=mispredict_rate,
            mlp=mlp,
            code_lines=lines,
        )
        self._blocks[name] = block
        return block

    def block(self, name: str) -> BasicBlock:
        """Look up a declared basic block by name."""
        return self._blocks[name]

    @property
    def num_static_blocks(self) -> int:
        """Number of static basic blocks (the BBV dimensionality)."""
        return len(self._blocks)

    def _scaled(self, amount: float) -> int:
        """Apply the workload ``scale`` factor; at least 1."""
        return max(1, round(amount * self.scale))

    def _per_thread(self, total: float) -> int:
        """Strong-scaling split: this thread's share of ``total`` work."""
        return max(1, round(total * self.scale / self.num_threads))

    def _partition(self, name: str, thread_id: int) -> tuple[int, int]:
        """Contiguous slice of array ``name`` owned by ``thread_id``.

        Returns ``(base_line, n_lines)``.  The last thread absorbs rounding.
        """
        base, total = self._arrays[name]
        chunk = total // self.num_threads
        if chunk == 0:
            # More threads than lines: threads share the first lines round-robin.
            return base + (thread_id % total), 1
        start = base + thread_id * chunk
        if thread_id == self.num_threads - 1:
            chunk = total - chunk * (self.num_threads - 1)
        return start, chunk

    def _jitter(self, tag: str, iteration: int, frac: float) -> float:
        """Deterministic per-(phase, iteration) length multiplier.

        Uniform in ``[1 - frac, 1 + frac]``; identical across thread counts
        so region lengths (and therefore multipliers) transfer between
        architectures.
        """
        if not 0.0 <= frac < 1.0:
            raise WorkloadError(f"jitter fraction {frac} out of [0, 1)")

        def draw() -> float:
            rng = stream_rng(self.name, "jitter", tag, iteration)
            return float(1.0 + frac * (2.0 * rng.random() - 1.0))

        return generators.memoized(("jitter", tag, iteration, frac), draw)

    def _rng(self, *parts: object) -> np.random.Generator:
        """Deterministic RNG scoped to this workload plus ``parts``.

        Thread count is deliberately *excluded* from the seed: the schedule
        and data-dependent decisions (key distributions, particle counts)
        must match across core counts for barrierpoints to transfer.
        """
        return stream_rng(self.name, self.input_size, *parts)

    def _check_region(self, region_index: int) -> None:
        if not 0 <= region_index < self.num_regions:
            raise WorkloadError(
                f"region {region_index} out of range [0, {self.num_regions}) "
                f"for workload {self.name!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, threads={self.num_threads}, "
            f"regions={self.num_regions}, scale={self.scale})"
        )
