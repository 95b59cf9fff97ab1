"""Microarchitectural warmup strategies for barrierpoint simulation.

The paper's technique (section IV): during a near-native profiling run,
capture each core's most-recently-used cache lines — with capacity equal to
the *largest shared LLC* that will ever be simulated — and replay them in
execution order before detailed simulation starts.  Replay rebuilds cache
*and* coherence state without any microarchitecture-specific snapshot
format, so one capture serves every machine configuration.

``ColdWarmup`` (empty caches) is provided as the ablation baseline.
"Perfect" warmup is not a strategy object: it is the evaluation protocol of
taking a barrierpoint's metrics directly from the full-program run
(section VI-A), implemented in :mod:`repro.core.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Protocol

from repro.errors import SimulationError
from repro.mem.hierarchy import MemoryHierarchy


class WarmupStrategy(Protocol):
    """Prepares hierarchy state before detailed simulation of a region."""

    name: str
    #: Whether the machine should also touch the region's static code
    #: footprint (I-cache warmup) before detailed simulation starts.
    warm_code: bool

    def prepare(self, hierarchy: MemoryHierarchy, region_index: int) -> None:
        """Install warm state for the region starting at ``region_index``."""
        ...  # pragma: no cover - protocol signature


@dataclass
class ColdWarmup:
    """No warmup: simulate the barrierpoint from empty caches."""

    name: str = "cold"
    #: Cold runs pay compulsory instruction fetches too.
    warm_code: bool = False

    def prepare(self, hierarchy: MemoryHierarchy, region_index: int) -> None:
        """Flush everything; the region pays all compulsory misses."""
        hierarchy.flush_all()


@dataclass(frozen=True)
class MRUWarmupData:
    """Captured warmup state for one barrierpoint.

    ``per_core`` holds, for each core, the most-recently-used line
    addresses *in LRU-to-MRU order* paired with whether the line's most
    recent access was a write.  Capacity per core equals the largest shared
    LLC line count (paper section IV).
    """

    region_index: int
    per_core: tuple[tuple[tuple[int, bool], ...], ...]

    @property
    def total_lines(self) -> int:
        """Number of captured (core, line) replay entries."""
        return sum(len(c) for c in self.per_core)


@dataclass
class MRUWarmup:
    """Replay-based warmup from captured MRU access data."""

    data: MRUWarmupData
    name: str = "mru"
    #: Also touch the region's static code footprint before simulation.
    #: The paper's barrierpoints are millions of instructions, so I-cache
    #: warmup "is not normally required"; our scaled regions are short
    #: enough that cold instruction fetch would otherwise be visible.
    warm_code: bool = True
    #: Replay work in "equivalent instructions" per line, used only for
    #: speedup accounting (each replayed line costs about one memory
    #: instruction in the detailed simulator).
    replay_cost_per_line: float = field(default=1.0)

    def prepare(self, hierarchy: MemoryHierarchy, region_index: int) -> None:
        """Flush, then replay the cores' MRU lines round-robin in one call.

        The replay stream interleaves the per-core captures cursor-major,
        core-minor (entry 0 of every core, then entry 1, ...), skipping
        cores whose capture is exhausted, and goes to
        :meth:`MemoryHierarchy.replay_block` as one ``(core, line, write)``
        column triple.
        """
        if region_index != self.data.region_index:
            raise SimulationError(
                f"warmup data is for region {self.data.region_index}, "
                f"not {region_index}"
            )
        if len(self.data.per_core) > hierarchy.machine.num_cores:
            raise SimulationError(
                f"warmup captured {len(self.data.per_core)} cores but the "
                f"machine has {hierarchy.machine.num_cores}"
            )
        hierarchy.flush_all()
        # Interleave the per-core replays round-robin, oldest first, so the
        # shared L3's recency order approximates the original interleaving.
        #
        # Dirty restoration is bounded: under LRU, a line is still resident
        # (hence possibly still dirty) only if fewer than one LLC's worth
        # of distinct lines were touched since its last write, so entries
        # older than ``llc_lines / sharers`` per core replay as clean reads —
        # their writeback already happened before the checkpoint.  The
        # capture holds one stream per *active thread*, and stream ``i``
        # replays onto core ``i``, so each socket's LLC was shared by the
        # number of active streams mapped to it (capped at its core
        # count), not by every core the machine has — an 8-thread capture
        # replayed on a wider machine must not shrink the window, and a
        # half-populated socket keeps its wider per-writer share.
        machine = hierarchy.machine
        llc_lines = machine.l3.num_lines
        # Stream i replays onto core i (checked against num_cores above),
        # so each socket structurally holds at most cores_per_socket
        # streams — the per-socket count needs no further clamping.
        streams_per_socket = [0] * machine.num_sockets
        for stream_index in range(len(self.data.per_core)):
            streams_per_socket[machine.socket_of(stream_index)] += 1
        cores: list[list[int]] = []
        lines: list[list[int]] = []
        writes: list[list[bool]] = []
        for stream_index, core_data in enumerate(self.data.per_core):
            sharers = max(
                1, streams_per_socket[machine.socket_of(stream_index)]
            )
            dirty_window = max(1, llc_lines // sharers)
            clean_until = len(core_data) - dirty_window
            cores.append([stream_index] * len(core_data))
            lines.append([line for line, _ in core_data])
            writes.append([
                (was_write if i >= clean_until else False)
                for i, (_, was_write) in enumerate(core_data)
            ])
        hierarchy.replay_block(
            _round_robin(cores), _round_robin(lines), _round_robin(writes)
        )


def _round_robin(columns: list[list]) -> list:
    """Interleave per-core columns cursor-major, core-minor.

    Entry ``i`` of every column that has one comes before entry ``i + 1``
    of any, in column order; exhausted columns are skipped.  Between two
    consecutive distinct column lengths the set of live columns is fixed,
    so each such span interleaves in one ``zip``.

    Args:
        columns: One list per core.

    Returns:
        The interleaved flat list.
    """
    out: list = []
    start = 0
    for stop in sorted({len(column) for column in columns}):
        live = [c[start:stop] for c in columns if len(c) >= stop]
        out.extend(chain.from_iterable(zip(*live)))
        start = stop
    return out
