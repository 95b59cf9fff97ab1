"""Micro-benchmark timing helpers for the perf harness.

``benchmarks/test_perf.py`` uses these to time the fast engines against
their seed references and to persist a machine-readable perf trajectory in
``benchmarks/results/BENCH_perf.json`` that future PRs must not regress.
"""

from __future__ import annotations

import json
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path
import time
from typing import Any, Callable

#: Trajectory entries kept in the report file (oldest dropped first).
MAX_TRAJECTORY = 50


@dataclass(frozen=True)
class TimedResult:
    """Wall-clock seconds (best of ``repeat``) plus the last return value."""

    seconds: float
    value: Any


def time_call(fn: Callable[[], Any], repeat: int = 1) -> TimedResult:
    """Time ``fn()`` with ``perf_counter``; keeps the best of ``repeat``.

    Args:
        fn: Zero-argument callable to measure.
        repeat: Timed invocations; the fastest one wins (damps scheduler
            and turbo noise).

    Returns:
        The best wall-clock time and the value of the last call.
    """
    best = float("inf")
    value = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return TimedResult(seconds=best, value=value)


@dataclass
class PhaseTiming:
    """One (workload, phase) fast-vs-reference measurement."""

    workload: str
    phase: str
    fast_seconds: float
    reference_seconds: float

    @property
    def speedup(self) -> float:
        """Reference time over fast time; inf if fast rounds to zero."""
        if self.fast_seconds <= 0.0:
            return float("inf")
        return self.reference_seconds / self.fast_seconds


@dataclass
class BenchmarkReport:
    """Accumulates phase timings and serializes the perf trajectory."""

    scale: float
    records: list[PhaseTiming] = field(default_factory=list)

    def add(
        self,
        workload: str,
        phase: str,
        fast_seconds: float,
        reference_seconds: float,
    ) -> PhaseTiming:
        """Record one measurement and return it."""
        record = PhaseTiming(workload, phase, fast_seconds, reference_seconds)
        self.records.append(record)
        return record

    def combined_speedup(self, phases: tuple[str, ...]) -> float:
        """Aggregate speedup over the given phases, all workloads pooled.

        Args:
            phases: Phase names to pool.

        Returns:
            Pooled reference seconds over pooled fast seconds.
        """
        rows = [r for r in self.records if r.phase in phases]
        fast = sum(r.fast_seconds for r in rows)
        ref = sum(r.reference_seconds for r in rows)
        if fast <= 0.0:
            return float("inf")
        return ref / fast

    def _combined(self) -> dict:
        """Combined-speedup block of the report."""
        phases = tuple(sorted({r.phase for r in self.records}))
        return {
            "profile+full_run": round(
                self.combined_speedup(("profile", "full_run")), 3
            ),
            "all_phases": round(self.combined_speedup(phases), 3),
        }

    def to_dict(self) -> dict:
        """The JSON-ready report structure.

        Records are sorted by (workload, phase) so the file is
        byte-stable across runs that measure the same grid, keeping
        diffs reviewable.
        """
        ordered = sorted(self.records, key=lambda r: (r.workload, r.phase))
        return {
            "scale": self.scale,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "records": [
                {**asdict(r), "speedup": round(r.speedup, 3)}
                for r in ordered
            ],
            "combined": self._combined(),
        }

    def write(self, path: Path) -> dict:
        """Serialize to ``path``, extending its perf trajectory.

        Instead of wholesale-rewriting history, the previous file's
        ``trajectory`` list is carried over and the current run's
        summary appended (bounded by :data:`MAX_TRAJECTORY`), so the
        committed file accumulates a speedup record across changes.
        Older entries are kept exactly as they were written.  Returns
        the written structure.
        """
        payload = self.to_dict()
        trajectory: list[dict] = []
        if path.exists():
            try:
                previous = json.loads(path.read_text())
            except (OSError, ValueError):
                previous = {}
            trajectory = list(previous.get("trajectory", []))
        trajectory.append({
            "scale": payload["scale"],
            "python": payload["python"],
            "machine": payload["machine"],
            "combined": payload["combined"],
        })
        payload["trajectory"] = trajectory[-MAX_TRAJECTORY:]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return payload
