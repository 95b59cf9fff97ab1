"""End-to-end BarrierPoint pipeline (the flow of Fig. 2).

Typical use::

    from repro.config import scaled, table1_8core, simpoint_defaults
    from repro.core import BarrierPointPipeline, SignatureConfig
    from repro.workloads import get_workload

    workload = get_workload("npb-ft", 8)
    pipe = BarrierPointPipeline(scaled(table1_8core(), 16))
    result = pipe.run(workload)          # select + simulate + reconstruct
    print(result.selection.num_barrierpoints, result.runtime_error_pct)

The pipeline exposes the intermediate stages too (profiling, selection,
perfect-warmup evaluation, independent warmed simulation) because the
evaluation harness exercises them separately per figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import MachineConfig, SimPointConfig, simpoint_defaults
from repro.core.reconstruction import (
    apki_difference,
    reconstruct_app,
    runtime_error_pct,
)
from repro.core.selection import (
    BarrierPointSelection,
    select_barrierpoints,
)
from repro.core.signatures import SignatureConfig, build_signature_matrix
from repro.clustering.simpoint import KSweep
from repro.errors import ConfigError
from repro.profiling.profiler import FunctionalProfiler, RegionProfile
from repro.sim.machine import FullRunResult, Machine
from repro.sim.results import AppMetrics, RegionMetrics
from repro.sim.warmup import ColdWarmup, MRUWarmup
from repro.workloads.base import Workload


@dataclass(frozen=True)
class PipelineResult:
    """Everything one full pipeline invocation produced."""

    selection: BarrierPointSelection
    reference: AppMetrics
    estimate: AppMetrics
    warmup_name: str
    point_metrics: dict[int, RegionMetrics]
    warmup_lines: dict[int, int] = field(default_factory=dict)

    @property
    def runtime_error_pct(self) -> float:
        """Absolute % error of estimated vs reference execution time."""
        return runtime_error_pct(self.estimate, self.reference)

    @property
    def apki_difference(self) -> float:
        """Absolute DRAM APKI difference, estimated vs reference."""
        return apki_difference(self.estimate, self.reference)


class BarrierPointPipeline:
    """Drives profile -> cluster -> simulate -> reconstruct."""

    def __init__(
        self,
        machine: MachineConfig,
        signature: SignatureConfig | None = None,
        simpoint: SimPointConfig | None = None,
    ) -> None:
        self.machine = machine
        self.signature = signature or SignatureConfig()
        self.simpoint = simpoint or simpoint_defaults()

    # -- stage 1: profiling -------------------------------------------------

    def profile(self, workload: Workload) -> list[RegionProfile]:
        """Functional profiling pass (BBVs + LDVs per region)."""
        self._check_threads(workload)
        return FunctionalProfiler(workload).profile()

    # -- stage 2: selection -------------------------------------------------

    def sweep(
        self, workload: Workload, profiles: list[RegionProfile] | None = None
    ) -> KSweep:
        """The k-means/BIC sweep over this pipeline's region signatures.

        Pass it to :meth:`select` of pipelines that differ only in
        ``maxK`` to fit each ``k`` once across them.
        """
        if profiles is None:
            profiles = self.profile(workload)
        matrix, weights = build_signature_matrix(profiles, self.signature)
        return KSweep(self.simpoint, matrix, weights)

    def select(
        self,
        workload: Workload,
        profiles: list[RegionProfile] | None = None,
        sweep: KSweep | None = None,
    ) -> BarrierPointSelection:
        """Cluster region signatures and pick barrierpoints.

        ``sweep`` reuses the fits of an earlier :meth:`sweep` of the same
        workload and signature variant; without it, one is built from
        ``profiles``.
        """
        if sweep is None:
            sweep = self.sweep(workload, profiles)
        return select_barrierpoints(
            sweep.result(self.simpoint.max_k),
            sweep.weights,
            workload_name=workload.name,
            num_threads=workload.num_threads,
            signature_label=self.signature.label,
        )

    # -- stage 3a: reference / perfect-warmup evaluation --------------------

    def full_run(self, workload: Workload) -> FullRunResult:
        """Detailed simulation of the complete benchmark (the reference)."""
        self._check_threads(workload)
        return Machine(self.machine).run_full(workload)

    def evaluate_perfect(
        self,
        selection: BarrierPointSelection,
        full: FullRunResult,
        scaling: bool = True,
    ) -> PipelineResult:
        """Score selection quality in isolation (section VI-A protocol).

        Barrierpoint metrics are taken from the full run, i.e. with
        perfectly warm state; the only error left is selection error.
        """
        point_metrics = {
            p.region_index: full.region(p.region_index)
            for p in selection.points
        }
        estimate = reconstruct_app(selection, point_metrics, scaling=scaling)
        return PipelineResult(
            selection=selection,
            reference=full.app,
            estimate=estimate,
            warmup_name="perfect",
            point_metrics=point_metrics,
        )

    # -- stage 3b: independent simulation with real warmup ------------------

    def evaluate_with_warmup(
        self,
        selection: BarrierPointSelection,
        workload: Workload,
        full: FullRunResult,
        warmup_kind: str = "mru",
    ) -> PipelineResult:
        """Simulate each barrierpoint independently after warmup (Fig. 7).

        Each barrierpoint starts from a fresh machine whose caches are
        rebuilt by MRU replay (or left cold for the ablation), exactly as a
        parallel, checkpoint-based deployment would run.
        """
        if warmup_kind not in ("mru", "cold"):
            raise ConfigError(f"unknown warmup kind {warmup_kind!r}")
        self._check_threads(workload)
        selected = set(selection.selected_regions)
        warmup_lines: dict[int, int] = {}
        warmups: dict[int, object] = {}
        if warmup_kind == "mru":
            # Per-core capture capacity equals the shared LLC a core sees
            # (Table I: one L3 per socket) — section IV's "largest total
            # shared LLC capacity visible to each core".
            capacity = self.machine.l3.num_lines
            captured = FunctionalProfiler(workload).capture_warmup(
                selected, capacity
            )
            for idx, data in captured.items():
                warmups[idx] = MRUWarmup(data)
                warmup_lines[idx] = data.total_lines
        else:
            for idx in selected:
                warmups[idx] = ColdWarmup()
                warmup_lines[idx] = 0

        machine = Machine(self.machine)
        point_metrics = {}
        for idx in sorted(selected):
            machine.reset()
            point_metrics[idx] = machine.simulate_barrierpoint(
                workload, idx, warmups[idx]
            )
        estimate = reconstruct_app(selection, point_metrics)
        return PipelineResult(
            selection=selection,
            reference=full.app,
            estimate=estimate,
            warmup_name=warmup_kind,
            point_metrics=point_metrics,
            warmup_lines=warmup_lines,
        )

    # -- convenience ---------------------------------------------------------

    def run(self, workload: Workload, warmup_kind: str = "mru") -> PipelineResult:
        """Full methodology: select, simulate with warmup, reconstruct."""
        selection = self.select(workload)
        full = self.full_run(workload)
        return self.evaluate_with_warmup(selection, workload, full, warmup_kind)

    def _check_threads(self, workload: Workload) -> None:
        if workload.num_threads > self.machine.num_cores:
            raise ConfigError(
                f"workload has {workload.num_threads} threads but machine "
                f"{self.machine.name!r} has {self.machine.num_cores} cores"
            )
