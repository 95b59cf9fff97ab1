"""Shared session fixtures for the benchmark harness.

All figure/table benchmarks share one memoized :class:`ExperimentRunner`,
so the expensive profiling and full-simulation passes are paid once per
(benchmark, core count), exactly as in the paper's evaluation flow.  The
runner is store-backed: baseline profiles and full runs persist under the
artifact store (``.repro-store`` by default), so repeated benchmark
sessions — and the ``repro`` CLI — share them instead of recomputing.

The committed tables under ``benchmarks/results/`` are goldens.  A run
with their configuration (scale 0.5, every benchmark) compares each
regenerated table with its golden and fails with a unified diff when
they differ; a missing golden is written, so deleting a file is how a
deliberate model change regenerates it.  Any other configuration (a
smoke scale, a workload subset) prints its tables and writes nothing.

Environment knobs:
    REPRO_BENCH_SCALE       workload scale (default 0.5; 1.0 = the numbers
                            recorded in EXPERIMENTS.md)
    REPRO_BENCH_WORKLOADS   comma-separated benchmark subset
    REPRO_WORKERS           process-parallel prefetch of the expensive
                            passes (default 0 = in-process)
    REPRO_STORE_DIR         artifact store root (default .repro-store)
    REPRO_STORE             set 0 to disable artifact reuse
"""

from __future__ import annotations

import difflib
import os
import pathlib

import pytest

from repro.experiments.common import ExperimentRunner
from repro.workloads import WORKLOAD_NAMES

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
    names = os.environ.get("REPRO_BENCH_WORKLOADS", "")
    benchmarks = (
        tuple(n.strip() for n in names.split(",") if n.strip())
        if names
        else WORKLOAD_NAMES
    )
    return ExperimentRunner(scale=scale, benchmarks=benchmarks)


@pytest.fixture(scope="session")
def record_table(runner):
    """Check each regenerated table against its golden in benchmarks/results/."""
    golden = (
        runner.scale == 0.5 and tuple(runner.benchmarks) == WORKLOAD_NAMES
    )

    def _record(name: str, text: str) -> None:
        print(f"\n{text}\n")
        if not golden:
            return
        path = RESULTS_DIR / f"{name}.txt"
        fresh = text + "\n"
        if not path.exists():
            RESULTS_DIR.mkdir(exist_ok=True)
            path.write_text(fresh)
            return
        committed = path.read_text()
        if committed != fresh:
            diff = "".join(difflib.unified_diff(
                committed.splitlines(keepends=True),
                fresh.splitlines(keepends=True),
                fromfile=f"results/{name}.txt (committed)",
                tofile=f"results/{name}.txt (regenerated)",
            ))
            pytest.fail(
                f"{name} differs from its golden; if the change is "
                f"intended, delete results/{name}.txt and rerun to "
                f"regenerate it\n{diff}",
                pytrace=False,
            )

    return _record
