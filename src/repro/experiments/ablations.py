"""Design-choice ablations called out in the paper's text.

* Section III-A4: per-thread signature *concatenation* vs summation —
  concatenation exposes heterogeneous thread behaviour to clustering.
* Section III-D: multiplier scaling on/off (also shown in Fig. 4's module).
* Table III: simulating significant barrierpoints only — the speedup and
  accuracy cost of dropping sub-0.1% clusters.
"""

from __future__ import annotations

import numpy as np

from repro.core.signatures import SignatureConfig
from repro.core.speedup import speedup_report
from repro.experiments.common import CORE_COUNTS, ExperimentRunner
from repro.util.tables import format_table


def compute_thread_combining(runner: ExperimentRunner) -> list[dict]:
    """Concat-vs-sum error per benchmark (averaged over core counts).

    Concatenation is the default ``combine`` signature, so its selections
    are the runner's shared ones; summation is clustered here.
    """
    summed = SignatureConfig(kind="combined", thread_mode="sum")
    rows = []
    for name in runner.benchmarks:
        errors = {"concat": [], "sum": []}
        for nt in CORE_COUNTS:
            concat = runner.evaluate_perfect(name, nt)
            errors["concat"].append(concat.runtime_error_pct)
            pipe = runner.pipeline(nt, summed)
            sel = pipe.select(
                runner.workload(name, nt), runner.profiles(name, nt)
            )
            result = pipe.evaluate_perfect(sel, runner.full(name, nt))
            errors["sum"].append(result.runtime_error_pct)
        rows.append(
            {
                "benchmark": name,
                "concat_error": float(np.mean(errors["concat"])),
                "sum_error": float(np.mean(errors["sum"])),
            }
        )
    return rows


def compute_significant_only(runner: ExperimentRunner) -> list[dict]:
    """Speedup gained by dropping insignificant barrierpoints."""
    rows = []
    for name in runner.benchmarks:
        for nt in CORE_COUNTS:
            sel = runner.selection(name, nt)
            all_points = speedup_report(sel)
            significant = speedup_report(sel, significant_only=True)
            rows.append(
                {
                    "benchmark": name,
                    "cores": nt,
                    "dropped": len(sel.insignificant_points),
                    "coverage_pct": 100.0
                    * sel.coverage_of(sel.significant_points),
                    "serial_all": all_points.serial_speedup,
                    "serial_significant": significant.serial_speedup,
                }
            )
    return rows


def render(thread_rows: list[dict], sig_rows: list[dict]) -> str:
    """Both ablation tables."""
    t1 = format_table(
        ["benchmark", "concat SV error %", "summed SV error %"],
        [
            [r["benchmark"], f"{r['concat_error']:.2f}",
             f"{r['sum_error']:.2f}"]
            for r in thread_rows
        ],
        title="Ablation (III-A4) — per-thread concatenation vs summation",
    )
    t2 = format_table(
        ["benchmark", "cores", "insignificant dropped", "coverage %",
         "serial speedup (all)", "serial speedup (significant only)"],
        [
            [r["benchmark"], r["cores"], r["dropped"],
             f"{r['coverage_pct']:.2f}", f"{r['serial_all']:.1f}",
             f"{r['serial_significant']:.1f}"]
            for r in sig_rows
        ],
        title="Ablation (Table III) — dropping sub-0.1% barrierpoints",
    )
    return t1 + "\n\n" + t2


def run(runner: ExperimentRunner) -> str:
    """Compute and render both ablations."""
    return render(compute_thread_combining(runner),
                  compute_significant_only(runner))
