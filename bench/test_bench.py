"""Self-test of the benchmark harness at the smoke size (scale <= 0.1).

Runs ``bench/run.py --smoke`` as a subprocess, the way the command in
``BENCHMARK.json`` is run, and checks its output: the JSON shape, that
every printed metric is declared in ``BENCHMARK.json``, that the traced
run's output digest equals the untraced one (a gate inside every traced
run), that an injected and recovered task fault shows up as a fan-out
retry rather than a failure, and that a failing gate or a missing program
exits nonzero.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, *args: str, root: pathlib.Path = ROOT):
    """Run one smoke-size benchmark run; returns the finished process."""
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--workload", workload, "--root", str(root), *args],
        capture_output=True, text=True, timeout=120,
    )


def result(proc) -> dict:
    """The JSON object on the last stdout line."""
    parsed = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(parsed["attempted"], int) and parsed["attempted"] >= 1
    assert isinstance(parsed["failed"], int)
    return parsed


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit declared in BENCHMARK.json under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_end_to_end_metrics_match_declaration():
    proc = bench("battery-few-regions", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = result(proc)
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared(
        "end_to_end"
    )
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_counts_recovered_faults_as_retries():
    # Every fan-out task fails its first attempt and succeeds on retry.
    proc = bench("corpus-verify", "--trace", "1",
                 "--faults", "runner.task:exception")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = result(proc)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared(
        "per_layer"
    )
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["experiments.fanout.retries"] == metrics[
        "experiments.fanout.tasks"
    ] > 0
    assert out["correct"] and out["failed"] == 0


def test_traced_pipeline_matches_untraced_output():
    proc = bench("pipeline-suite", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = result(proc)
    assert out["correct"], proc.stdout
    assert "traced output differs" not in proc.stdout
    assert out["metrics"]["core.mru_error_avg_pct"]["value"] > 0
    assert out["metrics"]["sim.simulate_region.calls"]["value"] > 0


def test_failing_gate_exits_nonzero():
    # A fault that outlasts the retry budget fails every conformance check.
    proc = bench("corpus-verify", "--trace", "0",
                 "--faults", "runner.task:exception:max_attempts=9")
    assert proc.returncode == 1
    out = result(proc)
    assert not out["correct"] and out["failed"] == out["attempted"]
    assert "gate failed" in proc.stdout


def test_missing_program_exits_nonzero_without_result(tmp_path):
    proc = bench("pipeline-suite", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
