"""The repository benchmark: four workloads, end-to-end metrics, gates, traces.

One run of one workload (the form ``BENCHMARK.json`` declares)::

    python3 bench/run.py --workload pipeline-suite --seed 1 --seconds 20 --trace 0

measures for about ``--seconds`` seconds and prints, as its last stdout
line, ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Without ``--workload`` it runs every workload ``--repeat`` times and prints
each metric's median, quartiles and sample count; ``--trace`` then adds one
traced run per workload and ``--trace-out FILE`` keeps its spans as JSONL.

Every sample runs in a fresh interpreter (``child.py``) with every
``REPRO_*`` variable cleared and a fresh store under ``.bench_work/`` in
the measured checkout, which is deleted at the end.  The workloads are
fixed programs, so ``--seed`` changes no input; the benchmark command line
carries it, so it is accepted.  Exit status is 0 only when every
correctness gate passes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (workload table; imports no repro code)
import spans  # noqa: E402

#: The benchmark's declaration: run length and every metric's name and unit.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Set-up samples per run (timed samples count; probes top them up).
SETUP_PROBES = 7

#: Warm reruns per traced battery run (``store.warm_rerun_s`` median).
WARM_RERUNS = 3

#: Wall-clock budget of one run (a run must end within 180 s).
RUN_BUDGET_S = 170.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Run:
    """One run of one workload: samples, gates and counts.

    Args:
        root: Checkout whose ``src`` is measured.
        workload: Name in :data:`child.WORKLOADS`.
        smoke: Use the self-test size (:data:`child.SMOKE`).
        faults: ``REPRO_FAULTS`` spec handed to every child, or ``None``.
    """

    def __init__(self, root: pathlib.Path, workload: str, smoke: bool,
                 faults: str | None) -> None:
        self.root = root
        self.workload = workload
        self.smoke = smoke
        self.kind = child.workload_spec(workload, smoke)["kind"]
        self.deadline = time.monotonic() + RUN_BUDGET_S
        base = root / ".bench_work"
        base.mkdir(exist_ok=True)
        self.work = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=base))
        (self.work / "tmp").mkdir()
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(self.work / "tmp")
        if faults:
            self.env["REPRO_FAULTS"] = faults
        self.samples: list[dict] = []   # untraced cold samples
        self.setups: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.stores = 0

    def close(self) -> None:
        """Delete this run's work directory (and ``.bench_work`` if empty)."""
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def new_store(self) -> str:
        self.stores += 1
        return str(self.work / f"store-{self.stores}")

    def sample(self, mode: str, store: str, span_dir: str | None = None
               ) -> dict | None:
        """Run one child; ``None`` (and a gate failure) if it crashed."""
        cfg = {"workload": self.workload, "smoke": self.smoke, "mode": mode,
               "store": store, "spans": span_dir, "root": str(self.root)}
        cfg["spawn"] = time.time()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            env=self.env, cwd=self.work, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            out, err = "", "timed out"
        finally:
            # The child leads its own process group: reap any pool worker
            # a crash or timeout left behind.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = " | ".join(err.strip().splitlines()[-3:])
            self.problems.append(f"{mode} child failed: {tail}")
            return None
        result = json.loads(lines[-1])
        self.setups.append(result["setup_s"])
        if mode != "probe":
            self.attempted += result["attempted"]
            self.failed += result["failed"]
            self.problems += result["errors"] + result.get("mismatches", [])
        return result

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def measure(self, seconds: float) -> None:
        """Untraced cold samples for about ``seconds``, then gates.

        The battery's warm rerun runs after the timed samples, on the
        first sample's store, so it takes no time from them; like a probe,
        it adds a set-up sample.
        """
        start = time.monotonic()
        first_store = None
        while True:
            began = time.monotonic()
            store = self.new_store()
            result = self.sample("cold", store)
            if result is None:
                break
            self.samples.append(result)
            if self.kind == "battery" and first_store is None:
                first_store = store
            else:
                shutil.rmtree(store, ignore_errors=True)
            # Another sample is taken when it should end at most half a
            # sample after ``seconds``: a 10 s battery sample then gets a
            # third sample in a 30 s run rather than stopping at 20 s.
            last = time.monotonic() - began
            if time.monotonic() - start + last / 2 > seconds:
                break
        if first_store is not None:
            warm = self.sample("warm", first_store)
            if warm is not None and warm["digest"] != self.samples[0]["digest"]:
                self.problems.append(
                    "warm-rerun output differs from cold output"
                )
            shutil.rmtree(first_store, ignore_errors=True)
        probes = 1 if self.smoke else SETUP_PROBES
        while len(self.setups) < probes and self.time_left() > 30:
            if self.sample("probe", self.new_store()) is None:
                break
        digests = {s["digest"] for s in self.samples}
        if len(digests) > 1:
            self.problems.append(f"outputs differ between samples: {digests}")

    def values(self) -> dict[str, list[float]]:
        """Every sample of each end-to-end metric."""
        return {
            "wall_s": [s["wall_s"] for s in self.samples],
            "setup_s": list(self.setups),
            "peak_rss_mb": [s["rss_mb"] for s in self.samples],
        }

    def end_to_end(self) -> dict[str, float]:
        """The run's end-to-end metrics: the median of each metric's samples."""
        return {name: quartiles(v)[1] for name, v in self.values().items()}

    def traced(self, reference: dict | None, trace_out) -> dict:
        """One traced cold sample; returns the per-layer metrics.

        Args:
            reference: Untraced ``{"wall_s", "digest"}`` (median wall time)
                to charge the tracing overhead against and to compare the
                output with; ``None`` takes one untraced sample first.
            trace_out: Open text file receiving every span line, or ``None``.
        """
        if reference is None:
            reference = self.sample("cold", self.new_store())
            if reference is None:
                return {}
            self.samples.append(reference)
        span_dir = self.work / "spans"
        span_dir.mkdir()
        store = self.new_store()
        traced = self.sample("cold", store, str(span_dir))
        if traced is None:
            return {}
        if traced["digest"] != reference["digest"]:
            self.problems.append("traced output differs from untraced output")
        warm_walls = []
        if self.kind == "battery":
            for _ in range(WARM_RERUNS):
                warm = self.sample("warm", store, str(span_dir))
                if warm is None:
                    break
                warm_walls.append(warm["wall_s"])
                if warm["digest"] != traced["digest"]:
                    self.problems.append(
                        "warm-rerun output differs from cold output"
                    )
        agg, keys, lines = spans.merge(span_dir)
        if trace_out is not None:
            for line in lines:
                trace_out.write(json.dumps(
                    {"workload": self.workload, **line}) + "\n")
        metrics = spans.layer_metrics(agg, keys, PER_LAYER)
        metrics.update(traced.get("accuracy") or {
            "core.mru_error_avg_pct": 0.0,
            "core.selection_error_avg_pct": 0.0,
            "core.sampled_speedup_x": 0.0,
        })
        metrics["store.warm_rerun_s"] = (
            quartiles(warm_walls)[1] if warm_walls else 0.0
        )
        metrics["bench.tracing_overhead_frac"] = (
            traced["wall_s"] / reference["wall_s"] - 1.0
        )
        return metrics

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0


def report(name: str, unit: str, values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return (f"  {name:<38} {unit:<9} median {median:<12.6g} "
            f"q1 {q1:<12.6g} q3 {q3:<12.6g} n={len(values)}")


def single(args, root: pathlib.Path) -> int:
    """One run of one workload, JSON as the last line (BENCHMARK.json)."""
    run = Run(root, args.workload, args.smoke, args.faults)
    trace_out = open(args.trace_out, "w") if args.trace_out else None
    try:
        if args.trace:
            metrics = run.traced(None, trace_out)
            units = PER_LAYER
        else:
            run.measure(args.seconds)
            metrics = run.end_to_end() if run.samples else {}
            units = END_TO_END
            print(f"bench: {args.workload} seed={args.seed}")
            if run.samples:
                values = run.values()
                for name, unit in END_TO_END.items():
                    print(report(name, unit, values[name]))
        if run.samples:
            print(f"bench: digest {run.samples[0]['digest']}")
        for problem in run.problems:
            print(f"bench: gate failed: {problem.strip()}")
        if set(metrics) != set(units):
            print("bench: metrics missing (a child failed)")
            return 1
        print(json.dumps({
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }))
        return 0 if run.correct else 1
    finally:
        if trace_out is not None:
            trace_out.close()
        run.close()


def summary(args, root: pathlib.Path) -> int:
    """Every workload ``--repeat`` times: medians, quartiles, sample counts."""
    ok = True
    table: dict[str, dict] = {}
    trace_out = open(args.trace_out, "w") if args.trace_out else None
    try:
        for workload in child.WORKLOADS:
            runs = []
            for index in range(args.repeat):
                run = Run(root, workload, args.smoke, args.faults)
                try:
                    run.measure(args.seconds)
                finally:
                    run.close()
                ok &= run.correct
                runs.append(run)
                print(f"[{workload} run {index + 1}/{args.repeat}: "
                      f"{'ok' if run.correct else 'FAILED'}]", flush=True)
                for problem in run.problems:
                    print(f"  gate failed: {problem.strip()}")
            samples = {name: [v for r in runs for v in r.values()[name]]
                       for name in END_TO_END}
            per_run = [r.end_to_end() for r in runs if r.samples]
            table[workload] = {"samples": samples, "runs": per_run}
            print(f"{workload}: {args.repeat} run(s), "
                  f"{sum(r.failed for r in runs)} failed of "
                  f"{sum(r.attempted for r in runs)} attempted")
            for name, unit in END_TO_END.items():
                print(report(name, unit, samples[name]))
            if args.trace and samples["wall_s"]:
                run = Run(root, workload, args.smoke, args.faults)
                reference = {
                    "wall_s": quartiles(samples["wall_s"])[1],
                    "digest": next(s["digest"] for r in runs
                                   for s in r.samples),
                }
                try:
                    layers = run.traced(reference, trace_out)
                finally:
                    run.close()
                ok &= run.correct
                for problem in run.problems:
                    print(f"  gate failed: {problem.strip()}")
                table[workload]["layers"] = layers
                print(f"{workload} (traced):")
                for name, unit in PER_LAYER.items():
                    if name in layers:
                        print(f"  {name:<38} {unit:<9} {layers[name]:.6g}")
            print(flush=True)
    finally:
        if trace_out is not None:
            trace_out.close()
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps({"env": environment(root), "workloads": table},
                       indent=1, sort_keys=True) + "\n"
        )
    print("all gates passed" if ok else "GATES FAILED")
    return 0 if ok else 1


def environment(root: pathlib.Path) -> dict:
    """What a baseline was measured on."""
    probe = (
        "import json, platform, numpy\n"
        "from repro.store import code_fingerprint\n"
        "print(json.dumps({'code_fingerprint': code_fingerprint(),"
        " 'python': platform.python_version(),"
        " 'numpy': numpy.__version__}))"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    info = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    ).stdout)
    rev = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    info["git_rev"] = rev.stdout.strip() or "unknown"
    info["nproc"] = os.cpu_count()
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(child.WORKLOADS),
                        help="run one workload once (BENCHMARK.json's form)")
    parser.add_argument("--seed", type=int, default=1,
                        help="accepted and echoed; the workloads are fixed")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="how long one run takes timed samples")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer metrics from a "
                        "traced run instead of the end-to-end metrics")
    parser.add_argument("--trace-out", help="write the spans as JSONL")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload without --workload")
    parser.add_argument("--json-out",
                        help="without --workload: write every sample as JSON")
    parser.add_argument("--root", type=pathlib.Path, default=HERE.parent,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test size: scale <= 0.1, one benchmark")
    parser.add_argument("--faults", help="REPRO_FAULTS spec for every child")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {root}/src/repro is missing",
              file=sys.stderr)
        return 2
    if args.workload:
        return single(args, root)
    return summary(args, root)


if __name__ == "__main__":
    # A SIGTERM unwinds like an exception, so the running child's process
    # group is killed and reaped and the work directory is deleted.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.exit(main())
