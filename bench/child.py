"""One benchmark iteration in a fresh interpreter: set up, run, check.

``run.py`` starts this file once per sample as
``python bench/child.py '<json config>'`` with ``PYTHONPATH`` pointing at
the measured checkout's ``src``.  The child imports the program, builds the
workload (the set-up), runs the timed section once, checks what it
produced, and prints one JSON result as its last stdout line.  Config keys:

* ``workload`` / ``smoke``: which entry of :data:`WORKLOADS` to run, and
  whether to shrink it to the self-test size (:data:`SMOKE`);
* ``mode``: ``cold`` (set up, time, check), ``warm`` (the same against a
  store a cold child filled) or ``probe`` (set up only);
* ``spawn``: the parent's ``time.time()`` just before starting the child,
  so ``setup_s`` covers interpreter start-up, imports and construction;
* ``store``: artifact-store directory of this sample;
* ``spans``: span directory when the timed section is traced, else null;
* ``root``: checkout root (for the committed goldens).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import resource
import sys
import time
import traceback

#: Worker processes of the fan-out workloads (the measured host has 2
#: cores).
WORKERS = 2

#: Scale of the committed goldens under ``benchmarks/results/`` (the
#: figure benchmarks' default ``REPRO_BENCH_SCALE``).
GOLDEN_SCALE = 0.5

#: The benchmark's workloads.  Region count, not scale, sets the cost of
#: the many-region benchmarks (npb-sp profiles in 8-10 s at every scale
#: from 0.1 to 0.5 and clusters slower below 0.5; ``scale_sweep`` in
#: ``baseline.json``), so the run-time cap is met by choosing benchmarks,
#: and the paper workloads stay at the goldens' scale so their results can
#: be checked.
#: Samples are kept to a few seconds so a run holds several of them and
#: its median rides out the host's slow spells.
WORKLOADS = {
    # 503 small regions: trace generation and the 56-sweep clustering
    # battery dominate; warmup and the hierarchy loop are light.
    "battery-many-regions": {
        "kind": "battery", "benchmarks": ("npb-lu",), "scale": 0.5,
    },
    # 34 large regions: the hierarchy loop, MRU warmup capture and replay
    # dominate; trace generation is light.
    "battery-few-regions": {
        "kind": "battery", "benchmarks": ("npb-ft",), "scale": 0.5,
    },
    # The library user path, serial, no store and no fan-out: one
    # clustering fit per pair, so generation, the hierarchy loop and
    # warmup dominate.
    "pipeline-suite": {
        "kind": "pipeline",
        "benchmarks": ("parsec-bodytrack", "npb-cg", "npb-is"),
        "scale": 0.5,
    },
    # Replay of recorded .rpt traces on all four hierarchy backends, plus
    # the shard split-and-merge path; no clustering and no store writes.
    # The fuzz seeds are fixed: per-seed cost varies 20x (0.09-1.77 s), so
    # a seed-dependent corpus would measure the seed, not the program.
    "corpus-verify": {
        "kind": "corpus", "seeds": (1, 2, 3, 4), "threads": 8,
        "scale": 0.25, "shards": 3,
    },
}

#: ``--smoke`` overrides: the self-test's size (scale <= 0.1, one
#: benchmark or fuzz seed per workload).
SMOKE = {
    "battery-many-regions": {"benchmarks": ("parsec-bodytrack",),
                             "scale": 0.05},
    "battery-few-regions": {"benchmarks": ("npb-is",), "scale": 0.05},
    "pipeline-suite": {"benchmarks": ("npb-ft",), "scale": 0.05},
    "corpus-verify": {"seeds": (7,), "scale": 0.05},
}


def workload_spec(name: str, smoke: bool) -> dict:
    """The configuration of workload ``name`` (shrunk under ``smoke``)."""
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(SMOKE[name])
    return spec


def _digest(payload) -> str:
    """Digest of a JSON-able value (exact in every float)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _golden_mru_errors(root: str) -> dict[tuple[str, int], str]:
    """``(benchmark, cores) -> printed MRU error`` from the committed Fig. 7."""
    rows = {}
    path = pathlib.Path(root) / "benchmarks" / "results" / "fig7.txt"
    for line in path.read_text().splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[1].isdigit():
            rows[(parts[0], int(parts[1]))] = parts[2]
    return rows


def _accuracy(rows: list[tuple], spec: dict, root: str) -> tuple[dict, list]:
    """Accuracy metrics and golden mismatches over ``(name, cores, ...)`` rows.

    Each row is ``(name, cores, mru_result, perfect_error_pct, speedup)``:
    the MRU-warmup :class:`~repro.core.pipeline.PipelineResult`, the
    perfect-warmup error and the Fig. 9 speedup report.

    Returns:
        ``(metrics, mismatches)``; mismatches list every pair whose MRU
        error differs from the committed Fig. 7 at its printed precision
        (checked only at the goldens' scale).
    """
    mru = [row[2].runtime_error_pct for row in rows]
    # Pooled Fig. 9 serial speedup: all instructions over all simulated
    # (barrierpoint plus warmup-replay) instruction-equivalents.
    total = sum(row[2].selection.total_instructions for row in rows)
    sampled = sum(row[2].selection.total_instructions / row[4].serial_speedup
                  for row in rows)
    metrics = {
        "core.mru_error_avg_pct": sum(mru) / len(mru),
        "core.selection_error_avg_pct": sum(r[3] for r in rows) / len(rows),
        "core.sampled_speedup_x": total / sampled,
    }
    mismatches = []
    if spec["scale"] == GOLDEN_SCALE:
        golden = _golden_mru_errors(root)
        for (name, cores, *_), error in zip(rows, mru):
            if golden.get((name, cores)) != f"{error:.2f}":
                mismatches.append(
                    f"{name}/{cores}c MRU error {error:.2f} != golden "
                    f"{golden.get((name, cores))}"
                )
    return metrics, mismatches


class Battery:
    """The figure battery on a fresh (cold) or filled (warm) store."""

    def __init__(self, spec: dict, cfg: dict) -> None:
        from repro.experiments import battery
        from repro.experiments.common import ExperimentRunner
        from repro.store import ArtifactStore

        self.spec = spec
        self.battery = battery
        self.names = list(battery.DEFAULT_BATTERY)
        self.runner = ExperimentRunner(
            scale=spec["scale"], benchmarks=spec["benchmarks"],
            workers=WORKERS, store=ArtifactStore(root=cfg["store"]),
        )

    def run(self) -> dict:
        outputs: dict[str, str] = {}

        def collect(name, output, seconds, cached):
            outputs[name] = output

        self.error = None
        try:
            self.battery.run_experiments(self.runner, self.names, collect)
        except Exception:  # reported as failed figures, not a crash
            self.error = traceback.format_exc(limit=3)
        return outputs

    def check(self, outputs: dict, root: str, accuracy: bool) -> dict:
        result = {
            "attempted": len(self.names),
            "failed": len(self.names) - len(outputs),
            "digest": _digest(outputs),
            "errors": [self.error] if self.error else [],
        }
        if accuracy and not self.error:
            from repro.core.speedup import speedup_report
            from repro.experiments.common import CORE_COUNTS

            runner = self.runner
            rows = []
            for name in self.spec["benchmarks"]:
                for nt in CORE_COUNTS:
                    mru = runner.evaluate_warmup(name, nt)
                    rows.append((
                        name, nt, mru,
                        runner.evaluate_perfect(name, nt).runtime_error_pct,
                        speedup_report(runner.selection(name, nt),
                                       warmup_lines=mru.warmup_lines),
                    ))
            result["accuracy"], result["mismatches"] = _accuracy(
                rows, self.spec, root
            )
        return result


class PipelineSuite:
    """``BarrierPointPipeline(...).run(workload)`` per (benchmark, cores).

    The stages of ``run`` are called one by one (select, full run,
    warmed simulation) so the reference run stays available for the
    perfect-warmup error; the work is exactly ``run``'s.
    """

    def __init__(self, spec: dict, cfg: dict) -> None:
        from repro.core.pipeline import BarrierPointPipeline
        from repro.experiments.common import CORE_COUNTS, experiment_machine
        from repro.workloads import get_workload

        self.spec = spec
        self.pairs = [
            (name, nt, BarrierPointPipeline(experiment_machine(nt)),
             get_workload(name, nt, spec["scale"]))
            for name in spec["benchmarks"]
            for nt in CORE_COUNTS
        ]

    def run(self) -> dict:
        self.errors = []
        results = {}
        for name, nt, pipe, workload in self.pairs:
            try:
                selection = pipe.select(workload)
                full = pipe.full_run(workload)
                results[(name, nt)] = (
                    pipe.evaluate_with_warmup(selection, workload, full),
                    full, pipe,
                )
            except Exception:  # reported as a failed pair, not a crash
                self.errors.append(traceback.format_exc(limit=3))
        return results

    def check(self, results: dict, root: str, accuracy: bool) -> dict:
        from repro.core.speedup import speedup_report

        result = {
            "attempted": len(self.pairs),
            "failed": len(self.pairs) - len(results),
            "digest": _digest([
                [name, nt, r.runtime_error_pct, r.apki_difference,
                 list(r.selection.selected_regions)]
                for (name, nt), (r, _, _) in results.items()
            ]),
            "errors": self.errors,
        }
        if accuracy and not self.errors:
            rows = [
                (name, nt, r,
                 pipe.evaluate_perfect(r.selection, full).runtime_error_pct,
                 speedup_report(r.selection, warmup_lines=r.warmup_lines))
                for (name, nt), (r, full, pipe) in results.items()
            ]
            result["accuracy"], result["mismatches"] = _accuracy(
                rows, self.spec, root
            )
        return result


class CorpusVerify:
    """``TraceCorpus.verify`` over fuzz scenarios recorded during set-up."""

    def __init__(self, spec: dict, cfg: dict) -> None:
        from repro.mem.backends import backend_names
        from repro.store import ArtifactStore
        from repro.trace.corpus import TraceCorpus

        self.spec = spec
        self.checks = len(spec["seeds"]) * len(backend_names())
        self.corpus = TraceCorpus(ArtifactStore(root=cfg["store"]), "bench")
        self.corpus.record_fuzz_range(
            spec["seeds"], spec["threads"], spec["scale"]
        )

    def run(self) -> list:
        self.error = None
        try:
            return self.corpus.verify(
                num_shards=self.spec["shards"], workers=WORKERS
            )
        except Exception:  # reported as failed checks, not a crash
            self.error = traceback.format_exc(limit=3)
            return []

    def check(self, verdicts: list, root: str, accuracy: bool) -> dict:
        bad = [v["label"] + "@" + v["backend"] for v in verdicts
               if not v["ok"]]
        return {
            "attempted": self.checks,
            "failed": self.checks - len(verdicts) + len(bad),
            "digest": _digest(verdicts),
            "errors": ([self.error] if self.error else [])
            + [f"conformance check failed: {label}" for label in bad],
        }


KINDS = {"battery": Battery, "pipeline": PipelineSuite, "corpus": CorpusVerify}


def main(argv: list[str]) -> int:
    """Run one sample and print its JSON result as the last stdout line."""
    cfg = json.loads(argv[1])
    spec = workload_spec(cfg["workload"], cfg["smoke"])
    job = KINDS[spec["kind"]](spec, cfg)
    result = {"setup_s": time.time() - cfg["spawn"]}
    if cfg["mode"] != "probe":
        recorder = None
        if cfg["spans"]:
            sys.path.insert(0, str(pathlib.Path(__file__).parent))
            import spans

            recorder = spans.install(cfg["spans"], cfg["workload"])
        start = time.perf_counter()
        output = job.run()
        result["wall_s"] = time.perf_counter() - start
        result["rss_mb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024.0
        if recorder is not None:
            # Spans recorded after this flush (the checks) are dropped.
            recorder.flush()
        result.update(job.check(output, cfg["root"], cfg["mode"] == "cold"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
