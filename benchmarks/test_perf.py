"""Perf benchmark: fast engines vs the seed reference implementations.

For every workload in the suite this times, on identical inputs,

* the functional profiling pass (chunked exact-LDV engine vs the seed
  bucketed-cascade stacks),
* the full detailed simulation (dict-LRU inlined hierarchy vs the seed
  list-scan hierarchy), and
* barrierpoint warmup + replay (batched MRU capture/replay vs the seed
  per-line path),

asserting along the way that both sides produce *identical* results —
histograms, cycles, counters — so the speedup is never bought with
accuracy.  The aggregate profile+full-run speedup must clear
``REPRO_BENCH_MIN_SPEEDUP`` (default 3x).  Runs started by ``repro bench``
refresh the perf trajectory in ``benchmarks/results/BENCH_perf.json``; a
plain ``pytest`` session prints and checks the same numbers but writes
nothing.

Scale/workload knobs are inherited from ``conftest.py``; see
``EXPERIMENTS.md`` for how to read the report.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pytest

from repro._reference import (
    ReferenceFunctionalProfiler,
    ReferenceMemoryHierarchy,
)
from repro.experiments.common import experiment_machine
from repro.profiling.profiler import FunctionalProfiler
from repro.sim.machine import Machine
from repro.sim.warmup import MRUWarmup
from repro.util.timing import BenchmarkReport, ReportWriter, time_call

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
NUM_THREADS = 8
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
#: Best-of-N timing to damp scheduler/turbo noise.
REPEAT = int(os.environ.get("REPRO_BENCH_REPEAT", "2"))


def _time_pair(fast, reference):
    """Best-of-``REPEAT`` timings of a fast and a reference callable.

    The repetitions alternate reference, fast, reference, fast, ..., as
    ``bench/compare.py`` alternates its runs: host drift then lands on
    both sides, and no two repetitions of one side run back to back, so
    one slow stretch of the host cannot spoil all of a side's timings.

    Returns:
        The ``(fast, reference)`` pair of best
        :class:`~repro.util.timing.TimedResult` values.
    """
    best: dict = {}
    for _ in range(max(1, REPEAT)):
        for fn in (reference, fast):
            timed = time_call(fn)
            if fn not in best or timed.seconds < best[fn].seconds:
                best[fn] = timed
    return best[fast], best[reference]


def _assert_profiles_identical(fast, reference):
    assert len(fast) == len(reference)
    for a, b in zip(fast, reference):
        assert a.region_index == b.region_index
        assert np.array_equal(a.bbv, b.bbv)
        assert np.array_equal(a.ldv, b.ldv), (
            f"LDV mismatch in region {a.region_index}"
        )


def _assert_metrics_identical(fast, reference):
    assert fast.cycles == reference.cycles
    assert fast.per_thread_cycles == reference.per_thread_cycles
    fc, rc = fast.counters, reference.counters
    for attr in (
        "loads", "stores", "l1d_misses", "l2_misses", "l3_misses",
        "cache_to_cache", "writebacks", "l1i_misses",
        "dram_reads_per_socket", "dram_writebacks_per_socket",
    ):
        assert getattr(fc, attr) == getattr(rc, attr), attr


@pytest.fixture(scope="module")
def report(runner, request):
    rep = BenchmarkReport(scale=runner.scale)
    yield rep
    # Only `repro bench` (which registers a ReportWriter) writes a report
    # file; a plain pytest session checks the floor and writes nothing.
    # The canonical scale-0.5 full-suite run refreshes the committed
    # trajectory file; smoke runs (CI at scale 0.1, workload subsets)
    # write a side file so they never clobber the baseline.
    from repro.workloads import WORKLOAD_NAMES

    if ReportWriter.registered(request.config):
        canonical = (
            runner.scale == 0.5 and tuple(runner.benchmarks) == WORKLOAD_NAMES
        )
        name = (
            "BENCH_perf.json" if canonical
            else f"BENCH_perf_scale-{runner.scale:g}.json"
        )
        payload = rep.write(RESULTS_DIR / name)
    else:
        payload = rep.to_dict()
    combined = payload["combined"]["profile+full_run"]
    print(f"\ncombined profile+full_run speedup: {combined:.2f}x "
          f"(floor {MIN_SPEEDUP}x)")
    assert combined >= MIN_SPEEDUP, (
        f"hot-path engine regressed: combined profile+full-run speedup "
        f"{combined:.2f}x is below the {MIN_SPEEDUP}x floor"
    )


def test_perf_all_workloads(runner, report):
    """Time and parity-check every phase on every suite workload.

    The fast side runs the system as shipped (memoized traces, steady
    state); the reference side runs the *seed* system faithfully, which
    regenerated every region trace on every pass.  Identical generator
    seeds guarantee both sides still see identical streams, which the
    parity assertions check result-by-result.
    """
    config = experiment_machine(NUM_THREADS)
    from repro.workloads import get_workload

    for name in runner.benchmarks:
        workload = runner.workload(name, NUM_THREADS)
        ref_workload = get_workload(name, NUM_THREADS, runner.scale)
        ref_workload.disable_trace_cache()
        # Warm the fast side's trace cache so its timings are steady-state.
        for _ in workload.iter_regions():
            pass

        # -- profiling pass ------------------------------------------------
        fast_prof, ref_prof = _time_pair(
            lambda: FunctionalProfiler(workload).profile(),
            lambda: ReferenceFunctionalProfiler(ref_workload).profile(),
        )
        _assert_profiles_identical(fast_prof.value, ref_prof.value)
        report.add(name, "profile", fast_prof.seconds, ref_prof.seconds)

        # -- full detailed simulation -------------------------------------
        fast_full, ref_full = _time_pair(
            lambda: Machine(config).run_full(workload),
            lambda: Machine(
                config, hierarchy_factory=ReferenceMemoryHierarchy
            ).run_full(ref_workload),
        )
        for fr, rr in zip(fast_full.value.regions, ref_full.value.regions):
            _assert_metrics_identical(fr, rr)
        report.add(name, "full_run", fast_full.seconds, ref_full.seconds)

        # -- barrierpoint warmup capture + replay -------------------------
        mid = workload.num_regions // 2
        capacity = config.l3.num_lines

        def _fast_replay():
            data = FunctionalProfiler(workload).capture_warmup(
                {mid}, capacity
            )[mid]
            machine = Machine(config)
            return machine.simulate_barrierpoint(
                workload, mid, MRUWarmup(data)
            )

        def _ref_replay():
            data = ReferenceFunctionalProfiler(ref_workload).capture_warmup(
                {mid}, capacity
            )[mid]
            machine = Machine(
                config, hierarchy_factory=ReferenceMemoryHierarchy
            )
            return machine.simulate_barrierpoint(
                ref_workload, mid, MRUWarmup(data)
            )

        fast_rep, ref_rep = _time_pair(_fast_replay, _ref_replay)
        _assert_metrics_identical(fast_rep.value, ref_rep.value)
        report.add(name, "barrierpoint_replay",
                   fast_rep.seconds, ref_rep.seconds)
