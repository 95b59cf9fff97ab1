"""Tests for the ``repro`` CLI and the battery driver.

Includes the PR's acceptance property: the ``--quick`` battery with 4
workers is byte-identical to the serial run, and a second invocation over
a warm store is at least 5x faster.
"""

from __future__ import annotations

import argparse
import time

import pytest

from repro import cli
from repro.experiments import battery
from repro.experiments.common import ExperimentRunner
from repro.store import ArtifactStore


def quick_runner(store_dir, workers=0):
    """The runner ``python -m repro.experiments --quick`` constructs."""
    parser = argparse.ArgumentParser()
    battery.add_runner_options(parser)
    args = parser.parse_args(["--quick", "--workers", str(workers)])
    runner = battery.runner_from_args(args)
    assert runner.scale == battery.QUICK_SCALE
    runner.store = ArtifactStore(root=store_dir)
    return runner


def test_quick_battery_parallel_identity_and_store_speedup(tmp_path):
    """Acceptance: 4-worker == serial byte-for-byte; warm rerun >= 5x."""
    t0 = time.perf_counter()
    serial = battery.run_experiments(quick_runner(tmp_path / "serial"))
    serial_seconds = time.perf_counter() - t0

    parallel = battery.run_experiments(quick_runner(tmp_path / "par", 4))
    assert parallel == serial  # byte-identical figure outputs

    t0 = time.perf_counter()
    rerun = battery.run_experiments(quick_runner(tmp_path / "par"))
    rerun_seconds = time.perf_counter() - t0
    assert rerun == serial
    assert serial_seconds >= 5 * rerun_seconds, (
        f"store-hit rerun took {rerun_seconds:.2f}s vs "
        f"{serial_seconds:.2f}s cold"
    )


def test_figure_store_invalidates_per_module(tmp_path, monkeypatch):
    """A figure-only change recomputes exactly that figure."""
    runner = quick_runner(tmp_path)
    runner.benchmarks = ("npb-is",)
    names = ["fig1", "table3"]
    battery.run_experiments(runner, names)

    fresh = quick_runner(tmp_path)
    fresh.benchmarks = ("npb-is",)
    seen: list[tuple[str, bool]] = []
    monkeypatch.setattr(
        battery, "module_fingerprint",
        lambda mod: "edited" if mod is battery.EXPERIMENTS["table3"]
        else "unchanged",
    )
    battery.run_experiments(
        fresh, names,
        on_result=lambda name, out, sec, cached: seen.append((name, cached)),
    )
    assert dict(seen) == {"fig1": False, "table3": False}

    # Without the edit, both come from the store.
    monkeypatch.undo()
    seen.clear()
    again = quick_runner(tmp_path)
    again.benchmarks = ("npb-is",)
    battery.run_experiments(
        again, names,
        on_result=lambda name, out, sec, cached: seen.append((name, cached)),
    )
    assert dict(seen) == {"fig1": True, "table3": True}


def test_cli_run_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    assert cli.main(["run", "--quick", "--only", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Fig. 1" in out and "(computed)" in out
    # Second run serves the figure from the store.
    assert cli.main(["run", "--quick", "--only", "fig1"]) == 0
    assert "(store)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--quick", "--only", "fig2"], "unknown experiments"),
        (["--quick", "--machines", "bogus"], "unknown machines"),
    ],
)
def test_experiments_module_is_repro_run(argv, message, monkeypatch, capsys):
    """``python -m repro.experiments`` is ``repro run``: bad options are
    usage errors (exit 2), not tracebacks."""
    import runpy

    monkeypatch.setattr("sys.argv", ["python -m repro.experiments", *argv])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("repro.experiments", run_name="__main__")
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_figures_writes_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    out_dir = tmp_path / "artifacts"
    assert cli.main([
        "figures", "--quick", "--only", "fig1,table3", "--out", str(out_dir),
    ]) == 0
    fig1 = (out_dir / "fig1.txt").read_text()
    assert "Fig. 1" in fig1 and fig1.endswith("\n")
    assert "Table III" in (out_dir / "table3.txt").read_text()


def test_cli_no_store_bypasses_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    parser = argparse.ArgumentParser()
    battery.add_runner_options(parser)
    runner = battery.runner_from_args(
        parser.parse_args(["--quick", "--no-store"])
    )
    assert runner.store is None


def test_cli_clean(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    store = ArtifactStore()
    store.put("demo", store.derive_key(x=1), "payload")

    assert cli.main(["clean", "--dry-run"]) == 0
    assert "bytes" in capsys.readouterr().out
    assert store.size_bytes() > 0

    assert cli.main(["clean"]) == 0
    assert store.size_bytes() == 0


def test_cli_bench_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit):
        cli.main(["bench", "not-a-target"])
    err = capsys.readouterr().err
    assert "unknown bench targets" in err


BENCH_ENV = (
    "REPRO_BENCH_SCALE",
    "REPRO_BENCH_WORKLOADS",
    "REPRO_BENCH_MIN_SPEEDUP",
    "REPRO_BENCH_REPEAT",
)


@pytest.fixture
def bench_sandbox(monkeypatch):
    """Run ``repro bench`` against a stubbed pytest from the repo root.

    Clears the harness env knobs first (monkeypatch restores the caller's
    values afterwards, including any that ``cmd_bench`` itself sets) and
    records the pytest invocation plus the env it would have seen.
    """
    import os
    import pathlib

    import pytest as pytest_module

    repo_root = pathlib.Path(cli.__file__).resolve().parents[2]
    monkeypatch.chdir(repo_root)
    for name in BENCH_ENV:
        # setenv-then-delenv (not bare delenv) so monkeypatch records an
        # undo even for initially-absent variables: whatever cmd_bench
        # writes into os.environ is rolled back after the test.
        monkeypatch.setenv(name, "sentinel")
        monkeypatch.delenv(name)
    calls: list[dict] = []
    monkeypatch.setattr(
        pytest_module, "main",
        lambda args, plugins=(): calls.append(
            {"args": args,
             "env": {n: os.environ.get(n) for n in BENCH_ENV}}
        ) or 0,
    )
    return calls


def test_bench_unset_flags_do_not_leak_into_env(bench_sandbox):
    """Satellite acceptance: omitted optional flags must leave the child
    environment untouched — no literal "None" strings."""
    assert cli.main(["bench", "perf"]) == 0
    (call,) = bench_sandbox
    assert call["env"] == {name: None for name in BENCH_ENV}
    assert call["args"] == ["benchmarks/test_perf.py", "-x", "-q"]


def test_bench_flags_round_trip_to_env(bench_sandbox):
    assert cli.main([
        "bench", "--scale", "0.1", "--workloads", "npb-is,npb-cg",
        "--min-speedup", "1.5", "--repeat", "3", "perf", "fig1",
    ]) == 0
    (call,) = bench_sandbox
    assert call["env"] == {
        "REPRO_BENCH_SCALE": "0.1",
        "REPRO_BENCH_WORKLOADS": "npb-is,npb-cg",
        "REPRO_BENCH_MIN_SPEEDUP": "1.5",
        "REPRO_BENCH_REPEAT": "3",
    }
    assert "None" not in "".join(v for v in call["env"].values())
    assert call["args"] == [
        "benchmarks/test_perf.py", "benchmarks/test_fig1.py", "-x", "-q",
    ]


def test_bench_workloads_subset_only(bench_sandbox):
    """A ``--workloads`` subset must round-trip without dragging the other
    unset knobs along."""
    assert cli.main(["bench", "--workloads", "npb-is", "fig1"]) == 0
    (call,) = bench_sandbox
    assert call["env"]["REPRO_BENCH_WORKLOADS"] == "npb-is"
    for name in BENCH_ENV:
        if name != "REPRO_BENCH_WORKLOADS":
            assert call["env"][name] is None


def test_bench_default_targets_whole_directory(bench_sandbox):
    assert cli.main(["bench"]) == 0
    (call,) = bench_sandbox
    assert call["args"] == ["benchmarks", "-x", "-q"]


def test_only_repro_bench_writes_the_perf_report(tmp_path):
    """A plain pytest session over the perf benchmark prints and checks
    its numbers but writes no ``BENCH_perf*.json``; ``repro bench perf``
    on the same checkout writes the report."""
    import os
    import pathlib
    import shutil
    import subprocess
    import sys

    repo_root = pathlib.Path(cli.__file__).resolve().parents[2]
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    for name in ("conftest.py", "test_perf.py"):
        shutil.copy(repo_root / "benchmarks" / name, bench_dir / name)
    env = {
        **os.environ,
        "PYTHONPATH": str(repo_root / "src"),
        "REPRO_STORE": "0",
        "REPRO_BENCH_SCALE": "0.05",
        "REPRO_BENCH_WORKLOADS": "npb-is",
        "REPRO_BENCH_MIN_SPEEDUP": "0",
        "REPRO_BENCH_REPEAT": "1",
    }
    plain = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "benchmarks/test_perf.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert plain.returncode == 0, plain.stdout + plain.stderr
    assert "combined profile+full_run speedup" in plain.stdout
    assert not (bench_dir / "results").exists()
    bench = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "perf"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert bench.returncode == 0, bench.stdout + bench.stderr
    written = sorted(p.name for p in (bench_dir / "results").iterdir())
    assert written == ["BENCH_perf_scale-0.05.json"]


# ---------------------------------------------------------------------------
# CLI sweep: --help and exit codes for every subcommand
# ---------------------------------------------------------------------------

HELP_INVOCATIONS = (
    [],
    ["run"],
    ["figures"],
    ["sweep"],
    ["machines"],
    ["bench"],
    ["clean"],
    ["trace"],
    ["trace", "record"],
    ["trace", "replay"],
    ["trace", "inspect"],
    ["trace", "fuzz"],
)


@pytest.mark.parametrize(
    "argv", HELP_INVOCATIONS, ids=[" ".join(a) or "root" for a in HELP_INVOCATIONS]
)
def test_help_smoke_every_subcommand(argv, capsys):
    """``--help`` exits 0 and prints usage for every (sub)command."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--help"])
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        [],                              # missing command
        ["not-a-command"],
        ["trace"],                       # missing trace subcommand
        ["trace", "not-a-subcommand"],
        ["run", "--only", "figX"],
        ["sweep", "--workloads", "not-a-workload"],
        ["sweep", "--machines", "not-a-machine"],
        ["bench", "not-a-target"],
        ["trace", "fuzz"],               # missing seed
        ["trace", "record"],             # missing workload
        ["trace", "replay"],             # missing path
    ],
    ids=lambda argv: " ".join(argv) or "no-command",
)
def test_usage_errors_exit_2(argv, capsys):
    """Argparse-level misuse exits with the conventional code 2."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err


def test_machines_exit_zero(capsys):
    assert cli.main(["machines"]) == 0
    out = capsys.readouterr().out
    assert "table1-8core" in out
    # The listing carries the topology column for chiplet machines.
    assert "topology" in out
    assert "1s x 4x8" in out


def test_machines_show_dumps_resolved_spec(capsys):
    import json

    assert cli.main(["machines", "--show", "epyc-4x8"]) == 0
    spec = json.loads(capsys.readouterr().out)
    # Inheritance-flattened: base keys present, no 'base' marker left.
    assert "base" not in spec
    assert spec["core"]["frequency_ghz"] == 2.66
    assert spec["topology"]["cores_per_complex"] == [8, 8, 8, 8]
    assert spec["hierarchy"] == "complex"


def test_machines_show_unknown_name_is_clean_error(capsys):
    assert cli.main(["machines", "--show", "not-a-machine"]) == 1
    captured = capsys.readouterr()
    assert "unknown machine" in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# The trace subcommand group
# ---------------------------------------------------------------------------


@pytest.fixture
def trace_cwd(tmp_path, monkeypatch):
    """An isolated working directory with its own store."""
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_trace_record_replay_inspect_round_trip(trace_cwd, capsys):
    out = trace_cwd / "is.rpt"
    assert cli.main([
        "trace", "record", "npb-is", "--threads", "4", "--scale", "0.1",
        "--out", str(out),
    ]) == 0
    assert "recorded npb-is" in capsys.readouterr().out
    assert out.is_file()

    assert cli.main(["trace", "inspect", str(out), "--chunks"]) == 0
    text = capsys.readouterr().out
    assert "checksums verified" in text and "npb-is" in text

    assert cli.main([
        "trace", "replay", str(out), "--machine", "table1-8core", "--verify",
    ]) == 0
    text = capsys.readouterr().out
    assert "verify OK" in text and "profile digest" in text


@pytest.fixture
def fuzz_corpus(trace_cwd, capsys):
    """A default corpus in ``trace_cwd``'s store holding fuzz-1 at 2
    threads, scale 0.05."""
    assert cli.main([
        "trace", "corpus", "record", "1", "--threads", "2",
        "--scale", "0.05",
    ]) == 0
    assert "recorded fuzz-1/2t" in capsys.readouterr().out
    return trace_cwd


def test_trace_corpus_command_group(fuzz_corpus, capsys):
    from repro.core.pipeline import BarrierPointPipeline
    from repro.profiling.profiler import profiles_digest
    from repro.trace.corpus import TraceCorpus, conformance_machine
    from repro.workloads.replay import ReplayWorkload

    assert cli.main(["trace", "corpus", "list"]) == 0
    assert "fuzz-1/2t" in capsys.readouterr().out

    assert cli.main([
        "trace", "corpus", "replay", "fuzz-1/2t", "--shards", "3", "--full",
    ]) == 0
    out = capsys.readouterr().out
    assert "across 3 shard(s)" in out and "full run:" in out
    corpus = TraceCorpus(ArtifactStore())
    replay = ReplayWorkload(corpus.resolve(corpus.entries()[0]))
    try:
        pipe = BarrierPointPipeline(conformance_machine(2, "inclusive"))
        digest = profiles_digest(pipe.profile(replay))
    finally:
        replay.close()
    assert f"profile digest: {digest}" in out

    assert cli.main(["trace", "corpus", "verify"]) == 0
    assert "verify OK" in capsys.readouterr().out

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["trace", "corpus", "replay", "fuzz-1/2t", "--workers", "2"])
    assert excinfo.value.code == 2


def test_trace_corpus_verify_reports_mismatch(
    fuzz_corpus, capsys, monkeypatch
):
    """A chain profile digest that differs exits 1 with VERIFY FAILED
    and a MISMATCH row for every backend of that entry only."""
    from repro.mem.backends import backend_names
    from tests.conftest import break_chain_profiles

    assert cli.main([
        "trace", "corpus", "record", "2", "--threads", "2",
        "--scale", "0.05",
    ]) == 0
    capsys.readouterr()
    break_chain_profiles(monkeypatch, "fuzz-1")
    assert cli.main(["trace", "corpus", "verify"]) == 1
    captured = capsys.readouterr()
    backends = len(backend_names())
    assert f"VERIFY FAILED: {backends} of {2 * backends} checks" in captured.err
    rows = [line for line in captured.out.splitlines()
            if line.endswith((" ok", " MISMATCH"))]
    assert len(rows) == 2 * backends
    for row in rows:
        assert row.endswith(" MISMATCH") == row.startswith("fuzz-1/2t")
    assert "verify OK" not in captured.out


def test_trace_corpus_replay_rejects_nonpositive_shards(fuzz_corpus, capsys):
    assert cli.main([
        "trace", "corpus", "replay", "fuzz-1/2t", "--shards", "-4",
    ]) == 1
    captured = capsys.readouterr()
    assert "--shards must be >= 1, got -4" in captured.err
    assert "replayed" not in captured.out


def test_trace_record_default_filename_and_store(trace_cwd, capsys):
    assert cli.main([
        "trace", "record", "npb-is", "--threads", "2", "--scale", "0.1",
        "--store",
    ]) == 0
    text = capsys.readouterr().out
    assert (trace_cwd / "npb-is-2t-0.1.rpt").is_file()
    assert "stored as" in text

    from repro.store import ArtifactStore
    from repro.trace.capture import stored_trace

    assert stored_trace(ArtifactStore(), "npb-is", 2, 0.1) is not None


def test_trace_fuzz_records_scenario(trace_cwd, capsys):
    assert cli.main([
        "trace", "fuzz", "3", "--threads", "2", "--scale", "0.1",
    ]) == 0
    text = capsys.readouterr().out
    assert "scenario fuzz-3" in text
    assert (trace_cwd / "fuzz-3-2t-0.1.rpt").is_file()


def test_trace_unknown_path_exits_one_with_message(trace_cwd, capsys):
    for sub in (["replay"], ["inspect"]):
        assert cli.main(["trace", *sub, "missing.rpt"]) == 1
        err = capsys.readouterr().err
        assert "repro: error:" in err and "cannot open trace" in err


def test_trace_version_mismatch_exits_one_with_message(trace_cwd, capsys):
    import struct

    from repro.trace.capture import FORMAT_VERSION, MAGIC

    out = trace_cwd / "small.rpt"
    assert cli.main([
        "trace", "record", "npb-is", "--threads", "2", "--scale", "0.1",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    data = bytearray(out.read_bytes())
    struct.pack_into("<H", data, len(MAGIC), FORMAT_VERSION + 1)
    bad = trace_cwd / "future.rpt"
    bad.write_bytes(bytes(data))
    for sub in ("replay", "inspect"):
        assert cli.main(["trace", sub, str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"version {FORMAT_VERSION + 1} is not supported" in err
        assert "re-record" in err


def test_trace_record_unknown_workload_exits_one(trace_cwd, capsys):
    assert cli.main(["trace", "record", "not-a-workload"]) == 1
    err = capsys.readouterr().err
    assert "unknown workload" in err and "fuzz-<seed>" in err


def test_trace_replay_machine_errors(trace_cwd, capsys):
    out = trace_cwd / "w.rpt"
    assert cli.main([
        "trace", "record", "npb-is", "--threads", "32", "--scale", "0.1",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    # An 8-core machine cannot replay a 32-thread trace: loud, actionable.
    assert cli.main([
        "trace", "replay", str(out), "--machine", "table1-8core",
    ]) == 1
    err = capsys.readouterr().err
    assert "has 8 cores" in err and "32 threads" in err
    assert "at least 32 cores" in err
    # Unregistered machine names are rejected before any simulation.
    assert cli.main([
        "trace", "replay", str(out), "--machine", "table1-2core",
    ]) == 1
    assert "unknown machine" in capsys.readouterr().err


def test_sweep_accepts_dynamic_workload_names(trace_cwd):
    """`repro sweep --workloads trace:...` passes name validation."""
    out = trace_cwd / "w8.rpt"
    assert cli.main([
        "trace", "record", "npb-is", "--threads", "8", "--scale", "0.1",
        "--out", str(out),
    ]) == 0
    parser = argparse.ArgumentParser()
    battery.add_runner_options(parser)
    runner = battery.runner_from_args(parser.parse_args(["--scale", "0.1"]))
    runner.benchmarks = (f"trace:{out}",)
    profiles = runner.profiles(f"trace:{out}", 8)
    assert len(profiles) == 11


def test_workers_default_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert ExperimentRunner(scale=0.1).workers == 3


def test_experiment_needs_covers_registry():
    assert set(battery.EXPERIMENT_NEEDS) == set(battery.EXPERIMENTS)


def test_prefetch_scoped_to_selected_experiments(tmp_path, monkeypatch):
    """``--only fig1`` must not fan out the expensive passes at all."""
    runner = quick_runner(tmp_path)
    runner.workers = 4
    calls: list[tuple] = []
    monkeypatch.setattr(
        type(runner), "prefetch",
        lambda self, pairs=None, kinds=("profiles", "full"):
        calls.append((pairs, kinds)) or 0,
    )
    battery.run_experiments(runner, ["fig1"])
    assert calls == []  # fig1 needs neither profiles nor full runs
    battery.run_experiments(runner, ["table3"])
    # Selection-only figure: profiles and the combine sweep, no full run.
    assert calls == [(None, ("profiles", "sweep:combine"))]


def test_fixed_pair_figure_is_prefetched(tmp_path, monkeypatch):
    """Fig. 3 reads npb-ft/32 whatever the suite; the fan-out covers it."""
    runner = quick_runner(tmp_path, workers=2)
    runner.benchmarks = ("npb-is",)
    calls: list[tuple] = []
    monkeypatch.setattr(
        type(runner), "prefetch",
        lambda self, pairs=None, kinds=("profiles", "full"):
        calls.append((pairs, kinds)) or 0,
    )
    battery.run_experiments(runner, ["fig3", "table3"])
    [(pairs, _)] = calls
    assert pairs == {
        ("npb-ft", 32): ("full", "profiles", "sweep:combine"),
        ("npb-is", 8): ("profiles", "sweep:combine"),
        ("npb-is", 32): ("profiles", "sweep:combine"),
    }


def test_parent_computes_nothing_after_fanout(tmp_path, monkeypatch):
    """With a pool, rendering only reconstructs and formats.

    Once the fan-out returns, the parent may not profile, run a full
    simulation, fit k-means or replay a warmup; the output still equals
    the serial run's byte for byte.
    """
    from repro.clustering import simpoint
    from repro.core.pipeline import BarrierPointPipeline
    from repro.sim.warmup import MRUWarmup

    names = ["fig3", "fig5", "fig7", "table3", "ablations"]
    serial = quick_runner(tmp_path / "serial")
    serial.benchmarks = ("npb-is",)
    expected = battery.run_experiments(serial, names)

    def forbidden(what):
        def _call(*args, **kwargs):
            raise AssertionError(f"parent called {what} after the fan-out")
        return _call

    fanned_out = []
    prefetch = ExperimentRunner.prefetch

    def guarded_prefetch(self, *args, **kwargs):
        # The pool's workers have exited when prefetch returns, so the
        # guard reaches the parent only.
        computed = prefetch(self, *args, **kwargs)
        for owner, attr in (
            (BarrierPointPipeline, "profile"),
            (BarrierPointPipeline, "full_run"),
            (simpoint, "weighted_kmeans"),
            (MRUWarmup, "prepare"),
        ):
            monkeypatch.setattr(owner, attr, forbidden(attr))
        fanned_out.append(computed)
        return computed

    monkeypatch.setattr(ExperimentRunner, "prefetch", guarded_prefetch)
    parallel = quick_runner(tmp_path / "parallel", workers=2)
    parallel.benchmarks = ("npb-is",)
    assert battery.run_experiments(parallel, names) == expected
    assert fanned_out and fanned_out[0] > 0


class TestFaultToleranceCLI:
    """Exit-code contract and recovery flags of the hardened CLI."""

    @pytest.fixture(autouse=True)
    def clean_fault_plan(self):
        """``--faults`` installs a global plan; never leak it."""
        from repro.faults import uninstall_plan

        yield
        uninstall_plan()

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        """Ctrl-C exits 130 with a one-line message, no traceback."""

        def _interrupt(args, parser):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli.COMMANDS, "machines", _interrupt)
        assert cli.main(["machines"]) == 130
        captured = capsys.readouterr()
        assert captured.err == "repro: interrupted\n"
        assert "Traceback" not in captured.err

    def test_retry_exhaustion_maps_to_error_exit_one(
        self, tmp_path, monkeypatch, capsys
    ):
        """A task that exhausts its retries is a clean CLI error."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        code = cli.main([
            "run", "--quick", "--only", "table3", "--workers", "2",
            "--faults", "runner.task:exception:max_attempts=99",
            "--max-retries", "0",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("repro: error: gave up on")
        assert "Traceback" not in captured.err

    def test_resume_finishes_a_partially_failed_run(
        self, tmp_path, monkeypatch, capsys
    ):
        """Failed run (32t passes fault) + ``--resume`` rerun completes,
        skipping the checkpointed 8t passes."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        assert cli.main([
            "run", "--quick", "--only", "table3", "--workers", "2",
            "--faults", "runner.task:exception:max_attempts=99,match=32t",
            "--max-retries", "0",
        ]) == 1
        capsys.readouterr()

        from repro.faults import uninstall_plan

        uninstall_plan()
        assert cli.main([
            "run", "--quick", "--only", "table3", "--workers", "2",
            "--resume",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "run report:" in out and " resumed" in out

    def test_clean_gc_sweeps_instead_of_deleting(
        self, tmp_path, monkeypatch, capsys
    ):
        """``repro clean --gc`` evicts by quota but keeps the store dir."""
        import os
        import time

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        store = ArtifactStore()
        for i in range(3):
            store.put("demo", store.derive_key(i=i), "x" * 500)
        orphan = store.root / "demo" / "dead.tmp"
        orphan.write_bytes(b"junk")
        stamp = time.time() - 7200
        os.utime(orphan, (stamp, stamp))

        assert cli.main([
            "clean", "--gc", "--max-bytes", "0", "--tmp-grace", "1h",
        ]) == 0
        out = capsys.readouterr().out
        assert "removed 1 orphan temp file(s)" in out
        assert "3 evicted" in out
        assert store.size_bytes() == 0

    def test_clean_gc_flags_require_gc(self, capsys):
        """TTL/quota flags without --gc are a usage error (exit 2)."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["clean", "--ttl", "1h"])
        assert excinfo.value.code == 2
        assert "need --gc" in capsys.readouterr().err
