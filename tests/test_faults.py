"""Fault-injection plan tests and the fault-matrix recovery battery.

The matrix crosses fault sites (``runner.task``, ``store.put``,
``store.get``, ``trace.read``) with the runner's recovery paths (retry
succeeds, retries exhausted, pool respawn after a worker crash, serial
fallback, checkpoint resume) and asserts the recovered results are
bit-identical to a fault-free serial baseline — the PR's acceptance
property.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import (
    ConfigError,
    InjectedFaultError,
    RetryExhaustedError,
)
from repro.experiments.common import (
    ExperimentRunner,
    RetryPolicy,
    RunReport,
    TaskReport,
)
from repro.experiments.journal import RunJournal
from repro.faults import (
    ENV_SEED,
    ENV_SPEC,
    FaultPlan,
    FaultRule,
    active_plan,
    current_task_attempt,
    install_plan,
    maybe_corrupt,
    maybe_inject,
    task_attempt,
    uninstall_plan,
)
from repro.profiling.profiler import profiles_digest
from repro.store import ArtifactStore, collect_garbage

SCALE = 0.1
BENCH = "npb-is"

#: Fast retry policy for tests: near-zero backoff, small budgets.
FAST = dict(backoff_base=0.001, backoff_max=0.01)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    """Every test starts and ends with fault injection disabled."""
    uninstall_plan()
    yield
    uninstall_plan()
    os.environ.pop(ENV_SPEC, None)
    os.environ.pop(ENV_SEED, None)


class TestFaultPlan:
    def test_parse_round_trip(self):
        """The compact spec syntax parses and re-renders losslessly."""
        spec = ("runner.task:exception:rate=0.25,max_attempts=3;"
                "store.put:io_error;"
                "store.get:latency:seconds=0.2;"
                "trace.read:partial_write:fraction=0.25,match=is")
        plan = FaultPlan.parse(spec, seed=42)
        assert len(plan.rules) == 4
        assert plan.rules[0] == FaultRule(
            "runner.task", "exception", rate=0.25, max_attempts=3
        )
        assert FaultPlan.parse(plan.to_spec(), seed=42) == plan

    @pytest.mark.parametrize("spec", [
        "bogus.site:exception",
        "runner.task:bogus_kind",
        "runner.task",
        "runner.task:exception:rate=2.0",
        "runner.task:exception:max_attempts=0",
        "runner.task:exception:bogus=1",
        "runner.task:exception:rate",
    ])
    def test_parse_rejects_bad_specs(self, spec):
        """Typos in sites, kinds, and options fail loudly."""
        with pytest.raises(ConfigError):
            FaultPlan.parse(spec)

    def test_selection_is_deterministic_and_rate_scaled(self):
        """The rate coin is a pure function of (seed, site, key, kind)."""
        plan = FaultPlan.parse("runner.task:exception:rate=0.5", seed=7)
        again = FaultPlan.parse("runner.task:exception:rate=0.5", seed=7)
        keys = [f"task-{i}" for i in range(400)]
        picked = [
            k for k in keys
            if plan.rule_for("runner.task", k, 0) is not None
        ]
        assert picked == [
            k for k in keys
            if again.rule_for("runner.task", k, 0) is not None
        ]
        assert 120 < len(picked) < 280  # ~rate * len(keys)
        other_seed = FaultPlan.parse("runner.task:exception:rate=0.5", seed=8)
        assert picked != [
            k for k in keys
            if other_seed.rule_for("runner.task", k, 0) is not None
        ]

    def test_attempt_gating_lets_retries_succeed(self):
        """Attempts at or past ``max_attempts`` no longer fault."""
        plan = FaultPlan.parse("runner.task:exception:max_attempts=2")
        assert plan.rule_for("runner.task", "k", 0) is not None
        assert plan.rule_for("runner.task", "k", 1) is not None
        assert plan.rule_for("runner.task", "k", 2) is None

    def test_match_filters_keys(self):
        """``match=`` substring-filters which keys a rule touches."""
        plan = FaultPlan.parse("runner.task:exception:match=32t")
        assert plan.rule_for("runner.task", "npb-is/32t", 0) is not None
        assert plan.rule_for("runner.task", "npb-is/8t", 0) is None
        assert plan.rule_for("store.put", "npb-is/32t", 0) is None

    def test_install_mirrors_into_environment(self):
        """Installed plans export to the env; workers re-parse them."""
        plan = FaultPlan.parse("store.put:io_error:rate=0.5", seed=9)
        install_plan(plan)
        assert os.environ[ENV_SPEC] == plan.to_spec()
        assert os.environ[ENV_SEED] == "9"
        assert FaultPlan.from_env() == plan
        uninstall_plan()
        assert ENV_SPEC not in os.environ and ENV_SEED not in os.environ
        assert active_plan() is None

    def test_from_env_unset_is_none(self):
        """No ``REPRO_FAULTS`` means no plan."""
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": "  "}) is None


class TestHooks:
    def test_disabled_hooks_are_noops(self):
        """With no plan installed the hooks do nothing."""
        maybe_inject("runner.task", key="anything")
        assert maybe_corrupt("store.put", "k", b"data") == b"data"

    def test_exception_kind(self):
        """``exception`` raises InjectedFaultError naming site and key."""
        install_plan(FaultPlan.parse("runner.task:exception"))
        with pytest.raises(InjectedFaultError, match=r"runner\.task \(job\)"):
            maybe_inject("runner.task", key="job")
        maybe_inject("store.put", key="job")  # other sites unaffected

    def test_io_error_kind(self):
        """``io_error`` raises a retryable OSError (EIO)."""
        install_plan(FaultPlan.parse("store.get:io_error"))
        with pytest.raises(OSError) as excinfo:
            maybe_inject("store.get", key="k")
        assert excinfo.value.errno == 5

    def test_crash_degrades_outside_sacrificial_processes(self):
        """``crash`` only kills marked-expendable processes."""
        install_plan(FaultPlan.parse("runner.task:crash"))
        with pytest.raises(InjectedFaultError, match="crash"):
            maybe_inject("runner.task", key="k")  # still alive

    def test_partial_write_truncates(self):
        """``partial_write`` truncates via maybe_corrupt, not maybe_inject."""
        install_plan(FaultPlan.parse("store.put:partial_write:fraction=0.25"))
        maybe_inject("store.put", key="k")  # partial_write never raises
        assert maybe_corrupt("store.put", "k", b"x" * 100) == b"x" * 25
        assert maybe_corrupt("store.get", "k", b"x" * 100) == b"x" * 100

    def test_task_attempt_is_per_thread_and_nests(self):
        """A task's attempt scope is invisible to other threads (the
        service runs fan-outs on worker threads) and restores the outer
        attempt on exit."""
        inside, release = threading.Event(), threading.Event()
        seen = []

        def worker():
            with task_attempt(3):
                inside.set()
                release.wait(10)
                seen.append(current_task_attempt())

        thread = threading.Thread(target=worker)
        thread.start()
        assert inside.wait(10)
        assert current_task_attempt() == 0
        with task_attempt(1):
            with task_attempt(2):
                assert current_task_attempt() == 2
            assert current_task_attempt() == 1
        release.set()
        thread.join(10)
        assert not thread.is_alive()
        assert seen == [3]
        assert current_task_attempt() == 0


def make_runner(store_dir, workers=2, **kwargs):
    """A small two-worker runner over one benchmark for the matrix."""
    kwargs.setdefault("retry", RetryPolicy(max_retries=2, **FAST))
    return ExperimentRunner(
        scale=SCALE, benchmarks=(BENCH,), workers=workers,
        store=ArtifactStore(root=store_dir), **kwargs,
    )


def run_states(runner, num_threads=8):
    """The pass's observable results: profile digest + full-run state."""
    profiles = runner.profiles(BENCH, num_threads)
    full = runner.full(BENCH, num_threads)
    return profiles_digest(profiles), full.to_state()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Fault-free serial results for the matrix to compare against."""
    runner = ExperimentRunner(
        scale=SCALE, benchmarks=(BENCH,), workers=0,
        store=ArtifactStore(root=tmp_path_factory.mktemp("base") / "store"),
    )
    return run_states(runner)


class TestFaultMatrix:
    def test_retry_recovers_bit_identically(self, tmp_path, baseline):
        """An exception on attempt 0 is retried; results are identical."""
        install_plan(FaultPlan.parse(
            "runner.task:exception:max_attempts=1", seed=3
        ))
        runner = make_runner(tmp_path / "store")
        assert runner.prefetch([(BENCH, 8)]) == 2
        assert run_states(runner) == baseline
        (task,) = runner.report.tasks
        assert task.disposition == "completed" and task.attempts == 2
        assert "InjectedFaultError" in task.errors[0]
        assert runner.report.noteworthy()

    def test_timeout_fault_is_retried(self, tmp_path, baseline):
        """A latency fault trips the per-task SIGALRM budget; the retry
        (fault expired) completes with identical results."""
        install_plan(FaultPlan.parse(
            "runner.task:latency:seconds=5,max_attempts=1", seed=3
        ))
        runner = make_runner(
            tmp_path / "store",
            retry=RetryPolicy(max_retries=2, timeout=0.5, **FAST),
        )
        assert runner.prefetch([(BENCH, 8)]) == 2
        assert run_states(runner) == baseline
        (task,) = runner.report.tasks
        assert task.attempts == 2
        assert "TaskTimeoutError" in task.errors[0]

    def test_worker_crash_respawns_pool(self, tmp_path, baseline):
        """A crash fault really kills the worker; the pool is respawned
        and the retried pass is bit-identical."""
        install_plan(FaultPlan.parse(
            "runner.task:crash:max_attempts=1", seed=3
        ))
        runner = make_runner(tmp_path / "store")
        assert runner.prefetch([(BENCH, 8)]) == 2
        assert run_states(runner) == baseline
        assert runner.report.pool_failures >= 1
        assert not runner.report.serial_fallback

    def test_persistent_crashes_degrade_to_serial(self, tmp_path, baseline):
        """When the pool keeps dying, the runner finishes serially (where
        crash faults degrade to exceptions) — still bit-identical."""
        install_plan(FaultPlan.parse(
            "runner.task:crash:max_attempts=3", seed=3
        ))
        runner = make_runner(
            tmp_path / "store",
            retry=RetryPolicy(
                max_retries=4, max_pool_failures=0, **FAST
            ),
        )
        assert runner.prefetch([(BENCH, 8)]) == 2
        assert run_states(runner) == baseline
        assert runner.report.serial_fallback
        assert runner.report.pool_failures >= 1

    def test_retry_exhaustion_drains_other_tasks(self, tmp_path, baseline):
        """One hopeless task raises RetryExhaustedError only after every
        other task completed (and was journaled)."""
        install_plan(FaultPlan.parse(
            "runner.task:exception:max_attempts=99,match=32t", seed=3
        ))
        runner = make_runner(
            tmp_path / "store",
            retry=RetryPolicy(max_retries=1, **FAST),
        )
        with pytest.raises(RetryExhaustedError, match="npb-is/32t"):
            runner.prefetch([(BENCH, 8), (BENCH, 32)])
        by_label = {t.label: t for t in runner.report.tasks}
        assert by_label["npb-is/8t"].disposition == "completed"
        assert by_label["npb-is/32t"].disposition == "failed"
        assert by_label["npb-is/32t"].attempts == 2
        # The completed pass's artifacts and journal entry survive.
        assert run_states(runner) == baseline
        assert runner.journal().completed_passes()

    def test_resume_skips_checkpointed_passes(self, tmp_path, baseline):
        """``--resume`` after a failed run recomputes only the remainder."""
        install_plan(FaultPlan.parse(
            "runner.task:exception:max_attempts=99,match=32t", seed=3
        ))
        crashed = make_runner(
            tmp_path / "store", retry=RetryPolicy(max_retries=0, **FAST)
        )
        with pytest.raises(RetryExhaustedError):
            crashed.prefetch([(BENCH, 8), (BENCH, 32)])

        uninstall_plan()
        resumed = make_runner(tmp_path / "store", resume=True)
        # Only the 32t pass (2 kinds) is recomputed; 8t is checkpointed.
        assert resumed.prefetch([(BENCH, 8), (BENCH, 32)]) == 2
        assert resumed.report.resumed == 1
        assert run_states(resumed) == baseline
        labels = [t.label for t in resumed.report.tasks]
        assert labels == ["npb-is/32t"]

    def test_resume_distrusts_journal_without_artifacts(self, tmp_path):
        """A journaled pass whose artifacts vanished is recomputed."""
        import shutil

        runner = make_runner(tmp_path / "store")
        assert runner.prefetch([(BENCH, 8)]) == 2
        assert runner.journal().completed_passes()
        # Evict the artifacts but keep the journal (a GC sweep can do
        # exactly this): the checkpoint alone must not be trusted.
        shutil.rmtree(tmp_path / "store" / "profiles")
        shutil.rmtree(tmp_path / "store" / "full")

        rerun = make_runner(tmp_path / "store", resume=True)
        assert rerun.prefetch([(BENCH, 8)]) == 2  # recomputed, not resumed
        assert rerun.report.resumed == 0

    def test_store_put_crash_orphans_tmp_for_janitor(self, tmp_path):
        """A sacrificial process dying between temp-write and rename
        strands a .tmp orphan, which only the janitor removes."""
        import subprocess
        import sys
        import textwrap

        store_root = tmp_path / "store"
        script = textwrap.dedent(f"""
            import repro.faults as faults
            from repro.store import ArtifactStore

            faults.install_plan(faults.FaultPlan.parse("store.put:crash"))
            faults.mark_process_sacrificial()
            store = ArtifactStore(root={str(store_root)!r})
            store.put("demo", store.derive_key(x=1), b"payload")
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 13  # really died at the fault point
        orphans = list(store_root.rglob("*.tmp"))
        assert len(orphans) == 1
        assert not ArtifactStore(root=store_root).has(
            "demo", ArtifactStore.derive_key(x=1)
        )
        stats = collect_garbage(
            ArtifactStore(root=store_root), tmp_grace_seconds=0.0
        )
        assert stats.reaped_tmp == 1
        assert not list(store_root.rglob("*.tmp"))

    def test_store_get_fault_degrades_to_recompute(self, tmp_path, baseline):
        """Persistent read errors turn store hits into recomputes — the
        results are still identical."""
        warm = make_runner(tmp_path / "store", workers=0)
        assert run_states(warm) == baseline

        install_plan(FaultPlan.parse(
            "store.get:io_error:max_attempts=99", seed=3
        ))
        cold = make_runner(tmp_path / "store", workers=0)
        assert run_states(cold) == baseline
        assert cold.store.misses >= 2


class TestRunJournal:
    def test_torn_and_foreign_lines_are_skipped(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        assert journal.completed_passes() == {}  # no file yet
        journal.record_pass("k1", BENCH, 8, None, ("profiles", "full"))
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "start"}\n["not", "an", "object"]\n')
            handle.write('{"key": "k3", "kinds": ["full"]}\n')  # no event
            handle.write('{"event": "pass", "key": "k2", "ki')  # torn
        assert journal.completed_passes() == {"k1": {"profiles", "full"}}

    def test_clear_tolerates_a_missing_file(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.record_pass("k1", BENCH, 8, None, ("full",))
        journal.clear()
        assert not journal.path.exists()
        journal.clear()
        assert journal.completed_passes() == {}


class TestRunReport:
    def test_render_lists_failed_passes(self):
        report = RunReport(pool_failures=1, serial_fallback=True)
        report.tasks.append(TaskReport(
            "npb-is/8t", attempts=3, disposition="failed",
            errors=["boom", "bang"],
        ))
        assert report.noteworthy()
        lines = report.render().splitlines()
        assert lines[0] == (
            "run report: 0 resumed, 1 pool failure(s), degraded to serial"
        )
        assert lines[1] == (
            "  npb-is/8t: failed after 3 attempt(s) (boom; bang)"
        )

    def test_clean_first_try_run_is_not_noteworthy(self):
        report = RunReport()
        report.tasks.append(TaskReport("npb-is/8t", attempts=1,
                                       disposition="completed"))
        assert not report.noteworthy()


class TestStoreFaults:
    def test_transient_get_error_is_retried(self, tmp_path):
        """One injected EIO on read is absorbed by the I/O retries."""
        store = ArtifactStore(root=tmp_path / "store")
        key = store.derive_key(x=1)
        store.put("demo", key, {"v": 41})
        install_plan(FaultPlan.parse("store.get:io_error:max_attempts=1"))
        assert store.get("demo", key) == {"v": 41}
        assert store.hits == 1

    def test_persistent_get_error_is_miss(self, tmp_path):
        """EIO surviving every retry reads as a miss, never a crash."""
        store = ArtifactStore(root=tmp_path / "store")
        key = store.derive_key(x=1)
        store.put("demo", key, {"v": 41})
        install_plan(FaultPlan.parse("store.get:io_error:max_attempts=99"))
        assert store.get("demo", key) is None
        assert store.misses == 1

    def test_transient_put_error_is_retried(self, tmp_path):
        """One injected EIO on write is retried; no temp file leaks."""
        store = ArtifactStore(root=tmp_path / "store")
        key = store.derive_key(x=1)
        install_plan(FaultPlan.parse("store.put:io_error:max_attempts=1"))
        assert store.put("demo", key, {"v": 42}) is not None
        uninstall_plan()
        assert store.get("demo", key) == {"v": 42}
        assert not list((tmp_path / "store").rglob("*.tmp"))

    def test_put_error_surviving_retries_raises(self, tmp_path, monkeypatch):
        """Writes (unlike reads) surface persistent I/O errors."""
        monkeypatch.setenv("REPRO_STORE_IO_RETRIES", "0")
        store = ArtifactStore(root=tmp_path / "store")
        install_plan(FaultPlan.parse("store.put:io_error:max_attempts=99"))
        with pytest.raises(OSError):
            store.put("demo", store.derive_key(x=1), "payload")
        assert not list((tmp_path / "store").rglob("*.tmp"))

    def test_torn_write_is_detected_and_healed(self, tmp_path):
        """A partial_write-corrupted artifact reads as a miss and is
        unlinked, so the next put heals the store."""
        store = ArtifactStore(root=tmp_path / "store")
        key = store.derive_key(x=1)
        install_plan(FaultPlan.parse("store.put:partial_write:max_attempts=99"))
        path = store.put("demo", key, {"v": 43})
        assert path.is_file()
        uninstall_plan()
        assert store.get("demo", key) is None  # checksum catches the tear
        assert not path.is_file()  # corrupt file unlinked
        store.put("demo", key, {"v": 43})
        assert store.get("demo", key) == {"v": 43}

    def test_cold_misses_do_not_retry(self, tmp_path, monkeypatch):
        """FileNotFoundError is not transient: misses stay single-probe."""
        sleeps: list[float] = []
        monkeypatch.setattr(
            "repro.store.artifacts.time.sleep",
            lambda s: sleeps.append(s),
        )
        store = ArtifactStore(root=tmp_path / "store")
        assert store.get("demo", store.derive_key(x=1)) is None
        assert sleeps == []


class TestShardedReplayFaults:
    """Fault-matrix extension: faults during sharded corpus replay."""

    @pytest.fixture()
    def shards(self, tmp_path):
        """A recorded trace split into 3 shards, plus its serial,
        fault-free baseline results."""
        from repro.core.pipeline import BarrierPointPipeline
        from repro.trace.shard import split_trace
        from repro.workloads import get_workload
        from repro.workloads.replay import ReplayWorkload
        from tests.conftest import tiny_machine

        path = tmp_path / "parent.rpt"
        from repro.trace.capture import record_trace

        record_trace(get_workload(BENCH, 4, SCALE), path)
        paths = split_trace(path, tmp_path / "shards", num_shards=3)
        machine = tiny_machine()
        replay = ReplayWorkload(path)
        pipe = BarrierPointPipeline(machine)
        baseline = (
            profiles_digest(pipe.profile(replay)),
            pipe.full_run(replay).to_state(),
        )
        replay.close()
        return paths, machine, baseline

    @staticmethod
    def _run(paths, machine, **retry_kwargs):
        from repro.trace.shard import ShardedReplay

        retry_kwargs.setdefault("max_retries", 2)
        replay = ShardedReplay(
            paths, machine, retry=RetryPolicy(**retry_kwargs, **FAST),
        )
        profiles, full = replay.run(want_profiles=True, want_full=True)
        return (profiles_digest(profiles), full.to_state()), replay.report

    def test_trace_read_fault_recovers_bit_identically(self, shards):
        """The chain-replay task hits a trace.read fault on attempt 0;
        the retried (attempt-gated) task replays bit-identically."""
        paths, machine, baseline = shards
        install_plan(FaultPlan.parse(
            "trace.read:exception:max_attempts=1", seed=3
        ))
        results, report = self._run(paths, machine)
        assert results == baseline
        [task] = report.tasks
        assert task.disposition == "completed"
        assert task.attempts == 2
        assert "InjectedFaultError" in task.errors[0]

    def test_trace_read_fault_recovers_in_corpus_verify(self, tmp_path):
        """The same one-shot trace.read rule recovers in the corpus
        conformance sweep: the unsharded replay inside each verify task
        reports the task's attempt too, so the retry reads cleanly."""
        from repro.trace.corpus import TraceCorpus

        corpus = TraceCorpus(ArtifactStore(root=tmp_path / "store"))
        corpus.record_fuzz_range([1], num_threads=2, scale=SCALE)
        clean = corpus.verify(backends=("inclusive",))

        install_plan(FaultPlan.parse(
            "trace.read:exception:max_attempts=1", seed=3
        ))
        report = RunReport()
        verdicts = corpus.verify(
            backends=("inclusive",), report=report,
            retry=RetryPolicy(max_retries=2, **FAST),
        )
        assert verdicts == clean
        assert [t.attempts for t in report.tasks] == [2]
        assert "InjectedFaultError" in report.tasks[0].errors[0]

    def test_runner_task_fault_on_profile_tasks_recovers_in_corpus_verify(
        self, tmp_path
    ):
        """The first-backend task of each entry also carries the entry's
        profile leg; a one-shot runner.task fault on exactly those tasks
        retries them, and the verdicts equal the clean sweep's."""
        from repro.trace.corpus import TraceCorpus

        corpus = TraceCorpus(ArtifactStore(root=tmp_path / "store"))
        corpus.record_fuzz_range([1, 2, 3, 4], num_threads=2, scale=0.05)
        clean = corpus.verify()

        install_plan(FaultPlan.parse(
            "runner.task:exception:max_attempts=1,match=@complex", seed=3
        ))
        report = RunReport()
        verdicts = corpus.verify(
            report=report, retry=RetryPolicy(max_retries=2, **FAST),
        )
        assert verdicts == clean
        assert all(v["ok"] for v in verdicts)
        retried = {t.label: t.attempts for t in report.tasks
                   if t.attempts != 1}
        assert retried == {f"fuzz-{seed}/2t@complex": 2
                           for seed in (1, 2, 3, 4)}
        assert len(report.tasks) == 16

    def test_runner_task_fault_recovers_bit_identically(self, shards):
        """The runner.task site covers the shard-chain task exactly like
        experiment passes."""
        paths, machine, baseline = shards
        install_plan(FaultPlan.parse(
            "runner.task:exception:max_attempts=1,match=shard", seed=3
        ))
        results, report = self._run(paths, machine)
        assert results == baseline
        assert [t.attempts for t in report.tasks] == [2]

    def test_persistent_trace_read_fault_exhausts_loudly(self, shards):
        """A fault surviving every retry aborts the replay — partial or
        wrong results are not an outcome."""
        paths, machine, _ = shards
        install_plan(FaultPlan.parse(
            "trace.read:exception:max_attempts=99", seed=3
        ))
        with pytest.raises(RetryExhaustedError, match="shard"):
            self._run(paths, machine, max_retries=1)

    def test_transient_store_get_fault_on_manifest_is_absorbed(
        self, tmp_path
    ):
        """A transient manifest-read EIO is absorbed by the store's I/O
        retries; the conformance sweep is unaffected."""
        from repro.trace.corpus import TraceCorpus

        store = ArtifactStore(root=tmp_path / "store")
        corpus = TraceCorpus(store, name="faulty")
        corpus.record_fuzz_range([1], num_threads=2, scale=SCALE)
        clean = corpus.verify()

        install_plan(FaultPlan.parse("store.get:io_error:max_attempts=1"))
        assert len(corpus.entries()) == 1
        assert corpus.verify() == clean

    def test_persistent_store_get_fault_on_manifest_is_loud(self, tmp_path):
        """A manifest unreadable through every retry raises — it must
        never read as an empty corpus."""
        from repro.errors import TraceFormatError
        from repro.trace.corpus import TraceCorpus

        store = ArtifactStore(root=tmp_path / "store")
        corpus = TraceCorpus(store, name="faulty")
        corpus.record_fuzz_range([1], num_threads=2, scale=SCALE)

        install_plan(FaultPlan.parse("store.get:io_error:max_attempts=99"))
        with pytest.raises(TraceFormatError, match="corrupt"):
            corpus.entries()


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc fd listing"
)
class TestTraceReadFaults:
    def _open_fds(self):
        """Count this process's open file descriptors."""
        return len(os.listdir("/proc/self/fd"))

    def test_trace_read_fault_does_not_leak_fds(self, tmp_path):
        """An injected trace.read fault mid-iteration leaks no fd."""
        from repro.trace.capture import TraceReader, record_trace
        from repro.workloads import get_workload

        path = tmp_path / "is.rpt"
        record_trace(get_workload(BENCH, 2, scale=SCALE), path)
        install_plan(FaultPlan.parse("trace.read:exception:match=#1"))
        with TraceReader(path) as reader:
            reader.region_execs(0)
            before = self._open_fds()
            with pytest.raises(InjectedFaultError):
                reader.region_execs(1)
            assert self._open_fds() == before
        assert self._open_fds() <= before

    def test_corrupt_chunk_mid_iteration_does_not_leak_fds(self, tmp_path):
        """A real corrupt chunk raises cleanly without leaking an fd."""
        from repro.errors import TraceFormatError
        from repro.trace.capture import TraceReader, record_trace
        from repro.workloads import get_workload

        path = tmp_path / "is.rpt"
        record_trace(get_workload(BENCH, 2, scale=SCALE), path)
        with TraceReader(path) as reader:
            offset, length, _ = reader._offsets[1]
        blob = bytearray(path.read_bytes())
        blob[offset + length // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        with TraceReader(path) as reader:
            reader.region_execs(0)
            before = self._open_fds()
            with pytest.raises(TraceFormatError, match="checksum"):
                reader.region_execs(1)
            assert self._open_fds() == before
