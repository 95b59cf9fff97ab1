"""Shared infrastructure for the experiment harness.

The expensive artifacts — functional profiles and full detailed runs per
(benchmark, core count) — are computed once, memoized on the runner, *and*
persisted through the content-keyed :class:`~repro.store.ArtifactStore`,
so regenerating figures after a partial failure, in another process, or
after a figure-only code change reuses everything whose inputs are
unchanged instead of paying the full two-pass cost again.

The per-(benchmark, core-count) passes are embarrassingly parallel;
:meth:`ExperimentRunner.prefetch` fans them out across a process pool,
one task per pair.  A task computes every pass the figures read for its
pair: the stored profiles and full run, and the k sweeps and warmed
evaluations derived from them.  Every pass is a deterministic function
of ``(benchmark, threads, scale)`` and the SimPoint parameters, so
results are byte-identical regardless of worker count or scheduling.

The fan-out is fault tolerant (see ``docs/robustness.md``): failed tasks
are retried with exponential backoff and deterministic jitter under a
bounded attempt budget (:class:`RetryPolicy`), each task runs under an
optional in-worker timeout, a worker crash (``BrokenProcessPool``)
respawns the pool and resubmits only the incomplete tasks, repeated pool
failures degrade gracefully to serial in-process execution, and every
completed pass is checkpointed to a crash-tolerant journal so a killed
battery resumed with ``resume=True`` recomputes only unfinished work.
Because every pass is deterministic, all recovery paths preserve the
byte-identical-to-serial guarantee.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.config import (
    MachineConfig,
    SimPointConfig,
    scaled,
    simpoint_defaults,
    table1_8core,
    table1_32core,
)
from repro.machines import get_machine
from repro.core.pipeline import BarrierPointPipeline, PipelineResult
from repro.core.selection import BarrierPointSelection
from repro.core.signatures import SIGNATURE_VARIANTS, SignatureConfig
from repro.errors import (
    ConfigError,
    RetryExhaustedError,
    TaskTimeoutError,
    WorkloadError,
)
from repro.experiments.journal import RunJournal
from repro.faults import mark_process_sacrificial, maybe_inject, task_attempt
from repro.profiling.profiler import RegionProfile
from repro.sim.machine import FullRunResult
from repro.store import ArtifactStore, code_fingerprint
from repro.workloads import WORKLOAD_NAMES, Workload, get_workload

CORE_COUNTS = (8, 32)

#: Default machine set of the cross-architecture sweep (``repro sweep``):
#: the paper's two Table I machines plus one of each new hierarchy
#: backend.  The Table I entries share artifact-store keys with the
#: battery figures, so a sweep after a battery run (or vice versa) reuses
#: those passes.
DEFAULT_SWEEP_MACHINES = (
    "table1-8core",
    "table1-32core",
    "table1-8core-noninclusive",
    "table1-8core-prefetch",
)


def experiment_machine(num_threads: int) -> MachineConfig:
    """The evaluation machine for a core count (scaled Table I config)."""
    if num_threads == 8:
        return scaled(table1_8core())
    if num_threads == 32:
        return scaled(table1_32core())
    raise ConfigError(f"evaluation uses 8 or 32 cores, not {num_threads}")


def sweep_machine(name: str) -> MachineConfig:
    """The cache-scaled evaluation variant of a registry machine.

    Applies the same :func:`~repro.config.scaled` transform the battery's
    evaluation machines use, so ``sweep_machine("table1-8core")`` equals
    ``experiment_machine(8)`` — and shares its artifact-store keys.

    Args:
        name: A machine-registry name (see :func:`repro.machines.machine_names`).

    Returns:
        The scaled machine configuration.
    """
    return scaled(get_machine(name))


def _resolve_machine(num_threads: int, machine: str | None) -> MachineConfig:
    """Evaluation machine for a pass: registry name, or the nt default."""
    if machine is None:
        return experiment_machine(num_threads)
    return sweep_machine(machine)


def _default_workers() -> int:
    """Worker-count default: ``$REPRO_WORKERS``, else 0 (in-process)."""
    return int(os.environ.get("REPRO_WORKERS", "0"))


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/timeout budget for the runner's expensive passes.

    Attributes:
        max_retries: Retries after the first attempt (so a task runs at
            most ``max_retries + 1`` times).
        backoff_base: First-retry backoff in seconds; doubles per retry.
        backoff_max: Backoff ceiling in seconds.
        jitter: Extra backoff fraction in [0, 1], drawn deterministically
            from the task key and attempt (reproducible, but decorrelated
            across tasks).
        timeout: Per-task time budget in seconds, enforced *inside* the
            task via ``SIGALRM`` (``None`` = no limit; a no-op on
            platforms without ``SIGALRM``).
        max_pool_failures: Pool crashes (``BrokenProcessPool``) tolerated
            before degrading to serial in-process execution.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    jitter: float = 0.5
    timeout: float | None = None
    max_pool_failures: int = 2

    @classmethod
    def from_env(cls, **overrides) -> RetryPolicy:
        """Policy with ``$REPRO_TASK_TIMEOUT``/``$REPRO_MAX_RETRIES`` defaults.

        Args:
            **overrides: Field overrides that win over the environment.

        Returns:
            The configured policy.
        """
        kwargs: dict = {}
        if os.environ.get("REPRO_TASK_TIMEOUT"):
            kwargs["timeout"] = float(os.environ["REPRO_TASK_TIMEOUT"])
        if os.environ.get("REPRO_MAX_RETRIES"):
            kwargs["max_retries"] = int(os.environ["REPRO_MAX_RETRIES"])
        kwargs.update(overrides)
        return cls(**kwargs)

    def backoff_seconds(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of task ``key``.

        Exponential in the attempt with deterministic jitter: the same
        (key, attempt) always waits the same time, but different tasks
        retrying together are decorrelated instead of thundering in
        lockstep.

        Args:
            key: Stable task identity.
            attempt: 1-based retry attempt.

        Returns:
            Seconds to sleep.
        """
        base = min(
            self.backoff_max, self.backoff_base * (2 ** max(0, attempt - 1))
        )
        digest = hashlib.sha256(f"{key}|{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "little") / 2**64
        return base * (1.0 + self.jitter * fraction)


#: Exceptions retrying cannot fix: the configuration or workload request
#: itself is wrong, so every attempt would fail identically.
_NON_RETRYABLE = (ConfigError, WorkloadError)


def _is_retryable(exc: BaseException) -> bool:
    """Whether a failed attempt is worth retrying."""
    return isinstance(exc, Exception) and not isinstance(exc, _NON_RETRYABLE)


@dataclass
class TaskReport:
    """End-of-run disposition of one fanned-out task.

    Attributes:
        label: Human identity of the task (e.g. ``"npb-is/8t"`` for a
            battery pass, ``"shard[3:6]"`` for a shard replay).
        attempts: Attempts actually executed.
        disposition: ``"completed"``, ``"failed"``, or ``"resumed"``
            (skipped because the checkpoint journal had it).
        errors: Stringified error per failed attempt, in order (these
            are the fault sites hit, when the failures were injected).
    """

    label: str
    attempts: int = 0
    disposition: str = "pending"
    errors: list[str] = field(default_factory=list)


@dataclass
class RunReport:
    """Structured end-of-run failure/recovery report for one runner.

    Accumulated across :meth:`ExperimentRunner.prefetch` calls; rendered
    at the end of ``repro run`` when anything noteworthy happened.

    Attributes:
        tasks: Per-pass reports (only passes the fan-out touched).
        pool_failures: Worker-pool crashes survived.
        serial_fallback: Whether execution degraded to serial.
        resumed: Passes skipped thanks to the checkpoint journal.
    """

    tasks: list[TaskReport] = field(default_factory=list)
    pool_failures: int = 0
    serial_fallback: bool = False
    resumed: int = 0

    def noteworthy(self) -> bool:
        """Whether there is anything beyond a clean first-try run."""
        return bool(
            self.pool_failures
            or self.serial_fallback
            or self.resumed
            or any(t.attempts > 1 or t.disposition == "failed"
                   for t in self.tasks)
        )

    def render(self) -> str:
        """Human summary (one line per touched pass)."""
        lines = [
            f"run report: {self.resumed} resumed, "
            f"{self.pool_failures} pool failure(s)"
            + (", degraded to serial" if self.serial_fallback else "")
        ]
        for t in self.tasks:
            detail = f"  {t.label}: {t.disposition} after {t.attempts} attempt(s)"
            if t.errors:
                detail += f" ({'; '.join(t.errors)})"
            lines.append(detail)
        return "\n".join(lines)


@dataclass(frozen=True)
class FanoutTask:
    """One unit of work for :class:`FaultTolerantFanout`.

    Attributes:
        key: Stable task identity — the retry-backoff/journal key (for
            battery passes this is the artifact-store key; for trace
            shards it covers the shard's content fingerprint and range).
        label: Human identity used in reports and error messages, and
            the ``runner.task`` fault-site key of every attempt.
        args: Positional arguments of the worker function.
        meta: Opaque caller bookkeeping, handed back untouched with the
            task in the ``on_result`` callback (never pickled).
    """

    key: str
    label: str
    args: tuple
    meta: object = None


@dataclass
class _TaskState:
    """Parent-side bookkeeping for one in-flight fan-out task."""

    task: FanoutTask
    report: TaskReport
    attempt: int = 0


def _pair_label(name: str, num_threads: int, machine: str | None) -> str:
    """The fan-out task label (and ``runner.task`` key) of one pair."""
    suffix = f"@{machine}" if machine else ""
    return f"{name}/{num_threads}t{suffix}"


def _worker_init() -> None:
    """Pool-worker initializer: workers are expendable for crash faults."""
    mark_process_sacrificial()


@contextmanager
def _time_limit(seconds: float | None, what: str):
    """Enforce a wall-clock budget on the enclosed block via ``SIGALRM``.

    Raises :class:`~repro.errors.TaskTimeoutError` when the budget is
    exceeded.  A no-op when ``seconds`` is ``None`` or the platform has
    no ``SIGALRM`` (the timeout is then best-effort-unsupported).

    Args:
        seconds: Time budget, or ``None`` for unlimited.
        what: Task description for the error message.
    """
    if seconds is None or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        """Translate the alarm into the runner's timeout error."""
        raise TaskTimeoutError(
            f"task {what} exceeded its {seconds:g}s time budget"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_attempt(fn, args: tuple, label: str, attempt: int,
                 timeout: float | None):
    """Run one attempt of one fan-out task: the whole task contract.

    Module-level so the pool can pickle it.  For the duration of the
    call the thread's task attempt is ``attempt`` (read by the
    ``trace.read`` site), the time budget is enforced, and the
    ``runner.task`` site fires with the task label as its key; the
    worker itself is a plain function of ``args``.
    """
    with task_attempt(attempt), _time_limit(timeout, label):
        maybe_inject("runner.task", key=label, attempt=attempt)
        return fn(*args)


@dataclass
class FaultTolerantFanout:
    """Reusable fault-tolerant task fan-out over a process pool.

    The execution engine behind :meth:`ExperimentRunner.prefetch`,
    :class:`repro.trace.shard.ShardedReplay`, and the corpus conformance
    sweep: tasks run in a :class:`~concurrent.futures.ProcessPoolExecutor`
    (or serially in-process when ``workers`` <= 1), failed attempts are
    retried with deterministic backoff under :class:`RetryPolicy`, a
    broken pool is respawned with only the incomplete tasks resubmitted,
    repeated pool failures degrade to serial execution, and a task that
    exhausts its budget raises
    :class:`~repro.errors.RetryExhaustedError` only after every other
    task has been drained.

    ``fn`` is a picklable module-level function called as
    ``fn(*task.args)``.  The fan-out owns the rest of the task contract:
    each attempt runs under the per-task time budget
    (``retry.timeout``), fires the ``runner.task`` fault site keyed by
    ``task.label``, and exposes its 0-based attempt to the sites below
    it (:func:`repro.faults.current_task_attempt`), so workers never see
    an attempt counter or a timeout.

    Attributes:
        fn: The worker function.
        workers: Process count; <= 1 executes serially in-process.
        retry: Retry/backoff/timeout budget.
        report: Structured report accumulating per-task dispositions,
            pool failures, and the serial-fallback flag.
    """

    fn: object
    workers: int = 0
    retry: RetryPolicy = field(default_factory=RetryPolicy.from_env)
    report: RunReport = field(default_factory=RunReport)

    def run(self, tasks: list[FanoutTask], on_result=None) -> dict:
        """Execute every task to completion, with retries and recovery.

        Args:
            tasks: The work units.  One :class:`TaskReport` per task is
                appended to :attr:`report` up front.
            on_result: Optional callback ``(task, result)`` invoked in
                completion order, in the parent process, once per
                successfully completed task (e.g. to memoize/journal).

        Returns:
            ``{task.key: result}`` for every completed task.

        Raises:
            RetryExhaustedError: After draining everything, when any
                task ran out of attempts.
        """
        states = [_TaskState(task=t, report=TaskReport(label=t.label))
                  for t in tasks]
        self.report.tasks.extend(s.report for s in states)
        results: dict = {}
        failed: list[_TaskState] = []
        if self.workers <= 1:
            self._run_serial(states, results, on_result, failed)
        else:
            self._run_pool(states, results, on_result, failed)
        if failed:
            raise RetryExhaustedError(
                "gave up on "
                + ", ".join(
                    f"{s.report.label} after {s.report.attempts} attempt(s)"
                    f" [{s.report.errors[-1]}]"
                    for s in failed
                )
            )
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _attempt_args(self, state: _TaskState) -> tuple:
        """The :func:`_run_attempt` arguments of a task's next attempt."""
        return (self.fn, state.task.args, state.task.label, state.attempt,
                self.retry.timeout)

    def _record_failure(self, state: _TaskState, exc: BaseException) -> bool:
        """Charge a failed attempt; return whether to retry.

        Args:
            state: The failed task (its attempt counter is advanced).
            exc: The failure.

        Returns:
            ``True`` when the task should be resubmitted.
        """
        state.attempt += 1
        state.report.attempts = state.attempt
        state.report.errors.append(f"{type(exc).__name__}: {exc}")
        if not _is_retryable(exc) or state.attempt > self.retry.max_retries:
            state.report.disposition = "failed"
            return False
        time.sleep(self.retry.backoff_seconds(state.task.key, state.attempt))
        return True

    def _complete(
        self, state: _TaskState, result: object, results: dict, on_result
    ) -> None:
        """Absorb one completed task: report, collect, notify."""
        state.report.attempts = state.attempt + 1
        state.report.disposition = "completed"
        results[state.task.key] = result
        if on_result is not None:
            on_result(state.task, result)

    def _run_serial(
        self,
        states: list[_TaskState],
        results: dict,
        on_result,
        failed: list[_TaskState],
    ) -> int:
        """Serial executor: finish tasks in-process with retries.

        ``crash`` faults degrade to exceptions here (the parent process
        is not sacrificial), so even a crash-faulting plan completes.

        Args:
            states: Tasks still to run.
            results: Sink for completed results (keyed by task key).
            on_result: Completion callback (see :meth:`run`).
            failed: Sink for tasks that exhaust their budget.

        Returns:
            Number of tasks completed.
        """
        completed = 0
        for state in states:
            while True:
                try:
                    result = _run_attempt(*self._attempt_args(state))
                except Exception as exc:
                    if self._record_failure(state, exc):
                        continue
                    failed.append(state)
                    break
                self._complete(state, result, results, on_result)
                completed += 1
                break
        return completed

    def _run_pool(
        self,
        states: list[_TaskState],
        results: dict,
        on_result,
        failed: list[_TaskState],
    ) -> None:
        """Drive the process-pool fan-out with retry and pool recovery."""
        pending = deque(states)
        while pending:
            if self.report.pool_failures > self.retry.max_pool_failures:
                # The pool keeps dying — stop burning workers and finish
                # the remainder serially in this process.
                self.report.serial_fallback = True
                self._run_serial(list(pending), results, on_result, failed)
                pending.clear()
                break
            pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_worker_init
            )
            broken = False
            try:
                futures = {
                    pool.submit(_run_attempt, *self._attempt_args(s)): s
                    for s in pending
                }
                pending.clear()
                while futures:
                    done, _ = wait(
                        list(futures), return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        state = futures.pop(future)
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            # A worker died (crash fault, OOM kill, ...).
                            # Charge the attempt to every task still in
                            # flight — the culprit is indistinguishable —
                            # and respawn for the incomplete remainder.
                            broken = True
                            self.report.pool_failures += 1
                            victims = [state, *futures.values()]
                            futures.clear()
                            for victim in victims:
                                if self._record_failure(
                                    victim, BrokenProcessPool(
                                        "worker process died"
                                    )
                                ):
                                    pending.append(victim)
                                else:
                                    failed.append(victim)
                            break
                        except Exception as exc:
                            if self._record_failure(state, exc):
                                futures[pool.submit(
                                    _run_attempt, *self._attempt_args(state)
                                )] = state
                            else:
                                failed.append(state)
                        else:
                            self._complete(state, result, results, on_result)
                    if broken:
                        break
            finally:
                # cancel_futures so a KeyboardInterrupt (or fatal error)
                # tears the pool down instead of waiting out queued work.
                pool.shutdown(wait=not broken, cancel_futures=True)


def _workload_identity(name: str) -> str:
    """The store-key identity of a workload name.

    Registry and fuzzer names identify their traces by construction (the
    code fingerprint covers generator changes).  Trace-backed names
    (``trace:<path>``) identify by the trace file's *content* fingerprint
    instead of its path, so moving or re-recording a trace behaves
    correctly: same bytes hit, different bytes miss.
    """
    from repro.workloads import TRACE_NAME_PREFIX

    if name.startswith(TRACE_NAME_PREFIX):
        from repro.trace.capture import trace_fingerprint

        return f"trace:{trace_fingerprint(name[len(TRACE_NAME_PREFIX):])}"
    return name


def pair_key(
    scale: float, name: str, num_threads: int, machine: str | None = None
) -> str:
    """Artifact key for one (benchmark, machine) pass at ``scale``.

    The key covers the workload identity and scale, the evaluation
    machine's full configuration (which fingerprints its hierarchy
    backend too), and the package code fingerprint — everything a profile
    or full run is a deterministic function of.

    Public fan-out submission hook: callers outside the runner (the
    ``repro serve`` supervisor) use this to predict where a pass's
    artifacts land — for warm-store short-circuiting and for coalescing
    identical requests onto one computation.
    """
    return ArtifactStore.derive_key(
        workload=_workload_identity(name),
        threads=num_threads,
        scale=scale,
        machine=_resolve_machine(num_threads, machine).fingerprint(),
        code=code_fingerprint(),
    )


#: Pass kinds the artifact store persists and the checkpoint journal
#: records.  Every other kind is derived from them in memory.
STORED_KINDS = ("profiles", "full")


def sweep_kind(variant: str) -> str:
    """Pass kind of a signature variant's k sweep (fitted to ``maxK``)."""
    return f"sweep:{variant}"


def warmup_kind(warmup: str) -> str:
    """Pass kind of the warmed evaluation (``"mru"`` or ``"cold"``)."""
    return f"warmup:{warmup}"


def _kind_inputs(kind: str) -> tuple[str, ...]:
    """The stored passes a pass kind is computed from.

    Raises:
        ConfigError: For an unknown kind.
    """
    family, _, arg = kind.partition(":")
    if kind in STORED_KINDS:
        return ()
    if family == "sweep" and arg in SIGNATURE_VARIANTS:
        return ("profiles",)
    if family == "warmup" and arg in ("mru", "cold"):
        return STORED_KINDS
    raise ConfigError(f"unknown pass kind {kind!r}")


def compute_pair(
    name: str,
    num_threads: int,
    scale: float,
    store_root: str | None,
    machine: str | None = None,
    kinds: tuple[str, ...] = STORED_KINDS,
    simpoint: SimPointConfig | None = None,
) -> tuple[str, int, str | None, dict]:
    """Pool worker: compute the passes of one (benchmark, machine) pair.

    Public fan-out submission hook: a picklable module-level function
    shared by :meth:`ExperimentRunner.prefetch` and the ``repro serve``
    job supervisor — both submit it through
    :class:`FaultTolerantFanout`, so a served job inherits the
    retry/timeout/fault-injection semantics (and the byte-identical
    results) of the batch path.

    Every pass runs through a serial, single-pair
    :class:`ExperimentRunner` on the same store, so it takes the code
    path the parent would and gives the same bytes: stored passes are
    loaded from the store when present and otherwise computed and
    stored, and derived passes read their inputs the same way.

    Args:
        name: Workload name.
        num_threads: Thread count of the pair.
        scale: Workload scale.
        store_root: Artifact-store root (``None`` skips persistence).
        machine: Registry machine name (``None`` = the default
            evaluation machine for ``num_threads``).
        kinds: Pass kinds to compute and return: ``"profiles"``,
            ``"full"``, :func:`sweep_kind` and :func:`warmup_kind` kinds.
        simpoint: SimPoint parameters of the derived passes (``None`` =
            the defaults).

    Returns:
        ``(name, num_threads, machine, states)`` where ``states`` maps
        ``"profiles"`` to a list of :meth:`RegionProfile.to_state` dicts,
        ``"full"`` to a :meth:`FullRunResult.to_state` dict, each sweep
        kind to its fitted :class:`~repro.clustering.simpoint.KSweep`
        and each warmup kind to its
        :class:`~repro.core.pipeline.PipelineResult`.
    """
    runner = ExperimentRunner(
        scale=scale, benchmarks=(name,), workers=0,
        simpoint=simpoint or simpoint_defaults(),
        store=(
            ArtifactStore(root=store_root) if store_root is not None else None
        ),
    )
    states: dict = {}
    for kind in kinds:
        if kind == "profiles":
            profiles = runner.profiles(name, num_threads, machine)
            states[kind] = [p.to_state() for p in profiles]
        elif kind == "full":
            states[kind] = runner.full(name, num_threads, machine).to_state()
        else:
            slot, slot_key = runner._derived_slot(
                kind, name, num_threads, machine
            )
            family, _, arg = kind.partition(":")
            if family == "sweep":
                runner.selection(name, num_threads, arg, machine=machine)
            else:
                runner.evaluate_warmup(name, num_threads, arg)
            states[kind] = slot[slot_key]
    return name, num_threads, machine, states


@dataclass
class ExperimentRunner:
    """Memoizing, store-backed driver for all experiments.

    ``scale`` shrinks workloads uniformly (1.0 = the calibrated default
    used for all reported numbers; tests use smaller values for speed).
    ``benchmarks`` defaults to the paper's full suite.  ``workers`` > 1
    enables the process-parallel prefetch, which computes each pair's
    profiles, full run, k sweeps and warmed evaluations in a worker
    (default from ``$REPRO_WORKERS``; results are identical either way).
    ``store`` persists the expensive artifacts across processes and runs;
    pass ``None`` to keep everything in memory.  ``sweep_machines`` names
    the registry machines the cross-architecture sweep iterates.

    Fault tolerance: ``retry`` bounds per-task retries/backoff/timeouts,
    ``resume`` makes the runner trust the checkpoint journal of an
    earlier (killed) run with the same configuration, and ``report``
    accumulates the structured end-of-run failure report.  None of these
    affect results — every recovery path recomputes the same
    deterministic function.
    """

    scale: float = 1.0
    benchmarks: tuple[str, ...] = WORKLOAD_NAMES
    simpoint: SimPointConfig = field(default_factory=simpoint_defaults)
    workers: int = field(default_factory=_default_workers)
    store: ArtifactStore | None = field(default_factory=ArtifactStore)
    sweep_machines: tuple[str, ...] = DEFAULT_SWEEP_MACHINES
    retry: RetryPolicy = field(default_factory=RetryPolicy.from_env)
    resume: bool = False
    report: RunReport = field(default_factory=RunReport, repr=False)
    _workloads: dict = field(default_factory=dict, repr=False)
    _profiles: dict = field(default_factory=dict, repr=False)
    _fulls: dict = field(default_factory=dict, repr=False)
    _selections: dict = field(default_factory=dict, repr=False)
    _sweeps: dict = field(default_factory=dict, repr=False)
    _warmups: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Store plumbing
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Digest of the runner's result-determining configuration.

        Covers scale, benchmark suite, and SimPoint parameters — the
        inputs a rendered figure depends on beyond the code itself.
        ``workers``, the store, and the fault-tolerance knobs (``retry``,
        ``resume``) are excluded: they never change results.  ``sweep_machines`` is excluded too — only the sweep
        figure consults it, and its cache key mixes the machine set in
        separately (see ``battery.figure_key``) so a ``--machines``
        change cannot spuriously invalidate the battery figures.
        """
        return ArtifactStore.derive_key(
            scale=self.scale,
            benchmarks=[_workload_identity(b) for b in self.benchmarks],
            simpoint=self.simpoint.fingerprint(),
        )

    def _store_get(self, kind: str, key: str) -> object | None:
        """Store lookup that tolerates a disabled/absent store."""
        if self.store is None:
            return None
        return self.store.get(kind, key)

    def _store_put(self, kind: str, key: str, payload: object) -> None:
        """Store write that tolerates a disabled/absent store."""
        if self.store is not None:
            self.store.put(kind, key, payload)

    def journal(self) -> RunJournal | None:
        """The checkpoint journal for this configuration (if storable)."""
        return RunJournal.for_runner(self.store, self.fingerprint())

    # ------------------------------------------------------------------
    # Parallel prefetch
    # ------------------------------------------------------------------

    def sweep_pairs(
        self,
        machines: tuple[str, ...] | None = None,
        benchmarks: tuple[str, ...] | None = None,
    ) -> list[tuple[str, int, str]]:
        """The (benchmark, threads, machine) passes a sweep needs.

        Args:
            machines: Registry machine names (default ``sweep_machines``).
            benchmarks: Workload names (default ``benchmarks``).

        Returns:
            One triple per (benchmark, machine) cell; each machine runs
            the workload at its own full core count.
        """
        machines = self.sweep_machines if machines is None else machines
        benchmarks = self.benchmarks if benchmarks is None else benchmarks
        return [
            (b, get_machine(m).num_cores, m)
            for b in benchmarks
            for m in machines
        ]

    def prefetch(
        self,
        pairs: list[tuple] | dict[tuple, tuple[str, ...]] | None = None,
        kinds: tuple[str, ...] = STORED_KINDS,
    ) -> int:
        """Fan the missing passes out across processes, one task per pair.

        Every requested pass not already memoized, in the store, or
        (under ``resume``) checkpointed by a previous run is computed in
        a :class:`~concurrent.futures.ProcessPoolExecutor` with
        ``self.workers`` workers.  Profiles and full runs land in the
        in-memory memo and (when a store is configured) on disk, where
        other processes can reuse them; k sweeps and warmed evaluations
        land in the memo only.  Each pass is deterministic, so the
        outcome is identical to computing serially.

        A derived pass (sweep or warmup) brings its missing stored
        inputs along: they are computed, stored and memoized like
        requested passes.  Inputs already in the store are loaded by the
        task, never recomputed or rewritten.  A derived pass whose input
        only this process holds (memoized, not stored) is left to the
        serial path, so no pass is ever computed twice.

        Failures are retried under :attr:`retry`; a broken pool is
        respawned (only incomplete tasks are resubmitted) and repeated
        pool failures degrade to serial in-process execution.  Completed
        passes are journaled as they land, and a task that exhausts its
        retry budget raises
        :class:`~repro.errors.RetryExhaustedError` *after* every other
        task has been drained — one bad pass never discards the rest of
        the battery's work.

        Args:
            pairs: ``(benchmark, num_threads)`` pairs — or ``(benchmark,
                num_threads, machine_name)`` triples for sweep passes on
                registry machines — to cover; defaults to ``benchmarks``
                × ``CORE_COUNTS`` on the default evaluation machines.  A
                mapping from pair to kinds gives each pair its own kinds
                (``kinds`` is then ignored).
            kinds: Which pass kinds to cover: ``"profiles"``, ``"full"``,
                :func:`sweep_kind` and :func:`warmup_kind` kinds; callers
                that know what their figures read restrict the fan-out
                to it.  Warmup kinds apply to the default evaluation
                machines only.

        Returns:
            Number of passes computed by the fan-out (0 when everything
            was already available or ``workers`` <= 1).

        Raises:
            ConfigError: For an unknown kind, or a warmup kind on a
                registry machine.
            RetryExhaustedError: When at least one task kept failing
                through its whole attempt budget.
        """
        if pairs is None:
            pairs = [(b, nt) for b in self.benchmarks for nt in CORE_COUNTS]
        if not isinstance(pairs, dict):
            pairs = dict.fromkeys(pairs, kinds)
        journal = self.journal()
        checkpointed: dict[str, set[str]] = {}
        if self.resume and journal is not None:
            checkpointed = journal.completed_passes()
        tasks: list[FanoutTask] = []
        store_root = None
        if self.store is not None and self.store.enabled:
            store_root = str(self.store.root)
        for pair, pair_kinds in pairs.items():
            name, num_threads, machine = (
                pair if len(pair) == 3 else (*pair, None)
            )
            memo_key = (name, num_threads, machine)
            akey = pair_key(self.scale, name, num_threads, machine)
            # ``_kind_inputs`` rejects unknown kinds and is empty exactly
            # for the stored ones.
            derived = [
                kind for kind in pair_kinds
                if _kind_inputs(kind) and not self._holds(kind, *memo_key)
            ]
            needed = set(pair_kinds).union(*map(_kind_inputs, derived))
            held = {
                "profiles": memo_key in self._profiles,
                "full": memo_key in self._fulls,
            }
            stored = {
                kind: self.store is not None and self.store.has(kind, akey)
                for kind in STORED_KINDS
            }
            wanted = [
                kind for kind in STORED_KINDS
                if kind in needed and not (held[kind] or stored[kind])
            ]
            # The task could only recompute an input that is memoized here
            # but not stored; such a derived pass stays on the serial path.
            derived = [
                kind for kind in derived
                if not any(held[i] and not stored[i]
                           for i in _kind_inputs(kind))
            ]
            # A journaled pass whose artifacts vanished from the store is
            # recomputed — the journal is trusted only together with the
            # artifacts it points at (``wanted`` above already checked those).
            if not wanted and checkpointed.get(akey):
                self.report.resumed += 1
            if not (wanted or derived):
                continue
            tasks.append(FanoutTask(
                key=akey,
                label=_pair_label(name, num_threads, machine),
                args=(name, num_threads, self.scale, store_root, machine,
                      (*wanted, *derived), self.simpoint),
                meta=memo_key,
            ))
        if not tasks or self.workers <= 1:
            return 0
        from repro.machines import MACHINE_SPECS

        runtime_only = sorted({
            t.meta[2] for t in tasks
            if t.meta[2] is not None and t.meta[2] not in MACHINE_SPECS
        })
        if runtime_only:
            # Runtime registrations are per-process; pool workers would
            # fail with a misleading "unknown machine".  Fail fast here.
            raise ConfigError(
                f"machines {runtime_only} are runtime-registered and not "
                f"visible to worker processes; run with workers <= 1 or "
                f"add them to repro.machines.specs.MACHINE_SPECS"
            )
        completed = 0

        def _absorb(task: FanoutTask, result: tuple) -> None:
            """Memoize/journal one completed pass as it lands."""
            nonlocal completed
            _, _, _, payload = result
            completed += self._ingest(task, payload, journal)

        fanout = FaultTolerantFanout(
            fn=compute_pair, workers=self.workers,
            retry=self.retry, report=self.report,
        )
        fanout.run(tasks, on_result=_absorb)
        return completed

    def _holds(
        self, kind: str, name: str, num_threads: int, machine: str | None
    ) -> bool:
        """Whether a derived pass is already memoized."""
        slot, key = self._derived_slot(kind, name, num_threads, machine)
        return key in slot

    def _derived_slot(
        self, kind: str, name: str, num_threads: int, machine: str | None
    ) -> tuple[dict, tuple]:
        """The memo and key a derived (sweep or warmup) pass lands in.

        Raises:
            ConfigError: For a warmup kind on a registry machine, which
                :meth:`evaluate_warmup` does not evaluate.
        """
        family, _, arg = kind.partition(":")
        if family == "sweep":
            return self._sweeps, (name, num_threads, arg, machine)
        if machine is not None:
            raise ConfigError(
                f"{kind} runs on the default evaluation machines, "
                f"not {machine!r}"
            )
        return self._warmups, (name, num_threads, arg)

    def _ingest(
        self, task: FanoutTask, states: dict, journal: RunJournal | None
    ) -> int:
        """Absorb one completed task: memoize its passes, journal the stored.

        Args:
            task: The completed fan-out task (``meta`` is the memo key).
            states: The worker's payload (see :func:`compute_pair`).
            journal: Checkpoint journal (``None`` = no checkpointing).

        Returns:
            Number of passes completed (for the prefetch count).
        """
        name, num_threads, machine = task.meta
        for kind, state in states.items():
            if kind == "profiles":
                self._profiles[task.meta] = [
                    RegionProfile.from_state(s) for s in state
                ]
            elif kind == "full":
                self._fulls[task.meta] = FullRunResult.from_state(state)
            else:
                slot, key = self._derived_slot(
                    kind, name, num_threads, machine
                )
                slot[key] = state
        stored = tuple(kind for kind in STORED_KINDS if kind in states)
        if journal is not None and stored:
            journal.record_pass(task.key, name, num_threads, machine, stored)
        return len(states)

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------

    def workload(self, name: str, num_threads: int) -> Workload:
        """Workload instance (cached)."""
        key = (name, num_threads)
        if key not in self._workloads:
            self._workloads[key] = get_workload(name, num_threads, self.scale)
        return self._workloads[key]

    def pipeline(
        self, num_threads: int, signature: SignatureConfig | None = None,
        simpoint: SimPointConfig | None = None,
        machine: str | None = None,
    ) -> BarrierPointPipeline:
        """A pipeline bound to an evaluation machine.

        Args:
            num_threads: Core count selecting the default evaluation
                machine (ignored when ``machine`` is given).
            signature: Signature variant override.
            simpoint: SimPoint parameter override.
            machine: Registry machine name (sweep passes); ``None`` keeps
                the default Table I machine for ``num_threads``.

        Returns:
            The configured pipeline.
        """
        return BarrierPointPipeline(
            _resolve_machine(num_threads, machine),
            signature=signature,
            simpoint=simpoint or self.simpoint,
        )

    def profiles(
        self, name: str, num_threads: int, machine: str | None = None
    ) -> list[RegionProfile]:
        """Functional profiles (one expensive pass; memo + store cached)."""
        key = (name, num_threads, machine)
        if key not in self._profiles:
            akey = pair_key(self.scale, name, num_threads, machine)
            states = self._store_get("profiles", akey)
            if states is not None:
                self._profiles[key] = [
                    RegionProfile.from_state(s) for s in states
                ]
            else:
                pipe = self.pipeline(num_threads, machine=machine)
                computed = pipe.profile(self.workload(name, num_threads))
                self._store_put(
                    "profiles", akey, [p.to_state() for p in computed]
                )
                self._profiles[key] = computed
        return self._profiles[key]

    def full(
        self, name: str, num_threads: int, machine: str | None = None
    ) -> FullRunResult:
        """Full detailed reference run (one expensive pass; memo + store)."""
        key = (name, num_threads, machine)
        if key not in self._fulls:
            akey = pair_key(self.scale, name, num_threads, machine)
            state = self._store_get("full", akey)
            if state is not None:
                self._fulls[key] = FullRunResult.from_state(state)
            else:
                pipe = self.pipeline(num_threads, machine=machine)
                computed = pipe.full_run(self.workload(name, num_threads))
                self._store_put("full", akey, computed.to_state())
                self._fulls[key] = computed
        return self._fulls[key]

    def selection(
        self,
        name: str,
        num_threads: int,
        variant: str = "combine",
        max_k: int | None = None,
        machine: str | None = None,
    ) -> BarrierPointSelection:
        """Barrierpoint selection for a signature variant (cached).

        ``max_k=None`` means the runner's ``simpoint.max_k``.  Every
        ``max_k`` of one ``(name, num_threads, variant, machine)`` shares
        one k sweep, so each k is fitted once.
        """
        if max_k is None:
            max_k = self.simpoint.max_k
        key = (name, num_threads, variant, max_k, machine)
        if key not in self._selections:
            signature = SIGNATURE_VARIANTS[variant]
            simpoint = replace(self.simpoint, max_k=max_k)
            pipe = self.pipeline(num_threads, signature, simpoint, machine)
            workload = self.workload(name, num_threads)
            sweep_key = (name, num_threads, variant, machine)
            if sweep_key not in self._sweeps:
                self._sweeps[sweep_key] = pipe.sweep(
                    workload, self.profiles(name, num_threads, machine)
                )
            self._selections[key] = pipe.select(
                workload, sweep=self._sweeps[sweep_key]
            )
        return self._selections[key]

    # ------------------------------------------------------------------
    # Evaluations
    # ------------------------------------------------------------------

    def evaluate_perfect(
        self,
        name: str,
        num_threads: int,
        variant: str = "combine",
        max_k: int | None = None,
        scaling: bool = True,
    ) -> PipelineResult:
        """Perfect-warmup evaluation (section VI-A protocol)."""
        sel = self.selection(name, num_threads, variant, max_k)
        pipe = self.pipeline(num_threads, SIGNATURE_VARIANTS[variant])
        return pipe.evaluate_perfect(sel, self.full(name, num_threads), scaling)

    def evaluate_warmup(
        self, name: str, num_threads: int, warmup_kind: str = "mru"
    ) -> PipelineResult:
        """Independent barrierpoint simulation with warmup (Fig. 7); cached."""
        key = (name, num_threads, warmup_kind)
        if key not in self._warmups:
            sel = self.selection(name, num_threads)
            pipe = self.pipeline(num_threads)
            self._warmups[key] = pipe.evaluate_with_warmup(
                sel,
                self.workload(name, num_threads),
                self.full(name, num_threads),
                warmup_kind,
            )
        return self._warmups[key]
