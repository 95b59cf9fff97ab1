"""Job-queue supervisor of the experiment service: coalescing + journal.

The supervisor owns everything between the HTTP API and the execution
engine:

* a bounded pool of worker *threads*, each executing one computation at
  a time through a serial :class:`~repro.experiments.common.FaultTolerantFanout`
  — so a served job inherits the batch runner's retry/backoff and
  fault-injection semantics wholesale (``runner.task`` faults are
  retried; exhaustion fails the job with a structured error, never a
  hang);
* **request coalescing**: submissions are fingerprinted
  (:meth:`~repro.serve.jobs.JobSpec.fingerprint`) and an identical
  submission while the first is queued or running attaches to the same
  computation — N identical submissions resolve to one computation and
  N completions.  Submissions whose artifacts are already in the store
  complete instantly without computing anything (warm hits);
* a crash-tolerant JSONL **journal** (the PR 5 pattern: append + flush +
  fsync, torn final line tolerated) under ``<store>/serve/journal.jsonl``
  recording every submission and terminal state, so ``--resume``
  restores the queued/running backlog of a killed server and recomputes
  exactly that.

Worker threads, not processes: the expensive passes release the GIL in
their numpy kernels, results flow through the artifact store either
way, and per-task ``SIGALRM`` timeouts are unavailable off the main
thread — so the supervisor forces ``retry.timeout`` to ``None`` and
relies on retry budgets for liveness.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError, ReproError
from repro.experiments import battery
from repro.experiments.common import (
    FanoutTask,
    FaultTolerantFanout,
    RetryPolicy,
    _time_limit,
    compute_pair,
)
from repro.faults import maybe_inject
from repro.serve.jobs import JobRecord, JobSpec
from repro.store import ArtifactStore, put_count

#: Journal location under the artifact-store root.
JOURNAL_DIR = "serve"
JOURNAL_NAME = "journal.jsonl"


class ServiceDrainingError(ReproError):
    """A submission arrived while the service is draining for shutdown."""


def execute_job(task: tuple) -> list:
    """Worker function: execute one job spec to completion.

    Module-level and in the :class:`FaultTolerantFanout` convention
    (``(*args, attempt, timeout)``), so the supervisor's fan-out drives
    it with the same retry machinery as the batch runner.  ``profile``
    and ``full`` jobs go through :func:`compute_pair` — literally the
    batch runner's pool worker, with its ``runner.task`` fault site and
    store writes — so a served pass is byte-identical to a CLI pass by
    construction.  ``figure``/``sweep`` jobs drive
    :func:`battery.run_experiments` with a serial runner.

    Args:
        task: ``(spec_dict, store_root[, attempt, timeout])``.

    Returns:
        The job's ``[(artifact_kind, store_key), ...]`` list.
    """
    spec_dict, store_root, *rest = task
    attempt = rest[0] if rest else 0
    timeout = rest[1] if len(rest) > 1 else None
    spec = JobSpec.from_dict(spec_dict)
    if spec.kind in ("profile", "full"):
        want_profiles = spec.kind == "profile"
        compute_pair((
            spec.workload, spec.threads, spec.scale, store_root,
            want_profiles, not want_profiles, spec.machine, None, (),
            attempt, timeout,
        ))
        return [list(pair) for pair in spec.artifacts()]
    with _time_limit(timeout, spec.label()):
        maybe_inject("runner.task", key=spec.label(), attempt=attempt)
        store = (
            ArtifactStore(root=store_root)
            if store_root is not None
            else ArtifactStore(enabled=False)
        )
        battery.run_experiments(
            spec.runner(store), [spec.effective_figure()]
        )
    return [list(pair) for pair in spec.artifacts()]


class ServeJournal:
    """Append-only JSONL journal of the service's job lifecycle.

    Same durability contract as the runner's checkpoint journal: every
    event is flushed and fsynced as it is appended, and replay skips a
    torn final line (the crash may have landed mid-append) and any
    unparsable line — the journal under-promises rather than lies.

    While the service is busy the journal's mtime stays fresh, so the
    janitor's TTL/LRU sweeps (which treat every store file uniformly)
    leave an active journal alone.

    Args:
        path: The journal file (created on first append).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self._lock = threading.Lock()

    @classmethod
    def for_store(cls, store: ArtifactStore | None) -> ServeJournal | None:
        """The journal of a store-backed service (``None`` = nowhere durable).

        Args:
            store: The service's artifact store.

        Returns:
            The journal, or ``None`` when the store is absent/disabled.
        """
        if store is None or not store.enabled:
            return None
        return cls(store.root / JOURNAL_DIR / JOURNAL_NAME)

    def record(self, entry: dict) -> None:
        """Append one event durably (flush + fsync).

        Args:
            entry: JSON-ready event dict (must carry an ``"event"`` key).
        """
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())

    def replay(self) -> list[dict]:
        """Load every intact event, in append order.

        Returns:
            The event dicts (empty when no journal exists yet).
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        events: list[dict] = []
        for line in text.splitlines():
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "event" in entry:
                events.append(entry)
        return events

    def clear(self) -> None:
        """Delete the journal file."""
        try:
            self.path.unlink()
        except OSError:
            pass


@dataclass
class _Computation:
    """One deduplicated unit of work and the jobs riding on it."""

    fingerprint: str
    spec: JobSpec
    job_ids: list[str] = field(default_factory=list)
    state: str = "queued"


@dataclass
class ServeCounters:
    """Monotonic service counters surfaced by ``GET /stats``.

    Attributes:
        submitted: Jobs accepted (HTTP submissions + journal restores).
        coalesced: Submissions attached to an in-flight identical
            computation (the coalescing proof: ``submitted`` identical
            requests, ``computations`` = 1, ``coalesced`` = N - 1).
        cache_hits: Submissions served instantly from warm store
            artifacts.
        computations: Computations started (deduplicated work units).
        completed: Computations that finished successfully.
        failed: Computations that exhausted their retry budget.
        resumed: Jobs restored from the journal by ``--resume``.
    """

    submitted: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    computations: int = 0
    completed: int = 0
    failed: int = 0
    resumed: int = 0

    def to_dict(self) -> dict:
        """JSON-ready counter snapshot."""
        return {
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "computations": self.computations,
            "completed": self.completed,
            "failed": self.failed,
            "resumed": self.resumed,
        }


class JobSupervisor:
    """Bounded-worker job queue with request coalescing and a journal.

    Args:
        store: Artifact store backing results, warm hits, and the
            journal (default: the environment-configured store).
        workers: Worker-thread count (>= 1).
        retry: Retry/backoff budget per computation.  The per-task
            ``SIGALRM`` timeout is forced off — signals are unavailable
            in worker threads (see the module docstring).
        resume: Restore the journaled backlog on :meth:`start`.
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        workers: int = 1,
        retry: RetryPolicy | None = None,
        resume: bool = False,
    ) -> None:
        self.store = store if store is not None else ArtifactStore()
        self.workers = max(1, int(workers))
        retry = retry if retry is not None else RetryPolicy.from_env()
        self.retry = replace(retry, timeout=None)
        self.resume = resume
        self.journal = ServeJournal.for_store(self.store)
        self.counters = ServeCounters()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: list[_Computation] = []
        self._inflight: dict[str, _Computation] = {}
        self._jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._threads: list[threading.Thread] = []
        self._stop = False
        self._draining = False
        self._running = 0
        self._ids = itertools.count(1)
        self._put_base = put_count()
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Restore the journal (under ``resume``) and spawn the workers."""
        if self.resume:
            self._restore()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def drain(self, timeout: float | None = None) -> int:
        """Graceful shutdown: finish running jobs, leave the rest journaled.

        Workers stop taking new computations and finish the one they are
        on; queued computations stay in the journal (their jobs remain
        ``queued``) for a later ``--resume`` to complete.

        Args:
            timeout: Per-thread join budget in seconds.

        Returns:
            Number of computations left queued (journaled, not run).
        """
        with self._wakeup:
            self._draining = True
            self._stop = True
            self._wakeup.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        with self._lock:
            return len(self._queue)

    @property
    def draining(self) -> bool:
        """Whether the service has begun its shutdown drain."""
        return self._draining

    def begin_drain(self) -> None:
        """Reject new submissions from now on (drain phase one)."""
        with self._lock:
            self._draining = True

    # ------------------------------------------------------------------
    # Submission and queries
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Accept one job: coalesce, serve warm, or enqueue.

        Args:
            spec: The validated submission.

        Returns:
            The job's record (state ``queued``/``running`` when attached
            to a computation, ``done`` on a warm store hit).

        Raises:
            ServiceDrainingError: When the service is draining.
            ConfigError: When the spec's artifacts cannot be keyed
                (e.g. an unreadable ``trace:<path>`` workload).
        """
        fingerprint = spec.fingerprint()
        try:
            artifacts = spec.artifacts()
        except OSError as exc:
            raise ConfigError(
                f"cannot key job {spec.label()!r}: {exc}"
            ) from exc
        with self._wakeup:
            if self._draining:
                raise ServiceDrainingError(
                    "service is draining; not accepting new jobs"
                )
            record = JobRecord(
                id=f"job-{next(self._ids)}",
                spec=spec,
                fingerprint=fingerprint,
            )
            self.counters.submitted += 1
            computation = self._inflight.get(fingerprint)
            if computation is not None:
                record.coalesced = True
                record.state = computation.state
                computation.job_ids.append(record.id)
                self.counters.coalesced += 1
                self._admit(record)
            elif all(self.store.has(kind, key) for kind, key in artifacts):
                record.state = "done"
                record.cached = True
                record.artifacts = artifacts
                self.counters.cache_hits += 1
                self._admit(record)
                self._journal_event({
                    "event": "done",
                    "id": record.id,
                    "artifacts": [list(pair) for pair in artifacts],
                    "cached": True,
                })
            else:
                computation = _Computation(
                    fingerprint=fingerprint, spec=spec,
                    job_ids=[record.id],
                )
                self._inflight[fingerprint] = computation
                self._queue.append(computation)
                self.counters.computations += 1
                self._admit(record)
                self._wakeup.notify()
            return record

    def _admit(self, record: JobRecord) -> None:
        """Register a job record and journal its submission (lock held)."""
        self._jobs[record.id] = record
        self._order.append(record.id)
        self._journal_event({
            "event": "submit",
            "id": record.id,
            "fingerprint": record.fingerprint,
            "spec": record.spec.to_dict(),
            "coalesced": record.coalesced,
        })

    def job(self, job_id: str) -> JobRecord | None:
        """Look up one job record by id."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[JobRecord]:
        """Every job record, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def stats(self) -> dict:
        """The service's statistics snapshot (``GET /stats``)."""
        with self._lock:
            queued = len(self._queue)
            running = self._running
            counters = self.counters.to_dict()
        return {
            "uptime_s": round(time.time() - self._started_at, 3),
            "workers": self.workers,
            "draining": self._draining,
            "jobs": dict(counters, queued=queued, running=running),
            "store": {
                "root": str(self.store.root),
                "enabled": self.store.enabled,
                "hits": self.store.hits,
                "misses": self.store.misses,
                "puts": put_count() - self._put_base,
            },
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        """One worker thread: take computations until told to stop."""
        while True:
            with self._wakeup:
                while not self._queue and not self._stop:
                    self._wakeup.wait()
                if self._stop:
                    return
                computation = self._queue.pop(0)
                computation.state = "running"
                self._running += 1
                for job_id in computation.job_ids:
                    self._jobs[job_id].state = "running"
            try:
                self._run_computation(computation)
            finally:
                with self._lock:
                    self._running -= 1

    def _run_computation(self, computation: _Computation) -> None:
        """Execute one computation through the fault-tolerant fan-out."""
        store_root = (
            str(self.store.root) if self.store.enabled else None
        )
        task = FanoutTask(
            key=computation.fingerprint,
            label=computation.spec.label(),
            args=(computation.spec.to_dict(), store_root),
        )
        fanout = FaultTolerantFanout(
            fn=execute_job, workers=0, retry=self.retry
        )
        error: str | None = None
        artifacts: tuple[tuple[str, str], ...] = ()
        try:
            results = fanout.run([task])
            artifacts = tuple(
                (kind, key) for kind, key in results[task.key]
            )
        except ReproError as exc:
            error = str(exc)
        except Exception as exc:  # pragma: no cover - defensive
            error = f"{type(exc).__name__}: {exc}"
        report = fanout.report.tasks[0]
        with self._lock:
            self._inflight.pop(computation.fingerprint, None)
            computation.state = "failed" if error else "done"
            if error:
                self.counters.failed += 1
            else:
                self.counters.completed += 1
            for job_id in computation.job_ids:
                record = self._jobs[job_id]
                record.attempts = report.attempts
                record.errors = tuple(report.errors)
                if error:
                    record.state = "failed"
                    record.error = error
                    self._journal_event({
                        "event": "failed", "id": job_id, "error": error,
                    })
                else:
                    record.state = "done"
                    record.artifacts = artifacts
                    self._journal_event({
                        "event": "done",
                        "id": job_id,
                        "artifacts": [list(pair) for pair in artifacts],
                    })

    # ------------------------------------------------------------------
    # Journal restore
    # ------------------------------------------------------------------

    def _journal_event(self, entry: dict) -> None:
        """Record one journal event (no-op without a durable journal)."""
        if self.journal is not None:
            self.journal.record(entry)

    def _restore(self) -> None:
        """Rebuild job records from the journal; re-enqueue the backlog.

        Jobs with a terminal event are restored as-is (their artifacts
        stay fetchable); jobs that were queued or running when the
        server died are re-submitted to the queue, coalescing again by
        fingerprint.  Restored events are not re-journaled — the journal
        already has them; only genuinely new events append.
        """
        if self.journal is None:
            return
        events = self.journal.replay()
        records: dict[str, JobRecord] = {}
        order: list[str] = []
        for entry in events:
            event, job_id = entry.get("event"), entry.get("id")
            if not isinstance(job_id, str):
                continue
            if event == "submit":
                try:
                    spec = JobSpec.from_dict(entry.get("spec"))
                except ReproError:
                    continue
                records[job_id] = JobRecord(
                    id=job_id,
                    spec=spec,
                    fingerprint=entry.get("fingerprint", spec.fingerprint()),
                    coalesced=bool(entry.get("coalesced")),
                    resumed=True,
                )
                order.append(job_id)
            elif event == "done" and job_id in records:
                record = records[job_id]
                record.state = "done"
                record.cached = bool(entry.get("cached"))
                record.artifacts = tuple(
                    (kind, key)
                    for kind, key in entry.get("artifacts", [])
                )
            elif event == "failed" and job_id in records:
                records[job_id].state = "failed"
                records[job_id].error = entry.get("error")
        highest = 0
        with self._lock:
            for job_id in order:
                record = records[job_id]
                number = job_id.rsplit("-", 1)[-1]
                if number.isdigit():
                    highest = max(highest, int(number))
                self._jobs[job_id] = record
                self._order.append(job_id)
                self.counters.submitted += 1
                self.counters.resumed += 1
                if record.state != "queued":
                    continue
                computation = self._inflight.get(record.fingerprint)
                if computation is not None:
                    record.coalesced = True
                    computation.job_ids.append(job_id)
                    self.counters.coalesced += 1
                    continue
                # Artifacts may have landed after the last journal entry
                # (the done event was lost with the process): trust only
                # what is actually in the store.
                try:
                    artifacts = record.spec.artifacts()
                except OSError:
                    record.state = "failed"
                    record.error = "resume: job inputs no longer readable"
                    continue
                if all(
                    self.store.has(kind, key) for kind, key in artifacts
                ):
                    record.state = "done"
                    record.cached = True
                    record.artifacts = artifacts
                    self.counters.cache_hits += 1
                    self._journal_event({
                        "event": "done",
                        "id": job_id,
                        "artifacts": [list(pair) for pair in artifacts],
                        "cached": True,
                    })
                    continue
                computation = _Computation(
                    fingerprint=record.fingerprint,
                    spec=record.spec,
                    job_ids=[job_id],
                )
                self._inflight[record.fingerprint] = computation
                self._queue.append(computation)
                self.counters.computations += 1
            self._ids = itertools.count(highest + 1)
