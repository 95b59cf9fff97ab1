"""Store-backed trace corpus: an indexed scenario farm over ``.rpt`` files.

A corpus is a named set of recorded traces living in the artifact store
(kind ``"traces"``, the same content-keyed slots ``store_trace`` uses)
plus a *manifest* — a pickled index artifact (kind ``"corpus"``) listing
every entry's workload coordinates, content fingerprint, and store key.
Batch-recording fuzz seed ranges turns the seeded
:class:`~repro.trace.generators.ScenarioFuzzer` into a corpus of
scenarios that `repro trace corpus verify` sweeps with the
differential-conformance battery: every entry × every hierarchy backend,
unsharded replay vs. sharded-merged replay, digests compared exactly.

Integrity and GC interplay:

* The manifest and the trace files are ordinary store artifacts — the
  PR 5 janitor may evict them under TTL/quota pressure, and every hit
  touches mtime (LRU).  A manifest that exists but fails its checksum
  (torn write, bit rot) is surfaced as a **loud**
  :class:`~repro.errors.TraceFormatError`, never an empty corpus: the
  store reports corrupt-pickle as a miss, so ``has() and get() is None``
  is the tell.
* Resolving an entry re-validates the stored trace end to end
  (:func:`~repro.trace.capture.validate_trace`); a GC-evicted or
  corrupted trace raises loudly instead of verifying garbage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import tempfile
from dataclasses import dataclass

from repro.errors import ConfigError, TraceFormatError
from repro.trace.capture import (
    TraceReader,
    record_trace,
    trace_store_key,
    validate_trace,
)

#: Manifest schema version; bumped on any layout change (old manifests
#: become unreachable rather than misread).
CORPUS_FORMAT = 1

#: Default shard count of the conformance sweep's sharded replay leg.
DEFAULT_VERIFY_SHARDS = 3


def full_run_digest(full) -> str:
    """Deterministic digest of a detailed-simulation result.

    A 16-hex-digit SHA-256 over the canonical JSON form of
    :meth:`~repro.sim.machine.FullRunResult.to_state` — order-sensitive
    and exact in every float, so two results digest equal iff they are
    bit-identical.  The conformance sweep compares this *per hierarchy
    backend*: functional profiles are backend-independent, but detailed
    simulation is where the backends (and any merge bug that perturbs
    warmup state) actually diverge.

    Args:
        full: A :class:`~repro.sim.machine.FullRunResult`.

    Returns:
        The digest string.
    """
    raw = json.dumps(
        full.to_state(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:16]


@dataclass(frozen=True)
class CorpusEntry:
    """One indexed trace of a corpus.

    Attributes:
        workload: Recorded workload name (e.g. ``"fuzz-11"``).
        num_threads: Recorded thread count.
        scale: Recorded scale factor.
        fingerprint: Content fingerprint of the trace file
            (:func:`~repro.trace.capture.trace_fingerprint`).
        store_key: Artifact-store key of the trace file (kind
            ``"traces"``).
        code_fingerprint: The package code fingerprint the trace was
            recorded under.
        num_regions: Recorded region count.
    """

    workload: str
    num_threads: int
    scale: float
    fingerprint: str
    store_key: str
    code_fingerprint: str
    num_regions: int

    @property
    def label(self) -> str:
        """Human identity (``workload/threads``)."""
        return f"{self.workload}/{self.num_threads}t"

    def to_dict(self) -> dict:
        """Plain-dict form (manifest payload)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, state: dict) -> CorpusEntry:
        """Rebuild an entry from its :meth:`to_dict` form."""
        return cls(**state)

    @classmethod
    def from_trace(cls, path: str | os.PathLike) -> CorpusEntry:
        """Describe a trace file as a corpus entry.

        Args:
            path: The ``.rpt`` file.

        Returns:
            The entry (store key derived from the trace's own metadata,
            exactly as :func:`~repro.trace.capture.store_trace` keys it).
        """
        reader = TraceReader(path)
        code = reader.meta.get("code_fingerprint", "")
        return cls(
            workload=reader.meta["workload"],
            num_threads=reader.num_threads,
            scale=reader.meta["scale"],
            fingerprint=reader.fingerprint(),
            store_key=trace_store_key(
                reader.meta["workload"], reader.num_threads,
                reader.meta["scale"], code=code,
            ),
            code_fingerprint=code,
            num_regions=reader.num_regions,
        )


class TraceCorpus:
    """A named, store-backed corpus of recorded traces.

    Parameters
    ----------
    store:
        The :class:`~repro.store.ArtifactStore` holding the manifest and
        the trace files.
    name:
        Corpus name; distinct names are independent indexes in the same
        store.
    """

    def __init__(self, store, name: str = "default") -> None:
        if store is None or not store.enabled:
            raise ConfigError(
                "a trace corpus needs an enabled artifact store "
                "(set REPRO_STORE_DIR or pass an explicit store root)"
            )
        self.store = store
        self.name = name

    @property
    def manifest_key(self) -> str:
        """Store key of this corpus's manifest artifact."""
        from repro.store import ArtifactStore

        return ArtifactStore.derive_key(
            corpus=self.name, format=CORPUS_FORMAT
        )

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------

    def entries(self) -> list[CorpusEntry]:
        """Load the corpus index.

        Returns:
            The indexed entries, in recording order (empty when no
            manifest has been written yet).

        Raises:
            TraceFormatError: When a manifest artifact exists but fails
                its integrity check (torn write, corruption) — a corrupt
                index must never read as an empty corpus.
        """
        exists = self.store.has("corpus", self.manifest_key)
        manifest = self.store.get("corpus", self.manifest_key)
        if manifest is None:
            if exists:
                raise TraceFormatError(
                    f"corpus {self.name!r}: manifest artifact is corrupt "
                    f"(checksum failure) — the store dropped it; "
                    f"re-record the corpus with `repro trace corpus "
                    f"record`"
                )
            return []
        return [CorpusEntry.from_dict(e) for e in manifest["entries"]]

    def _save(self, entries: list[CorpusEntry]) -> None:
        """Write the manifest artifact."""
        self.store.put("corpus", self.manifest_key, {
            "format": CORPUS_FORMAT,
            "name": self.name,
            "entries": [e.to_dict() for e in entries],
        })

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def add_trace(self, path: str | os.PathLike) -> CorpusEntry:
        """Store a trace file and index it (content-deduplicated).

        Args:
            path: A recorded ``.rpt`` file.

        Returns:
            The (possibly pre-existing) entry for the trace's content.
        """
        from repro.trace.capture import store_trace

        entry = CorpusEntry.from_trace(path)
        entries = self.entries()
        for existing in entries:
            if existing.fingerprint == entry.fingerprint:
                return existing
        store_trace(self.store, path)
        self._save(entries + [entry])
        return entry

    def record_fuzz_range(
        self, seeds, num_threads: int, scale: float
    ) -> list[CorpusEntry]:
        """Batch-record fuzzer scenarios into the corpus.

        Each seed's ``fuzz-<seed>`` scenario is generated, recorded to a
        temporary file, stored content-keyed, and indexed.  Recording is
        deterministic per ``(seed, num_threads, scale, code)``, so
        re-recording an already-indexed seed deduplicates.

        Args:
            seeds: Iterable of fuzzer seeds (validated by
                :class:`~repro.trace.generators.ScenarioFuzzer`).
            num_threads: Thread count to record at.
            scale: Scale factor to record at.

        Returns:
            One entry per seed, in seed order.
        """
        from repro.workloads import get_workload

        recorded: list[CorpusEntry] = []
        workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-corpus-"))
        try:
            for seed in seeds:
                workload = get_workload(f"fuzz-{seed}", num_threads, scale)
                path = record_trace(workload, workdir / f"fuzz-{seed}.rpt")
                recorded.append(self.add_trace(path))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return recorded

    # ------------------------------------------------------------------
    # Resolution + conformance
    # ------------------------------------------------------------------

    def resolve(self, entry: CorpusEntry) -> pathlib.Path:
        """The validated on-disk path of an entry's trace.

        Args:
            entry: An indexed entry.

        Returns:
            The stored trace path (fully CRC-validated).

        Raises:
            TraceFormatError: When the trace is missing from the store
                (GC-evicted) or failed validation (corrupted) — the
                caller must re-record, never merge garbage.
        """
        path = self.store.get_file(
            "traces", entry.store_key, validate=validate_trace
        )
        if path is None:
            raise TraceFormatError(
                f"corpus {self.name!r}: trace for {entry.label} "
                f"({entry.fingerprint}) is missing or corrupt in the "
                f"store — it may have been GC-evicted; re-record it "
                f"(`repro trace corpus record`)"
            )
        return path

    def verify(
        self,
        num_shards: int = DEFAULT_VERIFY_SHARDS,
        workers: int = 0,
        backends: tuple[str, ...] | None = None,
        retry=None,
        report=None,
    ) -> list[dict]:
        """Corpus-wide differential-conformance sweep.

        For every entry × hierarchy backend, one fan-out task replays the
        stored trace twice — unsharded
        (:class:`~repro.workloads.replay.ReplayWorkload`) and through the
        sharded split-and-merge path
        (:class:`~repro.trace.shard.ShardedReplay`, serial inside the
        task) — and compares both the functional profile digest and the
        detailed full-run digest (:func:`full_run_digest`) exactly.  The
        profile leg checks the merge itself (backend-independent); the
        full-run leg is what makes the backend axis bite, since the
        hierarchy backends only diverge in detailed simulation.  Tasks
        run in parallel under the fault-tolerant fan-out; a digest
        mismatch is a *result*, not an exception, so one non-conforming
        entry never hides the rest of the sweep.

        Args:
            num_shards: Shard count of the sharded leg (capped per entry
                at its region count).
            workers: Process count (<= 1 = serial).
            backends: Hierarchy backends to sweep (default: all
                registered, sorted).
            retry: Optional retry-policy override.
            report: Optional :class:`~repro.experiments.common.RunReport`
                to accumulate into.

        Returns:
            One dict per (entry, backend): ``label``, ``backend``,
            ``fingerprint``, ``unsharded``/``sharded`` profile digests,
            ``unsharded_full``/``sharded_full`` detailed-run digests,
            and ``ok`` (both pairs equal).

        Raises:
            TraceFormatError: When the manifest or any entry's trace is
                missing/corrupt.
            RetryExhaustedError: When a task kept failing through its
                retry budget.
        """
        from repro.experiments.common import (
            FanoutTask,
            FaultTolerantFanout,
            RetryPolicy,
            RunReport,
        )
        from repro.mem.backends import backend_names
        from repro.store import ArtifactStore

        if backends is None:
            backends = tuple(sorted(backend_names()))
        entries = self.entries()
        tasks = []
        for entry in entries:
            path = self.resolve(entry)
            for backend in backends:
                label = f"{entry.label}@{backend}"
                tasks.append(FanoutTask(
                    key=ArtifactStore.derive_key(
                        verify=entry.fingerprint, backend=backend,
                        shards=num_shards, format=CORPUS_FORMAT,
                    ),
                    label=label,
                    args=(str(path), backend, entry.num_threads,
                          num_shards),
                    meta={"label": entry.label, "backend": backend,
                          "fingerprint": entry.fingerprint},
                ))
        fanout = FaultTolerantFanout(
            fn=_verify_conformance_task, workers=workers,
            retry=retry if retry is not None else RetryPolicy.from_env(),
            report=report if report is not None else RunReport(),
        )
        results = fanout.run(tasks)
        verdicts = []
        for task in tasks:
            digests = results[task.key]
            verdicts.append(dict(
                task.meta,
                unsharded=digests["unsharded"],
                sharded=digests["sharded"],
                unsharded_full=digests["unsharded_full"],
                sharded_full=digests["sharded_full"],
                ok=(digests["unsharded"] == digests["sharded"]
                    and digests["unsharded_full"] == digests["sharded_full"]),
            ))
        return verdicts


def conformance_machine(num_threads: int, backend: str):
    """The sweep's evaluation machine for a thread count and backend.

    A cache-scaled Table I machine resized to one socket of
    ``num_threads`` cores with the requested hierarchy backend — a pure
    function of its arguments, so parent and pool workers derive the
    same machine without registry round-trips.

    Args:
        num_threads: Core count (must equal the trace's thread count).
        backend: Hierarchy backend name.

    Returns:
        The :class:`~repro.config.MachineConfig`.
    """
    from repro.config import scaled, table1_8core

    return dataclasses.replace(
        scaled(table1_8core()),
        name=f"corpus-{num_threads}c-{backend}",
        num_sockets=1,
        cores_per_socket=num_threads,
        hierarchy=backend,
    )


def _verify_conformance_task(
    trace_path: str, backend: str, num_threads: int, num_shards: int
) -> dict:
    """Pool worker: one entry × backend differential-conformance check.

    Args:
        trace_path: The entry's ``.rpt`` file.
        backend: Hierarchy backend name.
        num_threads: The trace's thread count.
        num_shards: Shard count of the sharded leg (capped at the
            trace's region count).

    Returns:
        ``{"unsharded", "sharded"}`` profile digests plus
        ``{"unsharded_full", "sharded_full"}`` detailed-run digests of
        the plain replay and of the split-shard-merge replay.
    """
    from repro.core.pipeline import BarrierPointPipeline
    from repro.profiling.profiler import profiles_digest
    from repro.trace.shard import ShardedReplay, split_trace
    from repro.workloads.replay import ReplayWorkload

    machine = conformance_machine(num_threads, backend)
    pipe = BarrierPointPipeline(machine)
    replay = ReplayWorkload(trace_path)
    try:
        shards = min(num_shards, replay.num_regions)
        unsharded = profiles_digest(pipe.profile(replay))
        unsharded_full = full_run_digest(pipe.full_run(replay))
    finally:
        replay.close()
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-verify-"))
    try:
        shard_paths = split_trace(trace_path, workdir, num_shards=shards)
        profiles, full = ShardedReplay(
            shard_paths, machine, workers=0
        ).run(want_profiles=True, want_full=True)
        sharded = profiles_digest(profiles)
        sharded_full = full_run_digest(full)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "unsharded": unsharded,
        "sharded": sharded,
        "unsharded_full": unsharded_full,
        "sharded_full": sharded_full,
    }
