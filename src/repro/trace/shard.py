"""Region-range sharding of recorded traces, with deterministic parallel replay.

A *shard* is a standalone ``.rpt`` file holding a contiguous region range
``[start, end)`` of a parent trace: same format version, same metadata
(workload identity, thread count, scale, block table), the schedule sliced
to the range, plus a ``meta["shard"]`` provenance block naming the parent's
content fingerprint and the range.  Shards are produced by byte-exact
copies of the parent's chunk payloads (re-indexed and re-CRC'd), so a
shard's chunk ``k`` is bit-identical to the parent's chunk ``start + k``.

**Merge determinism contract.**  Replay state is *cumulative*: the
functional profiler keeps one persistent LRU stack per thread across
regions, and the detailed simulator carries cache/core state from region
to region.  A shard replayed cold would therefore diverge from the same
regions inside an unsharded replay.  :class:`ShardedReplay` restores bit
identity by *prefix warming*: the worker for shard ``k`` replays the chain
of shards ``0..k`` from region 0 and keeps only the results of shard
``k``'s own range.  Every region is thus computed with exactly the warmup
history the unsharded replay would have given it, so concatenating the
per-shard slices in shard order reproduces the unsharded profiles and
:class:`~repro.sim.machine.FullRunResult` bit for bit — on every
hierarchy backend (``tests/test_trace_shard.py`` asserts this).  The
price is prefix work (shard ``k`` replays ``end_k`` regions), which the
fan-out runs in parallel; wall-clock is bounded by the full-chain task.

Fan-out inherits the experiment runner's fault tolerance wholesale
(:class:`~repro.experiments.common.FaultTolerantFanout`): retry/backoff,
per-task timeouts, pool respawn, serial fallback, and the ``runner.task``
/ ``trace.read`` fault-injection sites.
"""

from __future__ import annotations

import os
import pathlib
from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import ConfigError, TraceFormatError
from repro.trace.capture import TraceReader, _write_rpt, trace_fingerprint
from repro.workloads.base import PhaseInstance, Workload
from repro.workloads.replay import decode_block_execs, index_blocks

#: Metadata key carrying a shard's provenance block.
SHARD_META_KEY = "shard"


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic split of one trace into contiguous region ranges.

    Attributes:
        parent_fingerprint: Content fingerprint of the parent trace
            (:func:`~repro.trace.capture.trace_fingerprint`), binding the
            plan — and every shard cut from it — to exact parent bytes.
        parent_regions: The parent's region count.
        boundaries: ``num_shards + 1`` strictly increasing region indices
            from ``0`` to ``parent_regions``; shard ``k`` covers regions
            ``[boundaries[k], boundaries[k + 1])``.
    """

    parent_fingerprint: str
    parent_regions: int
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.parent_regions < 1:
            raise ConfigError(
                f"shard plan needs at least 1 region, got "
                f"{self.parent_regions}"
            )
        b = self.boundaries
        if len(b) < 2 or b[0] != 0 or b[-1] != self.parent_regions:
            raise ConfigError(
                f"shard boundaries {b} must run from 0 to "
                f"{self.parent_regions} (the parent's region count)"
            )
        for k in range(len(b) - 1):
            if b[k + 1] <= b[k]:
                raise ConfigError(
                    f"shard boundaries {b} are not strictly increasing at "
                    f"index {k}: every shard must cover at least one "
                    f"region (empty shards are not representable as "
                    f"standalone traces)"
                )

    @property
    def num_shards(self) -> int:
        """Number of shards the plan cuts."""
        return len(self.boundaries) - 1

    def shard_range(self, index: int) -> tuple[int, int]:
        """The ``[start, end)`` region range of shard ``index``."""
        if not 0 <= index < self.num_shards:
            raise ConfigError(
                f"shard index {index} out of range [0, {self.num_shards})"
            )
        return self.boundaries[index], self.boundaries[index + 1]

    @classmethod
    def even(cls, path: str | os.PathLike, num_shards: int) -> ShardPlan:
        """Derive the canonical even split of a trace from its header.

        Boundary ``k`` is ``k * num_regions // num_shards`` — a pure
        function of the header, so every process derives the same plan
        for the same trace and shard count.

        Args:
            path: The parent ``.rpt`` trace.
            num_shards: How many shards to cut (1 = a single full-range
                shard).

        Returns:
            The plan.

        Raises:
            ConfigError: When ``num_shards`` < 1 or exceeds the region
                count (an empty shard cannot be a valid ``.rpt`` file).
        """
        reader = TraceReader(path)
        regions = reader.num_regions
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        if num_shards > regions:
            raise ConfigError(
                f"cannot cut {num_shards} shards from trace "
                f"{str(reader.path)!r} with only {regions} region(s): "
                f"every shard must hold at least one region"
            )
        return cls(
            parent_fingerprint=reader.fingerprint(),
            parent_regions=regions,
            boundaries=tuple(
                k * regions // num_shards for k in range(num_shards + 1)
            ),
        )

    @classmethod
    def from_boundaries(
        cls, path: str | os.PathLike, boundaries: tuple[int, ...]
    ) -> ShardPlan:
        """A plan with explicit boundaries, validated against the trace.

        Args:
            path: The parent ``.rpt`` trace.
            boundaries: Strictly increasing region indices from 0 to the
                parent's region count.

        Returns:
            The plan.

        Raises:
            ConfigError: On malformed boundaries (see :class:`ShardPlan`).
        """
        reader = TraceReader(path)
        return cls(
            parent_fingerprint=reader.fingerprint(),
            parent_regions=reader.num_regions,
            boundaries=tuple(int(b) for b in boundaries),
        )


def shard_provenance(path: str | os.PathLike) -> dict | None:
    """The ``meta["shard"]`` provenance block of a trace, or ``None``.

    Args:
        path: Any ``.rpt`` file.

    Returns:
        The provenance dict (``parent``, ``parent_regions``, ``start``,
        ``end``, ``index``, ``count``) for shard files, ``None`` for
        unsharded traces.
    """
    return TraceReader(path).meta.get(SHARD_META_KEY)


def split_trace(
    path: str | os.PathLike,
    out_dir: str | os.PathLike,
    num_shards: int | None = None,
    boundaries: tuple[int, ...] | None = None,
) -> list[pathlib.Path]:
    """Cut a trace into standalone shard files under ``out_dir``.

    Each shard is a fully valid ``.rpt`` trace (header, per-chunk CRCs,
    footer CRC) whose chunk payloads are byte-exact copies of the
    parent's (CRC-revalidated on read), carrying provenance under
    ``meta["shard"]``.  File names are
    ``<parent stem>.shard-<k>-of-<S>.rpt``.

    Args:
        path: The parent trace.
        out_dir: Directory for the shard files (created if missing).
        num_shards: Cut the canonical even plan (:meth:`ShardPlan.even`).
            Mutually exclusive with ``boundaries``.
        boundaries: Explicit boundary list (``ShardPlan.from_boundaries``).

    Returns:
        The shard paths in shard order.

    Raises:
        ConfigError: On a malformed plan request.
        TraceFormatError: When the parent trace is invalid or corrupt.
    """
    if (num_shards is None) == (boundaries is None):
        raise ConfigError(
            "split_trace needs exactly one of num_shards or boundaries"
        )
    if num_shards is not None:
        plan = ShardPlan.even(path, num_shards)
    else:
        plan = ShardPlan.from_boundaries(path, tuple(boundaries))
    reader = TraceReader(path)
    out_dir = pathlib.Path(out_dir)
    stem = pathlib.Path(path).stem
    written: list[pathlib.Path] = []
    for index in range(plan.num_shards):
        start, end = plan.shard_range(index)
        meta = dict(reader.meta)
        meta["num_regions"] = end - start
        meta["schedule"] = reader.meta["schedule"][start:end]
        meta[SHARD_META_KEY] = {
            "parent": plan.parent_fingerprint,
            "parent_regions": plan.parent_regions,
            "start": start,
            "end": end,
            "index": index,
            "count": plan.num_shards,
        }
        name = f"{stem}.shard-{index}-of-{plan.num_shards}.rpt"
        # Chunk payloads are byte-exact copies of the parent's.
        chunks = (
            (local, reader._read_payload(parent_region))
            for local, parent_region in enumerate(range(start, end))
        )
        written.append(_write_rpt(out_dir / name, meta, chunks))
    return written


class ShardChainReplay(Workload):
    """Replay a contiguous chain of shards of one parent trace.

    The chain must start at the parent's region 0 and be gap-free (each
    shard's ``start`` equals the previous shard's ``end``); it may stop
    before the parent's last region — that prefix property is what lets
    :class:`ShardedReplay` warm each shard with exactly the history the
    unsharded replay would have.  Global region ``i`` is served from the
    owning shard's local chunk, so the observed executions equal the
    parent trace's regions ``0..end`` bit for bit.

    Parameters
    ----------
    paths:
        Shard files in chain order (each recorded by :func:`split_trace`).
    """

    def __init__(self, paths) -> None:
        if not paths:
            raise TraceFormatError("shard chain is empty")
        self._readers = [TraceReader(p) for p in paths]
        self._validate_chain()
        first = self._readers[0].meta
        self.name = first["workload"]
        self.input_size = first.get("input_size", "")
        self.shard_paths = tuple(str(r.path) for r in self._readers)
        #: Region boundaries of the chain: ``boundaries[k]`` is shard
        #: ``k``'s first global region; the last entry is the chain end.
        self.shard_boundaries = tuple(
            r.meta[SHARD_META_KEY]["start"] for r in self._readers
        ) + (self._readers[-1].meta[SHARD_META_KEY]["end"],)
        super().__init__(
            num_threads=first["num_threads"], scale=first["scale"]
        )
        # Bounded-memory replay, as in ReplayWorkload: the readers' LRU
        # windows are the only region cache.
        self._cache_traces = False
        self._trace_cache.clear()

    def _chain_fail(self, detail: str) -> TraceFormatError:
        """Uniform chain-validation error."""
        paths = [str(r.path) for r in self._readers]
        return TraceFormatError(
            f"shard chain {paths}: {detail} — re-cut the shards with "
            f"`repro trace corpus replay --shards N` or split_trace()"
        )

    def _validate_chain(self) -> None:
        """Reject any chain that is not a gap-free prefix of one parent."""
        provs = []
        for reader in self._readers:
            prov = reader.meta.get(SHARD_META_KEY)
            if prov is None:
                raise self._chain_fail(
                    f"{str(reader.path)!r} has no shard provenance "
                    f"(it is not a shard file)"
                )
            provs.append(prov)
        first = self._readers[0]
        for position, (reader, prov) in enumerate(zip(self._readers, provs)):
            if prov["parent"] != provs[0]["parent"]:
                raise self._chain_fail(
                    f"{str(reader.path)!r} was cut from a different parent "
                    f"trace ({prov['parent']} != {provs[0]['parent']})"
                )
            if prov["index"] != position:
                raise self._chain_fail(
                    f"{str(reader.path)!r} is shard {prov['index']} but "
                    f"sits at chain position {position}"
                )
            if prov["end"] - prov["start"] != reader.num_regions:
                raise self._chain_fail(
                    f"{str(reader.path)!r} declares range "
                    f"[{prov['start']}, {prov['end']}) but holds "
                    f"{reader.num_regions} region(s)"
                )
            for field in ("workload", "num_threads", "scale"):
                if reader.meta[field] != first.meta[field]:
                    raise self._chain_fail(
                        f"{str(reader.path)!r} disagrees on {field!r} "
                        f"({reader.meta[field]!r} != "
                        f"{first.meta[field]!r})"
                    )
        if provs[0]["start"] != 0:
            raise self._chain_fail(
                f"chain starts at region {provs[0]['start']}, not 0 — "
                f"replay state is cumulative, so a chain must always "
                f"start at the parent's first region"
            )
        for prev, nxt in zip(provs, provs[1:]):
            if nxt["start"] != prev["end"]:
                raise self._chain_fail(
                    f"gap between region {prev['end']} and "
                    f"{nxt['start']}: shards must be contiguous"
                )

    def _build(self) -> None:
        """Concatenate shard schedules; adopt the (shared) block table."""
        for reader in self._readers:
            for phase, iteration, param in reader.meta["schedule"]:
                self._schedule.append(PhaseInstance(phase, iteration, param))
        first = self._readers[0]
        for reader in self._readers[1:]:
            if reader.meta["blocks"] != first.meta["blocks"]:
                raise self._chain_fail(
                    f"{str(reader.path)!r} declares a different block "
                    f"table than {str(first.path)!r}"
                )
        by_name, self._block_table = index_blocks(
            first.blocks, f"shard {str(first.path)!r}"
        )
        self._blocks.update(by_name)

    def _build_thread(
        self, inst: PhaseInstance, region_index: int, thread_id: int
    ) -> list:
        """Serve one thread's executions from the owning shard's chunk."""
        shard = bisect_right(self.shard_boundaries, region_index) - 1
        reader = self._readers[shard]
        local = region_index - self.shard_boundaries[shard]
        return decode_block_execs(
            reader, local, thread_id, self._block_table,
            f"{str(reader.path)!r} (global region {region_index})",
        )

    def close(self) -> None:
        """Close every shard reader."""
        for reader in self._readers:
            reader.close()


def _replay_shard_task(
    paths, start: int, end: int, machine,
    want_profiles: bool, want_full: bool,
) -> dict:
    """Pool worker: prefix-warmed replay of one shard's region range.

    Args:
        paths: The shard chain ``0..k`` (prefix warming).
        start: First region (global index) whose results are kept.
        end: One past the last kept region.
        machine: Picklable evaluation
            :class:`~repro.config.MachineConfig`.
        want_profiles: Compute the functional profiles.
        want_full: Compute the detailed full run.

    Returns:
        ``{"profiles": [RegionProfile state, ...]}`` and/or
        ``{"full": FullRunResult state}`` restricted to ``[start, end)``.
    """
    from repro.core.pipeline import BarrierPointPipeline

    chain = ShardChainReplay(list(paths))
    try:
        pipe = BarrierPointPipeline(machine)
        states: dict = {}
        if want_profiles:
            profiles = pipe.profile(chain)
            states["profiles"] = [p.to_state() for p in profiles[start:end]]
        if want_full:
            state = pipe.full_run(chain).to_state()
            state["regions"] = state["regions"][start:end]
            states["full"] = state
    finally:
        chain.close()
    return states


class ShardedReplay:
    """Fan shard replays across processes; merge results deterministically.

    One fan-out task per shard: the task for shard ``k`` replays the
    chain of shards ``0..k`` (prefix warming — see the module docstring)
    and returns only shard ``k``'s slice.  The parent concatenates the
    slices in shard order, which is bit-identical to the unsharded
    :class:`~repro.workloads.replay.ReplayWorkload` on every backend.

    Execution inherits the experiment runner's full fault tolerance via
    :class:`~repro.experiments.common.FaultTolerantFanout` — retries
    with deterministic backoff, per-task timeouts, pool respawn on
    worker death, serial fallback, and the ``runner.task`` /
    ``trace.read`` fault sites.  ``workers`` <= 1 replays serially
    in-process (still shard-at-a-time, still bit-identical).
    """

    def __init__(
        self, shard_paths, machine, workers: int = 0,
        retry=None, report=None,
    ) -> None:
        """Validate the chain and bind the evaluation machine.

        Args:
            shard_paths: Shard files in chain order; the chain must cover
                the whole parent trace (prefix chains are an internal
                detail of the workers).
            machine: Evaluation :class:`~repro.config.MachineConfig`;
                its core count must equal the trace's thread count.
            workers: Process count (<= 1 = serial in-process).
            retry: :class:`~repro.experiments.common.RetryPolicy`
                override (default: from the environment).
            report: :class:`~repro.experiments.common.RunReport` to
                accumulate into (default: a fresh one).
        """
        from repro.experiments.common import RetryPolicy, RunReport

        self.paths = tuple(str(pathlib.Path(p)) for p in shard_paths)
        chain = ShardChainReplay(self.paths)
        try:
            prov = chain._readers[-1].meta[SHARD_META_KEY]
            if prov["end"] != prov["parent_regions"]:
                raise TraceFormatError(
                    f"shard chain {list(self.paths)} stops at region "
                    f"{prov['end']} of {prov['parent_regions']}: a "
                    f"ShardedReplay needs the complete chain"
                )
            self.boundaries = chain.shard_boundaries
            self.workload_name = chain.name
            self.num_threads = chain.num_threads
            if machine.num_cores != chain.num_threads:
                raise ConfigError(
                    f"machine {machine.name!r} has {machine.num_cores} "
                    f"cores but the trace was recorded with "
                    f"{chain.num_threads} threads"
                )
        finally:
            chain.close()
        self.machine = machine
        self.workers = workers
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self.report = report if report is not None else RunReport()

    def run(
        self, want_profiles: bool = True, want_full: bool = False
    ) -> tuple:
        """Replay every shard and merge.

        Args:
            want_profiles: Collect functional profiles (BBVs/LDVs).
            want_full: Collect the detailed simulation result.

        Returns:
            ``(profiles, full)`` — a list of
            :class:`~repro.profiling.profiler.RegionProfile` (or
            ``None``) and a :class:`~repro.sim.machine.FullRunResult`
            (or ``None``), each bit-identical to the unsharded replay.

        Raises:
            RetryExhaustedError: When a shard task kept failing through
                its whole retry budget.
        """
        from repro.experiments.common import FanoutTask, FaultTolerantFanout
        from repro.profiling.profiler import RegionProfile
        from repro.sim.machine import FullRunResult
        from repro.store import ArtifactStore

        tasks = []
        for k in range(len(self.boundaries) - 1):
            start, end = self.boundaries[k], self.boundaries[k + 1]
            prefix = self.paths[: k + 1]
            key = ArtifactStore.derive_key(
                shards=[trace_fingerprint(p) for p in prefix],
                range=(start, end),
                machine=self.machine.fingerprint(),
                kinds=(want_profiles, want_full),
            )
            tasks.append(FanoutTask(
                key=key,
                label=f"shard[{start}:{end}]",
                args=(prefix, start, end, self.machine,
                      want_profiles, want_full),
                meta=(start, end),
            ))
        fanout = FaultTolerantFanout(
            fn=_replay_shard_task, workers=self.workers,
            retry=self.retry, report=self.report,
        )
        results = fanout.run(tasks)
        profiles: list | None = [] if want_profiles else None
        full_states: list = []
        for task in tasks:
            states = results[task.key]
            if want_profiles:
                profiles.extend(
                    RegionProfile.from_state(s) for s in states["profiles"]
                )
            if want_full:
                full_states.append(states["full"])
        full = None
        if want_full:
            merged = dict(full_states[0])
            merged["regions"] = tuple(
                r for state in full_states for r in state["regions"]
            )
            full = FullRunResult.from_state(merged)
        return profiles, full
