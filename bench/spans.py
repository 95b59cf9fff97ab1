"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each ``src/repro`` layer from
the outside (nothing under ``src/`` changes) and keeps, per process:

* one aggregate per span name: calls, self time, total time and any
  counters the entry point reports (lines touched, bytes stored, ...);
* the set of input digests of entry points whose duplicate calls matter
  (``unique_frac``);
* one record per span for every entry point except the per-block ones
  (``HOT``), which run millions of times and are kept as aggregates only.

Self time is a span's duration minus the time of the spans it encloses.  A
span opened while a span of the same name is already open (``super()``
chains, nested fan-outs, nested figures) is transparent: it counts once, in
the outer span.  ``mem.access_block`` is also transparent inside
``mem.replay_block``, so warmup replay is charged to the replay entry point.

Pool workers are forked, so they inherit the wrappers.  Each worker starts
from empty buffers (``os.register_at_fork``) and appends its buffers to
``spans-<pid>.jsonl`` after every fan-out task; the process that installed
the recorder writes its own file with :meth:`Recorder.flush` at the end.
:func:`merge` folds the files of one traced iteration back together and
:func:`layer_metrics` turns the merged aggregates into the per-layer
metrics declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import time

#: Entry points called once per block or per replay batch: aggregated only.
HOT = frozenset({
    "mem.access_block", "mem.access_code", "mem.replay_block",
    "cpu.block_cycles",
})

def _digest(*parts) -> str:
    """Short digest of arrays and scalars (the ``unique_frac`` input key)."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        tobytes = getattr(part, "tobytes", None)
        h.update(tobytes() if tobytes is not None else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _region_key(args, kwargs) -> str:
    workload = args[0]
    region = args[1] if len(args) > 1 else kwargs["region_index"]
    return _digest(workload.name, workload.num_threads,
                   getattr(workload, "scale", None), region)


def _kmeans_key(args, kwargs) -> str:
    return _digest(*args, *sorted(kwargs.items()))


def _lines(args, kwargs, result, dt):
    return (("lines", len(args[2])),)


def _instructions(args, kwargs, result, dt):
    return (("instructions", result.instructions),)


def _store_get(args, kwargs, result, dt):
    if result is None:
        return (("hits", 0),)
    store, kind, key = args[:3]
    return (("hits", 1), ("bytes", store.path_for(kind, key).stat().st_size))


def _store_put(args, kwargs, result, dt):
    return (("bytes", result.stat().st_size if result is not None else 0),)


def _fanout(args, kwargs, result, dt):
    fanout, tasks = args[0], args[1] if len(args) > 1 else kwargs["tasks"]
    reports = fanout.report.tasks[len(fanout.report.tasks) - len(tasks):]
    return (
        ("tasks", len(tasks)),
        ("retries", sum(max(0, r.attempts - 1) for r in reports)),
        ("capacity_s", max(1, fanout.workers) * dt),
    )


class Recorder:
    """Per-process span buffers plus the wrappers that fill them.

    Args:
        out_dir: Directory receiving ``spans-<pid>.jsonl`` files.
        trace_id: Identifier shared by every span of this iteration.
    """

    def __init__(self, out_dir: str | os.PathLike, trace_id: str) -> None:
        self.out_dir = pathlib.Path(out_dir)
        self.trace_id = trace_id
        self.owner_pid = os.getpid()
        self.stack: list[list] = []          # [child_s, span_id] per open span
        self.open: dict[str, int] = {}       # name -> 1 while a span is open
        self.agg: dict[str, dict] = {}
        self.keys: dict[str, set] = {}
        self.spans: list[dict] = []
        self.next_id = 0
        self.clock_offset = time.time() - time.perf_counter()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        """Empty every buffer in place (wrappers hold references to them)."""
        self.stack.clear()
        self.open.clear()
        for fields in self.agg.values():
            for field in fields:
                fields[field] = 0
        for keys in self.keys.values():
            keys.clear()
        self.spans.clear()
        self.clock_offset = time.time() - time.perf_counter()

    def wrap(self, fn, name: str, counters=None, key=None,
             transparent_in: tuple[str, ...] = (), flush: bool = False):
        """Wrap ``fn`` so each call records one span named ``name``.

        Args:
            fn: The entry point.
            name: Span name (``layer.entry``).
            counters: ``(args, kwargs, result, dt) -> ((field, n), ...)``
                adding to the span's aggregate.
            key: ``(args, kwargs) -> str`` input digest for ``unique_frac``.
            transparent_in: Span names inside which this span is not
                recorded (its time stays with the enclosing span).
            flush: Write this process's buffers after each call when it
                runs in a forked worker (the fan-out task functions).
        """
        agg = self.agg.setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        keys = self.keys.setdefault(name, set()) if key is not None else None
        stack, open_, spans = self.stack, self.open, self.spans
        hot = name in HOT
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_.get(name) or (
                transparent_in and any(open_.get(n) for n in transparent_in)
            ):
                return fn(*args, **kwargs)
            if keys is not None:
                keys.add(key(args, kwargs))
            frame = [0.0, self.next_id]
            self.next_id += 1
            parent = stack[-1][1] if stack else None
            open_[name] = 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                open_[name] = 0
                if stack:
                    stack[-1][0] += dt
                agg["calls"] += 1
                agg["self_s"] += dt - frame[0]
                agg["total_s"] += dt
                if not hot:
                    spans.append({
                        "id": frame[1], "parent": parent, "name": name,
                        "start": self.clock_offset + start, "dur_s": dt,
                        "self_s": dt - frame[0],
                    })
            if counters is not None:
                for field, n in counters(args, kwargs, result, dt):
                    agg[field] = agg.get(field, 0) + n
            if flush and os.getpid() != self.owner_pid:
                self.flush()
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` (class or module) by its wrapped form."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **options))

    def flush(self) -> None:
        """Append this process's buffers to its span file, then empty them.

        Called with no span open: after the timed section, and in a worker
        after its outermost (task) span closed.
        """
        pid = os.getpid()
        lines = [
            {"kind": "span", "trace": self.trace_id, "pid": pid, **span}
            for span in self.spans
        ]
        lines += [
            {"kind": "agg", "pid": pid, "name": name, **fields}
            for name, fields in self.agg.items() if fields["calls"]
        ]
        lines += [
            {"kind": "keys", "pid": pid, "name": name, "keys": sorted(keys)}
            for name, keys in self.keys.items() if keys
        ]
        with open(self.out_dir / f"spans-{pid}.jsonl", "a") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
        self._reset()


def install(out_dir: str | os.PathLike, trace_id: str) -> Recorder:
    """Wrap every traced entry point of every measured layer.

    Args:
        out_dir: Span file directory of this traced iteration.
        trace_id: Identifier shared by the iteration's spans.

    Returns:
        The installed recorder (call :meth:`Recorder.flush` at the end).
    """
    from repro.clustering import simpoint
    from repro.core import pipeline
    from repro.cpu.interval import IntervalCore
    from repro.experiments import battery, common
    from repro.mem.backends import HIERARCHY_BACKENDS
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.profiling.profiler import FunctionalProfiler
    from repro.sim.machine import Machine
    from repro.sim.warmup import ColdWarmup, MRUWarmup
    from repro.store.artifacts import ArtifactStore
    from repro.trace import corpus, shard
    from repro.workloads.base import Workload

    rec = Recorder(out_dir, trace_id)
    rec.patch(Workload, "region_trace", "workloads.region_trace",
              key=_region_key)
    rec.patch(FunctionalProfiler, "profile", "profiling.profile")
    rec.patch(FunctionalProfiler, "capture_warmup",
              "profiling.capture_warmup")
    rec.patch(simpoint.SimPointClusterer, "fit", "clustering.fit")
    rec.patch(simpoint, "weighted_kmeans", "clustering.kmeans",
              key=_kmeans_key)
    rec.patch(simpoint, "weighted_bic", "clustering.bic")
    rec.patch(pipeline.BarrierPointPipeline, "select", "core.select")
    rec.patch(pipeline, "reconstruct_app", "core.reconstruct")
    rec.patch(Machine, "simulate_region", "sim.simulate_region",
              counters=_instructions)
    for warmup in (MRUWarmup, ColdWarmup):
        rec.patch(warmup, "prepare", "sim.warmup_prepare")
    rec.patch(IntervalCore, "block_cycles", "cpu.block_cycles")
    for cls in {MemoryHierarchy, *HIERARCHY_BACKENDS.values()}:
        if "access_block" in vars(cls):
            rec.patch(cls, "access_block", "mem.access_block",
                      counters=_lines, transparent_in=("mem.replay_block",))
        if "access_code" in vars(cls):
            rec.patch(cls, "access_code", "mem.access_code")
        if "replay_block" in vars(cls):
            rec.patch(cls, "replay_block", "mem.replay_block")
    rec.patch(ArtifactStore, "get", "store.get", counters=_store_get)
    rec.patch(ArtifactStore, "put", "store.put", counters=_store_put)
    rec.patch(common.FaultTolerantFanout, "run", "experiments.fanout",
              counters=_fanout, transparent_in=("experiments.task",))
    for module, attr in ((common, "compute_pair"),
                         (corpus, "_verify_conformance_task"),
                         (shard, "_replay_shard_task")):
        rec.patch(module, attr, "experiments.task", flush=True)
    for module in set(battery.EXPERIMENTS.values()):
        rec.patch(module, "run", "experiments.figures")
    rec.patch(shard, "split_trace", "trace.split_trace")
    rec.patch(shard.ShardedReplay, "run", "trace.sharded_replay")
    return rec


def merge(span_dir: str | os.PathLike) -> tuple[dict, dict, list]:
    """Fold the span files of one traced iteration together.

    Args:
        span_dir: Directory holding ``spans-<pid>.jsonl`` files.

    Returns:
        ``(agg, keys, lines)``: counters summed over processes per span
        name, input-digest sets unioned per name, and every raw line.
    """
    agg: dict[str, dict] = {}
    keys: dict[str, set] = {}
    lines: list[dict] = []
    for path in sorted(pathlib.Path(span_dir).glob("spans-*.jsonl")):
        for text in path.read_text().splitlines():
            line = json.loads(text)
            lines.append(line)
            if line["kind"] == "agg":
                fields = agg.setdefault(line["name"], {})
                for field, value in line.items():
                    if field not in ("kind", "pid", "name"):
                        fields[field] = fields.get(field, 0) + value
            elif line["kind"] == "keys":
                keys.setdefault(line["name"], set()).update(line["keys"])
    return agg, keys, lines


def layer_metrics(agg: dict, keys: dict, names) -> dict[str, float]:
    """The per-layer metrics from merged aggregates.

    Metrics of a layer the workload does not exercise read 0.  The
    ``core.*`` accuracy metrics, ``store.warm_rerun_s`` and
    ``bench.tracing_overhead_frac`` are measured outside the spans and are
    filled in by the caller.

    Args:
        agg: Merged aggregates from :func:`merge`.
        keys: Merged input-digest sets from :func:`merge`.
        names: The ``per_layer`` metric names declared in ``BENCHMARK.json``.

    Returns:
        Metric name to value.
    """
    def get(name: str, field: str) -> float:
        return agg.get(name, {}).get(field, 0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    metrics: dict[str, float] = {}
    for metric in names:
        name, _, field = metric.rpartition(".")
        if field in ("self_s", "calls", "lines", "bytes", "tasks", "retries"):
            metrics[metric] = get(name, field)
    for name in ("clustering.kmeans", "workloads.region_trace"):
        metrics[f"{name}.unique_frac"] = ratio(
            len(keys.get(name, ())), get(name, "calls")
        )
    metrics["mem.access_block.ns_per_line"] = ratio(
        get("mem.access_block", "self_s"), get("mem.access_block", "lines"),
        1e9,
    )
    metrics["sim.detailed_kips"] = ratio(
        get("sim.simulate_region", "instructions"),
        get("sim.simulate_region", "total_s"), 1e-3,
    )
    metrics["store.hit_ratio"] = ratio(
        get("store.get", "hits"), get("store.get", "calls")
    )
    metrics["experiments.fanout.wall_s"] = get("experiments.fanout", "total_s")
    metrics["experiments.fanout.busy_frac"] = ratio(
        get("experiments.task", "total_s"),
        get("experiments.fanout", "capacity_s"),
    )
    return metrics
