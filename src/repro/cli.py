"""The unified ``repro`` command-line interface.

One console entry point drives the whole reproduction (see ``docs/cli.md``
for the user guide):

* ``repro run`` — regenerate the evaluation battery (all figures/tables),
  parallel and incremental via the artifact store;
* ``repro figures`` — same battery, but write each figure to a file;
* ``repro sweep`` — the cross-architecture transfer sweep (machines ×
  workloads matrix over the machine registry);
* ``repro machines`` — list the machine registry;
* ``repro trace`` — record, replay, inspect, and fuzz ``.rpt`` program
  traces (see ``docs/trace-format.md``);
* ``repro bench`` — run the pytest benchmark harness (perf + figures)
  with the environment knobs set from flags;
* ``repro clean`` — delete the artifact store, or garbage-collect it
  (``--gc``: orphan temp reaping, TTL expiry, LRU size quota — see
  ``docs/robustness.md``);
* ``repro serve`` — the long-lived experiment service: an HTTP JSON API
  with request coalescing, a crash-tolerant job journal (``--resume``),
  and the janitor on a background cadence (see ``docs/serve.md``).

Installed as ``repro`` by ``pip install -e .``; equivalently available
without installation as ``PYTHONPATH=src python -m repro ...``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.errors import ConfigError, ReproError
from repro.experiments import battery
from repro.machines import machine_summary
from repro.store import ArtifactStore, janitor
from repro.util.tables import format_table


def _runner_or_error(
    args: argparse.Namespace, parser: argparse.ArgumentParser
):
    """Build the runner, turning config errors into clean CLI errors."""
    try:
        return battery.runner_from_args(args)
    except ConfigError as exc:
        parser.error(str(exc))


def bench_targets(bench_dir: pathlib.Path) -> tuple[str, ...]:
    """``repro bench`` target shorthands, derived from the benchmark files.

    Args:
        bench_dir: The ``benchmarks/`` directory of a checkout.

    Returns:
        One shorthand per ``test_<name>.py`` file (``perf``, ``fig1``, ...).
    """
    return tuple(
        sorted(p.stem.removeprefix("test_") for p in bench_dir.glob("test_*.py"))
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BarrierPoint reproduction: experiments, figures, "
                    "benchmarks, and the artifact store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="regenerate the evaluation battery (stdout)"
    )
    battery.add_runner_options(run_p)

    figures_p = sub.add_parser(
        "figures", help="regenerate figures/tables into files"
    )
    battery.add_runner_options(figures_p)
    figures_p.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("benchmarks/results"),
        help="output directory (default benchmarks/results)",
    )

    sweep_p = sub.add_parser(
        "sweep", help="cross-architecture transfer sweep (machines x workloads)"
    )
    battery.add_runner_options(sweep_p)
    sweep_p.add_argument(
        "--workloads", type=str, default="",
        help="comma-separated workload subset (default: the full suite)",
    )
    sweep_p.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="also write the sweep figure to this file",
    )

    machines_p = sub.add_parser(
        "machines", help="list the machine registry"
    )
    machines_p.add_argument(
        "--fingerprints", action="store_true",
        help="include each machine's artifact-store fingerprint",
    )
    machines_p.add_argument(
        "--show", metavar="NAME", default=None,
        help="dump one machine's fully resolved (inheritance-merged, "
             "validated) spec as JSON instead of the listing",
    )

    trace_p = sub.add_parser(
        "trace", help="record, replay, inspect, and fuzz .rpt traces"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    record_p = trace_sub.add_parser(
        "record", help="snapshot a workload's trace into a .rpt file"
    )
    record_p.add_argument(
        "workload", help="workload name (registry, fuzz-<seed>, or "
                         "trace:<path> to re-record a replay)",
    )
    record_p.add_argument(
        "--threads", type=int, default=None,
        help="thread count to record (default 8; for a trace:<path> "
             "input, the recording's own thread count)",
    )
    record_p.add_argument(
        "--scale", type=float, default=None,
        help="workload scale factor (default 1.0; trace:<path> inputs "
             "always keep their recorded scale)",
    )
    record_p.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="output path (default <name>-<threads>t-<scale>.rpt)",
    )
    record_p.add_argument(
        "--store", action="store_true",
        help="also copy the trace into the artifact store (content-keyed)",
    )

    replay_p = trace_sub.add_parser(
        "replay", help="replay a .rpt trace through the profiler/simulator"
    )
    replay_p.add_argument("path", type=pathlib.Path, help="the .rpt file")
    replay_p.add_argument(
        "--machine", type=str, default=None,
        help="registry machine to simulate on (default: the evaluation "
             "machine matching the recorded thread count)",
    )
    replay_p.add_argument(
        "--full", action="store_true",
        help="also run the detailed full simulation (not just profiling)",
    )
    replay_p.add_argument(
        "--verify", action="store_true",
        help="regenerate the original workload and assert the replay is "
             "bit-identical (profiles and detailed run)",
    )

    inspect_p = trace_sub.add_parser(
        "inspect", help="validate a .rpt file and print its metadata"
    )
    inspect_p.add_argument("path", type=pathlib.Path, help="the .rpt file")
    inspect_p.add_argument(
        "--chunks", action="store_true",
        help="also list per-region chunk sizes and checksums",
    )

    fuzz_p = trace_sub.add_parser(
        "fuzz", help="emit a seeded randomized scenario as a .rpt trace"
    )
    fuzz_p.add_argument("seed", type=int, help="scenario seed (>= 0)")
    fuzz_p.add_argument(
        "--threads", type=int, default=8,
        help="thread count to record (default 8)",
    )
    fuzz_p.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (default 1.0)",
    )
    fuzz_p.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="output path (default fuzz-<seed>-<threads>t-<scale>.rpt)",
    )
    fuzz_p.add_argument(
        "--store", action="store_true",
        help="also copy the trace into the artifact store (content-keyed)",
    )

    corpus_p = trace_sub.add_parser(
        "corpus",
        help="store-backed trace corpus: record, list, replay, verify",
    )
    corpus_sub = corpus_p.add_subparsers(dest="corpus_command", required=True)

    corpus_record_p = corpus_sub.add_parser(
        "record", help="batch-record fuzzer seeds into the corpus"
    )
    corpus_record_p.add_argument(
        "seeds",
        help="seed spec: a single seed (7), an inclusive range (1-4), "
             "or a comma list (3,5,9)",
    )
    corpus_record_p.add_argument(
        "--threads", type=int, default=8,
        help="thread count to record (default 8)",
    )
    corpus_record_p.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (default 1.0)",
    )
    corpus_record_p.add_argument(
        "--name", default="default",
        help="corpus name (default 'default')",
    )

    corpus_list_p = corpus_sub.add_parser(
        "list", help="list the corpus index"
    )
    corpus_list_p.add_argument(
        "--name", default="default",
        help="corpus name (default 'default')",
    )

    corpus_replay_p = corpus_sub.add_parser(
        "replay", help="sharded parallel replay of one corpus entry"
    )
    corpus_replay_p.add_argument(
        "entry", help="entry label (e.g. fuzz-11/2t) or workload name",
    )
    corpus_replay_p.add_argument(
        "--shards", type=int, default=3,
        help="shard count (default 3, capped at the region count)",
    )
    corpus_replay_p.add_argument(
        "--workers", type=int, default=0,
        help="process count for the shard fan-out (default 0 = serial)",
    )
    corpus_replay_p.add_argument(
        "--backend", default="inclusive",
        help="hierarchy backend to replay on (default inclusive)",
    )
    corpus_replay_p.add_argument(
        "--full", action="store_true",
        help="also run the detailed full simulation (merged across shards)",
    )
    corpus_replay_p.add_argument(
        "--name", default="default",
        help="corpus name (default 'default')",
    )

    corpus_verify_p = corpus_sub.add_parser(
        "verify",
        help="corpus-wide differential-conformance sweep "
             "(every entry x every backend; exit 1 on any mismatch)",
    )
    corpus_verify_p.add_argument(
        "--shards", type=int, default=3,
        help="shard count of the sharded replay leg (default 3)",
    )
    corpus_verify_p.add_argument(
        "--workers", type=int, default=0,
        help="process count for the sweep fan-out (default 0 = serial)",
    )
    corpus_verify_p.add_argument(
        "--name", default="default",
        help="corpus name (default 'default')",
    )

    bench_p = sub.add_parser(
        "bench", help="run the pytest benchmark harness"
    )
    bench_p.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="benchmark subset — one name per benchmarks/test_<name>.py "
             "file, e.g. perf, fig1, table3 (default: everything)",
    )
    bench_p.add_argument(
        "--scale", type=float, default=None,
        help="sets REPRO_BENCH_SCALE (default 0.5)",
    )
    bench_p.add_argument(
        "--workloads", type=str, default=None,
        help="sets REPRO_BENCH_WORKLOADS (comma-separated subset)",
    )
    bench_p.add_argument(
        "--min-speedup", type=float, default=None,
        help="sets REPRO_BENCH_MIN_SPEEDUP (perf benchmark floor)",
    )
    bench_p.add_argument(
        "--repeat", type=int, default=None,
        help="sets REPRO_BENCH_REPEAT (best-of-N timing)",
    )

    clean_p = sub.add_parser(
        "clean", help="delete or garbage-collect the artifact store"
    )
    clean_p.add_argument(
        "--dry-run", action="store_true",
        help="report what would be freed without deleting",
    )
    clean_p.add_argument(
        "--gc", action="store_true",
        help="janitor sweep instead of full deletion: reap orphan temp "
             "files, expire by TTL, evict to the size quota",
    )
    clean_p.add_argument(
        "--ttl", type=str, default=None,
        help="with --gc: expire artifacts older than this (e.g. 3600, "
             "90m, 12h, 7d)",
    )
    clean_p.add_argument(
        "--max-bytes", type=str, default=None,
        help="with --gc: evict least-recently-used artifacts until the "
             "store fits (e.g. 1024, 512K, 100M, 2G)",
    )
    clean_p.add_argument(
        "--tmp-grace", type=str, default=None,
        help="with --gc: age before an orphan temp file is reaped "
             f"(default {janitor.DEFAULT_TMP_GRACE_SECONDS:g}s)",
    )
    clean_p.add_argument(
        "--no-reap-tmp", action="store_true",
        help="with --gc: leave orphan temp files alone",
    )

    serve_p = sub.add_parser(
        "serve",
        help="long-lived experiment service (HTTP JSON API with request "
             "coalescing — see docs/serve.md)",
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1",
        help="bind host (default 127.0.0.1)",
    )
    serve_p.add_argument(
        "--port", type=int, default=8642,
        help="bind port (default 8642; 0 = ephemeral)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=1,
        help="worker threads executing jobs (default 1)",
    )
    serve_p.add_argument(
        "--resume", action="store_true",
        help="restore the journaled job backlog of a previous (killed or "
             "drained) server before accepting requests",
    )
    serve_p.add_argument(
        "--ttl", type=str, default=None,
        help="janitor TTL: expire store artifacts older than this "
             "(e.g. 3600, 90m, 12h, 7d)",
    )
    serve_p.add_argument(
        "--max-bytes", type=str, default=None,
        help="janitor quota: evict least-recently-used artifacts until "
             "the store fits (e.g. 512K, 100M, 2G)",
    )
    serve_p.add_argument(
        "--gc-interval", type=float, default=None,
        help="seconds between janitor sweeps (default 300; sweeps only "
             "run when --ttl or --max-bytes is given)",
    )
    serve_p.add_argument(
        "--ready-file", type=pathlib.Path, default=None,
        help="write the bound {host, port, pid} as JSON here once "
             "listening (for harnesses using --port 0)",
    )
    serve_p.add_argument(
        "--quiet", action="store_true",
        help="suppress the structured request log",
    )
    return parser


def cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``repro run``: print configs and every regenerated figure."""
    runner = _runner_or_error(args, parser)
    selected = battery.select_experiments(parser, args.only)
    print(battery.show_configs())
    print()

    def _report(name: str, output: str, seconds: float, cached: bool) -> None:
        source = "store" if cached else "computed"
        print(output)
        print(f"[{name} regenerated in {seconds:.1f}s ({source})]")
        print()

    battery.run_experiments(runner, selected, on_result=_report)
    _print_run_report(runner)
    return 0


def _print_run_report(runner) -> None:
    """Print the structured recovery/failure report when noteworthy."""
    if runner.report.noteworthy():
        print(runner.report.render())


def cmd_figures(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro figures``: write each regenerated figure to ``--out``."""
    runner = _runner_or_error(args, parser)
    selected = battery.select_experiments(parser, args.only)
    args.out.mkdir(parents=True, exist_ok=True)

    def _report(name: str, output: str, seconds: float, cached: bool) -> None:
        path = args.out / f"{name}.txt"
        path.write_text(output + "\n")
        source = "store" if cached else "computed"
        print(f"{path}  [{seconds:.1f}s, {source}]")

    battery.run_experiments(runner, selected, on_result=_report)
    _print_run_report(runner)
    return 0


def cmd_sweep(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro sweep``: the machines × workloads transfer-error matrix."""
    runner = _runner_or_error(args, parser)
    if args.workloads:
        from repro.workloads import (
            WORKLOAD_NAMES,
            is_dynamic_workload,
            registered_workloads,
        )

        selected = tuple(
            name.strip() for name in args.workloads.split(",") if name.strip()
        )
        known = registered_workloads()
        unknown = [
            w for w in selected if w not in known and not is_dynamic_workload(w)
        ]
        if unknown:
            extensions = sorted(set(known) - set(WORKLOAD_NAMES))
            parser.error(
                f"unknown workloads {unknown}; paper suite: "
                f"{sorted(WORKLOAD_NAMES)}; extension workloads: "
                f"{extensions}; dynamic names: fuzz-<seed>, trace:<path>"
            )
        runner.benchmarks = selected

    def _report(name: str, output: str, seconds: float, cached: bool) -> None:
        source = "store" if cached else "computed"
        print(output)
        print(f"[{name} regenerated in {seconds:.1f}s ({source})]")
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(output + "\n")
            print(f"written to {args.out}")

    battery.run_experiments(runner, ["sweep"], on_result=_report)
    _print_run_report(runner)
    return 0


def cmd_machines(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro machines``: print the registry, or one resolved spec."""
    if args.show is not None:
        import json

        from repro.machines import resolved_spec

        print(json.dumps(resolved_spec(args.show), indent=2, sort_keys=True))
        return 0
    rows = machine_summary()
    headers = [
        "machine", "cores", "sockets", "topology", "L3", "DRAM", "hierarchy",
    ]
    cells = [
        [r["name"], r["cores"], r["sockets"], r["topology"], r["l3"],
         r["dram"], r["hierarchy"]]
        for r in rows
    ]
    if args.fingerprints:
        headers.append("fingerprint")
        for row, r in zip(cells, rows):
            row.append(r["fingerprint"])
    headers.append("description")
    for row, r in zip(cells, rows):
        row.append(r["description"])
    print(format_table(headers, cells, title="Machine registry"))
    return 0


def _default_trace_out(name: str, threads: int, scale: float) -> pathlib.Path:
    """Default ``.rpt`` path for a recording (safe filename)."""
    safe = name.replace(":", "_").replace("/", "_")
    return pathlib.Path(f"{safe}-{threads}t-{scale:g}.rpt")


def _record_workload(name: str, threads: int | None, scale: float | None,
                     out: pathlib.Path | None, to_store: bool) -> int:
    """Shared implementation of ``trace record`` and ``trace fuzz``.

    ``threads``/``scale`` of ``None`` mean "the default": 8 / 1.0 for
    generated workloads, the recording's own coordinates for
    ``trace:<path>`` inputs (a re-record inherits what was recorded).
    """
    from repro.trace.capture import read_file_crc, record_trace, store_trace
    from repro.workloads import TRACE_NAME_PREFIX, get_workload
    from repro.workloads.replay import ReplayWorkload

    if name.startswith(TRACE_NAME_PREFIX):
        # Direct construction so an *explicitly typed* --threads/--scale
        # that contradicts the recording errors loudly instead of being
        # silently ignored; omitted flags inherit the recording.
        workload = ReplayWorkload(
            name[len(TRACE_NAME_PREFIX):],
            num_threads=threads, scale=scale,
        )
    else:
        workload = get_workload(
            name, 8 if threads is None else threads,
            1.0 if scale is None else scale,
        )
    path = out if out is not None else _default_trace_out(
        name, workload.num_threads, workload.scale
    )
    # Recording consumes each region exactly once — memoizing them would
    # hold the whole trace in memory for nothing.
    workload.disable_trace_cache()
    record_trace(workload, path)
    print(
        f"recorded {workload.name}: {workload.num_regions} regions x "
        f"{workload.num_threads} threads -> {path} "
        f"({path.stat().st_size} bytes, crc {read_file_crc(path):08x})"
    )
    if to_store:
        stored = store_trace(ArtifactStore(), path)
        if stored is None:
            print("artifact store is disabled (REPRO_STORE=0); not stored")
        else:
            print(f"stored as {stored}")
    return 0


def cmd_trace_record(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro trace record``: snapshot a workload's trace to disk."""
    return _record_workload(
        args.workload, args.threads, args.scale, args.out, args.store
    )


def cmd_trace_fuzz(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro trace fuzz``: record a seeded randomized scenario."""
    from repro.trace.generators import ScenarioFuzzer

    fuzzer = ScenarioFuzzer(args.seed)
    spec = fuzzer.spec()
    print(
        f"scenario {fuzzer.name}: {len(spec.phases)} phases "
        f"({', '.join(p.pattern for p in spec.phases)}), "
        f"{len(spec.schedule)} regions"
    )
    return _record_workload(
        fuzzer.name, args.threads, args.scale, args.out, args.store
    )


def _replay_machine(name: str | None, num_threads: int):
    """Resolve the (scaled) machine a replay simulates on."""
    from repro.experiments.common import sweep_machine
    from repro.machines import machine_names

    if name is None:
        name = "table1-8core" if num_threads <= 8 else "table1-32core"
    if name not in machine_names():
        raise ConfigError(
            f"unknown machine {name!r}; known: {list(machine_names())}"
        )
    machine = sweep_machine(name)
    if machine.num_cores < num_threads:
        raise ConfigError(
            f"machine {name!r} has {machine.num_cores} cores but the trace "
            f"was recorded with {num_threads} threads; pick a machine with "
            f"at least {num_threads} cores (see `repro machines`)"
        )
    return machine


def cmd_trace_replay(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro trace replay``: drive a recorded trace through the pipeline."""
    from repro.core.pipeline import BarrierPointPipeline
    from repro.profiling.profiler import profiles_digest
    from repro.workloads import get_workload
    from repro.workloads.replay import ReplayWorkload

    replay = ReplayWorkload(args.path)
    machine = _replay_machine(args.machine, replay.num_threads)
    pipe = BarrierPointPipeline(machine)
    profiles = pipe.profile(replay)
    print(
        f"replayed {replay.name} from {args.path}: "
        f"{replay.num_regions} regions x {replay.num_threads} threads, "
        f"{sum(p.instructions for p in profiles)} instructions "
        f"on {machine.name}"
    )
    print(f"profile digest: {profiles_digest(profiles)}")
    full = None
    if args.full or args.verify:
        full = pipe.full_run(replay)
        app = full.app
        print(
            f"full run: {app.cycles:.0f} cycles, "
            f"IPC {app.instructions / app.cycles:.3f}"
        )
    if args.verify:
        fresh = get_workload(replay.name, replay.num_threads, replay.scale)
        fresh_profiles = pipe.profile(fresh)
        if profiles_digest(fresh_profiles) != profiles_digest(profiles):
            print("VERIFY FAILED: replayed profiles differ from fresh "
                  "generation", file=sys.stderr)
            return 1
        fresh_full = pipe.full_run(fresh)
        for a, b in zip(fresh_full.regions, full.regions):
            if a.to_state() != b.to_state():
                print(
                    f"VERIFY FAILED: region {a.region_index} detailed "
                    f"metrics differ between replay and fresh generation",
                    file=sys.stderr,
                )
                return 1
        print(
            f"verify OK: replay is bit-identical to fresh generation "
            f"({len(profiles)} regions, {machine.name})"
        )
    return 0


def cmd_trace_inspect(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro trace inspect``: validate a trace and print its metadata."""
    from repro.trace.capture import trace_summary, validate_trace

    reader = validate_trace(args.path)
    try:
        info = trace_summary(reader)
        rows = [[k, str(info[k])] for k in (
            "path", "file_bytes", "version", "workload", "input_size",
            "scale", "num_threads", "num_regions", "num_blocks",
            "chunk_payload_bytes", "file_crc", "fingerprint",
            "code_fingerprint",
        )]
        print(format_table(["field", "value"], rows,
                           title="Trace (all checksums verified)"))
        if args.chunks:
            chunk_rows = [
                [str(region), str(length), f"{crc:08x}"]
                for region, length, crc in reader.iter_chunk_info()
            ]
            print(format_table(
                ["region", "payload bytes", "crc32"], chunk_rows,
                title="Chunks",
            ))
    finally:
        reader.close()
    return 0


def _parse_seed_spec(spec: str) -> list[int]:
    """Parse a corpus seed spec: ``7``, ``1-4`` (inclusive), or ``3,5,9``.

    Args:
        spec: The seed specification string.

    Returns:
        The seed list, in spec order.

    Raises:
        ConfigError: On a malformed spec.
    """
    seeds: list[int] = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            lo, dash, hi = part.partition("-")
            if dash:
                lo, hi = int(lo), int(hi)
                if hi < lo:
                    raise ConfigError(
                        f"seed range {part!r} is empty ({hi} < {lo})"
                    )
                seeds.extend(range(lo, hi + 1))
            else:
                seeds.append(int(part))
    except ValueError:
        raise ConfigError(
            f"bad seed spec {spec!r}: use a seed (7), an inclusive "
            f"range (1-4), or a comma list (3,5,9)"
        ) from None
    if not seeds:
        raise ConfigError(f"seed spec {spec!r} names no seeds")
    return seeds


def _open_corpus(name: str):
    """Open a named corpus over the default artifact store."""
    from repro.trace.corpus import TraceCorpus

    return TraceCorpus(ArtifactStore(), name=name)


def _find_corpus_entry(corpus, wanted: str):
    """Resolve one corpus entry by label or workload name, loudly."""
    entries = corpus.entries()
    matches = [
        e for e in entries if wanted in (e.label, e.workload)
    ]
    if len(matches) == 1:
        return matches[0]
    known = [e.label for e in entries]
    if not matches:
        raise ConfigError(
            f"corpus {corpus.name!r} has no entry {wanted!r}; "
            f"entries: {known or '(none — record some first)'}"
        )
    raise ConfigError(
        f"{wanted!r} is ambiguous in corpus {corpus.name!r}: "
        f"{[e.label for e in matches]}; use the full label"
    )


def cmd_trace_corpus_record(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro trace corpus record``: batch-record fuzz seeds."""
    corpus = _open_corpus(args.name)
    seeds = _parse_seed_spec(args.seeds)
    entries = corpus.record_fuzz_range(
        seeds, num_threads=args.threads, scale=args.scale
    )
    for entry in entries:
        print(
            f"recorded {entry.label}: {entry.num_regions} regions "
            f"({entry.fingerprint})"
        )
    print(
        f"corpus {corpus.name!r}: {len(corpus.entries())} entries "
        f"in {corpus.store.root}"
    )
    return 0


def cmd_trace_corpus_list(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro trace corpus list``: print the corpus index."""
    corpus = _open_corpus(args.name)
    entries = corpus.entries()
    rows = [
        [e.label, str(e.num_regions), f"{e.scale:g}",
         e.fingerprint.rsplit(":", 1)[-1][:16], e.store_key[:16]]
        for e in entries
    ]
    print(format_table(
        ["entry", "regions", "scale", "sha256[:16]", "store key[:16]"],
        rows, title=f"Corpus {corpus.name!r} ({len(entries)} entries)",
    ))
    return 0


def cmd_trace_corpus_replay(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro trace corpus replay``: sharded replay of one entry."""
    import shutil
    import tempfile

    from repro.profiling.profiler import profiles_digest
    from repro.trace.corpus import conformance_machine
    from repro.trace.shard import ShardedReplay, split_trace

    corpus = _open_corpus(args.name)
    entry = _find_corpus_entry(corpus, args.entry)
    path = corpus.resolve(entry)
    machine = conformance_machine(entry.num_threads, args.backend)
    shards = min(max(args.shards, 1), entry.num_regions)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-corpus-replay-"))
    try:
        shard_paths = split_trace(path, workdir, num_shards=shards)
        replay = ShardedReplay(shard_paths, machine, workers=args.workers)
        profiles, full = replay.run(
            want_profiles=True, want_full=args.full
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"replayed {entry.label} from the corpus: {len(profiles)} regions "
        f"across {shards} shard(s), {args.workers} worker(s) "
        f"on {machine.name}"
    )
    print(f"profile digest: {profiles_digest(profiles)}")
    if full is not None:
        app = full.app
        print(
            f"full run: {app.cycles:.0f} cycles, "
            f"IPC {app.instructions / app.cycles:.3f}"
        )
    if replay.report.noteworthy():
        print(replay.report.render())
    return 0


def cmd_trace_corpus_verify(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro trace corpus verify``: the conformance sweep (exit 1 on
    any digest mismatch)."""
    import time

    corpus = _open_corpus(args.name)
    started = time.perf_counter()
    results = corpus.verify(num_shards=args.shards, workers=args.workers)
    elapsed = time.perf_counter() - started
    if not results:
        print(
            f"corpus {corpus.name!r} is empty — record entries first "
            f"(`repro trace corpus record`)"
        )
        return 0
    def _pair(u: str, s: str) -> str:
        return u if u == s else f"{u}!={s}"

    rows = [
        [r["label"], r["backend"],
         _pair(r["unsharded"], r["sharded"]),
         _pair(r["unsharded_full"], r["sharded_full"]),
         "ok" if r["ok"] else "MISMATCH"]
        for r in results
    ]
    print(format_table(
        ["entry", "backend", "profiles", "full run", "verdict"], rows,
        title=f"Conformance sweep ({len(results)} checks, "
              f"{args.workers} worker(s), {elapsed:.1f}s)",
    ))
    bad = [r for r in results if not r["ok"]]
    if bad:
        print(
            f"VERIFY FAILED: {len(bad)} of {len(results)} checks "
            f"mismatched", file=sys.stderr,
        )
        return 1
    print(f"verify OK: {len(results)} checks bit-identical")
    return 0


CORPUS_COMMANDS = {
    "record": cmd_trace_corpus_record,
    "list": cmd_trace_corpus_list,
    "replay": cmd_trace_corpus_replay,
    "verify": cmd_trace_corpus_verify,
}


def cmd_trace_corpus(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """``repro trace corpus``: dispatch to the corpus subcommands."""
    return CORPUS_COMMANDS[args.corpus_command](args, parser)


TRACE_COMMANDS = {
    "record": cmd_trace_record,
    "replay": cmd_trace_replay,
    "inspect": cmd_trace_inspect,
    "fuzz": cmd_trace_fuzz,
    "corpus": cmd_trace_corpus,
}


def cmd_trace(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``repro trace``: dispatch to the trace subcommands."""
    return TRACE_COMMANDS[args.trace_command](args, parser)


def cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``repro bench``: run the benchmark harness through pytest."""
    bench_dir = pathlib.Path("benchmarks")
    if not (bench_dir / "conftest.py").is_file():
        parser.error(
            "benchmarks/ not found — run from a repository checkout"
        )
    env = {
        "REPRO_BENCH_SCALE": args.scale,
        "REPRO_BENCH_WORKLOADS": args.workloads,
        "REPRO_BENCH_MIN_SPEEDUP": args.min_speedup,
        "REPRO_BENCH_REPEAT": args.repeat,
    }
    for name, value in env.items():
        if value is not None:
            os.environ[name] = str(value)
    known = bench_targets(bench_dir)
    unknown = [t for t in args.targets if t not in known]
    if unknown:
        parser.error(f"unknown bench targets {unknown}; known: {list(known)}")
    if args.targets:
        paths = [
            str(bench_dir / f"test_{target}.py") for target in args.targets
        ]
    else:
        paths = [str(bench_dir)]
    import pytest

    return pytest.main([*paths, "-x", "-q"])


def cmd_clean(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``repro clean``: delete or garbage-collect the artifact store."""
    store = ArtifactStore()
    if args.gc:
        stats = janitor.collect_garbage(
            store,
            ttl_seconds=(
                janitor.parse_duration(args.ttl) if args.ttl else None
            ),
            max_bytes=(
                janitor.parse_size(args.max_bytes) if args.max_bytes else None
            ),
            reap_tmp=not args.no_reap_tmp,
            tmp_grace_seconds=(
                janitor.parse_duration(args.tmp_grace)
                if args.tmp_grace
                else janitor.DEFAULT_TMP_GRACE_SECONDS
            ),
            dry_run=args.dry_run,
        )
        print(stats.render(store.root))
        return 0
    if args.ttl or args.max_bytes or args.tmp_grace or args.no_reap_tmp:
        parser.error("--ttl/--max-bytes/--tmp-grace/--no-reap-tmp need --gc")
    if args.dry_run:
        print(f"{store.root}: {store.size_bytes()} bytes")
        return 0
    freed = store.clear()
    print(f"removed {store.root} ({freed} bytes)")
    return 0


def cmd_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``repro serve``: run the experiment service until drained.

    ``SIGTERM``/``SIGINT`` trigger a graceful drain — running jobs
    finish, the queued backlog stays journaled for ``--resume``, and the
    process exits 0.
    """
    from repro.serve import ReproService, configure_serve_logging
    from repro.serve.service import DEFAULT_GC_INTERVAL

    configure_serve_logging(verbose=not args.quiet)
    service = ReproService(
        host=args.host,
        port=args.port,
        workers=args.workers,
        resume=args.resume,
        ttl_seconds=(
            janitor.parse_duration(args.ttl) if args.ttl else None
        ),
        max_bytes=(
            janitor.parse_size(args.max_bytes) if args.max_bytes else None
        ),
        gc_interval=(
            args.gc_interval
            if args.gc_interval is not None
            else DEFAULT_GC_INTERVAL
        ),
        ready_file=args.ready_file,
    )
    service.start()
    service.install_signal_handlers()
    host, port = service.address
    print(f"repro serve: listening on http://{host}:{port} "
          f"({args.workers} worker(s), store {service.store.root})")
    return service.run_forever()


COMMANDS = {
    "run": cmd_run,
    "figures": cmd_figures,
    "sweep": cmd_sweep,
    "machines": cmd_machines,
    "trace": cmd_trace,
    "bench": cmd_bench,
    "clean": cmd_clean,
    "serve": cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (the ``repro`` console script).

    Library errors (bad traces, unknown workloads, machine mismatches)
    are reported on stderr with exit code 1 instead of a traceback.

    Args:
        argv: Argument list (default ``sys.argv[1:]``).

    Returns:
        Process exit code.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args, parser)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Conventional 128 + SIGINT exit, no traceback.  Worker pools
        # are already torn down: the runner's fan-out shuts its pool
        # down (cancelling queued work) on any exception.
        print("repro: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream closed the pipe (`repro ... | head`); exit quietly
        # instead of tracebacking.  Redirect stdout to devnull so the
        # interpreter's shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
