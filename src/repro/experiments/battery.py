"""The evaluation battery: every figure/table, store-cached and parallel.

This module is the single driver behind ``repro run`` (and its alias
``python -m repro.experiments``).  It knows three things:

* the registry of experiments (:data:`EXPERIMENTS`),
* how to build an :class:`ExperimentRunner` from CLI options, and
* how to regenerate a set of figures *incrementally*: each rendered
  figure is cached in the artifact store under a key covering the runner
  configuration, the package code fingerprint, and the source of the
  figure's own module — so a figure-only edit recomputes exactly that
  figure, and an unchanged second invocation is pure store hits.
"""

from __future__ import annotations

import argparse
import os
import time

from repro.config import simpoint_defaults, table1_8core, table1_32core
from repro.core.signatures import SIGNATURE_VARIANTS
from repro.errors import ConfigError
from repro.experiments import paper_data
from repro.experiments import common as _common
from repro.experiments.common import (
    CORE_COUNTS,
    ExperimentRunner,
    RetryPolicy,
    experiment_machine,
    sweep_kind,
    warmup_kind,
)
from repro.experiments import (
    ablations,
    fig1_barrier_counts,
    fig3_ipc_trace,
    fig4_perfect_warmup,
    fig5_maxk_methods,
    fig6_cross_validation,
    fig7_warmup_error,
    fig8_relative_scaling,
    fig9_speedups,
    sweep,
    table3_barrierpoints,
)
from repro.machines import machine_names
from repro.store import (
    ArtifactStore,
    code_fingerprint,
    gc_from_env,
    module_fingerprint,
)

EXPERIMENTS = {
    "fig1": fig1_barrier_counts,
    "fig3": fig3_ipc_trace,
    "fig4": fig4_perfect_warmup,
    "fig5": fig5_maxk_methods,
    "fig6": fig6_cross_validation,
    "fig7": fig7_warmup_error,
    "fig8": fig8_relative_scaling,
    "fig9": fig9_speedups,
    "table3": table3_barrierpoints,
    "ablations": ablations,
    "sweep": sweep,
}

#: What ``repro run`` / ``repro figures`` regenerate by default: the
#: paper's evaluation.  The cross-architecture sweep is opt-in (``repro
#: sweep`` or ``--only sweep``) because its machine matrix goes beyond
#: the paper's figures.
DEFAULT_BATTERY = tuple(n for n in EXPERIMENTS if n != "sweep")

_SELECTION = ("profiles", sweep_kind("combine"))
_PERFECT = (*_SELECTION, "full")

#: Pass kinds each experiment reads through the runner's ``profiles``,
#: ``full``, ``selection`` and ``evaluate_*`` methods: the stored
#: profiles and full runs, the k sweep behind each signature variant's
#: selection, and the warmed evaluations.  Drives the parallel prefetch
#: so a selected figure only formats what the workers computed, and
#: ``--only fig1`` computes nothing.
EXPERIMENT_NEEDS: dict[str, tuple[str, ...]] = {
    "fig1": (),
    "fig3": _PERFECT,
    "fig4": _PERFECT,
    "fig5": ("profiles", "full", *map(sweep_kind, SIGNATURE_VARIANTS)),
    "fig6": _PERFECT,
    "fig7": (*_PERFECT, warmup_kind("mru"), warmup_kind("cold")),
    "fig8": _PERFECT,
    "fig9": (*_PERFECT, warmup_kind("mru")),
    "table3": _SELECTION,
    "ablations": (*_PERFECT, sweep_kind("combine-sum")),
    # The sweep fans out its own (workload, machine) passes inside
    # ``sweep.compute`` — the default-machine prefetch would miss them.
    "sweep": (),
}

#: The benchmarks/scale the ``--quick`` smoke configuration runs.
QUICK_SCALE = 0.3
QUICK_BENCHMARKS = ("npb-ft", "npb-cg", "npb-is")


def add_runner_options(parser: argparse.ArgumentParser) -> None:
    """Attach the shared runner options to an argparse parser.

    Args:
        parser: The (sub)parser for a command that builds a runner.
    """
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (1.0 = the recorded numbers)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"small-scale smoke run (scale {QUICK_SCALE}, "
             f"{', '.join(QUICK_BENCHMARKS)})",
    )
    parser.add_argument(
        "--only", type=str, default="",
        help="comma-separated experiment names "
             f"({','.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--workers", "-j", type=int, default=None,
        help="worker processes for the per-(benchmark, cores) fan-out of "
             "profiles, full runs, k sweeps and warmup runs "
             "(default $REPRO_WORKERS or in-process)",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="bypass the artifact store (compute everything in memory)",
    )
    parser.add_argument(
        "--machines", type=str, default="",
        help="comma-separated registry machines for the sweep experiment "
             "(default: the built-in sweep set; see `repro machines`)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume a killed run: skip passes the checkpoint journal "
             "recorded as complete (artifacts must still be in the store)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-task time budget in seconds for the parallel fan-out "
             "(default $REPRO_TASK_TIMEOUT or unlimited)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None,
        help="retry budget per failed task "
             "(default $REPRO_MAX_RETRIES or 2)",
    )
    parser.add_argument(
        "--faults", type=str, default=None,
        help="fault-injection plan, e.g. "
             "'runner.task:exception;store.put:io_error:rate=0.3' "
             "(default $REPRO_FAULTS; see docs/robustness.md)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault plan's deterministic coin "
             "(default $REPRO_FAULT_SEED or 0)",
    )


def runner_from_args(args: argparse.Namespace) -> ExperimentRunner:
    """Build the :class:`ExperimentRunner` an options namespace describes.

    Args:
        args: Parsed options from a parser prepared with
            :func:`add_runner_options`.

    Returns:
        A configured runner (``--quick`` wins over ``--scale``).
    """
    kwargs: dict = {}
    if args.workers is not None:
        kwargs["workers"] = args.workers
    if args.no_store:
        kwargs["store"] = None
    retry_overrides: dict = {}
    if getattr(args, "timeout", None) is not None:
        retry_overrides["timeout"] = args.timeout
    if getattr(args, "max_retries", None) is not None:
        retry_overrides["max_retries"] = args.max_retries
    if retry_overrides:
        kwargs["retry"] = RetryPolicy.from_env(**retry_overrides)
    if getattr(args, "resume", False):
        kwargs["resume"] = True
    if getattr(args, "faults", None) is not None:
        from repro.faults import ENV_SEED, FaultPlan, install_plan

        seed = args.fault_seed
        if seed is None:
            seed = int(os.environ.get(ENV_SEED, "0"))
        install_plan(FaultPlan.parse(args.faults, seed=seed))
    if getattr(args, "machines", ""):
        selected = tuple(
            name.strip() for name in args.machines.split(",") if name.strip()
        )
        unknown = [m for m in selected if m not in machine_names()]
        if unknown:
            raise ConfigError(
                f"unknown machines {unknown}; known: {list(machine_names())}"
            )
        kwargs["sweep_machines"] = selected
    if args.quick:
        return ExperimentRunner(
            scale=QUICK_SCALE, benchmarks=QUICK_BENCHMARKS, **kwargs
        )
    return ExperimentRunner(scale=args.scale, **kwargs)


def select_experiments(
    parser: argparse.ArgumentParser, only: str
) -> list[str]:
    """Resolve an ``--only`` string into experiment names.

    Args:
        parser: Parser used to report unknown names.
        only: Comma-separated experiment names, or empty for all.

    Returns:
        Names in battery order.
    """
    selected = (
        [name.strip() for name in only.split(",") if name.strip()]
        if only
        else list(DEFAULT_BATTERY)
    )
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments {unknown}; known: {list(EXPERIMENTS)}")
    return selected


def figure_key(runner: ExperimentRunner, name: str) -> str:
    """Artifact key for one rendered figure.

    The key covers the runner's result-determining configuration, the
    package code fingerprint, and the source of the figure's module plus
    the shared harness modules — so editing one figure module invalidates
    only that figure's cached output.  The sweep figure additionally
    keys on the runner's machine set (the only figure that consults it),
    so a ``--machines`` change recomputes the sweep and nothing else.

    Args:
        runner: The runner the figure would be computed with.
        name: Experiment name in :data:`EXPERIMENTS`.

    Returns:
        A hex key string.
    """
    extra = {}
    if name == "sweep":
        extra["machines"] = list(runner.sweep_machines)
    return ArtifactStore.derive_key(
        figure=name,
        runner=runner.fingerprint(),
        code=code_fingerprint(),
        deps=[
            module_fingerprint(EXPERIMENTS[name]),
            module_fingerprint(_common),
            module_fingerprint(paper_data),
        ],
        **extra,
    )


def experiment_pairs(
    runner: ExperimentRunner, name: str
) -> list[tuple[str, int]]:
    """The (benchmark, cores) pairs an experiment reads.

    A figure module that pins its pair with ``BENCHMARK`` and ``CORES``
    constants (Fig. 3) reads that pair whatever the runner's suite;
    every other figure reads the runner's ``benchmarks`` ×
    ``CORE_COUNTS``.

    Args:
        runner: The runner the experiment would be computed with.
        name: Experiment name in :data:`EXPERIMENTS`.

    Returns:
        The pairs, empty for an experiment that needs no passes.
    """
    if not EXPERIMENT_NEEDS[name]:
        return []
    module = EXPERIMENTS[name]
    if hasattr(module, "BENCHMARK"):
        return [(module.BENCHMARK, module.CORES)]
    return [(b, nt) for b in runner.benchmarks for nt in CORE_COUNTS]


def _prefetch(runner: ExperimentRunner, names: list[str]) -> None:
    """Fan out, in one pool, every pass the named experiments read.

    Each pair carries the union of the kinds its readers need.  Pairs
    with more kinds are submitted first, so the longest tasks start
    while the pool is emptiest.
    """
    plan: dict[tuple, set[str]] = {}
    for name in names:
        for pair in experiment_pairs(runner, name):
            plan.setdefault(pair, set()).update(EXPERIMENT_NEEDS[name])
    if not plan:
        return
    by_pair = {
        pair: tuple(sorted(kinds))
        for pair, kinds in sorted(plan.items(), key=lambda i: -len(i[1]))
    }
    grid = {(b, nt) for b in runner.benchmarks for nt in CORE_COUNTS}
    kind_sets = set(by_pair.values())
    if set(by_pair) == grid and len(kind_sets) == 1:
        runner.prefetch(kinds=kind_sets.pop())
    else:
        runner.prefetch(pairs=by_pair)


def run_experiments(
    runner: ExperimentRunner,
    names: list[str] | None = None,
    on_result=None,
) -> dict[str, str]:
    """Regenerate figures, reusing cached outputs and prefetching the rest.

    Figures whose rendered output is already in the store are served from
    it; if any figure must be computed and the runner has ``workers`` > 1,
    every pass those figures read — profiles, full runs, k sweeps and
    warmed evaluations, for each (benchmark, cores) pair they read — is
    first fanned out across the process pool, so rendering only
    reconstructs and formats.  Output text is byte-identical however it
    was obtained.

    Args:
        runner: The configured experiment runner.
        names: Experiments to run, in order (default: the default
            battery, i.e. everything except the opt-in sweep).
        on_result: Optional callback ``(name, output, seconds, cached)``
            invoked after each figure.

    Returns:
        Mapping of experiment name to rendered output text.
    """
    if names is None:
        names = list(DEFAULT_BATTERY)
    try:
        cached: dict[str, str] = {}
        for name in names:
            text = runner._store_get("figure", figure_key(runner, name))
            if isinstance(text, str):
                cached[name] = text
        if runner.workers > 1:
            _prefetch(runner, [name for name in names if name not in cached])
        outputs: dict[str, str] = {}
        for name in names:
            start = time.perf_counter()
            if name in cached:
                output = cached[name]
            else:
                output = EXPERIMENTS[name].run(runner)
                runner._store_put("figure", figure_key(runner, name), output)
            outputs[name] = output
            if on_result is not None:
                on_result(
                    name, output, time.perf_counter() - start, name in cached
                )
        return outputs
    finally:
        # Runner-exit janitor hook: with REPRO_STORE_GC=1 every battery
        # invocation ends with an env-configured GC sweep of its store.
        if runner.store is not None:
            gc_from_env(runner.store)


def show_configs() -> str:
    """Render Table I and Table II as configured."""
    lines = ["Table I — simulated system characteristics (paper scale)"]
    for cfg in (table1_8core(), table1_32core()):
        lines.append(
            f"  {cfg.name}: {cfg.num_sockets} socket(s) x "
            f"{cfg.cores_per_socket} cores @ {cfg.core.frequency_ghz} GHz, "
            f"{cfg.core.dispatch_width}-wide, ROB {cfg.core.rob_entries}, "
            f"branch penalty {cfg.core.branch_miss_penalty}"
        )
        lines.append(
            f"    L1-I {cfg.l1i.size_bytes // 1024} KB/{cfg.l1i.associativity}w"
            f"/{cfg.l1i.latency_cycles}c, "
            f"L1-D {cfg.l1d.size_bytes // 1024} KB/{cfg.l1d.associativity}w"
            f"/{cfg.l1d.latency_cycles}c, "
            f"L2 {cfg.l2.size_bytes // 1024} KB/{cfg.l2.associativity}w"
            f"/{cfg.l2.latency_cycles}c, "
            f"L3 {cfg.l3.size_bytes // (1024 * 1024)} MB/"
            f"{cfg.l3.associativity}w/{cfg.l3.latency_cycles}c per socket"
        )
        lines.append(
            f"    DRAM {cfg.mem.latency_ns} ns, "
            f"{cfg.mem.bandwidth_gbps_per_socket} GB/s per socket"
        )
    lines.append("  evaluation machines (cache-scaled):")
    for nt in (8, 32):
        cfg = experiment_machine(nt)
        lines.append(
            f"    {cfg.name}: L1-D {cfg.l1d.num_lines} lines, "
            f"L2 {cfg.l2.num_lines} lines, L3 {cfg.l3.num_lines} "
            f"lines/socket"
        )
    sp = simpoint_defaults()
    lines.append("Table II — SimPoint parameters")
    lines.append(
        f"  -dim {sp.projected_dims}  -maxK {sp.max_k}  "
        f"-fixedLength {'on' if sp.fixed_length else 'off'}  "
        f"-coveragePct {sp.coverage_pct:.0%}"
    )
    for key, value in paper_data.SIMPOINT_PARAMETERS.items():
        lines.append(f"  (paper {key} = {value})")
    return "\n".join(lines)
