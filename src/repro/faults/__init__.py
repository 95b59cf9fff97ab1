"""Deterministic fault injection for the execution and storage layers.

The fault layer is both a test harness and a chaos knob: a seedable
:class:`~repro.faults.plan.FaultPlan` injects worker crashes, raised
exceptions, artificial latency, and I/O errors / partial writes at named
sites in the runner and store —

* ``runner.task`` — one attempt of a fan-out task (keyed by its label),
* ``store.put`` — an artifact write (between temp file and rename),
* ``store.get`` — an artifact read,
* ``trace.read`` — a ``.rpt`` chunk read (at the enclosing task's attempt),
* ``serve.request`` — an HTTP request entering the ``repro serve``
  dispatcher (surfaces as a structured 5xx response, never a hang) —

deterministically: whether a given (site, key, attempt) faults is a pure
function of the plan's seed, so a faulted run is exactly reproducible.
When no plan is installed every hook is a single ``None`` check — zero
overhead on the hot paths.

Activate a plan programmatically (:func:`install_plan`) or from the
environment (``REPRO_FAULTS`` spec + ``REPRO_FAULT_SEED``), which
worker processes inherit.  See ``docs/robustness.md``.
"""

from repro.faults.plan import (
    ENV_SEED,
    ENV_SPEC,
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    active_plan,
    current_task_attempt,
    install_plan,
    mark_process_sacrificial,
    maybe_corrupt,
    maybe_inject,
    task_attempt,
    uninstall_plan,
)

__all__ = [
    "ENV_SEED",
    "ENV_SPEC",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "current_task_attempt",
    "install_plan",
    "mark_process_sacrificial",
    "maybe_corrupt",
    "maybe_inject",
    "task_attempt",
    "uninstall_plan",
]
