"""Seedable, deterministic fault plans and their injection hooks.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s plus a seed.
Every injection decision is a pure function of ``(seed, site, key,
kind)`` — no global counters, no wall clock — so the same plan over the
same work produces the same faults in any process, in any order, with
any worker count.  That is what lets the fault-matrix tests assert
byte-identical recovery and what makes a chaos run reproducible from its
seed.

The hooks are free when no plan is installed: :func:`maybe_inject` and
:func:`maybe_corrupt` return after one module-global ``None`` check.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ConfigError, InjectedFaultError

#: The named injection sites wired into the runner, store, trace reader,
#: and the serve layer's request handler.  Plans may only target these
#: (typos fail loudly).
FAULT_SITES = (
    "runner.task", "store.put", "store.get", "trace.read", "serve.request",
)

#: Supported fault kinds:
#:
#: * ``crash`` — ``os._exit`` the process (pool worker death; downgraded
#:   to ``exception`` when the caller cannot tolerate process death);
#: * ``exception`` — raise :class:`~repro.errors.InjectedFaultError`;
#: * ``io_error`` — raise ``OSError(EIO)`` (exercises I/O retries);
#: * ``latency`` — sleep ``seconds`` then continue (with a per-task
#:   timeout configured, this is the timeout fault);
#: * ``partial_write`` — truncate the bytes being written (a torn write:
#:   detected later by the store's checksums, healed by recompute).
FAULT_KINDS = ("crash", "exception", "io_error", "latency", "partial_write")

#: Environment variables carrying the active plan into worker processes.
ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULT_SEED"

_EIO = 5


@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a :class:`FaultPlan`.

    Attributes:
        site: Injection site, one of :data:`FAULT_SITES`.
        kind: Fault kind, one of :data:`FAULT_KINDS`.
        rate: Probability in [0, 1] that a given ``(site, key)`` pair is
            faulted at all (decided deterministically from the seed).
        max_attempts: Attempts (0-based) on which a selected pair still
            faults; attempt >= ``max_attempts`` succeeds.  1 (default)
            means "fault once, first retry succeeds"; a large value
            means the fault is persistent (retries exhaust).
        match: Substring filter on the key; empty matches every key.
        seconds: Sleep duration for ``latency`` faults.
        fraction: Surviving prefix fraction for ``partial_write`` faults.
    """

    site: str
    kind: str
    rate: float = 1.0
    max_attempts: int = 1
    match: str = ""
    seconds: float = 0.05
    fraction: float = 0.5

    def __post_init__(self) -> None:
        """Validate rule fields loudly at construction time."""
        if self.site not in FAULT_SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}"
            )
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate {self.rate} outside [0, 1]")
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def to_spec(self) -> str:
        """Render the rule in the compact ``REPRO_FAULTS`` syntax."""
        parts = [self.site, self.kind]
        options = []
        if self.rate != 1.0:
            options.append(f"rate={self.rate:g}")
        if self.max_attempts != 1:
            options.append(f"max_attempts={self.max_attempts}")
        if self.match:
            options.append(f"match={self.match}")
        if self.kind == "latency" and self.seconds != 0.05:
            options.append(f"seconds={self.seconds:g}")
        if self.kind == "partial_write" and self.fraction != 0.5:
            options.append(f"fraction={self.fraction:g}")
        if options:
            parts.append(",".join(options))
        return ":".join(parts)


def _parse_rule(spec: str) -> FaultRule:
    """Parse one ``site:kind[:opt=val,...]`` rule spec."""
    pieces = spec.split(":", 2)
    if len(pieces) < 2:
        raise ConfigError(
            f"bad fault rule {spec!r}: expected site:kind[:opt=val,...]"
        )
    site, kind = pieces[0].strip(), pieces[1].strip()
    kwargs: dict = {}
    if len(pieces) == 3 and pieces[2].strip():
        for option in pieces[2].split(","):
            if "=" not in option:
                raise ConfigError(
                    f"bad fault option {option!r} in rule {spec!r}: "
                    f"expected name=value"
                )
            name, value = option.split("=", 1)
            name = name.strip()
            if name == "rate":
                kwargs["rate"] = float(value)
            elif name == "max_attempts":
                kwargs["max_attempts"] = int(value)
            elif name == "match":
                kwargs["match"] = value.strip()
            elif name == "seconds":
                kwargs["seconds"] = float(value)
            elif name == "fraction":
                kwargs["fraction"] = float(value)
            else:
                raise ConfigError(
                    f"unknown fault option {name!r} in rule {spec!r}; "
                    f"known: rate, max_attempts, match, seconds, fraction"
                )
    return FaultRule(site=site, kind=kind, **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules.

    Attributes:
        rules: The injection rules, evaluated in order (first match that
            the seeded coin selects wins).
        seed: Seed for the deterministic per-(site, key) coin.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> FaultPlan:
        """Build a plan from the compact spec syntax.

        The spec is semicolon-separated rules, each
        ``site:kind[:opt=val,...]`` — e.g.::

            runner.task:exception;store.put:io_error:rate=0.3,max_attempts=2

        Args:
            spec: The rules string (empty means no rules).
            seed: Plan seed.

        Returns:
            The parsed plan.

        Raises:
            ConfigError: On unknown sites, kinds, or options.
        """
        rules = tuple(
            _parse_rule(part)
            for part in spec.split(";")
            if part.strip()
        )
        return cls(rules=rules, seed=seed)

    @classmethod
    def from_env(cls, environ=os.environ) -> FaultPlan | None:
        """The plan described by ``REPRO_FAULTS``/``REPRO_FAULT_SEED``.

        Args:
            environ: Environment mapping (injectable for tests).

        Returns:
            The parsed plan, or ``None`` when ``REPRO_FAULTS`` is unset
            or empty.
        """
        spec = environ.get(ENV_SPEC, "")
        if not spec.strip():
            return None
        return cls.parse(spec, seed=int(environ.get(ENV_SEED, "0")))

    def to_spec(self) -> str:
        """Render the plan in the ``REPRO_FAULTS`` syntax (seed excluded)."""
        return ";".join(rule.to_spec() for rule in self.rules)

    def _selected(self, rule: FaultRule, site: str, key: str) -> bool:
        """Whether the seeded coin selects ``(site, key)`` for this rule."""
        if rule.site != site:
            return False
        if rule.match and rule.match not in key:
            return False
        if rule.rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}|{site}|{key}|{rule.kind}|{rule.match}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "little") / 2**64
        return fraction < rule.rate

    def rule_for(
        self, site: str, key: str, attempt: int
    ) -> FaultRule | None:
        """The first rule that faults this ``(site, key, attempt)``, if any.

        Args:
            site: One of :data:`FAULT_SITES`.
            key: Stable identity of the operation (task key, store key,
                trace path) — the unit the seeded coin is tossed per.
            attempt: 0-based attempt counter; attempts at or beyond a
                rule's ``max_attempts`` no longer fault (so retries can
                succeed deterministically).

        Returns:
            The matching rule, or ``None``.
        """
        for rule in self.rules:
            if attempt < rule.max_attempts and self._selected(rule, site, key):
                return rule
        return None


#: The installed plan (``None`` = fault injection fully disabled) and
#: whether the environment has been consulted yet.  Worker processes
#: start with ``_INITIALIZED = False`` and pick the plan up from the
#: inherited environment on their first hook call.
_PLAN: FaultPlan | None = None
_INITIALIZED = False

#: Whether this process may really die for a ``crash`` fault.  Set by
#: the runner's pool-worker initializer — a worker's death is a
#: recoverable event (``BrokenProcessPool``), the parent's is not.
_SACRIFICIAL = False


def mark_process_sacrificial(flag: bool = True) -> None:
    """Declare this process expendable for ``crash`` faults.

    Called from the process-pool worker initializer; everywhere else a
    ``crash`` fault degrades to an
    :class:`~repro.errors.InjectedFaultError`.

    Args:
        flag: The new sacrificial state.
    """
    global _SACRIFICIAL
    _SACRIFICIAL = flag


#: Per-thread retry attempt of the fan-out task running on that thread.
#: Thread-local because ``repro serve`` runs fan-outs on worker threads.
_TASK = threading.local()


@contextmanager
def task_attempt(attempt: int):
    """Mark the enclosed block as retry ``attempt`` of a fan-out task.

    The fan-out wraps every task attempt in this scope; sites below the
    task that lack their own retry counter (``trace.read``) report
    :func:`current_task_attempt`, so attempt-gated rules stop firing on
    the task's retries.  Scopes nest: the outer attempt is restored on
    exit.

    Args:
        attempt: The task's 0-based attempt.
    """
    previous = getattr(_TASK, "attempt", 0)
    _TASK.attempt = attempt
    try:
        yield
    finally:
        _TASK.attempt = previous


def current_task_attempt() -> int:
    """The 0-based attempt of the fan-out task on this thread (0 outside)."""
    return getattr(_TASK, "attempt", 0)


def install_plan(plan: FaultPlan | None, export: bool = True) -> None:
    """Install (or clear) the process-wide fault plan.

    Args:
        plan: The plan to activate, or ``None`` to disable injection.
        export: Also mirror the plan into ``REPRO_FAULTS`` /
            ``REPRO_FAULT_SEED`` so spawned worker processes inherit it.
    """
    global _PLAN, _INITIALIZED
    _PLAN = plan
    _INITIALIZED = True
    if not export:
        return
    if plan is None or not plan.rules:
        os.environ.pop(ENV_SPEC, None)
        os.environ.pop(ENV_SEED, None)
    else:
        os.environ[ENV_SPEC] = plan.to_spec()
        os.environ[ENV_SEED] = str(plan.seed)


def uninstall_plan() -> None:
    """Disable fault injection (and clear the environment mirror)."""
    install_plan(None)


def active_plan() -> FaultPlan | None:
    """The currently effective plan (lazily read from the environment)."""
    global _PLAN, _INITIALIZED
    if not _INITIALIZED:
        _PLAN = FaultPlan.from_env()
        _INITIALIZED = True
    return _PLAN


def _fire(rule: FaultRule, site: str, key: str, process_safe: bool) -> None:
    """Execute a matched rule's side effect."""
    if rule.kind == "latency":
        time.sleep(rule.seconds)
        return
    if rule.kind == "io_error":
        raise OSError(_EIO, f"injected I/O error at {site} ({key})")
    if rule.kind == "crash" and process_safe:
        os._exit(13)
    # ``crash`` outside a sacrificial process degrades to an exception:
    # killing the caller would take the whole run (or test suite) down.
    raise InjectedFaultError(
        f"injected {rule.kind} fault at {site} ({key})"
    )


def maybe_inject(
    site: str, key: str, attempt: int = 0, process_safe: bool = False
) -> None:
    """Fault-injection hook: fault iff the active plan says so.

    The disabled-path cost is one global load and ``None`` check.

    Args:
        site: One of :data:`FAULT_SITES`.
        key: Stable operation identity (see :meth:`FaultPlan.rule_for`).
        attempt: 0-based retry attempt of this operation.
        process_safe: Whether a ``crash`` fault may really ``os._exit``
            (true only inside sacrificial pool workers; elsewhere it
            degrades to an :class:`~repro.errors.InjectedFaultError`).

    Raises:
        InjectedFaultError: For ``exception`` (and non-process-safe
            ``crash``) faults.
        OSError: For ``io_error`` faults.
    """
    plan = _PLAN if _INITIALIZED else active_plan()
    if plan is None:
        return
    rule = plan.rule_for(site, key, attempt)
    if rule is not None and rule.kind != "partial_write":
        _fire(rule, site, key, process_safe or _SACRIFICIAL)


def maybe_corrupt(site: str, key: str, data: bytes, attempt: int = 0) -> bytes:
    """Torn-write hook: truncate ``data`` iff a ``partial_write`` rule fires.

    Args:
        site: One of :data:`FAULT_SITES` (``store.put`` in practice).
        key: Stable operation identity.
        data: The bytes about to be written.
        attempt: 0-based retry attempt of this operation.

    Returns:
        ``data``, or a truncated prefix simulating a torn write.
    """
    plan = _PLAN if _INITIALIZED else active_plan()
    if plan is None:
        return data
    rule = plan.rule_for(site, key, attempt)
    if rule is not None and rule.kind == "partial_write":
        return data[: max(1, int(len(data) * rule.fraction))]
    return data
