"""Memory reference pattern generators.

Each generator returns a ``(lines, writes)`` pair: cache-line addresses in
access order and a parallel store mask.  These are the building blocks the
synthetic workloads compose into per-phase reference streams: contiguous
sweeps (dense array kernels), stencils (structured-grid codes), random
gathers (sparse matrices), all-to-all block reads (FFT transposes), and
scatter histograms (bucket sort).

Addresses are already line-granular (the workloads allocate arrays in units
of 64-byte lines), which halves trace volume without changing any cache,
reuse-distance or warmup behaviour.

The generators that take no rng are pure functions of their arguments, and
a workload calls them with the same arguments in many regions (one thread's
partition, a handful of jittered lengths).  Inside :func:`piece_memo` they
return the arrays built by the first such call, read-only, instead of
building them again.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro.errors import WorkloadError
from repro.trace.rng import stream_rng


T = TypeVar("T")

#: The memo of the workload whose region is being built, or ``None``.
_ACTIVE_MEMO: ContextVar[dict | None] = ContextVar("piece_memo", default=None)


@contextmanager
def piece_memo(memo: dict | None) -> Iterator[None]:
    """Serve the memoized generators and :func:`memoized` from ``memo``.

    Args:
        memo: The dict the pieces are kept in (its owner decides how long
            they live); ``None`` builds every piece afresh.
    """
    token = _ACTIVE_MEMO.set(memo)
    try:
        yield
    finally:
        _ACTIVE_MEMO.reset(token)


def memoized(key: tuple, compute: Callable[[], T]) -> T:
    """``compute()``, evaluated once per ``key`` inside :func:`piece_memo`.

    Outside a memo scope ``compute()`` runs on every call.  Workloads use
    it for per-(phase, iteration) draws every thread of a region makes
    (each draw seeds a fresh stream, ~24 us); ``key`` must be unique
    within the workload's memo.
    """
    memo = _ACTIVE_MEMO.get()
    if memo is None:
        return compute()
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = compute()
        return value


def _read_only(piece: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    for array in piece:
        array.flags.writeable = False
    return piece


def _memoized(fn):
    """Make an rng-free generator reuse its result inside :func:`piece_memo`.

    A memoized piece is shared by every later caller with the same
    arguments, so its arrays are made read-only.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _ACTIVE_MEMO.get() is None:
            return fn(*args, **kwargs)
        return memoized(
            (fn, args, tuple(kwargs.items())),
            lambda: _read_only(fn(*args, **kwargs)),
        )

    return wrapper


def _check_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise WorkloadError(f"{name} must be positive, got {value}")


def concat(
    *chunks: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``(lines, writes)`` pairs into one reference stream."""
    if not chunks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    lines = np.concatenate([c[0] for c in chunks])
    writes = np.concatenate([c[1] for c in chunks])
    return lines, writes


@_memoized
def strided_sweep(
    base: int, n_lines: int, stride: int = 1, write: bool = False, repeat: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep ``n_lines`` lines starting at ``base`` with ``stride``.

    ``repeat`` > 1 re-walks the same range, producing short reuse distances
    (the signature of a cache-resident kernel).
    """
    _check_positive(n_lines=n_lines, repeat=repeat)
    if stride == 0:
        raise WorkloadError("stride must be non-zero")
    one = base + np.arange(n_lines, dtype=np.int64) * stride
    lines = np.tile(one, repeat)
    writes = np.full(lines.size, write, dtype=bool)
    return lines, writes


@_memoized
def read_modify_write_sweep(
    base: int, n_lines: int, stride: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Read-then-write each line in a strided walk (e.g. ``a[i] += b``)."""
    _check_positive(n_lines=n_lines)
    idx = base + np.arange(n_lines, dtype=np.int64) * stride
    lines = np.repeat(idx, 2)
    writes = np.zeros(lines.size, dtype=bool)
    writes[1::2] = True
    return lines, writes


@_memoized
def stencil_sweep(
    base: int, n_lines: int, radius: int = 1, write_center: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Walk a 1-D stencil: read ``[-radius, +radius]`` around each point.

    Neighbouring stencil applications re-touch lines, yielding the short
    reuse distances typical of structured-grid sweeps (lu/mg/sp kernels).
    """
    _check_positive(n_lines=n_lines, radius=radius)
    centers = base + np.arange(n_lines, dtype=np.int64)
    offsets = np.arange(-radius, radius + 1, dtype=np.int64)
    lines = (centers[:, None] + offsets[None, :]).ravel()
    writes = np.zeros(lines.size, dtype=bool)
    if write_center:
        # The centre of each stencil application is written back.
        width = offsets.size
        writes[radius::width] = True
    return np.clip(lines, base, None), writes


def random_gather(
    rng: np.random.Generator,
    base: int,
    footprint_lines: int,
    count: int,
    write_fraction: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniformly random touches within a ``footprint_lines`` window.

    Models indirect access through an index array (sparse mat-vec in cg).
    """
    _check_positive(footprint_lines=footprint_lines, count=count)
    if not 0.0 <= write_fraction <= 1.0:
        raise WorkloadError("write_fraction must be in [0, 1]")
    lines = base + rng.integers(0, footprint_lines, size=count, dtype=np.int64)
    writes = rng.random(count) < write_fraction
    return lines, writes


@_memoized
def blocked_all_to_all(
    base: int,
    lines_per_owner: int,
    num_owners: int,
    reader: int,
    chunk_lines: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Read one chunk from every owner's block (FFT transpose traffic).

    ``reader`` selects which chunk of each owner's block this thread reads,
    so all threads collectively cover the array while each touches remote
    threads' data — generating the sharing/coherence traffic of npb-ft.
    """
    _check_positive(lines_per_owner=lines_per_owner, num_owners=num_owners,
                    chunk_lines=chunk_lines)
    if not 0 <= reader < num_owners:
        raise WorkloadError(f"reader {reader} out of range [0, {num_owners})")
    chunks = []
    offset = (reader * chunk_lines) % max(lines_per_owner, 1)
    for owner in range(num_owners):
        start = base + owner * lines_per_owner + offset
        span = min(chunk_lines, lines_per_owner - offset)
        if span > 0:
            chunks.append(start + np.arange(span, dtype=np.int64))
    lines = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    writes = np.zeros(lines.size, dtype=bool)
    return lines, writes


def histogram_scatter(
    rng: np.random.Generator,
    keys_base: int,
    n_keys: int,
    buckets_base: int,
    n_buckets: int,
    skew: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket-sort inner loop: stream keys, scatter-update random buckets.

    Each key is one sequential read followed by a read-modify-write of a
    bucket counter line; ``skew`` > 1 concentrates traffic on few buckets
    (a power-law key distribution, as in npb-is class A).
    """
    _check_positive(n_keys=n_keys, n_buckets=n_buckets)
    if skew <= 0:
        raise WorkloadError("skew must be positive")
    key_lines = keys_base + np.arange(n_keys, dtype=np.int64) // 8
    u = rng.random(n_keys)
    bucket_idx = np.floor(n_buckets * u**skew).astype(np.int64)
    bucket_idx = np.clip(bucket_idx, 0, n_buckets - 1)
    bucket_lines = buckets_base + bucket_idx
    # Interleave: key read, bucket read, bucket write.
    lines = np.empty(n_keys * 3, dtype=np.int64)
    writes = np.zeros(n_keys * 3, dtype=bool)
    lines[0::3] = key_lines
    lines[1::3] = bucket_lines
    lines[2::3] = bucket_lines
    writes[2::3] = True
    return lines, writes


@_memoized
def reduction_accumulate(
    base: int, n_lines: int, rounds: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Repeatedly read-modify-write a small shared window (dot products)."""
    _check_positive(n_lines=n_lines, rounds=rounds)
    idx = base + np.arange(n_lines, dtype=np.int64)
    one_round = np.repeat(idx, 2)
    lines = np.tile(one_round, rounds)
    writes = np.zeros(lines.size, dtype=bool)
    writes[1::2] = True
    return lines, writes


def pointer_chase(
    rng: np.random.Generator, base: int, footprint_lines: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Serially dependent random walk (linked-list traversal).

    Identical cache behaviour to :func:`random_gather` but callers attach it
    to blocks with ``mlp == 1`` to model the lost memory-level parallelism.
    """
    return random_gather(rng, base, footprint_lines, count, write_fraction=0.0)


#: Largest accepted fuzzer seed.  Seeds feed the counter-based stream
#: keys and are recorded into trace metadata as JSON integers; bounding
#: them to a signed 64-bit range keeps every representation exact.
MAX_SEED = 2**63 - 1


@dataclass(frozen=True)
class ScenarioFuzzer:
    """Seeded generator of randomized barrier-structured scenarios.

    Every knob of a scenario is drawn from a counter-based stream keyed on
    ``seed`` (:mod:`repro.trace.rng`), so ``ScenarioFuzzer(seed)`` is a
    pure function: the same seed yields the same
    :class:`~repro.workloads.synthetic.SyntheticSpec` — and therefore the
    same traces — on every machine and process.  Scenarios are registered
    like workloads: ``get_workload("fuzz-<seed>", ...)`` resolves here,
    which makes them recordable/replayable through ``repro trace``.

    Randomized dimensions (the bounds are the constructor knobs):

    * **barrier-count jitter** — the region count of the schedule;
    * **phase mix and shifts** — how many phases, which access pattern
      each uses, and a per-iteration rotation of the phase order;
    * **thread imbalance** — a per-phase skew of per-thread work;
    * **shared/private mix** — whether a phase's threads partition its
      array or contend on the whole footprint.
    """

    seed: int
    min_phases: int = 2
    max_phases: int = 4
    min_regions: int = 8
    max_regions: int = 40
    max_footprint_lines: int = 4096
    max_refs_per_thread: int = 3000

    def __post_init__(self) -> None:
        # Validate the seed loudly at construction: a bad seed would
        # otherwise only fail deep inside numpy's RNG seeding (or worse,
        # silently coerce, as bools would).
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise WorkloadError(
                f"fuzzer seed must be an int, got "
                f"{type(self.seed).__name__} {self.seed!r}"
            )
        if self.seed < 0:
            raise WorkloadError(f"fuzzer seed must be >= 0, got {self.seed}")
        if self.seed > MAX_SEED:
            raise WorkloadError(
                f"fuzzer seed must be <= {MAX_SEED} (2**63 - 1), got "
                f"{self.seed}"
            )
        if not 1 <= self.min_phases <= self.max_phases:
            raise WorkloadError("fuzzer phase bounds must satisfy 1 <= min <= max")
        if not 1 <= self.min_regions <= self.max_regions:
            raise WorkloadError("fuzzer region bounds must satisfy 1 <= min <= max")

    @property
    def name(self) -> str:
        """The workload-registry name of this scenario (``fuzz-<seed>``)."""
        return f"fuzz-{self.seed}"

    def _rng(self, *parts: object) -> np.random.Generator:
        """A deterministic stream scoped to this scenario plus ``parts``."""
        return stream_rng("scenario-fuzzer", self.seed, *parts)

    def spec(self):
        """Draw the scenario's :class:`~repro.workloads.synthetic.SyntheticSpec`."""
        from repro.workloads.synthetic import PATTERNS, PhaseSpec, SyntheticSpec

        rng = self._rng("spec")
        num_phases = int(rng.integers(self.min_phases, self.max_phases + 1))
        phases = []
        for p in range(num_phases):
            pattern = PATTERNS[int(rng.integers(0, len(PATTERNS)))]
            phases.append(PhaseSpec(
                name=f"ph{p}_{pattern}",
                pattern=pattern,
                footprint_lines=int(rng.integers(
                    64, self.max_footprint_lines + 1
                )),
                refs_per_thread=int(rng.integers(
                    100, self.max_refs_per_thread + 1
                )),
                instructions_per_ref=int(rng.integers(2, 9)),
                mlp=float(rng.choice((1.0, 2.0, 4.0))),
                write_fraction=float(rng.uniform(0.0, 0.5)),
                shared=bool(rng.random() < 0.3),
                length_jitter=float(rng.uniform(0.0, 0.3)),
                imbalance=float(rng.uniform(0.0, 0.6)),
            ))
        num_regions = int(rng.integers(self.min_regions, self.max_regions + 1))
        schedule = []
        names = [p.name for p in phases]
        for region in range(num_regions):
            iteration = region // num_phases
            # Phase shift: each loop trip rotates the phase order, so
            # region index and phase identity decorrelate across seeds.
            shift = int(rng.integers(0, num_phases))
            schedule.append((
                names[(region + shift) % num_phases], iteration
            ))
        return SyntheticSpec(
            name=self.name,
            phases=tuple(phases),
            schedule=tuple(schedule),
            input_size="fuzz",
        )

    def workload(self, num_threads: int, scale: float = 1.0):
        """Instantiate the scenario as a runnable workload.

        Args:
            num_threads: Thread count (one per simulated core).
            scale: Footprint/work scale factor.

        Returns:
            A :class:`~repro.workloads.synthetic.SyntheticWorkload`.
        """
        from repro.workloads.synthetic import SyntheticWorkload

        return SyntheticWorkload(
            self.spec(), num_threads=num_threads, scale=scale
        )

    def stream(
        self, length: int, footprint_lines: int = 512, tag: str = "stream"
    ) -> tuple[np.ndarray, np.ndarray]:
        """A raw seeded ``(lines, writes)`` reference stream.

        A convenience for property tests that want adversarial access
        streams without building a whole workload: mixes sweeps, gathers,
        and scatters drawn from the scenario's stream.

        Args:
            length: Minimum number of references to produce.
            footprint_lines: Address window the stream touches.
            tag: Extra stream-key part (distinct tags → independent streams).

        Returns:
            ``(lines, writes)`` with at least ``length`` references.
        """
        _check_positive(length=length, footprint_lines=footprint_lines)
        rng = self._rng("stream", tag, length, footprint_lines)
        chunks: list[tuple[np.ndarray, np.ndarray]] = []
        produced = 0
        while produced < length:
            kind = int(rng.integers(0, 3))
            want = int(rng.integers(1, max(2, length // 4)))
            if kind == 0:
                n = min(want, footprint_lines)
                chunks.append(strided_sweep(
                    int(rng.integers(0, footprint_lines)), max(n, 1),
                    repeat=int(rng.integers(1, 4)),
                ))
            elif kind == 1:
                chunks.append(random_gather(
                    rng, 0, footprint_lines, want,
                    write_fraction=float(rng.uniform(0.0, 0.5)),
                ))
            else:
                n_keys = max(1, want // 3)
                chunks.append(histogram_scatter(
                    rng, 0, n_keys, footprint_lines // 2,
                    max(1, footprint_lines // 2),
                ))
            produced += chunks[-1][0].size
        return concat(*chunks)
