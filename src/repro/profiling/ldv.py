"""LRU stack-distance profiling (section III-A2).

The LRU stack distance of an access is the number of *distinct* lines
touched since the previous access to the same line.  The paper stores these
in a power-of-two histogram per inter-barrier region — the LRU stack
distance vector (LDV) — with the stack persisting across barriers, which is
what lets cold-start regions (all first touches, infinite distance) look
different from later, code-identical iterations.

Implementation: exact distances from the chunked Bennett–Kruskal/Olken
engine (:mod:`repro.profiling.stackdist`), bucketed with one vectorized
``log2`` + ``bincount`` per chunk.  This replaced the seed's bucketed
Mattson cascade, whose per-access Python loop walked O(log n) dict levels
per cold access — the dominant cost of the whole profiling pass on
streaming workloads.  The histograms are bit-identical to the cascade's
(both are exact at bucket granularity; the randomized parity tests check
all three implementations against each other).
"""

from __future__ import annotations

import numpy as np

from repro.profiling.stackdist import StackDistanceEngine

#: Power-of-two distance bins 2^0 .. 2^22, plus one cold bin for first
#: touches (infinite distance).  2^22 lines = 256 MB of distinct data,
#: far beyond any workload here.
NUM_LDV_BUCKETS = 24
COLD_BUCKET = NUM_LDV_BUCKETS - 1


class LruStackProfiler:
    """Streaming stack-distance histogrammer for one thread.

    ``observe`` consumes a numpy array of line addresses and adds each
    access's distance bin to the *current* histogram; ``take_histogram``
    returns and resets the per-region histogram while keeping the stack
    itself intact across region boundaries.
    """

    __slots__ = ("_engine", "_hist")

    def __init__(self) -> None:
        self._engine = StackDistanceEngine()
        self._hist = np.zeros(NUM_LDV_BUCKETS, dtype=np.int64)

    @property
    def unique_lines(self) -> int:
        """Number of distinct lines ever observed (stack depth)."""
        return self._engine.unique_lines

    def observe(self, lines: np.ndarray) -> None:
        """Stream a batch of line accesses through the LRU stack."""
        if lines.size == 0:
            return
        distances = self._engine.observe(lines).distances
        self._hist += np.bincount(
            bucketize(distances), minlength=NUM_LDV_BUCKETS
        )

    def take_histogram(self) -> np.ndarray:
        """Return the histogram accumulated since the last call, and reset."""
        out = self._hist.astype(np.float64)
        self._hist = np.zeros(NUM_LDV_BUCKETS, dtype=np.int64)
        return out

    def reset(self) -> None:
        """Forget all stack state and the pending histogram."""
        self._engine.reset()
        self._hist = np.zeros(NUM_LDV_BUCKETS, dtype=np.int64)


def bucketize(distances: np.ndarray) -> np.ndarray:
    """Vectorized :func:`bucket_of` over an exact-distance array."""
    # floor(log2(d + 1)) via frexp: exact for d + 1 < 2^53.
    exponents = np.frexp((distances + 1).astype(np.float64))[1] - 1
    buckets = np.minimum(exponents, COLD_BUCKET - 1)
    return np.where(distances < 0, COLD_BUCKET, buckets)


def naive_stack_distances(lines: np.ndarray) -> list[int]:
    """Reference Mattson stack; returns -1 for cold accesses.

    O(n * depth) — for tests and documentation only.
    """
    stack: list[int] = []  # index 0 = MRU
    out: list[int] = []
    for line in lines.tolist():
        try:
            depth = stack.index(line)
        except ValueError:
            out.append(-1)
            stack.insert(0, line)
        else:
            out.append(depth)
            del stack[depth]
            stack.insert(0, line)
    return out


def bucket_of(distance: int) -> int:
    """Histogram bin of an exact stack distance (-1 = cold).

    Bucket ``b`` covers stack positions ``[2^b - 1, 2^{b+1} - 2]`` — the
    ranges induced by the power-of-two bin widths — so bin membership
    matches :class:`LruStackProfiler` exactly.
    """
    if distance < 0:
        return COLD_BUCKET
    return min((int(distance) + 1).bit_length() - 1, COLD_BUCKET - 1)
