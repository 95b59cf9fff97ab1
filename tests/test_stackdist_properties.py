"""Property tests for the stack-distance engines.

Several implementations of exact LRU stack distances coexist in the
repo: the vectorized :class:`~repro.profiling.stackdist.StackDistanceEngine`
(the hot path), the streaming dict+Fenwick
:class:`~repro.profiling.stackdist.OlkenStackProfiler`, and the seed
:class:`repro._reference.ReferenceLruStackProfiler` cascade.  These tests
assert all of them produce identical distances and LDV histograms on
seeded random streams and on every adversarial degenerate shape (empty,
single line, all-unique, all-repeat, sawtooth, reverse reuse), at several
chunking granularities — the property the replayed-trace profiles rest on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._reference import ReferenceLruStackProfiler
from repro.profiling.ldv import (
    LruStackProfiler,
    bucketize,
    naive_stack_distances,
)
from repro.profiling.ldv import COLD_BUCKET, NUM_LDV_BUCKETS
from repro.profiling.stackdist import OlkenStackProfiler, StackDistanceEngine
from repro.trace.rng import stream_rng


def _histogram(distances: np.ndarray) -> np.ndarray:
    """Bucketized LDV histogram of a distance array."""
    hist = np.zeros(NUM_LDV_BUCKETS, dtype=np.int64)
    if distances.size:
        np.add.at(hist, bucketize(distances), 1)
    return hist


def _chunked(stream: np.ndarray, chunk: int):
    """Split a stream into ``chunk``-sized pieces (at least one)."""
    if stream.size == 0:
        return [stream]
    return [stream[i:i + chunk] for i in range(0, stream.size, chunk)]


def assert_three_way_identical(stream: np.ndarray, chunk: int) -> None:
    """Every engine agrees with every other and with the naive stack."""
    engine = StackDistanceEngine()
    olken = OlkenStackProfiler()
    fast_profiler = LruStackProfiler()
    ref_profiler = ReferenceLruStackProfiler()

    engine_dists = []
    olken_dists = []
    for piece in _chunked(stream, chunk):
        engine_dists.append(engine.observe(piece).distances)
        olken_dists.append(olken.observe(piece))
        fast_profiler.observe(piece)
        ref_profiler.observe(piece)
    engine_all = np.concatenate(engine_dists) if engine_dists else stream
    olken_all = np.concatenate(olken_dists) if olken_dists else stream

    expected = np.asarray(naive_stack_distances(stream), dtype=np.int64)
    assert engine_all.tolist() == expected.tolist()
    assert olken_all.tolist() == expected.tolist()

    expected_hist = _histogram(expected)
    assert np.array_equal(fast_profiler.take_histogram(), expected_hist)
    assert np.array_equal(ref_profiler.take_histogram(), expected_hist)
    assert engine.unique_lines == olken.unique_lines == len(set(stream.tolist()))


CHUNKS = (1, 7, 64, 100_000)


class TestSeededRandomStreams:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_uniform_random(self, seed, chunk):
        rng = stream_rng("stackdist-prop", seed)
        stream = rng.integers(0, 200, size=1500, dtype=np.int64)
        assert_three_way_identical(stream, chunk)

    @pytest.mark.parametrize("seed", range(3))
    def test_zipf_skewed(self, seed):
        rng = stream_rng("stackdist-zipf", seed)
        stream = np.minimum(
            rng.zipf(1.3, size=1200).astype(np.int64), 10_000
        )
        assert_three_way_identical(stream, 97)

    @pytest.mark.parametrize("seed", range(3))
    def test_phased_working_sets(self, seed):
        """Phase changes (disjoint footprints back to back) stay exact."""
        rng = stream_rng("stackdist-phase", seed)
        phases = [
            rng.integers(base, base + 64, size=400, dtype=np.int64)
            for base in (0, 1_000, 0, 2_000)
        ]
        assert_three_way_identical(np.concatenate(phases), 256)


class TestAdversarialShapes:
    def test_empty_stream(self):
        assert_three_way_identical(np.empty(0, dtype=np.int64), 64)

    def test_single_access(self):
        assert_three_way_identical(np.array([7], dtype=np.int64), 64)

    def test_single_line_repeated(self):
        stream = np.zeros(500, dtype=np.int64)
        for chunk in CHUNKS:
            assert_three_way_identical(stream, chunk)

    def test_all_unique(self):
        stream = np.arange(800, dtype=np.int64)
        for chunk in CHUNKS:
            assert_three_way_identical(stream, chunk)

    def test_all_unique_descending(self):
        assert_three_way_identical(
            np.arange(800, dtype=np.int64)[::-1].copy(), 64
        )

    def test_sawtooth_reuse(self):
        """Repeated full sweeps: every reuse at the footprint distance."""
        stream = np.tile(np.arange(100, dtype=np.int64), 6)
        assert_three_way_identical(stream, 64)

    def test_reverse_reuse(self):
        """Sweep then reverse sweep: distances span the whole range."""
        fwd = np.arange(200, dtype=np.int64)
        assert_three_way_identical(np.concatenate([fwd, fwd[::-1]]), 150)

    def test_alternating_pair(self):
        stream = np.tile(np.array([3, 9], dtype=np.int64), 300)
        assert_three_way_identical(stream, 7)

    def test_negative_and_huge_addresses(self):
        """Line ids are arbitrary int64s (code segment lives at 2^40)."""
        rng = stream_rng("stackdist-huge", 0)
        base = np.array([-5, 1 << 40, 0, (1 << 40) + 1, -5], dtype=np.int64)
        stream = base[rng.integers(0, base.size, size=600)]
        assert_three_way_identical(stream, 64)

    def test_engine_reset_forgets_history(self):
        engine = StackDistanceEngine()
        stream = np.arange(50, dtype=np.int64)
        engine.observe(stream)
        engine.reset()
        assert engine.unique_lines == 0
        # After reset, every line is cold again.
        assert engine.observe(stream).distances.tolist() == [-1] * 50

    def test_profiler_reset_forgets_history(self):
        stream = np.arange(50, dtype=np.int64)
        for profiler in (LruStackProfiler(), ReferenceLruStackProfiler()):
            profiler.observe(stream)
            profiler.observe(stream)
            profiler.reset()
            assert profiler.unique_lines == 0
            profiler.observe(stream)
            expected = np.zeros(NUM_LDV_BUCKETS)
            expected[COLD_BUCKET] = 50  # every line is new again
            assert np.array_equal(profiler.take_histogram(), expected)

    def test_prune_within_capacity_is_a_noop(self):
        engine = StackDistanceEngine()
        engine.observe(np.arange(50, dtype=np.int64))
        assert engine.prune_to(50) is None
        assert engine.unique_lines == 50
