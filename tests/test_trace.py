"""Tests for the trace substrate: rng, program records, generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.trace import generators as gen
from repro.trace.program import (
    BasicBlock,
    BlockExec,
    RegionTrace,
    ThreadTrace,
    concat_refs,
)
from repro.trace.rng import stream_rng, stream_seed


class TestStreamSeed:
    def test_deterministic(self):
        assert stream_seed("a", 1, 2.5) == stream_seed("a", 1, 2.5)

    def test_sensitive_to_each_part(self):
        base = stream_seed("workload", 8, 3)
        assert stream_seed("workload", 8, 4) != base
        assert stream_seed("workload", 9, 3) != base
        assert stream_seed("other", 8, 3) != base

    def test_part_boundaries_matter(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert stream_seed("ab", "c") != stream_seed("a", "bc")

    def test_rng_reproducible(self):
        a = stream_rng("x", 1).integers(0, 1000, 10)
        b = stream_rng("x", 1).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_rng_streams_independent(self):
        a = stream_rng("x", 1).integers(0, 1000, 10)
        b = stream_rng("x", 2).integers(0, 1000, 10)
        assert not np.array_equal(a, b)


def _block(**kwargs) -> BasicBlock:
    defaults = dict(bb_id=0, name="bb", instructions=10)
    defaults.update(kwargs)
    return BasicBlock(**defaults)


class TestBasicBlock:
    def test_valid(self):
        block = _block(mispredict_rate=0.05, mlp=2.5, code_lines=(1, 2))
        assert block.instructions == 10

    def test_zero_instructions_rejected(self):
        with pytest.raises(WorkloadError):
            _block(instructions=0)

    def test_bad_mispredict_rate(self):
        with pytest.raises(WorkloadError):
            _block(mispredict_rate=1.5)

    def test_bad_mlp(self):
        with pytest.raises(WorkloadError):
            _block(mlp=0.5)


class TestBlockExec:
    def test_instruction_count(self):
        exec_ = BlockExec(_block(instructions=7), count=3)
        assert exec_.instructions == 21
        assert exec_.num_refs == 0

    def test_refs(self):
        lines = np.array([1, 2, 3], dtype=np.int64)
        writes = np.array([False, True, False])
        exec_ = BlockExec(_block(), count=1, lines=lines, writes=writes)
        assert exec_.num_refs == 3

    def test_mismatched_refs_rejected(self):
        with pytest.raises(WorkloadError):
            BlockExec(_block(), count=1,
                      lines=np.array([1], dtype=np.int64),
                      writes=np.array([True, False]))

    def test_zero_count_rejected(self):
        with pytest.raises(WorkloadError):
            BlockExec(_block(), count=0)


class TestRegionTrace:
    def _trace(self):
        threads = tuple(
            ThreadTrace(tid, (BlockExec(_block(), count=2),))
            for tid in range(3)
        )
        return RegionTrace(region_index=5, phase="p", threads=threads)

    def test_aggregates(self):
        trace = self._trace()
        assert trace.num_threads == 3
        assert trace.instructions == 3 * 20
        assert trace.num_refs == 0

    def test_thread_ids_must_be_dense(self):
        threads = (ThreadTrace(1, (BlockExec(_block(), count=1),)),)
        with pytest.raises(WorkloadError):
            RegionTrace(region_index=0, phase="p", threads=threads)

    def test_empty_threads_rejected(self):
        with pytest.raises(WorkloadError):
            RegionTrace(region_index=0, phase="p", threads=())


class TestConcatRefs:
    def test_empty_is_a_fresh_empty_stream(self):
        lines, writes = concat_refs([])
        assert lines.dtype == np.int64 and lines.size == 0
        assert writes.dtype == bool and writes.size == 0
        # Each call returns its own arrays, never a shared constant.
        assert concat_refs([])[0] is not lines

    def test_chunks_concatenate_in_order(self):
        chunks = [
            (np.array([1, 2], dtype=np.int64), np.array([True, False])),
            (np.array([3], dtype=np.int64), np.array([True])),
        ]
        lines, writes = concat_refs(chunks)
        assert lines.tolist() == [1, 2, 3]
        assert writes.tolist() == [True, False, True]


class TestGenerators:
    def test_strided_sweep(self):
        lines, writes = gen.strided_sweep(100, 5)
        assert lines.tolist() == [100, 101, 102, 103, 104]
        assert not writes.any()

    def test_strided_sweep_write(self):
        _, writes = gen.strided_sweep(0, 3, write=True)
        assert writes.all()

    def test_strided_sweep_repeat(self):
        lines, _ = gen.strided_sweep(0, 3, repeat=2)
        assert lines.tolist() == [0, 1, 2, 0, 1, 2]

    def test_strided_sweep_stride(self):
        lines, _ = gen.strided_sweep(0, 3, stride=4)
        assert lines.tolist() == [0, 4, 8]

    def test_zero_stride_rejected(self):
        with pytest.raises(WorkloadError):
            gen.strided_sweep(0, 3, stride=0)

    def test_rmw_sweep_pattern(self):
        lines, writes = gen.read_modify_write_sweep(10, 2)
        assert lines.tolist() == [10, 10, 11, 11]
        assert writes.tolist() == [False, True, False, True]

    def test_stencil_sweep_touches_neighbours(self):
        lines, writes = gen.stencil_sweep(100, 3, radius=1)
        assert lines.size == 9
        assert set(lines.tolist()) <= set(range(100, 104))
        assert writes.sum() == 3  # one write per centre

    def test_stencil_no_write(self):
        _, writes = gen.stencil_sweep(0, 4, radius=1, write_center=False)
        assert not writes.any()

    def test_stencil_clipped_at_base(self):
        lines, _ = gen.stencil_sweep(50, 2, radius=1)
        assert lines.min() >= 50

    def test_random_gather_in_window(self):
        rng = np.random.default_rng(1)
        lines, writes = gen.random_gather(rng, 1000, 50, 200)
        assert lines.size == 200
        assert lines.min() >= 1000
        assert lines.max() < 1050
        assert not writes.any()

    def test_random_gather_write_fraction(self):
        rng = np.random.default_rng(1)
        _, writes = gen.random_gather(rng, 0, 100, 1000, write_fraction=0.5)
        assert 300 < writes.sum() < 700

    def test_random_gather_bad_fraction(self):
        with pytest.raises(WorkloadError):
            gen.random_gather(np.random.default_rng(0), 0, 10, 5,
                              write_fraction=1.5)

    def test_blocked_all_to_all_covers_owners(self):
        lines, writes = gen.blocked_all_to_all(
            0, lines_per_owner=16, num_owners=4, reader=1, chunk_lines=4
        )
        owners_touched = {int(line) // 16 for line in lines.tolist()}
        assert owners_touched == {0, 1, 2, 3}
        assert not writes.any()

    def test_blocked_all_to_all_reader_range(self):
        with pytest.raises(WorkloadError):
            gen.blocked_all_to_all(0, 16, 4, reader=4, chunk_lines=4)

    def test_histogram_scatter_structure(self):
        rng = np.random.default_rng(2)
        lines, writes = gen.histogram_scatter(rng, 0, 9, 1000, 64)
        assert lines.size == 27  # key read + bucket read + bucket write
        assert writes.tolist() == [False, False, True] * 9
        assert (lines[1::3] == lines[2::3]).all()

    def test_histogram_scatter_skew_concentrates(self):
        rng = np.random.default_rng(3)
        lines_flat, _ = gen.histogram_scatter(rng, 0, 2000, 10**6, 256,
                                              skew=1.0)
        rng = np.random.default_rng(3)
        lines_skew, _ = gen.histogram_scatter(rng, 0, 2000, 10**6, 256,
                                              skew=4.0)
        assert (np.unique(lines_skew[1::3]).size
                < np.unique(lines_flat[1::3]).size)

    def test_reduction_accumulate(self):
        lines, writes = gen.reduction_accumulate(5, 2, rounds=2)
        assert lines.tolist() == [5, 5, 6, 6, 5, 5, 6, 6]
        assert writes.sum() == 4

    def test_pointer_chase_matches_gather_footprint(self):
        rng = np.random.default_rng(4)
        lines, _ = gen.pointer_chase(rng, 100, 10, 50)
        assert lines.min() >= 100 and lines.max() < 110

    def test_concat(self):
        a = gen.strided_sweep(0, 2)
        b = gen.strided_sweep(10, 2, write=True)
        lines, writes = gen.concat(a, b)
        assert lines.tolist() == [0, 1, 10, 11]
        assert writes.tolist() == [False, False, True, True]

    def test_concat_empty(self):
        lines, writes = gen.concat()
        assert lines.size == 0 and writes.size == 0

    @settings(max_examples=25)
    @given(st.integers(1, 100), st.integers(1, 5), st.integers(1, 3))
    def test_sweep_length_property(self, n, stride, repeat):
        lines, writes = gen.strided_sweep(0, n, stride=stride, repeat=repeat)
        assert lines.size == n * repeat
        assert lines.size == writes.size
