"""Tests for the benchmark workload suite.

Covers the three properties BarrierPoint depends on: paper-matching
dynamic barrier counts, thread-count invariance of the schedule and
instruction totals (strong scaling), and full determinism of traces.
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads import _REGISTRY, WORKLOAD_NAMES, get_workload
from repro.workloads.base import PhaseInstance

PAPER_BARRIERS = {
    "parsec-bodytrack": 89,
    "npb-bt": 1001,
    "npb-cg": 46,
    "npb-ft": 34,
    "npb-is": 11,
    "npb-lu": 503,
    "npb-mg": 245,
    "npb-sp": 3601,
}

SMALL = 0.1


class TestRegistry:
    def test_all_names_registered(self):
        assert set(WORKLOAD_NAMES) == set(PAPER_BARRIERS)

    def test_unknown_name(self):
        with pytest.raises(WorkloadError):
            get_workload("npb-nope", 4)

    def test_unknown_name_message_distinguishes_suites(self):
        """Regression: the error must not advertise paper-excluded
        workloads (npb-ua) as part of the paper suite."""
        with pytest.raises(WorkloadError) as exc:
            get_workload("npb-nope", 4)
        message = str(exc.value)
        assert f"paper suite: {sorted(WORKLOAD_NAMES)}" in message
        assert "extension workloads" in message
        assert "'npb-ua'" in message.split("extension workloads")[1]
        assert "npb-ua" not in message.split("extension workloads")[0]

    def test_registry_superset_of_paper_names(self):
        """npb-ua is registered (it exercises the region filter) but is
        deliberately not a WORKLOAD_NAMES member (paper exclusion)."""
        from repro.workloads import _REGISTRY

        assert set(WORKLOAD_NAMES) < set(_REGISTRY)
        assert set(_REGISTRY) - set(WORKLOAD_NAMES) == {"npb-ua"}
        assert get_workload("npb-ua", 4, scale=SMALL).name == "npb-ua"

    def test_invalid_threads(self):
        with pytest.raises(WorkloadError):
            get_workload("npb-ft", 0)

    def test_invalid_scale(self):
        with pytest.raises(WorkloadError):
            get_workload("npb-ft", 4, scale=0.0)


class TestCanonicalNames:
    """Canonical-form validation of dynamic workload names (the names
    that must round-trip through the serve job-submission schema)."""

    def test_registry_and_dynamic_names_pass_through(self, tmp_path):
        from repro.workloads import canonical_workload_name

        assert canonical_workload_name("npb-ft") == "npb-ft"
        assert canonical_workload_name("fuzz-7") == "fuzz-7"
        assert canonical_workload_name("fuzz-0") == "fuzz-0"
        path = f"trace:{tmp_path}/t.rpt"
        assert canonical_workload_name(path) == path

    def test_non_canonical_fuzz_seed_is_loud(self):
        from repro.workloads import canonical_workload_name

        with pytest.raises(WorkloadError, match="fuzz-7"):
            canonical_workload_name("fuzz-007")
        with pytest.raises(WorkloadError):
            get_workload("fuzz-007", 4)

    def test_pathless_trace_name_is_loud(self):
        from repro.workloads import canonical_workload_name

        with pytest.raises(WorkloadError, match="trace:<path"):
            canonical_workload_name("trace:")

    def test_unknown_and_non_string_names_are_loud(self):
        from repro.workloads import canonical_workload_name

        with pytest.raises(WorkloadError, match="paper suite"):
            canonical_workload_name("npb-nope")
        with pytest.raises(WorkloadError, match="string"):
            canonical_workload_name(7)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestPerWorkload:
    def test_barrier_count_matches_paper(self, name):
        workload = get_workload(name, 4, scale=SMALL)
        assert workload.barrier_count == PAPER_BARRIERS[name]

    def test_barrier_count_thread_invariant(self, name):
        counts = {
            nt: get_workload(name, nt, scale=SMALL).barrier_count
            for nt in (2, 4, 8)
        }
        assert len(set(counts.values())) == 1

    def test_traces_deterministic(self, name):
        w1 = get_workload(name, 4, scale=SMALL)
        w2 = get_workload(name, 4, scale=SMALL)
        for idx in (0, w1.num_regions // 2, w1.num_regions - 1):
            t1, t2 = w1.region_trace(idx), w2.region_trace(idx)
            assert t1.instructions == t2.instructions
            for a, b in zip(t1.threads, t2.threads):
                assert len(a.blocks) == len(b.blocks)
                for ba, bb in zip(a.blocks, b.blocks):
                    assert ba.block.bb_id == bb.block.bb_id
                    assert ba.count == bb.count
                    assert np.array_equal(ba.lines, bb.lines)
                    assert np.array_equal(ba.writes, bb.writes)

    def test_every_region_buildable_and_nonempty(self, name):
        workload = get_workload(name, 2, scale=SMALL)
        step = max(1, workload.num_regions // 25)
        for idx in range(0, workload.num_regions, step):
            trace = workload.region_trace(idx)
            assert trace.instructions > 0
            assert trace.num_threads == 2

    def test_strong_scaling_totals(self, name):
        """Aggregate instructions are ~invariant in thread count (class-A
        fixed-size inputs), the property multipliers transfer through."""
        step = None
        totals = {}
        for nt in (4, 8):
            workload = get_workload(name, nt, scale=SMALL)
            step = max(1, workload.num_regions // 10)
            totals[nt] = sum(
                workload.region_trace(i).instructions
                for i in range(0, workload.num_regions, step)
            )
        ratio = totals[4] / totals[8]
        assert 0.7 < ratio < 1.45

    def test_region_out_of_range(self, name):
        workload = get_workload(name, 2, scale=SMALL)
        with pytest.raises(WorkloadError):
            workload.region_trace(workload.num_regions)
        with pytest.raises(WorkloadError):
            workload.region_trace(-1)

    def test_phase_of(self, name):
        workload = get_workload(name, 2, scale=SMALL)
        inst = workload.phase_of(0)
        assert isinstance(inst, PhaseInstance)
        assert inst.phase

    def test_static_blocks_cover_trace(self, name):
        workload = get_workload(name, 2, scale=SMALL)
        nblocks = workload.num_static_blocks
        trace = workload.region_trace(workload.num_regions - 1)
        for thread in trace.threads:
            for exec_ in thread.blocks:
                assert 0 <= exec_.block.bb_id < nblocks


class TestScheduleStructure:
    def test_ft_has_four_unique_init_regions(self):
        workload = get_workload("npb-ft", 2, scale=SMALL)
        phases = [workload.phase_of(i).phase for i in range(4)]
        assert phases == ["setup", "twiddle_init", "fft_init", "warm"]

    def test_sp_has_nine_phase_loop(self):
        workload = get_workload("npb-sp", 2, scale=SMALL)
        first_step = [workload.phase_of(i).phase for i in range(1, 10)]
        assert len(set(first_step)) == 9
        second_step = [workload.phase_of(i).phase for i in range(10, 19)]
        assert first_step == second_step

    def test_mg_vcycle_levels_descend_then_ascend(self):
        workload = get_workload("npb-mg", 2, scale=SMALL)
        params = [workload.phase_of(i).param for i in range(5, 5 + 28)]
        assert params[0] == 7  # down path starts at the finest level
        assert params[-1] == 1

    def test_bodytrack_frame_structure(self):
        workload = get_workload("parsec-bodytrack", 2, scale=SMALL)
        frame0 = [workload.phase_of(i).phase for i in range(1, 23)]
        frame1 = [workload.phase_of(i).phase for i in range(23, 45)]
        assert frame0 == frame1
        assert frame0[0] == "load"

    def test_is_fresh_keys_per_iteration(self):
        workload = get_workload("npb-is", 2, scale=SMALL)
        lines1 = workload.region_trace(1).threads[0].blocks[1].lines
        lines2 = workload.region_trace(2).threads[0].blocks[1].lines
        # Key arrays live at different bases -> different address ranges.
        assert set(lines1.tolist()) != set(lines2.tolist())

    def test_lu_jitter_varies_length(self):
        workload = get_workload("npb-lu", 2, scale=1.0)
        lengths = {
            workload.region_trace(i).instructions for i in range(3, 43, 2)
        }
        assert len(lengths) > 5  # wavefront jitter produces varied lengths

    def test_cg_spmv_gather_pattern_repeats_across_iterations(self):
        workload = get_workload("npb-cg", 2, scale=SMALL)
        # spmv regions are 1, 4, 7, ...; gather block is index 2.
        g1 = workload.region_trace(1).threads[0].blocks[2].lines
        g2 = workload.region_trace(4).threads[0].blocks[2].lines
        # 75% of the sparsity pattern is iteration-invariant.
        common = np.intersect1d(g1, g2).size
        assert common > 0


class TestAllocator:
    def test_arrays_do_not_overlap(self):
        workload = get_workload("npb-cg", 2, scale=SMALL)
        spans = []
        for name in ("matrix", "x", "p", "q", "r", "dots"):
            base = workload.array_base(name)
            spans.append((base, base + workload.array_lines(name)))
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start


def _trace_bytes(workload, regions: int) -> bytes:
    """Every byte of the first ``regions`` region traces, in order."""
    parts = []
    for idx in range(min(regions, workload.num_regions)):
        trace = workload.region_trace(idx)
        for thread in trace.threads:
            for b in thread.blocks:
                parts.append(
                    f"{trace.phase}|{thread.thread_id}|{b.block.bb_id}|"
                    f"{b.count}|{b.lines.dtype}|{b.writes.dtype}|".encode()
                )
                parts += [b.lines.tobytes(), b.writes.tobytes()]
    return b"".join(parts)


class TestPieceMemo:
    """Shared trace pieces are built once per workload while traces are
    cached, and afresh on every call when they are not."""

    @pytest.mark.parametrize("threads", [8, 32])
    @pytest.mark.parametrize("name", sorted(_REGISTRY))
    def test_memo_is_byte_identical(self, name, threads):
        # 100 regions span several loop trips of every workload, so the
        # later regions are built from memoized pieces.
        memoized = get_workload(name, threads, scale=SMALL)
        fresh = get_workload(name, threads, scale=SMALL)
        fresh.disable_trace_cache()
        assert _trace_bytes(memoized, 100) == _trace_bytes(fresh, 100)
        assert memoized._memo and not fresh._memo

    def test_pieces_are_read_only_and_shared_across_regions(self):
        workload = get_workload("parsec-bodytrack", 4, scale=SMALL)
        # The image-load regions of frames 0 and 1 sweep the same lines.
        first, second = (
            workload.region_trace(i).threads[1].blocks[1]
            for i, inst in enumerate(workload._schedule)
            if inst.phase == "load" and inst.iteration < 2
        )
        assert first.lines is second.lines
        assert first.writes is second.writes
        assert not first.lines.flags.writeable
        with pytest.raises(ValueError):
            first.lines[0] = 0

    def test_generators_outside_a_workload_build_afresh(self):
        from repro.trace import generators as gen

        a, b = gen.strided_sweep(10, 4), gen.strided_sweep(10, 4)
        assert a[0] is not b[0] and a[0].flags.writeable
        memo: dict = {}
        with gen.piece_memo(memo):
            c, d = gen.strided_sweep(10, 4), gen.strided_sweep(10, 4)
        assert c is d and len(memo) == 1
        assert np.array_equal(a[0], c[0]) and not c[0].flags.writeable

    @pytest.mark.parametrize("off", ["disable_trace_cache", "env"])
    def test_no_memo_without_the_trace_cache(self, off, monkeypatch):
        """The seed side of the perf benchmark regenerates every piece."""
        from repro.trace import generators as gen
        from repro.workloads import base

        calls = {"pieces": 0, "draws": 0}
        check, stream = gen._check_positive, base.stream_rng

        def counting_check(**kwargs):
            calls["pieces"] += 1
            return check(**kwargs)

        def counting_stream(*parts):
            calls["draws"] += 1
            return stream(*parts)

        monkeypatch.setattr(gen, "_check_positive", counting_check)
        monkeypatch.setattr(base, "stream_rng", counting_stream)

        def one_pass(workload) -> dict:
            before = dict(calls)
            for idx in range(40):
                workload.region_trace(idx)
            return {k: calls[k] - before[k] for k in calls}

        cached = one_pass(get_workload("npb-lu", 4, scale=SMALL))
        if off == "env":
            monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
            workload = get_workload("npb-lu", 4, scale=SMALL)
        else:
            workload = get_workload("npb-lu", 4, scale=SMALL)
            workload.disable_trace_cache()
        first, second = one_pass(workload), one_pass(workload)
        # 37 jittered regions x 4 threads: one piece call per generator
        # call and one stream per jitter draw, on every pass.
        assert first == second
        assert first["draws"] == 37 * 4
        assert first["pieces"] > 4 * cached["pieces"]
        assert cached["draws"] == 37
        assert not workload._memo
