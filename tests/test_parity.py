"""Randomized fast-vs-reference parity tests for the hot-path engines.

Every optimized engine in this repo has its seed implementation preserved
under ``repro._reference``; these tests drive both sides with identical
randomized inputs and require *bit-identical* outputs — stats counters,
LRU orders, stack-distance histograms, MRU snapshots, simulated cycles.
This is the contract that lets the perf work claim "faster, not
different" (the same idiom as the Numba-vs-Python proxy parity tests the
SNIPPETS exemplars use).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._reference import (
    ReferenceFunctionalProfiler,
    ReferenceLruStackProfiler,
    ReferenceMemoryHierarchy,
    ReferenceMRUTracker,
    ReferenceSetAssocCache,
    reference_weighted_kmeans,
)
from repro.clustering.kmeans import weighted_kmeans
from repro.clustering.projection import random_projection
from repro.config import CacheConfig, simpoint_defaults
from repro.core.signatures import SignatureConfig, build_signature_matrix
from repro.mem.cache import SetAssocCache
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.prefetch import NextLinePrefetchHierarchy
from repro.profiling.ldv import (
    LruStackProfiler,
    bucket_of,
    bucketize,
    naive_stack_distances,
)
from repro.profiling.mru import MRUTracker
from repro.profiling.profiler import FunctionalProfiler
from repro.profiling.stackdist import (
    OlkenStackProfiler,
    StackDistanceEngine,
    left_smaller_counts,
)
from repro.sim.machine import Machine
from repro.sim.warmup import MRUWarmup
from repro.workloads import get_workload
from tests.conftest import assert_bit_identical, tiny_machine

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

lines_st = st.lists(st.integers(0, 80), min_size=1, max_size=250)
chunked_streams = st.lists(
    st.lists(st.integers(0, 50), min_size=1, max_size=120),
    min_size=1,
    max_size=5,
)


def _arr(values, dtype=np.int64):
    return np.asarray(values, dtype=dtype)


# ---------------------------------------------------------------------------
# LRU cache: dict-based vs seed list-based
# ---------------------------------------------------------------------------

cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "fill", "fill_dirty", "remove",
                         "mark_dirty", "contains", "flush"]),
        st.integers(0, 60),
    ),
    min_size=1,
    max_size=300,
)


class TestCacheParity:
    @settings(max_examples=60)
    @given(cache_ops)
    def test_random_op_sequences(self, ops):
        fast = SetAssocCache(CacheConfig(16 * 64, 4, 4))
        ref = ReferenceSetAssocCache(CacheConfig(16 * 64, 4, 4))
        for op, line in ops:
            if op == "lookup":
                assert fast.lookup(line) == ref.lookup(line)
            elif op == "fill":
                vf, vr = fast.fill(line), ref.fill(line)
                assert (vf is None) == (vr is None)
                if vf is not None:
                    assert (vf.line, vf.dirty) == (vr.line, vr.dirty)
            elif op == "fill_dirty":
                vf, vr = fast.fill(line, dirty=True), ref.fill(line, dirty=True)
                assert (vf is None) == (vr is None)
                if vf is not None:
                    assert (vf.line, vf.dirty) == (vr.line, vr.dirty)
            elif op == "remove":
                assert fast.remove(line) == ref.remove(line)
            elif op == "mark_dirty":
                fast.mark_dirty(line)
                ref.mark_dirty(line)
                assert fast.is_dirty(line) == ref.is_dirty(line)
            elif op == "contains":
                assert fast.contains(line) == ref.contains(line)
            else:
                fast.flush()
                ref.flush()
            # Full state equivalence after every operation.
            assert fast.resident_lines() == ref.resident_lines()
            assert fast.occupancy == ref.occupancy
        assert vars(fast.stats) == vars(ref.stats)


# ---------------------------------------------------------------------------
# Stack distances: vectorized engine vs Olken/Fenwick vs naive vs cascade
# ---------------------------------------------------------------------------

class TestStackDistanceParity:
    @settings(max_examples=60)
    @given(chunked_streams)
    def test_engine_matches_naive_across_chunks(self, chunks):
        engine = StackDistanceEngine()
        olken = OlkenStackProfiler(capacity=16)
        full: list[int] = []
        for chunk in chunks:
            arr = _arr(chunk)
            got = engine.observe(arr).distances
            got_olken = olken.observe(arr)
            full.extend(chunk)
            expected = naive_stack_distances(_arr(full))[-len(chunk):]
            assert got.tolist() == expected
            assert got_olken.tolist() == expected
        assert engine.unique_lines == len(set(full)) == olken.unique_lines

    @settings(max_examples=60)
    @given(chunked_streams)
    def test_profiler_matches_reference_cascade(self, chunks):
        fast = LruStackProfiler()
        ref = ReferenceLruStackProfiler()
        for chunk in chunks:
            arr = _arr(chunk)
            fast.observe(arr)
            ref.observe(arr)
            assert np.array_equal(fast.take_histogram(),
                                  ref.take_histogram())
        assert fast.unique_lines == ref.unique_lines

    @settings(max_examples=40)
    @given(chunked_streams, st.integers(1, 40))
    def test_floor_mode_threshold_exact(self, chunks, floor):
        engine = StackDistanceEngine()
        full: list[int] = []
        for chunk in chunks:
            arr = _arr(chunk)
            got = engine.observe(arr, distance_floor=floor).distances
            full.extend(chunk)
            expected = naive_stack_distances(_arr(full))[-len(chunk):]
            for g, e in zip(got.tolist(), expected):
                assert (g < 0) == (e < 0)
                if e >= 0:
                    assert (g >= floor) == (e >= floor)

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=400,
                    unique=True))
    def test_left_smaller_counts(self, values):
        arr = _arr(values)
        expected = np.array(
            [(arr[:i] < arr[i]).sum() for i in range(arr.size)]
        )
        assert np.array_equal(left_smaller_counts(arr), expected)

    @settings(max_examples=40)
    @given(st.lists(st.integers(-1, 1 << 24), min_size=1, max_size=100))
    def test_bucketize_matches_bucket_of(self, distances):
        arr = _arr(distances)
        assert bucketize(arr).tolist() == [bucket_of(d) for d in distances]


# ---------------------------------------------------------------------------
# MRU tracker: chunked engine vs seed per-access dict
# ---------------------------------------------------------------------------

class TestMRUParity:
    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.lists(st.tuples(st.integers(0, 50), st.booleans()),
                         min_size=1, max_size=120),
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 20),
    )
    def test_snapshots_identical(self, batches, cap):
        fast = MRUTracker(num_cores=2, capacity_lines=cap)
        ref = ReferenceMRUTracker(num_cores=2, capacity_lines=cap)
        for core, refs in batches:
            lines = _arr([line for line, _ in refs])
            writes = _arr([w for _, w in refs], dtype=bool)
            fast.observe(core, lines, writes)
            ref.observe(core, lines, writes)
        snap_fast = fast.snapshot(0)
        snap_ref = ref.snapshot(0)
        assert snap_fast.per_core == snap_ref.per_core
        for core in range(2):
            assert fast.occupancy(core) == ref.occupancy(core)


# ---------------------------------------------------------------------------
# Memory hierarchy: full access_block parity on randomized streams
# ---------------------------------------------------------------------------

access_batches = st.lists(
    st.tuples(
        st.integers(0, 7),                      # core
        st.lists(st.tuples(st.integers(0, 700), st.booleans()),
                 min_size=1, max_size=80),
        st.sampled_from([1.0, 2.0, 4.0]),       # mlp
    ),
    min_size=1,
    max_size=25,
)


def _fuzz_batches(seed: int, num_cores: int, rounds: int):
    """Seeded (core, lines, writes, mlp) batches over a 2000-line footprint."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(rounds):
        core = int(rng.integers(0, num_cores))
        n = int(rng.integers(1, 250))
        lines = rng.integers(0, 2000, size=n).astype(np.int64)
        writes = rng.random(n) < 0.3
        mlp = float(rng.choice([1.0, 2.0, 4.0]))
        batches.append((core, lines, writes, mlp))
    return batches


class TestHierarchyParity:
    @settings(max_examples=40, deadline=None)
    @given(access_batches)
    def test_access_block_identical(self, batches):
        machine = tiny_machine(num_sockets=2, cores_per_socket=4)
        fast = MemoryHierarchy(machine)
        ref = ReferenceMemoryHierarchy(machine)
        for core, refs, mlp in batches:
            lines = _arr([line for line, _ in refs])
            writes = _arr([w for _, w in refs], dtype=bool)
            stall_fast = fast.access_block(core, lines, writes, mlp)
            stall_ref = ref.access_block(core, lines, writes, mlp)
            assert stall_fast == stall_ref
        self._assert_hierarchy_state_equal(fast, ref)

    def test_extreme_addresses_and_directory_growth(self):
        machine = tiny_machine(num_sockets=2, cores_per_socket=4)
        rng = np.random.default_rng(31)
        fast = MemoryHierarchy(machine)
        ref = ReferenceMemoryHierarchy(machine)
        # Negative and huge line addresses, then a long distinct-line
        # sweep that grows the directory far past the caches' capacity.
        for base in (-(1 << 62), 1 << 61, 0):
            for _ in range(10):
                core = int(rng.integers(0, 8))
                n = int(rng.integers(1, 150))
                lines = (rng.integers(0, 1500, size=n) + base).astype(
                    np.int64
                )
                writes = rng.random(n) < 0.4
                assert fast.access_block(core, lines, writes, 1.0) == \
                    ref.access_block(core, lines, writes, 1.0)
        sweep = np.arange(30_000, dtype=np.int64)
        flags = np.zeros(sweep.size, dtype=bool)
        assert fast.access_block(0, sweep, flags, 1.0) == \
            ref.access_block(0, sweep, flags, 1.0)
        self._assert_hierarchy_state_equal(fast, ref)

    @pytest.mark.parametrize(
        "make",
        [MemoryHierarchy, lambda m: NextLinePrefetchHierarchy(m, degree=0)],
        ids=["inclusive", "prefetch-nl-off"],
    )
    def test_flush_and_replay_cycle(self, make):
        machine = tiny_machine(num_sockets=2, cores_per_socket=4)
        fast = make(machine)
        ref = ReferenceMemoryHierarchy(machine)
        rng = np.random.default_rng(23)
        for _ in range(3):
            for core, lines, writes, mlp in _fuzz_batches(29, 8, 12):
                assert fast.access_block(core, lines, writes, mlp) == \
                    ref.access_block(core, lines, writes, mlp)
                replay = rng.integers(0, 2000, size=40).astype(np.int64)
                rwrites = rng.random(40) < 0.3
                fast.replay_block([core] * 40, replay, rwrites)
                ref.replay_block([core] * 40, replay, rwrites)
                # Interleaved multi-core columns: the core changes on most
                # entries, across both sockets, with runs mixed in.
                rcores = rng.integers(0, 8, size=120)
                rcores[40:60] = rcores[40]
                replay = rng.integers(0, 2000, size=120).astype(np.int64)
                rwrites = rng.random(120) < 0.3
                fast.replay_block(rcores, replay, rwrites)
                ref.replay_block(rcores.tolist(), replay, rwrites)
            self._assert_hierarchy_state_equal(fast, ref)
            fast.flush_all()
            ref.flush_all()
            self._assert_hierarchy_state_equal(fast, ref)

    def test_prefetch_nl_replay_matches_reference(self):
        # Replay suppresses next-line prefetch, so warmup-only cycles on
        # an enabled prefetch-nl hierarchy reconstruct exactly the state
        # the non-prefetching reference does.
        machine = tiny_machine(num_sockets=2, cores_per_socket=4)
        fast = NextLinePrefetchHierarchy(machine)
        ref = ReferenceMemoryHierarchy(machine)
        for _ in range(3):
            for core, lines, writes, _mlp in _fuzz_batches(41, 8, 12):
                fast.replay_block([core] * len(lines), lines, writes)
                ref.replay_block([core] * len(lines), lines, writes)
            assert fast.snapshot().prefetches == 0
            self._assert_hierarchy_state_equal(fast, ref)
            fast.flush_all()
            ref.flush_all()
            self._assert_hierarchy_state_equal(fast, ref)

    @staticmethod
    def _assert_hierarchy_state_equal(fast, ref):
        snap_fast, snap_ref = fast.snapshot(), ref.snapshot()
        for attr in (
            "loads", "stores", "l1d_misses", "l2_misses", "l3_misses",
            "cache_to_cache", "writebacks", "l1i_misses",
            "dram_reads_per_socket", "dram_writebacks_per_socket",
        ):
            assert getattr(snap_fast, attr) == getattr(snap_ref, attr), attr
        for cf, cr in zip(
            (*fast.l1i, *fast.l1d, *fast.l2, *fast.l3),
            (*ref.l1i, *ref.l1d, *ref.l2, *ref.l3),
        ):
            assert cf.resident_lines() == cr.resident_lines()
            assert vars(cf.stats) == vars(cr.stats)
        assert fast.directory._sharers == ref.directory._sharers
        assert fast.directory._owner == ref.directory._owner
        assert vars(fast.directory.stats) == vars(ref.directory.stats)


# ---------------------------------------------------------------------------
# Weighted k-means: vectorized engine vs seed per-cluster loops
# ---------------------------------------------------------------------------

@st.composite
def kmeans_inputs(draw):
    """Points drawn from few distinct rows, so clusters empty out and some
    inputs have fewer distinct points than clusters."""
    n = draw(st.integers(1, 60))
    d = draw(st.integers(1, 15))
    distinct = draw(st.integers(1, n))
    coord = st.floats(-1e3, 1e3, allow_nan=False)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                         min_size=distinct, max_size=distinct))
    picks = draw(st.lists(st.integers(0, distinct - 1),
                          min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(1.0, 1e9), min_size=n, max_size=n))
    return (
        np.array(rows, dtype=np.float64)[picks],
        np.array(weights),
        draw(st.integers(1, n)),
        dict(
            seed=draw(st.integers(0, 2**32 - 1)),
            max_iterations=draw(st.integers(0, 40)),
            restarts=draw(st.integers(1, 3)),
        ),
    )


def _kmeans_state(result):
    return (result.labels, result.centers, result.distortion,
            result.iterations)


@pytest.fixture(scope="module", params=["npb-ft", "npb-lu"])
def projected_signatures(request):
    """A real projected signature matrix and its weights."""
    workload = get_workload(request.param, 8, scale=0.05)
    profiles = FunctionalProfiler(workload).profile()
    matrix, weights = build_signature_matrix(profiles, SignatureConfig())
    cfg = simpoint_defaults()
    return random_projection(matrix, cfg.projected_dims, cfg.seed), weights


class TestKMeansParity:
    @settings(max_examples=150, deadline=None)
    @given(kmeans_inputs())
    def test_randomized_inputs(self, case):
        points, weights, k, options = case
        assert_bit_identical(
            _kmeans_state(weighted_kmeans(points, weights, k, **options)),
            _kmeans_state(
                reference_weighted_kmeans(points, weights, k, **options)
            ),
        )

    def test_real_signature_sweep(self, projected_signatures):
        points, weights = projected_signatures
        cfg = simpoint_defaults()
        for k in range(1, min(cfg.max_k, points.shape[0]) + 1):
            options = dict(seed=cfg.seed + k,
                           max_iterations=cfg.kmeans_iterations,
                           restarts=cfg.kmeans_restarts)
            assert_bit_identical(
                _kmeans_state(weighted_kmeans(points, weights, k, **options)),
                _kmeans_state(
                    reference_weighted_kmeans(points, weights, k, **options)
                ),
                f"k={k}",
            )


# ---------------------------------------------------------------------------
# Fuzzer-seeded streams: the ScenarioFuzzer drives the same parity contracts
# ---------------------------------------------------------------------------

class TestFuzzerSeededParity:
    """The randomized-scenario generator feeds the fast-vs-seed contracts.

    Unlike the hypothesis strategies above, these streams have realistic
    structure (sweeps, gathers, scatter bursts) at realistic footprints,
    and are reproducible from a single integer seed across platforms.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stackdist_engines_agree_on_fuzzer_streams(self, seed):
        from repro.trace.generators import ScenarioFuzzer

        lines, _ = ScenarioFuzzer(seed).stream(4000, footprint_lines=300)
        engine = StackDistanceEngine()
        olken = OlkenStackProfiler()
        # Uneven chunk splits exercise the cross-chunk continuation paths.
        bounds = [0, 1, 17, 1000, 2500, lines.size]
        got_chunks = []
        for lo, hi in zip(bounds, bounds[1:]):
            got_chunks.append(engine.observe(lines[lo:hi]).distances)
        fast = np.concatenate(got_chunks)
        assert fast.tolist() == olken.observe(lines).tolist()
        assert fast.tolist() == naive_stack_distances(lines)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_hierarchy_parity_on_fuzzer_streams(self, seed):
        from repro.trace.generators import ScenarioFuzzer

        fuzzer = ScenarioFuzzer(seed)
        machine = tiny_machine(num_sockets=2, cores_per_socket=4)
        fast = MemoryHierarchy(machine)
        ref = ReferenceMemoryHierarchy(machine)
        for core in range(8):
            lines, writes = fuzzer.stream(
                600, footprint_lines=700, tag=f"core{core}"
            )
            assert fast.access_block(core, lines, writes, 2.0) == (
                ref.access_block(core, lines, writes, 2.0)
            )
        TestHierarchyParity._assert_hierarchy_state_equal(fast, ref)

    @pytest.mark.parametrize("seed", [4, 9])
    def test_fuzz_workload_profiles_match_reference(self, seed):
        workload = get_workload(f"fuzz-{seed}", 4, scale=0.1)
        fast = FunctionalProfiler(workload).profile()
        ref = ReferenceFunctionalProfiler(workload).profile()
        assert len(fast) == len(ref)
        for a, b in zip(fast, ref):
            assert np.array_equal(a.bbv, b.bbv)
            assert np.array_equal(a.ldv, b.ldv)


# ---------------------------------------------------------------------------
# End-to-end: whole-workload profiles, full runs and warmed barrierpoints
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def parity_workload():
    return get_workload("npb-is", 4, scale=0.2)


class TestEndToEndParity:
    def test_profiles_identical(self, parity_workload):
        fast = FunctionalProfiler(parity_workload).profile()
        ref = ReferenceFunctionalProfiler(parity_workload).profile()
        assert len(fast) == len(ref)
        for a, b in zip(fast, ref):
            assert np.array_equal(a.bbv, b.bbv)
            assert np.array_equal(a.ldv, b.ldv)

    def test_full_run_identical(self, parity_workload):
        machine = tiny_machine()
        fast = Machine(machine).run_full(parity_workload)
        ref = Machine(
            machine, hierarchy_factory=ReferenceMemoryHierarchy
        ).run_full(parity_workload)
        for fr, rr in zip(fast.regions, ref.regions):
            assert fr.cycles == rr.cycles
            assert fr.per_thread_cycles == rr.per_thread_cycles
            assert fr.counters.loads == rr.counters.loads
            assert fr.counters.l3_misses == rr.counters.l3_misses
            assert fr.counters.writebacks == rr.counters.writebacks

    def test_warmed_barrierpoint_identical(self, parity_workload):
        machine = tiny_machine()
        mid = parity_workload.num_regions // 2
        capacity = machine.l3.num_lines
        data_fast = FunctionalProfiler(parity_workload).capture_warmup(
            {mid}, capacity
        )[mid]
        data_ref = ReferenceFunctionalProfiler(
            parity_workload
        ).capture_warmup({mid}, capacity)[mid]
        assert data_fast.per_core == data_ref.per_core
        fast = Machine(machine).simulate_barrierpoint(
            parity_workload, mid, MRUWarmup(data_fast)
        )
        ref = Machine(
            machine, hierarchy_factory=ReferenceMemoryHierarchy
        ).simulate_barrierpoint(parity_workload, mid, MRUWarmup(data_ref))
        assert fast.cycles == ref.cycles
        assert fast.per_thread_cycles == ref.per_thread_cycles
