"""Property battery for region-range trace sharding.

Asserts the shard subsystem's central contract: for *any* valid shard
plan — one shard, one shard per region, or randomized boundaries — the
shard-chain replay (:class:`~repro.trace.shard.ShardedReplay`) is
bit-identical to the unsharded
:class:`~repro.workloads.replay.ReplayWorkload`, in functional profiles
*and* detailed full runs, on every hierarchy backend, and replays each
region exactly once.  Malformed plans and broken chains must fail loudly
at construction, never by replaying wrong results.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.pipeline import BarrierPointPipeline
from repro.errors import ConfigError, TraceFormatError
from repro.mem.backends import backend_names
from repro.profiling.profiler import profiles_digest
from repro.sim.machine import Machine
from repro.trace.capture import TraceReader, record_trace, validate_trace
from repro.trace.shard import (
    ShardChainReplay,
    ShardPlan,
    ShardedReplay,
    shard_provenance,
    split_trace,
)
from repro.workloads import get_workload
from repro.workloads.replay import ReplayWorkload
from tests.conftest import assert_bit_identical, tiny_machine

SCALE = 0.1
THREADS = 4
BENCH = "npb-is"

BACKENDS = tuple(sorted(backend_names()))

#: Seed of the randomized-boundary battery (deterministic across runs).
BATTERY_SEED = 20260808


def backend_machine(backend: str):
    """The tiny test machine running one hierarchy backend."""
    machine = tiny_machine()
    return dataclasses.replace(
        machine, name=f"{machine.name}-{backend}", hierarchy=backend
    )


@pytest.fixture(scope="module")
def parent_trace(tmp_path_factory):
    """One recorded parent trace shared by the whole battery."""
    path = tmp_path_factory.mktemp("shards") / "parent.rpt"
    record_trace(get_workload(BENCH, THREADS, SCALE), path)
    return path


@pytest.fixture(scope="module")
def num_regions(parent_trace):
    with TraceReader(parent_trace) as reader:
        return reader.num_regions


@pytest.fixture(scope="module")
def baseline(parent_trace):
    """Unsharded profile states/digest + per-backend full-run states."""
    replay = ReplayWorkload(parent_trace)
    profiles = BarrierPointPipeline(tiny_machine()).profile(replay)
    fulls = {
        backend: BarrierPointPipeline(backend_machine(backend))
        .full_run(replay).to_state()
        for backend in BACKENDS
    }
    replay.close()
    return {
        "profile_states": [p.to_state() for p in profiles],
        "digest": profiles_digest(profiles),
        "fulls": fulls,
    }


def assert_matches_baseline(shard_paths, backend, baseline):
    """Sharded replay of ``shard_paths`` equals the unsharded baseline."""
    replay = ShardedReplay(shard_paths, backend_machine(backend))
    profiles, full = replay.run(want_profiles=True, want_full=True)
    assert_bit_identical(
        [p.to_state() for p in profiles], baseline["profile_states"]
    )
    assert profiles_digest(profiles) == baseline["digest"]
    assert_bit_identical(full.to_state(), baseline["fulls"][backend])


class TestShardPlan:
    def test_even_plan_is_deterministic(self, parent_trace, num_regions):
        """The even plan is a pure function of the trace header."""
        a = ShardPlan.even(parent_trace, 3)
        b = ShardPlan.even(parent_trace, 3)
        assert a == b
        assert a.num_shards == 3
        assert a.boundaries[0] == 0
        assert a.boundaries[-1] == num_regions
        assert a.parent_regions == num_regions

    def test_single_shard_plan_covers_everything(
        self, parent_trace, num_regions
    ):
        plan = ShardPlan.even(parent_trace, 1)
        assert plan.boundaries == (0, num_regions)
        assert plan.shard_range(0) == (0, num_regions)

    def test_one_shard_per_region(self, parent_trace, num_regions):
        plan = ShardPlan.even(parent_trace, num_regions)
        assert plan.num_shards == num_regions
        for k in range(num_regions):
            assert plan.shard_range(k) == (k, k + 1)

    def test_more_shards_than_regions_rejected(
        self, parent_trace, num_regions
    ):
        """An empty shard cannot be a valid trace — reject the plan."""
        with pytest.raises(ConfigError, match="at least one region"):
            ShardPlan.even(parent_trace, num_regions + 1)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_shard_count_rejected(self, parent_trace, bad):
        with pytest.raises(ConfigError, match=">= 1"):
            ShardPlan.even(parent_trace, bad)

    def test_bad_boundaries_rejected(self, parent_trace, num_regions):
        n = num_regions
        for bad in [(1, n), (0, n - 1), (0,), (0, 2, 1, n), (0, 2, 2, n)]:
            with pytest.raises(ConfigError):
                ShardPlan.from_boundaries(parent_trace, bad)

    def test_shard_range_bounds_checked(self, parent_trace):
        plan = ShardPlan.even(parent_trace, 2)
        with pytest.raises(ConfigError, match="out of range"):
            plan.shard_range(2)
        with pytest.raises(ConfigError, match="out of range"):
            plan.shard_range(-1)


class TestSplitTrace:
    def test_shards_are_standalone_valid_traces(
        self, parent_trace, num_regions, tmp_path
    ):
        """Every shard passes full CRC validation on its own."""
        paths = split_trace(parent_trace, tmp_path, num_shards=3)
        assert len(paths) == 3
        plan = ShardPlan.even(parent_trace, 3)
        for index, path in enumerate(paths):
            with validate_trace(path) as reader:
                start, end = plan.shard_range(index)
                assert reader.num_regions == end - start
                assert reader.meta["workload"] == BENCH
                assert reader.num_threads == THREADS

    def test_provenance_binds_shards_to_parent_bytes(
        self, parent_trace, num_regions, tmp_path
    ):
        paths = split_trace(parent_trace, tmp_path, num_shards=2)
        plan = ShardPlan.even(parent_trace, 2)
        for index, path in enumerate(paths):
            prov = shard_provenance(path)
            start, end = plan.shard_range(index)
            assert prov == {
                "parent": plan.parent_fingerprint,
                "parent_regions": num_regions,
                "start": start,
                "end": end,
                "index": index,
                "count": 2,
            }

    def test_unsharded_trace_has_no_provenance(self, parent_trace):
        assert shard_provenance(parent_trace) is None

    def test_exactly_one_plan_argument(self, parent_trace, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            split_trace(parent_trace, tmp_path)
        with pytest.raises(ConfigError, match="exactly one"):
            split_trace(
                parent_trace, tmp_path, num_shards=2, boundaries=(0, 1)
            )

    def test_shard_chunks_are_byte_exact_parent_copies(
        self, parent_trace, tmp_path
    ):
        """Shard ``k``'s chunk ``i`` equals parent chunk ``start + i``."""
        paths = split_trace(parent_trace, tmp_path, num_shards=2)
        plan = ShardPlan.even(parent_trace, 2)
        with TraceReader(parent_trace) as parent:
            for index, path in enumerate(paths):
                start, end = plan.shard_range(index)
                with TraceReader(path) as shard:
                    for local in range(end - start):
                        assert shard._read_payload(local) == (
                            parent._read_payload(start + local)
                        )


class TestChainValidation:
    @pytest.fixture()
    def shards(self, parent_trace, tmp_path):
        return split_trace(parent_trace, tmp_path, num_shards=3)

    def test_empty_chain_rejected(self):
        with pytest.raises(TraceFormatError, match="empty"):
            ShardChainReplay([])

    def test_unsharded_file_rejected(self, parent_trace):
        with pytest.raises(TraceFormatError, match="no shard provenance"):
            ShardChainReplay([parent_trace])

    def test_out_of_order_chain_rejected(self, shards):
        with pytest.raises(TraceFormatError, match="chain position"):
            ShardChainReplay([shards[1], shards[0], shards[2]])

    def test_gap_in_chain_rejected(self, shards):
        with pytest.raises(TraceFormatError, match="chain position"):
            ShardChainReplay([shards[0], shards[2]])

    def test_chain_must_start_at_region_zero(self, shards):
        with pytest.raises(TraceFormatError):
            ShardChainReplay(shards[1:])

    def test_mixed_granularity_gap_rejected(self, parent_trace, tmp_path):
        """Shards from different plans of the same parent can pass the
        index check yet leave a range gap — caught by the gap check."""
        three = split_trace(parent_trace, tmp_path / "a", num_shards=3)
        two = split_trace(parent_trace, tmp_path / "b", num_shards=2)
        with pytest.raises(TraceFormatError, match="contiguous"):
            ShardChainReplay([three[0], two[1]])

    def test_mixed_parents_rejected(self, parent_trace, tmp_path):
        mine = split_trace(parent_trace, tmp_path / "a", num_shards=2)
        other_path = tmp_path / "other.rpt"
        record_trace(get_workload("fuzz-5", THREADS, SCALE), other_path)
        theirs = split_trace(other_path, tmp_path / "b", num_shards=2)
        with pytest.raises(TraceFormatError, match="different parent"):
            ShardChainReplay([mine[0], theirs[1]])

    def test_incomplete_chain_rejected_by_sharded_replay(self, shards):
        """ShardedReplay needs the whole parent, not a prefix."""
        with pytest.raises(TraceFormatError, match="complete chain"):
            ShardedReplay(shards[:2], tiny_machine())

    def test_machine_thread_mismatch_rejected(self, shards):
        wrong = tiny_machine(cores_per_socket=8)
        with pytest.raises(ConfigError, match="cores"):
            ShardedReplay(shards, wrong)

    def test_incomplete_chain_rejected(self, shards):
        """A chain stopping before the parent's last region is rejected."""
        with pytest.raises(TraceFormatError, match="complete chain"):
            ShardChainReplay(shards[:2])


class TestShardedBitIdentity:
    """The chain-replay determinism battery."""

    def test_single_shard(self, parent_trace, baseline, tmp_path):
        paths = split_trace(parent_trace, tmp_path, num_shards=1)
        assert_matches_baseline(paths, BACKENDS[0], baseline)

    def test_one_shard_per_region(
        self, parent_trace, num_regions, baseline, tmp_path
    ):
        """Maximal split: every shard holds exactly one region."""
        paths = split_trace(parent_trace, tmp_path, num_shards=num_regions)
        assert len(paths) == num_regions
        assert_matches_baseline(paths, BACKENDS[0], baseline)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_boundaries_all_backends(
        self, backend, parent_trace, num_regions, baseline, tmp_path
    ):
        """Seeded-random boundary sets are bit-identical on every backend."""
        rng = random.Random(f"{BATTERY_SEED}:{backend}")
        for trial in range(2):
            count = rng.randint(2, num_regions - 1)
            interior = sorted(
                rng.sample(range(1, num_regions), count - 1)
            )
            boundaries = (0, *interior, num_regions)
            paths = split_trace(
                parent_trace, tmp_path / f"t{trial}",
                boundaries=boundaries,
            )
            assert_matches_baseline(paths, backend, baseline)

    def test_chain_replays_each_region_once(
        self, parent_trace, num_regions, tmp_path, monkeypatch
    ):
        """One task replays the whole chain: every region is simulated
        exactly once, however many shards the chain has."""
        calls = []
        simulate = Machine.simulate_region

        def counting(self, *args, **kwargs):
            calls.append(1)
            return simulate(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "simulate_region", counting)
        paths = split_trace(parent_trace, tmp_path, num_shards=3)
        replay = ShardedReplay(paths, tiny_machine())
        replay.run(want_full=True)
        assert len(calls) == num_regions
        assert [t.label for t in replay.report.tasks] == [
            f"shard[0:{num_regions}]"
        ]
