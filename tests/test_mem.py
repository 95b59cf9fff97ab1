"""Tests for the memory substrate: caches, directory, DRAM, hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.mem.cache import SetAssocCache
from repro.mem.directory import Directory
from repro.mem.dram import Dram
from repro.mem.hierarchy import MemoryHierarchy
from tests.conftest import tiny_machine


def small_cache(lines=16, assoc=4):
    return SetAssocCache(CacheConfig(lines * 64, assoc, 4))


class TestSetAssocCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(42)
        cache.fill(42)
        assert cache.lookup(42)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_contains_does_not_touch_stats(self):
        cache = small_cache()
        cache.fill(1)
        before = cache.stats.accesses
        assert cache.contains(1)
        assert not cache.contains(2)
        assert cache.stats.accesses == before

    def test_lru_eviction_order(self):
        cache = small_cache(lines=4, assoc=4)  # one set
        for line in (0, 4, 8, 12):
            cache.fill(line * 4)  # all map to set 0? use same-set lines
        cache = small_cache(lines=4, assoc=4)
        set_stride = cache.config.num_sets
        lines = [i * set_stride for i in range(4)]
        for line in lines:
            cache.fill(line)
        cache.lookup(lines[0])  # promote oldest to MRU
        victim = cache.fill(99 * set_stride)
        assert victim is not None
        assert victim.line == lines[1]  # second-oldest evicted

    def test_dirty_eviction_flagged(self):
        cache = small_cache(lines=2, assoc=2)
        stride = cache.config.num_sets
        cache.fill(0, dirty=True)
        cache.fill(stride)
        victim = cache.fill(2 * stride)
        assert victim.line == 0 and victim.dirty
        assert cache.stats.dirty_evictions == 1

    def test_remove(self):
        cache = small_cache()
        cache.fill(7)
        assert cache.remove(7)
        assert not cache.contains(7)
        assert not cache.remove(7)
        assert cache.stats.invalidations == 1

    def test_mark_dirty(self):
        cache = small_cache()
        cache.fill(3)
        cache.mark_dirty(3)
        assert cache.is_dirty(3)
        cache.mark_dirty(99)  # absent: no-op
        assert not cache.is_dirty(99)

    def test_flush(self):
        cache = small_cache()
        cache.fill(1)
        cache.flush()
        assert cache.occupancy == 0
        assert not cache.contains(1)

    def test_occupancy_bounded(self):
        cache = small_cache(lines=8, assoc=2)
        for line in range(100):
            cache.fill(line)
        assert cache.occupancy <= 8

    def test_refill_promotes_not_duplicates(self):
        cache = small_cache()
        cache.fill(5)
        cache.fill(5)
        assert cache.resident_lines().count(5) == 1

    def test_miss_rate(self):
        cache = small_cache()
        cache.lookup(1)
        cache.fill(1)
        cache.lookup(1)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
    def test_capacity_invariant(self, lines):
        cache = small_cache(lines=16, assoc=4)
        for line in lines:
            if not cache.lookup(line):
                cache.fill(line)
        assert cache.occupancy <= 16
        per_set = {}
        for line in cache.resident_lines():
            per_set.setdefault(line & (cache.config.num_sets - 1), []).append(line)
        assert all(len(v) <= 4 for v in per_set.values())

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
    def test_most_recent_always_present(self, lines):
        cache = small_cache(lines=8, assoc=2)
        for line in lines:
            if not cache.lookup(line):
                cache.fill(line)
        assert cache.contains(lines[-1])


class TestDirectory:
    def test_read_records_sharer(self):
        directory = Directory(num_cores=4)
        assert directory.note_read(10, 2) == -1
        assert directory.sharers(10) == 0b100

    def test_write_returns_invalidation_mask(self):
        directory = Directory(num_cores=4)
        directory.note_read(10, 0)
        directory.note_read(10, 1)
        mask = directory.note_write(10, 3)
        assert mask == 0b011
        assert directory.owner(10) == 3
        assert directory.stats.invalidations_sent == 2

    def test_read_downgrades_remote_owner(self):
        directory = Directory(num_cores=4)
        directory.note_write(5, 1)
        prev = directory.note_read(5, 2)
        assert prev == 1
        assert not directory.is_modified(5)
        assert directory.stats.downgrades == 1

    def test_own_read_keeps_modified(self):
        directory = Directory(num_cores=4)
        directory.note_write(5, 1)
        assert directory.note_read(5, 1) == -1
        assert directory.is_modified(5)

    def test_drop(self):
        directory = Directory(num_cores=2)
        directory.note_write(9, 0)
        directory.drop(9)
        assert directory.owner(9) == -1
        assert directory.sharers(9) == 0


class TestDram:
    def test_read_latency_and_counters(self):
        dram = Dram(tiny_machine())
        latency = dram.read(0)
        assert latency == tiny_machine().dram_latency_cycles
        assert dram.stats.reads_per_socket[0] == 1

    def test_writeback_counted(self):
        dram = Dram(tiny_machine())
        dram.writeback(0)
        assert dram.total_accesses() == 1

    def test_bandwidth_floor(self):
        machine = tiny_machine()
        dram = Dram(machine)
        # 8 GB/s at 2.66 GHz ~ 3.008 B/cycle -> 1000 lines = 64000 B
        floor = dram.min_cycles_for_traffic([1000], [0])
        expected = 1000 * 64 / (8.0 / 2.66)
        assert floor == pytest.approx(expected)

    def test_bandwidth_floor_worst_socket(self):
        dram = Dram(tiny_machine(num_sockets=2))
        floor = dram.min_cycles_for_traffic([10, 1000], [0, 0])
        assert floor == pytest.approx(
            dram.min_cycles_for_traffic([1000], [0]))


class TestMemoryHierarchy:
    def _refs(self, lines, writes=None):
        arr = np.asarray(lines, dtype=np.int64)
        if writes is None:
            w = np.zeros(arr.size, dtype=bool)
        else:
            w = np.asarray(writes, dtype=bool)
        return arr, w

    def test_cold_read_costs_dram(self):
        h = MemoryHierarchy(tiny_machine())
        extra = h.access(0, 1234, False)
        assert extra == h.machine.dram_latency_cycles
        assert h.snapshot().l3_misses == 1

    def test_second_read_hits_l1(self):
        h = MemoryHierarchy(tiny_machine())
        h.access(0, 1234, False)
        assert h.access(0, 1234, False) == 0

    def test_sibling_core_hits_l3(self):
        h = MemoryHierarchy(tiny_machine())
        h.access(0, 77, False)
        extra = h.access(1, 77, False)
        assert extra == h.machine.l2.latency_cycles + h.machine.l3.latency_cycles or \
            extra == h.machine.l3.latency_cycles

    def test_write_invalidates_other_sharers(self):
        h = MemoryHierarchy(tiny_machine())
        h.access(0, 500, False)
        h.access(1, 500, False)
        h.access(2, 500, True)
        # core 0's private copy must be gone
        assert not h.l1d[0].contains(500)
        assert not h.l2[0].contains(500)
        assert h.directory.owner(500) == 2

    def test_remote_socket_dirty_read_is_c2c(self):
        h = MemoryHierarchy(tiny_machine(num_sockets=2))
        h.access(0, 900, True)          # socket 0 owns dirty
        before_wb = h.snapshot().writebacks
        extra = h.access(4, 900, False)  # socket 1 reads
        snap = h.snapshot()
        assert snap.cache_to_cache >= 1
        assert snap.writebacks == before_wb + 1  # MSI downgrade writeback
        assert extra >= h.machine.l3.latency_cycles

    def test_write_to_own_modified_line_is_cheap(self):
        h = MemoryHierarchy(tiny_machine())
        h.access(0, 321, True)
        lines, writes = self._refs([321], [True])
        assert h.access_block(0, lines, writes, mlp=1.0) == 0.0

    def test_store_stall_fraction(self):
        h = MemoryHierarchy(tiny_machine())
        lines, writes = self._refs([42], [True])
        stall = h.access_block(0, lines, writes, mlp=1.0)
        assert 0 < stall < h.machine.dram_latency_cycles

    def test_mlp_scales_stalls(self):
        h1 = MemoryHierarchy(tiny_machine())
        h2 = MemoryHierarchy(tiny_machine())
        lines, writes = self._refs(list(range(10_000, 10_064)))
        s1 = h1.access_block(0, lines, writes, mlp=1.0)
        s2 = h2.access_block(0, lines, writes, mlp=4.0)
        assert s1 == pytest.approx(4.0 * s2)

    def test_invalid_mlp(self):
        h = MemoryHierarchy(tiny_machine())
        lines, writes = self._refs([1])
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            h.access_block(0, lines, writes, mlp=0.5)

    def test_invalid_mlp_complex_backend(self):
        from repro.mem.backends import hierarchy_backend

        h = hierarchy_backend("complex")(tiny_machine())
        lines, writes = self._refs([1])
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            h.access_block(0, lines, writes, mlp=0.5)

    @pytest.mark.parametrize("call", [
        lambda h: h.replay_block([-1], [5], [True]),
        lambda h: h.replay(-1, 5, True),
        lambda h: h.access_block(-1, [5], [True], 1.0),
        lambda h: h.replay_block([0, 3, -1, 2], [5, 6, 7, 8], [True] * 4),
        lambda h: h.access_code(-1, (5,)),
    ], ids=["replay_block", "replay", "access_block", "mid-column",
            "access_code"])
    def test_negative_core_rejected(self, call):
        """A negative core used to index ``_ctx`` from the end: line 5
        landed in core 7's L1 with neither owner nor sharer recorded."""
        from repro.errors import SimulationError

        h = MemoryHierarchy(tiny_machine(num_sockets=2))  # 8 cores
        with pytest.raises(SimulationError, match="core -1 out of range"):
            call(h)
        assert not h.l1d[7].contains(5)
        assert not h.l1i[7].contains(5)
        assert h.directory.owner(5) == -1

    @pytest.mark.parametrize("call", [
        lambda h: h.replay_block([0, 8], [5, 6], [True, False]),
        lambda h: h.access_block(8, [5], [True], 1.0),
        lambda h: h.access_code(8, (5,)),
    ], ids=["replay_block", "access_block", "access_code"])
    def test_core_past_machine_rejected(self, call):
        from repro.errors import SimulationError

        h = MemoryHierarchy(tiny_machine(num_sockets=2))  # 8 cores
        with pytest.raises(SimulationError, match="core 8 out of range"):
            call(h)

    @pytest.mark.parametrize("call", [
        lambda h: h.access_block(0, [1, 2, 3], [True], 1.0),
        lambda h: h.access_block(0, np.array([1]), np.array([True, False]), 1.0),
        lambda h: h.replay_block([0, 1], [1, 2, 3], [True, True, True]),
        lambda h: h.replay_block([0, 1, 2], [1, 2, 3], [True]),
    ], ids=["access_block", "access_block-arrays", "replay_block-cores",
            "replay_block-writes"])
    def test_column_length_mismatch_rejected(self, call):
        """``zip`` used to truncate to the shortest column silently."""
        from repro.errors import SimulationError

        h = MemoryHierarchy(tiny_machine())
        with pytest.raises(SimulationError, match="differ in length"):
            call(h)
        assert h.snapshot().accesses == 0

    def test_l3_inclusion_purges_private_copies(self):
        machine = tiny_machine()  # L3 = 512 lines
        h = MemoryHierarchy(machine)
        h.access(0, 0, False)
        # Stream enough distinct lines through core 0 to evict line 0 from L3.
        lines, writes = self._refs(list(range(1, 1 + 2 * machine.l3.num_lines)))
        h.access_block(0, lines, writes, mlp=4.0)
        assert not h.l3[0].contains(0)
        assert not h.l1d[0].contains(0)
        assert not h.l2[0].contains(0)

    def test_counters_delta(self):
        h = MemoryHierarchy(tiny_machine())
        before = h.snapshot()
        lines, writes = self._refs([1, 2, 3], [False, True, False])
        h.access_block(0, lines, writes, mlp=1.0)
        delta = h.snapshot().delta(before)
        assert delta.loads == 2
        assert delta.stores == 1
        assert delta.accesses == 3
        assert delta.l3_misses == 3

    def test_access_code(self):
        h = MemoryHierarchy(tiny_machine())
        stall = h.access_code(0, (1 << 40, (1 << 40) + 1))
        assert stall == 2 * h.machine.l2.latency_cycles
        assert h.access_code(0, (1 << 40,)) == 0  # now warm

    def test_flush_all(self):
        h = MemoryHierarchy(tiny_machine())
        h.access(0, 5, True)
        h.flush_all()
        assert not h.l1d[0].contains(5)
        assert h.directory.owner(5) == -1

    def test_replay_reconstructs_state(self):
        h = MemoryHierarchy(tiny_machine())
        h.replay(0, 5, True)
        assert h.l1d[0].contains(5)
        assert h.directory.owner(5) == 0

    def test_dram_bandwidth_accounting_per_socket(self):
        h = MemoryHierarchy(tiny_machine(num_sockets=2))
        lines, writes = self._refs(list(range(100)))
        h.access_block(0, lines, writes, mlp=1.0)   # socket 0
        h.access_block(4, lines + 10_000, writes, mlp=1.0)  # socket 1
        snap = h.snapshot()
        assert snap.dram_reads_per_socket[0] == 100
        assert snap.dram_reads_per_socket[1] == 100
