"""Tests for the pluggable hierarchy backends (repro.mem.backends).

The acceptance property: with their distinguishing features disabled,
the non-inclusive and prefetching backends are *behaviorally identical*
to the reference inclusive hierarchy — same stall cycles, same counters,
same resident lines, same directory state — on a randomized coherent
access mix.  With the features on, each backend shows its signature
behavior.
"""

import random
from dataclasses import replace

import pytest

from repro.config import TopologyConfig
from repro.errors import ConfigError
from repro.mem import (
    HIERARCHY_BACKENDS,
    ComplexHierarchy,
    MemoryHierarchy,
    NextLinePrefetchHierarchy,
    NonInclusiveHierarchy,
    backend_names,
    hierarchy_backend,
)
from repro.mem.hierarchy import AccessCounters
from repro.sim.machine import Machine
from tests.conftest import tiny_machine


def drive(hierarchy, seed=1234, accesses=6000, lines=4000, write_frac=0.3):
    """Replay a deterministic random access mix; returns summed stalls."""
    rng = random.Random(seed)
    num_cores = hierarchy.machine.num_cores
    stalls = 0.0
    for _ in range(accesses):
        core = rng.randrange(num_cores)
        line = rng.randrange(lines)
        stalls += hierarchy.access(core, line, rng.random() < write_frac)
    return stalls


def full_state(hierarchy):
    """Every observable: caches, dirtiness, directory, counters."""
    return (
        [dict(s) for cache in (*hierarchy.l1i, *hierarchy.l1d,
                               *hierarchy.l2, *hierarchy.l3)
         for s in cache._sets],
        [set(cache._dirty) for cache in (*hierarchy.l1d, *hierarchy.l2,
                                         *hierarchy.l3)],
        dict(hierarchy.directory._sharers),
        dict(hierarchy.directory._owner),
        hierarchy.snapshot().to_state(),
    )


class TestRegistry:
    def test_names(self):
        assert backend_names() == (
            "complex", "inclusive", "noninclusive", "prefetch-nl"
        )

    def test_lookup(self):
        assert hierarchy_backend("inclusive") is MemoryHierarchy
        assert hierarchy_backend("noninclusive") is NonInclusiveHierarchy
        assert hierarchy_backend("prefetch-nl") is NextLinePrefetchHierarchy
        assert hierarchy_backend("complex") is ComplexHierarchy

    def test_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown hierarchy backend"):
            hierarchy_backend("exclusive")

    def test_every_backend_constructible_from_config(self):
        machine = tiny_machine()
        for cls in HIERARCHY_BACKENDS.values():
            hierarchy = cls(machine)
            assert isinstance(hierarchy, MemoryHierarchy)

    def test_machine_resolves_backend_from_config(self):
        from dataclasses import replace

        base = tiny_machine()
        assert type(Machine(base).hierarchy) is MemoryHierarchy
        for name, cls in HIERARCHY_BACKENDS.items():
            machine = Machine(replace(base, hierarchy=name))
            assert type(machine.hierarchy) is cls
            machine.reset()
            assert type(machine.hierarchy) is cls

    def test_machine_rejects_unknown_backend(self):
        from dataclasses import replace

        with pytest.raises(ConfigError, match="unknown hierarchy backend"):
            Machine(replace(tiny_machine(), hierarchy="bogus"))


class TestFeatureDisabledParity:
    """Acceptance: features off => identical to the reference hierarchy."""

    @pytest.mark.parametrize("sockets", [1, 2])
    def test_noninclusive_disabled_matches_reference(self, sockets):
        machine = tiny_machine(num_sockets=sockets)
        ref = MemoryHierarchy(machine)
        twin = NonInclusiveHierarchy(machine, inclusive=True)
        assert drive(ref) == drive(twin)
        assert full_state(ref) == full_state(twin)

    @pytest.mark.parametrize("sockets", [1, 2])
    def test_prefetch_disabled_matches_reference(self, sockets):
        machine = tiny_machine(num_sockets=sockets)
        ref = MemoryHierarchy(machine)
        twin = NextLinePrefetchHierarchy(machine, degree=0)
        assert drive(ref) == drive(twin)
        assert full_state(ref) == full_state(twin)

    def test_features_enabled_diverge(self):
        machine = tiny_machine()
        ref_state = full_state(
            (lambda h: (drive(h), h)[1])(MemoryHierarchy(machine))
        )
        for hierarchy in (
            NonInclusiveHierarchy(machine),
            NextLinePrefetchHierarchy(machine),
        ):
            drive(hierarchy)
            assert full_state(hierarchy) != ref_state


class TestNonInclusive:
    def test_l3_eviction_leaves_private_copies(self):
        machine = tiny_machine()
        h = NonInclusiveHierarchy(machine)
        l3 = h.l3[0]
        target = 0  # maps to L3 set 0 and L2 set 0 of this geometry
        h.access(0, target, False)
        # Evict set 0 of the L3 with assoc-many conflicting fills from
        # another core (L3 sets = 32: stride by 32 keeps one L3 set hot;
        # L2 of core 1 has 16 sets so its pressure stays on core 1).
        stride = l3.config.num_sets
        for i in range(1, l3.config.associativity + 1):
            h.access(1, target + i * stride, False)
        assert not l3.contains(target)
        # Non-inclusive: core 0 keeps its private copies and the sharer bit.
        assert h.l1d[0].contains(target)
        assert h.l2[0].contains(target)
        assert h.directory.sharers(target) & 1

    def test_inclusive_reference_purges_private_copies(self):
        machine = tiny_machine()
        h = MemoryHierarchy(machine)
        l3 = h.l3[0]
        target = 0
        h.access(0, target, False)
        stride = l3.config.num_sets
        for i in range(1, l3.config.associativity + 1):
            h.access(1, target + i * stride, False)
        assert not l3.contains(target)
        assert not h.l1d[0].contains(target)
        assert not h.l2[0].contains(target)

    def test_modified_line_survives_l3_eviction(self):
        machine = tiny_machine()
        h = NonInclusiveHierarchy(machine)
        l3 = h.l3[0]
        target = 0
        h.access(0, target, True)
        assert h.directory.owner(target) == 0
        stride = l3.config.num_sets
        for i in range(1, l3.config.associativity + 1):
            h.access(1, target + i * stride, False)
        assert not l3.contains(target)
        # Ownership survives; the writeback happens later, on downgrade.
        assert h.directory.owner(target) == 0
        before = h.snapshot()
        h.access(1, target, False)  # remote read downgrades and writes back
        delta = h.snapshot().delta(before)
        assert delta.writebacks == 1
        assert h.directory.owner(target) == -1


class TestNextLinePrefetch:
    def test_l2_miss_prefetches_next_line(self):
        h = NextLinePrefetchHierarchy(tiny_machine())
        h.access(0, 100, False)
        assert h.l2[0].contains(101)  # prefetched
        assert h.l3[0].contains(101)  # filled through the shared L3
        assert not h.l1d[0].contains(101)  # prefetch stops at L2
        assert h.snapshot().prefetches == 1

    def test_degree_widens_the_window(self):
        h = NextLinePrefetchHierarchy(tiny_machine(), degree=3)
        h.access(0, 100, False)
        for line in (101, 102, 103):
            assert h.l2[0].contains(line)
        assert h.snapshot().prefetches == 3

    def test_prefetch_hit_avoids_demand_stall(self):
        machine = tiny_machine()
        plain = MemoryHierarchy(machine)
        pf = NextLinePrefetchHierarchy(machine)
        cold_plain = plain.access(0, 100, False)
        cold_pf = pf.access(0, 100, False)
        assert cold_pf == cold_plain  # prefetch latency is hidden
        # The next line is an L2 hit instead of a DRAM miss.
        assert pf.access(0, 101, False) < plain.access(0, 101, False)

    def test_prefetch_charges_dram_bandwidth(self):
        h = NextLinePrefetchHierarchy(tiny_machine())
        h.access(0, 100, False)
        # One demand fill + one prefetch fill on the DRAM bus.
        assert h.snapshot().dram_reads_per_socket == (2,)

    def test_resident_next_line_not_reissued(self):
        h = NextLinePrefetchHierarchy(tiny_machine())
        h.access(0, 100, False)   # prefetches 101
        before = h.snapshot().prefetches
        h.access(0, 200, False)   # prefetches 201
        h.access(0, 200 + 1, False)  # L2 hit: no new prefetch
        assert h.snapshot().prefetches == before + 1

    def test_remote_modified_line_not_prefetched(self):
        h = NextLinePrefetchHierarchy(tiny_machine())
        h.access(1, 101, True)    # core 1 owns 101 in M state
        owner_before = h.directory.owner(101)
        h.access(0, 100, False)   # would prefetch 101
        assert h.directory.owner(101) == owner_before == 1
        assert not h.l2[0].contains(101)

    def test_negative_degree_rejected(self):
        with pytest.raises(ConfigError):
            NextLinePrefetchHierarchy(tiny_machine(), degree=-1)

    def test_streaming_reduces_stalls(self):
        machine = tiny_machine()
        plain = MemoryHierarchy(machine)
        pf = NextLinePrefetchHierarchy(machine)
        lines = list(range(5000, 5000 + 256))
        writes = [False] * len(lines)
        stall_plain = plain.access_block(0, lines, writes, mlp=1.0)
        stall_pf = pf.access_block(0, lines, writes, mlp=1.0)
        assert stall_pf < 0.7 * stall_plain


def complex_machine(num_sockets=1, cores_per_complex=(2, 2), extra=12):
    """A tiny machine running the ``complex`` backend."""
    return replace(
        tiny_machine(num_sockets=num_sockets,
                     cores_per_socket=sum(cores_per_complex)),
        hierarchy="complex",
        topology=TopologyConfig(cores_per_complex=cores_per_complex,
                                cross_complex_extra_cycles=extra),
    )


class TestComplexBackend:
    """Acceptance battery for the core-complex hierarchy backend."""

    @pytest.mark.parametrize("sockets", [1, 2])
    def test_one_complex_per_socket_degenerates_to_flat(self, sockets):
        """ISSUE acceptance: at 1 complex/socket the backend is
        bit-identical to the flat inclusive hierarchy — same stalls,
        caches, dirtiness, directory state, and counters."""
        machine = complex_machine(num_sockets=sockets,
                                  cores_per_complex=(4,), extra=99)
        ref = MemoryHierarchy(replace(machine, hierarchy="inclusive"))
        twin = ComplexHierarchy(machine)
        assert drive(ref) == drive(twin)
        assert full_state(ref) == full_state(twin)

    @pytest.mark.parametrize("sockets", [1, 2])
    def test_flat_topology_degenerates_too(self, sockets):
        """A machine with no topology section (flat) behaves identically
        under the complex backend: domains collapse to the sockets."""
        machine = tiny_machine(num_sockets=sockets)
        ref = MemoryHierarchy(machine)
        twin = ComplexHierarchy(machine)
        assert drive(ref) == drive(twin)
        assert full_state(ref) == full_state(twin)

    @pytest.mark.parametrize(
        "make",
        [lambda: ComplexHierarchy(complex_machine()),
         lambda: ComplexHierarchy(complex_machine(num_sockets=2)),
         lambda: MemoryHierarchy(tiny_machine(num_sockets=2)),
         lambda: NonInclusiveHierarchy(tiny_machine(num_sockets=2)),
         lambda: NextLinePrefetchHierarchy(tiny_machine(num_sockets=2))],
        ids=["complex-1s", "complex-2s", "inclusive", "noninclusive",
             "prefetch-nl"],
    )
    def test_traffic_conservation(self, make):
        """Per-latency-class transfer counters partition cache_to_cache."""
        hierarchy = make()
        drive(hierarchy)
        c = hierarchy.snapshot()
        assert c.cache_to_cache > 0
        assert (c.intra_complex_transfers + c.cross_complex_transfers
                + c.cross_socket_transfers) == c.cache_to_cache

    def test_hop_classes_populated(self):
        """A 2-socket 2-complex machine exercises all three classes."""
        h = ComplexHierarchy(complex_machine(num_sockets=2))
        drive(h)
        c = h.snapshot()
        assert c.intra_complex_transfers > 0
        assert c.cross_complex_transfers > 0
        assert c.cross_socket_transfers > 0

    def test_single_socket_has_no_cross_socket_traffic(self):
        h = ComplexHierarchy(complex_machine())
        drive(h)
        c = h.snapshot()
        assert c.cross_complex_transfers > 0
        assert c.cross_socket_transfers == 0

    def test_one_l3_slice_per_complex(self):
        machine = complex_machine(num_sockets=2)  # 2 sockets x 2 complexes
        h = ComplexHierarchy(machine)
        assert len(h.l3) == 4
        # Equal split of the socket capacity across its complexes.
        assert h.l3[0].config.size_bytes == machine.l3.size_bytes // 2

    def test_cross_complex_hop_costs_more(self):
        """The same remote-owner transfer is dearer across complexes."""

        def owner_read_stall(machine, reader):
            h = ComplexHierarchy(machine)
            h.access(0, 7, True)       # core 0 owns line 7 in M
            return h.access(reader, 7, False)

        near = owner_read_stall(complex_machine(extra=12), reader=1)
        far = owner_read_stall(complex_machine(extra=12), reader=2)
        farther = owner_read_stall(complex_machine(extra=40), reader=2)
        assert near < far < farther

    def test_indivisible_l3_rejected(self):
        # tiny L3 is 32 KiB: not divisible by 3 complexes.
        machine = complex_machine(cores_per_complex=(2, 1, 1))
        with pytest.raises(ConfigError, match="complex slices"):
            ComplexHierarchy(machine)

    def test_registry_machines_run_under_machine_layer(self):
        """The built-in topology machines simulate a workload end to end
        and report class-partitioned transfers."""
        from repro.config import scaled
        from repro.machines import get_machine
        from repro.workloads import get_workload

        config = scaled(get_machine("biglittle-6core"))
        workload = get_workload("npb-is", config.num_cores, scale=0.1)
        result = Machine(config).run_full(workload)
        c2c = sum(r.counters.cache_to_cache for r in result.regions)
        classed = sum(
            r.counters.intra_complex_transfers
            + r.counters.cross_complex_transfers
            + r.counters.cross_socket_transfers
            for r in result.regions
        )
        assert c2c > 0 and classed == c2c

    @pytest.mark.parametrize(
        "case, digest",
        [("drive-1s", "1dcfcff5b7d13e39"),
         ("drive-2s", "edec07b28db469f9"),
         ("drive-4+2", "420c44265344232c"),
         ("biglittle-6core", "087922aa061f673a"),
         ("epyc-4x8", "48ebc4207e310acc")],
    )
    def test_output_pinned(self, case, digest):
        """Regression pin of the non-degenerate backend's exact output.

        The ``drive-*`` cases digest the summed stalls plus a canonical
        ``full_state`` (set contents in LRU order, dirty sets and
        directory maps sorted, so the digest is independent of dict
        insertion order across directory organisations) and check that
        every transfer class the topology allows is exercised.  The
        registry cases pin ``full_run_digest`` of a small workload.
        """
        import hashlib
        import json

        if not case.startswith("drive-"):
            from repro.config import scaled
            from repro.machines import get_machine
            from repro.trace.corpus import full_run_digest
            from repro.workloads import get_workload

            config = scaled(get_machine(case))
            workload = get_workload("npb-is", config.num_cores, scale=0.1)
            assert full_run_digest(Machine(config).run_full(workload)) == digest
            return
        machine = {
            "drive-1s": complex_machine(),
            "drive-2s": complex_machine(num_sockets=2),
            "drive-4+2": complex_machine(cores_per_complex=(4, 2)),
        }[case]
        h = ComplexHierarchy(machine)
        stalls = drive(h)
        sets, dirty, sharers, owner, counters = full_state(h)
        canonical = [
            stalls,
            [list(s) for s in sets],
            [sorted(d) for d in dirty],
            sorted(sharers.items()),
            sorted(owner.items()),
            sorted(counters.items()),
        ]
        raw = json.dumps(canonical, separators=(",", ":")).encode("utf-8")
        assert hashlib.sha256(raw).hexdigest()[:16] == digest
        c = h.snapshot()
        assert c.intra_complex_transfers > 0
        assert c.cross_complex_transfers > 0
        assert (c.cross_socket_transfers > 0) == (machine.num_sockets > 1)


class TestCounters:
    def test_access_counters_roundtrip_includes_prefetches(self):
        c = AccessCounters(loads=2, prefetches=5,
                           dram_reads_per_socket=(1,),
                           dram_writebacks_per_socket=(0,))
        back = AccessCounters.from_state(c.to_state())
        assert back.prefetches == 5
        delta = back.delta(AccessCounters(
            prefetches=2, dram_reads_per_socket=(0,),
            dram_writebacks_per_socket=(0,)))
        assert delta.prefetches == 3

    def test_pre_topology_state_dict_decodes_with_zero_transfers(self):
        """Regression pin: an exact PR-7-era ``to_state`` payload (no
        per-latency-class transfer keys) must still decode — missing
        counters default to zero so pre-topology store artifacts replay."""
        pr7_state = {
            "loads": 4200, "stores": 1800, "l1d_misses": 310,
            "l2_misses": 120, "l3_misses": 45, "cache_to_cache": 17,
            "writebacks": 9, "l1i_misses": 3, "prefetches": 0,
            "dram_reads_per_socket": [30, 15],
            "dram_writebacks_per_socket": [6, 3],
        }
        c = AccessCounters.from_state(pr7_state)
        assert c.loads == 4200 and c.cache_to_cache == 17
        assert c.dram_reads_per_socket == (30, 15)
        assert c.intra_complex_transfers == 0
        assert c.cross_complex_transfers == 0
        assert c.cross_socket_transfers == 0
        # Round-trips through the modern schema, and deltas mix eras.
        assert AccessCounters.from_state(c.to_state()).to_state() == c.to_state()
        d = AccessCounters.from_state(c.to_state()).delta(c)
        assert d.loads == 0 and d.cross_complex_transfers == 0

    def test_unknown_state_keys_ignored(self):
        state = AccessCounters(dram_reads_per_socket=(1,),
                               dram_writebacks_per_socket=(0,)).to_state()
        state["from_the_future"] = 99
        assert AccessCounters.from_state(state).dram_reads_per_socket == (1,)

    def test_region_counters_flow_through_machine(self):
        """Prefetch counters reach RegionMetrics via the machine layer."""
        from dataclasses import replace

        from repro.workloads import get_workload

        config = replace(tiny_machine(), hierarchy="prefetch-nl")
        workload = get_workload("npb-is", 4, scale=0.1)
        machine = Machine(config)
        result = machine.run_full(workload)
        assert sum(r.counters.prefetches for r in result.regions) > 0
