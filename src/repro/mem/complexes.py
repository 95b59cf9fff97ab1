"""Core-complex (CCX-style) hierarchy backend.

Each complex owns a private slice of the socket's L3 (an equal split of
the socket capacity across its complexes) and a home node of an
address-interleaved :class:`~repro.mem.directory.DistributedDirectory`.
Cross-core transfers are charged by latency class — free within a
complex, ``cross_complex_extra_cycles`` between complexes of one socket,
``remote_socket_extra_cycles`` between sockets — and counted per class in
``AccessCounters`` so the region bandwidth model can bound the fabric.

The semantics are the flat inclusive hierarchy's, generalized from
sockets to topology domains (:meth:`Topology.complex_view`): probe my
domain's L3 slice, serve dirty lines cache-to-cache from their owner's
private hierarchy, keep the slice inclusive of its domain's private
caches, and charge DRAM traffic to the *socket* whose memory controller
moves the line.  Directory state is sharded by line across per-complex
home nodes; home lookup itself is charged no extra latency (the flat
model folds directory access into the L3 latency, and this backend keeps
that convention — only actual line movement pays fabric hops).  With one
complex per socket the domains *are* the sockets, every hop resolves to
the old local/remote split, and the backend is bit-identical to the flat
inclusive hierarchy — asserted by the degeneracy battery in
``tests/test_mem_backends.py``.

This access path favors readability over the inlined style of the base
``access_block``: topology machines are sweep subjects, not the
benchmarked hot path.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import MachineConfig
from repro.errors import ConfigError, SimulationError
from repro.mem.directory import DistributedDirectory
from repro.mem.hierarchy import _MISS, _STORE_STALL_FRACTION, MemoryHierarchy
from repro.mem.topology import Topology


class ComplexHierarchy(MemoryHierarchy):
    """Three-level hierarchy with per-complex L3 slices and directory homes."""

    def __init__(self, machine: MachineConfig) -> None:
        super().__init__(machine)
        per_socket = machine.complexes_per_socket
        if machine.l3.size_bytes % per_socket != 0:
            raise ConfigError(
                f"socket L3 of {machine.l3.size_bytes} bytes does not split "
                f"into {per_socket} equal complex slices"
            )
        topo = Topology.complex_view(machine)
        self.topology = topo
        # Replace the per-socket L3s with one slice per complex; CacheConfig
        # validation keeps the slice geometry honest (power-of-two sets).
        slice_config = replace(
            machine.l3, size_bytes=machine.l3.size_bytes // per_socket
        )
        self.l3 = [self.cache_cls(slice_config) for _ in range(topo.num_domains)]
        self.directory = DistributedDirectory(
            num_cores=machine.num_cores, num_homes=topo.num_domains
        )
        self._domain_of = list(topo.domain_of)
        self._domain_mask = list(topo.domain_mask)
        self._domain_socket = list(topo.domain_socket)
        self._hop_extra = topo.hop_extra_table()
        self._l3_lat = slice_config.latency_cycles

    # ------------------------------------------------------------------
    # Helpers (domain-generalized twins of the base class's)
    # ------------------------------------------------------------------

    def _invalidate_mask(self, line: int, mask: int, my_domain: int) -> int:
        """Purge ``line`` from the private caches of every core in ``mask``.

        Returns:
            The worst extra hop cycles among the invalidated cores (0 when
            every one shares ``my_domain``).
        """
        worst = 0
        hop_row = self._hop_extra[my_domain]
        domain_of = self._domain_of
        miss = _MISS
        while mask:
            low = mask & -mask
            mask ^= low
            core = low.bit_length() - 1
            (p1_sets, p1_mask, p1_stats, p1_dirty,
             p2_sets, p2_mask, p2_stats, p2_dirty) = self._purge[core]
            s = p1_sets[line & p1_mask]
            if s.pop(line, miss) is not miss:
                p1_dirty.discard(line)
                p1_stats.invalidations += 1
            s = p2_sets[line & p2_mask]
            if s.pop(line, miss) is not miss:
                p2_dirty.discard(line)
                p2_stats.invalidations += 1
            hop = hop_row[domain_of[core]]
            if hop > worst:
                worst = hop
        return worst

    def _evict_slice_victim(self, domain: int, s3: dict) -> None:
        """Evict the LRU victim of one L3-slice set, keeping inclusion.

        The domain-scoped twin of the base ``_evict_l3_victim``: a local
        Modified owner writes back through the domain's socket, and the
        victim is purged from the domain's private caches (sharers outside
        the domain keep their copies and directory bits).
        """
        l3 = self.l3[domain]
        vline = next(iter(s3))
        del s3[vline]
        l3.stats.evictions += 1
        if vline in l3._dirty:  # defensive: empty on the fast paths
            l3._dirty.discard(vline)
            l3.stats.dirty_evictions += 1
        home = self.directory.homes[vline % self.directory.num_homes]
        vowner = home._owner.get(vline, -1)
        if vowner >= 0 and self._domain_of[vowner] == domain:
            self._dram_wbs[self._domain_socket[domain]] += 1
            self._writebacks += 1
            del home._owner[vline]
        vmask = home._sharers.get(vline, 0)
        if vmask:
            local = vmask & self._domain_mask[domain]
            if local:
                self._invalidate_mask(vline, local, domain)
            rest = vmask & ~self._domain_mask[domain]
            if rest:
                home._sharers[vline] = rest
            else:
                del home._sharers[vline]

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access_block(self, core, lines, writes, mlp: float) -> float:
        """Process one block's reference stream; returns stall cycles.

        Same contract as the base implementation, with transfers charged
        by topology latency class and counted per class.
        """
        if mlp < 1.0:
            raise SimulationError(f"mlp must be >= 1, got {mlp}")
        socket = self._socket_of[core]
        domain = self._domain_of[core]
        domain_of = self._domain_of
        hop_row = self._hop_extra[domain]
        l1 = self.l1d[core]
        l2 = self.l2[core]
        l3 = self.l3[domain]
        l1_stats, l2_stats, l3_stats = l1.stats, l2.stats, l3.stats
        l1_sets, l1_mask, l1_assoc = l1._sets, l1._set_mask, l1._assoc
        l2_sets, l2_mask, l2_assoc = l2._sets, l2._set_mask, l2._assoc
        l3_sets, l3_mask, l3_assoc = l3._sets, l3._set_mask, l3._assoc
        l2_lat = l2.config.latency_cycles
        l3_lat = self._l3_lat
        dram_lat = self.dram.latency_cycles
        homes = self.directory.homes
        num_homes = self.directory.num_homes
        num_domains = len(self.l3)
        dram_reads = self._dram_reads
        dram_wbs = self._dram_wbs
        my_bit = 1 << core
        miss = _MISS

        loads = stores = l1d_misses = l2_misses = c2c = writebacks = 0
        intra_c2c = xcomplex_c2c = xsocket_c2c = 0
        stall = 0.0

        if type(lines) is not list:
            lines = lines.tolist()
        if type(writes) is not list:
            writes = writes.tolist()
        for line, w in zip(lines, writes):
            extra = 0
            home = homes[line % num_homes]
            dir_sharers = home._sharers
            dir_owner = home._owner
            if w:
                stores += 1
                prev_owner = dir_owner.get(line, -1)
                if prev_owner != core:
                    mask = dir_sharers.get(line, 0) & ~my_bit
                    if mask or prev_owner >= 0:
                        worst_hop = 0
                        if mask:
                            home.stats.invalidations_sent += mask.bit_count()
                            worst_hop = self._invalidate_mask(
                                line, mask, domain
                            )
                        if prev_owner >= 0:
                            # Remote M copy: transfer + writeback on downgrade.
                            prev_domain = domain_of[prev_owner]
                            dram_wbs[self._domain_socket[prev_domain]] += 1
                            writebacks += 1
                            hop = hop_row[prev_domain]
                            if hop > worst_hop:
                                worst_hop = hop
                            c2c += 1
                            if prev_domain == domain:
                                intra_c2c += 1
                            elif (
                                self._domain_socket[prev_domain] == socket
                            ):
                                xcomplex_c2c += 1
                            else:
                                xsocket_c2c += 1
                        if num_domains > 1:
                            for d in range(num_domains):
                                if d != domain:
                                    self.l3[d].remove(line)
                        extra = l3_lat + worst_hop
                    dir_sharers[line] = my_bit
                    dir_owner[line] = core
            else:
                loads += 1

            # L1D probe.
            s = l1_sets[line & l1_mask]
            if s.pop(line, miss) is not miss:
                s[line] = None  # promote to MRU
                l1_stats.hits += 1
                if w and extra:
                    stall += extra * _STORE_STALL_FRACTION
                continue
            l1_stats.misses += 1
            l1d_misses += 1

            # L2 probe.
            s2 = l2_sets[line & l2_mask]
            if s2.pop(line, miss) is not miss:
                s2[line] = None
                l2_stats.hits += 1
                extra += l2_lat
            else:
                l2_stats.misses += 1
                l2_misses += 1
                # L3-slice probe (my complex's slice only).
                s3 = l3_sets[line & l3_mask]
                if s3.pop(line, miss) is not miss:
                    s3[line] = None
                    l3_stats.hits += 1
                    extra += l3_lat
                else:
                    l3_stats.misses += 1
                    owner = dir_owner.get(line, -1)
                    if owner >= 0 and owner != core:
                        # Dirty in another private hierarchy: cache-to-cache
                        # transfer plus MSI downgrade writeback.
                        owner_domain = domain_of[owner]
                        if owner_domain == domain:
                            extra += l3_lat + l2_lat
                            intra_c2c += 1
                        else:
                            extra += l3_lat + hop_row[owner_domain]
                            if self._domain_socket[owner_domain] == socket:
                                xcomplex_c2c += 1
                            else:
                                xsocket_c2c += 1
                        if not w:
                            del dir_owner[line]
                            home.stats.downgrades += 1
                            dram_wbs[self._domain_socket[owner_domain]] += 1
                            writebacks += 1
                        home.stats.cache_to_cache += 1
                        c2c += 1
                    else:
                        extra += dram_lat
                        dram_reads[socket] += 1
                    # Fill my slice, keeping it inclusive of the domain.
                    if len(s3) >= l3_assoc:
                        self._evict_slice_victim(domain, s3)
                    s3[line] = None
                # Fill L2.
                if len(s2) >= l2_assoc:
                    old = next(iter(s2))
                    del s2[old]
                    l2_stats.evictions += 1
                s2[line] = None

            # Fill L1.
            if len(s) >= l1_assoc:
                old = next(iter(s))
                del s[old]
                l1_stats.evictions += 1
            s[line] = None

            if not w:
                dir_sharers[line] = dir_sharers.get(line, 0) | my_bit
                prev_owner = dir_owner.get(line, -1)
                if prev_owner >= 0 and prev_owner != core:
                    del dir_owner[line]
                    home.stats.downgrades += 1
                stall += extra
            else:
                stall += extra * _STORE_STALL_FRACTION

        self._loads += loads
        self._stores += stores
        self._l1d_misses += l1d_misses
        self._l2_misses += l2_misses
        self._c2c += c2c
        self._writebacks += writebacks
        self._intra_c2c += intra_c2c
        self._xcomplex_c2c += xcomplex_c2c
        self._xsocket_c2c += xsocket_c2c
        return stall / mlp
