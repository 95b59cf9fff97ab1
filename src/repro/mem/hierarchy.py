"""Three-level cache hierarchy with MSI coherence and DRAM backing.

Topology (Table I): per-core private L1-I/L1-D/L2, one shared L3 per
socket, a directory over private caches, and DRAM behind the L3s.  The
hierarchy is *inclusive at L3*: an L3 eviction invalidates the line in the
socket's private caches, which is what lets the directory live logically at
the L3 and keeps coherence state reconstructible by data replay alone (the
property the paper's warmup scheme depends on).

The loop is written over topology *domains* (:mod:`repro.mem.topology`):
each domain owns one L3, and cross-domain transfers are charged by
latency class.  The flat backends use the socket view, where each domain
is a whole socket and the classes reduce to the local/remote split of
Table I; the ``complex`` backend swaps in the complex view (one L3 slice
per core complex) through the :attr:`MemoryHierarchy.topology_view` seam.

Dirtiness is tracked at the directory owner (private caches are modeled
write-through to L3 for accounting); store *timing* is still charged at the
core via the interval model, and DRAM writeback bandwidth is charged when a
modified line leaves an L3 or is downgraded by a remote reader.

``access_block`` is the hot path: it processes a whole reference stream of
one :class:`~repro.trace.program.BlockExec` against dict-based O(1) LRU
sets, with all per-core invariants (set tables, masks, latencies) bound
once per core in ``_ctx`` and all statistics accumulated in locals that
are flushed once per call.  Keep it free of per-access allocations and
attribute lookups.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import MachineConfig
from repro.errors import ConfigError, SimulationError
from repro.mem.cache import SetAssocCache
from repro.mem.directory import Directory
from repro.mem.dram import Dram
from repro.mem.topology import Topology

_STORE_STALL_FRACTION = 0.3  # store misses retire through the store buffer

#: Sentinel distinguishing "absent" from a stored value in ``dict.pop``.
_MISS = object()


class AccessCounters:
    """Aggregate access/miss counters snapshot (see ``MemoryHierarchy.snapshot``)."""

    __slots__ = (
        "loads", "stores", "l1d_misses", "l2_misses", "l3_misses",
        "cache_to_cache", "writebacks", "l1i_misses", "prefetches",
        "intra_complex_transfers", "cross_complex_transfers",
        "cross_socket_transfers",
        "dram_reads_per_socket", "dram_writebacks_per_socket",
    )

    #: Fields holding per-socket tuples rather than scalar ints.
    _TUPLE_FIELDS = ("dram_reads_per_socket", "dram_writebacks_per_socket")

    def __init__(
        self,
        loads: int = 0,
        stores: int = 0,
        l1d_misses: int = 0,
        l2_misses: int = 0,
        l3_misses: int = 0,
        cache_to_cache: int = 0,
        writebacks: int = 0,
        l1i_misses: int = 0,
        prefetches: int = 0,
        intra_complex_transfers: int = 0,
        cross_complex_transfers: int = 0,
        cross_socket_transfers: int = 0,
        dram_reads_per_socket: tuple[int, ...] = (),
        dram_writebacks_per_socket: tuple[int, ...] = (),
    ) -> None:
        self.loads = loads
        self.stores = stores
        self.l1d_misses = l1d_misses
        self.l2_misses = l2_misses
        self.l3_misses = l3_misses
        self.cache_to_cache = cache_to_cache
        self.writebacks = writebacks
        self.l1i_misses = l1i_misses
        self.prefetches = prefetches
        self.intra_complex_transfers = intra_complex_transfers
        self.cross_complex_transfers = cross_complex_transfers
        self.cross_socket_transfers = cross_socket_transfers
        self.dram_reads_per_socket = dram_reads_per_socket
        self.dram_writebacks_per_socket = dram_writebacks_per_socket

    @property
    def accesses(self) -> int:
        """Total data references (loads + stores)."""
        return self.loads + self.stores

    @property
    def dram_accesses(self) -> int:
        """Line transfers on the DRAM bus (fills + writebacks)."""
        return self.l3_misses + self.writebacks

    def to_state(self) -> dict:
        """Serialize to a plain dict (artifact-store payload).

        Returns:
            A dict of counter names to ints/tuples, consumed by
            :meth:`from_state`.
        """
        return {
            name: getattr(self, name) for name in AccessCounters.__slots__
        }

    @classmethod
    def from_state(cls, state: dict) -> AccessCounters:
        """Rebuild counters from a :meth:`to_state` dict.

        Tolerant of counters the producing version did not know about:
        artifacts stored before a counter existed decode it as zero (the
        per-latency-class transfer counters post-date the PR-7 store
        format, and old entries must keep loading).  Unknown keys in
        ``state`` are ignored for the symmetric forward case.

        Args:
            state: A dict produced by :meth:`to_state` (any version).

        Returns:
            An equivalent :class:`AccessCounters`.
        """
        tuples = cls._TUPLE_FIELDS
        return cls(**{
            name: (
                tuple(state.get(name, ()))
                if name in tuples
                else state.get(name, 0)
            )
            for name in cls.__slots__
        })

    def delta(self, earlier: AccessCounters) -> AccessCounters:
        """Counter difference ``self - earlier`` (for per-region metrics)."""
        return AccessCounters(
            loads=self.loads - earlier.loads,
            stores=self.stores - earlier.stores,
            l1d_misses=self.l1d_misses - earlier.l1d_misses,
            l2_misses=self.l2_misses - earlier.l2_misses,
            l3_misses=self.l3_misses - earlier.l3_misses,
            cache_to_cache=self.cache_to_cache - earlier.cache_to_cache,
            writebacks=self.writebacks - earlier.writebacks,
            l1i_misses=self.l1i_misses - earlier.l1i_misses,
            prefetches=self.prefetches - earlier.prefetches,
            intra_complex_transfers=(
                self.intra_complex_transfers - earlier.intra_complex_transfers
            ),
            cross_complex_transfers=(
                self.cross_complex_transfers - earlier.cross_complex_transfers
            ),
            cross_socket_transfers=(
                self.cross_socket_transfers - earlier.cross_socket_transfers
            ),
            dram_reads_per_socket=tuple(
                a - b for a, b in zip(
                    self.dram_reads_per_socket, earlier.dram_reads_per_socket)
            ),
            dram_writebacks_per_socket=tuple(
                a - b for a, b in zip(
                    self.dram_writebacks_per_socket,
                    earlier.dram_writebacks_per_socket)
            ),
        )


class MemoryHierarchy:
    """Caches + directory + DRAM for one simulated machine.

    Backend variants (see :mod:`repro.mem.backends`) subclass this and
    flip the feature seams below; with every seam at its default each
    subclass is behaviorally identical to this reference hierarchy, which
    is what the backend parity tests assert.
    """

    #: Cache model class; the reference (seed) implementation swaps in the
    #: list-based variant for parity tests and perf baselines.
    cache_cls = SetAssocCache

    #: Grouping of cores into L3-owning domains.  The socket view (one L3
    #: per socket) is the paper's machine; the ``complex`` backend swaps in
    #: :meth:`Topology.complex_view` for one L3 slice per core complex.
    topology_view = staticmethod(Topology.socket_view)

    #: Whether an L3 eviction back-invalidates the domain's private caches
    #: (the paper's inclusive hierarchy).  ``False`` = non-inclusive: the
    #: victim drops from the L3 only and the directory keeps its entry.
    inclusive_l3 = True

    #: Next-line prefetch depth triggered by demand L2 misses; 0 disables
    #: the hook entirely (subclasses that set it > 0 must implement
    #: ``_prefetch_after_miss``).
    prefetch_degree = 0

    def __init__(self, machine: MachineConfig) -> None:
        self.machine = machine
        n_cores = machine.num_cores
        cache_cls = self.cache_cls
        topo = self.topology_view(machine)
        self.topology = topo
        # Each domain owns an equal slice of its socket's L3 capacity;
        # CacheConfig validation keeps the slice geometry honest
        # (power-of-two sets).
        per_socket = topo.num_domains // machine.num_sockets
        if machine.l3.size_bytes % per_socket != 0:
            raise ConfigError(
                f"socket L3 of {machine.l3.size_bytes} bytes does not split "
                f"into {per_socket} equal complex slices"
            )
        l3_config = replace(
            machine.l3, size_bytes=machine.l3.size_bytes // per_socket
        )
        self.l1i = [cache_cls(machine.l1i) for _ in range(n_cores)]
        self.l1d = [cache_cls(machine.l1d) for _ in range(n_cores)]
        self.l2 = [cache_cls(machine.l2) for _ in range(n_cores)]
        self.l3 = [cache_cls(l3_config) for _ in range(topo.num_domains)]
        self.directory = Directory(num_cores=n_cores)
        self.dram = Dram(machine)
        self._domain_of = list(topo.domain_of)
        self._domain_mask = list(topo.domain_mask)
        self._domain_socket = list(topo.domain_socket)
        self._hop_extra = topo.hop_extra_table()
        # Per-socket core grouping, read by the seed reference hierarchy
        # (which indexes its L3s by socket and so runs the socket view).
        sockets = Topology.socket_view(machine)
        self._socket_of = list(sockets.domain_of)
        self._socket_mask = list(sockets.domain_mask)
        self._dram_reads = self.dram.stats.reads_per_socket
        self._dram_wbs = self.dram.stats.writebacks_per_socket
        self._loads = 0
        self._stores = 0
        self._l1d_misses = 0
        self._l2_misses = 0
        self._c2c = 0
        self._writebacks = 0
        self._l1i_misses = 0
        self._prefetches = 0
        # Cache-to-cache transfers split by latency class.  The socket
        # view has no cross-complex hops, so the middle class stays zero
        # on the flat backends.
        self._intra_c2c = 0
        self._xcomplex_c2c = 0
        self._xsocket_c2c = 0
        # Inclusion-purge context, indexed by core: the set tables and
        # stats of the private caches an invalidation must probe.
        self._purge = [
            (
                self.l1d[core]._sets, self.l1d[core]._set_mask,
                self.l1d[core].stats,
                self.l2[core]._sets, self.l2[core]._set_mask,
                self.l2[core].stats,
            )
            for core in range(n_cores)
        ]
        # Per-core hot-path context: everything ``access_block`` needs,
        # bound once (caches are flushed in place, never replaced, so the
        # bindings stay valid for the hierarchy's lifetime).
        self._ctx = []
        for core in range(n_cores):
            domain = self._domain_of[core]
            l1 = self.l1d[core]
            l2 = self.l2[core]
            l3 = self.l3[domain]
            self._ctx.append((
                domain, self._domain_socket[domain],
                l1.stats, l1._sets, l1._set_mask, l1._assoc,
                l2.stats, l2._sets, l2._set_mask, l2._assoc,
                l3.stats, l3._sets, l3._set_mask, l3._assoc,
                l2.config.latency_cycles,
                l3.config.latency_cycles,
                self.dram.latency_cycles,
                self._hop_extra[domain],
                1 << core,
                self._domain_mask[domain],
            ))

    # ------------------------------------------------------------------
    # Counter management
    # ------------------------------------------------------------------

    def snapshot(self) -> AccessCounters:
        """Copy all cumulative counters (cheap; used per region)."""
        return AccessCounters(
            loads=self._loads,
            stores=self._stores,
            l1d_misses=self._l1d_misses,
            l2_misses=self._l2_misses,
            l3_misses=sum(self.dram.stats.reads_per_socket),
            cache_to_cache=self._c2c,
            writebacks=self._writebacks,
            l1i_misses=self._l1i_misses,
            prefetches=self._prefetches,
            intra_complex_transfers=self._intra_c2c,
            cross_complex_transfers=self._xcomplex_c2c,
            cross_socket_transfers=self._xsocket_c2c,
            dram_reads_per_socket=tuple(self.dram.stats.reads_per_socket),
            dram_writebacks_per_socket=tuple(self.dram.stats.writebacks_per_socket),
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _evict_l3_victim(self, domain: int, s3: dict) -> None:
        """Evict the LRU victim of one L3 set (off-hot-path form).

        The readable counterpart of the victim handling that
        ``access_block`` keeps inlined for speed (see the "keep in sync"
        note there): on the inclusive backends, the domain-local owner
        writes back through the domain's socket and the victim is purged
        from the domain's private caches (sharers outside the domain keep
        their copies and directory bits).  Non-demand fill paths (the
        prefetching backend today) must call this instead of growing
        further hand copies.  A non-inclusive victim drops with no DRAM
        charge here — its writeback is charged later, at downgrade.

        Args:
            domain: The topology domain owning the L3.
            s3: The set dict (``l3._sets[index]``) about to be filled.
        """
        vline = next(iter(s3))
        del s3[vline]
        self.l3[domain].stats.evictions += 1
        if not self.inclusive_l3:
            return
        owner = self.directory._owner
        sharers = self.directory._sharers
        vowner = owner.get(vline, -1)
        if vowner >= 0 and self._domain_of[vowner] == domain:
            self._dram_wbs[self._domain_socket[domain]] += 1
            self._writebacks += 1
            del owner[vline]
        vmask = sharers.get(vline, 0)
        if vmask:
            domain_mask = self._domain_mask[domain]
            local = vmask & domain_mask
            if local:
                self._invalidate(vline, local, self._hop_extra[domain])
            rest = vmask & ~domain_mask
            if rest:
                sharers[vline] = rest
            else:
                del sharers[vline]

    def _invalidate(self, line: int, mask: int, hop_row: list[int]) -> int:
        """Purge ``line`` from the private caches of every core in ``mask``.

        Args:
            line: The line to invalidate.
            mask: Bitmask of the cores to purge.
            hop_row: The requesting domain's row of
                :meth:`Topology.hop_extra_table`.

        Returns:
            The worst extra hop cycles among the invalidated cores (0 when
            every one shares the requester's domain).
        """
        worst = 0
        purge = self._purge
        domain_of = self._domain_of
        miss = _MISS
        while mask:
            low = mask & -mask
            mask ^= low
            core = low.bit_length() - 1
            p1_sets, p1_mask, p1_stats, p2_sets, p2_mask, p2_stats = purge[core]
            if p1_sets[line & p1_mask].pop(line, miss) is not miss:
                p1_stats.invalidations += 1
            if p2_sets[line & p2_mask].pop(line, miss) is not miss:
                p2_stats.invalidations += 1
            hop = hop_row[domain_of[core]]
            if hop > worst:
                worst = hop
        return worst

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------

    def access(self, core: int, line: int, is_write: bool) -> int:
        """One data reference; returns the extra latency beyond L1 (cycles)."""
        return round(self.access_block(core, [line], [bool(is_write)], mlp=1.0))

    def access_block(self, core, lines, writes, mlp: float) -> float:
        """Process one block's reference stream; returns stall cycles.

        ``lines``/``writes`` may be numpy arrays or plain lists.  The
        returned stalls are the sum of beyond-L1 latencies divided by
        the block's memory-level parallelism (interval-model style); store
        latencies are further scaled by the store-buffer fraction.
        Cross-core transfers pay the extra cycles of their hop's latency
        class and are counted per class.
        """
        if mlp < 1.0:
            raise SimulationError(f"mlp must be >= 1, got {mlp}")
        (domain, socket,
         l1_stats, l1_sets, l1_mask, l1_assoc,
         l2_stats, l2_sets, l2_mask, l2_assoc,
         l3_stats, l3_sets, l3_mask, l3_assoc,
         l2_lat, l3_lat, dram_lat, hop_row, my_bit,
         domain_mask) = self._ctx[core]
        directory = self.directory
        dir_sharers = directory._sharers
        dir_owner = directory._owner
        sharers_get = dir_sharers.get
        owner_get = dir_owner.get
        dir_stats = directory.stats
        l3_caches = self.l3
        num_domains = len(l3_caches)
        domain_of = self._domain_of
        domain_socket = self._domain_socket
        dram_reads = self._dram_reads
        dram_wbs = self._dram_wbs
        invalidate = self._invalidate
        purge = self._purge
        miss = _MISS
        inclusive = self.inclusive_l3
        pf_degree = self.prefetch_degree

        loads = stores = l1d_misses = l2_misses = c2c = writebacks = 0
        intra_c2c = xcomplex_c2c = xsocket_c2c = 0
        l1_hits = l1_missc = l1_evic = 0
        l2_hits = l2_missc = l2_evic = 0
        l3_hits = l3_missc = l3_evic = 0
        invals_sent = downgrades = c2c_dir = 0
        stall = 0.0

        if type(lines) is not list:
            lines = lines.tolist()
        if type(writes) is not list:
            writes = writes.tolist()
        for line, w in zip(lines, writes):
            extra = 0
            if w:
                stores += 1
                prev_owner = owner_get(line, -1)
                if prev_owner != core:
                    mask = sharers_get(line, 0) & ~my_bit
                    if mask or prev_owner >= 0:
                        worst_hop = 0
                        if mask:
                            invals_sent += mask.bit_count()
                            worst_hop = invalidate(line, mask, hop_row)
                        if prev_owner >= 0:
                            # Remote M copy: transfer + writeback on downgrade.
                            prev_domain = domain_of[prev_owner]
                            prev_socket = domain_socket[prev_domain]
                            dram_wbs[prev_socket] += 1
                            writebacks += 1
                            hop = hop_row[prev_domain]
                            if hop > worst_hop:
                                worst_hop = hop
                            c2c += 1
                            if prev_domain == domain:
                                intra_c2c += 1
                            elif prev_socket == socket:
                                xcomplex_c2c += 1
                            else:
                                xsocket_c2c += 1
                        if num_domains > 1:
                            for d in range(num_domains):
                                if d != domain:
                                    l3_caches[d].remove(line)
                        extra = l3_lat + worst_hop
                    dir_sharers[line] = my_bit
                    dir_owner[line] = core
            else:
                loads += 1

            # L1D probe.
            s = l1_sets[line & l1_mask]
            if s.pop(line, miss) is not miss:
                s[line] = None  # promote to MRU
                l1_hits += 1
                if w and extra:
                    stall += extra * _STORE_STALL_FRACTION
                continue
            l1_missc += 1
            l1d_misses += 1

            # L2 probe.
            s2 = l2_sets[line & l2_mask]
            if s2.pop(line, miss) is not miss:
                s2[line] = None
                l2_hits += 1
                extra += l2_lat
            else:
                l2_missc += 1
                l2_misses += 1
                # L3 probe (my domain's L3 only).
                s3 = l3_sets[line & l3_mask]
                if s3.pop(line, miss) is not miss:
                    s3[line] = None
                    l3_hits += 1
                    extra += l3_lat
                else:
                    l3_missc += 1
                    owner = owner_get(line, -1)
                    if owner >= 0 and owner != core:
                        # Dirty in another private hierarchy: cache-to-cache
                        # transfer plus MSI downgrade writeback.
                        owner_domain = domain_of[owner]
                        owner_socket = domain_socket[owner_domain]
                        if owner_domain == domain:
                            extra += l3_lat + l2_lat
                            intra_c2c += 1
                        else:
                            extra += l3_lat + hop_row[owner_domain]
                            if owner_socket == socket:
                                xcomplex_c2c += 1
                            else:
                                xsocket_c2c += 1
                        if not w:
                            del dir_owner[line]
                            downgrades += 1
                            dram_wbs[owner_socket] += 1
                            writebacks += 1
                        c2c_dir += 1
                        c2c += 1
                    else:
                        extra += dram_lat
                        dram_reads[socket] += 1
                    # Fill L3 (inlined), handling the victim per backend.
                    # Non-inclusive backends drop the victim from the L3
                    # alone: private copies and directory state survive,
                    # and — since dirtiness is tracked at the directory
                    # owner — no DRAM writeback is due here (it is charged
                    # at downgrade).  NOTE: this victim block is the
                    # hot-path twin of _evict_l3_victim, and its bit-scan
                    # purge an inline copy of _invalidate's body (minus the
                    # hop tracking, which an eviction does not charge) —
                    # keep each pair in sync.
                    if len(s3) >= l3_assoc:
                        vline = next(iter(s3))
                        del s3[vline]
                        l3_evic += 1
                        if inclusive:
                            vowner = owner_get(vline, -1)
                            if vowner >= 0 and domain_of[vowner] == domain:
                                dram_wbs[socket] += 1
                                writebacks += 1
                                del dir_owner[vline]
                            # Inclusion: purge the victim from this domain's
                            # private caches.  The directory sharer mask tells
                            # us which cores can possibly hold it, so streaming
                            # victims (one sharer) cost one probe, not 2*cores.
                            vmask = sharers_get(vline, 0)
                            if vmask:
                                local = vmask & domain_mask
                                while local:
                                    low = local & -local
                                    local ^= low
                                    (p1_sets, p1_mask, p1_stats, p2_sets,
                                     p2_mask, p2_stats) = purge[
                                        low.bit_length() - 1]
                                    if p1_sets[vline & p1_mask].pop(
                                            vline, miss) is not miss:
                                        p1_stats.invalidations += 1
                                    if p2_sets[vline & p2_mask].pop(
                                            vline, miss) is not miss:
                                        p2_stats.invalidations += 1
                                rest = vmask & ~domain_mask
                                if rest:
                                    dir_sharers[vline] = rest
                                else:
                                    del dir_sharers[vline]
                    s3[line] = None
                # Fill L2.
                if len(s2) >= l2_assoc:
                    old = next(iter(s2))
                    del s2[old]
                    l2_evic += 1
                s2[line] = None
                if pf_degree:
                    self._prefetch_after_miss(core, line)

            # Fill L1.
            if len(s) >= l1_assoc:
                old = next(iter(s))
                del s[old]
                l1_evic += 1
            s[line] = None

            if not w:
                dir_sharers[line] = sharers_get(line, 0) | my_bit
                prev_owner = owner_get(line, -1)
                if prev_owner >= 0 and prev_owner != core:
                    del dir_owner[line]
                    downgrades += 1
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
        l1_stats.hits += l1_hits
        l1_stats.misses += l1_missc
        l1_stats.evictions += l1_evic
        l2_stats.hits += l2_hits
        l2_stats.misses += l2_missc
        l2_stats.evictions += l2_evic
        l3_stats.hits += l3_hits
        l3_stats.misses += l3_missc
        l3_stats.evictions += l3_evic
        dir_stats.invalidations_sent += invals_sent
        dir_stats.downgrades += downgrades
        dir_stats.cache_to_cache += c2c_dir
        return stall / mlp

    def access_code(self, core: int, code_lines: tuple[int, ...]) -> int:
        """Instruction-fetch touch of a block's code lines; returns stalls."""
        l1i = self.l1i[core]
        sets = l1i._sets
        set_mask = l1i._set_mask
        stats = l1i.stats
        miss = _MISS
        extra = 0
        for line in code_lines:
            s = sets[line & set_mask]
            if s.pop(line, miss) is not miss:
                s[line] = None
                stats.hits += 1
            else:
                stats.misses += 1
                self._l1i_misses += 1
                if len(s) >= l1i._assoc:
                    old = next(iter(s))
                    del s[old]
                    stats.evictions += 1
                s[line] = None
                extra += self.l2[core].config.latency_cycles
        return extra

    # ------------------------------------------------------------------
    # Warmup / state management
    # ------------------------------------------------------------------

    def replay(self, core: int, line: int, was_write: bool) -> None:
        """Warmup replay of one captured line (latency discarded)."""
        self.replay_block(core, [line], [was_write])

    def replay_block(self, core: int, lines, writes) -> None:
        """Warmup replay of a batch of captured lines for one core.

        ``lines``/``writes`` may be lists or numpy arrays; semantically
        identical to calling :meth:`replay` per entry, without the
        per-line call overhead.  Prefetching backends are suppressed for
        the duration: replay is checkpoint-style state *reconstruction*,
        so only the captured lines themselves may be installed — a
        speculative next-line fill would evict genuinely captured state.
        """
        saved_degree = self.prefetch_degree
        self.prefetch_degree = 0
        try:
            self.access_block(core, lines, writes, mlp=1.0)
        finally:
            self.prefetch_degree = saved_degree

    def flush_all(self) -> None:
        """Cold-start: empty every cache and the directory."""
        for cache in (*self.l1i, *self.l1d, *self.l2, *self.l3):
            cache.flush()
        self.directory.flush()
