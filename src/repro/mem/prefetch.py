"""Next-line prefetching hierarchy backend.

A classic tagged next-line prefetcher at the L2: every demand L2 miss on
line ``L`` issues prefetches for ``L+1 .. L+degree`` into the core's L2
(and the core's shared L3, keeping inclusion intact).  Prefetches are
modeled as timing-free — their latency is assumed hidden behind the
triggering demand miss — but they are *not* free in the memory system:

* a prefetch that misses the L3 consumes DRAM read bandwidth on the
  socket (and shows up in ``dram_reads_per_socket`` / ``l3_misses``,
  where the region bandwidth model will account for it);
* prefetch fills evict LRU victims from L2 and L3 exactly like demand
  fills, so a useless prefetcher pollutes caches in the model just as it
  does in hardware;
* every issued prefetch increments ``AccessCounters.prefetches``.

Lines owned Modified by another core are never prefetched (no coherence
traffic is speculated), and already-resident lines are skipped without
touching LRU state (a "tagged" prefetcher does not promote).

Construct with ``degree=0`` to disable the distinguishing feature — the
instance is then behaviorally identical to the reference hierarchy, which
the backend parity suite asserts.
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.mem.hierarchy import MemoryHierarchy


class NextLinePrefetchHierarchy(MemoryHierarchy):
    """Reference hierarchy plus an L2 next-line prefetcher."""

    prefetch_degree = 1

    def __init__(self, machine: MachineConfig, degree: int = 1) -> None:
        if degree < 0:
            raise ConfigError(f"prefetch degree must be >= 0, got {degree}")
        super().__init__(machine)
        # Instance attribute shadows the class seam, so one class serves
        # both the backend and its feature-disabled parity twin.
        self.prefetch_degree = degree

    def _prefetch_after_miss(self, core: int, line: int) -> None:
        """Issue next-line prefetches for one demand L2 miss.

        Runs off the hot path (only on L2 misses of this backend), so it
        favors clarity over the inlined style of ``access_block``.
        """
        domain = self._domain_of[core]
        socket = self._domain_socket[domain]
        l2 = self.l2[core]
        l3 = self.l3[domain]
        l2_sets, l2_mask, l2_assoc = l2._sets, l2._set_mask, l2._assoc
        l3_sets, l3_mask, l3_assoc = l3._sets, l3._set_mask, l3._assoc
        owner = self.directory._owner
        sharers = self.directory._sharers
        my_bit = 1 << core
        issued = 0
        for delta in range(1, self.prefetch_degree + 1):
            pline = line + delta
            s2 = l2_sets[pline & l2_mask]
            if pline in s2:
                continue  # already resident: tagged prefetchers stay quiet
            powner = owner.get(pline, -1)
            if powner >= 0 and powner != core:
                continue  # modified elsewhere: never speculate coherence
            s3 = l3_sets[pline & l3_mask]
            if pline not in s3:
                # Fill the shared L3 from DRAM (bandwidth is charged, the
                # latency is hidden); the victim is handled exactly like a
                # demand fill's via the shared helper (inclusion purge,
                # owner writeback and all).
                self._dram_reads[socket] += 1
                if len(s3) >= l3_assoc:
                    self._evict_l3_victim(domain, s3)
                s3[pline] = None
            if len(s2) >= l2_assoc:
                old = next(iter(s2))
                del s2[old]
                l2.stats.evictions += 1
            s2[pline] = None
            sharers[pline] = sharers.get(pline, 0) | my_bit
            issued += 1
        self._prefetches += issued
