"""MSI directory coherence bookkeeping.

The directory tracks, per line, a bitmask of cores whose *private* caches
(L1/L2) may hold the line, plus the single core owning it in Modified
state, if any.  Private caches evict silently, so sharer bits can be stale
— exactly as in real sparse directories — which only costs spurious (cheap)
invalidation messages, never correctness of the timing model.

Two organisations share that per-line contract:

* :class:`Directory` — one monolithic node, logically co-located with the
  socket's shared L3 (the paper's flat machines).
* :class:`DistributedDirectory` — address-interleaved **home nodes**, one
  per core complex, as in CCX/chiplet parts where each complex's L3 slice
  carries a directory slice.  State for a line lives only at its home, so
  the ``complex`` backend's coherence walk goes through the same fabric
  hops it charges latency for.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DirectoryStats:
    """Coherence event counters."""

    invalidations_sent: int = 0
    downgrades: int = 0
    cache_to_cache: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.invalidations_sent = 0
        self.downgrades = 0
        self.cache_to_cache = 0


class Directory:
    """Sharer/owner tracking for an MSI protocol over private caches."""

    def __init__(
        self, num_cores: int, stats: DirectoryStats | None = None
    ) -> None:
        self.num_cores = num_cores
        self.stats = stats if stats is not None else DirectoryStats()
        self._sharers: dict[int, int] = {}
        self._owner: dict[int, int] = {}

    def sharers(self, line: int) -> int:
        """Bitmask of cores that may hold ``line``."""
        return self._sharers.get(line, 0)

    def owner(self, line: int) -> int:
        """Core owning ``line`` in M state, or -1."""
        return self._owner.get(line, -1)

    def note_read(self, line: int, core: int) -> int:
        """Record a read by ``core``; returns previous M owner (or -1).

        If another core owned the line Modified, it is downgraded to Shared
        (the caller charges the cache-to-cache transfer latency).
        """
        prev = self._owner.get(line, -1)
        if prev >= 0 and prev != core:
            del self._owner[line]
            self.stats.downgrades += 1
            self.stats.cache_to_cache += 1
        self._sharers[line] = self._sharers.get(line, 0) | (1 << core)
        return prev if prev != core else -1

    def note_write(self, line: int, core: int) -> int:
        """Record a write by ``core``; returns bitmask of cores to invalidate.

        The caller must remove the line from those cores' private caches and
        charge the upgrade latency when the mask is non-zero.
        """
        mask = self._sharers.get(line, 0) & ~(1 << core)
        if mask:
            self.stats.invalidations_sent += bin(mask).count("1")
        self._sharers[line] = 1 << core
        self._owner[line] = core
        return mask

    def drop(self, line: int) -> None:
        """Forget a line entirely (e.g. after last-level eviction)."""
        self._sharers.pop(line, None)
        self._owner.pop(line, None)

    def is_modified(self, line: int) -> bool:
        """True if some core owns the line in M state."""
        return line in self._owner

    def flush(self) -> None:
        """Drop all directory state (counters preserved)."""
        self._sharers.clear()
        self._owner.clear()


class DistributedDirectory:
    """Address-interleaved MSI directory over per-complex home nodes.

    Lines are statically interleaved across ``num_homes`` nodes
    (``home_of(line) = line % num_homes``), each an ordinary
    :class:`Directory`.  The per-line API is identical to the monolithic
    directory — every query/update is simply delegated to the line's home
    — so callers that already speak :class:`Directory` work unchanged;
    the split only matters to the backend that charges a fabric hop for
    reaching a non-local home.
    """

    def __init__(self, num_cores: int, num_homes: int) -> None:
        if num_homes <= 0:
            raise ValueError(f"num_homes must be positive, got {num_homes}")
        self.num_cores = num_cores
        self.num_homes = num_homes
        self.homes = tuple(
            Directory(num_cores=num_cores) for _ in range(num_homes)
        )

    def home_of(self, line: int) -> int:
        """Home-node index for ``line`` (static address interleaving)."""
        return line % self.num_homes

    @property
    def stats(self) -> DirectoryStats:
        """Aggregate coherence counters summed over all home nodes."""
        total = DirectoryStats()
        for home in self.homes:
            total.invalidations_sent += home.stats.invalidations_sent
            total.downgrades += home.stats.downgrades
            total.cache_to_cache += home.stats.cache_to_cache
        return total

    @property
    def _sharers(self) -> dict[int, int]:
        """Merged line → sharer-mask view (tests/debugging; copies)."""
        merged: dict[int, int] = {}
        for home in self.homes:
            merged.update(home._sharers)
        return merged

    @property
    def _owner(self) -> dict[int, int]:
        """Merged line → M-owner view (tests/debugging; copies)."""
        merged: dict[int, int] = {}
        for home in self.homes:
            merged.update(home._owner)
        return merged

    def sharers(self, line: int) -> int:
        """Bitmask of cores that may hold ``line``."""
        return self.homes[line % self.num_homes].sharers(line)

    def owner(self, line: int) -> int:
        """Core owning ``line`` in M state, or -1."""
        return self.homes[line % self.num_homes].owner(line)

    def note_read(self, line: int, core: int) -> int:
        """Record a read at the line's home; returns previous M owner."""
        return self.homes[line % self.num_homes].note_read(line, core)

    def note_write(self, line: int, core: int) -> int:
        """Record a write at the line's home; returns invalidation mask."""
        return self.homes[line % self.num_homes].note_write(line, core)

    def drop(self, line: int) -> None:
        """Forget a line entirely (e.g. after last-level eviction)."""
        self.homes[line % self.num_homes].drop(line)

    def is_modified(self, line: int) -> bool:
        """True if some core owns the line in M state."""
        return self.homes[line % self.num_homes].is_modified(line)

    def flush(self) -> None:
        """Drop all directory state at every home (counters preserved)."""
        for home in self.homes:
            home.flush()
