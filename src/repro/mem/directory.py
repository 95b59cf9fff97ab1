"""MSI directory coherence bookkeeping.

The directory tracks, per line, a bitmask of cores whose *private* caches
(L1/L2) may hold the line, plus the single core owning it in Modified
state, if any.  Private caches evict silently, so sharer bits can be stale
— exactly as in real sparse directories — which only costs spurious (cheap)
invalidation messages, never correctness of the timing model.

One :class:`Directory` serves every hierarchy backend.  It is logically
co-located with the shared L3 and charged no lookup latency of its own
(directory access is folded into the L3 latency), so the ``complex``
backend's per-complex L3 slices share it too: only actual line movement
pays fabric hops.
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

