"""Set-associative LRU cache model.

Each set is an insertion-ordered dict mapping resident line address to
``None``: dict order is LRU (oldest entry) to MRU (newest), so hit
promotion is a delete + reinsert and eviction pops the first key — all
O(1) amortized, where the seed's list-based sets paid an O(associativity)
scan per probe.  Lines are cache-line addresses (already divided by the
64-byte line size).  The model tracks presence and dirtiness only — data
values never matter to timing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CacheConfig

#: Sentinel distinguishing "absent" from a stored value in ``dict.pop``.
_MISS = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction; 0.0 when no accesses were made."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = self.misses = self.evictions = 0
        self.dirty_evictions = self.invalidations = 0


@dataclass
class _EvictedLine:
    """An evicted line and whether it was dirty."""

    line: int
    dirty: bool


class SetAssocCache:
    """LRU set-associative cache of line addresses.

    The per-set dicts hold resident lines in LRU-to-MRU insertion order;
    dirty lines are tracked in a side set, so hit paths stay one dict
    operation.
    """

    def __init__(
        self, config: CacheConfig, stats: CacheStats | None = None
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else CacheStats()
        self._num_sets = config.num_sets
        self._set_mask = self._num_sets - 1
        self._assoc = config.associativity
        self._sets: list[dict[int, None]] = [
            {} for _ in range(self._num_sets)
        ]
        self._dirty: set[int] = set()

    @property
    def latency(self) -> int:
        """Access latency in core cycles (from the config)."""
        return self.config.latency_cycles

    def lookup(self, line: int) -> bool:
        """Probe for ``line``; on hit, promote to MRU. Updates stats."""
        s = self._sets[line & self._set_mask]
        if s.pop(line, _MISS) is not _MISS:
            s[line] = None  # reinsert at MRU position
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Presence check without LRU update or stats."""
        return line in self._sets[line & self._set_mask]

    def fill(self, line: int, dirty: bool = False) -> _EvictedLine | None:
        """Insert ``line`` at MRU; return the victim if one was evicted."""
        s = self._sets[line & self._set_mask]
        if s.pop(line, _MISS) is not _MISS:
            s[line] = None
            if dirty:
                self._dirty.add(line)
            return None
        victim = None
        if len(s) >= self._assoc:
            old = next(iter(s))
            del s[old]
            was_dirty = old in self._dirty
            if was_dirty:
                self._dirty.discard(old)
                self.stats.dirty_evictions += 1
            self.stats.evictions += 1
            victim = _EvictedLine(old, was_dirty)
        s[line] = None
        if dirty:
            self._dirty.add(line)
        return victim

    def mark_dirty(self, line: int) -> None:
        """Flag a resident line as modified (no-op if absent)."""
        if self.contains(line):
            self._dirty.add(line)

    def is_dirty(self, line: int) -> bool:
        """True if the line is resident and modified."""
        return line in self._dirty

    def remove(self, line: int) -> bool:
        """Invalidate ``line`` (coherence); returns True if it was present."""
        s = self._sets[line & self._set_mask]
        if s.pop(line, _MISS) is not _MISS:
            self._dirty.discard(line)
            self.stats.invalidations += 1
            return True
        return False

    def flush(self) -> None:
        """Drop all contents (counters preserved)."""
        for s in self._sets:
            s.clear()
        self._dirty.clear()

    def resident_lines(self) -> list[int]:
        """All resident lines, set by set, LRU to MRU within a set."""
        out: list[int] = []
        for s in self._sets:
            out.extend(s)
        return out

    @property
    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)
