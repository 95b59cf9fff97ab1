"""Property suite for MSI directory bookkeeping (repro.mem.directory).

Standalone of any hierarchy: drives :class:`Directory` directly through
its per-line API and checks the sharer-mask/owner algebra — idempotent
membership, upgrade semantics on a single sharer, eviction of the last
sharer.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.directory import Directory

CORES = 8
lines = st.integers(min_value=0, max_value=255)
cores = st.integers(min_value=0, max_value=CORES - 1)


def popcount(mask: int) -> int:
    return bin(mask).count("1")


class TestSharerMaskAlgebra:
    @given(line=lines, core=cores, repeats=st.integers(1, 5))
    def test_repeated_reads_idempotent(self, line, core, repeats):
        """Re-adding a sharer never grows the mask past the first add."""
        d = Directory(num_cores=CORES)
        d.note_read(line, core)
        mask = d.sharers(line)
        for _ in range(repeats):
            d.note_read(line, core)
        assert d.sharers(line) == mask == (1 << core)

    @given(line=lines, readers=st.sets(cores, min_size=1, max_size=CORES))
    def test_mask_is_union_of_readers(self, line, readers):
        d = Directory(num_cores=CORES)
        for core in readers:
            d.note_read(line, core)
        expected = 0
        for core in readers:
            expected |= 1 << core
        assert d.sharers(line) == expected
        assert d.owner(line) == -1

    @given(line=lines, core=cores, repeats=st.integers(1, 5))
    def test_repeated_drop_idempotent(self, line, core, repeats):
        """Dropping a line (last-sharer eviction) forgets it; dropping an
        unknown line is a no-op rather than an error."""
        d = Directory(num_cores=CORES)
        d.note_write(line, core)
        for _ in range(repeats):
            d.drop(line)
        assert d.sharers(line) == 0
        assert d.owner(line) == -1
        assert not d.is_modified(line)

    @given(line=lines, writer=cores,
           readers=st.sets(cores, min_size=1, max_size=CORES))
    def test_write_invalidate_collapses_mask(self, line, writer, readers):
        """A write leaves exactly the writer in the mask; the returned
        invalidation mask is everyone else, counted in the stats."""
        d = Directory(num_cores=CORES)
        for core in readers:
            d.note_read(line, core)
        before = d.sharers(line)
        mask = d.note_write(line, writer)
        assert mask == before & ~(1 << writer)
        assert d.sharers(line) == 1 << writer
        assert d.owner(line) == writer
        assert d.stats.invalidations_sent == popcount(mask)


class TestUpgradeAndDowngrade:
    @given(line=lines, core=cores)
    def test_single_sharer_upgrade_sends_no_invalidations(self, line, core):
        """Read-then-write by the same core: silent S->M upgrade."""
        d = Directory(num_cores=CORES)
        d.note_read(line, core)
        mask = d.note_write(line, core)
        assert mask == 0
        assert d.stats.invalidations_sent == 0
        assert d.owner(line) == core
        assert d.is_modified(line)

    @given(line=lines, owner=cores, reader=cores)
    def test_remote_read_downgrades_owner(self, line, owner, reader):
        d = Directory(num_cores=CORES)
        d.note_write(line, owner)
        prev = d.note_read(line, reader)
        if reader == owner:
            # Own read: stays Modified, no transfer reported.
            assert prev == -1
            assert d.is_modified(line)
            assert d.stats.downgrades == 0
        else:
            assert prev == owner
            assert not d.is_modified(line)
            assert d.stats.downgrades == 1
            assert d.stats.cache_to_cache == 1
            assert d.sharers(line) & (1 << reader)

    @given(line=lines, first=cores, second=cores)
    def test_ownership_moves_to_latest_writer(self, line, first, second):
        d = Directory(num_cores=CORES)
        d.note_write(line, first)
        d.note_write(line, second)
        assert d.owner(line) == second
        assert d.sharers(line) == 1 << second

    @given(line=lines, core=cores)
    def test_last_sharer_eviction_clears_modified(self, line, core):
        """Evicting the last (owning) sharer leaves no stale M state, so
        a later read misses to memory instead of a dead owner."""
        d = Directory(num_cores=CORES)
        d.note_write(line, core)
        d.drop(line)
        other = (core + 1) % CORES
        assert d.note_read(line, other) == -1
        assert d.stats.cache_to_cache == 0

