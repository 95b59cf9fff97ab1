"""Corpus conformance and corruption tests over the golden fixture.

``tests/data/golden-corpus.json`` pins the committed ``.rpt`` traces by
content hash; this battery builds a :class:`~repro.trace.corpus.TraceCorpus`
from exactly those files and asserts (a) the corpus-wide
differential-conformance sweep passes on every hierarchy backend, and
(b) every corruption mode — bit-flipped stored trace, bit-flipped shard,
torn manifest — surfaces as a store miss or a loud
:class:`~repro.errors.TraceFormatError`, never a wrong result.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.errors import (
    ConfigError,
    RetryExhaustedError,
    TraceFormatError,
)
from repro.experiments.common import RetryPolicy, RunReport
from repro.mem.backends import backend_names
from repro.store import ArtifactStore
from repro.trace.corpus import (
    CORPUS_FORMAT,
    CorpusEntry,
    TraceCorpus,
    conformance_machine,
)
from repro.trace.shard import ShardedReplay, split_trace

BACKENDS = tuple(sorted(backend_names()))

#: Near-zero backoff for corruption tests that exhaust retries.
FAST = RetryPolicy(max_retries=0, backoff_base=0.001, backoff_max=0.01)

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden_manifest():
    """The pinned golden-corpus fixture."""
    manifest = json.loads((DATA_DIR / "golden-corpus.json").read_text())
    assert manifest["format"] == CORPUS_FORMAT
    return manifest


@pytest.fixture()
def corpus(tmp_path, golden_manifest):
    """A fresh corpus holding exactly the golden traces."""
    store = ArtifactStore(root=tmp_path / "store")
    corpus = TraceCorpus(store, name="golden")
    for spec in golden_manifest["traces"]:
        corpus.add_trace(DATA_DIR / spec["file"])
    return corpus


class TestGoldenCorpusFixture:
    def test_pinned_hashes_match_disk(self, golden_manifest):
        """The fixture's sha256 pins hold — golden traces are immutable."""
        for spec in golden_manifest["traces"]:
            digest = hashlib.sha256(
                (DATA_DIR / spec["file"]).read_bytes()
            ).hexdigest()
            assert digest == spec["sha256"], (
                f"{spec['file']} changed on disk — golden fixtures are "
                f"immutable"
            )

    def test_corpus_indexes_the_golden_coordinates(
        self, corpus, golden_manifest
    ):
        entries = corpus.entries()
        assert len(entries) == len(golden_manifest["traces"])
        by_workload = {e.workload: e for e in entries}
        for spec in golden_manifest["traces"]:
            entry = by_workload[spec["workload"]]
            assert entry.num_threads == spec["num_threads"]
            assert entry.scale == spec["scale"]
            assert entry.num_regions == spec["num_regions"]
            assert entry.fingerprint.endswith(spec["sha256"])

    def test_add_trace_deduplicates_by_content(self, corpus, golden_manifest):
        before = corpus.entries()
        for spec in golden_manifest["traces"]:
            again = corpus.add_trace(DATA_DIR / spec["file"])
            assert again in before
        assert corpus.entries() == before

    def test_resolve_roundtrips_content(self, corpus, golden_manifest):
        """Resolving an entry serves the exact golden bytes back."""
        spec = golden_manifest["traces"][0]
        entry = next(
            e for e in corpus.entries() if e.workload == spec["workload"]
        )
        path = corpus.resolve(entry)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == spec["sha256"]


class TestConformanceSweep:
    def test_sweep_passes_on_every_backend(self, corpus, golden_manifest):
        """Every golden entry × backend is bit-identical through the
        shard-chain replay, in profiles and detailed runs."""
        results = corpus.verify()
        assert len(results) == len(golden_manifest["traces"]) * len(BACKENDS)
        assert all(r["ok"] for r in results)
        for r in results:
            assert r["unsharded"] == r["sharded"]
            assert r["unsharded_full"] == r["sharded_full"]

    def test_full_digests_differentiate_backends(self, corpus):
        """Every backend row of an entry carries the entry's one pair of
        profile digests, but its own detailed-run digests — the backend
        axis of the sweep is only meaningful because the full-run digest
        differs across hierarchy backends."""
        results = corpus.verify()
        label = results[0]["label"]
        mine = [r for r in results if r["label"] == label]
        assert len({r["unsharded"] for r in mine}) == 1
        assert len({r["unsharded_full"] for r in mine}) == len(BACKENDS)

    def test_profiles_are_backend_independent(self, corpus):
        """The property the sweep's profile-once-per-entry leg relies on:
        one entry profiles to the same digest on every backend's
        conformance machine."""
        from repro.core.pipeline import BarrierPointPipeline
        from repro.profiling.profiler import profiles_digest
        from repro.workloads.replay import ReplayWorkload

        entry = corpus.entries()[0]
        digests = set()
        for backend in BACKENDS:
            pipe = BarrierPointPipeline(
                conformance_machine(entry.num_threads, backend)
            )
            replay = ReplayWorkload(corpus.resolve(entry))
            try:
                digests.add(profiles_digest(pipe.profile(replay)))
            finally:
                replay.close()
        assert len(digests) == 1

    def test_profiles_each_entry_once(self, corpus, monkeypatch):
        """A serial sweep profiles each trace twice (unsharded + chain),
        not twice per (entry, backend)."""
        from repro.profiling.profiler import FunctionalProfiler

        calls = []
        real_profile = FunctionalProfiler.profile

        def profile(self, *args, **kwargs):
            calls.append(1)
            return real_profile(self, *args, **kwargs)

        monkeypatch.setattr(FunctionalProfiler, "profile", profile)
        results = corpus.verify()
        assert len(results) == len(corpus.entries()) * len(BACKENDS)
        assert len(calls) == 2 * len(corpus.entries())

    def test_submits_largest_trace_first(
        self, tmp_path, golden_manifest, monkeypatch
    ):
        """Tasks run largest trace first; verdicts keep entry order."""
        import repro.trace.corpus as corpus_module

        corpus = TraceCorpus(ArtifactStore(root=tmp_path / "store"), "up")
        by_size = sorted(
            (DATA_DIR / spec["file"] for spec in golden_manifest["traces"]),
            key=lambda path: path.stat().st_size,
        )
        for path in by_size:  # smallest recorded first
            corpus.add_trace(path)
        sizes = []
        task = corpus_module._verify_conformance_task

        def recording_task(path, *args):
            sizes.append(pathlib.Path(path).stat().st_size)
            return task(path, *args)

        monkeypatch.setattr(
            corpus_module, "_verify_conformance_task", recording_task
        )
        results = corpus.verify()
        assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1]
        assert [(r["label"], r["backend"]) for r in results] == [
            (e.label, b) for e in corpus.entries() for b in BACKENDS
        ]

    def test_profile_mismatch_fails_every_backend_row_of_the_entry(
        self, corpus, monkeypatch
    ):
        """A chain profile that differs from the unsharded one marks all
        of that entry's backend rows, and only those, not ok."""
        from tests.conftest import break_chain_profiles

        victim = corpus.entries()[0]
        break_chain_profiles(monkeypatch, victim.workload)
        results = corpus.verify()
        assert len(results) == len(corpus.entries()) * len(BACKENDS)
        for r in results:
            mine = r["fingerprint"] == victim.fingerprint
            assert r["ok"] is not mine
            assert (r["unsharded"] == r["sharded"]) is not mine
            assert r["unsharded_full"] == r["sharded_full"]
        assert {r["backend"] for r in results if not r["ok"]} == set(BACKENDS)

    @pytest.mark.parametrize("backends, match", [
        ((), "at least one backend"),
        (("inclusive", "bogus"), "unknown hierarchy backend 'bogus'"),
    ], ids=["empty", "unknown"])
    def test_bad_backends_rejected_before_any_work(
        self, corpus, backends, match
    ):
        """An empty or unknown backend list is one ConfigError up front,
        not an empty result or a retried task failure."""
        report = RunReport()
        with pytest.raises(ConfigError, match=match):
            corpus.verify(backends=backends, report=report)
        assert report.tasks == []

    @pytest.mark.parametrize("bad", [0, -4])
    def test_nonpositive_shard_count_rejected_before_any_work(
        self, corpus, bad
    ):
        """One ConfigError up front — no unsharded leg, no task."""
        report = RunReport()
        with pytest.raises(ConfigError, match="num_shards must be >= 1"):
            corpus.verify(num_shards=bad, report=report)
        assert report.tasks == []

    def test_empty_corpus_verifies_vacuously(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store")
        assert TraceCorpus(store, name="empty").verify() == []


class TestCorruption:
    def test_bit_flipped_stored_trace_resolves_loudly(self, corpus):
        """A corrupted trace in the store never replays: resolve raises."""
        entry = corpus.entries()[0]
        stored = corpus.store.path_for_file("traces", entry.store_key)
        blob = bytearray(stored.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        stored.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError, match="missing or corrupt"):
            corpus.resolve(entry)

    def test_evicted_trace_resolves_loudly(self, corpus):
        """A GC-evicted trace is a loud miss, not an empty replay."""
        entry = corpus.entries()[0]
        corpus.store.path_for_file("traces", entry.store_key).unlink()
        with pytest.raises(TraceFormatError, match="GC-evicted"):
            corpus.resolve(entry)

    def test_torn_manifest_is_loud_not_empty(self, corpus):
        """A manifest that fails its checksum must never read as an
        empty corpus — silent loss of the whole index."""
        path = corpus.store.path_for("corpus", corpus.manifest_key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn write
        with pytest.raises(TraceFormatError, match="corrupt"):
            corpus.entries()

    def test_missing_manifest_is_an_empty_corpus(self, tmp_path):
        """No manifest at all is legitimately empty (nothing recorded)."""
        store = ArtifactStore(root=tmp_path / "store")
        assert TraceCorpus(store, name="fresh").entries() == []

    def test_bit_flipped_shard_never_merges(self, corpus, tmp_path):
        """Corrupting one payload byte of one shard aborts the sharded
        replay loudly — a wrong result is not an outcome."""
        from repro.trace.capture import TraceReader

        entry = corpus.entries()[0]
        shards = split_trace(
            corpus.resolve(entry), tmp_path / "shards", num_shards=3
        )
        victim = shards[1]
        with TraceReader(victim) as reader:
            offset, length, _ = reader._offsets[0]
        blob = bytearray(victim.read_bytes())
        blob[offset + length // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))

        replay = ShardedReplay(
            shards, conformance_machine(entry.num_threads, BACKENDS[0]),
            retry=FAST,
        )
        with pytest.raises(RetryExhaustedError, match="TraceFormatError"):
            replay.run(want_profiles=True)

    def test_corrupt_shard_header_fails_at_chain_construction(
        self, corpus, tmp_path
    ):
        """Header-level damage is caught before any replay starts."""
        entry = corpus.entries()[0]
        shards = split_trace(
            corpus.resolve(entry), tmp_path / "shards", num_shards=2
        )
        blob = bytearray(shards[0].read_bytes())
        blob[12] ^= 0xFF  # inside the metadata JSON
        shards[0].write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError):
            ShardedReplay(
                shards, conformance_machine(entry.num_threads, BACKENDS[0])
            )


class TestRecording:
    def test_fuzz_range_records_and_dedups(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store")
        corpus = TraceCorpus(store, name="fuzz")
        first = corpus.record_fuzz_range([3, 4], num_threads=2, scale=0.05)
        assert [e.label for e in first] == ["fuzz-3/2t", "fuzz-4/2t"]
        assert len(corpus.entries()) == 2
        again = corpus.record_fuzz_range([3, 4], num_threads=2, scale=0.05)
        assert again == first
        assert len(corpus.entries()) == 2

    def test_distinct_corpora_share_a_store(self, tmp_path):
        """Different corpus names are independent indexes."""
        store = ArtifactStore(root=tmp_path / "store")
        a = TraceCorpus(store, name="a")
        b = TraceCorpus(store, name="b")
        assert a.manifest_key != b.manifest_key
        a.record_fuzz_range([5], num_threads=2, scale=0.05)
        assert len(a.entries()) == 1
        assert b.entries() == []

    def test_disabled_store_is_rejected(self, tmp_path):
        disabled = ArtifactStore(root=tmp_path / "store", enabled=False)
        with pytest.raises(ConfigError, match="enabled artifact store"):
            TraceCorpus(disabled)

    def test_entry_roundtrips_through_dict(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "store")
        corpus = TraceCorpus(store, name="rt")
        (entry,) = corpus.record_fuzz_range([6], num_threads=2, scale=0.05)
        assert CorpusEntry.from_dict(entry.to_dict()) == entry
