"""Tests for the persistent artifact store and its runner integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import BarrierPointPipeline
from repro.experiments import common
from repro.experiments.common import ExperimentRunner, pair_key
from repro.store import ArtifactStore, config_fingerprint, code_fingerprint
from repro.store import fingerprint as fingerprint_mod

SCALE = 0.1
BENCH = "npb-is"


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=tmp_path / "store")


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("benchmarks", (BENCH,))
    kwargs.setdefault("store", ArtifactStore(root=tmp_path / "store"))
    return ExperimentRunner(**kwargs)


def forbid_compute(monkeypatch):
    """Make recomputation an error, so only store/memo hits can succeed."""

    def _boom(self, workload):
        raise AssertionError("expensive pass recomputed despite store hit")

    monkeypatch.setattr(BarrierPointPipeline, "profile", _boom)
    monkeypatch.setattr(BarrierPointPipeline, "full_run", _boom)


class TestArtifactStore:
    def test_round_trip(self, store):
        key = store.derive_key(kind="demo", x=1)
        payload = {"arr": np.arange(5), "s": "text"}
        assert store.get("demo", key) is None
        store.put("demo", key, payload)
        loaded = store.get("demo", key)
        assert loaded["s"] == "text"
        assert np.array_equal(loaded["arr"], payload["arr"])
        assert store.hits == 1 and store.misses == 1

    def test_key_changes_with_parts(self):
        base = ArtifactStore.derive_key(workload="a", scale=0.1)
        assert base != ArtifactStore.derive_key(workload="a", scale=0.2)
        assert base != ArtifactStore.derive_key(workload="b", scale=0.1)
        assert base == ArtifactStore.derive_key(scale=0.1, workload="a")

    def test_disabled_store_is_inert(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "s", enabled=False)
        key = store.derive_key(x=1)
        assert store.put("demo", key, "payload") is None
        assert store.get("demo", key) is None
        assert not (tmp_path / "s").exists()

    def test_truncated_file_is_a_miss(self, store):
        key = store.derive_key(x="trunc")
        path = store.put("demo", key, list(range(1000)))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert store.get("demo", key) is None
        assert not path.exists()  # corrupt file unlinked
        # ... and the next put heals it.
        store.put("demo", key, "fresh")
        assert store.get("demo", key) == "fresh"

    def test_garbage_file_is_a_miss(self, store):
        key = store.derive_key(x="garbage")
        path = store.put("demo", key, "payload")
        path.write_bytes(b"\x80\x04not a valid artifact at all")
        assert store.get("demo", key) is None

    def test_tampered_body_is_a_miss(self, store):
        key = store.derive_key(x="tamper")
        path = store.put("demo", key, "payload")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get("demo", key) is None

    def test_clear_and_size(self, store):
        store.put("demo", store.derive_key(x=1), "a")
        store.put("other", store.derive_key(x=2), "b")
        assert store.size_bytes() > 0
        freed = store.clear()
        assert freed > 0
        assert store.size_bytes() == 0
        assert store.clear() == 0


class TestFingerprints:
    def test_config_fingerprint_stability(self):
        from repro.config import simpoint_defaults, table1_8core

        assert table1_8core().fingerprint() == table1_8core().fingerprint()
        assert table1_8core().fingerprint() != simpoint_defaults().fingerprint()
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_config_fingerprint_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            config_fingerprint(object())

    def test_code_fingerprint_cached_and_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestRunnerIntegration:
    def test_cross_runner_reuse(self, tmp_path, monkeypatch):
        writer = make_runner(tmp_path)
        profiles = writer.profiles(BENCH, 8)
        full = writer.full(BENCH, 8)

        # A fresh runner (same config, same store) must not recompute.
        forbid_compute(monkeypatch)
        reader = make_runner(tmp_path)
        reloaded_profiles = reader.profiles(BENCH, 8)
        reloaded_full = reader.full(BENCH, 8)

        assert len(reloaded_profiles) == len(profiles)
        for a, b in zip(reloaded_profiles, profiles):
            assert np.array_equal(a.bbv, b.bbv)
            assert np.array_equal(a.ldv, b.ldv)
            assert a.per_thread_instructions == b.per_thread_instructions
        assert reloaded_full.app.cycles == full.app.cycles
        assert [r.to_state() for r in reloaded_full.regions] == [
            r.to_state() for r in full.regions
        ]

    def test_miss_on_scale_change(self, tmp_path, monkeypatch):
        make_runner(tmp_path).profiles(BENCH, 8)
        forbid_compute(monkeypatch)
        other = make_runner(tmp_path, scale=0.12)
        with pytest.raises(AssertionError, match="recomputed"):
            other.profiles(BENCH, 8)

    def test_miss_on_code_change(self, tmp_path, monkeypatch):
        make_runner(tmp_path).profiles(BENCH, 8)
        monkeypatch.setattr(
            fingerprint_mod, "_code_fingerprint_cache", "0" * 16
        )
        forbid_compute(monkeypatch)
        with pytest.raises(AssertionError, match="recomputed"):
            make_runner(tmp_path).profiles(BENCH, 8)

    def test_corrupt_artifact_recomputes(self, tmp_path):
        writer = make_runner(tmp_path)
        baseline = writer.full(BENCH, 8)
        key = pair_key(SCALE, BENCH, 8)
        path = writer.store.path_for("full", key)
        path.write_bytes(path.read_bytes()[:40])

        recovered = make_runner(tmp_path).full(BENCH, 8)
        assert recovered.to_state() == baseline.to_state()
        # The recompute healed the store for the next reader.
        assert make_runner(tmp_path).store.get("full", key) is not None

    def test_runner_without_store(self, tmp_path):
        runner = make_runner(tmp_path, store=None)
        assert runner.profiles(BENCH, 8)
        assert not (tmp_path / "store").exists()


class TestParallelPrefetch:
    def test_prefetch_populates_store_and_memo(self, tmp_path, monkeypatch):
        runner = make_runner(tmp_path, workers=2)
        computed = runner.prefetch(pairs=[(BENCH, 8)])
        assert computed == 2  # profiles + full

        # Memoized in the parent without further compute...
        forbid_compute(monkeypatch)
        assert runner.profiles(BENCH, 8)
        assert runner.full(BENCH, 8)

        # ...and persisted by the *worker process* for other processes.
        reader = make_runner(tmp_path)
        assert reader.profiles(BENCH, 8)
        assert reader.full(BENCH, 8)
        assert reader.store.hits == 2

    def test_prefetch_skips_available_work(self, tmp_path):
        runner = make_runner(tmp_path, workers=2)
        assert runner.prefetch(pairs=[(BENCH, 8)]) == 2
        assert runner.prefetch(pairs=[(BENCH, 8)]) == 0
        # A fresh runner sees the store and also does nothing.
        assert make_runner(tmp_path, workers=2).prefetch(
            pairs=[(BENCH, 8)]
        ) == 0

    def test_prefetch_serial_runner_is_noop(self, tmp_path):
        runner = make_runner(tmp_path, workers=0)
        assert runner.prefetch(pairs=[(BENCH, 8)]) == 0

    def test_parallel_results_match_serial(self, tmp_path):
        serial = make_runner(tmp_path, store=None)
        parallel = make_runner(tmp_path, workers=2)
        parallel.prefetch(pairs=[(BENCH, 8)])

        sp, pp = serial.profiles(BENCH, 8), parallel.profiles(BENCH, 8)
        assert len(sp) == len(pp)
        for a, b in zip(sp, pp):
            assert np.array_equal(a.bbv, b.bbv)
            assert np.array_equal(a.ldv, b.ldv)
        assert (
            serial.full(BENCH, 8).to_state()
            == parallel.full(BENCH, 8).to_state()
        )


class TestDerivedPrefetch:
    """Sweeps and warmed evaluations computed by the pool's tasks."""

    KINDS = ("profiles", "full", "sweep:combine", "warmup:mru")

    def test_matches_serial(self, tmp_path):
        serial = make_runner(tmp_path / "serial", store=None)
        parallel = make_runner(tmp_path, workers=2)
        assert parallel.prefetch(pairs=[(BENCH, 8)], kinds=self.KINDS) == 4
        assert (BENCH, 8, "combine", None) in parallel._sweeps
        want, got = (r.evaluate_warmup(BENCH, 8) for r in (serial, parallel))
        assert got.runtime_error_pct == want.runtime_error_pct
        assert got.warmup_lines == want.warmup_lines
        assert {i: m.to_state() for i, m in got.point_metrics.items()} == {
            i: m.to_state() for i, m in want.point_metrics.items()
        }
        assert (
            parallel.selection(BENCH, 8).selected_regions
            == serial.selection(BENCH, 8).selected_regions
        )

    def test_stored_inputs_are_loaded_not_recomputed(
        self, tmp_path, monkeypatch
    ):
        first = make_runner(tmp_path, workers=2)
        assert first.prefetch(pairs=[(BENCH, 8)]) == 2
        journaled = first.journal().completed_passes()

        # Forked workers inherit the patches: a recompute or a rewrite
        # fails the task.
        forbid_compute(monkeypatch)

        def _no_put(self, kind, key, payload):
            raise AssertionError(f"stored {kind} rewritten")

        monkeypatch.setattr(ArtifactStore, "put", _no_put)
        resumed = make_runner(tmp_path, workers=2, resume=True)
        assert resumed.prefetch(pairs=[(BENCH, 8)], kinds=self.KINDS) == 2
        assert resumed.report.resumed == 1
        assert [t.label for t in resumed.report.tasks] == ["npb-is/8t"]
        assert resumed.journal().completed_passes() == journaled
        assert (BENCH, 8, "mru") in resumed._warmups
        assert (BENCH, 8, None) not in resumed._profiles  # loaded lazily

    def test_input_held_only_in_memory_stays_serial(self, tmp_path):
        runner = make_runner(tmp_path, workers=2, store=None)
        runner.profiles(BENCH, 8)
        assert runner.prefetch(
            pairs=[(BENCH, 8)], kinds=("sweep:combine",)
        ) == 0
        assert not runner.report.tasks

    def test_unknown_kind_rejected(self, tmp_path):
        runner = make_runner(tmp_path, workers=2)
        with pytest.raises(common.ConfigError, match="unknown pass kind"):
            runner.prefetch(pairs=[(BENCH, 8)], kinds=("sweep:nope",))
        with pytest.raises(common.ConfigError, match="default evaluation"):
            runner.prefetch(
                pairs=[(BENCH, 8, "table1-8core")], kinds=("warmup:mru",)
            )


class TestJanitor:
    """GC sweeps: orphan reaping, TTL expiry, LRU quota eviction."""

    def _fill(self, store, n=4, pad=1000):
        """Store ``n`` artifacts and return their keys in insert order."""
        keys = []
        for i in range(n):
            key = store.derive_key(i=i)
            store.put("demo", key, {"i": i, "pad": "x" * pad})
            keys.append(key)
        return keys

    def test_parse_size(self):
        from repro.store.janitor import parse_size

        assert parse_size("1024") == 1024
        assert parse_size("2K") == 2048
        assert parse_size("1.5kb") == 1536
        assert parse_size("3M") == 3 * 1024**2
        assert parse_size(" 2G ") == 2 * 1024**3
        for bad in ("", "12Q", "-5", "big"):
            with pytest.raises(common.ConfigError):
                parse_size(bad)

    def test_parse_duration(self):
        from repro.store.janitor import parse_duration

        assert parse_duration("3600") == 3600.0
        assert parse_duration("90m") == 5400.0
        assert parse_duration("12h") == 43200.0
        assert parse_duration("7d") == 604800.0
        assert parse_duration("1w") == 604800.0
        for bad in ("", "7y", "-1", "soon"):
            with pytest.raises(common.ConfigError):
                parse_duration(bad)

    def test_reaps_orphan_tmp_past_grace(self, store):
        import os
        import time

        from repro.store.janitor import collect_garbage

        self._fill(store, n=1)
        young = store.root / "demo" / "young.tmp"
        young.write_bytes(b"in flight")
        old = store.root / "demo" / "old.tmp"
        old.write_bytes(b"stranded")
        stamp = time.time() - 7200
        os.utime(old, (stamp, stamp))

        stats = collect_garbage(store, tmp_grace_seconds=3600)
        assert stats.reaped_tmp == 1
        assert young.exists() and not old.exists()
        assert stats.kept_files == 1  # the artifact; .tmp never counts

    def test_ttl_expires_old_artifacts(self, store):
        import os
        import time

        from repro.store.janitor import collect_garbage

        keys = self._fill(store, n=3)
        stale = store.path_for("demo", keys[0])
        stamp = time.time() - 7200
        os.utime(stale, (stamp, stamp))

        stats = collect_garbage(store, ttl_seconds=3600)
        assert stats.expired == 1 and stats.kept_files == 2
        assert store.get("demo", keys[0]) is None
        assert store.get("demo", keys[1]) is not None

    def test_quota_evicts_lru_and_read_hits_refresh(self, store):
        import os
        import time

        from repro.store.janitor import collect_garbage

        keys = self._fill(store, n=3)
        # Age everything, then *read* the oldest: the hit's mtime touch
        # must promote it past the untouched middle artifact.
        for i, key in enumerate(keys):
            stamp = time.time() - 1000 * (len(keys) - i)
            os.utime(store.path_for("demo", key), (stamp, stamp))
        assert store.get("demo", keys[0]) is not None

        one = store.path_for("demo", keys[0]).stat().st_size
        stats = collect_garbage(store, max_bytes=2 * one)
        assert stats.evicted == 1
        assert store.has("demo", keys[0])      # recently read: kept
        assert not store.has("demo", keys[1])  # LRU: evicted
        assert store.has("demo", keys[2])
        assert stats.kept_bytes <= 2 * one

    def test_dry_run_deletes_nothing(self, store):
        from repro.store.janitor import collect_garbage

        keys = self._fill(store, n=2)
        stats = collect_garbage(store, max_bytes=0, dry_run=True)
        assert stats.evicted == 2 and stats.dry_run
        assert "would remove" in stats.render(store.root)
        assert all(store.has("demo", k) for k in keys)

    def test_prunes_empty_kind_directories(self, store):
        from repro.store.janitor import collect_garbage

        self._fill(store, n=2)
        assert (store.root / "demo").is_dir()
        collect_garbage(store, max_bytes=0)
        assert not (store.root / "demo").exists()

    def test_missing_root_is_empty_sweep(self, tmp_path):
        from repro.store.janitor import collect_garbage

        store = ArtifactStore(root=tmp_path / "never-created")
        stats = collect_garbage(store)
        assert stats.kept_files == 0 and stats.freed_bytes == 0

    def test_gc_from_env_gating(self, store):
        from repro.store.janitor import gc_from_env

        self._fill(store, n=2)
        assert gc_from_env(store, {}) is None
        assert gc_from_env(store, {"REPRO_STORE_GC": "0"}) is None
        disabled = ArtifactStore(root=store.root, enabled=False)
        assert gc_from_env(disabled, {"REPRO_STORE_GC": "1"}) is None

        stats = gc_from_env(store, {
            "REPRO_STORE_GC": "1", "REPRO_STORE_MAX_BYTES": "0",
        })
        assert stats is not None and stats.evicted == 2

    def test_runner_exit_hook_sweeps(self, tmp_path, monkeypatch):
        """REPRO_STORE_GC=1 makes every battery invocation end in a sweep."""
        from repro.experiments import battery

        monkeypatch.setenv("REPRO_STORE_GC", "1")
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "0")
        runner = make_runner(tmp_path, workers=0)
        battery.run_experiments(runner, ["fig1"])
        assert runner.store.size_bytes() == 0


class TestPayloadBytes:
    """The artifact-by-key raw read path behind ``GET /artifacts/...``."""

    def test_returns_exact_on_disk_body(self, store):
        key = store.derive_key(x="body")
        payload = {"arr": np.arange(16), "s": "text"}
        path = store.put("demo", key, payload)
        body = store.payload_bytes("demo", key)
        assert body is not None
        assert path.read_bytes().endswith(body)  # the bytes after the header
        import pickle

        (loaded,) = pickle.loads(body)
        assert loaded["s"] == "text"
        assert np.array_equal(loaded["arr"], payload["arr"])

    def test_miss_and_disabled_are_none(self, store, tmp_path):
        assert store.payload_bytes("demo", store.derive_key(x="no")) is None
        disabled = ArtifactStore(root=tmp_path / "off", enabled=False)
        assert disabled.payload_bytes("demo", "any") is None

    def test_bit_flip_is_a_miss_and_heals(self, store):
        key = store.derive_key(x="flip")
        path = store.put("demo", key, list(range(500)))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        assert store.payload_bytes("demo", key) is None
        assert not path.exists()  # corrupt file unlinked, next put heals
        store.put("demo", key, list(range(500)))
        assert store.payload_bytes("demo", key) is not None

    def test_truncated_header_is_a_miss(self, store):
        key = store.derive_key(x="short")
        path = store.put("demo", key, "payload")
        path.write_bytes(path.read_bytes()[:8])
        assert store.payload_bytes("demo", key) is None


class TestPutCount:
    """The process-wide write counter behind the coalescing proof."""

    def test_counts_successful_puts_across_stores(self, store, tmp_path):
        from repro.store import put_count

        before = put_count()
        store.put("demo", store.derive_key(x=1), "a")
        other = ArtifactStore(root=tmp_path / "other")
        other.put("demo", other.derive_key(x=2), "b")
        assert put_count() - before == 2

    def test_disabled_store_does_not_count(self, tmp_path):
        from repro.store import put_count

        before = put_count()
        disabled = ArtifactStore(root=tmp_path / "off", enabled=False)
        disabled.put("demo", "k", "payload")
        assert put_count() == before
