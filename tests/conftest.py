"""Shared fixtures: tiny machines and scaled-down workloads for fast tests."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import CacheConfig, CoreConfig, MachineConfig
from repro.workloads import get_workload


def assert_bit_identical(a, b, path="value"):
    """Deep bit-identity check over nested state (dicts/tuples/arrays).

    Stricter than ``==``: numpy arrays must match in dtype, shape, *and*
    raw bytes, and scalars must match in type as well as value — the
    "byte-identical" contract the record/replay conformance battery
    asserts.  (Plain pickle-bytes comparison is unusable here: pickle
    memoizes shared objects, so identical values serialize differently
    depending on object identity.)
    """
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: key mismatch"
        for key in a:
            assert_bit_identical(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} vs {len(b)}"
        for i, (xa, xb) in enumerate(zip(a, b)):
            assert_bit_identical(xa, xb, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{path}: dtype {a.dtype} vs {b.dtype}"
        assert a.shape == b.shape, f"{path}: shape {a.shape} vs {b.shape}"
        assert (np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes()), f"{path}: array bytes"
    else:
        assert a == b, f"{path}: {a!r} vs {b!r}"


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_store(tmp_path_factory):
    """Point the artifact store at a per-session temp dir.

    Keeps test runs hermetic (no reuse of a developer's ``.repro-store``)
    and keeps the repository clean.  Tests that need their own store root
    monkeypatch ``REPRO_STORE_DIR`` on top of this.
    """
    root = tmp_path_factory.mktemp("repro-store")
    previous = os.environ.get("REPRO_STORE_DIR")
    os.environ["REPRO_STORE_DIR"] = str(root)
    yield root
    if previous is None:
        os.environ.pop("REPRO_STORE_DIR", None)
    else:  # pragma: no cover - depends on invoking environment
        os.environ["REPRO_STORE_DIR"] = previous


def break_chain_profiles(monkeypatch, workload: str) -> None:
    """Make shard-chain replays of ``workload`` drop their last region
    profile, so the corpus sweep's profile digests of that entry differ.
    """
    from repro.trace.capture import TraceReader
    from repro.trace.shard import ShardedReplay

    real_run = ShardedReplay.run

    def run(self, want_profiles=True, want_full=False):
        profiles, full = real_run(self, want_profiles, want_full)
        with TraceReader(self.paths[0]) as reader:
            if profiles and reader.meta["workload"] == workload:
                profiles = profiles[:-1]
        return profiles, full

    monkeypatch.setattr(ShardedReplay, "run", run)


def tiny_machine(num_sockets: int = 1, cores_per_socket: int = 4) -> MachineConfig:
    """A very small machine: 4 cores/socket, tiny caches, fast to simulate."""
    return MachineConfig(
        name=f"tiny-{num_sockets}x{cores_per_socket}",
        num_sockets=num_sockets,
        cores_per_socket=cores_per_socket,
        core=CoreConfig(),
        l1i=CacheConfig(4 * 256, 4, 4),      # 16 lines
        l1d=CacheConfig(8 * 256, 8, 4),      # 32 lines
        l2=CacheConfig(8 * 1024, 8, 8),      # 128 lines
        l3=CacheConfig(32 * 1024, 16, 30),   # 512 lines
    )


@pytest.fixture
def machine4() -> MachineConfig:
    """Single-socket 4-core tiny machine."""
    return tiny_machine()


@pytest.fixture
def machine8_2s() -> MachineConfig:
    """Two-socket, 8-core tiny machine (exercises coherence across sockets)."""
    return tiny_machine(num_sockets=2, cores_per_socket=4)


@pytest.fixture
def small_ft():
    """npb-ft at 4 threads, small scale."""
    return get_workload("npb-ft", 4, scale=0.1)


@pytest.fixture
def small_cg():
    """npb-cg at 4 threads, small scale."""
    return get_workload("npb-cg", 4, scale=0.1)


@pytest.fixture
def small_is():
    """npb-is at 4 threads, small scale (few regions: fastest suite member)."""
    return get_workload("npb-is", 4, scale=0.2)
