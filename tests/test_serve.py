"""Black-box battery for the ``repro serve`` experiment service.

Every test here drives a real server — booted in-process on an
ephemeral port and spoken to over HTTP with ``urllib`` (or, for the
signal test, a real subprocess killed with ``SIGTERM``) — and asserts
the service's externally visible contracts:

* artifacts fetched over HTTP are byte-identical to a direct
  :func:`~repro.experiments.common.compute_pair` run;
* N concurrent identical submissions coalesce to exactly one
  computation (proved by supervisor stats *and* the store's put
  counter);
* a drained server's journaled backlog completes bit-identically under
  ``--resume``;
* injected ``serve.request`` / ``runner.task`` faults surface as
  structured 5xx/failed-job responses, never hangs or torn bodies;
* malformed dynamic workload names are loud 400s with the CLI's
  message contract.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from tests.conftest import assert_bit_identical
from repro.errors import ConfigError
from repro.experiments.common import compute_pair, pair_key
from repro.faults import FaultPlan, install_plan, uninstall_plan
from repro.serve import JobSpec, JobSupervisor, ReproService
from repro.serve.supervisor import ServiceDrainingError
from repro.store import ArtifactStore, put_count

SCALE = 0.05
BENCH = "npb-is"
THREADS = 8

#: The battery's canonical cheap submission.
SPEC = {"kind": "profile", "workload": BENCH, "threads": THREADS,
        "scale": SCALE}

DEADLINE = 120.0


@pytest.fixture(autouse=True)
def _no_fault_plan():
    """Keep fault plans test-local (and out of the environment)."""
    uninstall_plan()
    yield
    uninstall_plan()


class Client:
    """Tiny urllib driver for one served endpoint."""

    def __init__(self, address: tuple[str, int]) -> None:
        host, port = address
        self.base = f"http://{host}:{port}"

    def get(self, path: str):
        """GET; returns ``(status, decoded JSON)``."""
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def get_bytes(self, path: str):
        """GET; returns ``(status, raw body bytes)``."""
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as r:
                return r.status, r.read()
        except urllib.error.HTTPError as e:
            return e.code, e.read()

    def post(self, path: str, payload) -> tuple[int, dict]:
        """POST JSON; returns ``(status, decoded JSON)``."""
        req = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode(),
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read())

    def wait(self, job_id: str, deadline: float = DEADLINE) -> dict:
        """Poll one job to a terminal state."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            status, record = self.get(f"/jobs/{job_id}")
            assert status == 200
            if record["state"] in ("done", "failed"):
                return record
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} not terminal within {deadline}s")


@pytest.fixture
def service(tmp_path):
    """One in-process server on an ephemeral port, torn down after."""
    svc = ReproService(
        port=0, workers=2, store=ArtifactStore(root=tmp_path / "served")
    )
    svc.start()
    yield svc, Client(svc.address)
    svc.stop()


def direct_payload_bytes(tmp_path, want_profiles=True) -> tuple[str, bytes]:
    """Compute the battery spec directly (no server); return (key, body).

    The reference leg of the byte-identity assertions: the exact
    validated payload bytes the serial CLI path persists.
    """
    root = tmp_path / "direct"
    kind = "profiles" if want_profiles else "full"
    compute_pair(BENCH, THREADS, SCALE, str(root), kinds=(kind,))
    store = ArtifactStore(root=root)
    key = pair_key(SCALE, BENCH, THREADS, None)
    body = store.payload_bytes(kind, key)
    assert body is not None
    return key, body


class TestServeLifecycle:
    def test_healthz_stats_and_unknowns(self, service):
        svc, client = service
        status, health = client.get("/healthz")
        assert status == 200
        assert health == {"status": "ok"}
        status, stats = client.get("/stats")
        assert status == 200
        assert stats["workers"] == 2 and not stats["draining"]
        assert "jit" not in stats
        assert client.get("/nope")[0] == 404
        assert client.get("/jobs/job-999")[0] == 404
        assert client.post("/nope", {})[0] == 404
        status, body = client.post("/jobs", None)
        assert status == 400 and "JSON object" in body["error"]

    def test_draining_rejects_submissions(self, service):
        svc, client = service
        svc.supervisor.begin_drain()
        status, body = client.post("/jobs", SPEC)
        assert status == 503
        assert "draining" in body["error"]
        assert client.get("/healthz")[1]["status"] == "draining"


class TestByteIdentity:
    def test_submit_poll_fetch_matches_direct_run(self, service, tmp_path):
        svc, client = service
        status, record = client.post("/jobs", SPEC)
        assert status == 202 and record["state"] in ("queued", "running")
        done = client.wait(record["id"])
        assert done["state"] == "done" and not done["coalesced"]
        [(kind, key)] = done["artifacts"]
        assert kind == "profiles"

        fetch_status, body = client.get_bytes(f"/artifacts/{kind}/{key}")
        assert fetch_status == 200

        direct_key, direct_body = direct_payload_bytes(tmp_path)
        assert key == direct_key  # same inputs -> same store key
        assert body == direct_body  # served payload bytes == CLI payload bytes
        (served,) = pickle.loads(body)
        (direct,) = pickle.loads(direct_body)
        assert_bit_identical(served, direct)

    def test_full_run_artifact_matches_direct_run(self, service, tmp_path):
        svc, client = service
        status, record = client.post("/jobs", dict(SPEC, kind="full"))
        done = client.wait(record["id"])
        assert done["state"] == "done"
        [(kind, key)] = done["artifacts"]
        assert kind == "full"
        _, body = client.get_bytes(f"/artifacts/{kind}/{key}")
        direct_key, direct_body = direct_payload_bytes(
            tmp_path, want_profiles=False
        )
        assert (key, body) == (direct_key, direct_body)


class TestCoalescing:
    def test_concurrent_identical_submissions_compute_once(self, tmp_path):
        # One worker + injected latency on the pass keeps the first
        # computation in flight while the other submissions arrive, so
        # every one of them must coalesce (not merely hit a warm store).
        install_plan(FaultPlan.parse(
            f"runner.task:latency:seconds=1.5,max_attempts=99,match={BENCH}"
        ), export=False)
        svc = ReproService(
            port=0, workers=1, store=ArtifactStore(root=tmp_path / "served")
        )
        svc.start()
        client = Client(svc.address)
        try:
            puts_before = put_count()
            results: list[tuple[int, dict]] = []
            lock = threading.Lock()

            def _submit():
                response = client.post("/jobs", SPEC)
                with lock:
                    results.append(response)

            threads = [
                threading.Thread(target=_submit) for _ in range(50)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len(results) == 50
            records = [client.wait(r["id"]) for _, r in results]
            # N submissions, N completions ...
            assert all(r["state"] == "done" for r in records)
            artifact_sets = {tuple(map(tuple, r["artifacts"]))
                             for r in records}
            assert len(artifact_sets) == 1  # every completion, same artifact
            # ... and exactly one computation, by both proofs:
            stats = client.get("/stats")[1]
            assert stats["jobs"]["submitted"] == 50
            assert stats["jobs"]["computations"] == 1
            assert stats["jobs"]["coalesced"] == 49
            assert stats["jobs"]["cache_hits"] == 0
            assert put_count() - puts_before == 1  # one store write
            assert stats["store"]["puts"] == 1
        finally:
            svc.stop()


class TestDrainAndResume:
    def test_resume_completes_journaled_backlog_bit_identically(
        self, tmp_path
    ):
        store_root = tmp_path / "served"
        # First life: accept submissions but never start the workers —
        # the journal now holds a queued backlog, exactly as if the
        # process died between accept and execution.
        first = JobSupervisor(store=ArtifactStore(root=store_root))
        queued = first.submit(JobSpec.from_dict(SPEC))
        also = first.submit(JobSpec.from_dict(SPEC))  # coalesces
        other = first.submit(
            JobSpec.from_dict(dict(SPEC, kind="full"))
        )
        assert queued.state == "queued" and also.coalesced
        del first

        # Second life: --resume restores and completes the backlog.
        revived = JobSupervisor(
            store=ArtifactStore(root=store_root), workers=2, resume=True
        )
        revived.start()
        assert revived.counters.resumed == 3
        end = time.monotonic() + DEADLINE
        while time.monotonic() < end:
            records = revived.jobs()
            assert {r.id for r in records} == {queued.id, also.id, other.id}
            if all(r.state in ("done", "failed") for r in records):
                break
            time.sleep(0.02)
        states = {r.id: r for r in revived.jobs()}
        assert all(r.state == "done" for r in states.values())
        assert all(r.resumed for r in states.values())
        revived.drain()

        # The recovered artifacts are bit-identical to a direct run.
        for want_profiles, record in (
            (True, states[queued.id]), (False, states[other.id]),
        ):
            [(kind, key)] = record.artifacts
            body = ArtifactStore(root=store_root).payload_bytes(kind, key)
            direct_key, direct_body = direct_payload_bytes(
                tmp_path, want_profiles=want_profiles
            )
            assert (key, body) == (direct_key, direct_body)

    def test_resume_trusts_only_store_for_lost_done_events(self, tmp_path):
        # A job whose artifacts landed but whose "done" journal event was
        # lost with the process resumes as an instant warm completion.
        store_root = tmp_path / "served"
        first = JobSupervisor(store=ArtifactStore(root=store_root))
        record = first.submit(JobSpec.from_dict(SPEC))
        compute_pair(BENCH, THREADS, SCALE, str(store_root),
                     kinds=("profiles",))
        revived = JobSupervisor(
            store=ArtifactStore(root=store_root), resume=True
        )
        revived.start()
        restored = revived.job(record.id)
        assert restored.state == "done" and restored.cached
        revived.drain()

    def test_sigterm_drains_gracefully_and_resume_finishes(self, tmp_path):
        store_root = tmp_path / "served"
        ready = tmp_path / "ready.json"
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(
            os.environ,
            PYTHONPATH=str(repo_root / "src"),
            REPRO_STORE_DIR=str(store_root),
            # Every pass sleeps, so the backlog outlives the SIGTERM.
            REPRO_FAULTS="runner.task:latency:seconds=2,max_attempts=99",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--quiet", "--ready-file", str(ready)],
            env=env, cwd=str(repo_root),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            end = time.monotonic() + 60
            while not ready.is_file() and time.monotonic() < end:
                assert proc.poll() is None, proc.stderr.read().decode()
                time.sleep(0.05)
            info = json.loads(ready.read_text())
            client = Client((info["host"], info["port"]))
            ids = []
            for scale in (SCALE, SCALE * 2):
                status, record = client.post(
                    "/jobs", dict(SPEC, scale=scale)
                )
                assert status == 202
                ids.append(record["id"])
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0  # graceful drain exits 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        journal = store_root / "serve" / "journal.jsonl"
        assert journal.is_file()
        revived = JobSupervisor(
            store=ArtifactStore(root=store_root), workers=2, resume=True
        )
        revived.start()
        end = time.monotonic() + DEADLINE
        while time.monotonic() < end:
            if all(r.state in ("done", "failed") for r in revived.jobs()):
                break
            time.sleep(0.05)
        states = {r.id: r.state for r in revived.jobs()}
        assert states == {job_id: "done" for job_id in ids}
        revived.drain()
        # The resumed half-scale artifact is bit-identical to direct.
        record = revived.job(ids[0])
        [(kind, key)] = record.artifacts
        body = ArtifactStore(root=store_root).payload_bytes(kind, key)
        direct_key, direct_body = direct_payload_bytes(tmp_path)
        assert (key, body) == (direct_key, direct_body)


class TestFaultSurface:
    def test_injected_request_fault_is_structured_5xx(self, service):
        svc, client = service
        install_plan(FaultPlan.parse(
            "serve.request:exception:match=GET /stats"
        ), export=False)
        status, body = client.get("/stats")
        assert status == 503
        assert "injected" in body["error"]
        # Unmatched routes are untouched, and the service stays alive.
        status, health = client.get("/healthz")
        assert (status, health["status"]) == (200, "ok")
        uninstall_plan()
        assert client.get("/stats")[0] == 200

    def test_injected_request_io_error_is_structured_5xx(self, service):
        svc, client = service
        install_plan(FaultPlan.parse(
            "serve.request:io_error:match=GET /jobs"
        ), export=False)
        status, body = client.get("/jobs")
        assert status == 503 and "injected" in body["error"]

    def test_transient_runner_fault_retries_to_success(self, service):
        svc, client = service
        # Default max_attempts=1: the first attempt faults, the retry
        # succeeds — the served job inherits the batch retry budget.
        install_plan(
            FaultPlan.parse(f"runner.task:exception:match={BENCH}"),
            export=False,
        )
        status, record = client.post("/jobs", SPEC)
        done = client.wait(record["id"])
        assert done["state"] == "done"
        assert done["attempts"] == 2
        assert any("injected" in e for e in done["errors"])

    def test_persistent_runner_fault_fails_structured(self, service):
        svc, client = service
        install_plan(FaultPlan.parse(
            f"runner.task:exception:max_attempts=99,match={BENCH}"
        ), export=False)
        status, record = client.post("/jobs", SPEC)
        failed = client.wait(record["id"])
        assert failed["state"] == "failed"
        assert "injected" in failed["error"]
        assert failed["artifacts"] == []
        # The predicted artifact was never written: fetch is a 404 miss.
        [(kind, key)] = JobSpec.from_dict(SPEC).artifacts()
        assert client.get(f"/artifacts/{kind}/{key}")[0] == 404

    def test_draining_submission_raises_for_library_callers(self, tmp_path):
        supervisor = JobSupervisor(store=ArtifactStore(root=tmp_path / "s"))
        supervisor.begin_drain()
        with pytest.raises(ServiceDrainingError):
            supervisor.submit(JobSpec.from_dict(SPEC))


class TestSubmissionSchema:
    def test_malformed_fuzz_name_is_a_loud_400(self, service):
        svc, client = service
        status, body = client.post(
            "/jobs", dict(SPEC, workload="fuzz-007")
        )
        assert status == 400
        assert "fuzz-7" in body["error"]  # points at the canonical name

    def test_pathless_trace_name_is_a_loud_400(self, service):
        svc, client = service
        status, body = client.post("/jobs", dict(SPEC, workload="trace:"))
        assert status == 400
        assert "trace:<path" in body["error"]

    def test_unknown_fields_and_kinds_are_loud_400s(self, service):
        svc, client = service
        assert client.post("/jobs", dict(SPEC, nope=1))[0] == 400
        assert client.post("/jobs", {"kind": "dance"})[0] == 400
        assert client.post("/jobs", {"kind": "figure"})[0] == 400
        assert client.post(
            "/jobs", {"kind": "figure", "figure": "fig1", "threads": 4}
        )[0] == 400
        status, body = client.post("/jobs", dict(SPEC, scale=-1))
        assert status == 400 and "scale" in body["error"]

    def test_dynamic_names_round_trip_the_json_schema(self, tmp_path):
        # The regression this PR fixes: fuzz-<seed> and trace:<path>
        # names must survive spec -> JSON -> spec bit-identically.
        for payload in (
            dict(SPEC, workload="fuzz-7"),
            dict(SPEC, workload=f"trace:{tmp_path}/t.rpt"),
            {"kind": "figure", "figure": "fig1", "scale": 0.25,
             "benchmarks": ["npb-is", "fuzz-3"]},
            {"kind": "sweep", "scale": 0.25,
             "machines": ["table1-8core"]},
        ):
            spec = JobSpec.from_dict(payload)
            again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert again == spec
            assert again.fingerprint() == spec.fingerprint()

    def test_non_canonical_names_rejected_in_benchmarks_too(self):
        with pytest.raises(Exception, match="fuzz-12"):
            JobSpec.from_dict({
                "kind": "figure", "figure": "fig1",
                "benchmarks": ["fuzz-012"],
            })


class TestArtifactFetch:
    def test_corrupt_artifact_is_a_structured_404_not_a_500(self, service):
        svc, client = service
        _, record = client.post("/jobs", SPEC)
        done = client.wait(record["id"])
        [(kind, key)] = done["artifacts"]
        path = svc.store.path_for(kind, key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # bit-flip mid-body
        path.write_bytes(bytes(blob))

        status, body = client.get(f"/artifacts/{kind}/{key}")
        assert status == 404  # miss semantics, not an internal error
        assert key in body["error"]
        assert not path.exists()  # corrupt artifact unlinked (heals)
        assert client.get(f"/artifacts/{kind}/{key}")[0] == 404

    def test_unknown_artifact_is_404(self, service):
        svc, client = service
        assert client.get("/artifacts/profiles/deadbeef")[0] == 404
