"""Format pin of the shared JSONL journal.

The runner's checkpoint journal (``journal/<fingerprint>.jsonl``) and the
``repro serve`` job journal (``serve/journal.jsonl``) both write one
``json.dumps(entry, sort_keys=True)`` line per event through
:class:`repro.util.journal.Journal`.  A journal left behind by an earlier
build must still resume, so each case pins the exact bytes written and
resumes a literal journal of that format whose last line is torn.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ConfigError
from repro.experiments.common import RetryPolicy
from repro.experiments.journal import RunJournal
from repro.serve import supervisor
from repro.serve.jobs import JobSpec
from repro.serve.supervisor import JobSupervisor
from repro.store import ArtifactStore
from repro.util.journal import Journal

RUN_LINES = (
    '{"event": "pass", "key": "k1", "kinds": ["full", "profiles"], '
    '"machine": null, "name": "npb-is", "nt": 8}\n',
    '{"event": "pass", "key": "k2", "kinds": ["profiles"], '
    '"machine": "table1-8core-prefetch", "name": "npb-cg", "nt": 8}\n',
)


def _submit_line(job: int, workload: str) -> str:
    """The serve journal's ``submit`` line of one profile job."""
    return (
        f'{{"coalesced": false, "event": "submit", '
        f'"fingerprint": "fp-{workload}", "id": "job-{job}", '
        f'"spec": {{"kind": "profile", "scale": 0.1, "threads": 8, '
        f'"workload": "{workload}"}}}}\n'
    )


SERVE_LINES = (
    _submit_line(1, "npb-is"),
    '{"artifacts": [["profiles", "key-npb-is"]], "event": "done", '
    '"id": "job-1"}\n',
    _submit_line(2, "npb-cg"),
    '{"error": "gave up on profile:npb-cg/8t after 1 attempt(s) '
    '[ConfigError: no such pass]", "event": "failed", "id": "job-2"}\n',
    _submit_line(3, "npb-ft"),
    '{"artifacts": [["profiles", "key-npb-ft"]], "cached": true, '
    '"event": "done", "id": "job-3"}\n',
)


def write_run(store: ArtifactStore, monkeypatch) -> Journal:
    """Record two passes through the runner's checkpoint journal."""
    journal = RunJournal.for_runner(store, "fp")
    journal.record_pass("k1", "npb-is", 8, None, ("profiles", "full"))
    journal.record_pass(
        "k2", "npb-cg", 8, "table1-8core-prefetch", ("profiles",)
    )
    return journal


def resume_run(store: ArtifactStore) -> dict:
    """The completion map a resumed runner reads."""
    return RunJournal.for_runner(store, "fp").completed_passes()


def write_serve(store: ArtifactStore, monkeypatch) -> Journal:
    """Drive a supervisor through a done, a failed and a warm job.

    Fingerprints, artifact keys and the worker are stubbed so the
    journal's bytes do not depend on the code fingerprint.
    """

    def execute(spec_dict: dict, store_root: str | None) -> list:
        """Stub worker: fail npb-cg, succeed otherwise."""
        if spec_dict["workload"] == "npb-cg":
            raise ConfigError("no such pass")
        return [["profiles", f"key-{spec_dict['workload']}"]]

    monkeypatch.setattr(
        JobSpec, "fingerprint", lambda self: f"fp-{self.workload}"
    )
    monkeypatch.setattr(
        JobSpec, "artifacts",
        lambda self: (("profiles", f"key-{self.workload}"),),
    )
    monkeypatch.setattr(supervisor, "execute_job", execute)
    store.put("profiles", "key-npb-ft", "warm")
    service = JobSupervisor(store=store, retry=RetryPolicy(max_retries=0))
    service.start()
    try:
        for workload in ("npb-is", "npb-cg", "npb-ft"):
            record = service.submit(JobSpec.from_dict({
                "kind": "profile", "workload": workload,
                "threads": 8, "scale": 0.1,
            }))
            deadline = time.monotonic() + 30
            while service.job(record.id).state not in ("done", "failed"):
                assert time.monotonic() < deadline, "job never finished"
                time.sleep(0.01)
    finally:
        service.drain()
    return service.journal


def resume_serve(store: ArtifactStore) -> dict:
    """The job table a resumed supervisor restores."""
    service = JobSupervisor(store=store, resume=True)
    service.start()
    service.drain()
    return {
        record.id: (record.state, record.cached, record.artifacts,
                    record.error)
        for record in service.jobs()
    }


CASES = {
    "run": (
        write_run, "journal/fp.jsonl", RUN_LINES, resume_run,
        {"k1": {"full", "profiles"}, "k2": {"profiles"}},
    ),
    "serve": (
        write_serve, "serve/journal.jsonl", SERVE_LINES, resume_serve,
        {
            "job-1": ("done", False, (("profiles", "key-npb-is"),), None),
            "job-2": (
                "failed", False, (),
                "gave up on profile:npb-cg/8t after 1 attempt(s) "
                "[ConfigError: no such pass]",
            ),
            "job-3": ("done", True, (("profiles", "key-npb-ft"),), None),
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_journal_bytes_and_resume_are_pinned(case, tmp_path, monkeypatch):
    write, relpath, lines, resume, resumed = CASES[case]
    store = ArtifactStore(root=tmp_path / "new")
    journal = write(store, monkeypatch)
    assert journal.path == store.root / relpath
    assert journal.path.read_bytes() == "".join(lines).encode()
    monkeypatch.undo()

    old = ArtifactStore(root=tmp_path / "old")
    path = old.root / relpath
    path.parent.mkdir(parents=True)
    torn = lines[0][: len(lines[0]) // 2]
    path.write_text("".join(lines) + torn, encoding="utf-8")
    assert resume(old) == resumed

