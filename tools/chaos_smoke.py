#!/usr/bin/env python3
"""Kill-and-resume chaos smoke: SIGKILL a battery run, resume, compare.

The CI chaos job's second leg (the first is the deterministic
fault-matrix battery in ``tests/test_faults.py``):

1. run the ``--quick`` battery serially into a baseline store and keep
   its figure output;
2. start the same battery in a fresh store with a worker pool, wait
   until the checkpoint journal has recorded at least one completed
   pass, then ``SIGKILL`` the whole process group — no cleanup handlers
   run, exactly like an OOM kill or a pulled plug;
3. rerun with ``--resume`` and assert (a) it exits 0, (b) its figure
   output is byte-identical to the baseline, and (c) the run report
   shows at least one pass was resumed from the checkpoint rather than
   recomputed.

Usage::

    python tools/chaos_smoke.py [--workdir DIR] [--timeout SECONDS]

Exits non-zero with a diagnostic on any failed assertion.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The battery configuration under test: quick scale, two workers (so
#: passes land in the journal one at a time), and two figures whose tasks
#: carry k sweeps and MRU/cold warmup evaluations besides the stored
#: profiles and full runs.
FIGURES = ("table3", "fig7")
BATTERY = ["--quick", "--only", ",".join(FIGURES), "--workers", "2"]


def _env(store: pathlib.Path) -> dict:
    """Subprocess environment pointed at ``store``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_STORE_DIR"] = str(store)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_SEED", None)
    return env


def _run(args: list[str], store: pathlib.Path) -> subprocess.CompletedProcess:
    """Run one ``repro`` command to completion, capturing output."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(store), cwd=REPO_ROOT, text=True, capture_output=True,
    )


def _fail(message: str) -> int:
    """Print a diagnostic and return the failure exit code."""
    print(f"chaos_smoke: FAIL: {message}", file=sys.stderr)
    return 1


def _journal_lines(store: pathlib.Path) -> int:
    """Completed passes currently recorded in the store's journal."""
    journal_dir = store / "journal"
    if not journal_dir.is_dir():
        return 0
    return sum(
        len(path.read_text().splitlines())
        for path in journal_dir.glob("*.jsonl")
    )


def _figures(args: list[str], store: pathlib.Path, out: pathlib.Path):
    """Run ``repro figures`` into ``out`` (returns the process result)."""
    return _run(["figures", *args, "--out", str(out)], store)


def _outputs(out: pathlib.Path) -> list[str]:
    """The rendered text of every figure under test, in order."""
    return [(out / f"{name}.txt").read_text() for name in FIGURES]


def kill_and_resume(workdir: pathlib.Path, timeout: float) -> int:
    """Run the three-step smoke; return a process exit code."""
    baseline_store = workdir / "baseline-store"
    baseline_out = workdir / "baseline-out"
    victim_store = workdir / "victim-store"
    victim_out = workdir / "victim-out"

    print("chaos_smoke: [1/3] baseline battery ...")
    result = _figures(BATTERY, baseline_store, baseline_out)
    if result.returncode != 0:
        return _fail(f"baseline run failed:\n{result.stderr}")
    baseline_text = _outputs(baseline_out)

    print("chaos_smoke: [2/3] SIGKILL mid-run ...")
    # start_new_session puts the run (and its pool workers) in a fresh
    # process group so one kill() takes down everything, uncleanly.
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro", "figures", *BATTERY,
         "--out", str(victim_out)],
        env=_env(victim_store), cwd=REPO_ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + timeout
    try:
        while _journal_lines(victim_store) < 1:
            if victim.poll() is not None:
                return _fail(
                    "victim run finished before the kill landed; "
                    "nothing was interrupted"
                )
            if time.monotonic() > deadline:
                return _fail("timed out waiting for a journaled pass")
            time.sleep(0.05)
    finally:
        if victim.poll() is None:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait()
    journaled = _journal_lines(victim_store)
    print(f"chaos_smoke: killed after {journaled} journaled pass(es)")

    print("chaos_smoke: [3/3] resume ...")
    result = _figures([*BATTERY, "--resume"], victim_store, victim_out)
    if result.returncode != 0:
        return _fail(f"--resume rerun failed:\n{result.stderr}")
    resumed_text = _outputs(victim_out)
    if resumed_text != baseline_text:
        return _fail("resumed output differs from the uninterrupted baseline")
    report = result.stdout
    if "run report:" not in report or "0 resumed" in report:
        return _fail(
            "resume recomputed every pass instead of trusting the "
            f"checkpoint journal; stdout was:\n{report}"
        )
    print("chaos_smoke: OK — resumed output is byte-identical to baseline")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir", type=pathlib.Path, default=None,
        help="scratch directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait for the victim to journal a pass",
    )
    args = parser.parse_args(argv)
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        return kill_and_resume(args.workdir, args.timeout)
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        return kill_and_resume(pathlib.Path(tmp), args.timeout)


if __name__ == "__main__":
    sys.exit(main())
