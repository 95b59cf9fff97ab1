"""Compare two checkouts with the same benchmark code: ``PARENT`` vs ``CHANGE``.

    python3 bench/compare.py PARENT CHANGE --pairs 10

For each workload it runs ``bench/run.py --root PARENT`` and ``--root
CHANGE`` alternately, ``--pairs`` times, reversing which side goes first on
every pair.  Every run lasts ``BENCHMARK.json``'s ``run_seconds``.  It
applies the rules of the benchmark (bench/README.md):

* a gain is claimed only when the change wins at least 9 of 10 pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* otherwise the change's median may be worse than the parent's by at most
  the metric's bound in ``BENCHMARK.json``; when the parent's own spread is
  wider than the bound the metric is ``unresolved``, unless every change
  run beats every parent run.

It prints one row per workload and whether the simulated outputs (the
output digests) are identical.  Exit status 1 means a regression, a failed
correctness gate or differing outputs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
from run import SPEC, quartiles  # noqa: E402


def one_run(root: pathlib.Path, workload: str, seed: int) -> dict:
    """One ``run.py`` run of ``root``: metrics, correctness and digest."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--root", str(root),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    digest = next((line.split()[-1] for line in lines
                   if line.startswith("bench: digest")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    return {
        "correct": result["correct"] and proc.returncode == 0,
        "values": {k: v["value"] for k, v in result["metrics"].items()},
        "digest": digest,
    }


def verdict(parent: list[float], change: list[float], bound: float,
            lower_is_better: bool) -> str:
    """The benchmark's rule for one (metric, workload) pair."""
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    better_by = sign * (p_med - c_med)
    if wins >= 0.9 * len(parent) and better_by > p_q3 - p_q1:
        return f"gain ({wins}/{len(parent)} wins)"
    if (p_q3 - p_q1) / p_med > bound:
        every = (max(change) < min(parent) if lower_is_better
                 else min(change) > max(parent))
        return ("better in every run" if every
                else "unresolved (parent spread > bound)")
    if -better_by / p_med > bound:
        return "REGRESSED"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    status = 0
    for workload in child.WORKLOADS:
        runs = {"parent": [], "change": []}
        for index in range(args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            for side, root in sides if index % 2 == 0 else sides[::-1]:
                runs[side].append(one_run(root.resolve(), workload,
                                          index + 1))
        cells = []
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            parent = [r["values"].get(name) for r in runs["parent"]]
            change = [r["values"].get(name) for r in runs["change"]]
            if None in parent or None in change:
                cells.append(f"{name}: missing")
                status = 1
                continue
            rule = verdict(parent, change, metric["bound"],
                           metric["better"] == "lower")
            status |= rule == "REGRESSED"
            cells.append(
                f"{name} {quartiles(parent)[1]:.4g} -> "
                f"{quartiles(change)[1]:.4g} {metric['unit']}: {rule}"
            )
        correct = all(r["correct"] for side in runs.values() for r in side)
        digests = {r["digest"] for side in runs.values() for r in side}
        identical = len(digests) == 1 and None not in digests
        status |= not (correct and identical)
        print(f"{workload}: " + "; ".join(cells)
              + f"; gates {'pass' if correct else 'FAIL'}"
              + f"; outputs {'identical' if identical else 'DIFFER'}",
              flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
