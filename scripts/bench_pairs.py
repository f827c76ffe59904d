#!/usr/bin/env python3
"""Alternating parent/change pairs of the corrsched benchmark, for one or more workloads.

    python3 scripts/bench_pairs.py --base REV --workload NAME [NAME ...] --pairs 10 --seed 801

The change is this checkout's working tree; the parent is commit REV, written
with ``git archive`` into a temporary directory that is removed afterwards.
The workloads run one after another, each with all its pairs.  Pair j runs
``perfbench/run.py --trace 0`` once on each side with seed + j, the parent
first when j is even and the change first when j is odd.  Every run's
iteration count and metrics are printed as it ends; after a workload's last
pair comes its summary block: the median [quartiles] of both sides'
iteration counts and, for each end-to-end metric, of its values, the number
of pairs in which the change read lower, and whether a gain in it may be
claimed.  The claim rule: at least MIN_PAIRS
pairs, the change lower in at least nine tenths of them (ties count for
neither side), and the parent's median above the change's by more than the
parent's interquartile range.  Printing the iteration counts shows when a
metric such as ``setup_s`` moved with the number of iterations that fit into
a run.  The exit code is 1 when any run of any workload failed a check.

Only one copy runs at a time on a host: the script holds an exclusive
``fcntl`` lock on a file in the temporary directory, because two copies
running together measure each other.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LOCK = Path(tempfile.gettempdir()) / "corrsched-bench-pairs.lock"
ITERATIONS = re.compile(r"^untraced: iterations=(\d+)", re.MULTILINE)
MIN_PAIRS = 10


def export(rev: str, dest: Path) -> None:
    """Write the files of commit rev into dest."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float
) -> tuple[bool, dict, int | None]:
    """One untraced benchmark run: (every check passed, {metric: value}, iterations run)."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    found = ITERATIONS.search(proc.stdout)
    iterations = int(found.group(1)) if found else None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return False, {}, iterations
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return proc.returncode == 0 and bool(result.get("correct")), metrics, iterations


def summarize(parent: list[dict], change: list[dict]) -> list[tuple]:
    """Per metric over complete pairs: (name, parent and change quartiles, change wins, pairs)."""
    pairs = [(p, c) for p, c in zip(parent, change) if p and c]
    rows = []
    for name in pairs[0][0] if pairs else ():
        a = np.array([p[name] for p, _ in pairs])
        b = np.array([c[name] for _, c in pairs])
        rows.append((
            name,
            np.percentile(a, [25, 50, 75]),
            np.percentile(b, [25, 50, 75]),
            int(np.sum(b < a)),
            len(pairs),
        ))
    return rows


def claim_rule_met(parent_q, change_q, wins: int, pairs: int) -> bool:
    """Whether the change may claim a lower metric, from quartiles (25, 50, 75) of both sides."""
    spread = parent_q[2] - parent_q[0]
    return bool(pairs >= MIN_PAIRS and 10 * wins >= 9 * pairs and parent_q[1] - change_q[1] > spread)


def median_quartiles(q) -> str:
    """Quartiles (25, 50, 75) as 'median [lower, upper]'."""
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def run_pairs(workload: str, base: str, checkouts: dict[str, Path], args) -> int:
    """Run one workload's pairs and print its summary block; returns how many runs failed."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    iterations: dict[str, list[int]] = {"parent": [], "change": []}
    failed = 0
    for j in range(args.pairs):
        seed = args.seed + j
        for side in ("parent", "change") if j % 2 == 0 else ("change", "parent"):
            ok, metrics, count = run_once(checkouts[side], workload, seed, args.seconds)
            failed += not ok
            runs[side].append(metrics)
            if count is not None:
                iterations[side].append(count)
            values = " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
            print(f"pair {j} seed {seed} {side}: {'ok' if ok else 'FAILED'} "
                  f"iterations={count} {values}", flush=True)

    print(f"{workload}: parent {base} -> working tree, median [quartiles]")
    counts = [
        median_quartiles(np.percentile(iterations[side], [25, 50, 75])) if iterations[side] else "none"
        for side in ("parent", "change")
    ]
    print(f"  iterations: {counts[0]} -> {counts[1]}")
    for name, a, b, wins, n in summarize(runs["parent"], runs["change"]):
        verdict = "met" if claim_rule_met(a, b, wins, n) else "not met"
        print(f"  {name}: {median_quartiles(a)} -> {median_quartiles(b)}; "
              f"change lower in {wins}/{n} pairs; "
              f"median gap {a[1] - b[1]:.6g} vs parent IQR {a[2] - a[0]:.6g}; claim rule {verdict}",
              flush=True)
    if failed:
        print(f"{workload}: {failed} run(s) failed a check", file=sys.stderr)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--workload", required=True, nargs="+", help="one or more workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    with open(LOCK, "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"error: another bench_pairs run holds {LOCK}", file=sys.stderr)
            return 2
        failed = 0
        with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
            export(args.base, Path(parent_dir))
            checkouts = {"parent": Path(parent_dir), "change": ROOT}
            for workload in args.workload:
                failed += run_pairs(workload, args.base, checkouts, args)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
