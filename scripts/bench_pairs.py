#!/usr/bin/env python3
"""Alternating parent/change pairs of the corrsched benchmark, one workload.

    python3 scripts/bench_pairs.py --base REV --workload NAME --pairs 10 --seed 801

The change is this checkout's working tree; the parent is commit REV, written
with ``git archive`` into a temporary directory that is removed afterwards.
Pair j runs ``perfbench/run.py --trace 0`` once on each side with seed + j,
the parent first when j is even and the change first when j is odd.  Every
run's metrics are printed as it ends; then, for each end-to-end metric, the
median [quartiles] of both sides and the number of pairs in which the change
read lower.  The exit code is 1 when any run failed a check.

Only one copy runs at a time on a host: the script holds an exclusive
``fcntl`` lock on a file in the temporary directory, because two copies
running together measure each other.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LOCK = Path(tempfile.gettempdir()) / "corrsched-bench-pairs.lock"


def export(rev: str, dest: Path) -> None:
    """Write the files of commit rev into dest."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[bool, dict]:
    """One untraced benchmark run: (every check passed, {metric: value})."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return False, {}
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return proc.returncode == 0 and bool(result.get("correct")), metrics


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--workload", required=True)
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
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        failed = 0
        with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
            export(args.base, Path(parent_dir))
            checkouts = {"parent": Path(parent_dir), "change": ROOT}
            for j in range(args.pairs):
                seed = args.seed + j
                for side in ("parent", "change") if j % 2 == 0 else ("change", "parent"):
                    ok, metrics = run_once(checkouts[side], args.workload, seed, args.seconds)
                    failed += not ok
                    runs[side].append(metrics)
                    values = " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
                    print(f"pair {j} seed {seed} {side}: {'ok' if ok else 'FAILED'} {values}",
                          flush=True)

    print(f"{args.workload}: parent {args.base} -> working tree, median [quartiles]")
    for name, a, b, wins, n in summarize(runs["parent"], runs["change"]):
        print(f"  {name}: {a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}] -> "
              f"{b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]; change lower in {wins}/{n} pairs")
    if failed:
        print(f"{failed} run(s) failed a check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
