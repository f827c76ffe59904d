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
iteration counts, each side's failed operations over its attempted ones
(summed from the runs' result lines, as the failure share a regression
check compares) and, for each end-to-end metric, of its values, the number
of pairs in which the change read lower, whether a gain in it may be
claimed (and if not, which conditions failed), and its no-regression
verdict.  The claim rule: at least MIN_PAIRS
pairs, the change lower in at least nine tenths of them (ties count for
neither side), and the parent's median above the change's by more than the
parent's interquartile range.  The no-regression verdict, for each metric
with a ``bound`` in the ``end_to_end`` entries of BENCHMARK.json:
"unresolved" when the parent's interquartile range exceeds bound times its
median, unless every change run read below every parent run; otherwise
"within bound" when the change's median is at most the parent's times
(1 + bound), and "worse past bound" when it is higher.  Printing the
iteration counts shows when a metric such as ``setup_s`` moved with the
number of iterations that fit into a run: when either side's median
iteration count reaches ``SETUP_SAMPLES`` of perfbench/worker.py, a note
under ``setup_s`` says that its median then comes mostly from per-iteration
set-ups, each of which follows an iteration's memory sweep.  The exit code
is 1 when any run of any workload failed a check.

Only one copy runs at a time on a host: the script holds an exclusive
``fcntl`` lock on a file in the temporary directory, because two copies
running together measure each other.
"""

from __future__ import annotations

import argparse
import ast
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
) -> tuple[bool, dict, int | None, tuple[int, int]]:
    """One untraced benchmark run: (every check passed, {metric: value}, iterations run,
    (failed, attempted) operations; (0, 0) when the run wrote no result line)."""
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
        return False, {}, iterations, (0, 0)
    metrics = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    operations = (int(result.get("failed", 0)), int(result.get("attempted", 0)))
    return proc.returncode == 0 and bool(result.get("correct")), metrics, iterations, operations


def setup_samples() -> int:
    """SETUP_SAMPLES of perfbench/worker.py: the warm set-ups a run times before its loop."""
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    for node in tree.body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if names == ["SETUP_SAMPLES"]:
            return int(ast.literal_eval(node.value))
    raise LookupError("perfbench/worker.py assigns no SETUP_SAMPLES")


def bounds() -> dict[str, float]:
    """Each end-to-end metric's regression bound, as a fraction, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: float(m["bound"]) for m in json.load(fh)["end_to_end"]}


def summarize(parent: list[dict], change: list[dict]) -> list[tuple]:
    """Per metric over complete pairs: (name, parent and change quartiles, change wins, pairs,
    whether every change run read below every parent run)."""
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
            bool(b.max() < a.min()),
        ))
    return rows


def claim_rule_failures(parent_q, change_q, wins: int, pairs: int) -> list[str]:
    """The conditions of the claim rule that a lower metric fails, from quartiles (25, 50, 75)
    of both sides; empty when the change may claim it."""
    spread, gap = parent_q[2] - parent_q[0], parent_q[1] - change_q[1]
    failures = []
    if pairs < MIN_PAIRS:
        failures.append(f"pairs {pairs} < {MIN_PAIRS}")
    if 10 * wins < 9 * pairs:
        failures.append(f"lower in {wins}/{pairs} < 9/10")
    if not gap > spread:
        failures.append(f"gap {gap:.6g} <= IQR {spread:.6g}")
    return failures


def regression_verdict(parent_q, change_q, bound: float, all_below: bool) -> str:
    """No-regression verdict on a lower-is-better metric, from quartiles (25, 50, 75) of both sides."""
    if parent_q[2] - parent_q[0] > bound * parent_q[1] and not all_below:
        return "unresolved"
    return "within bound" if change_q[1] <= parent_q[1] * (1 + bound) else "worse past bound"


def median_quartiles(q) -> str:
    """Quartiles (25, 50, 75) as 'median [lower, upper]'."""
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def failure_share(failed: int, attempted: int) -> str:
    """Failed operations over attempted ones as 'failed/attempted (share)'."""
    share = f"{failed / attempted:.3g}" if attempted else "n/a"
    return f"{failed}/{attempted} ({share})"


def run_pairs(workload: str, base: str, checkouts: dict[str, Path], args) -> int:
    """Run one workload's pairs and print its summary block; returns how many runs failed."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    iterations: dict[str, list[int]] = {"parent": [], "change": []}
    operations = {"parent": np.zeros(2, dtype=int), "change": np.zeros(2, dtype=int)}
    failed = 0
    for j in range(args.pairs):
        seed = args.seed + j
        for side in ("parent", "change") if j % 2 == 0 else ("change", "parent"):
            ok, metrics, count, ops = run_once(checkouts[side], workload, seed, args.seconds)
            failed += not ok
            operations[side] += ops
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
    print(f"  failed/attempted operations: {failure_share(*operations['parent'])} -> "
          f"{failure_share(*operations['change'])}")
    most = max((float(np.median(its)) for its in iterations.values() if its), default=0.0)
    samples = setup_samples()
    limits = bounds()
    for name, a, b, wins, n, all_below in summarize(runs["parent"], runs["change"]):
        failures = claim_rule_failures(a, b, wins, n)
        verdict = f"not met ({', '.join(failures)})" if failures else "met"
        regression = ""
        if name in limits:
            bound = limits[name]
            regression = f"; bound {bound:.0%}: {regression_verdict(a, b, bound, all_below)}"
        print(f"  {name}: {median_quartiles(a)} -> {median_quartiles(b)}; "
              f"change lower in {wins}/{n} pairs; "
              f"median gap {a[1] - b[1]:.6g} vs parent IQR {a[2] - a[0]:.6g}; claim rule {verdict}"
              f"{regression}", flush=True)
        if name == "setup_s" and most >= samples:
            print(f"    note: a median of {most:g} iterations is at least the {samples} warm set-ups "
                  f"timed before the loop, so setup_s comes mostly from per-iteration set-ups, "
                  f"which run after the iteration's memory sweep", flush=True)
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
