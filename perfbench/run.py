"""corrsched benchmark: one workload per call, each in its own fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; corrsched is imported from its ``src``.
BLAS threads are capped at the number of usable CPUs (``nproc``) for the
worker processes, and the cap is printed.  With ``--trace 0`` one untraced
worker measures the end-to-end metrics for S seconds.  With ``--trace 1`` an
untraced and a traced worker run S/2 seconds each, the traced one records
per-layer spans (written to ``.perfbench/``), and the per-layer metrics are
reported.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 170.0  # the whole call, both workers included


def blas_env() -> tuple[dict, int]:
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(threads)
    return env, threads


def run_worker(args, seconds: float, trace: bool, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", "1" if trace else "0",
    ]
    if trace:
        cmd += ["--spans", str(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.npz")]
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    # workload and metric names and units come from BENCHMARK.json
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="corrsched benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "corrsched" / "__init__.py").is_file():
        print(f"error: no corrsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env, threads = blas_env()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={threads} ({', '.join(BLAS_VARS)})")
    try:
        if args.trace:
            base = run_worker(args, args.seconds / 2, False, env, deadline)
            traced = run_worker(args, args.seconds / 2, True, env, deadline)
            results = [base, traced]
            layers = dict(traced["layers"])
            layers["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
            layers["traced_peak_mb"] = traced["peak_rss_mb"]
        else:
            results = [run_worker(args, args.seconds, False, env, deadline)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        print(f"{'traced' if 'layers' in r else 'untraced'}: iterations={r['iterations']} "
              f"operations={r['attempted']} failed={r['failed']} "
              f"units/iteration={r['units_per_iteration']} ({r['unit']}) instances={r['instances']}")
    if args.trace:
        layers["error_rate"] = failed / attempted
        values, listed = layers, config["per_layer"]
    else:
        values, listed = dict(results[0]), config["end_to_end"]
        values["unit_ns"] = values["wall_s"] / values["units_per_iteration"] * 1e9
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
