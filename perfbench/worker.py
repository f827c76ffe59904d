"""Run one workload in this process and print its result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]

Started by run.py in a fresh process per workload, with the BLAS thread cap
already in the environment.  Iterations repeat until the next one would end
past --seconds (at least MIN_ITERATIONS run).  Untraced, it reports set-up
and wall times; traced, it wraps corrsched's layers in span recorders,
reports per-layer times and counts, and writes the spans to --spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import corrsched  # noqa: E402  (from SRC, checked in main)
import spans as spanlib  # noqa: E402
from run import BLAS_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITERATIONS = 3
# Extra set-ups before the loop, timed into setup_s with their inputs
# discarded: up to SETUP_SAMPLES of them within SETUP_WARMUP_S, so that a
# set-up of well under a millisecond still gets a steady median.
SETUP_SAMPLES = 20
SETUP_WARMUP_S = 1.0
WARMUP_ITERATION = 2**32  # iteration numbers of the extra set-ups, apart from the timed ones


def tail_percentile(values) -> float:
    """p95, or the highest percentile with ten samples beyond it when there are fewer.

    Below 20 samples no percentile above the median has ten beyond it, so
    the median is returned.
    """
    q = min(0.95, 1.0 - 10.0 / len(values)) if len(values) >= 20 else 0.5
    return float(np.quantile(values, q))


def layer_metrics(recorder, iteration_of_root: dict[int, int]):
    """Per-iteration sums over the layer spans; returns {iteration: {key: value}}.

    Keys are ``<span name>:dur``, ``:self`` and ``:calls`` (seconds, seconds,
    count) plus one key per recorded count.  Top-level spans (set-up and the
    timed calls of an iteration) only assign their children to iterations.
    """
    start, end, parent = recorder.arrays()
    selfs = spanlib.self_times(start, end, parent)
    iteration = np.array([iteration_of_root[r] for r in spanlib.root_of(parent).tolist()], dtype=np.int64)
    names = sorted(set(recorder.names))
    lookup = {n: i for i, n in enumerate(names)}
    ids = np.fromiter((lookup[n] for n in recorder.names), dtype=np.int64, count=len(recorder))
    layer = parent >= 0
    n_it = int(iteration.max()) + 1 if len(iteration) else 0
    key = ids[layer] * n_it + iteration[layer]
    size = len(names) * n_it
    dur = np.bincount(key, weights=(end - start)[layer], minlength=size) * 1e-9
    own = np.bincount(key, weights=selfs[layer], minlength=size) * 1e-9
    calls = np.bincount(key, minlength=size)
    acc = defaultdict(lambda: defaultdict(float))
    for k in np.flatnonzero(calls):
        it = acc[int(k % n_it)]
        name = names[k // n_it]
        it[name + ":dur"] = float(dur[k])
        it[name + ":self"] = float(own[k])
        it[name + ":calls"] = int(calls[k])
    for idx, counts in recorder.counts.items():
        it = acc[int(iteration[idx])]
        name = recorder.names[idx]
        for ckey, value in counts.items():
            if ckey == "support":
                it[name + ":support_max"] = max(it[name + ":support_max"], value)
            else:
                it[name + ":" + ckey] += value
    return acc


def per_layer(acc) -> dict[str, float]:
    """Layer metrics: medians over iterations for times, first iteration for counts."""
    iterations = sorted(acc)

    def med(key):
        return statistics.median(acc[i].get(key, 0.0) for i in iterations)

    def first(key):
        return acc[iterations[0]].get(key, 0.0)

    slots = first("simulator.episode:slots")
    episode_self = med("simulator.episode:self")
    return {
        "simulator.episode_self_s": episode_self,
        "simulator.episode_self_ns_per_slot": episode_self / slots * 1e9 if slots else 0.0,
        "simulator.run_slots": slots,
        "simulator.ensemble_self_s": med("simulator.ensemble:self"),
        "online.estimator_push_s": med("online.estimator_push:dur"),
        "online.estimator_push_calls": first("online.estimator_push:calls"),
        "problem.sample_events_s": med("problem.sample_events:dur"),
        "problem.penalty_tables_s": med("problem.penalty_tables:dur"),
        "problem.validate_s": med("problem.validate:dur"),
        "strategy.enumerate_s": med("strategy.enumerate:dur"),
        "strategy.strategies": first("strategy.enumerate:strategies"),
        "strategy.prune_check_s": med("strategy.prune_check:dur"),
        "strategy.event_penalties_s": med("strategy.event_penalties:dur"),
        "strategy.event_penalties_bytes": first("strategy.event_penalties:bytes"),
        "strategy.r_matrix_s": med("strategy.r_matrix:dur"),
        "simplex.solve_lp_s": med("simplex.solve_lp:dur"),
        "simplex.solve_lp_calls": first("simplex.solve_lp:calls"),
        "simplex.tableau_bytes": first("simplex.solve_lp:tableau_bytes"),
        "optimizer.distributed_self_s": med("optimizer.distributed:self"),
        "optimizer.centralized_s": med("optimizer.centralized:dur"),
        "optimizer.support_max": first("optimizer.distributed:support_max"),
        "analysis.compare_self_s": med("analysis.compare:self"),
        "analysis.compare_calls": first("analysis.compare:calls"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    if SRC.resolve() not in Path(corrsched.__file__).resolve().parents:
        print(f"error: corrsched imported from {corrsched.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    recorder = spanlib.SpanRecorder()
    if args.trace:
        spanlib.instrument(recorder)

    setup_s, wall_s, instance_s = [], [], []
    attempted = failed = 0
    iteration_of_root = {}
    units = None

    warmup_end = time.perf_counter() + SETUP_WARMUP_S
    while len(setup_s) < SETUP_SAMPLES and (not setup_s or time.perf_counter() < warmup_end):
        t0 = time.perf_counter()
        workload.setup(args.seed, WARMUP_ITERATION + len(setup_s))
        setup_s.append(time.perf_counter() - t0)

    begin = time.perf_counter()
    iteration = 0
    while True:
        recorder.active = bool(args.trace)
        root = recorder.open("setup") if args.trace else None
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, iteration)
        t1 = time.perf_counter()
        if args.trace:
            recorder.close(root)
            iteration_of_root[root] = iteration
            root = recorder.open("op")
        error = None
        t2 = time.perf_counter()
        try:
            output = workload.run(inputs)
        except Exception as exc:  # reported as failed operations, the loop goes on
            output, error = None, exc
        t3 = time.perf_counter()
        if args.trace:
            recorder.close(root)
            iteration_of_root[root] = iteration
        recorder.active = False

        setup_s.append(t1 - t0)
        wall_s.append(t3 - t2)
        if units is None:
            units = workload.units(inputs)
        n_ops = workload.operations(inputs)
        if error is None:
            instance_s += workload.instance_times(output, t3 - t2)
            n_failed, messages = workload.check(inputs, output)
        else:
            n_failed, messages = n_ops, ["".join(traceback.format_exception(error))]
        attempted += n_ops
        failed += n_failed
        for message in messages:
            print(f"[{args.workload}] check failed: {message}", file=sys.stderr)
        del inputs, output

        iteration += 1
        elapsed = time.perf_counter() - begin
        if iteration >= MIN_ITERATIONS and elapsed + statistics.median(wall_s) > args.seconds:
            break

    result = {
        "workload": args.workload,
        "iterations": iteration,
        "attempted": attempted,
        "failed": failed,
        "units_per_iteration": units,
        "unit": workload.unit,
        "instances": len(instance_s),
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(wall_s),
        "instance_ms_p50": 1e3 * float(np.median(instance_s)) if instance_s else None,
        "instance_ms_p95": 1e3 * tail_percentile(instance_s) if instance_s else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }

    if args.trace:
        start, end, parent = recorder.arrays()
        nesting_ok = spanlib.children_within_parent(
            start, end, parent, spanlib.self_times(start, end, parent)
        )
        attempted += 1
        if not nesting_ok:
            failed += 1
            print(f"[{args.workload}] child self times exceed a parent span", file=sys.stderr)
        result["layers"] = per_layer(layer_metrics(recorder, iteration_of_root))
        result["layers"]["simulator.peak_bytes_per_slot"] = peak_bytes_per_slot(workload, args.seed)
        result["spans"] = len(recorder)
        result["attempted"], result["failed"] = attempted, failed
        if args.spans is not None:
            write_spans(args.spans, recorder, result)

    print(json.dumps(result))
    return 0


def peak_bytes_per_slot(workload, seed: int) -> float:
    """tracemalloc peak of one untraced iteration of an online workload ÷ its run-slots."""
    if workload.unit != "run-slot":
        return 0.0
    import tracemalloc

    config = workload.setup(seed, 0)
    tracemalloc.start()
    try:
        workload.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / workload.units(config)


def write_spans(path: Path, recorder, result) -> None:
    """Save every span as arrays in a compressed .npz, with the run's metadata as JSON."""
    names = sorted(set(recorder.names))
    lookup = {name: i for i, name in enumerate(names)}
    start, end, parent = recorder.arrays()
    meta = {
        "workload": result["workload"],
        "blas_threads": result["blas_threads"],
        "names": names,
        "counts": {str(idx): counts for idx, counts in recorder.counts.items()},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        name=np.fromiter((lookup[n] for n in recorder.names), dtype=np.int32, count=len(recorder)),
        start_ns=start,
        end_ns=end,
        parent=parent,
        meta=np.array(json.dumps(meta)),
    )


if __name__ == "__main__":
    sys.exit(main())
