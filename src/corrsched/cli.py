"""Command-line front end: solve, simulate, analyze, compare, counterexample."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, fileio
from .online import MODES, DppConfig
from .optimizer import offline_model
from .problem import CapExceeded, validate_spec
from .simplex import Infeasible, IterationLimit
from .simulator import SimConfig, read_trace, run_ensemble, run_episode, write_ensemble, write_trace


def _load_checked_spec(path):
    spec = fileio.load_spec(path)
    report = validate_spec(spec)
    if not report.ok:
        raise ValueError("invalid spec: " + "; ".join(report.violations))
    return spec


def _cmd_solve(args) -> int:
    spec = _load_checked_spec(args.spec)
    model = offline_model(spec)
    policy = model.correlated
    fileio.save_policy(spec, policy, args.out)
    print(f"strategies considered: {len(model.strategies)}")
    print(f"utility: {policy.utility:.12g}")
    print(f"support size: {len(policy.support)}")
    for k, val in enumerate(policy.achieved_constraints):
        print(f"constraint {k + 1}: {val:.12g} <= {spec.constraints[k]:.12g}")
    print(f"policy written to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    if args.stride is None:
        args.stride = SimConfig.stride
    elif args.runs > 1:
        raise ValueError("--stride applies to a single run's trace, not to --runs > 1")
    spec = _load_checked_spec(args.spec)
    phases = fileio.load_phases(args.phases, spec) if args.phases else None
    dpp = DppConfig(v=args.v, delay=args.delay, mode=args.mode, window=args.window)
    config = SimConfig(
        spec=spec,
        dpp=dpp,
        horizon=args.slots,
        seed=args.seed,
        phases=phases,
        runs=args.runs,
        stride=args.stride,
    )
    run_config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    if args.runs > 1:
        ensemble = run_ensemble(config)
        mean_u = ensemble.mean_u.mean()
        out = {
            "config": run_config,
            "runs": ensemble.runs,
            "utility_grand_mean": float(mean_u),
            "per_run_utility": [m.utility for m in ensemble.per_run],
        }
        fileio.save_json(out, f"{args.out}.metrics")
        write_ensemble(ensemble, f"{args.out}.trace.csv")
        print(f"ensemble of {ensemble.runs} runs written to {args.out}.*")
        return 0
    metrics, trace = run_episode(config)
    fileio.save_metrics(metrics, f"{args.out}.metrics", config=run_config)
    write_trace(trace, f"{args.out}.trace.csv")
    print(f"utility: {metrics.utility:.6f}")
    print("pbar:", " ".join(f"{v:.6f}" for v in metrics.pbar))
    print(f"queue bound residual: {metrics.queue_bound_max_residual:.3e}")
    print(f"outputs written to {args.out}.metrics and {args.out}.trace.csv")
    return 0


def _cmd_analyze(args) -> int:
    spec = _load_checked_spec(args.spec)
    run_config = fileio.load_run_config(args.config)
    trace = read_trace(args.trace)
    trace.constraints = spec.constraints
    trace.delay = run_config["delay"]
    mode = run_config.get("mode", "exact")
    # metrics files of earlier versions echo a --window that an exact run ignored
    window = run_config.get("window") if mode == "approx" else None
    dpp = DppConfig(v=run_config["v"], delay=run_config["delay"], mode=mode, window=window)
    report = analysis.audit_bounds(trace, spec, offline_model(spec).strategies, dpp)
    print(f"optimal objective: {report.p0_opt:.12g} (utility {-report.p0_opt:.12g})")
    print(f"drift constant B: {report.b_const:.12g}")
    print(f"performance bound: {'ok' if report.perf_ok else 'VIOLATED'} "
          f"(worst margin {report.worst_perf_margin:.3e})")
    if not np.isnan(report.queue_bound_max_residual):
        print(f"queue bound residual: {report.queue_bound_max_residual:.3e} "
              f"({'ok' if report.queue_ok else 'VIOLATED'})")
    else:
        print("queue bound: trace is strided; rerun with --stride 1 to audit")
    return 0 if report.perf_ok else 1


def _cmd_counterexample(args) -> int:
    centralized, distributed = analysis.verify_counterexample()
    print(f"centralized utility: {centralized}")
    print(f"distributed utility: {distributed}")
    return 0


def _cmd_compare(args) -> int:
    spec = _load_checked_spec(args.spec)
    report = analysis.compare_policies(spec)
    print(f"independent best (probed): {report.independent_best:.6f}")
    print(f"correlated optimum:        {report.distributed_opt:.6f}")
    print(f"centralized optimum:       {report.centralized_opt:.6f}")
    print(f"gain from shared randomness: {report.correlation_gain:.6f}")
    print(f"cost of being distributed:   {report.centralized_gap:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="corrsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the optimal correlated policy")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="run the online controller")
    p.add_argument("--spec", required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--delay", type=int, default=0)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="exact")
    p.add_argument("--phases", default=None)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--stride", type=int, default=None,
                   help=f"record every N-th slot of a single run's trace (default {SimConfig.stride})")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="audit a trace against the bounds")
    p.add_argument("--trace", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("counterexample", help="centralized vs distributed gap demo")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("compare", help="independent vs correlated vs centralized")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_compare)
    return parser


# Failures caused by the input (files, specs, sizes, options), and an LP the
# simplex could not finish within its pivot limit: reported as one line and
# exit code 2, like argparse's own usage errors.
_INPUT_ERRORS = (ValueError, Infeasible, CapExceeded, OSError, IterationLimit)


def _error_line(exc: Exception) -> str:
    text = " ".join(str(exc).split())
    return f"{type(exc).__name__}: {text}" if text else type(exc).__name__


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        parser.exit(2, f"corrsched: error: {_error_line(exc)}\n")


if __name__ == "__main__":
    sys.exit(main())
