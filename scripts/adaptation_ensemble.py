#!/usr/bin/env python3
"""Ensemble response of the three-sensor controller to abrupt regime changes.

Switches the event distribution to an alternate regime on [4000, 8000) and
back, averages instantaneous utility/power/queue-norm over many independent
runs, and writes the per-slot means as CSV (plot externally).
"""

import argparse
import sys
import time

import corrsched as cs
from corrsched import fixtures
from corrsched.strategy import strategy_event_penalties


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--slots", type=int, default=12000)
    parser.add_argument("--switches", type=int, nargs=2, default=[4000, 8000])
    parser.add_argument("--v", type=float, default=50.0)
    parser.add_argument("--delay", type=int, default=10)
    parser.add_argument("--window", type=int, default=40)
    parser.add_argument("--seed", type=int, default=5000)
    parser.add_argument("--out", default="adaptation.csv")
    args = parser.parse_args(argv)

    spec = fixtures.three_sensor_spec()
    strategies = fixtures.three_sensor_strategies(spec)
    phases = fixtures.adaptation_phases(args.slots, tuple(args.switches))
    cfg = cs.SimConfig(
        spec=spec,
        dpp=cs.DppConfig(v=args.v, delay=args.delay, mode="approx", window=args.window),
        horizon=args.slots,
        seed=args.seed,
        strategies=strategies,
        phases=phases,
        runs=args.runs,
        event_penalties=strategy_event_penalties(spec, strategies),
    )
    t0 = time.time()
    ens = cs.run_ensemble(cfg)
    print(f"{ens.runs} runs x {args.slots} slots in {time.time() - t0:.1f}s")
    for label, lo, hi in (
        ("regime 1 (early)", 2000, args.switches[0]),
        ("regime 2", args.switches[0] + 2000, args.switches[1]),
        ("regime 1 (late)", args.switches[1] + 1000, args.slots),
    ):
        print(f"mean utility {label}: {ens.mean_u[lo:hi].mean():.6f}")
    cs.write_ensemble(ens, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
