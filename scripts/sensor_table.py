#!/usr/bin/env python3
"""Long-run table for a bundled sensor instance: utility and powers vs V.

Runs the windowed drift-plus-penalty controller (delay 10, window 40 by
default) on the two-sensor fixture (4 monotone strategies) or the
three-sensor fixture (1000 pruned threshold strategies) for each V and
prints one row per run; optionally writes the rows as CSV.  The controller
uses windowed penalty estimates, so it never needs the event probabilities.
"""

import argparse
import csv
import sys
import time

import corrsched as cs
from corrsched import fixtures
from corrsched.strategy import strategy_event_penalties

# fixture: (spec builder, strategy builder, default V grid, default seed)
FIXTURES = {
    "two": (
        fixtures.two_sensor_spec, fixtures.two_sensor_strategies, [1, 5, 10, 25, 50, 100], 12345
    ),
    "three": (
        fixtures.three_sensor_spec, fixtures.three_sensor_strategies, [1, 10, 50, 100], 2024
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixture", choices=sorted(FIXTURES), default="two")
    parser.add_argument("--v-grid", type=float, nargs="+", default=None,
                        help="V values (default depends on the fixture)")
    parser.add_argument("--slots", type=int, default=10**6)
    parser.add_argument("--delay", type=int, default=10)
    parser.add_argument("--window", type=int, default=40)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of every run (default depends on the fixture)")
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args(argv)

    build_spec, build_strategies, v_grid, seed = FIXTURES[args.fixture]
    v_grid = args.v_grid if args.v_grid is not None else v_grid
    seed = args.seed if args.seed is not None else seed
    spec = build_spec()
    strategies = build_strategies(spec)
    print(f"strategies: {len(strategies)}")
    pen_cache = strategy_event_penalties(spec, strategies)
    policy = cs.solve_distributed_lp(spec, strategies)
    print(f"offline optimum: utility {policy.utility:.6f}")
    header = ["V", "utility"] + [f"pbar_{k + 1}" for k in range(spec.n_constraints)]
    print(" ".join(f"{h:>10}" for h in header) + f" {'secs':>6}")
    rows = []
    for v in v_grid:
        t0 = time.time()
        cfg = cs.SimConfig(
            spec=spec,
            dpp=cs.DppConfig(v=v, delay=args.delay, mode="approx", window=args.window),
            horizon=args.slots,
            seed=seed,
            strategies=strategies,
            stride=max(args.slots // 10000, 1),
            event_penalties=pen_cache,
        )
        metrics, _ = cs.run_episode(cfg)
        secs = time.time() - t0
        row = [v, metrics.utility, *metrics.pbar.tolist()]
        print(f"{v:>10g} " + " ".join(f"{x:>10.6f}" for x in row[1:]) + f" {secs:>6.1f}")
        rows.append(row)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
