#!/usr/bin/env python3
"""One digest line per LP corrsched solves over a fixed corpus, for bit-identity checks.

    PYTHONPATH=src python3 scripts/lp_digests.py > digests.txt

Every ``solve_lp`` call prints the corpus entry that made it and the first
16 hex digits of the SHA-256 of its answer: status, x, objective, slack_ub,
duals and pivots.  Run it in two checkouts on one host and ``diff`` the
outputs; equal lines mean bit-identical answers.  An LP of at most
``simplex.SCALAR_ENTRIES`` coefficients is solved on Python floats, so its
line depends on the LP's input values alone: beyond its inputs (``r`` is a
numpy product), it does not depend on the BLAS kernel.  The answers of
larger LPs do, so outputs from different hosts need not agree.  An entry
that ends in ``Infeasible`` or ``CapExceeded`` prints a line naming it.

The corpus, in order:

- each bundled fixture's correlated, centralized (within its cap) and
  ``epsilon_max`` LPs, then the LPs ``compare_policies`` solves on a fresh
  copy of the spec;
- iterations 0-19 of the ``offline-many-small`` workload and 0-1 of
  ``offline-lp-531k`` at seed 11, built and run by perfbench/workloads.py;
- the correlated, centralized and ``epsilon_max`` LPs of
  ``specgen.random_spec`` seeds 1000-1299 (tests/specgen.py).

``solve_lp`` is wrapped where ``corrsched.optimizer`` and
``corrsched.analysis`` look it up, as perfbench/spans.py does.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

import corrsched as cs
from corrsched import analysis, fixtures, optimizer
from corrsched.problem import CapExceeded
from corrsched.simplex import Infeasible

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = {
    "two_sensor": fixtures.two_sensor_spec,
    "three_sensor": fixtures.three_sensor_spec,
    "counterexample": fixtures.counterexample_spec,
}
WORKLOAD_SEED = 11
SPECGEN_SEEDS = range(1000, 1300)


def digest(sol) -> str:
    """SHA-256 prefix of an LpSolution's status, x, objective, slack_ub, duals and pivots."""
    h = hashlib.sha256(sol.status.value.encode())
    for value in (sol.x, sol.objective, sol.slack_ub, sol.duals_ub, sol.duals_eq, sol.pivots):
        h.update(b"-" if value is None else np.asarray(value).tobytes())
    return h.hexdigest()[:16]


class Digests:
    """Wraps solve_lp at its lookup sites; each call writes "<entry> <digest>" to out."""

    def __init__(self, out=sys.stdout):
        self.out, self.entry = out, ""

    def __enter__(self):
        self.saved = [(module, module.solve_lp) for module in (optimizer, analysis)]
        for module, solve in self.saved:
            setattr(module, "solve_lp", self.wrap(solve))
        return self

    def __exit__(self, *exc):
        for module, solve in self.saved:
            setattr(module, "solve_lp", solve)

    def wrap(self, solve):
        def solve_lp(problem):
            sol = solve(problem)
            print(self.entry, digest(sol), file=self.out)
            return sol

        return solve_lp

    def run(self, entry: str, fn, *args) -> None:
        """Call fn(*args) as entry; an Infeasible or CapExceeded answer gets a line of its own."""
        self.entry = entry
        try:
            fn(*args)
        except (Infeasible, CapExceeded) as exc:
            print(entry, type(exc).__name__, file=self.out)


def model_lps(digests: Digests, entry: str, spec: cs.ProblemSpec) -> None:
    """The correlated, centralized and epsilon_max LPs of spec's offline model."""
    model = optimizer.offline_model(spec)
    digests.run(f"{entry} correlated", lambda: model.correlated)
    digests.run(f"{entry} centralized", lambda: model.centralized)
    if spec.n_constraints:
        digests.run(f"{entry} epsilon_max", lambda: model.eps_max)


def fixture_part(digests: Digests) -> None:
    for name, build in FIXTURES.items():
        model_lps(digests, f"fixture {name}", build())
        digests.run(f"fixture {name} compare_policies", cs.compare_policies, build())


def perfbench_workloads():
    """perfbench/workloads.py as a module, imported without writing bytecode there."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = saved
    return workloads


def workload_part(digests: Digests) -> None:
    workloads = perfbench_workloads()
    for workload, iterations in ((workloads.OfflineManySmall(), 20), (workloads.OfflineLp531k(), 2)):
        for i in range(iterations):
            inputs = workload.setup(WORKLOAD_SEED, i)
            digests.run(f"{workload.name} {i}", workload.run, inputs)


def specgen_part(digests: Digests) -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    from specgen import random_spec

    for seed in SPECGEN_SEEDS:
        model_lps(digests, f"specgen {seed}", random_spec(np.random.default_rng(seed)))


def main() -> int:
    with Digests() as digests:
        fixture_part(digests)
        workload_part(digests)
        specgen_part(digests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
