"""The benchmark's workloads: seeded set-up, the timed calls, and their checks.

Every workload is a loop of iterations.  An iteration builds its inputs from
(seed, iteration) in ``setup`` (timed as set-up), makes the timed calls into
corrsched in ``run``, and is checked afterwards in ``check``, outside every
timed region.  Names are looked up on corrsched's modules at call time so the
span wrappers of a traced run see the benchmark's own calls too.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

import corrsched as cs
import corrsched.fixtures as fixtures
import corrsched.strategy as strategy_mod

import checks


def validated(spec: cs.ProblemSpec) -> cs.ProblemSpec:
    report = cs.validate_spec(spec)
    if not report.ok:
        raise ValueError(f"benchmark built an invalid spec: {report.violations}")
    return spec


def derive_seed(seed: int, iteration: int) -> int:
    """Seed of one iteration; the same (seed, iteration) gives the same inputs."""
    return int(np.random.SeedSequence([seed % 2**64, iteration]).generate_state(1)[0])


class Workload:
    name = ""
    unit = ""  # what one unit of work is, for unit_ns

    def setup(self, seed: int, iteration: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def operations(self, inputs) -> int:
        """Operations one iteration attempts (episodes, LP pipelines, instances)."""
        return 1

    def check(self, inputs, output) -> tuple[int, list[str]]:
        """(operations failed, failure messages)."""
        raise NotImplementedError

    def units(self, inputs) -> int:
        raise NotImplementedError

    def instance_times(self, output, wall: float) -> list[float]:
        """Per-instance seconds; one instance per iteration unless overridden."""
        return [wall]


class EpisodeApprox3Sensor(Workload):
    """Criterion 7's three-sensor config (1000 strategies, approx, V=50, D=10, W=40) at a shorter horizon."""

    name = "episode-approx-3sensor"
    unit = "run-slot"
    horizon = 20_000

    def setup(self, seed, iteration):
        spec = validated(fixtures.three_sensor_spec())
        strategies = fixtures.three_sensor_strategies(spec)
        return cs.SimConfig(
            spec=spec,
            dpp=cs.DppConfig(v=50.0, delay=10, mode="approx", window=40),
            horizon=self.horizon,
            seed=derive_seed(seed, iteration),
            strategies=strategies,
            stride=1000,
            event_penalties=strategy_mod.strategy_event_penalties(spec, strategies),
        )

    def run(self, config):
        return cs.run_episode(config)

    def check(self, config, output):
        metrics, _ = output
        fails = checks.queue_residual([metrics.queue_bound_max_residual])
        fails += checks.criterion7(metrics.utility, metrics.pbar, config.spec.constraints)
        return int(bool(fails)), fails

    def units(self, config):
        return config.horizon


class EnsembleExact2Sensor(Workload):
    """Criterion 10's two-sensor config (M=4, exact, V=100, D=0) with fewer runs and slots."""

    name = "ensemble-exact-2sensor"
    unit = "run-slot"
    runs = 10
    horizon = 10_000
    v = 100.0

    def setup(self, seed, iteration):
        spec = validated(fixtures.two_sensor_spec())
        strategies = fixtures.two_sensor_strategies(spec)
        return cs.SimConfig(
            spec=spec,
            dpp=cs.DppConfig(v=self.v, delay=0, mode="exact"),
            horizon=self.horizon,
            seed=derive_seed(seed, iteration),
            strategies=strategies,
            runs=self.runs,
            event_penalties=strategy_mod.strategy_event_penalties(spec, strategies),
        )

    def run(self, config):
        return cs.run_ensemble(config)

    def check(self, config, ensemble):
        spec, strategies = config.spec, config.strategies
        residuals = [m.queue_bound_max_residual for m in ensemble.per_run]
        bad_runs = sum(bool(checks.queue_residual([x])) for x in residuals)
        fails = checks.queue_residual(residuals)
        r = cs.r_matrix(spec, strategies, config.event_penalties)
        p0_opt = cs.solve_distributed_lp(spec, strategies, r=r).objective
        envelope = checks.mean_rate_envelope(
            [np.linalg.norm(m.final_queues) for m in ensemble.per_run],
            config.horizon,
            cs.compute_B(spec, strategies, config.event_penalties),
            cs.compute_F(spec, r, p0_opt),
            self.v,
        )
        fails += envelope
        # an envelope violation is a property of the whole ensemble: every run fails it
        return (len(residuals) if envelope else bad_runs), fails

    def operations(self, config):
        return config.runs

    def units(self, config):
        return config.runs * config.horizon


class OfflineLp531k(Workload):
    """2 users x 3 actions x 6 events, all 531,441 pure strategies, K=2 binding power budgets."""

    name = "offline-lp-531k"
    unit = "strategy"
    action_sizes = (3, 3)
    event_sizes = (6, 6)
    # the unconstrained optimum draws about one unit of power per user; a
    # budget of 0.2 makes both constraints bind (support K+1 = 3)
    power_budget = 0.2

    def setup(self, seed, iteration):
        rng = np.random.default_rng(derive_seed(seed, iteration))
        marginals = []
        for w in self.event_sizes:
            q = rng.uniform(0.2, 1.0, w)
            marginals.append(q / q.sum())
        n_o = int(np.prod(self.event_sizes))
        n_a = int(np.prod(self.action_sizes))
        spec = cs.ProblemSpec(
            action_sizes=self.action_sizes,
            event_sizes=self.event_sizes,
            distribution=cs.ProductDistribution(tuple(marginals)),
            penalties=(
                cs.FullTable(rng.uniform(-1.0, 1.0, (n_o, n_a))),
                cs.PowerPerUser(0),
                cs.PowerPerUser(1),
            ),
            constraints=(self.power_budget, self.power_budget),
        )
        return validated(spec)

    def run(self, spec):
        enumerate_fn = cs.enumerate_nondecreasing if cs.prune_applicable(spec) else cs.enumerate_all
        strategies = enumerate_fn(spec)
        r = cs.r_matrix(spec, strategies, strategy_mod.strategy_event_penalties(spec, strategies))
        return r, cs.solve_distributed_lp(spec, strategies, r=r)

    def check(self, spec, output):
        r, policy = output
        fails = checks.lp_certificate(
            r, spec.constraints, policy.thetas, policy.support_indices, policy.objective
        )
        return int(bool(fails)), fails

    def units(self, spec):
        return strategy_mod.count_all(spec)


def small_shapes(strategy_cap: int = 24) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every (action_sizes, event_sizes, K) with at most 2 users, action sizes 2-3,
    event sizes 1-3, K at most 2 and at most strategy_cap pure strategies."""
    shapes = []
    for n in (1, 2):
        for actions in itertools.product((2, 3), repeat=n):
            for events in itertools.product((1, 2, 3), repeat=n):
                if math.prod(a**w for a, w in zip(actions, events)) <= strategy_cap:
                    shapes += [(actions, events, k) for k in range(3)]
    return shapes


def small_spec(rng: np.random.Generator, action_sizes, event_sizes, k: int) -> cs.ProblemSpec:
    """Random dense instance of the given shape.

    Constraint levels sit at a random pure strategy's expected penalties plus
    a margin, so independent, correlated and centralized policies are all
    feasible.
    """
    n_o = math.prod(event_sizes)
    n_a = math.prod(action_sizes)
    tables = [rng.uniform(-1.0, 1.0, (n_o, n_a))]
    tables += [rng.uniform(0.0, 1.0, (n_o, n_a)) for _ in range(k)]
    marginals = []
    for w in event_sizes:
        q = rng.uniform(0.1, 1.0, w)
        marginals.append(q / q.sum())
    # expected penalties of one random pure strategy (per-user maps event -> action)
    maps = [rng.integers(0, a, w) for a, w in zip(action_sizes, event_sizes)]
    events = np.unravel_index(np.arange(n_o), event_sizes)
    actions = np.ravel_multi_index(tuple(g[e] for g, e in zip(maps, events)), action_sizes)
    pi = np.ones(1)
    for q in marginals:
        pi = np.outer(pi, q).reshape(-1)
    anchor = [float(pi @ t[np.arange(n_o), actions]) for t in tables[1:]]
    return cs.ProblemSpec(
        action_sizes=action_sizes,
        event_sizes=event_sizes,
        distribution=cs.ProductDistribution(tuple(marginals)),
        penalties=tuple(cs.FullTable(t) for t in tables),
        constraints=tuple(c + float(rng.uniform(0.0, 0.3)) for c in anchor),
    )


class OfflineManySmall(Workload):
    """Batches of tiny instances through validate, prune, enumerate, both LPs and compare_policies.

    A batch holds one instance of every shape in small_shapes(), so every
    batch has the same mix of sizes and only the drawn values differ.
    """

    name = "offline-many-small"
    unit = "instance"
    shapes = small_shapes()

    def setup(self, seed, iteration):
        rng = np.random.default_rng(derive_seed(seed, iteration))
        return [small_spec(rng, *shape) for shape in self.shapes]

    def run(self, specs):
        out = []
        for spec in specs:
            t0 = time.perf_counter()
            try:
                valid = cs.validate_spec(spec).ok
                enumerate_fn = (
                    cs.enumerate_nondecreasing if cs.prune_applicable(spec) else cs.enumerate_all
                )
                strategies = enumerate_fn(spec)
                distributed = cs.solve_distributed_lp(spec, strategies)
                centralized = cs.solve_centralized_lp(spec)
                comparison = cs.compare_policies(spec)
                result = (valid, strategies, distributed, centralized, comparison)
            except Exception as exc:  # counted as a failed instance by check()
                result = exc
            out.append((time.perf_counter() - t0, result))
        return out

    def check(self, specs, output):
        failed = 0
        messages = []
        for i, (spec, (_, result)) in enumerate(zip(specs, output)):
            if isinstance(result, Exception):
                fails = [f"raised {type(result).__name__}: {result}"]
            else:
                valid, strategies, distributed, centralized, comparison = result
                fails = [] if valid else ["validate_spec rejected the instance"]
                if len(distributed.support) > spec.n_constraints + 1:
                    fails.append(f"support {len(distributed.support)} > K+1")
                oracle = cs.brute_force_distributed_oracle(spec, strategies)
                fails += checks.oracle_match(distributed.objective, oracle)
                fails += checks.policy_ordering(
                    centralized.utility, distributed.utility, comparison.independent_best
                )
                fails += checks.policy_ordering(
                    comparison.centralized_opt,
                    comparison.distributed_opt,
                    comparison.independent_best,
                )
            if fails:
                failed += 1
                messages += [f"instance {i}: {m}" for m in fails]
        return failed, messages

    def operations(self, specs):
        return len(specs)

    def units(self, specs):
        return len(specs)

    def instance_times(self, output, wall):
        return [t for t, _ in output]


WORKLOADS = {
    wl.name: wl
    for wl in (EpisodeApprox3Sensor, EnsembleExact2Sensor, OfflineLp531k, OfflineManySmall)
}
