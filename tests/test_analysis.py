import numpy as np
import pytest

import corrsched as cs
from corrsched import fixtures
from corrsched.simplex import LpProblem, LpStatus, solve_lp

from specgen import random_separable_spec, random_spec


def test_verify_counterexample_exact():
    centralized, distributed = cs.verify_counterexample()
    assert centralized == 1.0
    assert distributed == 0.5


def test_counterexample_distributed_optimum_is_constant_strategy():
    spec = fixtures.counterexample_spec()
    policy = cs.solve_distributed_lp(spec, cs.enumerate_all(spec))
    assert len(policy.support) == 1
    strat, theta = policy.support[0]
    assert theta == pytest.approx(1.0, abs=1e-12)
    # the optimum is attained by a constant sign-matched strategy; encoded
    # action 1 on both coins is one such optimizer (mirrored actions tie)
    both_ones = np.array([1, 1, 1, 1])
    assert cs.compute_r_vector(spec, both_ones)[0] == pytest.approx(
        policy.objective, abs=1e-12
    )
    maps = [g.tolist() for g in cs.user_maps(spec, strat)]
    assert all(len(set(g)) == 1 for g in maps)  # constant per user
    assert maps[0] == maps[1]  # matched signs


def test_counterexample_truth_table():
    spec = fixtures.counterexample_spec()
    for w1 in (0, 1):
        for w2 in (0, 1):
            for a1 in (0, 1):
                for a2 in (0, 1):
                    u = -cs.eval_penalty(spec, 0, (a1, a2), (w1, w2))
                    wins = (a1 == a2) != (w1 == 1 and w2 == 1)
                    assert u == (1.0 if wins else -1.0)


def test_compare_policies_two_sensor(two_sensor):
    spec, _ = two_sensor
    report = cs.compare_policies(spec)
    assert round(report.independent_best, 5) == 0.44444
    assert round(report.distributed_opt, 5) == 0.47917
    assert round(report.centralized_opt, 5) == 0.5
    assert report.centralized_gap > 0
    assert report.correlation_gain > 0


def test_compare_policies_separable_no_gap(rng):
    for _ in range(5):
        spec = random_separable_spec(rng, anchor="pure")
        report = cs.compare_policies(spec)
        assert report.centralized_opt == pytest.approx(report.distributed_opt, abs=1e-9)


def test_compare_policies_single_user(rng):
    spec = random_spec(rng, max_users=1, strategy_cap=24, anchor="pure")
    report = cs.compare_policies(spec)
    # one user has no information gap at all
    assert report.centralized_opt == pytest.approx(report.distributed_opt, abs=1e-9)
    assert report.independent_best <= report.distributed_opt + 1e-9


def test_compare_policies_ordering_on_random_specs(rng):
    for _ in range(50):
        spec = random_spec(rng, strategy_cap=16, anchor="pure")
        report = cs.compare_policies(spec)
        assert report.centralized_opt >= report.distributed_opt - 1e-9
        for value in report.probed_values:
            assert value <= report.distributed_opt + 1e-9


def test_epsilon_max_two_sensor(two_sensor):
    spec, strategies = two_sensor
    eps = cs.epsilon_max(spec, strategies)
    # idling keeps both powers at zero, so the largest uniform slack is c = 1/3
    assert eps == pytest.approx(1 / 3, abs=2e-6)
    r = cs.r_matrix(spec, strategies)
    c = np.asarray(spec.constraints)

    def feasible(e):
        lp = LpProblem(
            cost=np.zeros(len(strategies)),
            a_ub=r[:, 1:].T,
            b_ub=c - e,
            a_eq=np.ones((1, len(strategies))),
            b_eq=np.array([1.0]),
        )
        return solve_lp(lp).status is LpStatus.OPTIMAL

    assert feasible(eps - 1e-5)
    assert not feasible(eps + 1e-5)


def test_epsilon_max_infeasible_raises(two_sensor):
    spec, strategies = two_sensor
    impossible = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=spec.penalties,
        constraints=(-1.0, -1.0),
    )
    with pytest.raises(cs.Infeasible):
        cs.epsilon_max(impossible, strategies)


def test_audit_bounds_two_sensor(two_sensor):
    spec, strategies = two_sensor
    dpp = cs.DppConfig(v=100.0, delay=0, mode="exact")
    cfg = cs.SimConfig(
        spec=spec, dpp=dpp, horizon=20000, seed=5, strategies=strategies, stride=1
    )
    _, trace = cs.run_episode(cfg)
    report = cs.audit_bounds(trace, spec, strategies, dpp)
    assert report.p0_opt == pytest.approx(-23 / 48, abs=1e-9)
    assert report.perf_ok, f"worst margin {report.worst_perf_margin}"
    assert report.queue_ok
    assert report.queue_bound_max_residual <= 1e-9


def test_audit_slater_two_sensor(two_sensor):
    spec, strategies = two_sensor
    cfg = cs.SimConfig(
        spec=spec,
        dpp=cs.DppConfig(v=1.0, delay=0, mode="exact"),
        horizon=2000,
        seed=31,
        strategies=strategies,
        runs=50,
    )
    ensemble = cs.run_ensemble(cfg)
    report = cs.audit_slater(ensemble, spec, strategies, v=1.0)
    assert report.eps_max == pytest.approx(1 / 3, abs=2e-6)
    assert report.ok, f"worst margin {report.worst_margin}"
