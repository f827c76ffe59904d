"""Every correctness check passes on a right answer and fails on a wrong one."""

import dataclasses

import numpy as np
import pytest

import corrsched as cs
from corrsched import fixtures

import checks
import workloads


def test_queue_residual():
    assert checks.queue_residual([-1e-3, 0.0, 1e-12]) == []
    assert checks.queue_residual([0.0, 1e-6])
    assert checks.queue_residual([float("nan")])


def test_criterion7():
    c = (1 / 3,) * 3
    assert checks.criterion7(0.4645, [0.333, 0.3335, 0.334], c) == []
    assert checks.criterion7(0.44, [0.333, 0.333, 0.333], c)
    assert checks.criterion7(0.4645, [0.333, 0.34, 0.333], c)


def test_mean_rate_envelope():
    # envelope sqrt(2 (B + F V) / T) = sqrt(2 * 101 / 1e4) ~ 0.142
    assert checks.mean_rate_envelope([30.0, 40.0], 10_000, b=1.0, f=1.0, v=100.0) == []
    assert checks.mean_rate_envelope([3000.0, 40.0], 10_000, b=1.0, f=1.0, v=100.0)


def two_strategy_lp():
    """min r0 s.t. r1 <= 1/2 over A=(0, 1), B=(1, 0): theta_A = 1/2, lambda = 1."""
    return np.array([[0.0, 1.0], [1.0, 0.0]]), (0.5,)


def test_lp_certificate_accepts_optimal_solutions():
    r, c = two_strategy_lp()
    assert checks.lp_certificate(r, c, [0.5, 0.5], [0, 1], 0.5) == []
    spec, strategies = fixtures.two_sensor_spec(), fixtures.two_sensor_strategies()
    r = cs.r_matrix(spec, strategies)
    policy = cs.solve_distributed_lp(spec, strategies, r=r)
    assert checks.lp_certificate(
        r, spec.constraints, policy.thetas, policy.support_indices, policy.objective
    ) == []


def test_lp_certificate_rejects_a_suboptimal_vertex():
    r, c = two_strategy_lp()
    r = np.vstack([r, [[-1.0, 0.2]]])  # C is feasible alone and better
    fails = checks.lp_certificate(r, c, [0.5, 0.5], [0, 1], 0.5)
    assert any("reduced cost" in f for f in fails)


def test_lp_certificate_rejects_a_negative_multiplier():
    # A=(1, 1), B=(0, 0): B alone is optimal; the A/B mix is feasible and
    # tight on the constraint but needs lambda = -1 to make both columns tight
    r = np.array([[1.0, 1.0], [0.0, 0.0]])
    fails = checks.lp_certificate(r, (0.5,), [0.5, 0.5], [0, 1], 0.5)
    assert any("negative multiplier" in f for f in fails)


@pytest.mark.parametrize(
    "theta, support, objective, message",
    [
        ([0.4, 0.4], [0, 1], 0.4, "probability"),
        ([0.6, 0.4], [0, 1], 0.4, "violated"),
        ([0.5, 0.5], [0, 1], 0.4, "objective"),
        ([0.5, 0.25, 0.25], [0, 1, 1], 0.5, "support"),
    ],
)
def test_lp_certificate_rejects_bad_primal(theta, support, objective, message):
    r, c = two_strategy_lp()
    fails = checks.lp_certificate(r, c, theta, support, objective)
    assert any(message in f for f in fails)


def test_oracle_match():
    assert checks.oracle_match(-0.25, -0.25 + 1e-12) == []
    assert checks.oracle_match(-0.25, -0.25 + 1e-6)
    assert checks.oracle_match(-0.25, None)


def test_policy_ordering():
    assert checks.policy_ordering(0.5, 23 / 48, 4 / 9) == []
    assert checks.policy_ordering(0.47, 23 / 48, 4 / 9)
    assert checks.policy_ordering(0.5, 0.4, 4 / 9)


def test_many_small_check_catches_a_wrong_lp_value():
    wl = workloads.OfflineManySmall()
    shapes = workloads.OfflineManySmall.shapes[-3:]
    specs = [workloads.small_spec(np.random.default_rng(0), *shape) for shape in shapes]
    output = wl.run(specs)
    assert wl.check(specs, output) == (0, [])
    distributed = output[1][1][2]
    distributed.objective += 1e-6
    failed, messages = wl.check(specs, output)
    assert failed == 1 and any("oracle" in m for m in messages)


def test_ensemble_check_catches_queue_growth_and_residuals():
    wl = workloads.EnsembleExact2Sensor()
    config = dataclasses.replace(wl.setup(0, 0), runs=3, horizon=2000)
    ensemble = wl.run(config)
    assert wl.check(config, ensemble) == (0, [])
    ensemble.per_run[0].queue_bound_max_residual = 1e-6
    failed, messages = wl.check(config, ensemble)
    assert failed == 1 and any("residual" in m for m in messages)
    ensemble.per_run[0].queue_bound_max_residual = 0.0
    ensemble.per_run[1].final_queues = np.full(2, 1e6)
    failed, messages = wl.check(config, ensemble)
    assert failed == 3 and any("envelope" in m for m in messages)


def test_episode_check_catches_a_wrong_utility():
    wl = workloads.EpisodeApprox3Sensor()
    config = wl.setup(0, 0)
    good = cs.Metrics(
        slots=config.horizon,
        utility=0.4645,
        pbar=np.full(3, 1 / 3),
        final_queues=np.zeros(3),
        queue_bound_max_residual=0.0,
    )
    assert wl.check(config, (good, None)) == (0, [])
    bad = dataclasses.replace(good, utility=0.40)
    assert wl.check(config, (bad, None))[0] == 1
