import numpy as np
import pytest

import corrsched as cs
from corrsched import fixtures
from corrsched.simplex import Infeasible

import oracles
from specgen import random_spec


def test_distributed_lp_two_sensor(two_sensor):
    spec, strategies = two_sensor
    policy = cs.solve_distributed_lp(spec, strategies)
    assert policy.utility == pytest.approx(23 / 48, abs=1e-9)
    assert len(policy.support) <= 3
    assert np.all(policy.achieved_constraints <= np.array(spec.constraints) + 1e-9)
    assert policy.thetas.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(policy.thetas > 0)


def test_distributed_lp_support_probabilities_reproduce_optimum(two_sensor):
    # Optimal thetas need not be unique, but the achieved vector must be.
    spec, strategies = two_sensor
    policy = cs.solve_distributed_lp(spec, strategies)
    r_support = np.array([oracles.compute_r_vector(spec, s) for s, _ in policy.support])
    achieved = policy.thetas @ r_support
    assert achieved[0] == pytest.approx(policy.objective, abs=1e-12)
    assert np.allclose(achieved[1:], policy.achieved_constraints, atol=1e-12)


def test_distributed_lp_unconstrained_picks_best_pure(two_sensor):
    spec, strategies = two_sensor
    unconstrained = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=spec.penalties[:1],
        constraints=(),
    )
    policy = cs.solve_distributed_lp(unconstrained, strategies)
    assert len(policy.support) == 1
    r = cs.r_matrix(unconstrained, strategies)
    assert policy.objective == pytest.approx(r[:, 0].min(), abs=1e-12)


def test_distributed_lp_infeasible(two_sensor):
    spec, strategies = two_sensor
    impossible = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=spec.penalties,
        constraints=(-0.5, -0.5),  # penalties are nonnegative, so unreachable
    )
    with pytest.raises(Infeasible):
        cs.solve_distributed_lp(impossible, strategies)


def test_centralized_lp_two_sensor(two_sensor):
    spec, _ = two_sensor
    policy = cs.solve_centralized_lp(spec)
    assert policy.utility == pytest.approx(0.5, abs=1e-9)
    assert np.all(policy.achieved_constraints <= np.array(spec.constraints) + 1e-9)
    assert np.allclose(policy.conditionals.sum(axis=1), 1.0, atol=1e-9)


def test_centralized_lp_counterexample():
    spec = fixtures.counterexample_spec()
    assert cs.solve_centralized_lp(spec).utility == pytest.approx(1.0, abs=1e-12)


def test_centralized_lp_dominant_action():
    # objective ignores the event and one joint action dominates
    values = np.tile(np.array([[0.3, -0.8, 0.1, 0.0]]), (4, 1))
    spec = cs.ProblemSpec(
        action_sizes=(2, 2),
        event_sizes=(2, 2),
        distribution=cs.ProductDistribution((np.array([0.5, 0.5]), np.array([0.5, 0.5]))),
        penalties=(cs.FullTable(values),),
        constraints=(),
    )
    policy = cs.solve_centralized_lp(spec)
    assert policy.objective == pytest.approx(-0.8, abs=1e-12)
    assert np.allclose(policy.conditionals[:, 1], 1.0, atol=1e-9)


def test_centralized_cap():
    spec = fixtures.three_sensor_spec()
    with pytest.raises(cs.CapExceeded):
        cs.solve_centralized_lp(spec)


def test_independent_policy_two_sensor(two_sensor):
    spec, _ = two_sensor
    conds = oracles.report_if_observed_policy(spec, (4 / 9, 2 / 3))
    r = oracles.evaluate_independent_policy(spec, conds)
    assert -r[0] == pytest.approx(4 / 9, abs=1e-12)
    assert r[1] == pytest.approx(1 / 3, abs=1e-12)
    assert r[2] == pytest.approx(1 / 3, abs=1e-12)


def test_independent_policy_never_report(two_sensor):
    spec, _ = two_sensor
    r = oracles.evaluate_independent_policy(spec, oracles.report_if_observed_policy(spec, (0.0, 0.0)))
    assert np.allclose(r, 0.0, atol=1e-15)


def test_independent_policy_always_report(two_sensor):
    spec, _ = two_sensor
    r = oracles.evaluate_independent_policy(spec, oracles.report_if_observed_policy(spec, (1.0, 1.0)))
    assert -r[0] == pytest.approx(13 / 16, abs=1e-12)
    assert r[1] == pytest.approx(3 / 4, abs=1e-12)
    assert r[2] == pytest.approx(1 / 2, abs=1e-12)


def test_independent_policy_rejects_unnormalized(two_sensor):
    spec, _ = two_sensor
    bad = [np.array([[0.5, 0.4], [0.5, 0.5]]), np.array([[1.0, 0.0], [0.0, 1.0]])]
    with pytest.raises(ValueError):
        oracles.evaluate_independent_policy(spec, bad)


def test_sample_strategy_single_support(two_sensor):
    spec, strategies = two_sensor
    row = strategies[0]
    policy = cs.CorrelatedPolicy(
        support=[(row, 1.0)],
        objective=0.0,
        achieved_constraints=np.zeros(2),
        support_indices=[0],
    )
    gen = np.random.default_rng(1)
    assert all(cs.sample_strategy(policy, gen) is row for _ in range(25))


def test_sample_strategy_frequencies(two_sensor):
    spec, strategies = two_sensor
    by_row = {tuple(s.tolist()): s for s in strategies}
    # mixture weights published for this instance: 1/3, 5/9, 1/9
    support = [
        (by_row[(0, 1, 0, 0)], 1 / 3),
        (by_row[(0, 0, 0, 1)], 5 / 9),
        (by_row[(0, 1, 0, 1)], 1 / 9),
    ]
    policy = cs.CorrelatedPolicy(
        support=support,
        objective=-23 / 48,
        achieved_constraints=np.array([1 / 3, 1 / 3]),
        support_indices=[2, 1, 3],
    )
    gen = np.random.default_rng(7)
    n = 10**6
    counts = np.bincount(cs.sample_strategies(policy, gen, n), minlength=len(support))
    for count, (strat, theta) in zip(counts, support):
        sigma = np.sqrt(theta * (1 - theta) / n)
        assert abs(count / n - theta) < 4 * sigma


def test_sample_strategy_is_one_draw_of_sample_strategies(two_sensor):
    spec, strategies = two_sensor
    policy = cs.solve_distributed_lp(spec, strategies)
    gen = np.random.default_rng(11)
    one_by_one = np.array([cs.sample_strategy(policy, gen) for _ in range(200)])
    batch = cs.sample_strategies(policy, np.random.default_rng(11), 200)
    assert np.array_equal(one_by_one, np.array([policy.support[i][0] for i in batch]))
    assert len(set(batch.tolist())) == len(policy.support)


def test_sample_strategy_deterministic(two_sensor):
    spec, strategies = two_sensor
    policy = cs.solve_distributed_lp(spec, strategies)
    a = [cs.sample_strategy(policy, np.random.default_rng(3)).tolist() for _ in range(30)]
    b = [cs.sample_strategy(policy, np.random.default_rng(3)).tolist() for _ in range(30)]
    assert a == b


def test_oracle_two_sensor(two_sensor):
    spec, strategies = two_sensor
    assert cs.brute_force_distributed_oracle(spec, strategies) == pytest.approx(
        -23 / 48, abs=1e-12
    )


def test_oracle_unconstrained_is_min_r0(two_sensor):
    spec, strategies = two_sensor
    unconstrained = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=spec.penalties[:1],
        constraints=(),
    )
    r = cs.r_matrix(unconstrained, strategies)
    assert cs.brute_force_distributed_oracle(unconstrained, strategies) == pytest.approx(
        float(r[:, 0].min()), abs=1e-15
    )


def test_oracle_matches_lp_on_random_instances(rng):
    for _ in range(25):
        spec = random_spec(rng, strategy_cap=24)
        strategies = cs.enumerate_all(spec)
        lp = cs.solve_distributed_lp(spec, strategies)
        oracle = cs.brute_force_distributed_oracle(spec, strategies)
        assert oracle is not None
        assert lp.objective == pytest.approx(oracle, abs=1e-9)


def test_oracle_cap(two_sensor):
    spec, strategies = two_sensor
    with pytest.raises(cs.CapExceeded):
        cs.brute_force_distributed_oracle(spec, strategies, cap=2)


def test_policy_class_ordering_two_sensor(two_sensor):
    spec, strategies = two_sensor
    centralized = cs.solve_centralized_lp(spec).objective
    distributed = cs.solve_distributed_lp(spec, strategies).objective
    independent = oracles.evaluate_independent_policy(
        spec, oracles.report_if_observed_policy(spec, (4 / 9, 2 / 3))
    )[0]
    assert centralized < distributed < independent
    assert centralized == pytest.approx(-0.5, abs=1e-9)
    assert distributed == pytest.approx(-23 / 48, abs=1e-9)
    assert independent == pytest.approx(-4 / 9, abs=1e-9)
