import dataclasses
import weakref

import numpy as np
import pytest

import corrsched as cs
from corrsched import fixtures, optimizer, strategy
from corrsched.simplex import Infeasible

import oracles
from specgen import random_spec, scaled_spec


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


def test_oracle_two_sensor(two_sensor):
    spec, strategies = two_sensor
    assert cs.brute_force_distributed_oracle(spec, strategies) == pytest.approx(
        -23 / 48, abs=1e-12
    )


@pytest.mark.parametrize("lam", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e9])
def test_oracle_scales_with_the_penalties(two_sensor, lam):
    # every penalty and budget times lam: the optimum is lam times -23/48
    spec, strategies = two_sensor
    oracle = cs.brute_force_distributed_oracle(scaled_spec(spec, lam), strategies)
    assert oracle == pytest.approx(-23 / 48 * lam, rel=1e-12, abs=0.0)


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


def _caller_set(spec):
    """The resolved set as a caller builds it: an array of its own, equal to the model's."""
    return cs.enumerate_nondecreasing(spec) if cs.prune_applicable(spec) else cs.enumerate_all(spec)


def _one_event_spec():
    """Two users with one event each: a strategy is a joint action."""
    one = np.ones(1)
    return cs.ProblemSpec(
        action_sizes=(2, 3),
        event_sizes=(1, 1),
        distribution=cs.ProductDistribution((one, one)),
        penalties=(
            cs.FullTable(np.array([[0.3, -0.9, -0.2, -0.7, 0.1, -0.4]])),
            cs.FullTable(np.array([[0.1, 0.8, 0.5, 0.6, 0.2, 0.7]])),
        ),
        constraints=(0.45,),
    )


def _one_event_spec_past_the_float_path():
    """154 joint actions and one constraint: an LP of 154 x 2 > SCALAR_ENTRIES entries."""
    rng = np.random.default_rng(3)
    one = np.ones(1)
    return cs.ProblemSpec(
        action_sizes=(11, 14),
        event_sizes=(1, 1),
        distribution=cs.ProductDistribution((one, one)),
        penalties=(cs.FullTable(rng.uniform(-1, 1, (1, 154))), cs.FullTable(rng.uniform(0, 1, (1, 154)))),
        constraints=(0.45,),
    )


@pytest.mark.parametrize("make,n_lps", [
    pytest.param(fixtures.two_sensor_spec, 2, id="two_sensor_spec"),
    pytest.param(fixtures.counterexample_spec, 2, id="counterexample_spec"),
    # the correlated LP over every joint action is the centralized LP
    pytest.param(_one_event_spec, 1, id="one_event_spec"),
    # the same LP on numpy arrays: solved twice, so the centralized policy
    # does not take the bits of the correlated LP's strided views
    pytest.param(_one_event_spec_past_the_float_path, 2, id="one_event_spec_past_the_float_path"),
])
def test_one_spec_solves_its_two_lps_once(make, n_lps, count_calls):
    # four solves before the offline model: compare_policies solved both LPs again
    spec = make()
    lps = count_calls("solve_lp")
    distributed = cs.solve_distributed_lp(spec, _caller_set(spec))
    centralized = cs.solve_centralized_lp(spec)
    report = cs.compare_policies(spec)
    assert cs.solve_distributed_lp(spec, _caller_set(spec)).support is distributed.support
    assert cs.solve_centralized_lp(spec).conditionals is centralized.conditionals
    assert len(lps) == n_lps
    assert (report.distributed_opt, report.centralized_opt) == (distributed.utility, centralized.utility)
    # the cached answers are those of a fresh solve, bit for bit
    strategies = _caller_set(spec)
    fresh = cs.solve_distributed_lp(spec, strategies, r=cs.r_matrix(spec, strategies))
    assert fresh.objective == distributed.objective
    assert fresh.support_indices == distributed.support_indices
    assert np.array_equal(fresh.achieved_constraints, distributed.achieved_constraints)
    alone = optimizer._solve_centralized(spec)
    for field in ("conditionals", "objective", "achieved_constraints"):
        assert np.asarray(getattr(alone, field)).tobytes() == np.asarray(getattr(centralized, field)).tobytes()


def test_other_sets_and_given_r_are_solved_afresh(count_calls):
    spec = fixtures.two_sensor_spec()
    subset = fixtures.two_sensor_strategies(spec)  # 4 of the 9 resolved strategies
    lps = count_calls("solve_lp")
    first = cs.solve_distributed_lp(spec, subset)
    assert cs.solve_distributed_lp(spec, subset).support is not first.support
    resolved = cs.resolve_strategies(spec)
    r = cs.r_matrix(spec, resolved)
    again = cs.solve_distributed_lp(spec, resolved, r=r)
    assert cs.solve_distributed_lp(spec, resolved, r=r).support is not again.support
    assert len(lps) == 4
    assert subset.flags.writeable  # a caller's set is never frozen


def test_unbuildable_resolved_set_solves_directly(monkeypatch):
    # past CHECK_CAP the prune test, and so the resolved set, cannot be built
    spec = fixtures.two_sensor_spec()
    strategies = cs.enumerate_all(spec)
    monkeypatch.setattr(strategy, "CHECK_CAP", 0)
    with pytest.raises(cs.CapExceeded):
        cs.resolve_strategies(spec)
    policy = cs.solve_distributed_lp(spec, strategies)
    assert policy.utility == pytest.approx(23 / 48, abs=1e-9)
    assert cs.solve_distributed_lp(spec, strategies).support is not policy.support


def test_spec_arrays_are_read_only_copies():
    marginal = np.array([0.25, 0.75])
    values = np.zeros((4, 4))
    spec = cs.ProblemSpec(
        action_sizes=(2, 2),
        event_sizes=(2, 2),
        distribution=cs.ProductDistribution((marginal, np.array([0.5, 0.5]))),
        penalties=(cs.FullTable(values), cs.PowerPerUser(0)),
        constraints=(0.5,),
    )
    marginal[0], values[0, 0] = 0.5, 1.0  # the caller's arrays stay the caller's
    assert spec.distribution.marginals[0][0] == 0.25 and spec.penalties[0].values[0, 0] == 0.0
    for array in (spec.distribution.marginals[1], spec.penalties[0].values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    joint = cs.JointDistribution(np.full((2, 2), 0.25))
    two = fixtures.two_sensor_spec()
    for array in (joint.table, two.penalties[0].weights[0]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_cached_answers_are_immutable():
    spec = fixtures.two_sensor_spec()
    model = cs.offline_model(spec)
    policy, centralized = model.correlated, model.centralized
    arrays = [model.strategies, model.event_penalties, model.r, policy.achieved_constraints,
              centralized.conditionals, centralized.achieved_constraints]
    arrays += [row for row, _ in policy.support]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 7
    # a caller gets a copy of each cached policy: reassigning its fields changes no other copy
    objectives = (policy.objective, centralized.objective)
    policy.objective, centralized.objective = 1.0, 1.0
    assert (model.correlated.objective, model.centralized.objective) == objectives
    assert cs.solve_distributed_lp(spec, model.strategies).objective == objectives[0]


def test_equal_specs_get_their_own_answers():
    a, b = fixtures.two_sensor_spec(), fixtures.two_sensor_spec()
    assert cs.offline_model(a) is not cs.offline_model(b)
    assert cs.solve_centralized_lp(a).conditionals is not cs.solve_centralized_lp(b).conditionals
    assert cs.solve_centralized_lp(a).objective == cs.solve_centralized_lp(b).objective
    looser = dataclasses.replace(a, constraints=(1.0, 1.0))
    assert cs.solve_centralized_lp(looser).utility > cs.solve_centralized_lp(a).utility


def test_model_is_freed_with_its_spec():
    spec = fixtures.two_sensor_spec()
    model = cs.offline_model(spec)
    policy = weakref.ref(model._correlated)
    tensor = weakref.ref(model.event_penalties)
    model_ref = weakref.ref(model)
    del model
    assert model_ref() is not None  # the spec keeps it
    del spec  # no cycle: reference counting alone frees them
    assert model_ref() is None and policy() is None and tensor() is None


def test_model_outliving_its_spec_is_an_error():
    model = cs.offline_model(fixtures.two_sensor_spec())
    with pytest.raises(ReferenceError):
        model.strategies
