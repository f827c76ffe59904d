import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrsched as cs
from corrsched import fixtures
from corrsched.problem import flat_event_probabilities, penalty_tables

import oracles
from specgen import random_spec


def test_two_sensor_spec_validates(two_sensor):
    spec, _ = two_sensor
    assert cs.validate_spec(spec).ok


def test_zero_marginal_rejected():
    spec = fixtures.two_sensor_spec()
    bad = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=cs.ProductDistribution((np.array([0.0, 1.0]), np.array([0.5, 0.5]))),
        penalties=spec.penalties,
        constraints=spec.constraints,
    )
    report = cs.validate_spec(bad)
    assert not report.ok
    assert any("zero marginal" in v for v in report.violations)


def test_unnormalized_joint_rejected():
    spec = fixtures.two_sensor_spec()
    bad = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=cs.JointDistribution(np.full((2, 2), 0.225)),
        penalties=spec.penalties,
        constraints=spec.constraints,
    )
    report = cs.validate_spec(bad)
    assert not report.ok
    assert any("not normalized" in v for v in report.violations)


def test_penalty_length_mismatch_reported():
    spec = fixtures.two_sensor_spec()
    bad = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=spec.penalties[:2],
        constraints=spec.constraints,
    )
    assert not cs.validate_spec(bad).ok


def test_eval_penalty_two_sensor_values(two_sensor):
    spec, _ = two_sensor
    assert oracles.eval_penalty(spec, 0, (1, 1), (1, 1)) == -1.0
    assert oracles.eval_penalty(spec, 0, (0, 1), (1, 1)) == -0.5
    assert oracles.eval_penalty(spec, 1, (0, 1), (0, 0)) == 0.0
    assert oracles.eval_penalty(spec, 1, (0, 1), (1, 1)) == 0.0
    assert oracles.eval_penalty(spec, 2, (0, 1), (1, 0)) == 1.0


def test_eval_penalty_index_errors(two_sensor):
    spec, _ = two_sensor
    with pytest.raises(IndexError):
        oracles.eval_penalty(spec, 3, (0, 0), (0, 0))
    with pytest.raises(IndexError):
        oracles.eval_penalty(spec, 0, (2, 0), (0, 0))


def test_event_probability_two_sensor(two_sensor):
    spec, _ = two_sensor
    assert oracles.event_probability(spec, (1, 1)) == pytest.approx(3 / 8, abs=1e-15)
    assert oracles.event_probability(spec, (0, 0)) == pytest.approx(1 / 8, abs=1e-15)


def test_event_probability_uniform_ten():
    spec = fixtures.three_sensor_spec()
    assert oracles.event_probability(spec, (3, 0, 9)) == pytest.approx(1e-3, abs=1e-15)


def test_probabilities_sum_to_one(rng):
    for joint in (False, True):
        spec = random_spec(rng, joint=joint)
        pi = flat_event_probabilities(spec.distribution, spec.event_sizes)
        assert abs(pi.sum() - 1.0) < 1e-9
        total = sum(
            oracles.event_probability(spec, tuple(np.unravel_index(i, spec.event_sizes)))
            for i in range(spec.n_events)
        )
        assert abs(total - 1.0) < 1e-9


def test_single_mass_point_sampling():
    table = np.zeros((2, 2))
    table[1, 0] = 1.0
    spec = cs.ProblemSpec(
        action_sizes=(2, 2),
        event_sizes=(2, 2),
        distribution=cs.JointDistribution(table),
        penalties=(cs.PowerPerUser(0),),
        constraints=(),
    )
    gen = np.random.default_rng(0)
    for _ in range(20):
        assert oracles.sample_event(spec, gen) == (1, 0)


def test_sampling_deterministic_given_seed(two_sensor):
    spec, _ = two_sensor
    a = [oracles.sample_event(spec, np.random.default_rng(42)) for _ in range(50)]
    b = [oracles.sample_event(spec, np.random.default_rng(42)) for _ in range(50)]
    assert a == b


@pytest.mark.parametrize("joint", [False, True])
def test_sampling_matches_distribution(joint, rng):
    spec = random_spec(rng, joint=joint)
    n = 10**6
    idx = cs.problem.sample_event_indices(spec.distribution, spec.event_sizes, rng, n)
    counts = np.bincount(idx, minlength=spec.n_events)
    pi = flat_event_probabilities(spec.distribution, spec.event_sizes)
    sigma = np.sqrt(np.maximum(pi * (1 - pi) / n, 1e-30))
    z = np.abs(counts / n - pi) / np.maximum(sigma, 1e-15)
    assert z.max() < 4.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_builtin_families_match_full_table(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 4))
    action_sizes = tuple(int(gen.integers(2, 4)) for _ in range(n))
    event_sizes = tuple(int(gen.integers(1, 4)) for _ in range(n))
    fams = [
        cs.PowerPerUser(int(gen.integers(0, n))),
        cs.MinSumUtilityNeg(
            weights=tuple(gen.uniform(0, 1, w) for w in event_sizes),
            cap=float(gen.uniform(0.2, 2.0)),
        ),
        cs.ProductForm(
            phis=tuple(gen.uniform(0.1, 1, w) for w in event_sizes),
            psis=tuple(gen.uniform(0, 1, a) for a in action_sizes),
        ),
    ]
    if all(a == 2 for a in action_sizes):
        fams.append(cs.CollisionUtilityNeg())
    fams.append(
        cs.WeightedSum(children=tuple(fams[:2]), coefficients=(0.5, float(gen.uniform(0, 2))))
    )
    for pen in fams:
        table = pen.expand(action_sizes, event_sizes)
        for _ in range(20):
            alpha = tuple(int(gen.integers(0, a)) for a in action_sizes)
            omega = tuple(int(gen.integers(0, w)) for w in event_sizes)
            wf = np.ravel_multi_index(omega, event_sizes)
            af = np.ravel_multi_index(alpha, action_sizes)
            direct = oracles.evaluate(pen, alpha, omega, action_sizes, event_sizes)
            assert direct == pytest.approx(table[wf, af], abs=1e-12)


def test_full_table_expansion_consistency(two_sensor):
    spec, _ = two_sensor
    tables = penalty_tables(spec)
    as_full = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=tuple(cs.FullTable(t) for t in tables),
        constraints=spec.constraints,
    )
    assert np.array_equal(penalty_tables(as_full), tables)
    for k in range(3):
        for wf in range(4):
            for af in range(4):
                omega = tuple(np.unravel_index(wf, spec.event_sizes))
                alpha = tuple(np.unravel_index(af, spec.action_sizes))
                assert oracles.eval_penalty(spec, k, alpha, omega) == tables[k, wf, af]
