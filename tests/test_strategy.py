from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrsched as cs
from corrsched import fixtures
from corrsched.problem import CapExceeded, penalty_tables
from corrsched.strategy import strategy_action_table, strategy_event_penalties, user_maps

from specgen import random_spec


def _actions(spec, strategy, omega):
    """Joint action of one strategy row at the per-user events omega."""
    return tuple(int(g[w]) for g, w in zip(user_maps(spec, strategy), omega))


def test_enumerate_all_two_sensor_count(two_sensor):
    spec, _ = two_sensor
    assert len(cs.enumerate_all(spec)) == 16


def test_enumerate_all_single_user_trivial():
    spec = cs.ProblemSpec(
        action_sizes=(2,),
        event_sizes=(1,),
        distribution=cs.ProductDistribution((np.array([1.0]),)),
        penalties=(cs.PowerPerUser(0),),
        constraints=(),
    )
    strategies = cs.enumerate_all(spec)
    assert strategies.tolist() == [[0], [1]]


def test_enumerate_all_cap_three_sensor():
    spec = fixtures.three_sensor_spec()
    with pytest.raises(CapExceeded) as err:
        cs.enumerate_all(spec)
    assert err.value.size == 2**30


def test_enumeration_order_is_lexicographic(two_sensor):
    spec, _ = two_sensor
    strategies = cs.enumerate_all(spec).tolist()
    assert strategies == sorted(strategies)
    mono = cs.enumerate_nondecreasing(spec).tolist()
    assert mono == sorted(mono)


def test_nondecreasing_counts():
    one_user = cs.ProblemSpec(
        action_sizes=(2,),
        event_sizes=(10,),
        distribution=cs.ProductDistribution((np.full(10, 0.1),)),
        penalties=(cs.PowerPerUser(0),),
        constraints=(),
    )
    assert len(cs.enumerate_nondecreasing(one_user)) == 11

    tiny = cs.ProblemSpec(
        action_sizes=(2,),
        event_sizes=(1,),
        distribution=cs.ProductDistribution((np.array([1.0]),)),
        penalties=(cs.PowerPerUser(0),),
        constraints=(),
    )
    assert len(cs.enumerate_nondecreasing(tiny)) == 2


def test_three_sensor_pruned_set(three_sensor):
    spec, strategies = three_sensor
    assert len(strategies) == 1000
    assert len(cs.enumerate_nondecreasing(spec)) == 11**3
    for s in strategies:
        assert all(g[0] == 0 for g in user_maps(spec, s))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_nondecreasing_subset_of_all(seed):
    gen = np.random.default_rng(seed)
    spec = random_spec(gen, strategy_cap=100)
    both = set(map(tuple, cs.enumerate_all(spec, cap=200).tolist()))
    mono = cs.enumerate_nondecreasing(spec, cap=200)
    assert set(map(tuple, mono.tolist())) <= both
    for s in mono:
        assert all(np.all(np.diff(g) >= 0) for g in user_maps(spec, s))


def _product_oracle(spec, monotone):
    """Strategy rows from itertools.product over per-user maps, lexicographic."""
    per_user = [
        [g for g in product(range(a), repeat=w) if not monotone or list(g) == sorted(g)]
        for a, w in zip(spec.action_sizes, spec.event_sizes)
    ]
    return [[a for g in maps for a in g] for maps in product(*per_user)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_enumeration_matches_product_oracle(seed):
    spec = random_spec(np.random.default_rng(seed), max_users=3, strategy_cap=200)
    enumerated = {
        False: cs.enumerate_all(spec, cap=200),
        True: cs.enumerate_nondecreasing(spec, cap=200),
    }
    for monotone, got in enumerated.items():
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape[1] == sum(spec.event_sizes)
        assert got.tolist() == _product_oracle(spec, monotone)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_drop_act_on_zero_keeps_rows_idle_on_event_zero(seed):
    spec = random_spec(np.random.default_rng(seed), max_users=3, strategy_cap=200)
    rows = _product_oracle(spec, monotone=False)
    starts = [sum(spec.event_sizes[:i]) for i in range(spec.n_users)]
    want = [row for row in rows if all(row[j] == 0 for j in starts)]
    got = cs.drop_act_on_zero(spec, cs.enumerate_all(spec, cap=200))
    assert got.tolist() == want


def test_preferred_action_power(two_sensor):
    spec, _ = two_sensor
    assert cs.check_preferred_action(spec, 1)
    assert cs.check_preferred_action(spec, 2)


def test_preferred_action_saturating_utility(two_sensor):
    spec, _ = two_sensor
    assert cs.check_preferred_action(spec, 0)


def test_preferred_action_three_sensor(three_sensor):
    spec, _ = three_sensor
    assert all(cs.check_preferred_action(spec, k) for k in range(4))


def test_preferred_action_reversed_difference_fails():
    # One user, two actions, two events; the action gap grows with the event.
    spec = cs.ProblemSpec(
        action_sizes=(2,),
        event_sizes=(2,),
        distribution=cs.ProductDistribution((np.array([0.5, 0.5]),)),
        penalties=(cs.FullTable(np.array([[0.0, 0.0], [0.0, 10.0]])),),
        constraints=(),
    )
    assert not cs.check_preferred_action(spec, 0)
    # brute-force confirmation of the violated inequality
    t = penalty_tables(spec)[0]
    assert t[0, 1] - t[0, 0] < t[1, 1] - t[1, 0]


def test_prune_applicable(two_sensor):
    spec, _ = two_sensor
    assert cs.prune_applicable(spec)


def test_prune_not_applicable_with_joint_correlation(two_sensor):
    spec, _ = two_sensor
    table = np.array([[0.35, 0.05], [0.05, 0.55]])  # correlated entries
    correlated = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=cs.JointDistribution(table),
        penalties=spec.penalties,
        constraints=spec.constraints,
    )
    assert not cs.prune_applicable(correlated)


def test_prune_not_applicable_counterexample():
    spec = fixtures.counterexample_spec()
    assert not cs.check_preferred_action(spec, 0)
    assert not cs.prune_applicable(spec)


def test_r_vectors_two_sensor(two_sensor):
    spec, strategies = two_sensor
    by_row = {tuple(s.tolist()): cs.compute_r_vector(spec, s) for s in strategies}
    never = by_row[(0, 0, 0, 0)]
    only_one = by_row[(0, 1, 0, 0)]
    both = by_row[(0, 1, 0, 1)]
    assert np.allclose(never, [0.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(only_one, [-3 / 4, 3 / 4, 0.0], atol=1e-15)
    assert np.allclose(both, [-13 / 16, 3 / 4, 1 / 2], atol=1e-15)


def test_r_matrix_matches_per_strategy(two_sensor, rng):
    spec, strategies = two_sensor
    r = cs.r_matrix(spec, strategies)
    for i, s in enumerate(strategies):
        assert np.array_equal(r[i], cs.compute_r_vector(spec, s))


def test_r_vector_matches_monte_carlo(rng):
    spec = random_spec(rng, strategy_cap=24)
    strategies = cs.enumerate_all(spec)
    s = strategies[int(rng.integers(0, len(strategies)))]
    r = cs.compute_r_vector(spec, s)
    n = 10**6
    idx = cs.problem.sample_event_indices(spec.distribution, spec.event_sizes, rng, n)
    pen = strategy_event_penalties(spec, [s])[:, 0, :]  # (n_events, K+1)
    samples = pen[idx]
    est = samples.mean(axis=0)
    sigma = samples.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(est - r) < 4.0 * np.maximum(sigma, 1e-12))


def test_two_sensor_values_match_exact_rational_arithmetic(two_sensor):
    # independent re-derivation with Fraction arithmetic: enumerate the four
    # events by hand and average penalties under each pruned strategy
    from fractions import Fraction as F

    spec, strategies = two_sensor
    marg = [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))]

    def utility(a1, a2, w1, w2):
        return min(F(w1) * a1 + F(w2) * a2 / 2, F(1))

    for idx, s in enumerate(strategies):
        expect = [F(0), F(0), F(0)]
        for w1 in (0, 1):
            for w2 in (0, 1):
                prob = marg[0][w1] * marg[1][w2]
                a1, a2 = _actions(spec, s, (w1, w2))
                expect[0] += prob * -utility(a1, a2, w1, w2)
                expect[1] += prob * a1
                expect[2] += prob * a2
        got = cs.compute_r_vector(spec, s)
        for k in range(3):
            assert abs(got[k] - float(expect[k])) < 1e-15


def test_two_sensor_drift_constant_exact_rational(two_sensor):
    from fractions import Fraction as F

    spec, strategies = two_sensor
    marg = [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))]
    c = F(1, 3)
    worst = F(0)
    for s in strategies:
        total = F(0)
        for w1 in (0, 1):
            for w2 in (0, 1):
                prob = marg[0][w1] * marg[1][w2]
                a1, a2 = _actions(spec, s, (w1, w2))
                total += prob * ((F(a1) - c) ** 2 + (F(a2) - c) ** 2)
        worst = max(worst, total / 2)
    assert worst == F(23, 72)
    from corrsched.online import compute_B

    assert abs(compute_B(spec, strategies) - float(worst)) < 1e-15


def test_nondecreasing_cap():
    spec = cs.ProblemSpec(
        action_sizes=(2, 2, 2),
        event_sizes=(30, 30, 30),
        distribution=cs.ProductDistribution(tuple(np.full(30, 1 / 30) for _ in range(3))),
        penalties=(cs.PowerPerUser(0),),
        constraints=(),
    )
    with pytest.raises(CapExceeded) as err:
        cs.enumerate_nondecreasing(spec, cap=10**4)
    assert err.value.size == 31**3


def test_r_vector_bounded_by_penalty_range(rng):
    for _ in range(10):
        spec = random_spec(rng, strategy_cap=24)
        tables = penalty_tables(spec)
        bound = np.abs(tables).reshape(len(tables), -1).max(axis=1)
        for s in cs.enumerate_all(spec):
            assert np.all(np.abs(cs.compute_r_vector(spec, s)) <= bound + 1e-12)


def test_strategy_action_table_matches_maps(two_sensor):
    spec, strategies = two_sensor
    table = strategy_action_table(spec, strategies)
    for i, s in enumerate(strategies):
        for wf in range(spec.n_events):
            omega = tuple(np.unravel_index(wf, spec.event_sizes))
            af = np.ravel_multi_index(_actions(spec, s, omega), spec.action_sizes)
            assert table[i, wf] == af
