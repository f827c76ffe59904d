import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrsched as cs
from corrsched import fixtures
from corrsched.problem import penalty_tables
from corrsched.strategy import strategy_event_penalties

import oracles
from specgen import random_separable_spec, scaled_spec
from test_kernel import separable_spec


def test_dpp_select_two_sensor(two_sensor):
    spec, strategies = two_sensor
    r = cs.r_matrix(spec, strategies)
    m = oracles.dpp_select(r, np.zeros(2), 1.0)
    assert r[m, 0] == pytest.approx(-13 / 16, abs=1e-15)  # most negative objective

    assert oracles.dpp_select(r, np.zeros(2), 0.0) == 0  # full tie, lowest index

    m = oracles.dpp_select(r, np.array([1e6, 1e6]), 1.0)
    assert strategies[m].tolist() == [0, 0, 0, 0]  # huge queues force idling


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), lam=st.floats(0.01, 100.0))
def test_dpp_select_scale_invariant(seed, lam):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(1, 12))
    k = int(gen.integers(0, 4))
    r = gen.uniform(-1, 1, (m, k + 1))
    q = gen.uniform(0, 3, k)
    v = float(gen.uniform(0.1, 10))
    assert oracles.dpp_select(r, q, v) == oracles.dpp_select(r, lam * q, lam * v)


def test_rolling_estimator_repeated_sample(two_sensor):
    spec, strategies = two_sensor
    pen = strategy_event_penalties(spec, strategies)
    est = cs.RollingEstimator(pen, window=5)
    for _ in range(9):
        est.push(np.array([3]))
    assert np.array_equal(oracles.window_estimate(est), pen[3])


def test_rolling_estimator_window_one(two_sensor):
    spec, strategies = two_sensor
    pen = strategy_event_penalties(spec, strategies)
    est = cs.RollingEstimator(pen, window=1)
    for wf in (0, 3, 1):
        est.push(np.array([wf]))
        assert np.array_equal(oracles.window_estimate(est), pen[wf])


def test_rolling_estimator_matches_recomputed_mean(two_sensor, rng):
    spec, strategies = two_sensor
    pen = strategy_event_penalties(spec, strategies)
    est = cs.RollingEstimator(pen, window=17)
    stream = rng.integers(0, spec.n_events, 100)
    for i, wf in enumerate(stream):
        est.push(stream[i : i + 1])
        lo = max(0, i - 16)
        expect = pen[stream[lo : i + 1]].mean(axis=0)
        assert np.max(np.abs(oracles.window_estimate(est) - expect)) < 1e-12


def test_approx_update_and_select_empty_then_filled(two_sensor):
    spec, strategies = two_sensor
    pen = strategy_event_penalties(spec, strategies)
    est = cs.RollingEstimator(pen, window=4)
    assert oracles.window_select(est, np.zeros(2), 1.0) == 0  # no samples yet: tie-break
    est.push(np.array([3]))
    m = oracles.window_select(est, np.zeros(2), 1.0)
    r = cs.r_matrix(spec, strategies)
    # a single buffered sample is an exact one-sample average
    scores = pen[3] @ np.array([1.0, 0.0, 0.0])
    assert m == int(np.argmin(scores))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    window=st.integers(1, 20),
    runs=st.integers(1, 5),
    slots=st.integers(0, 60),
)
def test_window_of_many_runs_equals_one_window_per_run(seed, window, runs, slots):
    gen = np.random.default_rng(seed)
    n_events, m, k = (int(gen.integers(1, hi)) for hi in (9, 12, 5))
    pen = gen.uniform(-1, 1, (n_events, m, k)) * 10.0 ** gen.integers(-3, 4, (n_events, m, k))
    streams = gen.integers(0, n_events, (slots, runs))
    many = cs.RollingEstimator(pen, window, runs)
    for events in streams:
        many.push(events)
    for j in range(runs):
        one = cs.RollingEstimator(pen, window)
        for events in streams[:, j : j + 1]:
            one.push(events)
        assert many.count == one.count == min(slots, window)
        assert many.sums[j].tobytes() == one.sums[0].tobytes()


@pytest.mark.parametrize("events", [[1], [1, 2, 3]])
def test_window_push_needs_one_event_per_run(two_sensor, events):
    spec, strategies = two_sensor
    est = cs.RollingEstimator(strategy_event_penalties(spec, strategies), window=3, runs=2)
    with pytest.raises(ValueError, match="zip"):
        est.push(np.array(events))


def test_separable_components_power_only():
    spec = cs.ProblemSpec(
        action_sizes=(2, 2),
        event_sizes=(2, 2),
        distribution=cs.ProductDistribution((np.array([0.5, 0.5]), np.array([0.5, 0.5]))),
        penalties=(cs.PowerPerUser(0), cs.PowerPerUser(1)),
        constraints=(0.5,),
    )
    comps, _ = cs.separable_components(spec)
    # large queue pressure makes idling optimal for every user
    actions = oracles.separable_select(spec, comps, np.array([100.0]), 1.0, (1, 1))
    assert actions == (0, 0)
    # zero weights tie every action; lowest index wins
    assert oracles.separable_select(spec, comps, np.array([0.0]), 0.0, (1, 1)) == (0, 0)


def test_separable_rejects_saturating_utility(two_sensor):
    spec, _ = two_sensor
    assert cs.separable_components(spec) is None


@pytest.mark.parametrize("lam", [1e-10, 1e-6, 1.0, 1e6])
def test_separable_check_does_not_depend_on_units(two_sensor, lam):
    spec, _ = two_sensor
    assert cs.separable_components(scaled_spec(spec, lam)) is None
    assert cs.separable_components(scaled_spec(separable_spec(), lam)) is not None


def test_separable_matches_exhaustive_on_random_specs(rng):
    for _ in range(15):
        spec = random_separable_spec(rng)
        comps, tables = cs.separable_components(spec)
        assert np.array_equal(tables, penalty_tables(spec))
        strategies = cs.enumerate_all(spec)
        r = cs.r_matrix(spec, strategies)
        q = rng.uniform(0, 5, spec.n_constraints)
        v = float(rng.uniform(0, 10))
        weights = np.concatenate(([v], q))
        chosen = oracles.separable_strategy(comps, q, v)
        chosen_score = oracles.compute_r_vector(spec, chosen) @ weights
        best_score = (r @ weights).min()
        assert chosen_score == pytest.approx(best_score, abs=1e-12)
        # per-event actions agree with the chosen strategy map
        omega = tuple(int(rng.integers(0, w)) for w in spec.event_sizes)
        maps = cs.user_maps(spec, chosen)
        assert oracles.separable_select(spec, comps, q, v, omega) == tuple(
            int(g[w]) for g, w in zip(maps, omega)
        )


def test_compute_b_two_sensor(two_sensor):
    spec, strategies = two_sensor
    by_row = {tuple(s.tolist()): s for s in strategies}
    never = by_row[(0, 0, 0, 0)]
    assert cs.compute_B(spec, [never]) == pytest.approx(1 / 9, abs=1e-12)
    assert cs.compute_B(spec, strategies) == pytest.approx(23 / 72, abs=1e-12)


def test_compute_b_no_constraints():
    spec = fixtures.counterexample_spec()
    assert cs.compute_B(spec, cs.enumerate_all(spec)) == 0.0


def test_performance_bound_arithmetic():
    val = cs.performance_bound(1.0, 0, 100.0, 10**6, 0.0, -23 / 48)
    assert val == pytest.approx(-23 / 48 + 0.01, abs=1e-12)
    # decreasing in t
    assert cs.performance_bound(1.0, 2, 10.0, 10, 5.0, 0.0) > cs.performance_bound(
        1.0, 2, 10.0, 100, 5.0, 0.0
    )
    # doubling V halves the additive gap
    gap1 = cs.performance_bound(1.0, 3, 10.0, 10**9, 0.0, 0.0)
    gap2 = cs.performance_bound(1.0, 3, 20.0, 10**9, 0.0, 0.0)
    assert gap1 == pytest.approx(2 * gap2, rel=1e-9)
    # an array of t gives the scalar bound at each t, bit for bit
    ts = np.array([1.0, 7.0, 1e6])
    assert list(cs.performance_bound(1.0, 2, 10.0, ts, 5.0, -0.25)) == [
        cs.performance_bound(1.0, 2, 10.0, int(t), 5.0, -0.25) for t in ts
    ]
    with pytest.raises(ValueError):
        cs.performance_bound(1.0, 0, 0.0, 10, 0.0, 0.0)
    with pytest.raises(ValueError):
        cs.performance_bound(1.0, 0, 1.0, np.array([3.0, 0.0]), 0.0, 0.0)


def test_slater_queue_bound_values():
    # rate constant at eps = delta = 1 is 1/(1 + 1/3) = 3/4
    rate = 1.0 / (1.0 + 1.0 / 3.0)
    assert rate == pytest.approx(0.75)
    val = cs.slater_queue_bound(2.0, 1.0, 1.0, 100)
    expect = max(
        math.log(2) / rate,
        max(4.0, 0.5) + math.log(2 * 100 * (math.exp(rate) - 1)) / rate,
    )
    assert val == pytest.approx(expect, abs=1e-12)


def test_slater_queue_bound_array_matches_scalar():
    t = np.array([1, 2, 7, 1000, 10**6])
    bounds = cs.slater_queue_bound(5.0, 0.5, 1.5, t)
    for ti, bound in zip(t, bounds):
        assert bound == pytest.approx(cs.slater_queue_bound(5.0, 0.5, 1.5, int(ti)), rel=1e-12)


def test_slater_queue_bound_log_growth():
    vals = [cs.slater_queue_bound(5.0, 0.5, 1.5, t) for t in (10**4, 2 * 10**4)]
    rate = 0.5 / (1.5**2 + 0.5 * 1.5 / 3)
    assert vals[1] - vals[0] == pytest.approx(math.log(2) / rate, abs=1e-9)


def test_compute_f_dominates_gap(two_sensor):
    spec, strategies = two_sensor
    r = cs.r_matrix(spec, strategies)
    p0_opt = cs.solve_distributed_lp(spec, strategies).objective
    f = cs.compute_F(spec, r, p0_opt)
    # must dominate p0_opt - E[p0] for any strategy mixture
    assert f >= float(np.max(p0_opt - r[:, 0]))
    assert f >= 0
