from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrsched as cs
from corrsched import analysis, fixtures, optimizer
from corrsched.simplex import LpProblem, LpStatus, solve_lp

import oracles
from specgen import (
    feasible_constraints,
    random_preferred_spec,
    random_separable_spec,
    random_spec,
    scaled_spec,
)


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
    assert oracles.compute_r_vector(spec, both_ones)[0] == pytest.approx(
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
                    u = -oracles.eval_penalty(spec, 0, (a1, a2), (w1, w2))
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


def _monotone_grid_spec():
    """2 x 7 binary sensors: 16,384 strategies, so the probe grid is the 64 monotone rows."""
    levels = np.arange(7, dtype=float)
    return cs.ProblemSpec(
        action_sizes=(2, 2),
        event_sizes=(7, 7),
        distribution=cs.ProductDistribution(
            (np.array([0.3, 0.2, 0.15, 0.1, 0.1, 0.1, 0.05]), np.full(7, 1 / 7))
        ),
        penalties=(
            cs.MinSumUtilityNeg(weights=(levels / 6.0, levels / 12.0), cap=1.0),
            cs.PowerPerUser(0),
            cs.PowerPerUser(1),
        ),
        constraints=(0.3, 0.4),
    )


# probed_values written by the per-user conditional pricing that the corner
# mixture replaced; the two sum in different orders, hence the 1e-12 tolerance
PINNED_PROBES = {
    "two_sensor": [
        0.0, 0.16666666666666666, 0.0, 0.08333333333333333, 0.3333333333333333,
        0.4444444444444445, 0.3333333333333333, 0.38888888888888895, 0.0,
        0.16666666666666666, 0.0, 0.08333333333333333, 0.25, 0.375, 0.25,
        0.31250000000000006,
    ],
    "monotone_grid": [
        0.0, 0.07142857142857142, 0.13095238095238096, 0.16666666666666663,
        0.1500000000000001, 0.1333333333333335, 0.11666666666666682, 0.10000000000000013,
        0.05, 0.11785714285714287, 0.17440476190476195, 0.20833333333333326,
        0.19250000000000012, 0.17666666666666683, 0.1608333333333335, 0.14500000000000016,
        0.13333333333333333, 0.19642857142857142, 0.249404761904762, 0.2816666666666666,
        0.2675, 0.2533333333333335, 0.23861111111111136, 0.2235714285714288,
        0.20000000000000004, 0.26071428571428573, 0.3124999999999999, 0.34499999999999975,
        0.3316666666666666, 0.31799999999999995, 0.3036111111111115, 0.2888095238095239,
        0.21428571428571427, 0.2765306122448981, 0.32942176870748313, 0.36238095238095275,
        0.3485714285714286, 0.33447619047619026, 0.3197619047619044, 0.30469387755102023,
        0.18, 0.24499999999999997, 0.29988095238095236, 0.33366666666666667,
        0.3190000000000001, 0.3041333333333335, 0.2888333333333334, 0.2732857142857141,
        0.14285714285714304, 0.20969387755102062, 0.26590136054421787, 0.3002380952380953,
        0.2849999999999999, 0.26961904761904787, 0.2539285714285713, 0.23806122448979594,
        0.10000000000000003, 0.16821428571428582, 0.22541666666666674, 0.26016666666666666,
        0.2445000000000001, 0.2287333333333331, 0.21275, 0.19664285714285712,
    ],
}


@pytest.mark.parametrize(
    "name,builder",
    [("two_sensor", fixtures.two_sensor_spec), ("monotone_grid", _monotone_grid_spec)],
)
def test_probed_values_pinned(name, builder):
    probed = cs.compare_policies(builder()).probed_values
    assert len(probed) == len(PINNED_PROBES[name])
    assert np.allclose(probed, PINNED_PROBES[name], rtol=0, atol=1e-12)


def test_probe_grid_cap():
    # 3^20 strategies, pruned to 66^2 = 4356 monotone ones for the LP, which
    # is still past the probe grid's cap
    levels = np.arange(10, dtype=float)
    spec = cs.ProblemSpec(
        action_sizes=(3, 3),
        event_sizes=(10, 10),
        distribution=cs.ProductDistribution((np.full(10, 0.1), np.full(10, 0.1))),
        penalties=(
            cs.MinSumUtilityNeg(weights=(levels / 10.0, levels / 20.0), cap=100.0),
            cs.PowerPerUser(0),
            cs.PowerPerUser(1),
        ),
        constraints=(0.5, 0.5),
    )
    assert cs.prune_applicable(spec)
    with pytest.raises(cs.CapExceeded) as info:
        cs.compare_policies(spec)
    assert (info.value.size, info.value.cap) == (4356, 4096)


def _spy_ascent(spec):
    """The (corners, result) of every _ascend_mixture call compare_policies makes."""
    calls = []
    ascend = analysis._ascend_mixture

    def spy(spec_, corners):
        calls.append((corners, ascend(spec_, corners)))
        return calls[-1][1]

    with mock.patch.object(analysis, "_ascend_mixture", spy):
        cs.compare_policies(spec)
    return calls


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_corner_mixture_matches_independent_policy(seed):
    gen = np.random.default_rng(seed)
    spec = random_spec(gen, max_users=3, strategy_cap=64, anchor="pure")
    [(corners, _)] = _spy_ascent(spec)
    grid = cs.enumerate_all(spec)
    assert len(corners) == len(grid)
    etas = gen.uniform(0.0, 1.0, (len(grid), spec.n_users))
    mixed = analysis._mix(corners, etas)
    for row, lane, eta_row in zip(grid, mixed, etas):
        conditionals = []
        for eta, base, a in zip(eta_row, cs.user_maps(spec, row), spec.action_sizes):
            idle = np.eye(a)[np.zeros_like(base)]
            conditionals.append((1.0 - eta) * idle + eta * np.eye(a)[base])
        want = oracles.evaluate_independent_policy(spec, conditionals)
        assert np.allclose(lane, want, rtol=0, atol=1e-12)


def _assert_ascent_matches_oracle(spec):
    calls = _spy_ascent(spec)
    for corners, best in calls:
        assert best.shape == (len(corners), spec.n_constraints + 1)
        for probe, got in zip(corners, best):
            want = oracles.ascend_mixture(spec, probe)
            if want is None:
                assert np.all(np.isnan(got))
            else:
                assert np.array_equal(got, want)
    return calls


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), preferred=st.booleans())
def test_batched_ascent_matches_scalar_oracle(seed, preferred):
    gen = np.random.default_rng(seed)
    if preferred:  # prune_applicable holds, so the LP runs on the monotone set
        spec = random_preferred_spec(gen, anchor="pure")
    else:
        spec = random_spec(gen, max_users=3, strategy_cap=64, anchor="pure")
    assert len(_assert_ascent_matches_oracle(spec)) == 1


def test_batched_ascent_matches_scalar_oracle_on_monotone_grid():
    assert len(_assert_ascent_matches_oracle(_monotone_grid_spec())) == 1


def test_probe_batches_bound_the_corner_rows():
    # 7 one-event binary users: 128 probes x 2^7 corners = 16,384 corner rows,
    # four batches of 32 probes under PROBE_COMBO_CAP = 4096 rows each
    gen = np.random.default_rng(7)
    n = 7
    shape = dict(
        action_sizes=(2,) * n,
        event_sizes=(1,) * n,
        distribution=cs.ProductDistribution((np.ones(1),) * n),
        penalties=(
            cs.FullTable(gen.uniform(-1.0, 1.0, (1, 2**n))),
            cs.FullTable(gen.uniform(0.0, 1.0, (1, 2**n))),
        ),
    )
    stub = cs.ProblemSpec(**shape, constraints=(0.0,))
    spec = cs.ProblemSpec(**shape, constraints=feasible_constraints(gen, stub, 1, anchor="pure"))
    calls = _assert_ascent_matches_oracle(spec)
    assert [len(corners) for corners, _ in calls] == [32] * 4


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_compare_policies_prices_unpruned_set_once(seed):
    if seed is None:
        spec = fixtures.counterexample_spec()
    else:
        spec = random_spec(np.random.default_rng(seed), strategy_cap=64, anchor="pure")
    assert not cs.prune_applicable(spec)
    strategies = cs.enumerate_all(spec)
    assert len(strategies) <= analysis.PROBE_COMBO_CAP
    with mock.patch.object(analysis, "r_matrix", wraps=cs.r_matrix) as probe_r, \
            mock.patch.object(optimizer, "r_matrix", wraps=cs.r_matrix) as lp_r:
        report = cs.compare_policies(spec)
    # the spec's offline model prices the set for the LP, and the probe reuses it
    assert (probe_r.call_count, lp_r.call_count) == (0, 1)
    # an explicit r bypasses the model: a fresh solve of the same LP
    fresh = cs.solve_distributed_lp(spec, strategies, r=cs.r_matrix(spec, strategies))
    assert report.distributed_opt == fresh.utility


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


@pytest.mark.parametrize("lam", [1e-9, 1e-6, 1e-3, 1.0, 1e6, 1e9])
def test_epsilon_max_scales_with_the_penalties(two_sensor, lam):
    # every penalty and budget times lam: the slack is lam times the unscaled 1/3
    spec, strategies = two_sensor
    assert cs.epsilon_max(scaled_spec(spec, lam), strategies) == pytest.approx(lam / 3, rel=1e-9)


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
    # pinned bit for bit
    pinned = (report.p0_opt, report.b_const, report.worst_perf_margin,
              report.queue_bound_max_residual)
    assert [float.hex(x) for x in pinned] == [
        "-0x1.eaaaaaaaaaaaap-2", "0x1.471c71c71c71dp-2", "-0x1.c713514fc0ad1p-7",
        "0x1.2000000000000p-50",
    ]


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
