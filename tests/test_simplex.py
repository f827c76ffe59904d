import itertools
from unittest import mock

import numpy as np
import pytest

import corrsched as cs
from corrsched import fixtures, simplex
from corrsched.simplex import IterationLimit, LpProblem, LpStatus, solve_lp


def brute_force_lp(problem, tol=1e-9):
    """Enumerate all basic solutions of the slack-form system; min feasible cost.

    Independent of the simplex: picks every candidate basis by brute force
    and solves with numpy.  Exponential, for tiny test problems only.
    """
    n = len(problem.cost)
    m_ub = len(problem.b_ub)
    a = np.vstack([np.hstack([problem.a_ub, np.eye(m_ub)]),
                   np.hstack([problem.a_eq, np.zeros((len(problem.b_eq), m_ub))])])
    b = np.concatenate([problem.b_ub, problem.b_eq])
    m = a.shape[0]
    cost = np.concatenate([problem.cost, np.zeros(m_ub)])
    best = None
    for cols in itertools.combinations(range(n + m_ub), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if np.any(x_b < -tol):
            continue
        x = np.zeros(n + m_ub)
        x[list(cols)] = x_b
        val = float(cost @ x)
        if best is None or val < best - 1e-15:
            best = val
    return best


def test_simplex_trivial_example():
    sol = solve_lp(
        LpProblem(
            cost=np.array([-1.0, 0.0]),
            a_ub=np.zeros((0, 2)),
            b_ub=np.zeros(0),
            a_eq=np.ones((1, 2)),
            b_eq=np.array([1.0]),
        )
    )
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_simplex_infeasible():
    sol = solve_lp(
        LpProblem(
            cost=np.array([1.0]),
            a_ub=np.array([[1.0]]),
            b_ub=np.array([-1.0]),
            a_eq=np.zeros((0, 1)),
            b_eq=np.zeros(0),
        )
    )
    assert sol.status is LpStatus.INFEASIBLE


def test_simplex_unbounded():
    sol = solve_lp(
        LpProblem(
            cost=np.array([-1.0]),
            a_ub=np.zeros((0, 1)),
            b_ub=np.zeros(0),
            a_eq=np.zeros((0, 1)),
            b_eq=np.zeros(0),
        )
    )
    assert sol.status is LpStatus.UNBOUNDED


def test_simplex_two_sensor_instance(two_sensor):
    spec, strategies = two_sensor
    r = cs.r_matrix(spec, strategies)
    lp = LpProblem(
        cost=r[:, 0],
        a_ub=r[:, 1:].T,
        b_ub=np.asarray(spec.constraints),
        a_eq=np.ones((1, len(strategies))),
        b_eq=np.array([1.0]),
    )
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-23 / 48, abs=1e-9)
    assert sol.objective == pytest.approx(brute_force_lp(lp), abs=1e-9)


def test_simplex_redundant_equality_rows():
    # Duplicated equality rows force artificial cleanup of a redundant row.
    sol = solve_lp(
        LpProblem(
            cost=np.array([1.0, 2.0]),
            a_ub=np.zeros((0, 2)),
            b_ub=np.zeros(0),
            a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
            b_eq=np.array([1.0, 1.0]),
        )
    )
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-12)


def test_simplex_degenerate_cycling_guard():
    # A classically degenerate instance; Bland's rule must terminate.
    lp = LpProblem(
        cost=np.array([-0.75, 150.0, -0.02, 6.0]),
        a_ub=np.array(
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        ),
        b_ub=np.array([0.0, 0.0, 1.0]),
        a_eq=np.zeros((0, 4)),
        b_eq=np.zeros(0),
    )
    sol = solve_lp(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(brute_force_lp(lp), abs=1e-9)


def test_simplex_matches_brute_force_on_random_lps(rng):
    solved = 0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m_ub = int(rng.integers(0, 4))
        m_eq = int(rng.integers(0, 2))
        lp = LpProblem(
            cost=rng.uniform(-1, 1, n),
            a_ub=rng.uniform(-1, 1, (m_ub, n)),
            b_ub=rng.uniform(-0.2, 1, m_ub),
            a_eq=rng.uniform(-1, 1, (m_eq, n)),
            b_eq=rng.uniform(-0.2, 1, m_eq),
        )
        sol = solve_lp(lp)
        ref = brute_force_lp(lp)
        if sol.status is LpStatus.OPTIMAL:
            solved += 1
            assert ref is not None
            # brute force has no unboundedness check, so it can only confirm
            # the optimum when one exists
            assert sol.objective <= ref + 1e-9
            assert sol.objective >= ref - 1e-9
            assert np.all(lp.a_ub @ sol.x <= lp.b_ub + 1e-9)
            assert np.allclose(lp.a_eq @ sol.x, lp.b_eq, atol=1e-9)
            assert np.all(sol.x >= -1e-12)
        elif sol.status is LpStatus.INFEASIBLE:
            assert ref is None
    assert solved >= 10


def test_simplex_solution_is_basic(two_sensor):
    spec, strategies = two_sensor
    r = cs.r_matrix(spec, strategies)
    lp = LpProblem(
        cost=r[:, 0],
        a_ub=r[:, 1:].T,
        b_ub=np.asarray(spec.constraints),
        a_eq=np.ones((1, len(strategies))),
        b_eq=np.array([1.0]),
    )
    sol = solve_lp(lp)
    # at most (#rows) nonzero variables in a basic solution
    assert np.count_nonzero(np.abs(sol.x) > 1e-12) <= 3


def test_complementary_slackness(two_sensor, rng):
    spec, strategies = two_sensor
    r = cs.r_matrix(spec, strategies)
    problems = [
        LpProblem(
            cost=r[:, 0],
            a_ub=r[:, 1:].T,
            b_ub=np.asarray(spec.constraints),
            a_eq=np.ones((1, len(strategies))),
            b_eq=np.array([1.0]),
        )
    ]
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m_ub = int(rng.integers(1, 4))
        problems.append(
            LpProblem(
                cost=rng.uniform(-1, 1, n),
                a_ub=rng.uniform(-1, 1, (m_ub, n)),
                b_ub=rng.uniform(0.1, 1, m_ub),
                a_eq=np.ones((1, n)),
                b_eq=np.array([1.0]),
            )
        )
    checked = 0
    for lp in problems:
        sol = solve_lp(lp)
        if sol.status is not LpStatus.OPTIMAL:
            continue
        checked += 1
        # primal-dual objective agreement and complementary slackness
        dual_obj = float(sol.duals_ub @ lp.b_ub + sol.duals_eq @ lp.b_eq)
        assert dual_obj == pytest.approx(sol.objective, abs=1e-7)
        reduced = lp.cost - sol.duals_ub @ lp.a_ub - sol.duals_eq @ lp.a_eq
        assert np.all(reduced >= -1e-7)
        assert np.max(np.abs(reduced * sol.x)) <= 1e-7
        assert np.max(np.abs(sol.duals_ub * sol.slack_ub)) <= 1e-7
    assert checked >= 10


@pytest.mark.parametrize("limit,phase", [(0, 1), (1, 1), (2, 2), (3, 2)])
def test_iteration_limit_is_typed(limit, phase):
    # the two-sensor LP needs an artificial for its equality row, so phase 1
    # runs first: it takes one pivot, phase 2 three, and each phase spends one
    # more loop pass finding that it is optimal; a limit of 4 solves it.  A
    # spec of its own: no cached answer may stand in for the patched solve.
    spec = fixtures.two_sensor_spec()
    strategies = fixtures.two_sensor_strategies(spec)
    with mock.patch.object(simplex, "_iteration_limit", lambda m, n: limit):
        with pytest.raises(IterationLimit) as info:
            cs.solve_distributed_lp(spec, strategies)
    assert (info.value.phase, info.value.pivots) == (phase, limit)
    assert f"phase {phase}" in str(info.value)
