import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import corrsched as cs
from corrsched import fixtures, simplex
from corrsched.simplex import CertificateError, IterationLimit, LpProblem, LpStatus, solve_lp

import oracles
from specgen import scaled_spec


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


def test_simplex_trivial_example(lp_paths):
    lp = LpProblem(
        cost=np.array([-1.0, 0.0]),
        a_ub=np.zeros((0, 2)),
        b_ub=np.zeros(0),
        a_eq=np.ones((1, 2)),
        b_eq=np.array([1.0]),
    )
    for _ in lp_paths():
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_simplex_infeasible(lp_paths):
    lp = LpProblem(
        cost=np.array([1.0]),
        a_ub=np.array([[1.0]]),
        b_ub=np.array([-1.0]),
        a_eq=np.zeros((0, 1)),
        b_eq=np.zeros(0),
    )
    for _ in lp_paths():
        assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_simplex_unbounded(lp_paths):
    lp = LpProblem(
        cost=np.array([-1.0]),
        a_ub=np.zeros((0, 1)),
        b_ub=np.zeros(0),
        a_eq=np.zeros((0, 1)),
        b_eq=np.zeros(0),
    )
    for _ in lp_paths():
        assert solve_lp(lp).status is LpStatus.UNBOUNDED


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


def test_simplex_redundant_equality_rows(lp_paths):
    # Duplicated equality rows: the redundant row's artificial stays basic, held at
    # zero, and its row's dual is 0.
    lp = LpProblem(
        cost=np.array([1.0, 2.0]),
        a_ub=np.zeros((0, 2)),
        b_ub=np.zeros(0),
        a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
        b_eq=np.array([1.0, 1.0]),
    )
    for _ in lp_paths():
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert sol.duals_eq.tolist() == [1.0, 0.0]


def test_simplex_degenerate_cycling_guard(lp_paths):
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
    for _ in lp_paths():
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(brute_force_lp(lp), abs=1e-9)


def test_simplex_matches_brute_force_on_random_lps(rng, lp_paths):
    lps = []
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
        lps.append((lp, brute_force_lp(lp)))
    for _ in lp_paths():
        solved = 0
        for lp, ref in lps:
            sol = solve_lp(lp)
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


def test_complementary_slackness(two_sensor, rng, lp_paths):
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
    for _ in lp_paths():
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
def test_iteration_limit_is_typed(limit, phase, lp_paths):
    # the two-sensor LP needs an artificial for its equality row, so phase 1
    # runs first: it takes one pivot, phase 2 three, and each phase spends one
    # more loop pass finding that it is optimal; a limit of 4 solves it.  A
    # spec of its own: no cached answer may stand in for the patched solve.
    for _ in lp_paths():
        spec = fixtures.two_sensor_spec()
        strategies = fixtures.two_sensor_strategies(spec)
        with mock.patch.object(simplex, "_iteration_limit", lambda m, n: limit):
            with pytest.raises(IterationLimit) as info:
                cs.solve_distributed_lp(spec, strategies)
        assert (info.value.phase, info.value.pivots) == (phase, limit)
        assert f"phase {phase}" in str(info.value)


@pytest.mark.parametrize("lam", [1e-10, 3e-10, 1e-9])
def test_scaled_two_sensor_lp_is_refused(lam, lp_paths):
    # Far below unit scale the reduced costs are smaller than the absolute
    # PIVOT_TOL, so Bland's rule stops at a vertex that is not optimal, with
    # the objectives 0, -lam/3 and -17 lam/36 in place of -23 lam/48.  The
    # certificate judges each reduced cost against its column's scale and
    # refuses the vertex.
    for _ in lp_paths():
        spec = scaled_spec(fixtures.two_sensor_spec(), lam)
        with pytest.raises(CertificateError, match="reduced cost of column"):
            cs.solve_distributed_lp(spec, cs.enumerate_all(spec))


@pytest.mark.parametrize("lam", [3e-9, 1.0])
def test_scaled_two_sensor_lp_is_certified(lam):
    spec = scaled_spec(fixtures.two_sensor_spec(), lam)
    policy = cs.solve_distributed_lp(spec, cs.enumerate_all(spec))
    assert policy.objective == pytest.approx(-23 / 48 * lam, rel=1e-12)


def test_row_and_cost_units_give_the_same_answer_or_a_refusal(rng, lp_paths):
    # Rows and costs scaled by powers of two, so exactly.  The absolute pivot
    # tolerances can then skip a tiny row or stop on tiny reduced costs; the
    # vertex they leave must be refused, never returned as a wrong OPTIMAL.
    pairs = []  # drawn as before: units only for an LP that is OPTIMAL at unit scale
    for _ in range(1000):
        n, m_ub = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        lp = LpProblem(
            cost=rng.uniform(-1, 1, n),
            a_ub=rng.uniform(0, 1, (m_ub, n)),
            b_ub=rng.uniform(0, 0.6, m_ub) * (rng.random(m_ub) > 0.2),
            a_eq=np.ones((1, n)),
            b_eq=np.ones(1),
        )
        if solve_lp(lp).status is not LpStatus.OPTIMAL:
            continue
        cost_unit = 2.0 ** int(rng.integers(-45, 46))
        row_units = 2.0 ** rng.integers(-45, 46, m_ub + 1)
        scaled = LpProblem(
            cost=lp.cost * cost_unit,
            a_ub=lp.a_ub * row_units[:m_ub, None],
            b_ub=lp.b_ub * row_units[:m_ub],
            a_eq=lp.a_eq * row_units[m_ub:, None],
            b_eq=lp.b_eq * row_units[m_ub:],
        )
        pairs.append((lp, scaled, cost_unit))
    for _ in lp_paths():
        checked = refused = 0
        for lp, scaled, cost_unit in pairs:
            ref = solve_lp(lp)
            if ref.status is not LpStatus.OPTIMAL:
                continue
            try:
                sol = solve_lp(scaled)
            except CertificateError:
                refused += 1
                continue
            if sol.status is LpStatus.OPTIMAL:
                checked += 1
                assert sol.objective / cost_unit == pytest.approx(ref.objective, rel=1e-9, abs=1e-12)
        assert checked >= 100 and refused >= 40


def test_degenerate_lps_are_certified(rng, monkeypatch, lp_paths):
    # Small integer data with repeated rows: degenerate vertices whose basic
    # variables and duals come out as rounding noise around 0.  Every optimum
    # must pass its certificate.  Phase 1 leaves artificials basic at zero in
    # many of them; phase 2 holds them there, and an entering column with an
    # entry past PIVOT_TOL in a held row, of either sign, takes that row at
    # ratio 0.  Spies on each path's iterate and pivot count those pivots by
    # the sign of the entry.
    lps = []
    for _ in range(2000):
        n, m_ub, m_eq = int(rng.integers(1, 7)), int(rng.integers(0, 4)), int(rng.integers(1, 3))
        a_ub = rng.integers(-3, 4, (m_ub, n)).astype(float)
        a_eq = rng.integers(-2, 3, (m_eq, n)).astype(float)
        b_ub = rng.integers(-2, 4, m_ub).astype(float)
        b_eq = rng.integers(-2, 3, m_eq).astype(float)
        k = float(rng.choice([1.0, -1.0, 2.0]))  # a redundant copy of an equality row
        a_eq, b_eq = np.vstack([a_eq, k * a_eq[:1]]), np.append(b_eq, k * b_eq[0])
        lps.append(LpProblem(rng.integers(-3, 4, n).astype(float), a_ub, b_ub, a_eq, b_eq))
    for path in lp_paths():
        leaves = {-1.0: 0, 1.0: 0}
        phase = {}
        iterate, pivot = (getattr(simplex, name + path) for name in ("_iterate", "_pivot"))

        def iterate_spy(columns, cost, basis, *args, **kwargs):
            phase.update(basis=basis, priced=len(columns))
            return iterate(columns, cost, basis, *args, **kwargs)

        def pivot_spy(binv, x_b, alpha, row):
            if phase["basis"][row] >= phase["priced"]:
                leaves[float(np.sign(alpha[row]))] += 1
            pivot(binv, x_b, alpha, row)

        monkeypatch.setattr(simplex, "_iterate" + path, iterate_spy)
        monkeypatch.setattr(simplex, "_pivot" + path, pivot_spy)
        optimal = 0
        for lp in lps:
            sol = solve_lp(lp)
            if sol.status is LpStatus.OPTIMAL:
                optimal += 1
                assert np.all(lp.a_ub @ sol.x <= lp.b_ub + 1e-9)
                assert np.allclose(lp.a_eq @ sol.x, lp.b_eq, atol=1e-9)
        assert optimal >= 300
        assert leaves[-1.0] >= 1 and leaves[1.0] >= 1, leaves  # 71 and 15 of them on both paths


def test_correlated_lp_memory_stays_near_r():
    # 2 users x 3 actions x 5 events: 3^10 = 59,049 strategies, K = 2
    rng = np.random.default_rng(7)
    spec = cs.ProblemSpec(
        action_sizes=(3, 3),
        event_sizes=(5, 5),
        distribution=cs.ProductDistribution((np.full(5, 0.2), np.full(5, 0.2))),
        penalties=(
            cs.FullTable(rng.uniform(-1.0, 1.0, (25, 9))),
            cs.PowerPerUser(0),
            cs.PowerPerUser(1),
        ),
        constraints=(0.3, 0.3),
    )
    strategies = cs.enumerate_all(spec)
    assert len(strategies) == 59_049
    r = cs.r_matrix(spec, strategies)
    lp = LpProblem(
        cost=r[:, 0],
        a_ub=r[:, 1:].T,
        b_ub=np.asarray(spec.constraints),
        a_eq=np.ones((1, len(strategies))),
        b_eq=np.array([1.0]),
    )
    tracemalloc.start()
    try:
        sol = solve_lp(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status is LpStatus.OPTIMAL
    assert peak < 3.5 * r.nbytes


@pytest.mark.parametrize("first", [1, 2, 3, 1024])
def test_blocks_tile_the_columns_doubling_with_no_one_column_block(first, monkeypatch):
    monkeypatch.setattr(simplex, "FIRST_BLOCK", first)
    for n in range(1, 5000):
        blocks = list(simplex._blocks(n))
        sizes = [hi - lo for lo, hi in blocks]
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert n == 1 or min(sizes) >= 2
        # every block but the last doubles; the last is cut at n or takes a one-column tail
        assert all(size == max(first, 2) << k for k, size in enumerate(sizes[:-1]))
        assert sizes[-1] <= (max(first, 2) << (len(sizes) - 1)) + 1


def _phase2_lp(rng, n, m, shift, last_block_only=False):
    """min c.x s.t. A x <= b, x >= 0 with A, b > 0, in the solver's column form: the
    structural and slack columns in a random order, the slacks as the basis."""
    order = rng.permutation(n + m)
    if last_block_only:
        # structural column 0 goes to a random place in the last block
        place = int(rng.integers(list(simplex._blocks(n + m))[-1][0], n + m))
        k = int(np.flatnonzero(order == place)[0])
        order[[0, k]] = order[[k, 0]]
    columns = np.empty((n + m, m))
    columns[order] = np.vstack([rng.uniform(0.05, 1.0, (n, m)), np.eye(m)])
    cost = np.zeros(n + m)
    cost[order[:n]] = rng.uniform(-shift, 1.0, n)
    if last_block_only:
        # at the slack basis y = 0, so its one negative reduced cost is past every other block
        cost[order[:n]] = np.abs(cost[order[:n]])
        cost[order[0]] = -1.0
    basis = order[n:].copy()
    return columns, cost, basis, rng.uniform(0.5, 1.0, m)


def _pivot_path(iterate, columns, cost, basis, b):
    """Run iterate from the basis; returns (the basis before each pivot and at the end, y, prices)."""
    bases = []
    pivot = simplex._pivot

    def spy(binv, x_b, alpha, row):
        bases.append(basis.copy())
        pivot(binv, x_b, alpha, row)

    binv, x_b, prices = np.eye(len(b)), b.copy(), np.full(len(columns), np.nan)
    with mock.patch.object(simplex, "_pivot", spy):
        y = iterate(columns, cost, basis, binv, x_b, prices)
    return bases + [basis], y, prices


@pytest.mark.parametrize("first,sizes", [
    (1, range(2, 40)),
    (2, range(2, 40)),
    (3, range(2, 50)),
    (None, (4990, 5000, 5119, 5121)),  # default blocks: 1024, 2048, then the rest
])
def test_block_pricing_pivots_as_a_full_pass(first, sizes, rng, monkeypatch):
    # Bland's rule enters the smallest index with a negative reduced cost; the
    # blocks must find the same one, so the pivots, y and the final reduced
    # costs come out bit-equal to pricing every column each time.
    if first is not None:
        monkeypatch.setattr(simplex, "FIRST_BLOCK", first)
    late_entries = interior_basics = 0
    for n_columns in sizes:
        for last_block_only in (False, True):
            m = int(rng.integers(1, 4)) if n_columns > 4 else 1
            columns, cost, start, b = _phase2_lp(
                rng, n_columns - m, m, float(rng.uniform(0.02, 1.0)), last_block_only
            )
            ref_bases, ref_y, _ = _pivot_path(oracles.full_pass_iterate, columns, cost, start.copy(), b)
            pivots = []

            def blocked(*args):
                y, count = simplex._iterate(*args, phase=2)
                pivots.append(count)
                return y

            bases, y, prices = _pivot_path(blocked, columns, cost, start.copy(), b)
            assert len(bases) == len(ref_bases) and pivots == [len(ref_bases) - 1]
            assert all(np.array_equal(a, r) for a, r in zip(bases, ref_bases))
            assert y.tobytes() == ref_y.tobytes()
            full = cost - columns @ y
            full[bases[-1]] = 0.0
            assert prices.tobytes() == full.tobytes()
            blocks = list(simplex._blocks(n_columns))
            if last_block_only and len(blocks) > 1:
                entered = np.setdiff1d(ref_bases[1], ref_bases[0])
                late_entries += int(entered[0] >= blocks[-1][0])
            interior_basics += any(lo < j < hi - 1 for lo, hi in blocks[:-1] for j in start)
    assert late_entries >= len(sizes) // 2
    assert interior_basics >= len(sizes) // 2


def test_block_pricing_solves_as_one_block(monkeypatch):
    # Whole solves with phase 1 and redundant equality rows, whose leftover
    # artificials phase 2 holds at zero under the same block pricing: blocks of
    # two or three columns give the bits of a single block over every column.
    # These LPs are below SCALAR_ENTRIES, so the numpy path, the one that
    # prices in blocks, is taken with the constant at 0.
    monkeypatch.setattr(simplex, "SCALAR_ENTRIES", 0)
    answers = {}
    for first in (10**9, 2, 3):
        monkeypatch.setattr(simplex, "FIRST_BLOCK", first)
        local = np.random.default_rng(5)
        answers[first] = []
        for _ in range(300):
            n, m_ub, m_eq = int(local.integers(1, 30)), int(local.integers(0, 4)), int(local.integers(1, 3))
            a_eq = local.integers(-2, 3, (m_eq, n)).astype(float)
            b_eq = local.integers(-2, 3, m_eq).astype(float)
            a_eq[:, : int(local.integers(0, n))] = 0.0  # a held row's first entry may lie past block 1
            lp = LpProblem(
                local.uniform(-1, 1, n),
                np.vstack([local.uniform(-1, 1, (m_ub, n)), np.ones(n)]),  # sum(x) <= 3 bounds it
                np.append(local.uniform(-0.2, 1, m_ub), 3.0),
                np.vstack([a_eq, a_eq[:1]]),  # a redundant copy of an equality row
                np.append(b_eq, b_eq[0]),
            )
            sol = solve_lp(lp)
            answers[first].append((sol.status, sol.pivots, *(
                None if v is None else np.asarray(v).tobytes()
                for v in (sol.x, sol.objective, sol.slack_ub, sol.duals_ub, sol.duals_eq)
            )))
    assert answers[2] == answers[10**9] and answers[3] == answers[10**9]
    statuses = [a[0] for a in answers[2]]
    assert statuses.count(LpStatus.OPTIMAL) >= 200
    assert sum(a[1][0] > 0 for a in answers[2]) >= 200  # phase 1 pivoted


def test_two_sensor_lp_reports_its_pivots_per_phase(two_sensor, lp_paths):
    spec, strategies = two_sensor
    r = cs.r_matrix(spec, strategies)
    for _ in lp_paths():
        # one pivot to bring the equality row's artificial out, three to the optimum
        sol = solve_lp(LpProblem(
            cost=r[:, 0],
            a_ub=r[:, 1:].T,
            b_ub=np.asarray(spec.constraints),
            a_eq=np.ones((1, len(strategies))),
            b_eq=np.array([1.0]),
        ))
        assert sol.pivots == (1, 3)
        # no artificial, so no phase 1; Bland's rule enters column 0, then column 1
        assert solve_lp(LpProblem(
            np.array([-1.0, -2.0]), np.array([[1.0, 1.0]]), np.array([1.0]), np.zeros((0, 2)), np.zeros(0)
        )).pivots == (0, 2)


@pytest.mark.parametrize("field", ["cost", "a_ub", "b_ub", "a_eq", "b_eq"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_are_refused(field, bad, lp_paths):
    # cost and a_ub as the correlated LP passes them: strided views of one r;
    # each path checks the values it copied before any pivot
    for _ in lp_paths():
        r = np.arange(12.0).reshape(4, 3)
        fields = {
            "cost": r[:, 0],
            "a_ub": r[:, 1:].T,
            "b_ub": np.array([1.0, 2.0]),
            "a_eq": np.ones((2, 4)),
            "b_eq": np.array([1.0, 1.0]),
        }
        solve_lp(LpProblem(**fields))
        if field == "cost":
            r[2, 0] = bad
        elif field == "a_ub":
            r[3, 2] = bad  # the last entry of the view's second row
        else:
            fields[field][-1] = bad  # the last row
        with pytest.raises(ValueError, match="LP coefficients must be finite"):
            solve_lp(LpProblem(**fields))


def _answer(sol):
    """An LpSolution's status, pivots and the bytes of its numbers."""
    return (sol.status, sol.pivots, *(
        None if v is None else np.asarray(v).tobytes()
        for v in (sol.x, sol.objective, sol.slack_ub, sol.duals_ub, sol.duals_eq)
    ))


def test_tiny_lp_answers_do_not_depend_on_the_input_layout():
    # The correlated LP passes cost and a_ub as strided views of r; the same
    # values in contiguous arrays must give the same bits.  Products of numpy
    # arrays need not: with cost @ x and a_ub @ x on the views, 35 of these
    # 200 LPs returned another objective or slack_ub.
    local = np.random.default_rng(11)
    for _ in range(200):
        n = int(local.integers(2, 25))
        r = np.column_stack([local.uniform(-1, 1, n), local.uniform(0, 1, (n, 2))])
        b = r[local.integers(0, n), 1:] + local.uniform(0, 0.3, 2)
        views = LpProblem(r[:, 0], r[:, 1:].T, b, np.ones((1, n)), np.ones(1))
        copies = LpProblem(r[:, 0].copy(), np.ascontiguousarray(r[:, 1:].T), b, np.ones((1, n)), np.ones(1))
        assert _answer(solve_lp(views)) == _answer(solve_lp(copies))


def test_float_and_array_paths_agree_on_the_corpus(lp_digests):
    # The LPs of scripts/lp_digests.py's corpus below SCALAR_ENTRIES, with two
    # offline-many-small batches for its twenty and none of offline-lp-531k:
    # the same status, support and pivots per phase on both paths, and x, the
    # objective and the duals within 1e-12 of each one's largest magnitude.
    lps = []

    class Recorder(lp_digests.Digests):
        def wrap(self, solve):
            def record(problem):
                lps.append((self.entry, problem))
                return solve(problem)

            return record

    many = lp_digests.perfbench_workloads().OfflineManySmall()
    with Recorder() as recorder:
        lp_digests.fixture_part(recorder)
        for i in range(2):
            recorder.run(f"{many.name} {i}", many.run, many.setup(lp_digests.WORKLOAD_SEED, i))
        lp_digests.specgen_part(recorder)
    sizes = [len(lp.cost) * (len(lp.b_ub) + len(lp.b_eq)) for _, lp in lps]
    assert all(size <= simplex.SCALAR_ENTRIES for (entry, _), size in zip(lps, sizes)
               if entry.startswith(many.name))
    tiny = [(entry, lp) for (entry, lp), size in zip(lps, sizes) if size <= simplex.SCALAR_ENTRIES]
    assert sum(entry.startswith(many.name) for entry, _ in tiny) == 204  # 120 a batch, 18 one-event
    # all but the three-sensor fixture's correlated LP, its epsilon_max LP and
    # compare_policies' correlated LP on a fresh copy of its spec
    assert len(lps) - len(tiny) == 3
    for entry, lp in tiny:
        floats = solve_lp(lp)
        with mock.patch.object(simplex, "SCALAR_ENTRIES", 0):
            arrays = solve_lp(lp)
        assert (floats.status, floats.pivots) == (arrays.status, arrays.pivots), entry
        if floats.status is not LpStatus.OPTIMAL:
            continue
        assert np.array_equal(np.flatnonzero(floats.x), np.flatnonzero(arrays.x)), entry
        for a, b in ((floats.x, arrays.x), (floats.objective, arrays.objective),
                     (floats.duals_ub, arrays.duals_ub), (floats.duals_eq, arrays.duals_eq)):
            a, b = np.atleast_1d(a), np.atleast_1d(b)
            assert np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0), entry
