"""Dense two-phase primal simplex with Bland's rule.

Built for small, well-scaled problems where the answer must be a basic
feasible optimum: downstream code reads the support bound of correlated
policies straight off the vertex structure, which interior-point or
presolving solvers would destroy.  Minimizes c.x subject to
A_ub.x <= b_ub, A_eq.x = b_eq, x >= 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class Infeasible(Exception):
    """Raised by wrappers that cannot return a policy for an infeasible LP."""


class IterationLimit(RuntimeError):
    """The simplex made its pivot limit in one phase without reaching an optimum."""

    def __init__(self, phase: int, pivots: int):
        super().__init__(
            f"simplex phase {phase} stopped at its iteration limit after {pivots} pivots"
        )
        self.phase = phase
        self.pivots = pivots


@dataclass(frozen=True, eq=False)
class LpProblem:
    cost: np.ndarray
    a_ub: np.ndarray  # (m_ub, n)
    b_ub: np.ndarray
    a_eq: np.ndarray  # (m_eq, n)
    b_eq: np.ndarray

    def __post_init__(self):
        n = len(self.cost)
        object.__setattr__(self, "cost", np.asarray(self.cost, dtype=float))
        object.__setattr__(self, "a_ub", np.asarray(self.a_ub, dtype=float).reshape(-1, n))
        object.__setattr__(self, "b_ub", np.asarray(self.b_ub, dtype=float).reshape(-1))
        object.__setattr__(self, "a_eq", np.asarray(self.a_eq, dtype=float).reshape(-1, n))
        object.__setattr__(self, "b_eq", np.asarray(self.b_eq, dtype=float).reshape(-1))
        if not (
            np.all(np.isfinite(self.cost))
            and np.all(np.isfinite(self.a_ub))
            and np.all(np.isfinite(self.b_ub))
            and np.all(np.isfinite(self.a_eq))
            and np.all(np.isfinite(self.b_eq))
        ):
            raise ValueError("LP coefficients must be finite")


@dataclass(eq=False)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None  # structural variables only
    objective: float | None = None
    slack_ub: np.ndarray | None = None
    duals_ub: np.ndarray | None = None
    duals_eq: np.ndarray | None = None


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    piv = tab[row].copy()
    factor = tab[:, col].copy()
    factor[row] = 0.0
    tab -= np.outer(factor, piv)
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def _iteration_limit(m: int, n: int) -> int:
    """Pivots one phase may make on an (m, n+1) tableau."""
    return 1000 + 50 * (m + n)


def _iterate(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray, phase: int) -> LpStatus:
    """Run Bland-rule pivots to optimality or unboundedness.

    tab is the augmented (m, n+1) tableau kept in basis-reduced form; basis
    lists the basic variable of each row.  Bland's rule (smallest entering
    index, smallest-index leaving variable on ratio ties) precludes cycling.
    Raises IterationLimit, naming the phase, when the pivots run out.
    """
    m, w = tab.shape
    n = w - 1
    max_iter = _iteration_limit(m, n)
    for _ in range(max_iter):
        y = cost[basis] @ tab[:, :n]
        reduced = cost[:n] - y
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced < -PIVOT_TOL)
        if entering.size == 0:
            return LpStatus.OPTIMAL
        j = int(entering[0])
        col = tab[:, j]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return LpStatus.UNBOUNDED
        ratios = tab[rows, n] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-15 * (1.0 + abs(best))]
        leave = int(ties[np.argmin(basis[ties])])
        _pivot(tab, leave, j)
        basis[leave] = j
    raise IterationLimit(phase, max_iter)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase simplex; returns a basic optimal solution when one exists."""
    n = len(problem.cost)
    m_ub = len(problem.b_ub)
    m_eq = len(problem.b_eq)
    m = m_ub + m_eq

    # Equality form: [A_ub I; A_eq 0] with rows sign-normalized to b >= 0.
    a = np.zeros((m, n + m_ub))
    a[:m_ub, :n] = problem.a_ub
    a[:m_ub, n : n + m_ub] = np.eye(m_ub)
    a[m_ub:, :n] = problem.a_eq
    b = np.concatenate([problem.b_ub, problem.b_eq])
    flip = b < 0
    a[flip] *= -1.0
    b = np.abs(b)

    n_sl = n + m_ub
    need_art = [i for i in range(m) if i >= m_ub or flip[i]]
    n_art = len(need_art)
    tab = np.zeros((m, n_sl + n_art + 1))
    tab[:, :n_sl] = a
    tab[:, -1] = b
    basis = np.zeros(m, dtype=np.int64)
    next_art = n_sl
    for i in range(m):
        if i < m_ub and not flip[i]:
            basis[i] = n + i
        else:
            tab[i, next_art] = 1.0
            basis[i] = next_art
            next_art += 1

    keep_rows = np.ones(m, dtype=bool)
    if n_art:
        cost1 = np.zeros(n_sl + n_art)
        cost1[n_sl:] = 1.0
        status = _iterate(tab, basis, cost1, phase=1)
        if status is not LpStatus.OPTIMAL:  # phase 1 is always bounded below by 0
            raise RuntimeError("phase 1 terminated abnormally")
        if float(cost1[basis] @ tab[:, -1]) > FEAS_TOL:
            return LpSolution(status=LpStatus.INFEASIBLE)
        # Drive leftover artificials out of the basis; an all-zero row is a
        # redundant constraint and gets dropped.
        for i in range(m):
            if basis[i] >= n_sl:
                pivots = np.flatnonzero(np.abs(tab[i, :n_sl]) > PIVOT_TOL)
                if pivots.size:
                    _pivot(tab, i, int(pivots[0]))
                    basis[i] = int(pivots[0])
                else:
                    keep_rows[i] = False
        tab = tab[keep_rows][:, list(range(n_sl)) + [-1]]
        basis = basis[keep_rows]

    cost2 = np.zeros(n_sl)
    cost2[:n] = problem.cost
    status = _iterate(tab, basis, cost2, phase=2)
    if status is LpStatus.UNBOUNDED:
        return LpSolution(status=status)

    x_full = np.zeros(n_sl)
    x_full[basis] = tab[:, -1]
    x = x_full[:n]
    objective = float(problem.cost @ x)

    # Duals from the original basis columns: B^T y = c_B, ordered [ub | eq].
    a_rows = a[keep_rows]
    sign = np.where(flip[keep_rows], -1.0, 1.0)
    duals_kept = None
    try:
        basis_cols = a_rows[:, basis]
        y = np.linalg.solve(basis_cols.T, cost2[basis])
        duals_kept = y * sign  # undo the row sign normalization
    except np.linalg.LinAlgError:
        pass
    duals = np.zeros(m)
    if duals_kept is not None:
        duals[keep_rows] = duals_kept
    slack_ub = problem.b_ub - problem.a_ub @ x
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective=objective,
        slack_ub=slack_ub,
        duals_ub=duals[:m_ub],
        duals_eq=duals[m_ub:],
    )
