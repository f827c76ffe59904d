"""Two-phase revised primal simplex with Bland's rule, certified before it returns.

Built for LPs with few rows and many columns whose answer must be a basic
feasible optimum: downstream code reads the support bound of correlated
policies straight off the vertex structure, which interior-point or
presolving solvers would destroy.  Minimizes c.x subject to
A_ub.x <= b_ub, A_eq.x = b_eq, x >= 0.

The solver keeps an explicit (m, m) inverse of the basis, x_B and one
contiguous (n_columns, m) copy of the sign-normalized columns (structural,
slack and artificial).  Each iteration prices the columns in blocks that
double in size from column 0 and stops at the first block that holds a
negative reduced cost, which is where Bland's rule finds its entering column
(partial pricing; Maros, Computational Techniques of the Simplex Method,
2003, ch. 9).  It then solves for the entering column and updates the
inverse by one pivot (the revised simplex of Dantzig & Orchard-Hays, 1954).
The last pass of a phase finds no negative reduced cost, so it prices every
column.  Phase 2 prices the structural and slack columns only; an artificial
that phase 1 left basic, at zero, is held there until a pivot takes it out at
ratio 0 (see ``_iterate``), and one in a redundant row stays, with dual 0.  An
optimum is returned only after it passes a certificate in which every row and
column is judged against its own scale; a failure raises CertificateError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
CERT_TOL = 1e-9
FIRST_BLOCK = 1024  # columns in the first pricing block; each later block doubles


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


class CertificateError(RuntimeError):
    """An optimum the simplex reached failed its optimality certificate."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    cost: np.ndarray
    a_ub: np.ndarray  # (m_ub, n)
    b_ub: np.ndarray
    a_eq: np.ndarray  # (m_eq, n)
    b_eq: np.ndarray

    def __post_init__(self):
        n = len(self.cost)
        shapes = {"cost": -1, "a_ub": (-1, n), "b_ub": -1, "a_eq": (-1, n), "b_eq": -1}
        for name, shape in shapes.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(shape))


@dataclass(eq=False)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None  # structural variables only
    objective: float | None = None
    slack_ub: np.ndarray | None = None
    duals_ub: np.ndarray | None = None
    duals_eq: np.ndarray | None = None
    pivots: tuple[int, int] = (0, 0)  # per phase


def _pivot(binv: np.ndarray, x_b: np.ndarray, alpha: np.ndarray, row: int) -> None:
    """Bring the column alpha = B^-1 A_j into the basis at row: one eta update of B^-1 and x_B."""
    pivot = alpha[row]
    binv[row] /= pivot
    x_b[row] /= pivot
    factor = alpha.copy()
    factor[row] = 0.0
    binv -= factor[:, None] * binv[row]
    x_b -= factor * x_b[row]


def _iteration_limit(m: int, n: int) -> int:
    """Pivots one phase may make with m rows and n priced columns."""
    return 1000 + 50 * (m + n)


def _blocks(n: int):
    """(lo, hi) of the pricing blocks over n columns: FIRST_BLOCK columns, then doubling.

    No block has a single column unless n is 1, so a one-column tail joins the
    block before it: numpy computes a one-row product by another path, whose
    bits can differ from the same row's in a longer product.
    """
    lo, size = 0, max(FIRST_BLOCK, 2)
    while lo < n:
        hi = min(lo + size, n)
        if hi == n - 1:
            hi = n
        yield lo, hi
        lo, size = hi, 2 * size


def _iterate(columns, cost, basis, binv, x_b, prices, phase: int) -> tuple[np.ndarray | None, int]:
    """Run Bland-rule pivots to optimality; return (the duals y, or None when unbounded; pivots).

    Every iteration writes the reduced costs c - columns @ y into prices,
    with the basic columns' set to 0, one block of ``_blocks`` at a time,
    and stops at the first block that holds one below -PIVOT_TOL: its first
    such column is the smallest entering index, as a pass over every column
    would find it, since each row's reduced cost has the same bits in a block
    as in the whole product.  The pass that finds none has priced every
    column, so on return prices holds the optimal basis's reduced costs.
    Bland's rule (smallest entering index, smallest-index leaving variable
    on ratio ties) precludes cycling.  Raises IterationLimit, naming the
    phase, when the pivots run out.

    A basic index past the priced columns is an artificial that phase 1
    left at zero; cost and prices cover it.  It is held: an entering column
    whose entry in its row passes PIVOT_TOL in magnitude, of either sign,
    takes that row at ratio 0, so no pivot with a positive step moves it.
    Since it never re-enters, each artificial forces at most one pivot, and
    between forced pivots every pivot is Bland's rule on rows whose held
    entries are within PIVOT_TOL (Bland, "New finite pivoting rules for the
    simplex method", 1977), so the phase terminates.  None is returned for
    an unbounded column only when neither a positive entry nor a held entry
    passes PIVOT_TOL, so its ray keeps every held artificial at zero.
    """
    held = basis >= len(columns)
    holding = bool(held.any())
    max_iter = _iteration_limit(len(basis), len(columns))
    for pivots in range(max_iter):
        y = cost[basis] @ binv
        for lo, hi in _blocks(len(columns)):
            block = np.matmul(columns[lo:hi], y, out=prices[lo:hi])
            np.subtract(cost[lo:hi], block, out=block)
            prices[basis] = 0.0
            negative = block < -PIVOT_TOL
            j = int(negative.argmax())
            if negative[j]:
                j += lo
                break
        else:
            return y, pivots
        alpha = binv @ columns[j]
        eligible = alpha > PIVOT_TOL
        if holding:
            forced = held & (np.abs(alpha) > PIVOT_TOL)
            eligible |= forced
        rows = eligible.nonzero()[0]
        if rows.size == 0:
            return None, pivots
        ratios = x_b[rows] / alpha[rows]
        if holding:
            ratios[forced[rows]] = 0.0
        best = float(ratios.min())
        ties = rows[ratios <= best + 1e-15 * (1.0 + abs(best))]
        leave = int(ties[basis[ties].argmin()])
        _pivot(binv, x_b, alpha, leave)
        basis[leave] = j
        if holding:
            held[leave] = False
            holding = bool(held.any())
    raise IterationLimit(phase, max_iter)


def _check(what: str, excess, scale, index: np.ndarray | None = None) -> None:
    """Raise CertificateError when some excess passes CERT_TOL times its scale, naming the worst."""
    bad = excess > CERT_TOL * scale
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.atleast_1d(np.where(bad, excess / scale, -np.inf))
        k = int(relative.argmax())
        if np.ndim(excess):
            what += f" {k if index is None else index[k]}"
        raise CertificateError(
            f"simplex optimum failed its certificate: {what} is off by "
            f"{relative[k]:.3g} of its scale (tolerance {CERT_TOL:g})"
        )


def _certify(problem: LpProblem, rhs, columns, cost, b, basis, binv, x_b, y, reduced) -> None:
    """Check an optimal basis, each row and column against its own scale.

    Primal feasibility of x on every row of the problem as given (rhs is
    [b_ub, b_eq]) against |a_i|.(|x| + |x|_max) + |b_i| over the support,
    and x >= 0 against |x|_max.  Every term is in the row's own units; the |x|_max term keeps
    a row whose variables are rounding noise around 0 from being judged
    against that noise alone.  The duals get ŷ = (|c_B| + |c_B|_max s) |B^-1|,
    s marking the structural basic columns, in the same way.  Every reduced
    cost c_j - A_j.y of the last pricing pass (reduced) is at least
    -CERT_TOL (|c_j| + |A_j|.ŷ); the slack columns' reduced costs are the
    dual signs, -y_i >= 0 on each inequality row.  The duality gap
    c_B.x_B - b.y is checked against |c_B|.|x_B| + b.ŷ.
    """
    structural = basis < len(problem.cost)
    support, xs = basis[structural], x_b[structural]
    x_max = np.abs(xs).max(initial=0.0)
    a = np.concatenate([problem.a_ub[:, support], problem.a_eq[:, support]])
    excess = a @ xs - rhs
    m_ub = len(problem.b_ub)
    excess[m_ub:] = np.abs(excess[m_ub:])  # equality rows
    _check("row", excess, np.abs(a) @ (np.abs(xs) + x_max) + np.abs(rhs))
    _check("variable", -xs, x_max, support)
    c_b = cost[basis]
    abs_c = np.abs(c_b)
    y_scale = (abs_c + abs_c.max(initial=0.0) * structural) @ np.abs(binv)
    _check("duality gap", abs(c_b @ x_b - b @ y), abs_c @ np.abs(x_b) + b @ y_scale)
    j = (reduced < 0).nonzero()[0]
    if j.size:
        scale = np.abs(cost[j]) + np.abs(columns[j]) @ y_scale
        _check("reduced cost of column", -reduced[j], scale, j)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase revised simplex; returns a certified basic optimum when one exists.

    Raises CertificateError when the optimum it reaches fails the
    certificate (see ``_certify``), and IterationLimit when a phase runs out
    of pivots.
    """
    n = len(problem.cost)
    m_ub = len(problem.b_ub)
    m = m_ub + len(problem.b_eq)
    n_sl = n + m_ub

    # Equality form [A_ub I; A_eq 0] x = b with rows sign-normalized to
    # b >= 0, one column per row of `columns`.  Each row without a slack to
    # start from gets an artificial column.
    rhs = np.concatenate([problem.b_ub, problem.b_eq])
    flip = rhs < 0
    b = np.abs(rhs)
    art_rows = np.flatnonzero(flip | (np.arange(m) >= m_ub))
    columns = np.zeros((n_sl + len(art_rows), m))
    for i, row in enumerate((*problem.a_ub, *problem.a_eq)):
        columns[:n, i] = row  # one row at a time: a strided inner loop over n, not over m
    cost = np.zeros(len(columns))  # phase 2's: 0 on the slacks and on held artificials
    cost[:n] = problem.cost
    if not (np.isfinite(columns[:n]).all() and np.isfinite(cost).all() and np.isfinite(rhs).all()):
        raise ValueError("LP coefficients must be finite")
    columns[np.arange(n, n_sl), np.arange(m_ub)] = 1.0
    for i in np.flatnonzero(flip):
        columns[:n_sl, i] *= -1.0
    columns[np.arange(n_sl, len(columns)), art_rows] = 1.0
    basis = np.arange(n, n + m)
    basis[art_rows] = np.arange(n_sl, len(columns))
    binv = np.eye(m)
    x_b = b.copy()
    prices = np.empty(len(columns))
    pivots1 = 0

    if len(art_rows):
        cost1 = np.zeros(len(columns))
        cost1[n_sl:] = 1.0
        y, pivots1 = _iterate(columns, cost1, basis, binv, x_b, prices, phase=1)
        if y is None:
            raise RuntimeError("phase 1 terminated abnormally")  # it is bounded below by 0
        if float(cost1[basis] @ x_b) > FEAS_TOL:
            return LpSolution(status=LpStatus.INFEASIBLE, pivots=(pivots1, 0))

    columns = columns[:n_sl]
    y, pivots2 = _iterate(columns, cost, basis, binv, x_b, prices, phase=2)
    if y is None:
        return LpSolution(status=LpStatus.UNBOUNDED, pivots=(pivots1, pivots2))
    _certify(problem, rhs, columns, cost, b, basis, binv, x_b, y, prices[:n_sl])

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = x_b[structural]
    duals = np.where(flip, -y, y)  # undo the row sign normalization
    # objective and slack_ub take every entry of x: products over the support
    # alone would round differently
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=x,
        objective=float(problem.cost @ x),
        slack_ub=problem.b_ub - problem.a_ub @ x,
        duals_ub=duals[:m_ub],
        duals_eq=duals[m_ub:],
        pivots=(pivots1, pivots2),
    )
