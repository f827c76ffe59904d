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

An LP of at most SCALAR_ENTRIES coefficients (n structural columns times m
rows) is solved by a second implementation of the same algorithm on Python
floats (``_solve_floats``): the same phases, Bland's rule, held artificials,
tolerances, iteration limit and certificate, with the columns priced one at
a time from column 0.  Every sum runs left to right, so each number it
returns depends on the input values alone, not on a BLAS kernel, a thread
count or the inputs' memory layout.  On such LPs numpy's per-call overhead,
not arithmetic, sets the time: on the LPs of scripts/lp_digests.py's corpus,
all of them at n * m <= 100 but the three-sensor fixture's, the float path
took 65 against 191 us per LP at n * m <= 25 and 214 against 359 us at 75 <
n * m <= 100, faster on every one.  The corpus has no LP between 100 and
5,324 coefficients, so the crossover was measured on LPs built the same way
(prefixes of the three-sensor LP and the offline model's LPs of larger dense
specs): float/array time had a median of 0.85 at 250 < n * m <= 300 (the
floats faster on 79% of them), 0.95-0.98 at 300-400 (62%) and 1.13-1.67
from 400 up.  SCALAR_ENTRIES sits below that crossover.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
CERT_TOL = 1e-9
FIRST_BLOCK = 1024  # columns in the first pricing block; each later block doubles
SCALAR_ENTRIES = 300  # LPs with n * m at most this solve on Python floats (see above)


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


def _pivot_floats(binv: list, x_b: list, alpha: list, row: int) -> None:
    """``_pivot`` on lists of Python floats; rows whose alpha entry is 0 are left as they are."""
    pivot = alpha[row]
    prow = binv[row] = [v / pivot for v in binv[row]]
    x_r = x_b[row] = x_b[row] / pivot
    for i, f in enumerate(alpha):
        if f != 0.0 and i != row:
            binv[i] = [v - f * p for v, p in zip(binv[i], prow)]
            x_b[i] -= f * x_r


def _iterate_floats(columns, cost, basis, binv, x_b, prices, phase: int) -> tuple[list | None, int]:
    """``_iterate`` on Python floats: columns[j] lists the (row, value) pairs of column j's nonzeros.

    The same Bland-rule pivots, held-artificial rule, tolerances and
    iteration limit.  Columns are priced from column 0 up, one at a time,
    until the first reduced cost below -PIVOT_TOL; the pass that finds none
    writes every column's into prices, with the basic columns' set to 0.
    Each dot product sums its terms left to right and leaves out the terms
    of a zero entry, which could only change the sign of a zero.
    """
    n_priced, m = len(columns), len(basis)
    held = [k >= n_priced for k in basis]
    holding = any(held)
    basic = [False] * n_priced
    for k in basis:
        if k < n_priced:
            basic[k] = True
    max_iter = _iteration_limit(m, n_priced)
    for pivots in range(max_iter):
        y = [0.0] * m
        for k, row in zip(basis, binv):
            c = cost[k]
            if c != 0.0:
                y = [s + c * v for s, v in zip(y, row)]
        for j, column in enumerate(columns):
            if basic[j]:
                prices[j] = 0.0
                continue
            d = 0.0
            for i, v in column:
                d += v * y[i]
            prices[j] = price = cost[j] - d
            if price < -PIVOT_TOL:
                break
        else:
            return y, pivots
        column = columns[j]
        alpha = []
        for row in binv:
            s = 0.0
            for i, v in column:
                s += row[i] * v
            alpha.append(s)
        best = leave = None
        ratios = []
        for r, a in enumerate(alpha):
            if holding and held[r] and abs(a) > PIVOT_TOL:
                ratio = 0.0
            elif a > PIVOT_TOL:
                ratio = x_b[r] / a
            else:
                continue
            ratios.append((r, ratio))
            if best is None or ratio < best:
                best = ratio
        if best is None:
            return None, pivots
        tie = best + 1e-15 * (1.0 + abs(best))
        for r, ratio in ratios:
            if ratio <= tie and (leave is None or basis[r] < basis[leave]):
                leave = r
        _pivot_floats(binv, x_b, alpha, leave)
        out = basis[leave]
        if out < n_priced:
            basic[out] = False
        basic[j] = True
        basis[leave] = j
        if holding:
            held[leave] = False
            holding = any(held)
    raise IterationLimit(phase, max_iter)


def _check_floats(what: str, excess: list, scale: list, index: list | None = None) -> None:
    """``_check`` on lists of floats; numpy only builds the message of a failure."""
    if any(e > CERT_TOL * s for e, s in zip(excess, scale)):
        _check(what, np.array(excess), np.array(scale), None if index is None else np.array(index))


def _certify_floats(rows, rhs, columns, cost, b, basis, binv, x_b, y, reduced, n: int, m_ub: int) -> None:
    """``_certify`` on Python floats, every sum left to right; rows are the problem's rows as given."""
    support = [(k, v) for k, v in zip(basis, x_b) if k < n]
    x_max = max([abs(v) for _, v in support], default=0.0)
    excess, scale = [], []
    for i, (row, r) in enumerate(zip(rows, rhs)):
        s = t = 0.0
        for k, v in support:
            a = row[k]
            s += a * v
            t += abs(a) * (abs(v) + x_max)
        excess.append(s - r if i < m_ub else abs(s - r))  # equality rows count either way
        scale.append(t + abs(r))
    _check_floats("row", excess, scale)
    _check_floats("variable", [-v for _, v in support], [x_max] * len(support), [k for k, _ in support])
    c_b = [cost[k] for k in basis]
    c_max = max([abs(c) for c in c_b], default=0.0)
    y_scale = [0.0] * len(basis)
    for k, c, row in zip(basis, c_b, binv):
        w = abs(c) + c_max if k < n else abs(c)
        y_scale = [s + w * abs(v) for s, v in zip(y_scale, row)]
    primal = primal_scale = dual = dual_scale = 0.0
    for c, v in zip(c_b, x_b):
        primal += c * v
        primal_scale += abs(c) * abs(v)
    for bi, yi, si in zip(b, y, y_scale):
        dual += bi * yi
        dual_scale += bi * si
    gap, gap_scale = abs(primal - dual), primal_scale + dual_scale
    if gap > CERT_TOL * gap_scale:
        _check("duality gap", np.float64(gap), np.float64(gap_scale))
    negative = [j for j, p in enumerate(reduced) if p < 0]
    if negative:
        scale = []
        for j in negative:
            t = 0.0
            for i, v in columns[j]:
                t += abs(v) * y_scale[i]
            scale.append(abs(cost[j]) + t)
        _check_floats("reduced cost of column", [-reduced[j] for j in negative], scale, negative)


def _solve_floats(problem: LpProblem) -> LpSolution:
    """``solve_lp``'s algorithm on Python floats, for LPs of at most SCALAR_ENTRIES coefficients."""
    cost0 = problem.cost.tolist()
    b_ub = problem.b_ub.tolist()
    rows = problem.a_ub.tolist() + problem.a_eq.tolist()
    rhs = b_ub + problem.b_eq.tolist()
    n, m_ub, m = len(cost0), len(b_ub), len(rhs)
    n_sl = n + m_ub
    if not all(map(math.isfinite, [*cost0, *rhs, *(v for row in rows for v in row)])):
        raise ValueError("LP coefficients must be finite")
    flip = [r < 0 for r in rhs]
    b = [abs(r) for r in rhs]
    art_rows = [i for i in range(m) if flip[i] or i >= m_ub]
    # sign-normalized columns as (row, value) pairs over their nonzeros:
    # structural, slack, then artificial
    columns = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        sign = -1.0 if flip[i] else 1.0
        for j, v in enumerate(row):
            if v != 0.0:
                columns[j].append((i, sign * v))
    columns += [[(i, -1.0 if flip[i] else 1.0)] for i in range(m_ub)]
    columns += [[(i, 1.0)] for i in art_rows]
    cost = cost0 + [0.0] * (len(columns) - n)  # phase 2's: 0 on the slacks and on held artificials
    basis = list(range(n, n + m))
    for k, i in enumerate(art_rows):
        basis[i] = n_sl + k
    binv = [[1.0 if i == k else 0.0 for k in range(m)] for i in range(m)]
    x_b = b.copy()
    prices = [0.0] * len(columns)
    pivots1 = 0

    if art_rows:
        cost1 = [0.0] * n_sl + [1.0] * len(art_rows)
        y, pivots1 = _iterate_floats(columns, cost1, basis, binv, x_b, prices, phase=1)
        if y is None:
            raise RuntimeError("phase 1 terminated abnormally")  # it is bounded below by 0
        infeasibility = 0.0
        for k, v in zip(basis, x_b):
            infeasibility += cost1[k] * v
        if infeasibility > FEAS_TOL:
            return LpSolution(status=LpStatus.INFEASIBLE, pivots=(pivots1, 0))

    columns = columns[:n_sl]
    y, pivots2 = _iterate_floats(columns, cost, basis, binv, x_b, prices, phase=2)
    if y is None:
        return LpSolution(status=LpStatus.UNBOUNDED, pivots=(pivots1, pivots2))
    _certify_floats(rows, rhs, columns, cost, b, basis, binv, x_b, y, prices[:n_sl], n, m_ub)

    x = [0.0] * n
    for k, v in zip(basis, x_b):
        if k < n:
            x[k] = v
    # objective and slack_ub take the support in index order; a zero entry of
    # x could only change the sign of a zero term, which a sum from +0.0 drops
    support = sorted(k for k in basis if k < n)
    objective = 0.0
    for k in support:
        objective += cost0[k] * x[k]
    slack_ub = []
    for row, r in zip(rows, b_ub):
        s = 0.0
        for k in support:
            s += row[k] * x[k]
        slack_ub.append(r - s)
    duals = [-v if f else v for v, f in zip(y, flip)]  # undo the row sign normalization
    return LpSolution(
        status=LpStatus.OPTIMAL,
        x=np.array(x),
        objective=objective,
        slack_ub=np.array(slack_ub),
        duals_ub=np.array(duals[:m_ub]),
        duals_eq=np.array(duals[m_ub:]),
        pivots=(pivots1, pivots2),
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase revised simplex; returns a certified basic optimum when one exists.

    An LP of at most SCALAR_ENTRIES coefficients (n columns times m rows) is
    solved on Python floats (``_solve_floats``), every larger one on numpy
    arrays.  Raises CertificateError when the optimum it reaches fails the
    certificate (see ``_certify``), and IterationLimit when a phase runs out
    of pivots.
    """
    n = len(problem.cost)
    m_ub = len(problem.b_ub)
    m = m_ub + len(problem.b_eq)
    if n * m <= SCALAR_ENTRIES:
        return _solve_floats(problem)
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
