"""Offline policy optimization over pure strategies.

Solves the correlated-scheduling LP (randomize over pure strategies via a
shared random index) and the centralized benchmark LP (randomize over
joint actions given the full event vector).  The correlated LP's basic
optima carry at most K+1 support strategies, K being the number of
constraints.

Both answers depend only on the spec, so each spec object gets one
``OfflineModel`` that computes them on first use and keeps them, together
with the strategy set the spec resolves to, its event tensor, ``r`` and the
bound constants.  The solvers, the analysis and the simulator read it.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .online import compute_B, compute_F
from .problem import (
    CapExceeded,
    ProblemSpec,
    flat_event_probabilities,
    penalty_tables,
)
from .simplex import Infeasible, LpProblem, LpStatus, solve_lp
from .strategy import (
    count_all,
    count_nondecreasing,
    enumerate_all,
    enumerate_nondecreasing,
    prune_applicable,
    r_matrix,
    strategy_event_penalties,
)

SUPPORT_TOL = 1e-12
CENTRALIZED_CAP = 4096
ORACLE_STRATEGY_CAP = 50
ORACLE_TOL = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class CorrelatedPolicy:
    """Shared-randomness policy: draw a support strategy with probability theta."""

    support: tuple[tuple[np.ndarray, float], ...]  # (strategy row, theta)
    objective: float  # optimal expected p_0 (negated utility)
    achieved_constraints: np.ndarray  # expected p_k, k = 1..K
    support_indices: tuple[int, ...]

    @property
    def utility(self) -> float:
        return -self.objective

    @property
    def thetas(self) -> np.ndarray:
        return np.array([t for _, t in self.support])


@dataclass(eq=False)
class CentralizedPolicy:
    """Per-event randomization over joint actions, theta(alpha | omega)."""

    conditionals: np.ndarray  # (n_events, n_actions), rows sum to 1
    objective: float
    achieved_constraints: np.ndarray

    @property
    def utility(self) -> float:
        return -self.objective


def solve_distributed_lp(
    spec: ProblemSpec,
    strategies: np.ndarray,
    r: np.ndarray | None = None,
) -> CorrelatedPolicy:
    """Optimal correlated policy over the given strategy set.

    Minimizes the expected objective penalty subject to the K expected
    constraint penalties, over probability vectors on the strategies.  The
    simplex solution is basic, so the support has at most K+1 strategies.
    With no r, the set the spec resolves to is solved once per spec object
    and its cached policy returned; any other set, and an r the caller
    built, is solved afresh.
    """
    if len(strategies) == 0:
        raise ValueError("empty strategy set")
    if r is None:
        model = offline_model(spec)
        if model.resolves_to(strategies):
            return model.correlated
        r = r_matrix(spec, strategies)
    m = len(strategies)
    lp = LpProblem(
        cost=r[:, 0],
        a_ub=r[:, 1:].T,
        b_ub=np.asarray(spec.constraints),
        a_eq=np.ones((1, m)),
        b_eq=np.array([1.0]),
    )
    sol = solve_lp(lp)
    if sol.status is not LpStatus.OPTIMAL:
        raise Infeasible(f"distributed LP is {sol.status.value}")
    theta = sol.x
    support_idx = [int(i) for i in np.flatnonzero(theta > SUPPORT_TOL)]
    rows = _read_only(np.asarray(strategies)[support_idx])  # a copy: the policy must not pin the whole set
    return CorrelatedPolicy(
        support=tuple((row, float(theta[i])) for row, i in zip(rows, support_idx)),
        objective=float(sol.objective),
        achieved_constraints=_read_only(theta @ r[:, 1:]),
        support_indices=tuple(support_idx),
    )


def _solve_centralized(spec: ProblemSpec) -> CentralizedPolicy:
    n_o = spec.n_events
    n_a = spec.n_actions
    n_var = n_o * n_a
    if n_var > CENTRALIZED_CAP:
        raise CapExceeded(n_var, CENTRALIZED_CAP)
    tables = penalty_tables(spec)  # (K+1, n_o, n_a)
    pi = flat_event_probabilities(spec.distribution, spec.event_sizes)
    weighted = tables * pi[None, :, None]
    cost = weighted[0].reshape(-1)
    a_ub = weighted[1:].reshape(spec.n_constraints, n_var)
    a_eq = np.zeros((n_o, n_var))
    for w in range(n_o):
        a_eq[w, w * n_a : (w + 1) * n_a] = 1.0
    sol = solve_lp(
        LpProblem(
            cost=cost,
            a_ub=a_ub,
            b_ub=np.asarray(spec.constraints),
            a_eq=a_eq,
            b_eq=np.ones(n_o),
        )
    )
    if sol.status is not LpStatus.OPTIMAL:
        raise Infeasible(f"centralized LP is {sol.status.value}")
    return CentralizedPolicy(
        conditionals=_read_only(sol.x.reshape(n_o, n_a)),
        objective=float(sol.objective),
        achieved_constraints=_read_only(a_ub @ sol.x),
    )


def solve_centralized_lp(spec: ProblemSpec) -> CentralizedPolicy:
    """Benchmark with full event knowledge: optimize theta(alpha | omega).

    Variables are the per-event conditional action distributions; one
    normalization row per event keeps the LP sparse in structure even though
    the solver is dense.  Solved once per spec object; the cached policy is
    returned.
    """
    return offline_model(spec).centralized


def epsilon_max(
    spec: ProblemSpec,
    strategies: np.ndarray,
    r: np.ndarray | None = None,
) -> float:
    """Largest uniform constraint slack that keeps the strategy LP feasible.

    One LP over (theta, eps): maximize eps subject to r_k . theta + eps <= c_k,
    sum(theta) = 1, theta >= 0 and eps >= 0.  Positive slack is the Slater
    condition.
    """
    if spec.n_constraints == 0:
        raise ValueError("needs at least one constraint")
    if r is None:
        r = r_matrix(spec, strategies)
    m, k = len(r), spec.n_constraints
    lp = LpProblem(
        cost=np.append(np.zeros(m), -1.0),
        a_ub=np.column_stack((r[:, 1:].T, np.ones(k))),
        b_ub=np.asarray(spec.constraints, dtype=float),
        a_eq=np.append(np.ones(m), 0.0)[None, :],
        b_eq=np.array([1.0]),
    )
    sol = solve_lp(lp)
    if sol.status is not LpStatus.OPTIMAL:
        raise Infeasible("constraints are infeasible even with zero slack")
    return float(sol.x[-1])


class OfflineModel:
    """The offline answers of one spec over one strategy set, each computed on first use.

    The set is the one the spec resolves to: the non-decreasing (threshold)
    strategies when ``prune_applicable`` shows they lose nothing, every
    strategy otherwise.  A model built with an explicit set answers for that
    set instead.  Every array it builds is read-only, since all its callers
    share them.  The model holds its spec weakly: a model outlives
    its spec only as an error.
    """

    def __init__(self, spec: ProblemSpec, strategies: np.ndarray | None = None):
        self._spec = weakref.ref(spec)
        if strategies is not None:
            self.__dict__["strategies"] = strategies

    @property
    def spec(self) -> ProblemSpec:
        spec = self._spec()
        if spec is None:
            raise ReferenceError("the spec of this offline model no longer exists")
        return spec

    @cached_property
    def pruned(self) -> bool:
        return prune_applicable(self.spec)

    @cached_property
    def strategies(self) -> np.ndarray:
        enumerate_fn = enumerate_nondecreasing if self.pruned else enumerate_all
        return _read_only(enumerate_fn(self.spec))

    @cached_property
    def event_penalties(self) -> np.ndarray:
        return _read_only(strategy_event_penalties(self.spec, self.strategies))

    @cached_property
    def r(self) -> np.ndarray:
        return _read_only(r_matrix(self.spec, self.strategies, self.event_penalties))

    @cached_property
    def _correlated(self) -> CorrelatedPolicy:
        return solve_distributed_lp(self.spec, self.strategies, r=self.r)

    @cached_property
    def _centralized(self) -> CentralizedPolicy:
        return _solve_centralized(self.spec)

    # Each read returns a copy of the cached policy: a caller may reassign its
    # fields, and its arrays and tuples, shared with the cache, are read-only.
    @property
    def correlated(self) -> CorrelatedPolicy:
        return dataclasses.replace(self._correlated)

    @property
    def centralized(self) -> CentralizedPolicy:
        return dataclasses.replace(self._centralized)

    @cached_property
    def b_const(self) -> float:
        return compute_B(self.spec, self.strategies, self.event_penalties)

    @cached_property
    def f_const(self) -> float:
        return compute_F(self.spec, self.r, self._correlated.objective)

    @cached_property
    def eps_max(self) -> float:
        return epsilon_max(self.spec, self.strategies, self.r)

    def resolves_to(self, strategies: np.ndarray) -> bool:
        """Whether strategies is the set the spec resolves to: sizes first, then every entry.

        False when that set cannot be built within its caps.
        """
        spec = self.spec
        try:
            count = count_nondecreasing(spec) if self.pruned else count_all(spec)
            return len(strategies) == count and np.array_equal(strategies, self.strategies)
        except CapExceeded:
            return False


_MODELS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def offline_model(spec: ProblemSpec, strategies: np.ndarray | None = None) -> OfflineModel:
    """The offline model of spec over strategies, by default the set the spec resolves to.

    The model of the resolved set is built once per spec object and freed
    with it; an explicit set equal to the resolved one gets that model too.
    Any other set gets a new model that nothing caches.
    """
    model = _MODELS.get(spec)
    if model is None:
        model = _MODELS[spec] = OfflineModel(spec)
    if strategies is None or model.resolves_to(strategies):
        return model
    return OfflineModel(spec, strategies)


def resolve_strategies(spec: ProblemSpec) -> np.ndarray:
    """The strategy set a spec is solved and controlled over when none is given (read-only).

    The non-decreasing (threshold) strategies when ``prune_applicable`` shows
    they lose nothing, every strategy otherwise.
    """
    return offline_model(spec).strategies


def _best_over_subsets(r: np.ndarray, c: np.ndarray, subsets: np.ndarray) -> float:
    """Best feasible objective over all given same-size support subsets.

    Candidate vertices are solutions of square active-set systems: the
    normalization row plus size-1 picks among the K penalty rows and the
    nonnegativity bounds.  All subsets are solved in one batched pass per
    active-set pattern.  Returns +inf when nothing is feasible.
    """
    n_sub, size = subsets.shape
    k = r.shape[1] - 1
    r_sub = r[subsets]  # (n_sub, size, K+1)
    r0 = r_sub[:, :, 0]
    rk = r_sub[:, :, 1:]
    if size == 1:
        feasible = np.all(rk[:, 0, :] <= c + ORACLE_TOL, axis=1)
        return float(np.where(feasible, r0[:, 0], np.inf).min())
    best = np.full(n_sub, np.inf)
    rows = [("c", j) for j in range(k)] + [("z", j) for j in range(size)]
    for active in combinations(range(len(rows)), size - 1):
        mats = np.zeros((n_sub, size, size))
        rhs = np.zeros((n_sub, size))
        mats[:, 0, :] = 1.0
        rhs[:, 0] = 1.0
        for out_row, idx in enumerate(active, start=1):
            kind, j = rows[idx]
            if kind == "c":
                mats[:, out_row, :] = rk[:, :, j]
                rhs[:, out_row] = c[j]
            else:
                mats[:, out_row, j] = 1.0
        solvable = np.abs(np.linalg.det(mats)) > 1e-12
        if not solvable.any():
            continue
        theta = np.linalg.solve(mats[solvable], rhs[solvable][:, :, None])[:, :, 0]
        feasible = np.all(theta >= -ORACLE_TOL, axis=1)
        achieved = np.einsum("ns,nsk->nk", theta, rk[solvable])
        feasible &= np.all(achieved <= c + ORACLE_TOL, axis=1)
        values = np.where(feasible, np.einsum("ns,ns->n", theta, r0[solvable]), np.inf)
        best[solvable] = np.minimum(best[solvable], values)
    return float(best.min())


def brute_force_distributed_oracle(
    spec: ProblemSpec,
    strategies: np.ndarray,
    cap: int = ORACLE_STRATEGY_CAP,
) -> float | None:
    """Independent check of the distributed LP optimum for tiny instances.

    Exhausts every support subset of size at most K+1 and optimizes each by
    vertex enumeration; returns the best objective, or None when no subset is
    feasible.  Each column of r_matrix is divided by its largest magnitude (the
    constraint columns together with their budgets), so the fixed vertex
    tolerances act relative to the penalties' units.  Test-only code path,
    deliberately unrelated to the simplex.
    """
    m = len(strategies)
    k = spec.n_constraints
    if m > cap:
        raise CapExceeded(m, cap)
    if k > 2:
        raise CapExceeded(k, 2)
    r = r_matrix(spec, strategies)
    c = np.asarray(spec.constraints, dtype=float)
    scale = np.abs(np.vstack([r, np.r_[0.0, c]])).max(axis=0)  # budgets as one more row
    scale[scale == 0] = 1.0
    r, c = r / scale, c / scale[1:]
    best = np.inf
    for size in range(1, min(k + 1, m) + 1):
        subsets = np.array(list(combinations(range(m), size)), dtype=np.int64)
        best = min(best, _best_over_subsets(r, c, subsets))
    return None if np.isinf(best) else best * scale[0]
