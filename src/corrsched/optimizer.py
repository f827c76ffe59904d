"""Offline policy optimization over pure strategies.

Solves the correlated-scheduling LP (randomize over pure strategies via a
shared random index) and the centralized benchmark LP (randomize over
joint actions given the full event vector).  The correlated LP's basic
optima carry at most K+1 support strategies, K being the number of
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .problem import (
    CapExceeded,
    ProblemSpec,
    flat_event_probabilities,
    penalty_tables,
)
from .simplex import Infeasible, LpProblem, LpStatus, solve_lp
from .strategy import r_matrix

SUPPORT_TOL = 1e-12
CENTRALIZED_CAP = 4096
ORACLE_STRATEGY_CAP = 50
ORACLE_TOL = 1e-9


@dataclass(eq=False)
class CorrelatedPolicy:
    """Shared-randomness policy: draw a support strategy with probability theta."""

    support: list[tuple[np.ndarray, float]]  # (strategy row, theta)
    objective: float  # optimal expected p_0 (negated utility)
    achieved_constraints: np.ndarray  # expected p_k, k = 1..K
    support_indices: list[int]

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
    """
    if len(strategies) == 0:
        raise ValueError("empty strategy set")
    if r is None:
        r = r_matrix(spec, strategies)
    m = len(strategies)
    k = spec.n_constraints
    lp = LpProblem(
        cost=r[:, 0],
        a_ub=r[:, 1:].T if k else np.zeros((0, m)),
        b_ub=np.asarray(spec.constraints),
        a_eq=np.ones((1, m)),
        b_eq=np.array([1.0]),
    )
    sol = solve_lp(lp)
    if sol.status is not LpStatus.OPTIMAL:
        raise Infeasible(f"distributed LP is {sol.status.value}")
    theta = sol.x
    support_idx = [int(i) for i in np.flatnonzero(theta > SUPPORT_TOL)]
    rows = np.asarray(strategies)[support_idx]  # a copy: the policy must not pin the whole set
    support = [(row, float(theta[i])) for row, i in zip(rows, support_idx)]
    achieved = theta @ r[:, 1:] if k else np.zeros(0)
    return CorrelatedPolicy(
        support=support,
        objective=float(sol.objective),
        achieved_constraints=achieved,
        support_indices=support_idx,
    )


def solve_centralized_lp(spec: ProblemSpec) -> CentralizedPolicy:
    """Benchmark with full event knowledge: optimize theta(alpha | omega).

    Variables are the per-event conditional action distributions; one
    normalization row per event keeps the LP sparse in structure even though
    the solver is dense.
    """
    n_o = spec.n_events
    n_a = spec.n_actions
    n_var = n_o * n_a
    if n_var > CENTRALIZED_CAP:
        raise CapExceeded(n_var, CENTRALIZED_CAP)
    tables = penalty_tables(spec)  # (K+1, n_o, n_a)
    pi = flat_event_probabilities(spec.distribution, spec.event_sizes)
    weighted = tables * pi[None, :, None]
    cost = weighted[0].reshape(-1)
    k = spec.n_constraints
    a_ub = weighted[1:].reshape(k, n_var) if k else np.zeros((0, n_var))
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
    conditionals = sol.x.reshape(n_o, n_a)
    achieved = a_ub @ sol.x if k else np.zeros(0)
    return CentralizedPolicy(
        conditionals=conditionals,
        objective=float(sol.objective),
        achieved_constraints=achieved,
    )


def sample_strategies(
    policy: CorrelatedPolicy, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw n shared random indices at once: positions into ``policy.support``.

    Uses one uniform double per draw, so n draws consume the generator
    exactly like n calls of :func:`sample_strategy`.
    """
    edges = np.cumsum(policy.thetas)
    edges[-1] = max(edges[-1], 1.0)
    idx = np.searchsorted(edges, rng.random(n), side="right")
    return np.minimum(idx, len(policy.support) - 1)


def sample_strategy(policy: CorrelatedPolicy, rng: np.random.Generator) -> np.ndarray:
    """Draw one support strategy row; this realizes the shared random index."""
    return policy.support[int(sample_strategies(policy, rng, 1)[0])][0]


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
    r: np.ndarray | None = None,
    cap: int = ORACLE_STRATEGY_CAP,
) -> float | None:
    """Independent check of the distributed LP optimum for tiny instances.

    Exhausts every support subset of size at most K+1 and optimizes each by
    vertex enumeration; returns the best objective, or None when no subset is
    feasible.  Test-only code path, deliberately unrelated to the simplex.
    """
    m = len(strategies)
    k = spec.n_constraints
    if m > cap:
        raise CapExceeded(m, cap)
    if k > 2:
        raise CapExceeded(k, 2)
    if r is None:
        r = r_matrix(spec, strategies)
    c = np.asarray(spec.constraints, dtype=float)
    best = np.inf
    for size in range(1, min(k + 1, m) + 1):
        subsets = np.array(list(combinations(range(m), size)), dtype=np.int64)
        best = min(best, _best_over_subsets(r, c, subsets))
    return None if np.isinf(best) else best
