"""Scalar and per-slot references that the tests check the package against.

The package computes each of these in bulk: penalties through ``expand``,
expected penalties through ``r_matrix``, selections and queues inside the
simulator's kernel, the independent probe in one batched ascent, the
simplex's reduced costs in blocks.  The versions here do the same arithmetic
one point, one slot, one probe or one whole pricing pass at a time, so the
tests can compare the two.
"""

import numpy as np

from corrsched import (
    CollisionUtilityNeg,
    FullTable,
    MinSumUtilityNeg,
    PowerPerUser,
    ProductDistribution,
    ProductForm,
    WeightedSum,
    r_matrix,
    simplex,
    user_maps,
)
from corrsched.problem import flat_event_probabilities, joint_components, penalty_tables, sample_event_indices


# ---------------------------------------------------------------------------
# Problem: penalties and events at one point
# ---------------------------------------------------------------------------


def evaluate(pen, alpha, omega, action_sizes, event_sizes) -> float:
    """Value of one penalty at action vector alpha and event vector omega."""
    if isinstance(pen, FullTable):
        return float(
            pen.values[np.ravel_multi_index(omega, event_sizes), np.ravel_multi_index(alpha, action_sizes)]
        )
    if isinstance(pen, PowerPerUser):
        return float(alpha[pen.user])
    if isinstance(pen, MinSumUtilityNeg):
        total = sum(w[omega[i]] * alpha[i] for i, w in enumerate(pen.weights))
        return -min(total, pen.cap)
    if isinstance(pen, CollisionUtilityNeg):
        u = 0.0
        for i in range(len(alpha)):
            if alpha[i] == 1 and all(alpha[j] == 0 for j in range(len(alpha)) if j != i):
                u += omega[i]
        return -u
    if isinstance(pen, WeightedSum):
        return sum(
            w * evaluate(child, alpha, omega, action_sizes, event_sizes)
            for w, child in zip(pen.coefficients, pen.children)
        )
    if isinstance(pen, ProductForm):
        out = 1.0
        for i in range(len(pen.phis)):
            out *= pen.phis[i][omega[i]] * pen.psis[i][alpha[i]]
        return float(out)
    raise TypeError(f"no reference for penalty {type(pen).__name__}")


def eval_penalty(spec, k, alpha, omega) -> float:
    """Value of penalty k of spec at action vector alpha and event vector omega."""
    if not 0 <= k <= spec.n_constraints:
        raise IndexError(f"penalty index {k} out of range 0..{spec.n_constraints}")
    for i in range(spec.n_users):
        if not 0 <= alpha[i] < spec.action_sizes[i]:
            raise IndexError(f"action {alpha[i]} out of range for user {i}")
        if not 0 <= omega[i] < spec.event_sizes[i]:
            raise IndexError(f"event {omega[i]} out of range for user {i}")
    return evaluate(spec.penalties[k], alpha, omega, spec.action_sizes, spec.event_sizes)


def event_probability(spec, omega) -> float:
    """Probability that the event vector equals omega."""
    dist = spec.distribution
    if isinstance(dist, ProductDistribution):
        out = 1.0
        for i, q in enumerate(dist.marginals):
            out *= q[omega[i]]
        return float(out)
    return float(dist.table.reshape(spec.event_sizes)[tuple(int(w) for w in omega)])


def sample_event(spec, rng) -> tuple[int, ...]:
    """Draw one event vector; mutates only the caller-owned generator."""
    idx = sample_event_indices(spec.distribution, spec.event_sizes, rng, 1)[0]
    return tuple(int(v) for v in np.unravel_index(idx, spec.event_sizes))


# ---------------------------------------------------------------------------
# Strategies and policies
# ---------------------------------------------------------------------------


def strategy_event_penalties(spec, strategies) -> np.ndarray:
    """Every penalty of every strategy row at every event, (n_events, M, K+1), one entry at a time.

    Cuts each row into per-user maps by hand, reads each user's action at
    its own event, ravels the joint action and looks it up in the tables.
    """
    tables = penalty_tables(spec)
    starts = np.cumsum((0,) + spec.event_sizes[:-1])
    out = np.empty((spec.n_events, len(strategies), len(tables)))
    for m, row in enumerate(strategies):
        maps = [row[a : a + w] for a, w in zip(starts, spec.event_sizes)]
        for wf in range(spec.n_events):
            omega = np.unravel_index(wf, spec.event_sizes)
            alpha = np.ravel_multi_index(tuple(g[w] for g, w in zip(maps, omega)), spec.action_sizes)
            out[wf, m] = tables[:, wf, alpha]
    return out


def compute_r_vector(spec, strategy) -> np.ndarray:
    """Expected penalties of one strategy row, shape (K+1,)."""
    return r_matrix(spec, np.asarray(strategy)[None, :])[0]


def evaluate_independent_policy(spec, conditionals) -> np.ndarray:
    """Exact expected penalties of independent per-user randomized strategies.

    conditionals[i] has shape (|Omega_i|, |A_i|): each row is user i's action
    distribution after observing that event.  Returns (K+1,) expected
    penalties.
    """
    omega_comp = joint_components(spec.event_sizes)
    alpha_comp = joint_components(spec.action_sizes)
    weight = np.ones((spec.n_events, spec.n_actions))
    for i, cond in enumerate(conditionals):
        cond = np.asarray(cond, dtype=float)
        if cond.shape != (spec.event_sizes[i], spec.action_sizes[i]):
            raise ValueError(f"conditional {i} has shape {cond.shape}")
        rows = cond.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError(f"conditional {i} rows not normalized")
        weight *= cond[np.ix_(omega_comp[:, i], alpha_comp[:, i])]
    pi = flat_event_probabilities(spec.distribution, spec.event_sizes)
    tables = penalty_tables(spec)
    return np.einsum("w,wa,kwa->k", pi, weight, tables)


def report_if_observed_policy(spec, probs) -> list[np.ndarray]:
    """Independent baseline: user i reports w.p. probs[i] on a nonzero event.

    Returns per-user conditional action tables for binary-action specs; the
    zero event always maps to idle.
    """
    conditionals = []
    for i, theta in enumerate(probs):
        cond = np.zeros((spec.event_sizes[i], 2))
        cond[:, 0] = 1.0
        cond[1:, 0] = 1.0 - theta
        cond[1:, 1] = theta
        conditionals.append(cond)
    return conditionals


# ---------------------------------------------------------------------------
# Online control: one slot's selection
# ---------------------------------------------------------------------------


def dpp_select(r, q, v) -> int:
    """Index minimizing V r_0 + Q . r_k over strategies; lowest index wins ties.

    Scores with the same gemv (``r.dot``) as the simulator's kernel.
    """
    weights = np.concatenate(([v], np.asarray(q, dtype=float)))
    return int(np.argmin(r.dot(weights)))


def window_estimate(estimator) -> np.ndarray:
    """A one-run RollingEstimator's current estimates (M, K+1); zeros before the first sample."""
    if estimator.count == 0:
        return np.zeros_like(estimator.sums[0])
    return estimator.sums[0] / estimator.count


def window_select(estimator, q, v) -> int:
    """Approx-mode selection from a one-run RollingEstimator's window sums; index 0 while it is empty."""
    return dpp_select(estimator.sums[0], q, v) if estimator.count else 0


def separable_strategy(components, q, v) -> np.ndarray:
    """Strategy row of per-user argmin maps for the current weights; jointly optimal.

    Minimizing V p_0 + Q . p over pure strategies decomposes across users
    when every penalty is a per-user sum, so each map can be built from that
    user's own component tables alone.
    """
    weights = np.concatenate(([v], np.asarray(q, dtype=float)))
    maps = []
    for comp in components:
        scores = np.tensordot(weights, comp, axes=(0, 0))  # (|Omega_i|, |A_i|)
        maps.append(np.argmin(scores, axis=1))
    return np.concatenate(maps)


def separable_select(spec, components, q, v, omega) -> tuple[int, ...]:
    """Actions for the observed events: each user reads its own omega_i off its argmin map."""
    maps = user_maps(spec, separable_strategy(components, q, v))
    return tuple(int(g[w]) for g, w in zip(maps, omega))


# ---------------------------------------------------------------------------
# Independent probe: one probe, one start, one lane at a time
# ---------------------------------------------------------------------------
#
# ``analysis._ascend_mixture`` steps every probe of a grid in lockstep; this
# is the per-probe loop it replaced, kept so tests can require the batched
# result to equal it exactly.


def mix(corners, etas):
    """corners: (2,)*n + (K+1,) corner rows of one probe; etas: (n,) activation probabilities."""
    for eta in etas:
        corners = (1.0 - eta) * corners[0] + eta * corners[1]
    return corners


def ascend_mixture(spec, corners, tol=1e-9):
    """Best feasible expected-penalty vector of one probe; None when no start is feasible."""
    c = np.asarray(spec.constraints, dtype=float)
    k = spec.n_constraints
    best = None
    for start in (0.0, 1.0):
        etas = np.full(spec.n_users, start)
        r = mix(corners, etas)
        if k and np.any(r[1:] > c + tol):
            continue
        for _ in range(40):
            changed = False
            for i in range(spec.n_users):
                save = etas[i]
                etas[i] = 0.0
                r0 = mix(corners, etas)
                etas[i] = 1.0
                r1 = mix(corners, etas)
                slope = r1 - r0
                lo, hi = 0.0, 1.0
                ok = True
                for j in range(k):
                    b = slope[1 + j]
                    a = r0[1 + j]
                    if b > tol:
                        hi = min(hi, (c[j] - a) / b)
                    elif b < -tol:
                        lo = max(lo, (c[j] - a) / b)
                    elif a > c[j] + tol:
                        ok = False
                if not ok or lo > hi + tol:
                    etas[i] = save
                    continue
                hi = min(hi, 1.0)
                lo = max(lo, 0.0)
                new = hi if slope[0] < 0 else lo
                new = min(max(new, lo), hi)
                if abs(new - save) > 1e-12:
                    changed = True
                etas[i] = new
            if not changed:
                break
        r = mix(corners, etas)
        if k and np.any(r[1:] > c + 1e-9):
            continue
        if best is None or r[0] < best[0]:
            best = r
    return best


# ---------------------------------------------------------------------------
# Simplex: Bland's rule pricing every column in one pass
# ---------------------------------------------------------------------------


def full_pass_iterate(columns, cost, basis, binv, x_b, prices):
    """Bland-rule pivots to optimality; returns the duals y, or None when unbounded.

    ``simplex._iterate`` with every column priced in one ``cost - columns @ y``
    pass per iteration instead of block by block.  Pivots through
    ``simplex._pivot`` and updates basis, binv, x_b and prices in place as
    the package does.
    """
    while True:
        y = cost[basis] @ binv
        np.matmul(columns, y, out=prices)
        np.subtract(cost, prices, out=prices)
        prices[basis] = 0.0
        negative = prices < -simplex.PIVOT_TOL
        j = int(negative.argmax())
        if not negative[j]:
            return y
        alpha = binv @ columns[j]
        rows = (alpha > simplex.PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return None
        ratios = x_b[rows] / alpha[rows]
        best = float(ratios.min())
        ties = rows[ratios <= best + 1e-15 * (1.0 + abs(best))]
        leave = int(ties[basis[ties].argmin()])
        simplex._pivot(binv, x_b, alpha, leave)
        basis[leave] = j
