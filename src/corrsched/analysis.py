"""Cross-checks: policy-class comparisons, counterexample, bound audits.

Everything here is read-only over problem specs and simulation output.  The
expectation-style bounds are audited with statistical slack (a single sample
path need not satisfy an expectation inequality); the sample-path queue
bound is audited exactly because it is an algebraic identity of the update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fixtures import counterexample_spec
from .online import DppConfig, compute_B, compute_F, performance_bound, queue_change_bound, slater_queue_bound
from .optimizer import solve_centralized_lp, solve_distributed_lp
from .problem import ProblemSpec
from .simplex import Infeasible, LpProblem, LpStatus, solve_lp
from .simulator import EnsembleMetrics, Trace, summarize
from .strategy import (
    count_all,
    enumerate_all,
    enumerate_nondecreasing,
    prune_applicable,
    r_matrix,
    strategy_event_penalties,
    user_map_counts,
)

PROBE_COMBO_CAP = 4096
ASCENT_TOL = 1e-9


@dataclass(eq=False)
class ComparisonReport:
    """Utilities of the three policy classes, best-first ordering expected."""

    independent_best: float
    distributed_opt: float
    centralized_opt: float
    probed_values: list[float]

    @property
    def centralized_gap(self) -> float:
        return self.centralized_opt - self.distributed_opt

    @property
    def correlation_gain(self) -> float:
        return self.distributed_opt - self.independent_best


def verify_counterexample() -> tuple[float, float]:
    """Centralized vs distributed utility on the sign-agreement game: (1, 1/2)."""
    spec = counterexample_spec()
    centralized = solve_centralized_lp(spec)
    distributed = solve_distributed_lp(spec, enumerate_all(spec))
    return centralized.utility, distributed.utility


def _mix(corners: np.ndarray, etas: np.ndarray, keep: int | None = None) -> np.ndarray:
    """Expected penalties of P probes when user i of probe p plays its base map w.p. etas[p, i].

    corners[p, b_0, ..., b_{n-1}] is r of probe p's pure strategy in which
    exactly the users with b_i = 1 play their base maps (the others idle);
    contracting one user axis at a time gives, per probe,
    sum_S prod_{i in S} eta_i prod_{i not in S} (1 - eta_i) r_S, shape (P, K+1).
    With keep=i, user i's axis is left in place: (P, 2, K+1), its eta_i at 0 and 1.
    """
    axis = 1
    for i, eta in enumerate(etas.T):
        if i == keep:
            axis = 2
            continue
        eta = eta.reshape((-1,) + (1,) * (corners.ndim - 2))
        head = (slice(None),) * axis
        corners = (1.0 - eta) * corners[head + (0,)] + eta * corners[head + (1,)]
    return corners


def _ascend_mixture(spec: ProblemSpec, corners: np.ndarray) -> np.ndarray:
    """Maximize utility over per-user activation probabilities, exactly, for P probes at once.

    Expected penalties are affine in each eta_i with the others held fixed,
    so every coordinate step solves a closed-form interval problem; ascent
    stops at a coordinatewise optimum.  Every probe is tried from the all-idle
    and the all-active start; the 2P lanes step through the same sweeps in
    lockstep, and a lane stops (keeps its etas) after a sweep that changed
    nothing, after 40 sweeps, or at once when its start is infeasible.
    Returns the best feasible expected-penalty vector of every probe,
    (P, K+1), with a NaN row where neither start is feasible.
    """
    c = np.asarray(spec.constraints, dtype=float)
    n_probes, n = len(corners), spec.n_users
    lanes = np.concatenate((corners, corners))
    etas = np.zeros((2 * n_probes, n))
    etas[n_probes:] = 1.0  # lane p starts all-idle, lane P + p all-active
    start = ~np.any(_mix(lanes, etas)[:, 1:] > c + ASCENT_TOL, axis=1)
    active = start.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(40):
            changed = np.zeros_like(active)
            for i in range(n):
                pair = _mix(lanes, etas, keep=i)
                r0 = pair[:, 0]
                slope = pair[:, 1] - r0
                a, b = r0[:, 1:], slope[:, 1:]
                ratio = (c - a) / b
                hi = np.where(b > ASCENT_TOL, ratio, 1.0).min(axis=1, initial=1.0)
                lo = np.where(b < -ASCENT_TOL, ratio, 0.0).max(axis=1, initial=0.0)
                stuck = np.any((np.abs(b) <= ASCENT_TOL) & (a > c + ASCENT_TOL), axis=1)
                move = active & ~stuck & ~(lo > hi + ASCENT_TOL)
                new = np.minimum(np.maximum(np.where(slope[:, 0] < 0, hi, lo), lo), hi)
                save = etas[:, i]
                changed |= move & (np.abs(new - save) > 1e-12)
                etas[:, i] = np.where(move, new, save)
            active &= changed
            if not active.any():
                break
    r = _mix(lanes, etas)
    ok = start & ~np.any(r[:, 1:] > c + 1e-9, axis=1)
    idle, busy = r[:n_probes], r[n_probes:]
    ok_idle, ok_busy = ok[:n_probes], ok[n_probes:]
    # the all-idle start wins ties, as it is tried first
    take_busy = ok_busy & (~ok_idle | (busy[:, 0] < idle[:, 0]))
    best = np.where(take_busy[:, None], busy, idle)
    best[~(ok_idle | ok_busy)] = np.nan
    return best


def compare_policies(spec: ProblemSpec) -> ComparisonReport:
    """Best independent (probed), correlated, and centralized utilities.

    The independent probe sweeps per-user base maps mixed with the idle map,
    optimizing activation probabilities by exact coordinate ascent; each
    probe is itself a valid distributed policy, so probed utilities can never
    exceed the correlated optimum.  The base maps are the rows of one grid
    (every strategy, or the non-decreasing ones past PROBE_COMBO_CAP).  Map 0
    of every user idles, so each mixture's corners are grid rows as well and
    one r_matrix over the grid prices every mixture; when the grid is the
    LP's own strategy set, that r feeds the LP too.  All probes then ascend
    together in one lockstep batch (several when their corner rows pass
    PROBE_COMBO_CAP).
    """
    pruned = prune_applicable(spec)
    strategies = enumerate_nondecreasing(spec) if pruned else enumerate_all(spec)
    monotone = count_all(spec) > PROBE_COMBO_CAP
    shared = not (pruned or monotone)  # the probe grid is the LP's strategy set
    r = r_matrix(spec, strategies) if shared else None
    distributed = solve_distributed_lp(spec, strategies, r=r)
    centralized = solve_centralized_lp(spec)
    if not shared:
        grid = enumerate_nondecreasing(spec, PROBE_COMBO_CAP) if monotone else enumerate_all(spec)
        r = r_matrix(spec, grid)
    counts = user_map_counts(spec, monotone)
    n = spec.n_users
    picks = np.indices(counts).reshape(n, -1, 1)  # probes in grid order, user 0 slowest
    subsets = np.indices((2,) * n).reshape(n, 1, -1)  # which users play their base map
    # probes go in batches of at most PROBE_COMBO_CAP corner rows, so the
    # corners never outgrow a full grid's r however many users there are
    step = max(1, PROBE_COMBO_CAP >> n)
    best = []
    for lo in range(0, len(r), step):
        corners = r[np.ravel_multi_index(picks[:, lo : lo + step] * subsets, counts)]
        best.append(_ascend_mixture(spec, corners.reshape((-1,) + (2,) * n + r.shape[1:])))
    values = -np.concatenate(best)[:, 0]
    probed = values[~np.isnan(values)].tolist()
    if not probed:
        raise Infeasible("no feasible independent policy found on the probe grid")
    return ComparisonReport(
        independent_best=max(probed),
        distributed_opt=distributed.utility,
        centralized_opt=centralized.utility,
        probed_values=probed,
    )


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


@dataclass(eq=False)
class BoundReport:
    p0_opt: float
    b_const: float
    worst_perf_margin: float
    perf_ok: bool
    queue_bound_max_residual: float
    queue_ok: bool


def audit_bounds(
    trace: Trace,
    spec: ProblemSpec,
    strategies: np.ndarray,
    dpp: DppConfig,
) -> BoundReport:
    """Check a run against the O(1/V) performance bound and the queue bound.

    The performance check allows three standard errors of slack since the
    bound constrains an expectation and the trace is one sample path.  The
    queue (sample-path) check needs a stride-1 trace with metadata.
    """
    event_pen = strategy_event_penalties(spec, strategies)
    r = r_matrix(spec, strategies, event_pen)
    p0_opt = solve_distributed_lp(spec, strategies, r=r).objective
    b_const = compute_B(spec, strategies, event_pen)
    pbar0 = -trace.ubar
    counts = trace.t.astype(float) + 1.0
    var_p0 = float(np.var(trace.u))
    slack = 3.0 * np.sqrt(var_p0 / counts)
    # queues start at zero and see only zero penalties through slot D, so the
    # post-warm-up queue energy is deterministic (nonzero only for c_k < 0)
    c = np.asarray(spec.constraints, dtype=float)
    l_d = 0.5 * float(np.sum((dpp.delay * np.maximum(-c, 0.0)) ** 2))
    bounds = performance_bound(b_const, dpp.delay, dpp.v, counts, l_d, p0_opt)
    margins = pbar0 - bounds - slack
    worst = float(margins.max())

    residual = float("nan")
    if trace.constraints is not None and len(trace) == trace.t[-1] + 1:
        residual = summarize(trace).queue_bound_max_residual
    queue_ok = not math.isnan(residual) and residual <= 1e-9
    return BoundReport(
        p0_opt=float(p0_opt),
        b_const=b_const,
        worst_perf_margin=worst,
        perf_ok=worst <= 0.0,
        queue_bound_max_residual=residual,
        queue_ok=queue_ok,
    )


@dataclass(eq=False)
class SlaterReport:
    eps_max: float
    delta_max: float
    a_const: float
    worst_margin: float
    ok: bool


def audit_slater(
    ensemble: EnsembleMetrics,
    spec: ProblemSpec,
    strategies: np.ndarray,
    v: float,
) -> SlaterReport:
    """One-sided sanity check of the log-growth queue envelope on an ensemble.

    Uses the conservative gap constant, so the envelope is loose by design;
    a violation signals a real problem.
    """
    event_pen = strategy_event_penalties(spec, strategies)
    r = r_matrix(spec, strategies, event_pen)
    p0_opt = solve_distributed_lp(spec, strategies, r=r).objective
    eps = epsilon_max(spec, strategies, r=r)
    if eps <= 0:
        raise Infeasible("no uniform slack; the envelope needs a Slater point")
    delta_max = queue_change_bound(spec)
    a_const = compute_B(spec, strategies, event_pen) + compute_F(spec, r, p0_opt) * v
    bounds = slater_queue_bound(a_const, eps, delta_max, np.arange(1, ensemble.horizon))
    worst = float(np.max(ensemble.mean_qnorm[1:] - bounds, initial=-math.inf))
    return SlaterReport(
        eps_max=eps,
        delta_max=delta_max,
        a_const=a_const,
        worst_margin=worst,
        ok=worst <= 0.0,
    )
