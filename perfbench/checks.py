"""Correctness checks run outside the timed region.

Each check takes plain numbers or arrays and returns a list of failure
messages (empty when the output is correct), so the benchmark's tests can
feed every check a deliberately wrong input and watch it fail.
"""

from __future__ import annotations

import numpy as np

QUEUE_RESIDUAL_TOL = 1e-9
# criterion 7 of the acceptance suite: three-sensor approx run, V=50
CRIT7_UTILITY = 0.464545
CRIT7_UTILITY_TOL = 0.015
CRIT7_PBAR_SLACK = 0.005
LP_TOL = 1e-9


def queue_residual(residuals) -> list[str]:
    """Every run's sample-path queue-bound residual is at most 1e-9."""
    worst = float(np.max(residuals))
    if not worst <= QUEUE_RESIDUAL_TOL:
        return [f"queue-bound residual {worst:.3e} > {QUEUE_RESIDUAL_TOL:g}"]
    return []


def criterion7(utility: float, pbar, constraints) -> list[str]:
    """Three-sensor run meets criterion 7's utility and pbar tolerances."""
    out = []
    if not abs(utility - CRIT7_UTILITY) <= CRIT7_UTILITY_TOL:
        out.append(f"utility {utility:.6f} not within {CRIT7_UTILITY_TOL} of {CRIT7_UTILITY}")
    excess = np.asarray(pbar) - (np.asarray(constraints) + CRIT7_PBAR_SLACK)
    if not np.all(excess <= 0):
        out.append(f"pbar exceeds c + {CRIT7_PBAR_SLACK} by {float(excess.max()):.3e}")
    return out


def mean_rate_envelope(final_queue_norms, horizon: int, b: float, f: float, v: float) -> list[str]:
    """Mean ||Q(T)||/T over the ensemble stays below sqrt(2(B+FV)/T) (criterion 10)."""
    rate = float(np.mean(final_queue_norms)) / horizon
    envelope = float(np.sqrt(2.0 * (b + f * v) / horizon))
    if not rate <= envelope:
        return [f"mean ||Q(T)||/T {rate:.3e} > envelope {envelope:.3e}"]
    return []


def lp_certificate(r: np.ndarray, c, theta_support, support_idx, objective: float) -> list[str]:
    """Optimality certificate of the correlated LP min r0.theta, R theta <= c, 1.theta = 1.

    Checks primal feasibility and the K+1 support bound, then solves for the
    multipliers from the support columns and the binding rows:
    r0_m + lambda . r_m = nu on the support, lambda_k = 0 on slack rows.
    Optimal iff lambda >= 0 and every strategy's reduced cost
    r0_m + lambda . r_m - nu is >= -1e-9.
    """
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    k = len(c)
    support_idx = np.asarray(support_idx, dtype=np.int64)
    theta = np.asarray(theta_support, dtype=float)
    out = []
    if len(support_idx) > k + 1:
        out.append(f"support {len(support_idx)} > K+1 = {k + 1}")
    if np.any(theta < -LP_TOL) or abs(theta.sum() - 1.0) > LP_TOL:
        out.append("support weights are not a probability vector")
    achieved = theta @ r[support_idx, 1:]
    if np.any(achieved > c + LP_TOL):
        out.append(f"constraints violated by {float((achieved - c).max()):.3e}")
    primal = float(theta @ r[support_idx, 0])
    if abs(primal - objective) > LP_TOL:
        out.append(f"reported objective {objective!r} != theta . r0 = {primal!r}")
    if out:
        return out

    binding = np.flatnonzero(achieved >= c - LP_TOL)
    # unknowns: lambda over binding rows, then nu
    a = np.hstack([r[support_idx][:, 1:][:, binding], -np.ones((len(support_idx), 1))])
    sol, *_ = np.linalg.lstsq(a, -r[support_idx, 0], rcond=None)
    lam = np.zeros(k)
    lam[binding] = sol[:-1]
    nu = sol[-1]
    resid = float(np.max(np.abs(a @ sol + r[support_idx, 0])))
    if resid > LP_TOL:
        out.append(f"no multipliers make the support columns tight (residual {resid:.3e})")
    if np.any(lam < -LP_TOL):
        out.append(f"negative multiplier {float(lam.min()):.3e}")
    reduced = r[:, 0] + r[:, 1:] @ lam - nu
    worst = float(reduced.min())
    if worst < -LP_TOL:
        out.append(f"strategy {int(reduced.argmin())} has reduced cost {worst:.3e}")
    dual = float(nu - lam @ c)
    if abs(dual - objective) > LP_TOL * max(1.0, abs(objective)):
        out.append(f"duality gap {abs(dual - objective):.3e}")
    return out


def oracle_match(lp_objective: float, oracle: float | None) -> list[str]:
    """Correlated LP optimum equals the brute-force oracle to 1e-9."""
    if oracle is None:
        return ["oracle found no feasible support"]
    if not abs(lp_objective - oracle) <= LP_TOL:
        return [f"LP objective {lp_objective!r} != oracle {oracle!r}"]
    return []


def policy_ordering(centralized: float, correlated: float, independent: float) -> list[str]:
    """Utilities order as centralized >= correlated >= best probed independent."""
    out = []
    if not centralized >= correlated - LP_TOL:
        out.append(f"centralized {centralized!r} < correlated {correlated!r}")
    if not correlated >= independent - LP_TOL:
        out.append(f"correlated {correlated!r} < independent {independent!r}")
    return out
