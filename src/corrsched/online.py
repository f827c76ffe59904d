"""Online drift-plus-penalty control with virtual queues and delayed feedback.

Each constraint carries a virtual queue updated by
``Q_k(t+1) = max(Q_k(t) + p_k(t-D) - c_k, 0)`` with ``p_k`` taken as zero for
negative slots.  Every slot the controller picks the strategy index
minimizing ``V r_0 + sum_k Q_k r_k``.  Exact and approx mode differ only in
the matrix those weights multiply: the exact expected penalties ``r``, or
the window's running sums of sampled penalty rows.  Ties always resolve to
the lowest index.  When every penalty splits per user, exact mode splits
the minimum too: each user takes its own argmin at its own event, with no
strategy enumeration.

The queue update and the selection rules themselves run in the simulator's
kernel, over chunks of slots and many runs at once.  This module holds what
the kernel needs besides: the controller parameters, the window estimator,
the per-user split, and the bound constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import (
    ProblemSpec,
    flat_event_probabilities,
    joint_components,
    penalty_tables,
)
from .strategy import strategy_event_penalties

SEPARABLE_TOL = 1e-9
SEPARABLE_CAP = 10**7
MODES = ("exact", "approx")


@dataclass
class DppConfig:
    """Controller parameters: tradeoff weight V, feedback delay D, mode, approx's window."""

    v: float
    delay: int = 0
    mode: str = "exact"  # one of MODES
    window: int | None = None

    def __post_init__(self):
        if self.v < 0:
            raise ValueError("V must be non-negative")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "approx" and (self.window is None or self.window < 1):
            raise ValueError("approx mode needs window >= 1")
        if self.mode != "approx" and self.window is not None:
            raise ValueError(f"a window applies only to approx mode, not {self.mode!r}")


class RollingEstimator:
    """Moving-window averages of per-strategy penalties from delayed samples.

    Keeps the last W delayed event samples and ``sums``, the running sum of
    their penalty rows over ``count`` samples, so the estimate for each
    strategy and penalty is ``sums / count``.  The kernel scores strategies
    with ``sums`` itself: dividing by the count does not move the argmin.
    ``push`` updates ``sums`` in place.  It starts as fresh zeros, or as the
    zero (M, K+1) array passed as ``sums``, such as a row of a larger array:
    the simulator scores every run's window with one stacked product that
    way.
    """

    def __init__(self, event_penalties: np.ndarray, window: int, sums: np.ndarray | None = None):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.event_penalties = event_penalties  # (n_events, M, K+1)
        self.window = window
        self.samples = np.zeros(window, dtype=np.int64)
        self.count = 0
        self._pos = 0
        self.sums = np.zeros(event_penalties.shape[1:]) if sums is None else sums

    def push(self, event_index: int) -> None:
        if self.count == self.window:
            self.sums -= self.event_penalties[self.samples[self._pos]]
        else:
            self.count += 1
        self.samples[self._pos] = event_index
        self._pos = (self._pos + 1) % self.window
        self.sums += self.event_penalties[event_index]


# ---------------------------------------------------------------------------
# Per-user split
# ---------------------------------------------------------------------------


def separable_components(spec: ProblemSpec) -> tuple[list[np.ndarray], np.ndarray] | None:
    """Split every penalty into per-user terms; None when they do not split.

    Uses the uniform-average decomposition: the candidate per-user component
    is the penalty's mean over all other coordinates, recentered so the parts
    sum back to the grand mean.  The split is accepted only if reassembling
    the parts reproduces every table entry, to within SEPARABLE_TOL times
    that table's largest magnitude, so the answer does not depend on units.
    Returns one (K+1, |Omega_i|, |A_i|) array per user, together with the
    ``penalty_tables(spec)`` they were split from, so a caller running the
    per-user rule expands the penalties only once.  Also None, without
    building any table, when a table would hold more than SEPARABLE_CAP
    entries.
    """
    if spec.n_events * spec.n_actions > SEPARABLE_CAP:
        return None
    tables = penalty_tables(spec)
    n = spec.n_users
    shaped = tables.reshape((len(tables),) + spec.event_sizes + spec.action_sizes)
    components = [
        np.zeros((len(tables), spec.event_sizes[i], spec.action_sizes[i]))
        for i in range(n)
    ]
    omega_comp = joint_components(spec.event_sizes)
    alpha_comp = joint_components(spec.action_sizes)
    for k in range(len(tables)):
        grand = float(np.mean(shaped[k]))
        rebuilt = np.zeros((spec.n_events, spec.n_actions))
        for i in range(n):
            keep = (1 + i, 1 + n + i)
            other_axes = tuple(
                ax for ax in range(1, 1 + 2 * n) if ax not in keep
            )
            mean_i = np.mean(shaped[k], axis=tuple(a - 1 for a in other_axes))
            comp = mean_i - (n - 1) / n * grand
            components[i][k] = comp
            rebuilt += comp[np.ix_(omega_comp[:, i], alpha_comp[:, i])]
        atol = SEPARABLE_TOL * float(np.max(np.abs(tables[k])))
        if not np.allclose(rebuilt, tables[k], atol=atol, rtol=0.0):
            return None
    return components, tables


# ---------------------------------------------------------------------------
# Bound constants
# ---------------------------------------------------------------------------


def compute_B(
    spec: ProblemSpec,
    strategies: np.ndarray,
    event_penalties: np.ndarray | None = None,
) -> float:
    """Drift constant: worst strategy's half mean squared constraint deviation."""
    if spec.n_constraints == 0:
        return 0.0
    if event_penalties is None:
        event_penalties = strategy_event_penalties(spec, strategies)
    pi = flat_event_probabilities(spec.distribution, spec.event_sizes)
    dev = event_penalties[:, :, 1:] - np.asarray(spec.constraints)
    per_strategy = 0.5 * np.einsum("w,wmk->m", pi, dev * dev)
    return float(per_strategy.max())


def compute_F(spec: ProblemSpec, r: np.ndarray, p0_opt: float) -> float:
    """Conservative optimality-gap constant for queue-growth envelopes."""
    table0 = spec.penalties[0].expand(spec.action_sizes, spec.event_sizes)
    span = float(table0.max() - table0.min())
    return float(np.max(np.abs(p0_opt - r[:, 0]))) + span


def performance_bound(
    b: float, delay: int, v: float, t: int | np.ndarray, l_d: float, p0_opt: float
) -> float | np.ndarray:
    """Upper bound on the running mean of p_0 after t slots, for one t or an array of them."""
    if v <= 0:
        raise ValueError("V must be positive for the performance bound")
    if np.any(np.asarray(t) <= 0):
        raise ValueError("t must be positive")
    return p0_opt + b * (1 + 2 * delay) / v + l_d / (v * t)


def slater_queue_bound(
    a: float, eps: float, delta_max: float, t: int | np.ndarray
) -> float | np.ndarray:
    """Expected queue-norm bound under a Slater slack of eps, for one t or an array of them.

    Grows like O(log t); valid for drift satisfying
    E[drift | Q] <= a - eps * sum_k Q_k with zero initial queues.
    """
    r = eps / (delta_max**2 + eps * delta_max / 3.0)
    head = math.log(2.0) / r
    tail = max(2.0 * a / eps, eps / 2.0) + np.log(
        2.0 * np.asarray(t) * (math.exp(r * delta_max) - 1.0)
    ) / r
    return np.maximum(head, tail)


def queue_change_bound(spec: ProblemSpec) -> float:
    """Largest possible one-slot change of the queue norm."""
    tables = penalty_tables(spec)
    if spec.n_constraints == 0:
        return 0.0
    dev = np.abs(tables[1:] - np.asarray(spec.constraints)[:, None, None])
    per_k = dev.reshape(spec.n_constraints, -1).max(axis=1)
    return float(np.sqrt(np.sum(per_k**2)))
