"""Pure strategies: enumeration, monotone pruning, expected-penalty vectors.

A pure strategy assigns each user a deterministic map from its own observed
event to an action.  A strategy is one int row of length sum_i |Omega_i|:
user 0's map (its action at each of its events), then user 1's, and so on.
A strategy set is an (M, sum_i |Omega_i|) int64 array of such rows, ordered
lexicographically; that order fixes every downstream tie-break.  Only this
module knows the column layout; ``user_maps`` splits rows into per-user maps.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from .problem import (
    CapExceeded,
    ProblemSpec,
    ProductDistribution,
    flat_event_probabilities,
    joint_components,
    joint_strides,
    penalty_tables,
)

ENUM_CAP = 10**6
CHECK_CAP = 10**7
MONOTONE_TOL = 1e-12


def user_maps(spec: ProblemSpec, strategies: np.ndarray) -> list[np.ndarray]:
    """Per-user column views of a strategy row or set: entry i is g_i, (..., |Omega_i|)."""
    strategies = np.asarray(strategies)
    ends = np.cumsum(spec.event_sizes)
    return [strategies[..., end - w : end] for end, w in zip(ends, spec.event_sizes)]


def _user_maps(n_actions: int, n_events: int, monotone: bool) -> np.ndarray:
    """One user's maps Omega_i -> A_i as lexicographic rows, or only the non-decreasing ones.

    Combinations with replacement are exactly the non-decreasing maps, in that order.
    """
    if monotone:
        maps = combinations_with_replacement(range(n_actions), n_events)
        return np.array(list(maps), dtype=np.int64).reshape(-1, n_events)
    shape = (n_actions,) * n_events
    return np.stack(np.unravel_index(np.arange(n_actions**n_events), shape), axis=1)


def _strategy_set(spec: ProblemSpec, monotone: bool) -> np.ndarray:
    """Every combination of one map per user, user 0 slowest: the lexicographic rows."""
    per_user = [_user_maps(a, w, monotone) for a, w in zip(spec.action_sizes, spec.event_sizes)]
    picks = np.indices([len(maps) for maps in per_user]).reshape(len(per_user), -1)
    return np.concatenate([maps[idx] for maps, idx in zip(per_user, picks)], axis=1)


def user_map_counts(spec: ProblemSpec, monotone: bool = False) -> list[int]:
    """Maps Omega_i -> A_i per user: all of them, or only the non-decreasing ones."""
    sizes = zip(spec.action_sizes, spec.event_sizes)
    return [math.comb(w + a - 1, a - 1) if monotone else a**w for a, w in sizes]


def count_all(spec: ProblemSpec) -> int:
    return math.prod(user_map_counts(spec))


def count_nondecreasing(spec: ProblemSpec) -> int:
    return math.prod(user_map_counts(spec, monotone=True))


def enumerate_all(spec: ProblemSpec, cap: int = ENUM_CAP) -> np.ndarray:
    """Every pure strategy, lexicographic order; raises CapExceeded past cap."""
    m = count_all(spec)
    if m > cap:
        raise CapExceeded(m, cap)
    return _strategy_set(spec, monotone=False)


def enumerate_nondecreasing(spec: ProblemSpec, cap: int = ENUM_CAP) -> np.ndarray:
    """All strategies whose per-user maps are non-decreasing in the event.

    With binary actions each per-user map is a threshold rule, so the count
    is prod_i (|Omega_i| + 1).  Only sound as a pruning of enumerate_all when
    prune_applicable(spec) holds.
    """
    m = count_nondecreasing(spec)
    if m > cap:
        raise CapExceeded(m, cap)
    return _strategy_set(spec, monotone=True)


def drop_act_on_zero(spec: ProblemSpec, strategies: np.ndarray) -> np.ndarray:
    """Keep only strategies where every user idles (action 0) on event 0.

    Fixture-level filter for instances where acting on the zero event is
    useless by inspection; it is not a general dominance engine.
    """
    strategies = np.asarray(strategies)
    return strategies[np.all([g[:, 0] == 0 for g in user_maps(spec, strategies)], axis=0)]


def check_preferred_action(spec: ProblemSpec, k: int) -> bool:
    """Exhaustively test the preferred action property of penalty k.

    The property holds when, for every user, the penalty difference between a
    larger and a smaller own-action is non-increasing in the own-event with
    everything else fixed.  Checking consecutive action and event pairs is
    equivalent to checking all pairs.
    """
    if not 0 <= k <= spec.n_constraints:
        raise IndexError(f"penalty index {k} out of range")
    work = spec.n_events * spec.n_actions * spec.n_users
    if work > CHECK_CAP:
        raise CapExceeded(work, CHECK_CAP)
    table = spec.penalties[k].expand(spec.action_sizes, spec.event_sizes)
    shaped = table.reshape(spec.event_sizes + spec.action_sizes)
    n = spec.n_users
    for i in range(n):
        view = np.moveaxis(shaped, (i, n + i), (0, 1))  # (|Omega_i|, |A_i|, ...)
        if view.shape[0] < 2 or view.shape[1] < 2:
            continue
        diff_alpha = np.diff(view, axis=1)
        step_omega = np.diff(diff_alpha, axis=0)
        if np.any(step_omega > MONOTONE_TOL):
            return False
    return True


def prune_applicable(spec: ProblemSpec) -> bool:
    """True when restriction to non-decreasing strategies loses nothing.

    Requires independent events with strictly positive marginals and the
    preferred action property for every penalty, the objective included.
    """
    dist = spec.distribution
    if not isinstance(dist, ProductDistribution):
        return False
    if any(np.any(q <= 0) for q in dist.marginals):
        return False
    return all(check_preferred_action(spec, k) for k in range(spec.n_constraints + 1))


def strategy_action_table(spec: ProblemSpec, strategies: np.ndarray) -> np.ndarray:
    """Flat action index chosen by each strategy at each event, shape (M, n_events)."""
    omega_comp = joint_components(spec.event_sizes)
    strides = joint_strides(spec.action_sizes)
    out = np.zeros((len(strategies), spec.n_events), dtype=np.int64)
    for i, g in enumerate(user_maps(spec, strategies)):
        out += strides[i] * g[:, omega_comp[:, i]]
    return out


def strategy_event_penalties(spec: ProblemSpec, strategies: np.ndarray) -> np.ndarray:
    """Penalties of every strategy at every event, shape (n_events, M, K+1).

    Event-major layout so a single event row (used by windowed estimators and
    per-slot bookkeeping) is contiguous.  Built by one row gather: the
    penalties are expanded once into a (n_events * n_actions, K+1) table
    whose row w * n_actions + a holds every penalty at event w and joint
    action a, and each strategy's row index at each event is taken from it.
    The tensor takes 8 * n_events * M * (K+1) bytes; the int64 index adds
    8 * n_events * M while it is built.
    """
    tables = penalty_tables(spec)
    flat = np.ascontiguousarray(tables.transpose(1, 2, 0), dtype=float).reshape(-1, len(tables))
    offsets = np.arange(spec.n_events, dtype=np.int64) * spec.n_actions
    # a C-ordered index: given a transposed one, take copies it first
    rows = np.add(strategy_action_table(spec, strategies).T, offsets[:, None], order="C")
    return flat.take(rows, axis=0)


def r_matrix(
    spec: ProblemSpec,
    strategies: np.ndarray,
    event_penalties: np.ndarray | None = None,
) -> np.ndarray:
    """Expected-penalty vectors r^(m), shape (M, K+1); exact sums over events."""
    if event_penalties is None:
        event_penalties = strategy_event_penalties(spec, strategies)
    pi = flat_event_probabilities(spec.distribution, spec.event_sizes)
    return np.tensordot(pi, event_penalties, axes=(0, 0))

