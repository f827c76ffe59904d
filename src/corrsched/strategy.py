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
    penalty_tables,
)

ENUM_CAP = 10**6
CHECK_CAP = 10**7
# strategy_event_penalties tries the product fold only on a set whose unfolded index
# has more entries than this: on the tiny sets of offline-many-small the product test
# alone doubled a tensor build (about 20 to 37-40 microseconds).
ONE_BLOCK_ENTRIES = 2**16
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
    """Every combination of one map per user, user 0 slowest: the lexicographic rows.

    The rows are written into one preallocated array: seen as
    (M_0, ..., M_{N-1}, sum_i |Omega_i|), user i's columns take its map list
    by one broadcast assignment along axis i.
    """
    per_user = [_user_maps(a, w, monotone) for a, w in zip(spec.action_sizes, spec.event_sizes)]
    counts = [len(maps) for maps in per_user]
    out = np.empty((math.prod(counts), sum(spec.event_sizes)), dtype=np.int64)
    grid = out.reshape(*counts, out.shape[1])
    start = 0
    for i, maps in enumerate(per_user):
        shape = [1] * len(counts) + [maps.shape[1]]
        shape[i] = counts[i]
        grid[..., start : start + maps.shape[1]] = maps.reshape(shape)
        start += maps.shape[1]
    return out


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
    starts = np.cumsum(spec.event_sizes) - spec.event_sizes  # each user's event-0 column
    return strategies[(strategies[:, starts] == 0).all(axis=1)]


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


def strategy_event_penalties(spec: ProblemSpec, strategies: np.ndarray) -> np.ndarray:
    """Penalties of every strategy at every event, shape (n_events, M, K+1).

    Event-major layout so a single event row (used by windowed estimators and
    per-slot bookkeeping) is contiguous.  Built by one row gather: the
    penalties are expanded once into a (n_events * n_actions, K+1) table
    whose row w * n_actions + a holds every penalty at event w and joint
    action a, and each strategy's row index at each event is taken from it.

    The index is a sum of per-user parts, broadcast-added over the joint
    events into one (n_events, M) int64 array (``_row_index``), 1/(K+1) of
    the tensor's 8 * n_events * M * (K+1) bytes.

    A set past ONE_BLOCK_ENTRIES that is a product R x L of rows R of users
    0..N-2 and maps L of the last user (row r * |L| + l joins R[r] and L[l],
    as every enumerated set does) has the last user folded into the table:
    its row (w, actions of users 0..N-2) holds the |L| * (K+1) penalties of
    every map in L at w.  The index is then built as above over R alone,
    with the last user as a one-action user, so it is |L| times shorter and
    each gathered row is one contiguous block of |L| strategies.  The fold
    is taken only when its table has at most as many entries as the whole
    index it replaces, n_events * M.  For G gathered rows (M, or |R| after
    the fold) the index peaks at
    8 * G * (|Omega_{N-1}| + n_events / |Omega_{N-1}| + n_events) bytes:
    the last user's part, the sum of the parts before it and the whole index.
    """
    tables = penalty_tables(spec)
    flat = np.ascontiguousarray(tables.transpose(1, 2, 0), dtype=float).reshape(-1, len(tables))
    strategies = np.asarray(strategies)
    maps = user_maps(spec, strategies)
    m = len(strategies)
    actions = spec.action_sizes
    if spec.n_users > 1 and spec.n_events * m > ONE_BLOCK_ENTRIES:
        run = _last_user_run(strategies, spec.event_sizes[-1])
        if run is not None and flat.size // actions[-1] * run <= spec.n_events * m:
            flat = _fold_last_user(spec, flat, maps[-1][:run])
            maps = [g[::run] for g in maps[:-1]] + [np.broadcast_to(0, (m // run, maps[-1].shape[1]))]
            actions = actions[:-1] + (1,)
    index = _row_index(spec.event_sizes, actions, maps)
    return flat.take(index, axis=0).reshape(spec.n_events, m, len(tables))


def _last_user_run(strategies: np.ndarray, width: int) -> int | None:
    """The length of the runs in which a set is a product R x L, or None if it is not one.

    strategies holds M >= 1 rows whose last width columns are the last
    user's map.  The set is R x L when rows r * run .. (r + 1) * run - 1 all
    hold R[r] in the other columns, and every such run holds the same maps L
    of the last user.  The run is the number of leading rows that share row
    0's other columns, searched in blocks that double; every entry is then
    checked once.
    """
    rest, last = strategies[:, :-width], strategies[:, -width:]
    m = run = len(strategies)
    start = 1
    while start < m:
        changed = (rest[start : 2 * start] != rest[0]).any(axis=1)
        if changed.any():
            run = start + int(changed.argmax())
            break
        start *= 2
    runs, uneven = divmod(m, run)
    if uneven:
        return None
    if not (rest.reshape(runs, run, -1) == rest[::run, None]).all():
        return None
    if not (last.reshape(runs, run, width) == last[:run]).all():
        return None
    return run


def _fold_last_user(spec: ProblemSpec, flat: np.ndarray, last_maps: np.ndarray) -> np.ndarray:
    """The (n_events * n_actions, K+1) penalty table with the last user's maps folded in.

    Row w * (n_actions / |A_last|) + a of the result holds, for each map g
    in last_maps in turn, the penalties at event w and joint action
    (a, g(w_last)).
    """
    w_last, a_last = spec.event_sizes[-1], spec.action_sizes[-1]
    a_rest = spec.n_actions // a_last
    rows = np.arange(0, len(flat), a_last).reshape(-1, w_last, a_rest, 1) + last_maps.T[:, None, :]
    return flat.take(rows, axis=0).reshape(spec.n_events * a_rest, -1)


def _row_index(
    event_sizes: tuple[int, ...], action_sizes: tuple[int, ...], maps: list[np.ndarray]
) -> np.ndarray:
    """The (n_events, M) row index of each strategy in the penalty table, first user slowest.

    maps are the users' (M, |Omega_i|) maps; the table has one row per event
    and joint action of action_sizes.  User i's (|Omega_i|, M) part,
    omega_i * (event stride of i) * n_actions + (action stride of i) * g_i,
    is broadcast-added to the sum of the parts before it.
    """
    action_stride = math.prod(action_sizes)
    event_stride = math.prod(event_sizes) * action_stride
    index = None
    for w, a, g in zip(event_sizes, action_sizes, maps):
        event_stride //= w
        action_stride //= a
        part = np.multiply(g.T, action_stride, dtype=np.int64, order="C")
        part += np.arange(0, w * event_stride, event_stride)[:, None]
        index = part if index is None else np.add(index[:, None], part).reshape(len(index) * w, -1)
    return index


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

