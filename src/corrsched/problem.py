"""Problem instances for multi-user scheduling under time-average constraints.

A problem bundles finite per-user action and event spaces, the random-event
distribution, a stack of K+1 penalty functions (index 0 is the negated system
utility), and the K constraint levels c_k.  Actions and events are dense
integer ranges starting at 0.  Flat indices over the joint spaces use C order
with user 0 most significant; dense penalty tables are indexed
``[event_flat, action_flat]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence, Union, get_args

import numpy as np

PROB_TOL = 1e-12


class CapExceeded(Exception):
    """An enumeration or exhaustive check would exceed its size cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"size {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


def joint_strides(sizes: Sequence[int]) -> np.ndarray:
    """C-order strides for flattening a tuple of per-user indices; cached, so read-only."""
    return _joint_strides(tuple(int(n) for n in sizes))


@functools.lru_cache(maxsize=64)
def _joint_strides(sizes: tuple[int, ...]) -> np.ndarray:
    out = np.array([math.prod(sizes[i + 1 :]) for i in range(len(sizes))], dtype=np.int64)
    out.flags.writeable = False
    return out


def joint_components(sizes: Sequence[int]) -> np.ndarray:
    """Per-user components of every flat index, shape (prod(sizes), n_users)."""
    n = math.prod(sizes)
    return np.array(np.unravel_index(np.arange(n), tuple(sizes))).T


def _component(sizes: Sequence[int], i: int) -> np.ndarray:
    """User i's component of every flat index, one column of ``joint_components``."""
    return np.arange(math.prod(sizes)) // math.prod(sizes[i + 1 :]) % sizes[i]


def _frozen(values) -> np.ndarray:
    """A read-only float copy of values: a spec shares no array with its caller.

    Offline answers are cached per spec object (``optimizer.offline_model``),
    so the numbers they were computed from must never change.
    """
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Event distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Explicit joint event table; zero-probability outcomes are allowed."""

    table: np.ndarray  # shape = event_sizes

    def __post_init__(self):
        object.__setattr__(self, "table", _frozen(self.table))


@dataclass(frozen=True, eq=False)
class ProductDistribution:
    """Mutually independent per-user event marginals q_i."""

    marginals: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(_frozen(q) for q in self.marginals))


EventDistribution = Union[JointDistribution, ProductDistribution]


def flat_event_probabilities(
    distribution: EventDistribution, event_sizes: Sequence[int]
) -> np.ndarray:
    """Probability of every flat event index, shape (prod(event_sizes),)."""
    if isinstance(distribution, JointDistribution):
        table = distribution.table.reshape(tuple(event_sizes))
        return table.reshape(-1).astype(float)
    pi = np.ones(1)
    for q in distribution.marginals:
        pi = np.outer(pi, q).reshape(-1)
    return pi


def sample_event_indices(
    distribution: EventDistribution,
    event_sizes: Sequence[int],
    rng: np.random.Generator,
    n: int,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Draw n i.i.d. flat event indices from the distribution.

    Product mode draws each user's stream separately (user 0 first); joint
    mode uses inverse-CDF over the flattened table.  Deterministic given the
    generator state.

    With ``stop`` set, only slots [start, stop) of that n-slot draw are
    returned, bit-identical to the same slice of the one-shot draw.  They
    come from copies of rng advanced to the slice's stream positions, so rng
    itself does not move; ``skip_event_draws`` moves it past the whole draw.
    This needs a bit generator with ``advance`` (PCG64, as in default_rng),
    whose doubles take one 64-bit output each.
    """
    one_shot = stop is None
    if one_shot:
        start, stop = 0, n

    def uniforms(stream: int) -> np.ndarray:
        # stream s of the one-shot draw occupies positions [s*n, (s+1)*n)
        if one_shot:
            return rng.random(n)
        bit_gen = type(rng.bit_generator)()
        bit_gen.state = rng.bit_generator.state
        bit_gen.advance(stream * n + start)
        return np.random.Generator(bit_gen).random(stop - start)

    if isinstance(distribution, ProductDistribution):
        strides = joint_strides(event_sizes)
        out = np.zeros(stop - start, dtype=np.int64)
        for i, q in enumerate(distribution.marginals):
            edges = np.cumsum(q)
            edges[-1] = 1.0
            out += strides[i] * np.searchsorted(edges, uniforms(i), side="right")
        return out
    edges = np.cumsum(flat_event_probabilities(distribution, event_sizes))
    edges[-1] = 1.0
    return np.searchsorted(edges, uniforms(0), side="right").astype(np.int64)


def skip_event_draws(distribution: EventDistribution, rng: np.random.Generator, n: int) -> None:
    """Advance rng past an n-slot ``sample_event_indices`` draw, as drawing it would."""
    streams = len(distribution.marginals) if isinstance(distribution, ProductDistribution) else 1
    rng.bit_generator.advance(streams * n)


# ---------------------------------------------------------------------------
# Penalty functions
# ---------------------------------------------------------------------------


def _check_per_user(name: str, vectors, sizes) -> None:
    """Raise ValueError unless vectors holds one (sizes[i],) vector for each user i."""
    shapes = [np.shape(v) for v in vectors]
    if shapes != [(n,) for n in sizes]:
        raise ValueError(f"{name} must be one vector per user of lengths {list(sizes)}, not {shapes}")


@dataclass(frozen=True, eq=False)
class FullTable:
    """Dense penalty values indexed [event_flat, action_flat]."""

    values: np.ndarray

    kind = "full_table"

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))

    def expand(self, action_sizes, event_sizes) -> np.ndarray:
        n_omega = math.prod(event_sizes)
        n_alpha = math.prod(action_sizes)
        if self.values.shape != (n_omega, n_alpha):
            raise ValueError(
                f"table shape {self.values.shape} != ({n_omega}, {n_alpha})"
            )
        return self.values


@dataclass(frozen=True)
class PowerPerUser:
    """Penalty equal to one user's own action value (its power draw)."""

    user: int

    kind = "power_per_user"

    def __post_init__(self):
        object.__setattr__(self, "user", int(self.user))

    def expand(self, action_sizes, event_sizes) -> np.ndarray:
        if not 0 <= self.user < len(action_sizes):
            raise ValueError(f"user {self.user} is not in [0, {len(action_sizes)})")
        return _power_table(self.user, tuple(action_sizes), tuple(event_sizes))


@functools.lru_cache(maxsize=8)
def _power_table(user: int, action_sizes: tuple, event_sizes: tuple) -> np.ndarray:
    """PowerPerUser's table; cached for the last few shapes, so read-only."""
    out = np.empty((math.prod(event_sizes), math.prod(action_sizes)))
    out[:] = _component(action_sizes, user)  # the user's own action
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class MinSumUtilityNeg:
    """Negated saturating utility: -min(sum_i weights_i[omega_i] * alpha_i, cap).

    Models information saturation: once the weighted report total reaches
    ``cap``, further reports add nothing.
    """

    weights: tuple[np.ndarray, ...]  # per user, length |Omega_i|
    cap: float

    kind = "min_sum_utility_neg"

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(_frozen(w) for w in self.weights))
        object.__setattr__(self, "cap", float(self.cap))

    def expand(self, action_sizes, event_sizes) -> np.ndarray:
        _check_per_user("weights", self.weights, event_sizes)
        total = np.zeros((math.prod(event_sizes), math.prod(action_sizes)))
        for i, w in enumerate(self.weights):
            total += np.outer(w[_component(event_sizes, i)], _component(action_sizes, i))
        return -np.minimum(total, self.cap)


@dataclass(frozen=True)
class CollisionUtilityNeg:
    """Negated collision-channel utility for binary transmit decisions.

    A transmission succeeds (and contributes its event value omega_i) only
    when no other user transmits in the same slot.
    """

    kind = "collision_utility_neg"

    def expand(self, action_sizes, event_sizes) -> np.ndarray:
        alpha_comp = [_component(action_sizes, i) for i in range(len(action_sizes))]
        n_transmitting = sum(alpha_comp)
        u = np.zeros((math.prod(event_sizes), math.prod(action_sizes)))
        for i, alpha in enumerate(alpha_comp):
            alone = (alpha == 1) & (n_transmitting == 1)  # actions are >= 0
            u += np.outer(_component(event_sizes, i).astype(float), alone.astype(float))
        return -u


@dataclass(frozen=True, eq=False)
class WeightedSum:
    """Non-negative combination of child penalty functions."""

    coefficients: tuple[float, ...]
    children: tuple

    kind = "weighted_sum"

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(w) for w in self.coefficients))
        object.__setattr__(self, "children", tuple(self.children))

    def expand(self, action_sizes, event_sizes) -> np.ndarray:
        if len(self.coefficients) != len(self.children):
            raise ValueError(f"{len(self.coefficients)} coefficients for {len(self.children)} children")
        out = np.zeros((math.prod(event_sizes), math.prod(action_sizes)))
        for w, child in zip(self.coefficients, self.children):
            out += w * child.expand(action_sizes, event_sizes)
        return out


@dataclass(frozen=True, eq=False)
class ProductForm:
    """Separable product prod_i phis_i[omega_i] * psis_i[alpha_i]."""

    phis: tuple[np.ndarray, ...]
    psis: tuple[np.ndarray, ...]

    kind = "product_form"

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(_frozen(p) for p in self.phis))
        object.__setattr__(self, "psis", tuple(_frozen(p) for p in self.psis))

    def expand(self, action_sizes, event_sizes) -> np.ndarray:
        _check_per_user("phis", self.phis, event_sizes)
        _check_per_user("psis", self.psis, action_sizes)
        phi = np.ones(math.prod(event_sizes))
        psi = np.ones(math.prod(action_sizes))
        for i in range(len(self.phis)):
            phi = phi * self.phis[i][_component(event_sizes, i)]
            psi = psi * self.psis[i][_component(action_sizes, i)]
        return np.outer(phi, psi)


PenaltyFn = Union[
    FullTable, PowerPerUser, MinSumUtilityNeg, CollisionUtilityNeg, WeightedSum, ProductForm
]

# Each family's file format is its kind plus its dataclass fields as params.
PENALTY_KINDS = {cls.kind: cls for cls in get_args(PenaltyFn)}


# ---------------------------------------------------------------------------
# Problem spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Immutable problem instance; validate with :func:`validate_spec`.

    Every array it holds is a read-only copy made when its distribution or
    penalty was built.  Specs compare by identity: two equal specs are two
    instances, each with its own cached offline answers.
    """

    action_sizes: tuple[int, ...]
    event_sizes: tuple[int, ...]
    distribution: EventDistribution
    penalties: tuple[PenaltyFn, ...]  # K+1 entries, [0] is the negated utility
    constraints: tuple[float, ...]  # c_k, k = 1..K

    def __post_init__(self):
        object.__setattr__(self, "action_sizes", tuple(int(a) for a in self.action_sizes))
        object.__setattr__(self, "event_sizes", tuple(int(w) for w in self.event_sizes))
        object.__setattr__(self, "penalties", tuple(self.penalties))
        object.__setattr__(self, "constraints", tuple(float(c) for c in self.constraints))

    @property
    def n_users(self) -> int:
        return len(self.action_sizes)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @property
    def n_actions(self) -> int:
        return math.prod(self.action_sizes)

    @property
    def n_events(self) -> int:
        return math.prod(self.event_sizes)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def distribution_violations(dist: EventDistribution, event_sizes: Sequence[int]) -> list[str]:
    """What is wrong with dist as a distribution over events of these sizes; empty when valid.

    Every probability must be finite.  Product-mode marginals must be
    strictly positive (zero marginals break the pruning theory this library
    relies on), while joint tables may contain zeros.
    """
    violations = []
    if isinstance(dist, ProductDistribution):
        if len(dist.marginals) != len(event_sizes):
            return ["marginal count != number of users"]
        for i, q in enumerate(dist.marginals):
            if q.shape != (event_sizes[i],):
                violations.append(f"user {i} marginal has wrong length")
                continue
            if not np.isfinite(q).all():
                violations.append(f"user {i} marginal has non-finite entries")
                continue
            low, total = q.min(initial=np.inf), q.sum()
            if low < 0:
                violations.append(f"user {i} marginal has negative entries")
            if abs(total - 1.0) > PROB_TOL:
                violations.append(f"user {i} marginal not normalized (sum {total!r})")
            if low <= 0:
                violations.append(f"user {i} has a zero marginal probability")
    elif isinstance(dist, JointDistribution):
        if dist.table.shape != tuple(event_sizes) and dist.table.size != math.prod(event_sizes):
            return ["joint table shape does not match event sizes"]
        flat = dist.table.reshape(-1)
        if not np.isfinite(flat).all():
            return ["joint table has non-finite entries"]
        if flat.min(initial=np.inf) < 0:
            violations.append("joint table has negative entries")
        total = flat.sum()
        if abs(total - 1.0) > PROB_TOL:
            violations.append(f"joint table not normalized (sum {total!r})")
    else:
        violations.append(f"unknown distribution type {type(dist).__name__}")
    return violations


def validate_spec(spec: ProblemSpec) -> ValidationReport:
    """Check sizes, the distribution (``distribution_violations``), and penalty finiteness.

    Returns a report object; it never raises.
    """
    report = ValidationReport()
    if spec.n_users < 1:
        report.add("no users")
        return report
    if len(spec.event_sizes) != spec.n_users:
        report.add("event_sizes length != action_sizes length")
        return report
    if any(a < 1 for a in spec.action_sizes) or any(w < 1 for w in spec.event_sizes):
        report.add("all action/event sizes must be >= 1")
        return report
    if len(spec.penalties) != spec.n_constraints + 1:
        report.add(
            f"penalties length {len(spec.penalties)} != K+1 = {spec.n_constraints + 1}"
        )
        return report

    for message in distribution_violations(spec.distribution, spec.event_sizes):
        report.add(message)

    for k, pen in enumerate(spec.penalties):
        try:
            table = pen.expand(spec.action_sizes, spec.event_sizes)
        except Exception as exc:  # shape/parameter errors surface as violations
            report.add(f"penalty {k} cannot be evaluated: {exc}")
            continue
        if not np.isfinite(table).all():
            report.add(f"penalty {k} is not finite everywhere")
    return report


def penalty_tables(spec: ProblemSpec) -> np.ndarray:
    """All penalties expanded to one array of shape (K+1, n_events, n_actions)."""
    return np.stack(
        [pen.expand(spec.action_sizes, spec.event_sizes) for pen in spec.penalties]
    )
