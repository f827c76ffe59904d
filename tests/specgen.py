"""Random small problem instances for property and acceptance tests."""

from __future__ import annotations

import math

import numpy as np

from corrsched import (
    CollisionUtilityNeg,
    FullTable,
    MinSumUtilityNeg,
    PowerPerUser,
    ProblemSpec,
    ProductDistribution,
    ProductForm,
    WeightedSum,
    enumerate_all,
    r_matrix,
)
from corrsched.problem import JointDistribution, joint_components


def scaled_spec(spec: ProblemSpec, lam: float) -> ProblemSpec:
    """The same instance with every penalty and budget multiplied by lam."""
    return ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=tuple(WeightedSum(coefficients=(lam,), children=(pen,)) for pen in spec.penalties),
        constraints=tuple(lam * c for c in spec.constraints),
    )


def random_product_distribution(rng, event_sizes) -> ProductDistribution:
    qs = []
    for w in event_sizes:
        q = rng.uniform(0.1, 1.0, w)
        qs.append(q / q.sum())
    return ProductDistribution(tuple(qs))


def random_joint_distribution(rng, event_sizes) -> JointDistribution:
    table = rng.uniform(0.05, 1.0, tuple(event_sizes))
    return JointDistribution(table / table.sum())


def feasible_constraints(
    rng, spec_without_constraints, n_constraints, slack=(0.0, 0.3), anchor="mixture"
):
    """Constraint levels achievable with margin.

    anchor="mixture" places them at a random strategy mixture (feasible for
    the correlated LP); anchor="pure" at a single pure strategy, so that an
    independent policy is feasible too.
    """
    strategies = enumerate_all(spec_without_constraints)
    r = r_matrix(spec_without_constraints, strategies)
    if anchor == "pure":
        base = r[int(rng.integers(0, len(strategies)))]
    else:
        base = rng.dirichlet(np.ones(len(strategies))) @ r
    lo, hi = slack
    return tuple(float(base[1 + j] + rng.uniform(lo, hi)) for j in range(n_constraints))


def random_spec(
    rng,
    max_users: int = 2,
    max_size: int = 3,
    max_constraints: int = 2,
    strategy_cap: int = 24,
    joint: bool = False,
    anchor: str = "mixture",
) -> ProblemSpec:
    """Random dense-table instance with feasible constraints.

    Rejection-samples the space sizes until the full strategy count fits
    under strategy_cap, so the brute-force oracle stays applicable.
    """
    while True:
        n = int(rng.integers(1, max_users + 1))
        action_sizes = tuple(int(rng.integers(2, max_size + 1)) for _ in range(n))
        event_sizes = tuple(int(rng.integers(1, max_size + 1)) for _ in range(n))
        m = math.prod(a**w for a, w in zip(action_sizes, event_sizes))
        if m <= strategy_cap:
            break
    n_o = math.prod(event_sizes)
    n_a = math.prod(action_sizes)
    k = int(rng.integers(0, max_constraints + 1))
    penalties = [FullTable(rng.uniform(-1.0, 1.0, (n_o, n_a)))]
    penalties += [FullTable(rng.uniform(0.0, 1.0, (n_o, n_a))) for _ in range(k)]
    dist = (
        random_joint_distribution(rng, event_sizes)
        if joint
        else random_product_distribution(rng, event_sizes)
    )
    stub = ProblemSpec(
        action_sizes=action_sizes,
        event_sizes=event_sizes,
        distribution=dist,
        penalties=tuple(penalties),
        constraints=(0.0,) * k,
    )
    return ProblemSpec(
        action_sizes=action_sizes,
        event_sizes=event_sizes,
        distribution=dist,
        penalties=tuple(penalties),
        constraints=feasible_constraints(rng, stub, k, anchor=anchor),
    )


def random_preferred_spec(
    rng, max_events: int = 3, max_constraints: int = 2, anchor: str = "mixture"
) -> ProblemSpec:
    """Product-mode instance whose penalties all carry the preferred action
    property by construction: a saturating negated utility plus power-style
    and product-form constraint penalties (optionally mixed)."""
    n = 2
    action_sizes = (2, 2)
    event_sizes = tuple(int(rng.integers(2, max_events + 1)) for _ in range(n))
    weights = tuple(np.sort(rng.uniform(0.0, 1.0, w)) for w in event_sizes)
    cap = float(rng.uniform(0.3, 1.2))
    k = int(rng.integers(1, max_constraints + 1))
    constraint_pens = []
    for j in range(k):
        kind = rng.integers(0, 3)
        if kind == 0:
            constraint_pens.append(PowerPerUser(int(rng.integers(0, n))))
        elif kind == 1:
            phis = tuple(-np.sort(-rng.uniform(0.1, 1.0, w)) for w in event_sizes)
            psis = tuple(np.sort(rng.uniform(0.0, 1.0, a)) for a in action_sizes)
            constraint_pens.append(ProductForm(phis=phis, psis=psis))
        else:
            constraint_pens.append(
                WeightedSum(
                    children=(PowerPerUser(0), PowerPerUser(1)),
                    coefficients=(float(rng.uniform(0, 2)), float(rng.uniform(0, 2))),
                )
            )
    penalties = (MinSumUtilityNeg(weights=weights, cap=cap), *constraint_pens)
    dist = random_product_distribution(rng, event_sizes)
    stub = ProblemSpec(
        action_sizes=action_sizes,
        event_sizes=event_sizes,
        distribution=dist,
        penalties=penalties,
        constraints=(0.0,) * k,
    )
    return ProblemSpec(
        action_sizes=action_sizes,
        event_sizes=event_sizes,
        distribution=dist,
        penalties=penalties,
        constraints=feasible_constraints(rng, stub, k, slack=(0.05, 0.4), anchor=anchor),
    )


def random_separable_spec(
    rng, max_constraints: int = 2, anchor: str = "mixture"
) -> ProblemSpec:
    """Instance whose penalties are sums of random per-user tables."""
    n = 2
    action_sizes = tuple(int(rng.integers(2, 4)) for _ in range(n))
    event_sizes = tuple(int(rng.integers(2, 4)) for _ in range(n))
    omega_comp = joint_components(event_sizes)
    alpha_comp = joint_components(action_sizes)
    n_o = math.prod(event_sizes)
    n_a = math.prod(action_sizes)

    def sep_table(lo, hi):
        t = np.zeros((n_o, n_a))
        for i in range(n):
            f = rng.uniform(lo, hi, (event_sizes[i], action_sizes[i]))
            t += f[np.ix_(omega_comp[:, i], alpha_comp[:, i])]
        return t

    k = int(rng.integers(0, max_constraints + 1))
    penalties = [FullTable(sep_table(-1.0, 1.0))]
    penalties += [FullTable(sep_table(0.0, 1.0)) for _ in range(k)]
    dist = random_product_distribution(rng, event_sizes)
    stub = ProblemSpec(
        action_sizes=action_sizes,
        event_sizes=event_sizes,
        distribution=dist,
        penalties=tuple(penalties),
        constraints=(0.0,) * k,
    )
    return ProblemSpec(
        action_sizes=action_sizes,
        event_sizes=event_sizes,
        distribution=dist,
        penalties=tuple(penalties),
        constraints=feasible_constraints(rng, stub, k, slack=(0.05, 0.4), anchor=anchor),
    )


def random_family_spec(rng) -> ProblemSpec:
    """Instance whose penalties use every penalty family once, in a random
    order, plus a WeightedSum nested in a WeightedSum; for file-format tests,
    so its constraints are arbitrary."""
    n = int(rng.integers(1, 4))
    action_sizes = tuple(int(rng.integers(2, 4)) for _ in range(n))
    event_sizes = tuple(int(rng.integers(1, 4)) for _ in range(n))

    def product_form():
        return ProductForm(
            phis=tuple(rng.uniform(0.1, 1.0, w) for w in event_sizes),
            psis=tuple(rng.uniform(0.0, 1.0, a) for a in action_sizes),
        )

    families = [
        FullTable(rng.uniform(-1.0, 1.0, (math.prod(event_sizes), math.prod(action_sizes)))),
        PowerPerUser(user=int(rng.integers(0, n))),
        MinSumUtilityNeg(
            weights=tuple(rng.uniform(0.0, 1.0, w) for w in event_sizes),
            cap=float(rng.uniform(0.2, 2.0)),
        ),
        CollisionUtilityNeg(),
        product_form(),
        WeightedSum(
            coefficients=(float(rng.uniform(0, 2)), float(rng.uniform(0, 2))),
            children=(
                PowerPerUser(user=0),
                WeightedSum(coefficients=(float(rng.uniform(0, 2)),), children=(product_form(),)),
            ),
        ),
    ]
    penalties = tuple(families[i] for i in rng.permutation(len(families)))
    dist = (
        random_joint_distribution(rng, event_sizes)
        if rng.integers(0, 2)
        else random_product_distribution(rng, event_sizes)
    )
    return ProblemSpec(
        action_sizes=action_sizes,
        event_sizes=event_sizes,
        distribution=dist,
        penalties=penalties,
        constraints=tuple(float(c) for c in rng.uniform(0.0, 1.0, len(penalties) - 1)),
    )
