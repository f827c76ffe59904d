"""Built-in problem instances used by tests, scripts, and the docs.

The sensor fixtures model power-constrained sensors reporting observations
to a fusion center under a saturating (information-saturation) utility; the
counterexample fixture is the sign-agreement game that separates genuinely
distributed policies from merely conditionally-independent ones.
"""

from __future__ import annotations

import numpy as np

from .problem import (
    FullTable,
    JointDistribution,
    MinSumUtilityNeg,
    PowerPerUser,
    ProblemSpec,
    ProductDistribution,
)
from .simulator import Phase
from .strategy import drop_act_on_zero, enumerate_nondecreasing


def two_sensor_spec() -> ProblemSpec:
    """Two sensors, binary observe/report, fusion center trusts sensor 1 more.

    Utility min(w1*a1 + w2*a2/2, 1); each report costs one unit of power and
    both sensors face a time-average power budget of 1/3.  Sensor 1 observes
    an event with probability 3/4, sensor 2 with probability 1/2.
    """
    return ProblemSpec(
        action_sizes=(2, 2),
        event_sizes=(2, 2),
        distribution=ProductDistribution((np.array([0.25, 0.75]), np.array([0.5, 0.5]))),
        penalties=(
            MinSumUtilityNeg(weights=(np.array([0.0, 1.0]), np.array([0.0, 0.5])), cap=1.0),
            PowerPerUser(0),
            PowerPerUser(1),
        ),
        constraints=(1 / 3, 1 / 3),
    )


def two_sensor_strategies(spec: ProblemSpec | None = None) -> np.ndarray:
    """The four monotone strategies that never report without an observation."""
    spec = spec or two_sensor_spec()
    return drop_act_on_zero(spec, enumerate_nondecreasing(spec))


def three_sensor_spec() -> ProblemSpec:
    """Three sensors with ten observation levels and binary report decisions.

    Sensor 1's report is worth twice the others'; utility saturates at 1.
    Events are uniform on 0..9 per sensor, power budgets are 1/3 each.
    """
    levels = np.arange(10, dtype=float)
    uniform = np.full(10, 0.1)
    return ProblemSpec(
        action_sizes=(2, 2, 2),
        event_sizes=(10, 10, 10),
        distribution=ProductDistribution((uniform, uniform, uniform)),
        penalties=(
            MinSumUtilityNeg(
                weights=(levels / 10.0, levels / 20.0, levels / 20.0), cap=1.0
            ),
            PowerPerUser(0),
            PowerPerUser(1),
            PowerPerUser(2),
        ),
        constraints=(1 / 3, 1 / 3, 1 / 3),
    )


def three_sensor_strategies(spec: ProblemSpec | None = None) -> np.ndarray:
    """Threshold strategies minus always-report: 10 per sensor, 1000 joint."""
    spec = spec or three_sensor_spec()
    return drop_act_on_zero(spec, enumerate_nondecreasing(spec))


def counterexample_spec() -> ProblemSpec:
    """Sign-agreement game where shared randomness genuinely matters.

    Both users see fair coins and pick actions in {-1, +1}, encoded here as
    {0, 1} via a = 2*alpha - 1 (an order-preserving relabeling).  Utility is
    a1 * a2 when not both coins are 1, and -a1 * a2 when both are: matching
    signs win except on the double-hit event, which rewards a mismatch.  No
    constraints (K = 0).
    """
    values = np.empty((4, 4))
    for wf, (w1, w2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        g = 1.0 - 2.0 * w1 * w2
        for af, (a1, a2) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            values[wf, af] = -(g * (2 * a1 - 1) * (2 * a2 - 1))
    return ProblemSpec(
        action_sizes=(2, 2),
        event_sizes=(2, 2),
        distribution=ProductDistribution((np.array([0.5, 0.5]), np.array([0.5, 0.5]))),
        penalties=(FullTable(values),),
        constraints=(),
    )


def adaptation_type2_distribution() -> JointDistribution:
    """Alternate regime for the three-sensor system, as a joint table.

    Sensor 1 sees only levels 0 or 9 (half/half); sensors 2 and 3 are uniform
    on 6..9.  Stored jointly because product marginals with zero entries are
    rejected by validation.
    """
    q1 = np.zeros(10)
    q1[0] = q1[9] = 0.5
    q23 = np.zeros(10)
    q23[6:] = 0.25
    table = q1[:, None, None] * q23[None, :, None] * q23[None, None, :]
    return JointDistribution(table)


def adaptation_phases(horizon: int = 12000, switches: tuple[int, int] = (4000, 8000)) -> list[Phase]:
    """Type 1 / type 2 / type 1 schedule with abrupt distribution changes."""
    base = three_sensor_spec().distribution
    alt = adaptation_type2_distribution()
    s1, s2 = switches
    return [Phase(0, s1, base), Phase(s1, s2, alt), Phase(s2, horizon, base)]

