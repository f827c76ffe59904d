"""Correlated scheduling for multi-user distributed stochastic optimization.

Offline: enumerate pure strategies, prune to monotone ones when sound, and
solve the correlated-randomization LP whose basic optima need at most K+1
support strategies.  Online: drift-plus-penalty control with virtual queues
and delayed feedback, exact or estimated expected penalties; exact control
of a spec whose penalties split per user runs a per-user argmin with no
enumeration.  A seeded simulator and bound audits round it out.
"""

from .problem import (
    CapExceeded,
    CollisionUtilityNeg,
    EventDistribution,
    FullTable,
    JointDistribution,
    MinSumUtilityNeg,
    PowerPerUser,
    ProblemSpec,
    ProductDistribution,
    ProductForm,
    ValidationReport,
    WeightedSum,
    validate_spec,
)
from .strategy import (
    check_preferred_action,
    drop_act_on_zero,
    enumerate_all,
    enumerate_nondecreasing,
    prune_applicable,
    r_matrix,
    user_maps,
)
from .simplex import CertificateError, Infeasible, IterationLimit
from .simplex import LpProblem, LpSolution, LpStatus, solve_lp
from .optimizer import (
    CentralizedPolicy,
    CorrelatedPolicy,
    brute_force_distributed_oracle,
    epsilon_max,
    offline_model,
    resolve_strategies,
    solve_centralized_lp,
    solve_distributed_lp,
)
from .online import (
    DppConfig,
    RollingEstimator,
    compute_B,
    compute_F,
    performance_bound,
    separable_components,
    slater_queue_bound,
)
from .simulator import (
    EnsembleMetrics,
    Metrics,
    Phase,
    SimConfig,
    Trace,
    read_trace,
    run_ensemble,
    run_episode,
    summarize,
    write_ensemble,
    write_trace,
)
from .analysis import (
    BoundReport,
    ComparisonReport,
    SlaterReport,
    audit_bounds,
    audit_slater,
    compare_policies,
    verify_counterexample,
)

__version__ = "0.1.0"
