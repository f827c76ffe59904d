"""JSON file formats: problem specs, phase schedules, policies, metrics.

Spec files carry ``users``, ``action_sizes``, ``event_sizes``,
``distribution`` (either ``{"joint": [...]}`` flat in event-major order or
``{"product": [[...], ...]}`` per user), ``penalties`` as a list of
``{"kind", "params"}`` objects, and ``constraints``.  Dense penalty tables
are event-major then action, users in ascending index order.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .optimizer import CorrelatedPolicy
from .problem import (
    CollisionUtilityNeg,
    EventDistribution,
    FullTable,
    JointDistribution,
    MinSumUtilityNeg,
    PowerPerUser,
    ProblemSpec,
    ProductDistribution,
    WeightedSum,
    ProductForm,
)
from .simulator import Metrics, Phase
from .strategy import user_maps


def _penalty_to_dict(pen) -> dict[str, Any]:
    if isinstance(pen, FullTable):
        return {"kind": pen.kind, "params": {"values": pen.values.tolist()}}
    if isinstance(pen, PowerPerUser):
        return {"kind": pen.kind, "params": {"user": pen.user}}
    if isinstance(pen, MinSumUtilityNeg):
        return {
            "kind": pen.kind,
            "params": {"weights": [w.tolist() for w in pen.weights], "cap": pen.cap},
        }
    if isinstance(pen, CollisionUtilityNeg):
        return {"kind": pen.kind, "params": {}}
    if isinstance(pen, WeightedSum):
        return {
            "kind": pen.kind,
            "params": {
                "coefficients": list(pen.coefficients),
                "children": [_penalty_to_dict(ch) for ch in pen.children],
            },
        }
    if isinstance(pen, ProductForm):
        return {
            "kind": pen.kind,
            "params": {
                "phis": [p.tolist() for p in pen.phis],
                "psis": [p.tolist() for p in pen.psis],
            },
        }
    raise TypeError(f"unknown penalty type {type(pen).__name__}")


def _penalty_from_dict(obj: dict[str, Any]):
    kind = obj["kind"]
    params = obj.get("params", {})
    if kind == "full_table":
        return FullTable(np.asarray(params["values"], dtype=float))
    if kind == "power_per_user":
        return PowerPerUser(int(params["user"]))
    if kind == "min_sum_utility_neg":
        return MinSumUtilityNeg(
            weights=tuple(np.asarray(w, dtype=float) for w in params["weights"]),
            cap=float(params["cap"]),
        )
    if kind == "collision_utility_neg":
        return CollisionUtilityNeg()
    if kind == "weighted_sum":
        return WeightedSum(
            children=tuple(_penalty_from_dict(ch) for ch in params["children"]),
            coefficients=tuple(float(w) for w in params["coefficients"]),
        )
    if kind == "product_form":
        return ProductForm(
            phis=tuple(np.asarray(p, dtype=float) for p in params["phis"]),
            psis=tuple(np.asarray(p, dtype=float) for p in params["psis"]),
        )
    raise ValueError(f"unknown penalty kind {kind!r}")


def _distribution_to_dict(dist: EventDistribution) -> dict[str, Any]:
    if isinstance(dist, ProductDistribution):
        return {"product": [q.tolist() for q in dist.marginals]}
    return {"joint": dist.table.reshape(-1).tolist()}


def _distribution_from_dict(obj: dict[str, Any], event_sizes) -> EventDistribution:
    if "product" in obj:
        return ProductDistribution(tuple(np.asarray(q, dtype=float) for q in obj["product"]))
    if "joint" in obj:
        return JointDistribution(np.asarray(obj["joint"], dtype=float).reshape(tuple(event_sizes)))
    raise ValueError("distribution must have a 'product' or 'joint' entry")


def spec_to_dict(spec: ProblemSpec) -> dict[str, Any]:
    return {
        "users": spec.n_users,
        "action_sizes": list(spec.action_sizes),
        "event_sizes": list(spec.event_sizes),
        "distribution": _distribution_to_dict(spec.distribution),
        "penalties": [_penalty_to_dict(p) for p in spec.penalties],
        "constraints": list(spec.constraints),
    }


def _object(obj) -> dict[str, Any]:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
    return obj


def _field(obj: dict[str, Any], key: str, convert):
    """convert(obj[key]); a missing key or a value of the wrong shape raises ValueError."""
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from exc


def spec_from_dict(obj: dict[str, Any]) -> ProblemSpec:
    event_sizes = _field(obj, "event_sizes", lambda v: tuple(int(x) for x in v))
    action_sizes = _field(obj, "action_sizes", lambda v: tuple(int(x) for x in v))
    if "users" in obj and _field(obj, "users", int) != len(action_sizes):
        raise ValueError("'users' disagrees with action_sizes length")
    return ProblemSpec(
        action_sizes=action_sizes,
        event_sizes=event_sizes,
        distribution=_field(obj, "distribution", lambda d: _distribution_from_dict(d, event_sizes)),
        penalties=_field(obj, "penalties", lambda ps: tuple(_penalty_from_dict(p) for p in ps)),
        constraints=_field(obj, "constraints", lambda cs: tuple(float(c) for c in cs)),
    )


def _load(path, parse):
    """parse(the JSON object in path); a ValueError is re-raised naming the file."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return parse(_object(obj))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_spec(path) -> ProblemSpec:
    return _load(path, spec_from_dict)


def save_spec(spec: ProblemSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2)
        fh.write("\n")


def load_phases(path, spec: ProblemSpec) -> list[Phase]:
    def phase(ph) -> Phase:
        return Phase(
            start=int(ph["start"]),
            end=int(ph["end"]),
            distribution=_distribution_from_dict(ph["distribution"], spec.event_sizes),
        )

    return _load(path, lambda obj: _field(obj, "phases", lambda v: [phase(ph) for ph in v]))


def save_phases(phases, path) -> None:
    obj = {
        "phases": [
            {
                "start": ph.start,
                "end": ph.end,
                "distribution": _distribution_to_dict(ph.distribution),
            }
            for ph in phases
        ]
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def policy_to_dict(spec: ProblemSpec, policy: CorrelatedPolicy) -> dict[str, Any]:
    return {
        "objective": policy.objective,
        "utility": policy.utility,
        "achieved_constraints": policy.achieved_constraints.tolist(),
        "support": [
            {"theta": theta, "maps": [g.tolist() for g in user_maps(spec, strat)]}
            for strat, theta in policy.support
        ],
    }


def save_policy(spec: ProblemSpec, policy: CorrelatedPolicy, path) -> None:
    with open(path, "w") as fh:
        json.dump(policy_to_dict(spec, policy), fh, indent=2)
        fh.write("\n")


def metrics_to_dict(metrics: Metrics, config: dict[str, Any] | None = None) -> dict[str, Any]:
    out = {
        "slots": metrics.slots,
        "utility": metrics.utility,
        "pbar": metrics.pbar.tolist(),
        "final_queues": metrics.final_queues.tolist(),
        "queue_bound_max_residual": metrics.queue_bound_max_residual,
    }
    if config is not None:
        out["config"] = config
    return out


def save_metrics(metrics: Metrics, path, config: dict[str, Any] | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(metrics_to_dict(metrics, config), fh, indent=2)
        fh.write("\n")


PRUNE_CHOICES = ("auto", "off", "force")
# JSON types of the run-config fields an analysis reads, of which v and delay
# must be present; other entries pass through
_RUN_TYPES = dict(v=(int, float), delay=int, window=(int, type(None)), mode=str, prune=str)
_RUN_REQUIRED = ("v", "delay")


def _run_field(config: dict[str, Any], key: str):
    def check(value):
        if isinstance(value, bool) or not isinstance(value, _RUN_TYPES[key]):
            raise TypeError(f"wrong type {type(value).__name__}")
        if key == "prune" and value not in PRUNE_CHOICES:
            raise ValueError(f"{value!r} is not one of {', '.join(PRUNE_CHOICES)}")
        return value

    return _field(config, key, check)


def load_run_config(path) -> dict[str, Any]:
    """Read a run-config JSON (a bare config or a metrics file) and check the fields above."""

    def parse(obj):
        config = _field(obj, "config", _object) if "config" in obj else obj
        checked = [key for key in _RUN_TYPES if key in config or key in _RUN_REQUIRED]
        return {**config, **{key: _run_field(config, key) for key in checked}}

    return _load(path, parse)
