"""JSON file formats: problem specs, phase schedules, policies, metrics.

Spec files carry ``users``, ``action_sizes``, ``event_sizes``,
``distribution`` (either ``{"joint": [...]}`` flat in event-major order or
``{"product": [[...], ...]}`` per user), ``penalties`` as a list of
``{"kind", "params"}`` objects whose params are the fields of the class
``problem.PENALTY_KINDS[kind]``, and ``constraints``.  Dense penalty tables
are event-major then action, users in ascending index order.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from .online import MODES
from .optimizer import CorrelatedPolicy
from .problem import (
    PENALTY_KINDS,
    EventDistribution,
    JointDistribution,
    ProblemSpec,
    ProductDistribution,
)
from .simulator import Metrics, Phase, check_phases
from .strategy import user_maps


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if dataclasses.is_dataclass(value):  # a child penalty
        return _penalty_to_dict(value)
    return value.tolist() if isinstance(value, np.ndarray) else value


def _penalty_to_dict(pen) -> dict[str, Any]:
    params = {f.name: _json_value(getattr(pen, f.name)) for f in dataclasses.fields(pen)}
    return {"kind": pen.kind, "params": params}


def _penalty_from_dict(obj):
    """The penalty an entry describes; its params are its class's fields, no more."""
    obj = _object(obj)
    kind = _field(obj, "kind", str)
    if kind not in PENALTY_KINDS:
        raise ValueError(f"unknown penalty kind {kind!r}")
    params = _object(obj.get("params", {}))
    if "children" in params:
        params = {**params, "children": tuple(_penalty_from_dict(ch) for ch in params["children"])}
    return PENALTY_KINDS[kind](**params)


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


def save_json(obj, path) -> None:
    """Write obj as indented JSON with a final newline, as every file here is."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_spec(path) -> ProblemSpec:
    return _load(path, spec_from_dict)


def save_spec(spec: ProblemSpec, path) -> None:
    save_json(spec_to_dict(spec), path)


def load_phases(path, spec: ProblemSpec) -> list[Phase]:
    def phase(ph) -> Phase:
        ph = _object(ph)
        return Phase(
            start=_field(ph, "start", int),
            end=_field(ph, "end", int),
            distribution=_field(
                ph, "distribution", lambda d: _distribution_from_dict(d, spec.event_sizes)
            ),
        )

    def entries(values) -> list[Phase]:
        out = []
        for i, ph in enumerate(values):
            try:
                out.append(phase(ph))
            except ValueError as exc:
                raise ValueError(f"phase {i}: {exc}") from exc
        return out

    def parse(obj) -> list[Phase]:
        phases = _field(obj, "phases", entries)
        check_phases(phases, spec.event_sizes)
        return phases

    return _load(path, parse)


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
    save_json(policy_to_dict(spec, policy), path)


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
    save_json(metrics_to_dict(metrics, config), path)


# JSON types of the run-config fields an analysis reads, of which v and delay
# must be present; other entries pass through
_RUN_TYPES = dict(v=(int, float), delay=int, window=(int, type(None)), mode=str)
_RUN_REQUIRED = ("v", "delay")


def _run_field(config: dict[str, Any], key: str):
    def check(value):
        if isinstance(value, bool) or not isinstance(value, _RUN_TYPES[key]):
            raise TypeError(f"wrong type {type(value).__name__}")
        if key == "mode" and value not in MODES:
            raise ValueError(f"unknown mode {value!r}, not one of {', '.join(MODES)}")
        return value

    return _field(config, key, check)


def load_run_config(path) -> dict[str, Any]:
    """Read a run-config JSON (a bare config or a metrics file) and check the fields above.

    Metrics files of earlier versions carry a ``prune`` entry.  Its default
    "auto" is the strategy set an analysis rebuilds from the spec; a run made
    on any other set cannot be audited, since its drift constant B would come
    out wrong.
    """

    def parse(obj):
        config = _field(obj, "config", _object) if "config" in obj else obj
        if config.get("prune", "auto") != "auto":
            raise ValueError(
                f"field 'prune': a {config['prune']!r} run used a strategy set other than the "
                "one analyze rebuilds from the spec; only 'auto' runs can be audited"
            )
        checked = [key for key in _RUN_TYPES if key in config or key in _RUN_REQUIRED]
        return {**config, **{key: _run_field(config, key) for key in checked}}

    return _load(path, parse)
