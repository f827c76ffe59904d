"""In-memory span recorder and the wrappers that time corrsched's layers.

A span has a name, a start and an end (``perf_counter_ns``), the index of
its parent span (-1 for a top-level span) and optional counts.  The recorder
keeps them in flat arrays, because the per-slot estimator update alone opens
one span per slot.  Wrappers are installed where the caller looks a name up
(module attribute or class attribute), because corrsched's modules import
functions by name: patching ``corrsched.problem`` alone would miss
``corrsched.simulator.sample_event_indices``.  Self time is a span's duration
minus what its direct children cover; spans come from one thread and a
stack, so children never overlap and never outlive their parent.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []
        self.active = False

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        self.end[idx] = time.perf_counter_ns()
        if counts:
            self.counts[idx] = counts
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int64),
        )

    def wrap(self, name: str, fn, counts=None):
        """Return fn recording one span per call while the recorder is active.

        ``counts(args, result)`` may return a dict stored on the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, counts(args, result) if counts and result is not None else None)

        return wrapper


def self_times(start, end, parent) -> np.ndarray:
    """Self time (ns) of every span: its duration minus its direct children's durations."""
    start, end, parent = (np.asarray(a, dtype=np.int64) for a in (start, end, parent))
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered.astype(np.int64)


def children_within_parent(start, end, parent, selfs) -> bool:
    """True when every span's direct children have self times summing to at most its duration."""
    duration = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    child = parent >= 0
    total = np.bincount(parent[child], weights=np.asarray(selfs)[child], minlength=len(duration))
    return bool(np.all(total <= duration))


def root_of(parent) -> np.ndarray:
    """Index of the top-level span each span belongs to."""
    parent = np.asarray(parent, dtype=np.int64)
    roots = np.where(parent < 0, np.arange(len(parent)), parent)
    while True:
        nxt = roots[roots]
        if np.array_equal(nxt, roots):
            return roots
        roots = nxt


# ---------------------------------------------------------------------------
# Instrumentation of corrsched
# ---------------------------------------------------------------------------


def _lp_tableau_bytes(args, result):
    lp = args[0]
    n = len(lp.cost)
    m_ub = len(lp.b_ub)
    m_eq = len(lp.b_eq)
    n_art = m_eq + int((lp.b_ub < 0).sum())
    return {"tableau_bytes": (m_ub + m_eq) * (n + m_ub + n_art + 1) * 8}


def _horizon(args, result):
    return {"slots": int(args[0].horizon)}


def _length(args, result):
    return {"strategies": len(result)}


def _nbytes(args, result):
    return {"bytes": int(result.nbytes)}


def _support(args, result):
    return {"support": len(result.support)}


# (span name, [(module, attribute)], counts).  Every place a layer function
# is looked up at call time is listed; names the benchmark itself calls are
# looked up on the ``corrsched`` package.  The counts functions read the
# call's positional arguments, which is how corrsched and the benchmark pass
# them.
TARGETS = [
    ("problem.sample_events", [("corrsched.simulator", "sample_event_indices")], None),
    (
        "problem.penalty_tables",
        [
            ("corrsched.simulator", "penalty_tables"),
            ("corrsched.strategy", "penalty_tables"),
            ("corrsched.optimizer", "penalty_tables"),
            ("corrsched.online", "penalty_tables"),
        ],
        None,
    ),
    ("problem.validate", [("corrsched", "validate_spec")], None),
    (
        "strategy.enumerate",
        [
            ("corrsched", "enumerate_all"),
            ("corrsched", "enumerate_nondecreasing"),
            ("corrsched.fixtures", "enumerate_nondecreasing"),
            ("corrsched.analysis", "enumerate_all"),
            ("corrsched.analysis", "enumerate_nondecreasing"),
            ("corrsched.simulator", "enumerate_all"),
            ("corrsched.simulator", "enumerate_nondecreasing"),
        ],
        _length,
    ),
    (
        "strategy.prune_check",
        [
            ("corrsched", "prune_applicable"),
            ("corrsched.analysis", "prune_applicable"),
            ("corrsched.simulator", "prune_applicable"),
        ],
        None,
    ),
    (
        "strategy.event_penalties",
        [
            ("corrsched.strategy", "strategy_event_penalties"),
            ("corrsched.simulator", "strategy_event_penalties"),
            ("corrsched.online", "strategy_event_penalties"),
        ],
        _nbytes,
    ),
    (
        "strategy.r_matrix",
        [
            ("corrsched", "r_matrix"),
            ("corrsched.optimizer", "r_matrix"),
            ("corrsched.analysis", "r_matrix"),
        ],
        None,
    ),
    (
        "simplex.solve_lp",
        [("corrsched.optimizer", "solve_lp"), ("corrsched.analysis", "solve_lp")],
        _lp_tableau_bytes,
    ),
    (
        "optimizer.distributed",
        [("corrsched", "solve_distributed_lp"), ("corrsched.analysis", "solve_distributed_lp")],
        _support,
    ),
    (
        "optimizer.centralized",
        [("corrsched", "solve_centralized_lp"), ("corrsched.analysis", "solve_centralized_lp")],
        None,
    ),
    ("online.estimator_push", [("corrsched.online", "RollingEstimator.push")], None),
    (
        "simulator.episode",
        [("corrsched", "run_episode"), ("corrsched.simulator", "run_episode")],
        _horizon,
    ),
    ("simulator.ensemble", [("corrsched", "run_ensemble")], None),
    ("analysis.compare", [("corrsched", "compare_policies")], None),
]


def instrument(recorder: SpanRecorder) -> None:
    """Install span wrappers on every lookup site in TARGETS."""
    for name, sites, counts in TARGETS:
        for module, attr_path in sites:
            owner = importlib.import_module(module)
            *inner, attr = attr_path.split(".")
            for part in inner:
                owner = getattr(owner, part)
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), counts))
