"""Seeded multi-slot simulation of the drift-plus-penalty controller.

The harness samples events, lets the controller pick a strategy from queue
state (exact or windowed-estimate mode), computes penalties centrally, and
reveals them to the queues only after the configured delay, so the
information model holds by construction.  In exact mode with no strategy
set given, a spec whose penalties split per user runs the per-user rule and
records strategy -1.  Runs are bit-reproducible from (config, seed);
ensemble run r uses seed base_seed + r.

One kernel steps R independent runs in lockstep, CHUNK_SLOTS slots at a
time: ``run_episode`` is its R=1 call and ``run_ensemble`` one call over all
seeds.  Between chunks it carries only the queues, the running penalty sums,
the last D slots of the delay line and the worst residual so far, so memory
grows with the chunk, the delay and the stride-recorded rows, never with the
horizon.  A delay of at least the horizon reveals nothing, so the delay line
holds min(D, horizon) slots.  Chunking changes no result: every per-run number is bit-identical
to a full-horizon pass.

Per-slot running averages include the current slot: ubar(t) averages
u(0..t).  The recorded queue column is the queue value the controller saw
when selecting at slot t.  Every run also streams the sample-path check
that the averaged delayed penalties stay below c_k + Q_k(t)/t; the worst
residual lands in Metrics.queue_bound_max_residual (exact-arithmetic
identity of the update rule, so anything above rounding noise is a bug).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .online import DppConfig, RollingEstimator, separable_components
from .optimizer import offline_model
from .problem import (
    EventDistribution,
    ProblemSpec,
    distribution_violations,
    flat_event_probabilities,
    joint_components,
    joint_strides,
    sample_event_indices,
    skip_event_draws,
)
from .strategy import strategy_event_penalties

# unused here; perfbench's span wrappers look these names up in this module
from .problem import penalty_tables  # noqa: F401
from .strategy import enumerate_all, enumerate_nondecreasing, prune_applicable  # noqa: F401

# Slots per kernel chunk.  The per-slot buffers hold one chunk (plus the
# delay line), so this sets the kernel's memory, not its results.
CHUNK_SLOTS = 2048


@dataclass(frozen=True, eq=False)
class Phase:
    """Half-open slot range [start, end) governed by one event distribution."""

    start: int
    end: int
    distribution: EventDistribution


@dataclass(eq=False)
class SimConfig:
    spec: ProblemSpec
    dpp: DppConfig
    horizon: int
    seed: int
    strategies: np.ndarray | None = None  # None: resolve_strategies(spec)
    phases: Sequence[Phase] | None = None
    runs: int = 1
    stride: int = 100
    # optional cache of strategy_event_penalties(spec, strategies); callers
    # running many configs on one strategy set pass it to skip the rebuild
    event_penalties: np.ndarray | None = None

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.event_penalties is not None:  # (events, strategies, penalties) of spec and set
            spec, shape = self.spec, np.shape(self.event_penalties)
            m, k1 = "M" if self.strategies is None else len(self.strategies), spec.n_constraints + 1
            if len(shape) != 3 or shape[::2] != (spec.n_events, k1) or m not in ("M", shape[1]):
                raise ValueError(f"event_penalties has shape {shape}, expected ({spec.n_events}, {m}, {k1})")


@dataclass(eq=False)
class Trace:
    t: np.ndarray  # recorded slots
    strategy: np.ndarray  # chosen strategy index; -1 under the per-user rule
    u: np.ndarray
    p: np.ndarray  # (n, K) instantaneous penalties
    q: np.ndarray  # (n, K) queues at selection time
    ubar: np.ndarray
    pbar: np.ndarray  # (n, K)
    delay: int | None = None
    constraints: tuple[float, ...] | None = None

    def __len__(self) -> int:
        return len(self.t)


@dataclass(eq=False)
class Metrics:
    slots: int
    utility: float
    pbar: np.ndarray
    final_queues: np.ndarray
    queue_bound_max_residual: float


@dataclass(eq=False)
class EnsembleMetrics:
    """Pointwise across-run means of the per-slot utility, penalties, ||Q||."""

    runs: int
    horizon: int
    mean_u: np.ndarray
    mean_p: np.ndarray
    mean_qnorm: np.ndarray
    seeds: list[int]
    per_run: list[Metrics]


def check_phases(phases: Sequence[Phase], event_sizes: Sequence[int]) -> None:
    """Raise ValueError naming the first phase, by list index, whose distribution is invalid."""
    for i, ph in enumerate(phases):
        problems = distribution_violations(ph.distribution, event_sizes)
        if problems:
            raise ValueError(f"phase {i}: " + "; ".join(problems))


def _resolve_phases(config: SimConfig) -> list[Phase]:
    if not config.phases:
        return [Phase(0, config.horizon, config.spec.distribution)]
    check_phases(config.phases, config.spec.event_sizes)
    phases = sorted(config.phases, key=lambda ph: ph.start)
    if phases[0].start != 0 or phases[-1].end != config.horizon:
        raise ValueError("phases must cover [0, horizon)")
    for a, b in zip(phases, phases[1:]):
        if a.end != b.start:
            raise ValueError("phases must be contiguous")
    return phases


def _queue_bound_residual(
    delayed_sums: np.ndarray, q_after: np.ndarray, first_slot: int, constraints: np.ndarray
) -> np.ndarray:
    """Worst sample-path queue-bound residual of each run over a block of slots.

    Row i covers slot t = first_slot + i; arrays are (slots, K, runs).
    ``delayed_sums`` holds the penalties revealed to the queues through slot
    t, ``q_after`` the queues after slot t's update.  The update rule implies
    delayed_sums / (t+1) <= c + q_after / (t+1), so the returned per-run
    maxima of (delayed_sums - q_after) / (t+1) - c must not exceed rounding.
    """
    counts = np.arange(first_slot + 1, first_slot + 1 + len(q_after), dtype=float)
    resid = delayed_sums - q_after
    resid /= counts[:, None, None]
    resid -= constraints[:, None]
    return resid.max(axis=(0, 1))


@dataclass(eq=False)
class _Controller:
    """What a selection step needs besides the queues, for every selection rule.

    ``table[w, col]`` is the penalty vector of column ``col`` at event w:
    columns are strategies in exact and approx mode and joint actions under
    the per-user rule, whose ``mode`` is "separable".  In exact and approx
    mode each run takes the column minimising ``S . (V, Q)`` for its matrix
    S in ``scored``; the modes differ only in that matrix, which approx mode
    takes from ``window``, one window for all runs.
    """

    mode: str
    v: float
    delay: int
    constraints: np.ndarray
    table: np.ndarray
    # (1 or runs, M, K+1): exact, the phase's expected penalties r[None]; approx, window.sums
    scored: np.ndarray | None = None
    window: RollingEstimator | None = None  # approx only
    # separable: (action stride, components (n_events, |A_i|, K+1) by joint event) per user
    per_user: list[tuple[np.int64, np.ndarray]] | None = None


def _controller(config: SimConfig, runs: int) -> _Controller:
    """The selection rule for config: exact mode on a split spec with no set runs per user.

    The per-user argmins minimise exact mode's weighted sum over every
    strategy, which the set the spec resolves to matches in value.
    """
    spec, dpp = config.spec, config.dpp
    constraints = np.asarray(spec.constraints, dtype=float)
    delay = min(dpp.delay, config.horizon)  # a delay of at least the horizon reveals nothing
    own_set = config.strategies is None and config.event_penalties is None
    split = separable_components(spec) if dpp.mode == "exact" and own_set else None
    if split is not None:
        comps, tables = split
        strides, omega_comp = joint_strides(spec.action_sizes), joint_components(spec.event_sizes)
        return _Controller(
            mode="separable",
            v=dpp.v,
            delay=delay,
            constraints=constraints,
            table=np.ascontiguousarray(tables.transpose(1, 2, 0)),
            per_user=[
                (strides[i], np.ascontiguousarray(comp.transpose(1, 2, 0)[omega_comp[:, i]]))
                for i, comp in enumerate(comps)
            ],
        )
    event_pen = config.event_penalties
    if event_pen is None:
        if config.strategies is None:
            event_pen = offline_model(spec).event_penalties
        else:
            event_pen = strategy_event_penalties(spec, config.strategies)
    window = None
    if dpp.mode == "approx":  # a window never holds more than horizon samples
        window = RollingEstimator(event_pen, min(dpp.window, config.horizon), runs)
    return _Controller(
        mode=dpp.mode, v=dpp.v, delay=delay, constraints=constraints, table=event_pen,
        scored=None if window is None else window.sums, window=window,
    )


def _step_single(ctl: _Controller, t0: int, n: int, ev, pen, qa, ms) -> None:
    """Slots t0..t0+n-1 of a single run, through views of the buffers without the run axis.

    Buffer rows: ev[d + i] and pen[d + i] belong to slot t0 + i (rows below
    d hold the delay line), qa[i] is the queue before that slot's update and
    qa[i + 1] after it.  Scalar views are cheaper per slot than the batched
    form's gathers; the arithmetic is the same.
    """
    d = ctl.delay
    window, revealed = ctl.window, ev  # ev row i is revealed at slot t0 + i
    late = window is not None and d == 0  # at D = 0 slot t's event is pushed after its selection
    first_push = n if window is None or late else d - t0  # slot d is the first revealed
    ev, pen, qa, ms = ev[:, 0], pen[:, :, 0], qa[:, :, 0], ms[:, 0]
    delayed = pen[:, 1:]  # row i: slot t0 + i - d, zeros before slot 0
    w = np.concatenate(([ctl.v], qa[0]))
    q = w[1:]  # live queues, updated in place inside the weight vector
    c = ctl.constraints
    table = ctl.table
    per_user = ctl.per_user
    if per_user is None:
        score = ctl.scored[0].dot
    for i in range(n):
        wf = ev[d + i]
        if per_user is None:
            if i >= first_push:
                window.push(revealed[i])
            col = m = score(w).argmin()
            if late:
                window.push(revealed[i])
        else:
            col, m = 0, -1
            for stride, comp in per_user:
                col += stride * comp[wf].dot(w).argmin()
        pen[d + i] = table[wf, col]
        ms[i] = m
        q += delayed[i]
        q -= c
        np.maximum(q, 0.0, out=q)
        qa[i + 1] = q


def _step_batched(ctl: _Controller, t0: int, n: int, ev, pen, qa, ms) -> None:
    """Slots t0..t0+n-1 of every run in lockstep; same buffer rows as _step_single.

    Exact and approx mode score all runs with one stacked matrix-vector
    product, ``np.matmul(scored, w[:, :, None])``: per run it is the same
    gemv as ``scored[j].dot(w_run)``, so selections match single runs bit
    for bit (a 2-D ``w @ r.T`` gemm does not).  Only the per-user rule
    selects run by run.
    Queues and penalties are (K, runs) blocks, so the queue update runs on
    contiguous rows; the weights are copied out per slot for scoring.
    """
    d = ctl.delay
    runs = ev.shape[1]
    q = qa[0].copy()  # (K, runs) live queues
    w = np.empty((runs, len(q) + 1))  # (V, Q) per run, one row each
    w[:, 0] = ctl.v
    w[:, 1:] = q.T
    c = ctl.constraints[:, None]
    n_cols = ctl.table.shape[1]
    flat = ctl.table.reshape(-1, ctl.table.shape[2])  # row w * n_cols + col
    offsets = ev[d : d + n] * n_cols
    cols = np.empty(runs, dtype=np.int64)
    rows = np.empty(runs, dtype=np.int64)
    gathered = np.empty((runs, flat.shape[1]))
    per_user = ctl.per_user
    if per_user is None:
        scored = ctl.scored
        w_stack = w[:, :, None]
        scores = np.empty((runs, n_cols, 1))
        scores_2d = scores[:, :, 0]
    late = ctl.window is not None and d == 0  # as in _step_single
    first_push = n if ctl.window is None or late else d - t0
    for i in range(n):
        if per_user is None:
            if i >= first_push:
                ctl.window.push(ev[i])
            np.matmul(scored, w_stack, out=scores)
            scores_2d.argmin(axis=1, out=cols)
            if late:
                ctl.window.push(ev[i])
            ms[i] = cols
        else:
            for j, wfj in enumerate(ev[d + i]):
                wj, col = w[j], 0
                for stride, comp in per_user:
                    col += stride * comp[wfj].dot(wj).argmin()
                cols[j] = col
            ms[i] = -1
        np.add(offsets[i], cols, out=rows)
        flat.take(rows, axis=0, out=gathered, mode="clip")  # "clip" skips buffering out
        pen[d + i] = gathered.T
        q += pen[i, 1:]
        q -= c
        np.maximum(q, 0.0, out=q)
        qa[i + 1] = q
        w[:, 1:] = q.T


def _simulate(
    config: SimConfig, seeds: Sequence[int], stride: int | None, accumulate: bool
) -> tuple[list[Metrics], list[Trace] | None, tuple[np.ndarray, ...] | None]:
    """Run one seeded episode per seed in lockstep.

    Returns per-run metrics; per-run traces of every stride-th slot (None
    when stride is None); and, when ``accumulate``, the per-slot sums over
    runs of u, p and ||Q||, added in seed order.
    """
    spec = config.spec
    horizon = int(config.horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    phases = _resolve_phases(config)
    runs = len(seeds)
    ctl = _controller(config, runs)
    step = _step_single if runs == 1 else _step_batched
    n_k = spec.n_constraints
    d = ctl.delay
    chunk = CHUNK_SLOTS
    rngs = [np.random.default_rng(seed) for seed in seeds]

    # Chunk buffers, run index last; rows below d carry the previous d slots
    # across chunks, and qa[0] carries the queues.
    ev = np.zeros((d + chunk, runs), dtype=np.int64)  # events
    pen = np.zeros((d + chunk, n_k + 1, runs))  # penalties, also the delay line
    csum = np.zeros((d + chunk, n_k + 1, runs))  # running penalty sums
    qa = np.zeros((chunk + 1, n_k, runs))  # queues before/after each slot
    ms = np.empty((chunk, runs), dtype=np.int64)  # selected strategies
    total = np.zeros((n_k + 1, runs))
    worst = np.full(runs, -np.inf)
    if stride is not None:
        rec_t = np.arange(0, horizon, stride)
        n_rec = len(rec_t)
        rec_m = np.empty((n_rec, runs), dtype=np.int64)
        rec_u, rec_ubar = np.empty((n_rec, runs)), np.empty((n_rec, runs))
        rec_p, rec_q, rec_pbar = (np.empty((n_rec, n_k, runs)) for _ in range(3))
    if accumulate:
        acc_u, acc_p, acc_qn = np.zeros(horizon), np.zeros((horizon, n_k)), np.zeros(horizon)

    for ph in phases:
        length = ph.end - ph.start
        if ctl.mode == "exact":
            pi = flat_event_probabilities(ph.distribution, spec.event_sizes)
            ctl.scored = np.tensordot(pi, ctl.table, axes=(0, 0))[None]
        for a in range(ph.start, ph.end, chunk):
            n = min(chunk, ph.end - a)
            cur = slice(d, d + n)
            for j, gen in enumerate(rngs):
                ev[cur, j] = sample_event_indices(
                    ph.distribution, spec.event_sizes, gen, length, a - ph.start, a - ph.start + n
                )
            step(ctl, a, n, ev, pen, qa, ms)

            # Running sums continue from the carry, so they equal a
            # full-horizon cumsum bit for bit (slot 0 gets no carry, which
            # keeps a signed zero there as cumsum does).
            csum[cur] = pen[cur]
            if a:
                csum[d] += total
            np.cumsum(csum[cur], axis=0, out=csum[cur])
            total[:] = csum[d + n - 1]
            if n_k:
                resid = _queue_bound_residual(csum[:n, 1:], qa[1 : n + 1], a, ctl.constraints)
                np.maximum(worst, resid, out=worst)
            if stride is not None:
                first = -(-a // stride)  # records of the slots before a
                idx = np.arange(first * stride - a, n, stride)
                rows = d + idx
                counts = (a + 1 + idx).astype(float)[:, None]
                out = slice(first, first + len(idx))
                rec_m[out] = ms[idx]
                rec_u[out] = -pen[rows, 0]
                rec_p[out] = pen[rows, 1:]
                rec_q[out] = qa[idx]
                rec_ubar[out] = -csum[rows, 0] / counts
                rec_pbar[out] = csum[rows, 1:] / counts[:, :, None]
            if accumulate:
                qnorm = np.sqrt((qa[:n] ** 2).sum(axis=1))
                for j in range(runs):
                    acc_u[a : a + n] += -pen[cur, 0, j]
                    acc_p[a : a + n] += pen[cur, 1:, j]
                    acc_qn[a : a + n] += qnorm[:, j]
            if d:
                ev[:d] = ev[n : n + d]
                pen[:d] = pen[n : n + d]
                csum[:d] = csum[n : n + d]
            qa[0] = qa[n]
        for gen in rngs:
            skip_event_draws(ph.distribution, gen, length)

    metrics = [
        Metrics(
            slots=horizon,
            utility=float(-total[0, j] / horizon),
            pbar=total[1:, j] / horizon,
            final_queues=qa[0, :, j].copy(),
            queue_bound_max_residual=float(worst[j]) if n_k else 0.0,
        )
        for j in range(runs)
    ]
    traces = None
    if stride is not None:
        traces = [
            Trace(
                t=rec_t,
                strategy=np.ascontiguousarray(rec_m[:, j]),
                u=np.ascontiguousarray(rec_u[:, j]),
                p=np.ascontiguousarray(rec_p[..., j]),
                q=np.ascontiguousarray(rec_q[..., j]),
                ubar=np.ascontiguousarray(rec_ubar[:, j]),
                pbar=np.ascontiguousarray(rec_pbar[..., j]),
                delay=config.dpp.delay,
                constraints=spec.constraints,
            )
            for j in range(runs)
        ]
    sums = (acc_u, acc_p, acc_qn) if accumulate else None
    return metrics, traces, sums


def run_episode(config: SimConfig) -> tuple[Metrics, Trace]:
    """Simulate one seeded run; returns its metrics and trace.

    The trace keeps every config.stride-th slot, with running averages over
    all slots.  Memory is O(chunk + min(delay, horizon) + horizon / stride).
    """
    metrics, traces, _ = _simulate(config, [config.seed], int(config.stride), accumulate=False)
    return metrics[0], traces[0]


def run_ensemble(config: SimConfig, seeds: Sequence[int] | None = None) -> EnsembleMetrics:
    """Average instantaneous per-slot utility/penalties/||Q|| across runs.

    Runs are independent; seeds default to base_seed + run_index.  All runs
    step in lockstep through one kernel call; each run's metrics equal
    run_episode with its seed bit for bit, and the across-run means are
    summed in seed order.  No trace is kept, so memory is O(runs * (chunk +
    min(delay, horizon))) plus the O(horizon * K) mean series.
    """
    runs = config.runs if seeds is None else len(seeds)
    if runs < 1:
        raise ValueError("need at least one run")
    if seeds is None:
        seeds = [config.seed + i for i in range(runs)]
    per_run, _, (acc_u, acc_p, acc_qn) = _simulate(config, seeds, None, accumulate=True)
    return EnsembleMetrics(
        runs=runs,
        horizon=config.horizon,
        mean_u=acc_u / runs,
        mean_p=acc_p / runs,
        mean_qnorm=acc_qn / runs,
        seeds=list(seeds),
        per_run=per_run,
    )


def summarize(trace: Trace) -> Metrics:
    """Recompute running averages from a full-resolution trace.

    Requires consecutive slots starting at 0.  The queue-bound residual needs
    the constraint levels and delay from the trace metadata; it is NaN when
    they are not set (e.g. after a CSV round-trip).
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    n = len(trace)
    if trace.t[0] != 0 or not np.array_equal(trace.t, np.arange(n)):
        raise ValueError("summarize needs a stride-1 trace starting at slot 0")
    counts = np.arange(1, n + 1, dtype=float)
    ubar = np.cumsum(trace.u) / counts
    pbar = np.cumsum(trace.p, axis=0) / counts[:, None]
    constraints, delay = trace.constraints, trace.delay
    residual = float("nan")
    if constraints is not None and delay is not None and trace.p.shape[1]:
        # audit the *recorded* queues against the recorded penalty debt; the
        # queue after slot t is the next row's selection-time value, so the
        # last row has none and is not audited
        residual = -np.inf
        if n > 1:
            shifted = np.zeros_like(trace.p)
            if delay < n:
                shifted[delay:] = trace.p[: n - delay]
            dsum = np.cumsum(shifted[: n - 1], axis=0)
            c = np.asarray(constraints, dtype=float)
            residual = float(_queue_bound_residual(dsum[..., None], trace.q[1:, :, None], 0, c)[0])
    return Metrics(
        slots=n,
        utility=float(ubar[-1]),
        pbar=pbar[-1],
        final_queues=trace.q[-1].copy(),
        queue_bound_max_residual=residual,
    )


def write_trace(trace: Trace, path) -> None:
    """CSV with 17 significant digits so values round-trip exactly."""
    n_k = trace.p.shape[1]
    header = (
        ["t", "strategy", "u"]
        + [f"p_{k + 1}" for k in range(n_k)]
        + [f"Q_{k + 1}" for k in range(n_k)]
        + ["ubar"]
        + [f"pbar_{k + 1}" for k in range(n_k)]
    )
    columns = [trace.t, trace.strategy, trace.u, trace.p, trace.q, trace.ubar, trace.pbar]
    fmt = ["%d", "%d"] + ["%.17g"] * (len(header) - 2)
    try:
        np.savetxt(
            path, np.column_stack(columns), fmt=fmt, delimiter=",", header=",".join(header), comments=""
        )
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def write_ensemble(ensemble: EnsembleMetrics, path) -> None:
    """CSV of the across-run means per slot: t, mean_u, mean_p_1..mean_p_K, mean_qnorm."""
    n_k = ensemble.mean_p.shape[1]
    header = ",".join(["t", "mean_u"] + [f"mean_p_{k + 1}" for k in range(n_k)] + ["mean_qnorm"])
    series = [np.arange(ensemble.horizon), ensemble.mean_u, ensemble.mean_p, ensemble.mean_qnorm]
    np.savetxt(path, np.column_stack(series), delimiter=",", header=header, comments="")


def read_trace(path) -> Trace:
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            first = next((line for line in fh if line.strip()), None)
            if first is None:
                raise ValueError(f"trace {path} has no rows")
            data = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2)
    except OSError as exc:
        raise OSError(f"cannot read trace from {path}: {exc}") from exc
    n_cols = len(header)
    n_k = (n_cols - 4) // 3
    if n_cols != 4 + 3 * n_k:
        raise ValueError(f"unexpected trace header {header!r}")
    t = data[:, 0].astype(np.int64)
    strategy = data[:, 1].astype(np.int64)
    u = data[:, 2]
    p = data[:, 3 : 3 + n_k]
    q = data[:, 3 + n_k : 3 + 2 * n_k]
    ubar = data[:, 3 + 2 * n_k]
    pbar = data[:, 4 + 2 * n_k : 4 + 3 * n_k]
    return Trace(t=t, strategy=strategy, u=u, p=p, q=q, ubar=ubar, pbar=pbar)
