"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Stochastic criteria use fixed seeds and the stated tolerances.
"""

import time

import numpy as np
import pytest

import corrsched as cs
from corrsched import fixtures

import oracles
from specgen import random_preferred_spec, random_spec

# residuals of every simulated run in this module, audited by criterion 9
_TRACKED_RESIDUALS: list[tuple[str, float]] = []


def _track(label, metrics):
    _TRACKED_RESIDUALS.append((label, metrics.queue_bound_max_residual))
    return metrics


def _report(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_distributed_lp(two_sensor):
    spec, strategies = two_sensor
    t0 = time.perf_counter()
    policy = cs.solve_distributed_lp(spec, strategies)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(policy.utility - 23 / 48) <= 1e-9
        and len(policy.support) <= 3
        and np.all(policy.achieved_constraints <= 1 / 3 + 1e-9)
        and elapsed < 1.0
    )
    _report(
        1,
        "correlated LP reproduces the two-sensor optimum",
        ok,
        f"utility={policy.utility:.9f}, support={len(policy.support)}, {elapsed:.3f}s",
    )


def test_criterion_2_centralized_lp(two_sensor):
    spec, _ = two_sensor
    policy = cs.solve_centralized_lp(spec)
    ok = abs(policy.utility - 0.5) <= 1e-9
    _report(2, "centralized benchmark", ok, f"utility={policy.utility:.12f}")


def test_criterion_3_independent_baseline(two_sensor):
    spec, _ = two_sensor
    r = oracles.evaluate_independent_policy(
        spec, oracles.report_if_observed_policy(spec, (4 / 9, 2 / 3))
    )
    ok = (
        abs(-r[0] - 4 / 9) <= 1e-12
        and abs(r[1] - 1 / 3) <= 1e-12
        and abs(r[2] - 1 / 3) <= 1e-12
    )
    _report(
        3,
        "independent reporting baseline",
        ok,
        f"utility={-r[0]:.15f}, powers=({r[1]:.15f}, {r[2]:.15f})",
    )


def test_criterion_4_support_bound_and_oracle():
    gen = np.random.default_rng(41)
    worst_gap = 0.0
    max_support = 0
    for _ in range(100):
        spec = random_spec(gen, max_users=2, max_size=3, max_constraints=2, strategy_cap=24)
        strategies = cs.enumerate_all(spec)
        policy = cs.solve_distributed_lp(spec, strategies)
        oracle = cs.brute_force_distributed_oracle(spec, strategies)
        assert oracle is not None
        worst_gap = max(worst_gap, abs(policy.objective - oracle))
        max_support = max(max_support, len(policy.support))
        assert len(policy.support) <= spec.n_constraints + 1
    ok = worst_gap <= 1e-9
    _report(
        4,
        "support bound and oracle agreement on 100 random instances",
        ok,
        f"worst |LP-oracle|={worst_gap:.2e}, max support={max_support}",
    )


def test_criterion_5_pruning_equivalence():
    gen = np.random.default_rng(52)
    worst = 0.0
    for _ in range(50):
        spec = random_preferred_spec(gen)
        assert cs.prune_applicable(spec)
        full = cs.solve_distributed_lp(spec, cs.enumerate_all(spec))
        pruned = cs.solve_distributed_lp(spec, cs.enumerate_nondecreasing(spec))
        worst = max(worst, abs(full.objective - pruned.objective))
    ok = worst <= 1e-9
    _report(
        5,
        "monotone pruning loses no optimality on 50 random instances",
        ok,
        f"worst objective gap={worst:.2e}",
    )


FIG1_TARGETS = {1.0: 0.344639, 10.0: 0.472763, 100.0: 0.479218}


def test_criterion_6_two_sensor_table(two_sensor):
    spec, strategies = two_sensor
    details = []
    ok = True
    for v, target in FIG1_TARGETS.items():
        t0 = time.perf_counter()
        cfg = cs.SimConfig(
            spec=spec,
            dpp=cs.DppConfig(v=v, delay=10, mode="approx", window=40),
            horizon=10**6,
            seed=12345,
            strategies=strategies,
            stride=1000,
        )
        metrics, _ = cs.run_episode(cfg)
        elapsed = time.perf_counter() - t0
        _track(f"two-sensor V={v}", metrics)
        ok &= abs(metrics.utility - target) <= 0.01
        ok &= bool(np.all(metrics.pbar <= 1 / 3 + 0.005))
        ok &= elapsed < 60.0
        details.append(f"V={v:g}: u={metrics.utility:.6f} (target {target}), {elapsed:.0f}s")
    _report(6, "two-sensor long-run table", ok, "; ".join(details))


def test_criterion_7_three_sensor_run(three_sensor):
    spec, strategies = three_sensor
    n_ok = len(strategies) == 1000
    t0 = time.perf_counter()
    cfg = cs.SimConfig(
        spec=spec,
        dpp=cs.DppConfig(v=50.0, delay=10, mode="approx", window=40),
        horizon=10**6,
        seed=2024,
        strategies=strategies,
        stride=1000,
    )
    metrics, _ = cs.run_episode(cfg)
    elapsed = time.perf_counter() - t0
    _track("three-sensor V=50", metrics)
    ok = (
        n_ok
        and abs(metrics.utility - 0.464545) <= 0.015
        and bool(np.all(metrics.pbar <= 1 / 3 + 0.005))
        and elapsed < 300.0
    )
    _report(
        7,
        "three-sensor pruned run",
        ok,
        f"strategies={len(strategies)}, u={metrics.utility:.6f}, "
        f"pbar_max={metrics.pbar.max():.6f}, {elapsed:.0f}s",
    )


def test_criterion_8_counterexample():
    centralized, distributed = cs.verify_counterexample()
    ok = centralized == 1.0 and distributed == 0.5
    _report(8, "conditional-independence counterexample", ok, f"({centralized}, {distributed})")


def test_criterion_10_mean_rate_stability(two_sensor):
    spec, strategies = two_sensor
    horizon = 10**5
    v = 100.0
    cfg = cs.SimConfig(
        spec=spec,
        dpp=cs.DppConfig(v=v, delay=0, mode="exact"),
        horizon=horizon,
        seed=1000,
        strategies=strategies,
        runs=100,
    )
    ensemble = cs.run_ensemble(cfg)
    for i, m in enumerate(ensemble.per_run):
        _track(f"stability run {i}", m)
    mean_qnorm_final = float(
        np.mean([np.linalg.norm(m.final_queues) for m in ensemble.per_run])
    )
    r = cs.r_matrix(spec, strategies)
    p0_opt = cs.solve_distributed_lp(spec, strategies, r=r).objective
    b = cs.compute_B(spec, strategies)
    f = cs.compute_F(spec, r, p0_opt)
    envelope = np.sqrt(2 * (b + f * v) / horizon)  # zero delay: L(D)=0, C=B
    ok = mean_qnorm_final / horizon <= envelope
    _report(
        10,
        "mean rate stability envelope over 100 runs",
        ok,
        f"mean ||Q(T)||/T={mean_qnorm_final / horizon:.2e} <= {envelope:.2e}",
    )


def test_criterion_11_non_ergodic_adaptation(three_sensor):
    spec, strategies = three_sensor
    horizon = 12000
    phases = fixtures.adaptation_phases(horizon)
    runs = 200
    windows = {"pre": slice(2000, 4000), "mid": slice(6000, 8000), "post": slice(9000, 12000)}
    means = {name: [] for name in windows}
    from corrsched.strategy import strategy_event_penalties

    pen_cache = strategy_event_penalties(spec, strategies)
    for i in range(runs):
        cfg = cs.SimConfig(
            spec=spec,
            dpp=cs.DppConfig(v=50.0, delay=10, mode="approx", window=40),
            horizon=horizon,
            seed=5000 + i,
            strategies=strategies,
            phases=phases,
            stride=1,
            event_penalties=pen_cache,
        )
        metrics, trace = cs.run_episode(cfg)
        _track(f"adaptation run {i}", metrics)
        for name, win in windows.items():
            means[name].append(float(trace.u[win].mean()))
    stats = {
        name: (float(np.mean(vals)), float(np.std(vals) / np.sqrt(runs)))
        for name, vals in means.items()
    }
    shift = abs(stats["mid"][0] - stats["pre"][0])
    sigma = np.hypot(stats["pre"][1], stats["mid"][1])
    returned = abs(stats["post"][0] - stats["pre"][0]) < shift
    ok = shift > 3 * sigma and returned
    _report(
        11,
        "adaptation to abrupt distribution changes",
        ok,
        f"pre={stats['pre'][0]:.4f}, mid={stats['mid'][0]:.4f}, post={stats['post'][0]:.4f}, "
        f"shift={shift:.4f} vs 3sigma={3 * sigma:.4f}",
    )


def test_criterion_9_queue_bound_every_trace(two_sensor, rng):
    # dedicated short runs covering every mode and delay setting ...
    spec, strategies = two_sensor
    for mode, window, delay in (
        ("exact", None, 0),
        ("exact", None, 10),
        ("approx", 40, 0),
        ("approx", 40, 10),
    ):
        cfg = cs.SimConfig(
            spec=spec,
            dpp=cs.DppConfig(v=10.0, delay=delay, mode=mode, window=window),
            horizon=20000,
            seed=77,
            strategies=strategies,
            stride=1,
        )
        metrics, trace = cs.run_episode(cfg)
        _track(f"dedicated {mode} D={delay}", metrics)
        recheck = cs.summarize(trace)
        assert recheck.queue_bound_max_residual <= 1e-9
    from specgen import random_separable_spec

    sep = random_separable_spec(rng)
    cfg = cs.SimConfig(
        spec=sep,
        dpp=cs.DppConfig(v=4.0, delay=3, mode="separable"),
        horizon=20000,
        seed=78,
        strategies=None,
        stride=1,
    )
    metrics, trace = cs.run_episode(cfg)
    _track("dedicated separable D=3", metrics)

    # ... plus everything the heavier criteria simulated above
    worst_label, worst = max(_TRACKED_RESIDUALS, key=lambda kv: kv[1])
    ok = worst <= 1e-9
    _report(
        9,
        f"sample-path queue bound across {len(_TRACKED_RESIDUALS)} runs",
        ok,
        f"worst residual={worst:.2e} ({worst_label})",
    )
