import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrsched as cs
from corrsched import resolve_strategies
from corrsched.strategy import strategy_event_penalties

import oracles
from specgen import random_separable_spec, random_spec


def _cfg(spec, strategies, mode="exact", v=10.0, delay=0, window=None, horizon=2000,
         seed=99, stride=1, phases=None, runs=1):
    return cs.SimConfig(
        spec=spec,
        dpp=cs.DppConfig(v=v, delay=delay, mode=mode, window=window),
        horizon=horizon,
        seed=seed,
        strategies=strategies,
        phases=phases,
        runs=runs,
        stride=stride,
    )


def _traces_equal(a, b):
    return (
        np.array_equal(a.t, b.t)
        and np.array_equal(a.strategy, b.strategy)
        and np.array_equal(a.u, b.u)
        and np.array_equal(a.p, b.p)
        and np.array_equal(a.q, b.q)
        and np.array_equal(a.ubar, b.ubar)
        and np.array_equal(a.pbar, b.pbar)
    )


@pytest.mark.parametrize("mode,window", [("exact", None), ("approx", 40)])
def test_same_seed_bit_identical(two_sensor, mode, window):
    spec, strategies = two_sensor
    m1, t1 = cs.run_episode(_cfg(spec, strategies, mode=mode, window=window, delay=5))
    m2, t2 = cs.run_episode(_cfg(spec, strategies, mode=mode, window=window, delay=5))
    assert m1.utility == m2.utility
    assert np.array_equal(m1.final_queues, m2.final_queues)
    assert _traces_equal(t1, t2)


def test_different_seeds_differ(two_sensor):
    spec, strategies = two_sensor
    _, t1 = cs.run_episode(_cfg(spec, strategies, seed=1))
    _, t2 = cs.run_episode(_cfg(spec, strategies, seed=2))
    assert not np.array_equal(t1.u, t2.u)


def test_running_averages_recomputable(two_sensor):
    spec, strategies = two_sensor
    metrics, trace = cs.run_episode(_cfg(spec, strategies, mode="approx", window=40, delay=10))
    counts = np.arange(1, len(trace) + 1)
    assert np.max(np.abs(np.cumsum(trace.u) / counts - trace.ubar)) < 1e-12
    assert np.max(np.abs(np.cumsum(trace.p, axis=0) / counts[:, None] - trace.pbar)) < 1e-12
    re = cs.summarize(trace)
    assert re.utility == pytest.approx(metrics.utility, abs=1e-12)
    assert np.allclose(re.pbar, metrics.pbar, atol=1e-12)
    assert re.queue_bound_max_residual <= 1e-9


def test_queue_bound_residual_all_modes(two_sensor, rng):
    spec, strategies = two_sensor
    for mode, window, delay in (("exact", None, 0), ("exact", None, 7), ("approx", 13, 10)):
        metrics, _ = cs.run_episode(
            _cfg(spec, strategies, mode=mode, window=window, delay=delay, horizon=3000)
        )
        assert metrics.queue_bound_max_residual <= 1e-9
    sep_spec = random_separable_spec(rng)
    metrics, _ = cs.run_episode(_cfg(sep_spec, None, delay=3, horizon=3000))
    assert metrics.queue_bound_max_residual <= 1e-9


def test_trace_queue_matches_recursion(two_sensor):
    spec, strategies = two_sensor
    _, trace = cs.run_episode(_cfg(spec, strategies, delay=4, horizon=500))
    c = np.array(spec.constraints)
    q = np.zeros(2)
    for t in range(500):
        assert np.array_equal(trace.q[t], q)
        delayed = trace.p[t - 4] if t >= 4 else np.zeros(2)
        q = np.maximum(q + delayed - c, 0.0)


def test_exact_mode_selection_replays_with_dpp_select(two_sensor):
    spec, strategies = two_sensor
    r = cs.r_matrix(spec, strategies)
    _, trace = cs.run_episode(_cfg(spec, strategies, v=25.0, delay=3, horizon=400))
    for i in range(len(trace)):
        assert trace.strategy[i] == oracles.dpp_select(r, trace.q[i], 25.0)


def test_approx_mode_selection_replays_with_estimator(two_sensor):
    spec, strategies = two_sensor
    delay, window, v = 6, 9, 15.0
    cfg = _cfg(spec, strategies, mode="approx", window=window, delay=delay, v=v, horizon=300)
    _, trace = cs.run_episode(cfg)
    # regenerate the event stream exactly as the simulator does
    rng = np.random.default_rng(cfg.seed)
    omega = cs.problem.sample_event_indices(spec.distribution, spec.event_sizes, rng, 300)
    pen = strategy_event_penalties(spec, strategies)
    est = cs.RollingEstimator(pen, window)
    for t in range(300):
        if t >= delay:
            est.push(omega[t - delay : t - delay + 1])
        m = oracles.window_select(est, trace.q[t], v)
        assert m == trace.strategy[t]


def test_approx_ensemble_pushes_every_run_at_once(two_sensor, monkeypatch):
    spec, strategies = two_sensor
    calls = []
    push = cs.RollingEstimator.push

    def counted(self, events):
        calls.append(len(events))
        push(self, events)

    monkeypatch.setattr(cs.RollingEstimator, "push", counted)
    horizon, delay = cs.simulator.CHUNK_SLOTS + 300, 7  # two chunks
    cfg = _cfg(spec, strategies, mode="approx", window=9, delay=delay, horizon=horizon, runs=5)
    cs.run_ensemble(cfg)
    # one push per revealed slot, each with all five runs' events
    assert calls == [5] * (horizon - delay)


@pytest.mark.parametrize("window", [1, 40])
def test_approx_mode_at_delay_0_stays_below_the_distributed_optimum(two_sensor, window):
    # the distributed LP optimum is the best a distributed policy can reach; a window that
    # held slot t's own event reached the centralized 0.5 here (0.5009-0.5011)
    spec, _ = two_sensor
    every = cs.enumerate_all(spec)
    assert cs.solve_distributed_lp(spec, every).utility == pytest.approx(0.479167, abs=1e-6)
    metrics, _ = cs.run_episode(_cfg(spec, every, "approx", 100.0, 0, window, horizon=100_000))
    assert metrics.utility <= 0.479167 + 0.005


def _check_selection_lag(spec, monkeypatch, mode, window, runs, delay):
    """Changing slot t's joint event in every run leaves every selection through slot
    t + lag - 1 as it was, and some (t, event) moves one at slot t + lag.

    Exact mode's queues hold penalties through slot t - 1 - D, so lag = D + 1;
    approx mode's window holds events through slot t - max(D, 1), so lag = max(D, 1).
    """
    lag = delay + 1 if mode == "exact" else max(delay, 1)
    cfg = _cfg(spec, cs.enumerate_all(spec), mode, 5.0, delay, window, horizon=40)
    monkeypatch.setattr(cs.simulator, "CHUNK_SLOTS", 7)  # slots 6 and 7 sit on a chunk edge
    draw = cs.simulator.sample_event_indices

    def strategies(t=None, event=None):
        def patched(distribution, event_sizes, gen, n, start, stop):
            events = draw(distribution, event_sizes, gen, n, start, stop)
            if t is not None and start <= t < stop:
                events[t - start] = event
            return events

        monkeypatch.setattr(cs.simulator, "sample_event_indices", patched)
        _, traces, _ = cs.simulator._simulate(cfg, list(range(runs)), 1, accumulate=False)
        return np.stack([trace.strategy for trace in traces])

    base = strategies()
    moved = 0
    for t in (0, 1, 6, 7, 20):
        for event in range(spec.n_events):
            changed = strategies(t, event)
            assert np.array_equal(changed[:, : t + lag], base[:, : t + lag]), (t, event)
            moved += not np.array_equal(changed[:, t + lag], base[:, t + lag])
    assert moved >= 1  # the lag is tight


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("mode,window", [("exact", None), ("approx", 1), ("approx", 13)])
def test_delay_0_selection_does_not_read_its_own_slots_event(two_sensor, monkeypatch, mode, window, runs):
    _check_selection_lag(two_sensor[0], monkeypatch, mode, window, runs, delay=0)


@pytest.mark.parametrize("delay", [1, 4])
@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("mode,window", [("exact", None), ("approx", 1), ("approx", 13)])
def test_selection_reads_no_event_within_its_lag(two_sensor, monkeypatch, mode, window, runs, delay):
    _check_selection_lag(two_sensor[0], monkeypatch, mode, window, runs, delay)


def test_sim_config_rejects_event_penalties_of_another_shape(two_sensor):
    spec, strategies = two_sensor
    every = cs.enumerate_all(spec)
    pen = strategy_event_penalties(spec, strategies)
    cs.SimConfig(spec=spec, dpp=cs.DppConfig(v=1.0), horizon=10, seed=1, event_penalties=pen)
    # approx mode given an 8-event tensor ran at utility 0.3615, where the right one gives 0.4805
    eight_events = np.concatenate([pen, pen])
    approx = cs.DppConfig(v=100.0, delay=10, mode="approx", window=40)
    with pytest.raises(ValueError, match=r"^event_penalties has shape \(8, 4, 3\), expected \(4, 4, 3\)$"):
        cs.SimConfig(spec=spec, dpp=approx, horizon=10, seed=1, strategies=strategies,
                     event_penalties=eight_events)
    # a 16-strategy set with the 4-strategy tensor: trace indices would name the tensor's rows
    with pytest.raises(ValueError, match=r"^event_penalties has shape \(4, 4, 3\), expected \(4, 16, 3\)$"):
        cs.SimConfig(spec=spec, dpp=cs.DppConfig(v=1.0), horizon=10, seed=1, strategies=every,
                     event_penalties=pen)
    for bad in (pen[0], pen[..., :2], pen[..., None]):
        with pytest.raises(ValueError, match=r"expected \(4, M, 3\)$"):
            cs.SimConfig(spec=spec, dpp=cs.DppConfig(v=1.0), horizon=10, seed=1, event_penalties=bad)


def test_separable_run_matches_exact_run(rng):
    spec = random_separable_spec(rng)
    exact_m, exact_tr = cs.run_episode(_cfg(spec, cs.enumerate_all(spec), horizon=1500, v=3.0))
    sep_m, sep_tr = cs.run_episode(_cfg(spec, None, horizon=1500, v=3.0))
    # same seed, same event stream; per-user argmin equals the joint argmin
    assert np.array_equal(exact_tr.u, sep_tr.u)
    assert np.array_equal(exact_tr.p, sep_tr.p)
    assert np.all(sep_tr.strategy == -1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), delay=st.integers(0, 5), v=st.floats(0.5, 50.0))
def test_exact_mode_picks_the_per_user_rule_from_the_spec(seed, delay, v):
    # a split spec with no set runs per user: the joint argmin's u, p and q, strategy -1
    spec = random_separable_spec(np.random.default_rng(seed))
    every = cs.enumerate_all(spec)
    _, joint = cs.run_episode(_cfg(spec, every, v=v, delay=delay, horizon=400))
    _, split = cs.run_episode(_cfg(spec, None, v=v, delay=delay, horizon=400))
    for field in ("u", "p", "q"):
        assert getattr(split, field).tobytes() == getattr(joint, field).tobytes()
    assert np.all(split.strategy == -1) and np.all(joint.strategy >= 0)
    # an event tensor alone, or approx mode, keeps the strategy columns
    tensor = _cfg(spec, None, v=v, delay=delay, horizon=400)
    tensor.event_penalties = strategy_event_penalties(spec, every)
    assert _traces_equal(cs.run_episode(tensor)[1], joint)
    _, approx = cs.run_episode(_cfg(spec, None, "approx", v, delay, window=5, horizon=400))
    assert np.all(approx.strategy >= 0)
    # a spec that does not split runs over the set it resolves to, as if it were given
    spec = random_spec(np.random.default_rng(seed))
    if cs.separable_components(spec) is None:
        resolved = resolve_strategies(spec)
        _, given_set = cs.run_episode(_cfg(spec, resolved, v=v, delay=delay, horizon=400))
        _, no_set = cs.run_episode(_cfg(spec, None, v=v, delay=delay, horizon=400))
        assert _traces_equal(no_set, given_set)
        assert np.all(no_set.strategy >= 0)


@pytest.mark.parametrize("config", [dict(mode="separable"), dict(mode="exact", window=5)])
def test_dpp_config_rejects_a_separable_mode_and_a_stray_window(config):
    with pytest.raises(ValueError):
        cs.DppConfig(v=1.0, **config)


def test_per_user_run_expands_the_penalties_once(count_calls):
    # the split test's tables serve the per-user rule too, instead of a second expansion
    spec = random_separable_spec(np.random.default_rng(5))
    calls = count_calls("penalty_tables")
    _, trace = cs.run_episode(_cfg(spec, None, horizon=10))
    assert np.all(trace.strategy == -1)  # the per-user rule ran
    assert len(calls) == 1


def test_phase_validation(two_sensor):
    spec, strategies = two_sensor
    gap = [cs.Phase(0, 500, spec.distribution), cs.Phase(600, 1000, spec.distribution)]
    with pytest.raises(ValueError):
        cs.run_episode(_cfg(spec, strategies, horizon=1000, phases=gap))
    short = [cs.Phase(0, 500, spec.distribution)]
    with pytest.raises(ValueError):
        cs.run_episode(_cfg(spec, strategies, horizon=1000, phases=short))


@pytest.mark.parametrize(
    "distribution,problem",
    [
        (cs.ProductDistribution((np.array([0.9, 0.9]), np.array([0.5, 0.5]))),
         "user 0 marginal not normalized"),
        (cs.ProductDistribution((np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))),
         "user 1 marginal has wrong length"),
        (cs.JointDistribution(np.array([[0.5, np.nan], [0.25, 0.25]])),
         "joint table has non-finite entries"),
    ],
    ids=["unnormalized", "wrong-length", "joint-nan"],
)
@pytest.mark.parametrize("runs", [1, 3])
def test_invalid_phase_distribution_rejected(two_sensor, distribution, problem, runs):
    # such phases used to run, with wrong numbers or an unrelated numpy error
    spec, strategies = two_sensor
    phases = [cs.Phase(0, 50, distribution), cs.Phase(50, 100, spec.distribution)]
    cfg = _cfg(spec, strategies, horizon=100, phases=phases, runs=runs)
    run = cs.run_episode if runs == 1 else cs.run_ensemble
    with pytest.raises(ValueError, match=f"^phase 0: {problem}"):
        run(cfg)


def test_phase_switch_changes_sampling(two_sensor):
    spec, strategies = two_sensor
    unconstrained = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=spec.penalties[:1],
        constraints=(),
    )
    certain = cs.JointDistribution(np.array([[0.0, 0.0], [0.0, 1.0]]))
    phases = [cs.Phase(0, 100, unconstrained.distribution), cs.Phase(100, 200, certain)]
    _, trace = cs.run_episode(
        _cfg(unconstrained, strategies, horizon=200, phases=phases, v=1.0, mode="exact")
    )
    # no constraints: the controller always reports, and in the deterministic
    # phase every event is (1,1), so utility is pinned at 1
    assert np.all(trace.u[100:] == 1.0)
    assert trace.u[:100].min() < 1.0


def test_ensemble_identical_seeds_equal_single_run(two_sensor):
    spec, strategies = two_sensor
    cfg = _cfg(spec, strategies, horizon=300, runs=2)
    ens = cs.run_ensemble(cfg, seeds=[5, 5])
    _, tr = cs.run_episode(_cfg(spec, strategies, horizon=300, seed=5))
    assert np.array_equal(ens.mean_u, tr.u)
    assert np.array_equal(ens.mean_p, tr.p)


def test_ensemble_default_seed_derivation(two_sensor):
    spec, strategies = two_sensor
    cfg = _cfg(spec, strategies, horizon=100, runs=3, seed=40)
    ens = cs.run_ensemble(cfg)
    assert ens.seeds == [40, 41, 42]
    assert ens.runs == 3


def test_ensemble_single_slot_matches_expectation(two_sensor):
    spec, strategies = two_sensor
    r = cs.r_matrix(spec, strategies)
    m0 = oracles.dpp_select(r, np.zeros(2), 10.0)  # queues start at zero
    expect_u = -r[m0, 0]
    pen = strategy_event_penalties(spec, strategies)[:, m0, 0]
    pi = cs.problem.flat_event_probabilities(spec.distribution, spec.event_sizes)
    var = float(pi @ (pen - r[m0, 0]) ** 2)
    runs = 400
    cfg = _cfg(spec, strategies, horizon=1, runs=runs, v=10.0, seed=11)
    ens = cs.run_ensemble(cfg)
    sigma = np.sqrt(var / runs)
    assert abs(ens.mean_u[0] - expect_u) < 4 * sigma


def test_trace_round_trip(tmp_path, two_sensor):
    spec, strategies = two_sensor
    _, trace = cs.run_episode(_cfg(spec, strategies, mode="approx", window=7, delay=2,
                                   horizon=500, stride=3))
    path = tmp_path / "run.trace.csv"
    cs.write_trace(trace, path)
    back = cs.read_trace(path)
    assert _traces_equal(trace, back)


def test_trace_header_format(tmp_path, two_sensor):
    spec, strategies = two_sensor
    _, trace = cs.run_episode(_cfg(spec, strategies, horizon=10))
    path = tmp_path / "t.csv"
    cs.write_trace(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,strategy,u,p_1,p_2,Q_1,Q_2,ubar,pbar_1,pbar_2"


# SHA-256 of each trace file as the per-row writer wrote it before np.savetxt
TRACE_SHA = {
    "exact-d3": "a38dd7c40e6bd534ee3a30c6d17c8c95f5ff23bb30ed07e1a67137aede36d32e",
    "separable-d2": "9eab6c15f53955e739c19241404c6792af55fad80b12c620de3d1930b4c8cc01",
    "k0-stride7": "30e8fe78a3d1c9fb43d5de833e7a2687ad075dd8f500fc6b886d060d1d08603f",
}


@pytest.mark.parametrize("case", sorted(TRACE_SHA))
def test_write_trace_bytes_pinned(tmp_path, two_sensor, case):
    spec, strategies = two_sensor
    k0 = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=spec.penalties[:1],
        constraints=(),
    )
    sep = random_separable_spec(np.random.default_rng(4))  # K = 2, strategy column -1
    spec, strategies, mode, delay, stride = {
        "exact-d3": (spec, strategies, "exact", 3, 1),
        "separable-d2": (sep, None, "exact", 2, 1),
        "k0-stride7": (k0, strategies, "exact", 0, 7),
    }[case]
    _, trace = cs.run_episode(
        _cfg(spec, strategies, mode=mode, delay=delay, horizon=300, seed=17, stride=stride)
    )
    path = tmp_path / "run.trace.csv"
    cs.write_trace(trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA[case]


def test_write_trace_bad_path(two_sensor):
    spec, strategies = two_sensor
    _, trace = cs.run_episode(_cfg(spec, strategies, horizon=10))
    with pytest.raises(OSError, match="no/such/dir"):
        cs.write_trace(trace, "no/such/dir/x.csv")


def test_single_slot_trace(two_sensor):
    spec, strategies = two_sensor
    _, trace = cs.run_episode(_cfg(spec, strategies, horizon=1))
    assert len(trace) == 1
    assert trace.ubar[0] == trace.u[0]
    summary = cs.summarize(trace)
    assert summary.utility == trace.u[0]


def test_summarize_requires_full_resolution(two_sensor):
    spec, strategies = two_sensor
    _, trace = cs.run_episode(_cfg(spec, strategies, horizon=100, stride=10))
    with pytest.raises(ValueError):
        cs.summarize(trace)


def test_summarize_flags_inconsistent_traces(two_sensor):
    spec, strategies = two_sensor
    _, trace = cs.run_episode(_cfg(spec, strategies, v=10.0, delay=5, horizon=3000))
    assert cs.summarize(trace).queue_bound_max_residual <= 1e-9
    # overstated penalties: the recorded queues no longer cover the debt
    tampered_p = cs.Trace(**{**trace.__dict__, "p": trace.p * 1.05})
    assert cs.summarize(tampered_p).queue_bound_max_residual > 1e-9
    # queues wiped from the record break the bound wherever debt ran above c
    tampered_q = cs.Trace(**{**trace.__dict__, "q": trace.q * 0.0})
    assert cs.summarize(tampered_q).queue_bound_max_residual > 1e-9


def test_delay_longer_than_horizon(two_sensor):
    spec, strategies = two_sensor
    metrics, trace = cs.run_episode(_cfg(spec, strategies, delay=50, horizon=20))
    # no feedback ever arrives, so the queues never move
    assert np.all(trace.q == 0.0)
    assert np.all(metrics.final_queues == 0.0)
    assert metrics.queue_bound_max_residual <= 0.0


def test_unconstrained_episode_and_round_trip(tmp_path, two_sensor):
    spec, strategies = two_sensor
    k0 = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=spec.penalties[:1],
        constraints=(),
    )
    metrics, trace = cs.run_episode(_cfg(k0, strategies, delay=2, horizon=100))
    assert metrics.pbar.shape == (0,)
    path = tmp_path / "k0.csv"
    cs.write_trace(trace, path)
    back = cs.read_trace(path)
    assert np.array_equal(back.u, trace.u)
    assert back.p.shape == (100, 0)


def test_utility_monotone_in_v(two_sensor):
    spec, strategies = two_sensor
    finals = []
    for v in (1.0, 10.0, 100.0):
        metrics, _ = cs.run_episode(
            _cfg(spec, strategies, mode="approx", window=40, delay=10,
                 v=v, horizon=10**5, seed=8, stride=1000)
        )
        finals.append(metrics.utility)
    for lo, hi in zip(finals, finals[1:]):
        assert hi >= lo - 0.01  # larger V trades queue growth for utility


def test_strided_trace_running_averages_are_full_resolution(two_sensor):
    spec, strategies = two_sensor
    cfg_full = _cfg(spec, strategies, horizon=400, stride=1)
    cfg_strided = _cfg(spec, strategies, horizon=400, stride=100)
    _, full = cs.run_episode(cfg_full)
    _, strided = cs.run_episode(cfg_strided)
    idx = np.flatnonzero(full.t % 100 == 0)
    assert np.array_equal(strided.ubar, full.ubar[idx])
    assert np.array_equal(strided.pbar, full.pbar[idx])
