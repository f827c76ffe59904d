"""Bit-identity of the lockstep, chunked controller kernel.

The golden values were captured from the full-horizon, one-run-at-a-time
simulator this kernel replaced: float.hex of every Metrics field and a
SHA-256 digest of every Trace array.  The approx cases at delay 0 were
re-captured when slot t's own event left slot t's window (it now enters
after slot t's selection).  Each case also runs with tiny and
large chunk sizes, so chunk edges, delays longer than a chunk and delays
longer than the horizon all have to reproduce the same bits.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import corrsched as cs
from corrsched import fixtures, simulator
from corrsched.problem import joint_components, sample_event_indices, skip_event_draws


def separable_spec() -> cs.ProblemSpec:
    """Two users whose utility is a sum of per-user tables, with power budgets."""
    gen = np.random.default_rng(5)
    action_sizes, event_sizes = (2, 3), (3, 2)
    omega_comp = joint_components(event_sizes)
    alpha_comp = joint_components(action_sizes)
    table = np.zeros((6, 6))
    for i in range(2):
        part = gen.uniform(-1.0, 1.0, (event_sizes[i], action_sizes[i]))
        table += part[np.ix_(omega_comp[:, i], alpha_comp[:, i])]
    return cs.ProblemSpec(
        action_sizes=action_sizes,
        event_sizes=event_sizes,
        distribution=cs.ProductDistribution((np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.4]))),
        penalties=(cs.FullTable(table), cs.PowerPerUser(0), cs.PowerPerUser(1)),
        constraints=(0.4, 0.8),
    )


TWO = fixtures.two_sensor_spec()
TWO_S = fixtures.two_sensor_strategies(TWO)
THREE = fixtures.three_sensor_spec()
THREE_S = fixtures.three_sensor_strategies(THREE)
SEP = separable_spec()
SKEWED = cs.JointDistribution(np.array([[0.1, 0.2], [0.3, 0.4]]))

# name: (spec, strategies, mode, delay, window, horizon, stride, phases)
CASES = {
    "exact-d0": (TWO, TWO_S, "exact", 0, None, 10_007, 1, None),
    "exact-d7": (TWO, TWO_S, "exact", 7, None, 10_007, 3, None),
    "approx-d0": (TWO, TWO_S, "approx", 0, 13, 10_007, 1, None),
    "approx-d7": (TWO, TWO_S, "approx", 7, 13, 10_007, 7, None),
    "separable-d0": (SEP, None, "exact", 0, None, 9_001, 1, None),
    "separable-d7": (SEP, None, "exact", 7, None, 9_001, 5, None),
    "exact-phased-d7": (TWO, TWO_S, "exact", 7, None, 9_000, 1,
                        [(0, 2500, None), (2500, 6100, SKEWED), (6100, 9000, None)]),
    "approx-3sensor-phased": (THREE, THREE_S, "approx", 10, 40, 6_000, 1, "adaptation"),
    "exact-h4095": (TWO, TWO_S, "exact", 7, None, 4095, 1, None),
    "exact-h4096": (TWO, TWO_S, "exact", 7, None, 4096, 1, None),
    "exact-h4097": (TWO, TWO_S, "exact", 7, None, 4097, 1, None),
    "exact-d5000": (TWO, TWO_S, "exact", 5000, None, 9_000, 1, None),
    "approx-d4500": (TWO, TWO_S, "approx", 4500, 9, 9_000, 1, None),
    "exact-d50-h20": (TWO, TWO_S, "exact", 50, None, 20, 1, None),
    "exact-h1": (TWO, TWO_S, "exact", 3, None, 1, 1, None),
    "approx-h1": (TWO, TWO_S, "approx", 0, 4, 1, 1, None),
    "separable-h17": (SEP, None, "exact", 2, None, 17, 1, None),
}

# name: (utility, pbar, final_queues, queue_bound_max_residual, trace digest)
GOLDEN_EPISODES = {
    "exact-d0": (
        "0x1.ed1ed3905c187p-2",
        ("0x1.562fa24468116p-2", "0x1.50dd7047a13e7p-2"),
        ("0x1.0aaaaaaaaa8ebp+3", "0x1.aaaaaaaaaaaa6p+0"),
        "0x1.0000000000000p-52",
        "88ab9dcd53bbb14a",
    ),
    "exact-d7": (
        "0x1.ea2723fe770f2p-2",
        ("0x1.5649d4759346bp-2", "0x1.3a748037aaa88p-2"),
        ("0x1.aaaaaaaaaa111p+2", "0x1.aaaaaaaaaaaabp+0"),
        "-0x1.e8fe407be1000p-13",
        "3ecbc0244c8df1af",
    ),
    "approx-d0": (
        "0x1.ebd76029bffe6p-2",
        ("0x1.562fa24468116p-2", "0x1.4fa315f99abf0p-2"),
        ("0x1.1555555554f2ap+3", "0x1.2aaaaaaaaaa9cp+1"),
        "-0x1.176cb7222e000p-15",
        "545cddb7d00f80a0",
    ),
    "approx-d7": (
        "0x1.e9e5a6838b09ep-2",
        ("0x1.55e10bb0e6719p-2", "0x1.4375c11e84f9dp-2"),
        ("0x1.3fffffffff9f8p+3", "0x1.d55555555555dp+1"),
        "-0x1.e8fe407be1800p-12",
        "e7b4f0c504d02641",
    ),
    "separable-d0": (
        "0x1.83fb5201524efp-1",
        ("0x1.2e0be371e847bp-2", "0x1.9a027229cf063p-1"),
        ("0x1.cccccccccccd2p+0", "0x1.ccccccccccccdp+2"),
        "0x1.0000000000000p-53",
        "548c7e2685f92fcd",
    ),
    "separable-d7": (
        "0x1.82ae1a437aee5p-1",
        ("0x1.2d5d252c39e81p-2", "0x1.99e55273874b9p-1"),
        ("0x1.999999999999ep+0", "0x1.cccccccccaf47p+0"),
        "-0x1.462ff989c3400p-11",
        "e3567f0c4a3b97e2",
    ),
    "exact-phased-d7": (
        "0x1.ed0e560418937p-2",
        ("0x1.5604189374bc7p-2", "0x1.3f7ced916872bp-2"),
        ("0x1.d555555554d4bp+2", "0x1.2aaaaaaaaaaabp+1"),
        "-0x1.0fda60a29f800p-12",
        "3b784aebbd358a3d",
    ),
    "approx-3sensor-phased": (
        "0x1.cf7f1ccefc127p-2",
        ("0x1.54fdf3b645a1dp-2", "0x1.47d9c54a69217p-2", "0x1.4624dd2f1a9fcp-2"),
        ("0x1.aaaaaaaaaabaap+2", "0x1.d555555555558p+2", "0x1.55555555555abp-2"),
        "-0x1.7aa706995f600p-10",
        "ebaa7678f2fb206b",
    ),
    "exact-h4095": (
        "0x1.e5de5de5de5dep-2",
        ("0x1.5795795795795p-2", "0x1.3353353353353p-2"),
        ("0x1.55555555551c9p+2", "0x1.aaaaaaaaaaaaap+0"),
        "-0x1.2abd568012400p-11",
        "8433700daefb45d2",
    ),
    "exact-h4096": (
        "0x1.e5a0000000000p-2",
        ("0x1.5800000000000p-2", "0x1.3640000000000p-2"),
        ("0x1.bfffffffffc58p+2", "0x1.000000000000bp+0"),
        "-0x1.2aaaaaaaaa200p-11",
        "1a3dc5bdfe8752be",
    ),
    "exact-h4097": (
        "0x1.e4c1b3e4c1b3ep-2",
        ("0x1.582a7d582a7d6p-2", "0x1.322cdd322cdd3p-2"),
        ("0x1.eaaaaaaaaa750p+2", "0x1.5555555555557p-2"),
        "-0x1.2a98012a97800p-11",
        "3e11e4ee85125b77",
    ),
    "exact-d5000": (
        "0x1.d0369d0369d03p-2",
        ("0x1.abb0cf87d9c55p-2", "0x1.22ee05ea9c1a6p-2"),
        ("0x1.a1aaaaaaaac0ap+10", "0x1.5cd55555554c1p+9"),
        "-0x1.7b425ed097afep-3",
        "dc76151948868bda",
    ),
    "approx-d4500": (
        "0x1.9867c3ece2a53p-2",
        ("0x1.81ef293003a41p-2", "0x1.6f0c0f7949802p-3"),
        ("0x0.0p+0", "0x0.0p+0"),
        "-0x1.5555555555555p-2",
        "6c33b2f9a213b703",
    ),
    "exact-d50-h20": (
        "0x1.d99999999999ap-1",
        ("0x1.ccccccccccccdp-1", "0x1.0000000000000p-1"),
        ("0x0.0p+0", "0x0.0p+0"),
        "-0x1.5555555555555p-2",
        "720eeafb51817458",
    ),
    "exact-h1": (
        "0x1.0000000000000p+0",
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        "-0x1.5555555555555p-2",
        "a6c59c4138c365cd",
    ),
    "approx-h1": (
        "0x0.0p+0",
        ("0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0"),
        "-0x1.5555555555555p-2",
        "5b6fb58e61fa4759",
    ),
    "separable-h17": (
        "0x1.5f029d4131a80p+0",
        ("0x1.a5a5a5a5a5a5ap-2", "0x1.1e1e1e1e1e1e2p+0"),
        ("0x1.3333333333334p+1", "0x1.c000000000002p+2"),
        "-0x1.8181818181820p-4",
        "10180a0a66885311",
    ),
}

ENSEMBLES = {
    "exact-d0": (TWO, TWO_S, "exact", 0, None, 5_003),
    "exact-d7": (TWO, TWO_S, "exact", 7, None, 5_003),
    "approx-d7": (TWO, TWO_S, "approx", 7, 13, 5_003),
    "separable-d3": (SEP, None, "exact", 3, None, 5_003),
    "exact-3sensor-d0": (THREE, THREE_S, "exact", 0, None, 4_500),
}

# name: (digest of mean_u, mean_p, mean_qnorm; digest of every run"s Metrics)
GOLDEN_ENSEMBLES = {
    "exact-d0": ("8bdce46d18718e79", "9cd71e16171e8f11"),
    "exact-d7": ("d451f7b1d9b11ef2", "8cab380ab813ec76"),
    "approx-d7": ("2d1988558044dc1f", "a7001b591e94d855"),
    "separable-d3": ("bc4fff0207cdd46c", "4cef738a4e7e4b71"),
    "exact-3sensor-d0": ("dbdccd5b2d4c5e96", "17baf8fb37b6d7f0"),
}

# The default chunk, one far smaller than every delay above, and 4096, at
# whose edges the exact-h409x cases sit.
CHUNKS = [simulator.CHUNK_SLOTS, 7, 4096]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update((a.astype("<i8") if a.dtype.kind == "i" else a.astype("<f8")).tobytes())
    return h.hexdigest()[:16]


def hexes(values) -> tuple[str, ...]:
    return tuple(float(x).hex() for x in np.asarray(values, dtype=float).ravel())


def metrics_key(m: cs.Metrics) -> tuple:
    return (
        float(m.utility).hex(),
        hexes(m.pbar),
        hexes(m.final_queues),
        float(m.queue_bound_max_residual).hex(),
    )


def episode_config(name: str, seed: int = 99) -> cs.SimConfig:
    spec, strategies, mode, delay, window, horizon, stride, phases = CASES[name]
    if phases == "adaptation":
        phases = fixtures.adaptation_phases(horizon, (2000, 4000))
    elif phases is not None:
        phases = [cs.Phase(a, b, dist or spec.distribution) for a, b, dist in phases]
    return cs.SimConfig(
        spec=spec,
        dpp=cs.DppConfig(v=10.0, delay=delay, mode=mode, window=window),
        horizon=horizon,
        seed=seed,
        strategies=strategies,
        phases=phases,
        stride=stride,
    )


def episode_key(name: str) -> tuple:
    metrics, tr = cs.run_episode(episode_config(name))
    return metrics_key(metrics) + (digest(tr.t, tr.strategy, tr.u, tr.p, tr.q, tr.ubar, tr.pbar),)


def ensemble_config(name: str, runs: int = 4) -> cs.SimConfig:
    spec, strategies, mode, delay, window, horizon = ENSEMBLES[name]
    return cs.SimConfig(
        spec=spec,
        dpp=cs.DppConfig(v=100.0, delay=delay, mode=mode, window=window),
        horizon=horizon,
        seed=1000,
        strategies=strategies,
        runs=runs,
    )


def ensemble_key(name: str) -> tuple:
    ens = cs.run_ensemble(ensemble_config(name))
    runs = digest(*(np.hstack([m.utility, m.pbar, m.final_queues, m.queue_bound_max_residual])
                    for m in ens.per_run))
    return (digest(ens.mean_u, ens.mean_p, ens.mean_qnorm), runs)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", list(CASES))
def test_episode_matches_golden(name, chunk, monkeypatch):
    monkeypatch.setattr(simulator, "CHUNK_SLOTS", chunk)
    assert episode_key(name) == GOLDEN_EPISODES[name]


@pytest.mark.parametrize("chunk", CHUNKS[:2])
@pytest.mark.parametrize("name", list(ENSEMBLES))
def test_ensemble_matches_golden(name, chunk, monkeypatch):
    monkeypatch.setattr(simulator, "CHUNK_SLOTS", chunk)
    assert ensemble_key(name) == GOLDEN_ENSEMBLES[name]


@pytest.mark.parametrize("name", list(ENSEMBLES))
def test_ensemble_runs_equal_single_episodes(name):
    cfg = ensemble_config(name)
    seeds = [3, 1, 4, 15]
    ens = cs.run_ensemble(cfg, seeds=seeds)
    for seed, got in zip(seeds, ens.per_run):
        single, _ = cs.run_episode(cs.SimConfig(**{**cfg.__dict__, "seed": seed, "runs": 1}))
        assert metrics_key(got) == metrics_key(single)


@pytest.mark.parametrize(
    "distribution",
    [TWO.distribution, THREE.distribution, SKEWED],
    ids=["product-2", "product-3", "joint"],
)
@pytest.mark.parametrize("n,chunk", [(10_007, 4096), (10, 3), (5, 5)])
def test_chunked_event_draws_equal_one_shot(distribution, n, chunk):
    sizes = THREE.event_sizes if distribution is THREE.distribution else TWO.event_sizes
    one_shot_rng = np.random.default_rng(17)
    one_shot = sample_event_indices(distribution, sizes, one_shot_rng, n)
    rng = np.random.default_rng(17)
    parts = [
        sample_event_indices(distribution, sizes, rng, n, a, min(a + chunk, n))
        for a in range(0, n, chunk)
    ]
    skip_event_draws(distribution, rng, n)
    assert np.array_equal(np.concatenate(parts), one_shot)
    assert rng.bit_generator.state == one_shot_rng.bit_generator.state


@pytest.mark.parametrize("delay", [0, 2])
def test_per_user_rule_reads_only_each_users_own_event(delay, monkeypatch):
    # SEP's penalties 1 and 2 are the users' powers, so trace.p holds their actions.
    # Changing user j's event at slot t leaves the other user's action at slot t, and
    # every action before t, as it was.
    monkeypatch.setattr(simulator, "CHUNK_SLOTS", 7)
    config = cs.SimConfig(spec=SEP, dpp=cs.DppConfig(v=10.0, delay=delay), horizon=40, seed=99, stride=1)
    draw = simulator.sample_event_indices

    def actions(t=None, user=None, own=None):
        def patched(distribution, event_sizes, gen, n, start, stop):
            events = draw(distribution, event_sizes, gen, n, start, stop)
            if t is not None and start <= t < stop:
                parts = list(np.unravel_index(events[t - start], event_sizes))
                parts[user] = own
                events[t - start] = np.ravel_multi_index(parts, event_sizes)
            return events

        monkeypatch.setattr(simulator, "sample_event_indices", patched)
        _, trace = cs.run_episode(config)
        assert np.all(trace.strategy == -1)  # the per-user rule ran
        return trace.p

    base = actions()
    moved = 0
    for t in (0, 1, 6, 7, 20):
        for user in (0, 1):
            for own in range(SEP.event_sizes[user]):
                changed = actions(t, user, own)
                assert np.array_equal(changed[:t], base[:t]), (t, user, own)
                assert changed[t, 1 - user] == base[t, 1 - user], (t, user, own)
                moved += changed[t, user] != base[t, user]
    assert moved >= 1  # a user's own event does move its action


@pytest.mark.parametrize("runs", [1, 10, 100])
@pytest.mark.parametrize("shape", [(4, 3), (1000, 4)])
def test_stacked_matvec_equals_per_run_dot(shape, runs):
    """The batched step"s score op must round exactly like r.dot(w) per run.

    Exact mode scores one r broadcast over the runs, approx mode a stack of
    per-run window sums; both must match each run's own ``dot``.
    """
    gen = np.random.default_rng(runs * shape[0])
    r = gen.uniform(-1.0, 1.0, shape)
    w = gen.uniform(0.0, 50.0, (runs, shape[1]))
    stacked = gen.uniform(-1.0, 1.0, (runs,) + shape)
    for first, per_run in [
        (r, [r.dot(wj) for wj in w]),
        (r[None], [r.dot(wj) for wj in w]),
        (stacked, [s.dot(wj) for s, wj in zip(stacked, w)]),
    ]:
        scores = np.empty((runs, shape[0], 1))
        np.matmul(first, w[:, :, None], out=scores)
        assert scores[:, :, 0].tobytes() == np.array(per_run).tobytes()


def test_episode_memory_does_not_grow_with_horizon():
    def peak(horizon):
        cfg = cs.SimConfig(
            spec=TWO,
            dpp=cs.DppConfig(v=10.0, delay=7, mode="exact"),
            horizon=horizon,
            seed=1,
            strategies=TWO_S,
            stride=1000,
        )
        tracemalloc.start()
        try:
            cs.run_episode(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5000)  # first-call allocations (imports, caches) stay out of the comparison
    short, long = peak(10**5), peak(4 * 10**5)
    assert long <= 1.1 * short, (short, long)
