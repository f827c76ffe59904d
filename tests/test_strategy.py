import hashlib
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrsched as cs
from corrsched import fixtures
from corrsched import strategy
from corrsched.problem import CapExceeded, penalty_tables
from corrsched.strategy import strategy_event_penalties, user_maps

import oracles
from specgen import random_spec


def _actions(spec, strategy, omega):
    """Joint action of one strategy row at the per-user events omega."""
    return tuple(int(g[w]) for g, w in zip(user_maps(spec, strategy), omega))


def test_enumerate_all_two_sensor_count(two_sensor):
    spec, _ = two_sensor
    assert len(cs.enumerate_all(spec)) == 16


def test_enumerate_all_single_user_trivial():
    spec = cs.ProblemSpec(
        action_sizes=(2,),
        event_sizes=(1,),
        distribution=cs.ProductDistribution((np.array([1.0]),)),
        penalties=(cs.PowerPerUser(0),),
        constraints=(),
    )
    strategies = cs.enumerate_all(spec)
    assert strategies.tolist() == [[0], [1]]


def test_enumerate_all_cap_three_sensor():
    spec = fixtures.three_sensor_spec()
    with pytest.raises(CapExceeded) as err:
        cs.enumerate_all(spec)
    assert err.value.size == 2**30


def test_enumeration_order_is_lexicographic(two_sensor):
    spec, _ = two_sensor
    strategies = cs.enumerate_all(spec).tolist()
    assert strategies == sorted(strategies)
    mono = cs.enumerate_nondecreasing(spec).tolist()
    assert mono == sorted(mono)


def test_nondecreasing_counts():
    one_user = cs.ProblemSpec(
        action_sizes=(2,),
        event_sizes=(10,),
        distribution=cs.ProductDistribution((np.full(10, 0.1),)),
        penalties=(cs.PowerPerUser(0),),
        constraints=(),
    )
    assert len(cs.enumerate_nondecreasing(one_user)) == 11

    tiny = cs.ProblemSpec(
        action_sizes=(2,),
        event_sizes=(1,),
        distribution=cs.ProductDistribution((np.array([1.0]),)),
        penalties=(cs.PowerPerUser(0),),
        constraints=(),
    )
    assert len(cs.enumerate_nondecreasing(tiny)) == 2


def test_three_sensor_pruned_set(three_sensor):
    spec, strategies = three_sensor
    assert len(strategies) == 1000
    assert len(cs.enumerate_nondecreasing(spec)) == 11**3
    for s in strategies:
        assert all(g[0] == 0 for g in user_maps(spec, s))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_nondecreasing_subset_of_all(seed):
    gen = np.random.default_rng(seed)
    spec = random_spec(gen, strategy_cap=100)
    both = set(map(tuple, cs.enumerate_all(spec, cap=200).tolist()))
    mono = cs.enumerate_nondecreasing(spec, cap=200)
    assert set(map(tuple, mono.tolist())) <= both
    for s in mono:
        assert all(np.all(np.diff(g) >= 0) for g in user_maps(spec, s))


def _product_oracle(spec, monotone):
    """Strategy rows from itertools.product over per-user maps, lexicographic."""
    per_user = [
        [g for g in product(range(a), repeat=w) if not monotone or list(g) == sorted(g)]
        for a, w in zip(spec.action_sizes, spec.event_sizes)
    ]
    return [[a for g in maps for a in g] for maps in product(*per_user)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_enumeration_matches_product_oracle(seed):
    spec = random_spec(np.random.default_rng(seed), max_users=3, strategy_cap=200)
    enumerated = {
        False: cs.enumerate_all(spec, cap=200),
        True: cs.enumerate_nondecreasing(spec, cap=200),
    }
    for monotone, got in enumerated.items():
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape[1] == sum(spec.event_sizes)
        assert got.tolist() == _product_oracle(spec, monotone)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_drop_act_on_zero_keeps_rows_idle_on_event_zero(seed):
    spec = random_spec(np.random.default_rng(seed), max_users=3, strategy_cap=200)
    rows = _product_oracle(spec, monotone=False)
    starts = [sum(spec.event_sizes[:i]) for i in range(spec.n_users)]
    want = [row for row in rows if all(row[j] == 0 for j in starts)]
    got = cs.drop_act_on_zero(spec, cs.enumerate_all(spec, cap=200))
    assert got.tolist() == want


def test_preferred_action_power(two_sensor):
    spec, _ = two_sensor
    assert cs.check_preferred_action(spec, 1)
    assert cs.check_preferred_action(spec, 2)


def test_preferred_action_saturating_utility(two_sensor):
    spec, _ = two_sensor
    assert cs.check_preferred_action(spec, 0)


def test_preferred_action_three_sensor(three_sensor):
    spec, _ = three_sensor
    assert all(cs.check_preferred_action(spec, k) for k in range(4))


def test_preferred_action_reversed_difference_fails():
    # One user, two actions, two events; the action gap grows with the event.
    spec = cs.ProblemSpec(
        action_sizes=(2,),
        event_sizes=(2,),
        distribution=cs.ProductDistribution((np.array([0.5, 0.5]),)),
        penalties=(cs.FullTable(np.array([[0.0, 0.0], [0.0, 10.0]])),),
        constraints=(),
    )
    assert not cs.check_preferred_action(spec, 0)
    # brute-force confirmation of the violated inequality
    t = penalty_tables(spec)[0]
    assert t[0, 1] - t[0, 0] < t[1, 1] - t[1, 0]


def test_prune_applicable(two_sensor):
    spec, _ = two_sensor
    assert cs.prune_applicable(spec)


def test_prune_not_applicable_with_joint_correlation(two_sensor):
    spec, _ = two_sensor
    table = np.array([[0.35, 0.05], [0.05, 0.55]])  # correlated entries
    correlated = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=cs.JointDistribution(table),
        penalties=spec.penalties,
        constraints=spec.constraints,
    )
    assert not cs.prune_applicable(correlated)


def test_prune_not_applicable_counterexample():
    spec = fixtures.counterexample_spec()
    assert not cs.check_preferred_action(spec, 0)
    assert not cs.prune_applicable(spec)


def test_r_vectors_two_sensor(two_sensor):
    spec, strategies = two_sensor
    by_row = {tuple(s.tolist()): oracles.compute_r_vector(spec, s) for s in strategies}
    never = by_row[(0, 0, 0, 0)]
    only_one = by_row[(0, 1, 0, 0)]
    both = by_row[(0, 1, 0, 1)]
    assert np.allclose(never, [0.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(only_one, [-3 / 4, 3 / 4, 0.0], atol=1e-15)
    assert np.allclose(both, [-13 / 16, 3 / 4, 1 / 2], atol=1e-15)


def test_r_matrix_matches_per_strategy(two_sensor, rng):
    spec, strategies = two_sensor
    r = cs.r_matrix(spec, strategies)
    for i, s in enumerate(strategies):
        assert np.array_equal(r[i], oracles.compute_r_vector(spec, s))


def test_r_vector_matches_monte_carlo(rng):
    spec = random_spec(rng, strategy_cap=24)
    strategies = cs.enumerate_all(spec)
    s = strategies[int(rng.integers(0, len(strategies)))]
    r = oracles.compute_r_vector(spec, s)
    n = 10**6
    idx = cs.problem.sample_event_indices(spec.distribution, spec.event_sizes, rng, n)
    pen = strategy_event_penalties(spec, [s])[:, 0, :]  # (n_events, K+1)
    samples = pen[idx]
    est = samples.mean(axis=0)
    sigma = samples.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(est - r) < 4.0 * np.maximum(sigma, 1e-12))


def test_two_sensor_values_match_exact_rational_arithmetic(two_sensor):
    # independent re-derivation with Fraction arithmetic: enumerate the four
    # events by hand and average penalties under each pruned strategy
    from fractions import Fraction as F

    spec, strategies = two_sensor
    marg = [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))]

    def utility(a1, a2, w1, w2):
        return min(F(w1) * a1 + F(w2) * a2 / 2, F(1))

    for idx, s in enumerate(strategies):
        expect = [F(0), F(0), F(0)]
        for w1 in (0, 1):
            for w2 in (0, 1):
                prob = marg[0][w1] * marg[1][w2]
                a1, a2 = _actions(spec, s, (w1, w2))
                expect[0] += prob * -utility(a1, a2, w1, w2)
                expect[1] += prob * a1
                expect[2] += prob * a2
        got = oracles.compute_r_vector(spec, s)
        for k in range(3):
            assert abs(got[k] - float(expect[k])) < 1e-15


def test_two_sensor_drift_constant_exact_rational(two_sensor):
    from fractions import Fraction as F

    spec, strategies = two_sensor
    marg = [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))]
    c = F(1, 3)
    worst = F(0)
    for s in strategies:
        total = F(0)
        for w1 in (0, 1):
            for w2 in (0, 1):
                prob = marg[0][w1] * marg[1][w2]
                a1, a2 = _actions(spec, s, (w1, w2))
                total += prob * ((F(a1) - c) ** 2 + (F(a2) - c) ** 2)
        worst = max(worst, total / 2)
    assert worst == F(23, 72)
    from corrsched.online import compute_B

    assert abs(compute_B(spec, strategies) - float(worst)) < 1e-15


def test_nondecreasing_cap():
    spec = cs.ProblemSpec(
        action_sizes=(2, 2, 2),
        event_sizes=(30, 30, 30),
        distribution=cs.ProductDistribution(tuple(np.full(30, 1 / 30) for _ in range(3))),
        penalties=(cs.PowerPerUser(0),),
        constraints=(),
    )
    with pytest.raises(CapExceeded) as err:
        cs.enumerate_nondecreasing(spec, cap=10**4)
    assert err.value.size == 31**3


def test_r_vector_bounded_by_penalty_range(rng):
    for _ in range(10):
        spec = random_spec(rng, strategy_cap=24)
        tables = penalty_tables(spec)
        bound = np.abs(tables).reshape(len(tables), -1).max(axis=1)
        for s in cs.enumerate_all(spec):
            assert np.all(np.abs(oracles.compute_r_vector(spec, s)) <= bound + 1e-12)


def _event_penalties(spec, strategies, fold_any_size):
    """The tensor with the product fold tried on a set of any size, or only past ONE_BLOCK_ENTRIES."""
    limit = 0 if fold_any_size else strategy.ONE_BLOCK_ENTRIES
    with mock.patch.object(strategy, "ONE_BLOCK_ENTRIES", limit):
        return strategy_event_penalties(spec, strategies)


def _assert_tensor_matches_oracle(spec, strategies):
    want = oracles.strategy_event_penalties(spec, strategies)
    for fold_any_size in (False, True):
        got = _event_penalties(spec, strategies, fold_any_size)
        assert got.shape == (spec.n_events, len(strategies), spec.n_constraints + 1)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _near_products(spec, gen, every):
    """A full set with one row changed, one dropped, two swapped and one duplicated."""
    i, j = gen.choice(len(every), 2, replace=False)
    changed = every.copy()
    changed[i, -1] = (every[i, -1] + 1) % spec.action_sizes[-1]  # the last user's last event
    swapped = every.copy()
    swapped[[i, j]] = every[[j, i]]
    return {
        "changed": changed,
        "dropped": np.delete(every, i, axis=0),
        "swapped": swapped,
        "duplicated": np.insert(every, i, every[j], axis=0),
    }


def _is_product(rows, width):
    """Whether some run length d makes rows a product: rows r*d .. r*d + d - 1 share
    their other columns, and every run holds the same last width columns."""
    m = len(rows)
    for d in range(1, m + 1):
        if m % d == 0:
            runs = rows.reshape(m // d, d, -1)
            if (runs[:, :, :-width] == runs[:, :1, :-width]).all() and (
                runs[:, :, -width:] == runs[:1, :, -width:]
            ).all():
                return True
    return False


def _folds(spec, strategies):
    """Whether the tensor of strategies, with the fold tried at any size, folds in the last user."""
    with mock.patch.object(strategy, "_fold_last_user", wraps=strategy._fold_last_user) as fold:
        _event_penalties(spec, strategies, fold_any_size=True)
    return fold.called


def _fold_fits(spec, rows_of_others):
    """The size rule: the folded table has at most as many entries as the whole index."""
    a_rest = spec.n_actions // spec.action_sizes[-1]
    return spec.n_users > 1 and a_rest * (spec.n_constraints + 1) <= rows_of_others


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), joint=st.booleans())
def test_event_penalties_match_per_entry_oracle(seed, joint):
    gen = np.random.default_rng(seed)
    spec = random_spec(gen, max_users=3, strategy_cap=200, joint=joint)
    every = cs.enumerate_all(spec, cap=200)
    _assert_tensor_matches_oracle(spec, every)
    _assert_tensor_matches_oracle(spec, cs.drop_act_on_zero(spec, every))
    subset = every[gen.permutation(len(every))[: int(gen.integers(1, len(every) + 1))]]
    _assert_tensor_matches_oracle(spec, subset)
    _assert_tensor_matches_oracle(spec, [every[int(gen.integers(0, len(every)))].tolist()])
    _assert_tensor_matches_oracle(spec, every[:0])
    # the other users' columns fixed at one row: a product with |R| = 1 < |A_rest|
    last_maps = strategy.user_map_counts(spec)[-1]
    _assert_tensor_matches_oracle(spec, every[:last_maps])
    if spec.n_users > 1:
        assert not _folds(spec, every[:last_maps])
    for rows in _near_products(spec, gen, every).values():
        _assert_tensor_matches_oracle(spec, rows)
        if not _is_product(rows, spec.event_sizes[-1]):
            assert not _folds(spec, rows)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), joint=st.booleans())
def test_enumerated_sets_fold_in_the_last_user(seed, joint):
    spec = random_spec(np.random.default_rng(seed), max_users=3, strategy_cap=200, joint=joint)
    every = cs.enumerate_all(spec, cap=200)
    counts = strategy.user_map_counts(spec)
    sets = [
        (every, counts),
        (cs.enumerate_nondecreasing(spec, cap=200), strategy.user_map_counts(spec, monotone=True)),
        # each user keeps the maps that take action 0 at event 0
        (cs.drop_act_on_zero(spec, every), [c // a for c, a in zip(counts, spec.action_sizes)]),
    ]
    for rows, counts in sets:
        assert len(rows) == np.prod(counts)
        assert _folds(spec, rows) == _fold_fits(spec, len(rows) // counts[-1])


def test_near_products_take_todays_path():
    # 3 users, (2, 3, 2) actions, (2, 1, 2) events, K = 1: 4 x 3 x 4 = 48 strategies
    spec = cs.ProblemSpec(
        action_sizes=(2, 3, 2),
        event_sizes=(2, 1, 2),
        distribution=cs.ProductDistribution((np.full(2, 0.5), np.ones(1), np.full(2, 0.5))),
        penalties=(cs.FullTable(np.random.default_rng(7).uniform(-1.0, 1.0, (4, 12))), cs.PowerPerUser(1)),
        constraints=(0.5,),
    )
    every = cs.enumerate_all(spec)
    assert _fold_fits(spec, 12) and _folds(spec, every)
    for name, rows in _near_products(spec, np.random.default_rng(3), every).items():
        assert not _is_product(rows, 2), name
        assert not _folds(spec, rows), name
        _assert_tensor_matches_oracle(spec, rows)
    # swapped last-user maps in every run keep a product, in another order
    reordered = every.reshape(12, 4, -1)[:, ::-1].reshape(48, -1)
    assert _folds(spec, reordered)
    _assert_tensor_matches_oracle(spec, reordered)


def test_event_penalties_match_oracle_on_fixtures(two_sensor):
    spec = fixtures.counterexample_spec()  # K = 0: one penalty column
    assert spec.n_constraints == 0
    _assert_tensor_matches_oracle(spec, cs.enumerate_all(spec))
    spec, strategies = two_sensor
    correlated = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=cs.JointDistribution(np.array([[0.35, 0.05], [0.05, 0.55]])),
        penalties=spec.penalties,
        constraints=spec.constraints,
    )
    _assert_tensor_matches_oracle(correlated, cs.enumerate_all(correlated))
    _assert_tensor_matches_oracle(spec, strategies)


def test_event_penalties_gather_each_strategys_joint_action(two_sensor):
    # a penalty whose entry at (event, joint action) is the joint action reads back the index
    spec, strategies = two_sensor
    actions = cs.ProblemSpec(
        action_sizes=spec.action_sizes,
        event_sizes=spec.event_sizes,
        distribution=spec.distribution,
        penalties=(cs.FullTable(np.tile(np.arange(spec.n_actions), (spec.n_events, 1))),),
        constraints=(),
    )
    for fold_any_size in (False, True):
        tensor = _event_penalties(actions, strategies, fold_any_size)
        for i, s in enumerate(strategies):
            for wf in range(spec.n_events):
                omega = tuple(np.unravel_index(wf, spec.event_sizes))
                af = np.ravel_multi_index(_actions(spec, s, omega), spec.action_sizes)
                assert tensor[wf, i, 0] == af


def test_event_penalties_index_of_a_non_product_is_one_piece():
    # 3 users x 2 actions x 4 events, K = 1: the 4096 strategies with one row dropped
    spec = cs.ProblemSpec(
        action_sizes=(2, 2, 2),
        event_sizes=(4, 4, 4),
        distribution=cs.ProductDistribution((np.full(4, 0.25),) * 3),
        penalties=(cs.FullTable(np.random.default_rng(19).uniform(-1.0, 1.0, (64, 8))), cs.PowerPerUser(0)),
        constraints=(0.5,),
    )
    strategies = np.delete(cs.enumerate_all(spec), 1000, axis=0)
    m = len(strategies)
    assert spec.n_events * m > strategy.ONE_BLOCK_ENTRIES  # the fold is tried
    assert not _folds(spec, strategies)  # and refused: 4095 rows are no product
    tracemalloc.start()
    try:
        tensor = strategy_event_penalties(spec, strategies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the last user's part, the sum of the parts before it and the whole (n_events, M) index,
    # plus room for the expanded penalty tables
    last = spec.event_sizes[-1]
    index_bytes = 8 * m * (last + spec.n_events // last + spec.n_events)
    tables_bytes = 8 * (spec.n_constraints + 1) * spec.n_events * spec.n_actions
    assert peak - tensor.nbytes <= index_bytes + 4 * tables_bytes


def test_event_penalties_of_a_product_fold_the_last_user_into_the_table():
    # the same 3 users x 2 actions x 4 events spec: 4096 = 256 x 16 strategies
    spec = cs.ProblemSpec(
        action_sizes=(2, 2, 2),
        event_sizes=(4, 4, 4),
        distribution=cs.ProductDistribution((np.full(4, 0.25),) * 3),
        penalties=(cs.FullTable(np.random.default_rng(19).uniform(-1.0, 1.0, (64, 8))), cs.PowerPerUser(0)),
        constraints=(0.5,),
    )
    strategies = cs.enumerate_all(spec)
    last, k1 = strategy.user_map_counts(spec)[-1], spec.n_constraints + 1
    rest = len(strategies) // last  # rows of users 0..N-2
    assert spec.n_events * len(strategies) > strategy.ONE_BLOCK_ENTRIES  # past one block: folded
    assert spec.n_events * rest <= strategy.ONE_BLOCK_ENTRIES  # the folded index is one piece
    tracemalloc.start()
    try:
        tensor = strategy_event_penalties(spec, strategies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the folded index: the last user's part, the sum of the parts before it and the whole
    # (n_events, |R|) index
    w_last = spec.event_sizes[-1]
    index_bytes = 8 * rest * (w_last + spec.n_events // w_last + spec.n_events)
    folded_table_bytes = 8 * spec.n_events * (spec.n_actions // spec.action_sizes[-1]) * last * k1
    tables_bytes = 8 * k1 * spec.n_events * spec.n_actions
    assert peak - tensor.nbytes <= index_bytes + folded_table_bytes + 4 * tables_bytes
    assert np.array_equal(tensor, oracles.strategy_event_penalties(spec, strategies))


def test_three_sensor_event_penalties_bytes_are_pinned(three_sensor):
    # the workload's shape, folded and gathered in one piece, past every per-entry oracle test
    spec, strategies = three_sensor
    with mock.patch.object(strategy, "_fold_last_user", wraps=strategy._fold_last_user) as fold:
        tensor = strategy_event_penalties(spec, strategies)
    assert fold.called  # 100 x 10 strategies: a product
    assert tensor.shape == (1000, 1000, 4)
    digest = hashlib.sha256(tensor.tobytes()).hexdigest()
    assert digest == "d963e726f2eb225801fc35279570f70f924917c90cc7b768fd5381feac3fdc0a"
