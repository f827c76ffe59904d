"""Self-time arithmetic of the span recorder, and the spans of an instrumented run."""

import dataclasses

import numpy as np

import spans as spanlib
import workloads


def columns(*rows):
    """(start, end, parent) arrays from (start, end, parent) rows."""
    return tuple(np.array(col, dtype=np.int64) for col in zip(*rows))


def test_nested_spans_subtract_only_direct_children():
    start, end, parent = columns((0, 100, -1), (10, 60, 0), (20, 50, 1))
    assert spanlib.self_times(start, end, parent).tolist() == [50, 20, 30]
    assert spanlib.root_of(parent).tolist() == [0, 0, 0]


def test_sibling_spans_add_up():
    start, end, parent = columns((0, 100, -1), (0, 10, 0), (10, 35, 0), (90, 100, 0))
    selfs = spanlib.self_times(start, end, parent)
    assert selfs.tolist() == [55, 10, 25, 10]
    assert spanlib.children_within_parent(start, end, parent, selfs)


def test_roots_of_several_trees():
    start, end, parent = columns(
        (0, 10, -1), (1, 9, 0), (2, 8, 1), (3, 7, 2), (20, 30, -1), (21, 29, 4)
    )
    assert spanlib.root_of(parent).tolist() == [0, 0, 0, 0, 4, 4]


def test_children_exceeding_parent_are_detected():
    start, end, parent = columns((0, 10, -1), (0, 8, 0), (0, 8, 0))
    # self times that break the invariant must be caught
    assert not spanlib.children_within_parent(start, end, parent, np.array([0, 8, 8]))


def test_recorder_records_nested_calls_and_counts():
    recorder = spanlib.SpanRecorder()

    def inner(x):
        return [x] * 3

    wrapped_inner = recorder.wrap("inner", inner, lambda args, result: {"n": len(result)})

    def outer():
        return wrapped_inner(1) + wrapped_inner(2)

    wrapped_outer = recorder.wrap("outer", outer)
    assert wrapped_outer() == [1, 1, 1, 2, 2, 2]
    assert len(recorder) == 0  # an inactive recorder records nothing

    recorder.active = True
    root = recorder.open("op")
    wrapped_outer()
    recorder.close(root)
    start, end, parent = recorder.arrays()
    assert recorder.names == ["op", "outer", "inner", "inner"]
    assert parent.tolist() == [-1, 0, 1, 1]
    assert recorder.counts == {2: {"n": 3}, 3: {"n": 3}}
    selfs = spanlib.self_times(start, end, parent)
    assert np.all(selfs >= 0)
    assert selfs.sum() == end[0] - start[0]
    assert spanlib.children_within_parent(start, end, parent, selfs)


def test_instrumented_episode_records_layer_spans():
    recorder = spanlib.SpanRecorder()
    spanlib.instrument(recorder)
    wl = workloads.EpisodeApprox3Sensor()
    recorder.active = True
    root = recorder.open("setup")
    config = dataclasses.replace(wl.setup(0, 0), horizon=50)
    recorder.close(root)
    root = recorder.open("op")
    wl.run(config)
    recorder.close(root)
    recorder.active = False

    start, end, parent = recorder.arrays()
    names = recorder.names
    assert names.count("online.estimator_push") == 50 - config.dpp.delay
    for layer in ("problem.validate", "strategy.enumerate", "strategy.event_penalties",
                  "simulator.episode", "problem.sample_events", "problem.penalty_tables"):
        assert layer in names
    episode = names.index("simulator.episode")
    assert parent[episode] == root and recorder.counts[episode] == {"slots": 50}
    selfs = spanlib.self_times(start, end, parent)
    assert spanlib.children_within_parent(start, end, parent, selfs)
