import fcntl
import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "LOCK", tmp_path / "bench.lock")
    monkeypatch.setattr(module, "export", lambda rev, dest: None)
    return module


def test_summarize_quartiles_and_wins(bench_pairs):
    parent = [{"wall_s": v} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"wall_s": v} for v in (0.5, 2.5, 2.0, 4.0, 1.0)]
    [(name, a, b, wins, n, all_below)] = bench_pairs.summarize(parent, change)
    assert name == "wall_s" and n == 5
    assert np.array_equal(a, [2.0, 3.0, 4.0])
    assert np.array_equal(b, [1.0, 2.0, 2.5])
    assert wins == 3  # ties count for neither side
    assert not all_below  # the change's 4.0 is not below the parent's 1.0
    [(*_, all_below)] = bench_pairs.summarize(parent, [{"wall_s": 0.9}] * 5)
    assert all_below


def test_summarize_skips_pairs_with_a_failed_run(bench_pairs):
    parent = [{"wall_s": 1.0}, {}, {"wall_s": 3.0}]
    change = [{"wall_s": 2.0}, {"wall_s": 0.1}, {"wall_s": 1.0}]
    [(_, a, _, wins, n, all_below)] = bench_pairs.summarize(parent, change)
    assert n == 2 and wins == 1 and a[1] == 2.0
    assert not all_below  # the failed pair's 0.1 takes no part


def test_pairs_alternate_and_a_failed_check_exits_1(bench_pairs, monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "change" if checkout == bench_pairs.ROOT else "parent"
        calls.append((side, seed))
        ok = (seed, side) != (12, "change")
        return ok, {"wall_s": 1.0 if side == "parent" else 0.5}, 7 if side == "parent" else 11, (1 - ok, 4)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    code = bench_pairs.main(["--base", "HEAD", "--workload", "w", "--pairs", "3", "--seed", "10"])
    assert code == 1
    assert calls == [("parent", 10), ("change", 10), ("change", 11), ("parent", 11),
                     ("parent", 12), ("change", 12)]
    out = capsys.readouterr().out
    assert "pair 0 seed 10 parent: ok iterations=7 wall_s=1" in out
    assert "pair 2 seed 12 change: FAILED iterations=11 wall_s=0.5" in out
    assert "  iterations: 7 [7, 7] -> 11 [11, 11]" in out
    assert "  failed/attempted operations: 0/12 (0) -> 1/12 (0.0833)" in out
    # three pairs are too few to claim a gain, however clear
    assert ("change lower in 3/3 pairs; median gap 0.5 vs parent IQR 0; "
            "claim rule not met (pairs 3 < 10)") in out


def test_ten_pairs_report_the_claim_rule(bench_pairs, monkeypatch, capsys):
    parent = iter(np.linspace(1.0, 1.9, 10))

    def fake_run(checkout, workload, seed, seconds):
        if checkout == bench_pairs.ROOT:
            return True, {"setup_s": 0.5, "wall_s": 2.0}, 20, (0, 20)
        return True, {"setup_s": next(parent), "wall_s": 1.0}, 10, (0, 10)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "  iterations: 10 [10, 10] -> 20 [20, 20]" in out
    # the parent's set-up IQR exceeds 25% of its median, but every change run reads below
    assert ("change lower in 10/10 pairs; median gap 0.95 vs parent IQR 0.45; claim rule met; "
            "bound 25%: within bound") in out
    assert ("change lower in 0/10 pairs; median gap -1 vs parent IQR 0; claim rule not met "
            "(lower in 0/10 < 9/10, gap -1 <= IQR 0); bound 25%: worse past bound") in out


@pytest.mark.parametrize("parent_iterations,change_iterations,noted", [
    (10, 19, False),
    (10, 20, True),  # a median of SETUP_SAMPLES iterations on either side
    (25, 10, True),
])
def test_setup_s_is_flagged_once_iterations_reach_the_warm_samples(
    bench_pairs, monkeypatch, capsys, parent_iterations, change_iterations, noted
):
    def fake_run(checkout, workload, seed, seconds):
        if checkout == bench_pairs.ROOT:
            return True, {"setup_s": 0.5, "wall_s": 1.0}, change_iterations, (0, change_iterations)
        return True, {"setup_s": 1.0, "wall_s": 1.0}, parent_iterations, (0, parent_iterations)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w", "--pairs", "2", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    setup = next(i for i, line in enumerate(lines) if line.startswith("  setup_s: "))
    note = (f"    note: a median of {max(parent_iterations, change_iterations)} iterations is at least "
            "the 20 warm set-ups timed before the loop, so setup_s comes mostly from per-iteration "
            "set-ups, which run after the iteration's memory sweep")
    assert (lines[setup + 1] == note) is noted
    assert sum(line.startswith("    note:") for line in lines) == noted


def test_setup_samples_is_read_from_the_worker(bench_pairs):
    worker = (bench_pairs.ROOT / "perfbench" / "worker.py").read_text()
    assert "\nSETUP_SAMPLES = 20\n" in worker
    assert bench_pairs.setup_samples() == 20


def test_several_workloads_run_in_turn_with_a_block_each(bench_pairs, monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "change" if checkout == bench_pairs.ROOT else "parent"
        calls.append((workload, side, seed))
        ok = (workload, side) != ("a", "change")  # one workload failing stops no other
        wall = {"a": 1.0, "b": 4.0}[workload] * (0.5 if side == "change" else 1.0)
        return ok, {"wall_s": wall}, 3, (0, 3)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    code = bench_pairs.main(["--base", "HEAD", "--workload", "a", "b", "--pairs", "2", "--seed", "5"])
    assert code == 1
    assert calls == [("a", "parent", 5), ("a", "change", 5), ("a", "change", 6), ("a", "parent", 6),
                     ("b", "parent", 5), ("b", "change", 5), ("b", "change", 6), ("b", "parent", 6)]
    out = capsys.readouterr().out
    # each workload's summary block follows its own pairs, before the next workload starts
    a_summary = out.index("a: parent HEAD -> working tree")
    b_first = out.index("pair 0 seed 5 parent: ok iterations=3 wall_s=4")
    b_summary = out.index("b: parent HEAD -> working tree")
    assert a_summary < b_first < b_summary
    assert "  wall_s: 1 [1, 1] -> 0.5 [0.5, 0.5]; change lower in 2/2 pairs" in out[a_summary:b_first]
    assert "  wall_s: 4 [4, 4] -> 2 [2, 2]; change lower in 2/2 pairs" in out[b_summary:]
    assert out.count("  iterations: 3 [3, 3] -> 3 [3, 3]") == 2


@pytest.mark.parametrize(
    "wins,pairs,change_median,met",
    [
        (9, 10, 0.25, True),
        (10, 10, 0.25, True),
        (8, 10, 0.25, False),  # fewer than nine tenths
        (18, 20, 0.25, True),
        (17, 20, 0.25, False),
        (3, 3, 0.25, False),  # fewer than ten pairs
        (10, 10, 0.5, False),  # the gap equals the parent's IQR
        (10, 10, 1.5, False),  # the change reads higher
    ],
)
def test_claim_rule(bench_pairs, wins, pairs, change_median, met):
    parent = np.array([0.75, 1.0, 1.25])  # IQR 0.5
    change = np.array([change_median - 0.125, change_median, change_median + 0.125])
    assert (not bench_pairs.claim_rule_failures(parent, change, wins, pairs)) is met


@pytest.mark.parametrize(
    "wins,pairs,change_median,failures",
    [
        (8, 8, 0.25, ["pairs 8 < 10"]),  # lower in every pair and past the IQR, but too few
        (8, 10, 0.25, ["lower in 8/10 < 9/10"]),
        (10, 10, 0.5, ["gap 0.5 <= IQR 0.5"]),
        (2, 3, 1.5, ["pairs 3 < 10", "lower in 2/3 < 9/10", "gap -0.5 <= IQR 0.5"]),
    ],
)
def test_claim_rule_names_the_conditions_that_failed(bench_pairs, wins, pairs, change_median, failures):
    parent = np.array([0.75, 1.0, 1.25])  # IQR 0.5
    change = np.array([change_median - 0.125, change_median, change_median + 0.125])
    assert bench_pairs.claim_rule_failures(parent, change, wins, pairs) == failures


def test_summary_prints_the_failed_claim_conditions(bench_pairs, monkeypatch, capsys):
    # eight clear pairs: lower in 8/8 with a gap past the IQR, short only of MIN_PAIRS
    parent = iter(np.linspace(1.0, 1.7, 8))
    monkeypatch.setattr(
        bench_pairs, "run_once",
        lambda checkout, *a: (True, {"wall_s": 0.5 if checkout == bench_pairs.ROOT else next(parent)}, 5, (0, 5)),
    )
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w", "--pairs", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert ("  wall_s: 1.35 [1.175, 1.525] -> 0.5 [0.5, 0.5]; change lower in 8/8 pairs; median gap 0.85 "
            "vs parent IQR 0.35; claim rule not met (pairs 8 < 10); bound 25%: within bound") in out


@pytest.mark.parametrize(
    "parent,change_median,all_below,verdict",
    [
        ((0.875, 1.0, 1.125), 1.25, False, "within bound"),  # exactly parent x (1 + bound)
        ((0.875, 1.0, 1.125), 1.26, False, "worse past bound"),
        ((0.875, 1.0, 1.125), 0.5, False, "within bound"),  # the IQR equals bound x median
        ((0.75, 1.0, 1.125), 1.0, False, "unresolved"),
        ((0.75, 1.0, 1.125), 0.5, False, "unresolved"),  # lower, but within the parent's spread
        ((0.75, 1.0, 1.125), 0.5, True, "within bound"),  # every change run below every parent run
        ((0.75, 1.0, 1.125), 2.0, False, "unresolved"),
    ],
)
def test_regression_verdict(bench_pairs, parent, change_median, all_below, verdict):
    change = (change_median - 0.01, change_median, change_median + 0.01)
    assert bench_pairs.regression_verdict(parent, change, 0.25, all_below) == verdict


def test_bounds_are_the_benchmark_end_to_end_bounds(bench_pairs):
    declared = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert bench_pairs.bounds() == {m["name"]: m["bound"] for m in declared}
    assert bench_pairs.bounds()["wall_s"] == 0.25


def test_run_once_reads_the_iteration_count(bench_pairs, monkeypatch):
    stdout = (
        "workload=w seed=1 seconds=1 trace=0 blas_threads=2\n"
        "untraced: iterations=13 operations=13 failed=0 units/iteration=1 (x) instances=1\n"
        "  wall_s = 0.1 s\n"
        '{"correct": true, "attempted": 13, "failed": 0, "metrics": {"wall_s": {"value": 0.1}}}\n'
    )
    done = subprocess.CompletedProcess([], 0, stdout=stdout)
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: done)
    assert bench_pairs.run_once(Path("."), "w", 1, 1.0) == (True, {"wall_s": 0.1}, 13, (0, 13))
    crashed = subprocess.CompletedProcess([], 1, stdout="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: crashed)
    assert bench_pairs.run_once(Path("."), "w", 1, 1.0) == (False, {}, None, (0, 0))


def test_summary_sums_failed_over_attempted_operations_per_side(bench_pairs, monkeypatch, capsys):
    # the runs' result lines carry the counts; a run with no result line adds nothing
    lines = {
        ("parent", 1): '{"correct": true, "attempted": 40, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}',
        ("change", 1): '{"correct": false, "attempted": 50, "failed": 2, "metrics": {"wall_s": {"value": 0.9}}}',
        ("parent", 2): '{"correct": false, "attempted": 60, "failed": 3, "metrics": {"wall_s": {"value": 1.1}}}',
        ("change", 2): "",
    }

    def fake_subprocess(cmd, cwd, **kwargs):
        side = "change" if cwd == bench_pairs.ROOT else "parent"
        stdout = lines[side, int(cmd[cmd.index("--seed") + 1])]
        return subprocess.CompletedProcess(cmd, 0 if '"failed": 0' in stdout else 1, stdout=stdout)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w", "--pairs", "2", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "  failed/attempted operations: 3/100 (0.03) -> 2/50 (0.04)" in out
    assert bench_pairs.failure_share(0, 0) == "0/0 (n/a)"


def test_second_copy_is_refused(bench_pairs, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran while locked"))
    with open(bench_pairs.LOCK, "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code = bench_pairs.main(["--base", "HEAD", "--workload", "w", "--seed", "1"])
    assert code == 2
    assert "another bench_pairs run holds" in capsys.readouterr().err
