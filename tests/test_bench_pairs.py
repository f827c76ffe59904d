import fcntl
import importlib.util
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
    [(name, a, b, wins, n)] = bench_pairs.summarize(parent, change)
    assert name == "wall_s" and n == 5
    assert np.array_equal(a, [2.0, 3.0, 4.0])
    assert np.array_equal(b, [1.0, 2.0, 2.5])
    assert wins == 3  # ties count for neither side


def test_summarize_skips_pairs_with_a_failed_run(bench_pairs):
    parent = [{"wall_s": 1.0}, {}, {"wall_s": 3.0}]
    change = [{"wall_s": 2.0}, {"wall_s": 0.1}, {"wall_s": 1.0}]
    [(_, a, _, wins, n)] = bench_pairs.summarize(parent, change)
    assert n == 2 and wins == 1 and a[1] == 2.0


def test_pairs_alternate_and_a_failed_check_exits_1(bench_pairs, monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "change" if checkout == bench_pairs.ROOT else "parent"
        calls.append((side, seed))
        ok = (seed, side) != (12, "change")
        return ok, {"wall_s": 1.0 if side == "parent" else 0.5}, 7 if side == "parent" else 11

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    code = bench_pairs.main(["--base", "HEAD", "--workload", "w", "--pairs", "3", "--seed", "10"])
    assert code == 1
    assert calls == [("parent", 10), ("change", 10), ("change", 11), ("parent", 11),
                     ("parent", 12), ("change", 12)]
    out = capsys.readouterr().out
    assert "pair 0 seed 10 parent: ok iterations=7 wall_s=1" in out
    assert "pair 2 seed 12 change: FAILED iterations=11 wall_s=0.5" in out
    assert "  iterations: 7 [7, 7] -> 11 [11, 11]" in out
    # three pairs are too few to claim a gain, however clear
    assert "change lower in 3/3 pairs; median gap 0.5 vs parent IQR 0; claim rule not met" in out


def test_ten_pairs_report_the_claim_rule(bench_pairs, monkeypatch, capsys):
    parent = iter(np.linspace(1.0, 1.9, 10))

    def fake_run(checkout, workload, seed, seconds):
        if checkout == bench_pairs.ROOT:
            return True, {"setup_s": 0.5, "wall_s": 2.0}, 20
        return True, {"setup_s": next(parent), "wall_s": 1.0}, 10

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "  iterations: 10 [10, 10] -> 20 [20, 20]" in out
    assert "change lower in 10/10 pairs; median gap 0.95 vs parent IQR 0.45; claim rule met" in out
    assert "change lower in 0/10 pairs; median gap -1 vs parent IQR 0; claim rule not met" in out


def test_several_workloads_run_in_turn_with_a_block_each(bench_pairs, monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        side = "change" if checkout == bench_pairs.ROOT else "parent"
        calls.append((workload, side, seed))
        ok = (workload, side) != ("a", "change")  # one workload failing stops no other
        wall = {"a": 1.0, "b": 4.0}[workload] * (0.5 if side == "change" else 1.0)
        return ok, {"wall_s": wall}, 3

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
    assert bench_pairs.claim_rule_met(parent, change, wins, pairs) is met


def test_run_once_reads_the_iteration_count(bench_pairs, monkeypatch):
    stdout = (
        "workload=w seed=1 seconds=1 trace=0 blas_threads=2\n"
        "untraced: iterations=13 operations=13 failed=0 units/iteration=1 (x) instances=1\n"
        "  wall_s = 0.1 s\n"
        '{"correct": true, "attempted": 13, "failed": 0, "metrics": {"wall_s": {"value": 0.1}}}\n'
    )
    done = subprocess.CompletedProcess([], 0, stdout=stdout)
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: done)
    assert bench_pairs.run_once(Path("."), "w", 1, 1.0) == (True, {"wall_s": 0.1}, 13)
    crashed = subprocess.CompletedProcess([], 1, stdout="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: crashed)
    assert bench_pairs.run_once(Path("."), "w", 1, 1.0) == (False, {}, None)


def test_second_copy_is_refused(bench_pairs, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran while locked"))
    with open(bench_pairs.LOCK, "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code = bench_pairs.main(["--base", "HEAD", "--workload", "w", "--seed", "1"])
    assert code == 2
    assert "another bench_pairs run holds" in capsys.readouterr().err
