import fcntl
import importlib.util
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
        return (seed, side) != (12, "change"), {"wall_s": 1.0 if side == "parent" else 0.5}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    code = bench_pairs.main(["--base", "HEAD", "--workload", "w", "--pairs", "3", "--seed", "10"])
    assert code == 1
    assert calls == [("parent", 10), ("change", 10), ("change", 11), ("parent", 11),
                     ("parent", 12), ("change", 12)]
    assert "change lower in 3/3 pairs" in capsys.readouterr().out


def test_second_copy_is_refused(bench_pairs, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran while locked"))
    with open(bench_pairs.LOCK, "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code = bench_pairs.main(["--base", "HEAD", "--workload", "w", "--seed", "1"])
    assert code == 2
    assert "another bench_pairs run holds" in capsys.readouterr().err
