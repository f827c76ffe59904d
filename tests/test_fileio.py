import dataclasses
import hashlib
import json
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import corrsched as cs
from corrsched import fileio, fixtures, simplex
from corrsched.problem import penalty_tables

from specgen import random_family_spec, random_spec

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def _specs_equal(a, b):
    if (a.action_sizes, a.event_sizes, a.constraints) != (
        b.action_sizes,
        b.event_sizes,
        b.constraints,
    ):
        return False
    pa = cs.problem.flat_event_probabilities(a.distribution, a.event_sizes)
    pb = cs.problem.flat_event_probabilities(b.distribution, b.event_sizes)
    return np.array_equal(pa, pb) and np.array_equal(penalty_tables(a), penalty_tables(b))


@pytest.mark.parametrize(
    "builder", [fixtures.two_sensor_spec, fixtures.three_sensor_spec, fixtures.counterexample_spec]
)
def test_spec_round_trip(tmp_path, builder):
    spec = builder()
    path = tmp_path / "spec.json"
    fileio.save_spec(spec, path)
    assert _specs_equal(fileio.load_spec(path), spec)


def test_random_spec_round_trip(tmp_path, rng):
    path = tmp_path / "spec.json"
    for spec in (random_spec(rng), random_family_spec(rng)):
        fileio.save_spec(spec, path)
        assert _specs_equal(fileio.load_spec(path), spec)


@pytest.mark.parametrize(
    "name,builder",
    [
        ("two_sensor.json", fixtures.two_sensor_spec),
        ("three_sensor.json", fixtures.three_sensor_spec),
        ("counterexample.json", fixtures.counterexample_spec),
    ],
)
def test_shipped_fixture_files_match_builders(name, builder):
    spec = fileio.load_spec(FIXDIR / name)
    assert _specs_equal(spec, builder())
    assert cs.validate_spec(spec).ok


def test_shipped_phases_file():
    spec = fileio.load_spec(FIXDIR / "three_sensor.json")
    phases = fileio.load_phases(FIXDIR / "adaptation_phases.json", spec)
    assert [(p.start, p.end) for p in phases] == [(0, 4000), (4000, 8000), (8000, 12000)]
    built = fixtures.adaptation_phases()
    for got, want in zip(phases, built):
        pa = cs.problem.flat_event_probabilities(got.distribution, spec.event_sizes)
        pb = cs.problem.flat_event_probabilities(want.distribution, spec.event_sizes)
        assert np.allclose(pa, pb, atol=1e-15)


def test_users_field_mismatch_rejected(tmp_path):
    obj = fileio.spec_to_dict(fixtures.two_sensor_spec())
    obj["users"] = 3
    with pytest.raises(ValueError):
        fileio.spec_from_dict(obj)


def test_spec_file_bytes_pinned():
    # SHA-256 of the spec JSON written when each penalty kind had its own
    # hand-written schema in fileio: the three fixtures, then 20 seeded specs
    # that mix every family, a WeightedSum nested in a WeightedSum included
    specs = [fixtures.two_sensor_spec(), fixtures.three_sensor_spec(), fixtures.counterexample_spec()]
    specs += [random_family_spec(np.random.default_rng(seed)) for seed in range(20)]
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(json.dumps(fileio.spec_to_dict(spec), indent=2).encode())
    assert digest.hexdigest() == "4721a1dbc52fb52339dd4accd29eefcff63749c1913699751180aeb7a2c2bfc0"


def test_penalty_kinds_cover_every_family():
    kinds = cs.problem.PENALTY_KINDS
    families = typing.get_args(cs.problem.PenaltyFn)
    assert len(kinds) == len(families)
    assert all(kinds[cls.kind] is cls for cls in families)


def test_unknown_penalty_kind_rejected():
    obj = fileio.spec_to_dict(fixtures.two_sensor_spec())
    obj["penalties"][0]["kind"] = "mystery"
    with pytest.raises(ValueError):
        fileio.spec_from_dict(obj)


def test_policy_file(tmp_path, two_sensor):
    spec, strategies = two_sensor
    policy = cs.solve_distributed_lp(spec, strategies)
    path = tmp_path / "policy.json"
    fileio.save_policy(spec, policy, path)
    obj = json.loads(path.read_text())
    assert obj["utility"] == pytest.approx(23 / 48, abs=1e-9)
    assert len(obj["support"]) <= 3
    assert sum(s["theta"] for s in obj["support"]) == pytest.approx(1.0, abs=1e-9)


def test_policy_file_golden_bytes(tmp_path, two_sensor):
    # SHA-256 of the two-sensor policy file written before strategies became
    # int rows; the maps are still nested per-user lists, byte for byte
    spec, strategies = two_sensor
    path = tmp_path / "policy.json"
    fileio.save_policy(spec, cs.solve_distributed_lp(spec, strategies), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "e26ffe2225b8e09c2066cff4b9f3c7d256c7c32439342da408d6e43d31bbe2ea"
    support = json.loads(path.read_text())["support"]
    assert [s["maps"] for s in support] == [[[0, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 1], [0, 1]]]


def test_metrics_file_carries_config(tmp_path, two_sensor):
    spec, strategies = two_sensor
    cfg = cs.SimConfig(
        spec=spec,
        dpp=cs.DppConfig(v=5.0, delay=2, mode="exact"),
        horizon=50,
        seed=1,
        strategies=strategies,
    )
    metrics, _ = cs.run_episode(cfg)
    path = tmp_path / "run.metrics"
    fileio.save_metrics(metrics, path, config={"v": 5.0, "delay": 2})
    loaded = fileio.load_run_config(path)
    assert loaded == {"v": 5.0, "delay": 2}


def test_cli_solve_and_compare(tmp_path, capsys):
    from corrsched.cli import main

    out = tmp_path / "policy.json"
    assert main(["solve", "--spec", str(FIXDIR / "two_sensor.json"), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "utility: 0.479166666667" in text
    assert out.exists()

    assert main(["compare", "--spec", str(FIXDIR / "two_sensor.json")]) == 0
    text = capsys.readouterr().out
    assert "0.444444" in text and "0.479167" in text and "0.500000" in text

    assert main(["counterexample"]) == 0
    text = capsys.readouterr().out
    assert "1.0" in text and "0.5" in text


def test_cli_simulate_and_analyze(tmp_path, capsys):
    from corrsched.cli import build_parser, main

    prefix = tmp_path / "run"
    argv = [
        "simulate",
        "--spec", str(FIXDIR / "two_sensor.json"),
        "--v", "50",
        "--delay", "0",
        "--slots", "5000",
        "--seed", "3",
        "--mode", "exact",
        "--stride", "1",
        "--out", str(prefix),
    ]
    rc = main(argv)
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "run.trace.csv").exists()
    # the metrics file echoes every parsed option but the output prefix
    echo = json.loads((tmp_path / "run.metrics").read_text())["config"]
    parsed = vars(build_parser().parse_args(argv))
    assert echo == {k: v for k, v in parsed.items() if k not in ("command", "func", "out")}

    analyze = [
        "analyze",
        "--trace", str(tmp_path / "run.trace.csv"),
        "--spec", str(FIXDIR / "two_sensor.json"),
        "--config", str(tmp_path / "run.metrics"),
    ]
    rc = main(analyze)
    text = capsys.readouterr().out
    assert rc == 0
    assert "performance bound: ok" in text
    assert "queue bound residual" in text
    # earlier versions echoed a --window that the exact run ignored; it audits the same
    fileio.save_json({"config": {**echo, "window": 40}}, tmp_path / "run.metrics")
    assert main(analyze) == 0
    assert capsys.readouterr().out == text


def test_cli_solve_prune_modes(tmp_path, capsys):
    from corrsched.cli import main

    # the two-sensor spec passes the pruning test, so only its 9 monotone
    # strategies are solved over
    spec, out = str(FIXDIR / "two_sensor.json"), str(tmp_path / "policy.json")
    assert main(["solve", "--spec", spec, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "utility: 0.479166666667" in text
    assert "strategies considered: 9" in text
    # the strategy set follows from the spec; there is no option to pick it
    for argv in (["solve", "--spec", spec, "--prune", "off", "--out", out],
                 ["simulate", "--spec", spec, "--v", "1", "--slots", "5", "--seed", "1",
                  "--prune", "auto", "--out", str(tmp_path / "run")]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --prune" in capsys.readouterr().err


def test_cli_simulate_ensemble_with_phases(tmp_path, capsys):
    from corrsched.cli import main

    phases = [
        {"start": 0, "end": 300, "distribution": {"product": [[0.25, 0.75], [0.5, 0.5]]}},
        {"start": 300, "end": 600, "distribution": {"product": [[0.75, 0.25], [0.5, 0.5]]}},
    ]
    fileio.save_json({"phases": phases}, tmp_path / "phases.json")
    prefix = tmp_path / "ens"
    rc = main(
        [
            "simulate",
            "--spec", str(FIXDIR / "two_sensor.json"),
            "--v", "10",
            "--slots", "600",
            "--seed", "2",
            "--runs", "5",
            "--phases", str(tmp_path / "phases.json"),
            "--out", str(prefix),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "ens.metrics").exists()
    trace = np.loadtxt(tmp_path / "ens.trace.csv", delimiter=",", skiprows=1)
    assert trace.shape == (600, 1 + 1 + 2 + 1)  # t, mean_u, mean_p x2, mean_qnorm
    # SHA-256 of the CSV written before write_ensemble served the CLI and scripts
    digest = hashlib.sha256((tmp_path / "ens.trace.csv").read_bytes()).hexdigest()
    assert digest == "59e318f350d355eca0eeee31d7a871b2953bd9356e9e5b658c1c4c002edf61db"
    obj = json.loads((tmp_path / "ens.metrics").read_text())
    assert obj["runs"] == 5
    assert len(obj["per_run_utility"]) == 5


def test_cli_simulate_separable_mode(tmp_path, capsys, rng):
    # a spec whose penalties split runs the per-user rule without asking for it
    from corrsched.cli import main
    from specgen import random_separable_spec

    spec = random_separable_spec(rng, anchor="pure")
    fileio.save_spec(spec, tmp_path / "sep.json")
    rc = main(
        [
            "simulate",
            "--spec", str(tmp_path / "sep.json"),
            "--v", "3",
            "--slots", "500",
            "--seed", "9",
            "--out", str(tmp_path / "sep"),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    back = cs.read_trace(tmp_path / "sep.trace.csv")
    assert np.all(back.strategy == -1)
    # SHA-256 of the trace that `--mode separable` wrote when it was a mode
    digest = hashlib.sha256((tmp_path / "sep.trace.csv").read_bytes()).hexdigest()
    assert digest == "4e30c8f975676ad2c7e5109afecdfc023c5c79289a0a10b36f204f68aff5c608"


def _cli(capsys, argv) -> tuple[int, str, str]:
    """Run the CLI; return its exit code, standard output and standard error."""
    from corrsched.cli import main

    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _analyze_argv(tmp_path, spec) -> list[str]:
    """Simulate a stride-1 exact run of spec; return the analyze command for it."""
    prefix = str(tmp_path / "run")
    argv = ["simulate", "--spec", spec, "--v", "20", "--delay", "2", "--slots", "1500", "--seed", "4",
            "--stride", "1", "--out", prefix]
    from corrsched.cli import main

    assert main(argv) == 0
    return ["analyze", "--trace", f"{prefix}.trace.csv", "--spec", spec, "--config", f"{prefix}.metrics"]


# SHA-256 of solve's policy file, compare's (code, stdout, stderr) and
# analyze's stdout on each fixture, as written before the offline model
CLI_SHA = {
    "two_sensor": (
        "f80a5c5a90b1eff476a6921ea239708b41533b859c416468c0d3d7377c95c641",
        (0, "3197f9a6318cb50ac7e378f359ed89e1697bcf75d44d856d11685a6bda73dbe4", ""),
        "db1653bb813def02a2edebec1628cfd74ef59a0598170ff00e517a9bc9f08ea6",
    ),
    "three_sensor": (
        "2053d2df0d712756d6f587dd09d556f0aa89fb35c54dd06805534f0ab3f2c9e2",
        (2, "", "9037fa975425427796837a22c18a19f7029be24385fe61c88e9b0c5dc752b2a1"),
        "c52829a38a50dc40df6ac0c3341c3be3c05a8103b907ccea2f8ef10953900e9c",
    ),
    "counterexample": (
        "6115434215ed1ab494c8807708d8751479c0746cd7edbac1ddeaee78b2df006e",
        (0, "9bcf4d95e9d8aadd4cb9d372625876880defedf11b479b821ea6109bc036ecda", ""),
        "457daa1476b0764e3445dfc3bcb96896c2d6f823c860c5e901e960a69eb651c4",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_SHA))
def test_cli_outputs_match_their_digests(tmp_path, capsys, name):
    spec = str(FIXDIR / f"{name}.json")
    policy_sha, compare_sha, analyze_sha = CLI_SHA[name]
    policy = tmp_path / "policy.json"
    assert _cli(capsys, ["solve", "--spec", spec, "--out", str(policy)])[0] == 0
    assert _sha(policy.read_bytes()) == policy_sha
    code, out, err = _cli(capsys, ["compare", "--spec", spec])
    assert (code, out and _sha(out), err and _sha(err)) == compare_sha
    analyze = _analyze_argv(tmp_path, spec)
    capsys.readouterr()
    code, out, _ = _cli(capsys, analyze)
    assert code == 0 and _sha(out) == analyze_sha


@pytest.mark.parametrize("name", ["two_sensor", "counterexample"])
@pytest.mark.parametrize("command", ["solve", "analyze", "compare", "simulate"])
def test_cli_command_builds_each_event_tensor_once(tmp_path, capsys, count_calls, name, command):
    spec = str(FIXDIR / f"{name}.json")
    if command == "analyze":
        argv = _analyze_argv(tmp_path, spec)  # its simulate runs before the count starts
    else:
        argv = {
            "solve": ["solve", "--spec", spec, "--out", str(tmp_path / "policy.json")],
            "compare": ["compare", "--spec", spec],
            "simulate": ["simulate", "--spec", spec, "--v", "20", "--slots", "50", "--seed", "4",
                         "--out", str(tmp_path / "run")],
        }[command]
    calls = count_calls("strategy_event_penalties")
    assert _cli(capsys, argv)[0] == 0
    sets = [np.asarray(strategies).tobytes() for _, strategies, *_ in calls]
    assert len(set(sets)) == len(sets)  # no strategy set's tensor is built twice
    # the two-sensor spec is pruned while compare's probe grid is every
    # strategy, so compare builds one tensor for each of the two sets
    assert len(calls) == (2 if (name, command) == ("two_sensor", "compare") else 1)


def test_read_trace_missing_file(tmp_path):
    with pytest.raises(OSError, match="nothere"):
        cs.read_trace(tmp_path / "nothere.csv")


def _cli_error(capsys, argv) -> str:
    """Run the CLI expecting an input error; return its single stderr line."""
    from corrsched.cli import main

    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("corrsched: error: ")
    return err


def _spec_file(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_missing_key_is_one_line(tmp_path, capsys):
    obj = fileio.spec_to_dict(fixtures.two_sensor_spec())
    del obj["constraints"]
    spec = _spec_file(tmp_path, obj)
    err = _cli_error(capsys, ["solve", "--spec", spec, "--out", str(tmp_path / "x.json")])
    assert "missing key 'constraints'" in err


@pytest.mark.parametrize(
    "field,damage",
    [
        ("penalties", lambda spec, phases: spec["penalties"][0].pop("kind")),
        ("penalties", lambda spec, phases: spec["penalties"][1].update(params={})),
        ("penalties", lambda spec, phases: spec["penalties"][1]["params"].update(watts=1.0)),
        ("phases", lambda spec, phases: phases["phases"][0].pop("start")),
        ("phases", lambda spec, phases: phases["phases"][0].pop("end")),
        ("phases", lambda spec, phases: phases["phases"][1].pop("distribution")),
    ],
    ids=["no-kind", "no-params", "unknown-param", "no-start", "no-end", "no-distribution"],
)
def test_cli_malformed_nested_entry_is_one_line(tmp_path, capsys, field, damage):
    spec_obj = fileio.spec_to_dict(fixtures.two_sensor_spec())
    dist = spec_obj["distribution"]
    phases_obj = {"phases": [{"start": 0, "end": 3, "distribution": dist},
                             {"start": 3, "end": 5, "distribution": dist}]}
    damage(spec_obj, phases_obj)
    paths = {"penalties": _spec_file(tmp_path, spec_obj),
             "phases": _spec_file(tmp_path, phases_obj, name="phases.json")}
    argv = ["simulate", "--spec", paths["penalties"], "--v", "1", "--slots", "5", "--seed", "1",
            "--phases", paths["phases"], "--out", str(tmp_path / "run")]
    err = _cli_error(capsys, argv)
    assert f"ValueError: {paths[field]}: field {field!r}: " in err


@pytest.mark.parametrize("key", ["start", "end", "distribution"])
def test_cli_phase_entry_missing_key_names_the_entry(tmp_path, capsys, key):
    # the error used to say only "missing key", not which phase lacks it
    dist = {"product": [[0.5, 0.5], [0.5, 0.5]]}
    entries = [{"start": 0, "end": 3, "distribution": dist}, {"start": 3, "end": 5, "distribution": dist}]
    del entries[1][key]
    phases = _spec_file(tmp_path, {"phases": entries}, name="phases.json")
    argv = ["simulate", "--spec", str(FIXDIR / "two_sensor.json"), "--v", "1", "--slots", "5",
            "--seed", "1", "--phases", phases, "--out", str(tmp_path / "run")]
    err = _cli_error(capsys, argv)
    assert f"ValueError: {phases}: field 'phases': phase 1: missing key {key!r}" in err


@pytest.mark.parametrize(
    "dist,problem",
    [
        ({"product": [[0.9, 0.9], [0.5, 0.5]]}, "user 0 marginal not normalized"),
        ({"product": [[0.5, 0.5], [-0.5, 1.5]]}, "user 1 marginal has negative entries"),
        ({"product": [[0.5, 0.5], [0.2, 0.3, 0.5]]}, "user 1 marginal has wrong length"),
        ({"joint": [0.5, -0.25, 0.25, 0.5]}, "joint table has negative entries"),
    ],
    ids=["unnormalized", "negative", "wrong-length", "joint-negative"],
)
def test_cli_invalid_phase_distribution_is_one_line(tmp_path, capsys, dist, problem):
    # these phases used to run and exit 0 with wrong numbers, or fail naming no file
    good = {"product": [[0.5, 0.5], [0.5, 0.5]]}
    phases = _spec_file(tmp_path, {"phases": [{"start": 0, "end": 3, "distribution": good},
                                              {"start": 3, "end": 5, "distribution": dist}]},
                        name="phases.json")
    argv = ["simulate", "--spec", str(FIXDIR / "two_sensor.json"), "--v", "1", "--slots", "5",
            "--seed", "1", "--phases", phases, "--out", str(tmp_path / "run")]
    err = _cli_error(capsys, argv)
    assert f"ValueError: {phases}: phase 1: {problem}" in err
    assert not (tmp_path / "run.metrics").exists()


def test_cli_nan_probability_is_one_line(tmp_path, capsys):
    # a NaN probability used to pass validation: simulate reported utility 0.000000
    obj = fileio.spec_to_dict(fixtures.two_sensor_spec())
    obj["distribution"] = {"product": [[float("nan"), 0.5], [0.5, 0.5]]}
    spec = _spec_file(tmp_path, obj)
    argv = ["simulate", "--spec", spec, "--v", "1", "--slots", "5", "--seed", "1",
            "--out", str(tmp_path / "run")]
    err = _cli_error(capsys, argv)
    assert "ValueError: invalid spec: user 0 marginal has non-finite entries" in err
    assert not (tmp_path / "run.metrics").exists()


def test_cli_stride_with_runs_is_one_line(tmp_path, capsys):
    # an ensemble keeps every slot's mean; the stride used to be dropped, yet echoed
    argv = ["simulate", "--spec", str(FIXDIR / "two_sensor.json"), "--v", "1", "--slots", "300",
            "--seed", "1", "--runs", "3", "--stride", "7", "--out", str(tmp_path / "run")]
    err = _cli_error(capsys, argv)
    assert "ValueError: --stride applies to a single run's trace, not to --runs > 1" in err
    assert not list(tmp_path.iterdir())


def test_cli_infeasible_is_one_line(tmp_path, capsys):
    obj = fileio.spec_to_dict(fixtures.two_sensor_spec())
    obj["constraints"] = [-1.0, -1.0]  # power can never go negative
    spec = _spec_file(tmp_path, obj)
    err = _cli_error(capsys, ["solve", "--spec", spec, "--out", str(tmp_path / "x.json")])
    assert "Infeasible" in err


def test_cli_cap_exceeded_is_one_line(tmp_path, capsys):
    # correlated events rule pruning out, so solve needs all 3^14 strategies
    big = cs.ProblemSpec(
        action_sizes=(3, 3),
        event_sizes=(7, 7),
        distribution=cs.JointDistribution(np.full((7, 7), 1 / 49)),
        penalties=(cs.FullTable(np.zeros((49, 9))),),
        constraints=(),
    )
    spec = _spec_file(tmp_path, fileio.spec_to_dict(big))
    argv = ["solve", "--spec", spec, "--out", str(tmp_path / "x.json")]
    assert "CapExceeded" in _cli_error(capsys, argv)


def test_cli_separable_mode_is_a_usage_error(tmp_path, capsys):
    from corrsched.cli import main

    argv = ["simulate", "--spec", str(FIXDIR / "two_sensor.json"), "--v", "1", "--slots", "5",
            "--seed", "1", "--mode", "separable", "--out", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "argument --mode: invalid choice: 'separable'" in capsys.readouterr().err


def test_cli_window_without_approx_mode_is_one_line(tmp_path, capsys):
    # the window used to be dropped, yet echoed into .metrics as if it had been used
    argv = ["simulate", "--spec", str(FIXDIR / "two_sensor.json"), "--v", "1", "--slots", "5",
            "--seed", "1", "--window", "40", "--out", str(tmp_path / "run")]
    err = _cli_error(capsys, argv)
    assert "ValueError: a window applies only to approx mode, not 'exact'" in err
    assert not (tmp_path / "run.metrics").exists()


@pytest.mark.parametrize("flag,value", [("--runs", "0"), ("--runs", "-2"), ("--stride", "0")])
def test_cli_runs_and_stride_below_one_are_one_line(tmp_path, capsys, flag, value):
    # --runs 0 used to run one episode and echo "runs": 0; --stride 0 recorded every slot
    name = flag.lstrip("-")
    argv = ["simulate", "--spec", str(FIXDIR / "two_sensor.json"), "--v", "1", "--slots", "5",
            "--seed", "1", flag, value, "--out", str(tmp_path / "run")]
    err = _cli_error(capsys, argv)
    assert f"ValueError: {name} must be >= 1, got {value}" in err
    assert not list(tmp_path.iterdir())


def test_cli_bad_files_are_one_line(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert "FileNotFoundError" in _cli_error(
        capsys, ["solve", "--spec", str(tmp_path / "absent.json"), "--out", out]
    )
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert "JSONDecodeError" in _cli_error(capsys, ["solve", "--spec", str(garbled), "--out", out])
    argv = ["simulate", "--spec", str(FIXDIR / "two_sensor.json"), "--v", "1", "--slots", "0",
            "--seed", "1", "--out", str(tmp_path / "run")]
    assert "horizon must be >= 1" in _cli_error(capsys, argv)


def test_cli_invalid_spec_is_one_line(tmp_path, capsys):
    obj = fileio.spec_to_dict(fixtures.two_sensor_spec())
    obj["distribution"] = {"product": [[0.0, 1.0], [0.5, 0.5]]}
    spec = _spec_file(tmp_path, obj)
    err = _cli_error(capsys, ["solve", "--spec", spec, "--out", str(tmp_path / "x.json")])
    assert "ValueError: invalid spec: " in err


_W0, _W1 = np.array([0.0, 1.0]), np.array([0.0, 0.5])


@pytest.mark.parametrize(
    "k,penalty,message",
    [
        (1, cs.PowerPerUser(-1), "user -1 is not in [0, 2)"),
        (2, cs.PowerPerUser(2), "user 2 is not in [0, 2)"),
        (0, cs.MinSumUtilityNeg((_W0,), 1.0),
         "weights must be one vector per user of lengths [2, 2], not [(2,)]"),
        (0, cs.MinSumUtilityNeg((_W0, np.zeros(3)), 1.0),
         "weights must be one vector per user of lengths [2, 2], not [(2,), (3,)]"),
        (0, cs.ProductForm((_W0,), (_W1,)),
         "phis must be one vector per user of lengths [2, 2], not [(2,)]"),
        (0, cs.ProductForm((_W0, _W1), (_W1, _W0, _W1)),
         "psis must be one vector per user of lengths [2, 2], not [(2,), (2,), (2,)]"),
        (0, cs.WeightedSum((1.0,), (cs.PowerPerUser(0), cs.PowerPerUser(1))),
         "1 coefficients for 2 children"),
    ],
    ids=["user-negative", "user-too-large", "weights-short", "weights-long-entry",
         "phis-short", "psis-long", "coefficients-short"],
)
def test_per_user_params_must_fit_the_spec(tmp_path, capsys, k, penalty, message):
    spec = fixtures.two_sensor_spec()
    penalties = list(spec.penalties)
    penalties[k] = penalty
    spec = dataclasses.replace(spec, penalties=tuple(penalties))
    violation = f"penalty {k} cannot be evaluated: {message}"
    assert cs.validate_spec(spec).violations == [violation]
    path = _spec_file(tmp_path, fileio.spec_to_dict(spec))
    err = _cli_error(capsys, ["solve", "--spec", path, "--out", str(tmp_path / "x.json")])
    assert f"ValueError: invalid spec: {violation}\n" in err


def test_cli_spec_not_an_object_is_one_line(tmp_path, capsys):
    spec = _spec_file(tmp_path, [fileio.spec_to_dict(fixtures.two_sensor_spec())])
    err = _cli_error(capsys, ["solve", "--spec", spec, "--out", str(tmp_path / "x.json")])
    assert f"ValueError: {spec}: expected a JSON object, not list" in err


def test_cli_spec_field_of_wrong_shape_is_one_line(tmp_path, capsys):
    obj = fileio.spec_to_dict(fixtures.two_sensor_spec())
    obj["action_sizes"] = 2
    spec = _spec_file(tmp_path, obj)
    err = _cli_error(capsys, ["solve", "--spec", spec, "--out", str(tmp_path / "x.json")])
    assert f"ValueError: {spec}: field 'action_sizes': " in err


def test_cli_phases_not_an_object_is_one_line(tmp_path, capsys):
    phases = _spec_file(tmp_path, [1], name="phases.json")
    argv = ["simulate", "--spec", str(FIXDIR / "two_sensor.json"), "--v", "1", "--slots", "5",
            "--seed", "1", "--phases", phases, "--out", str(tmp_path / "run")]
    err = _cli_error(capsys, argv)
    assert f"ValueError: {phases}: expected a JSON object, not list" in err


def test_cli_run_config_not_an_object_is_one_line(tmp_path, capsys):
    config = _spec_file(tmp_path, [1], name="run.metrics")
    argv = ["analyze", "--trace", str(tmp_path / "run.trace.csv"),
            "--spec", str(FIXDIR / "two_sensor.json"), "--config", config]
    err = _cli_error(capsys, argv)
    assert f"ValueError: {config}: expected a JSON object, not list" in err


@pytest.mark.parametrize(
    "config,field",
    [
        ({"v": [1], "delay": 0}, "v"),
        ({"v": 1.0, "delay": 0, "mode": "approx", "window": "5"}, "window"),
        ({"v": 1.0, "delay": "x"}, "delay"),
        ({"v": 1.0, "delay": 0, "prune": "bogus"}, "prune"),
    ],
)
def test_cli_run_config_field_of_wrong_type_is_one_line(tmp_path, capsys, config, field):
    path = _spec_file(tmp_path, config, name="run.metrics")
    argv = ["analyze", "--trace", str(tmp_path / "run.trace.csv"),
            "--spec", str(FIXDIR / "two_sensor.json"), "--config", path]
    err = _cli_error(capsys, argv)
    assert f"ValueError: {path}: field {field!r}: " in err


def test_cli_run_config_separable_mode_is_one_line(tmp_path, capsys):
    path = _spec_file(tmp_path, {"v": 1.0, "delay": 0, "mode": "separable"}, name="run.metrics")
    argv = ["analyze", "--trace", str(tmp_path / "run.trace.csv"),
            "--spec", str(FIXDIR / "two_sensor.json"), "--config", path]
    err = _cli_error(capsys, argv)
    message = "field 'mode': unknown mode 'separable', not one of exact, approx"
    assert f"ValueError: {path}: {message}" in err


@pytest.mark.parametrize("prune", ["off", "force"])
def test_cli_run_config_on_another_strategy_set_is_one_line(tmp_path, capsys, prune):
    path = _spec_file(tmp_path, {"v": 1.0, "delay": 0, "prune": prune}, name="run.metrics")
    argv = ["analyze", "--trace", str(tmp_path / "run.trace.csv"),
            "--spec", str(FIXDIR / "two_sensor.json"), "--config", path]
    err = _cli_error(capsys, argv)
    assert (f"ValueError: {path}: field 'prune': a {prune!r} run used a strategy set other "
            "than the one analyze rebuilds from the spec; only 'auto' runs can be audited") in err


def test_run_config_with_auto_prune_loads(tmp_path):
    # metrics files of earlier versions echo "prune": "auto" for default runs
    config = {"v": 50.0, "delay": 0, "window": None, "mode": "exact", "prune": "auto"}
    path = _spec_file(tmp_path, {"slots": 5, "config": config}, name="run.metrics")
    assert fileio.load_run_config(path) == config


@pytest.mark.parametrize("config,field", [({"delay": 0}, "v"), ({"v": 1.0}, "delay")])
def test_cli_run_config_missing_field_is_one_line(tmp_path, capsys, config, field):
    path = _spec_file(tmp_path, config, name="run.metrics")
    argv = ["analyze", "--trace", str(tmp_path / "run.trace.csv"),
            "--spec", str(FIXDIR / "two_sensor.json"), "--config", path]
    err = _cli_error(capsys, argv)
    assert f"ValueError: {path}: missing key {field!r}" in err


def test_cli_simplex_iteration_limit_is_one_line(tmp_path, capsys):
    argv = ["solve", "--spec", str(FIXDIR / "two_sensor.json"), "--out", str(tmp_path / "x.json")]
    with mock.patch.object(simplex, "_iteration_limit", lambda m, n: 0):
        err = _cli_error(capsys, argv)
    assert "IterationLimit: simplex phase 1 stopped at its iteration limit after 0 pivots" in err
