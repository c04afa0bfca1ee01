import importlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cryamabe.cli import main, run_verify_cayley
from cryamabe.config import ExperimentConfig
from cryamabe.errors import DomainError


def test_usage_error_exit_code():
    assert main(["no-such-subcommand"]) == 2


def test_bad_config_exit_code(tmp_path):
    bad = os.path.join(tmp_path, "cfg.json")
    with open(bad, "w") as fh:
        json.dump({"N": 1, "k": 5.0}, fh)  # 2k >= Q
    assert main(["verify-group", "--config", bad]) == 2


def test_flag_override_out_of_range():
    assert main(["verify-group", "--k", "7.0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-spectral", "--jmax", "10"],  # above spectral.JMAX_VERIFIED
        ["verify-spectral", "--jmax", "40"],
        ["sobolev-sharpness", "--jmax", "-1"],
        ["bubble-residual", "--N", "2"],  # its inner shell box is 96^5 nodes at N = 2
        ["verify-group", "--N", "2"],
        ["ps-quantization", "--k", "0.5"],  # the transported reports need k = 1
        ["gradient-decay", "--k", "0.5"],
        ["verify-group", "--tol-scale", "nan"],
        ["verify-group", "--tol-scale", "inf"],
        ["minimax-explore", "--k", "0.5"],  # energy_invariance reads quadrature error at k != 1
        ["ps-quantization", "--ladder", "1e-1,1e-80"],  # R^4 underflows: the rung's row was all NaN
        ["ps-quantization", "--ladder", "1e-1,1e-78"],
        ["gradient-decay", "--ladder", "1e-1,1e-160"],
        ["verify-group", "--seed", "-1"],  # exited 3 after the run had started
    ],
)
def test_out_of_range_flag_refused_before_work(tmp_path, argv):
    start = time.perf_counter()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 5.0
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("field", [{"lmax": 9}, {"lmax": -1}, {"quad_degree": 0}, {"jmax": 2.5}])
def test_out_of_range_config_refused_before_work(tmp_path, field):
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        json.dump(field, fh)
    out = os.path.join(tmp_path, "out")
    start = time.perf_counter()
    assert main(["verify-spectral", "--config", path, "--out", out]) == 2
    assert time.perf_counter() - start < 5.0
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "sub,text",
    [
        ("verify-group", '{"jmx": 4}'),  # unknown key
        ("verify-group", '{"k": "1"}'),
        ("verify-group", '{"k": true}'),
        ("verify-group", '{"tol_scale": "x"}'),
        ("verify-group", '{"tol_scale": Infinity}'),
        ("verify-group", '{"tol_scale": 0}'),
        ("verify-group", "[4]"),  # not an object
        ("minimax-explore", '{"minimax_seeds": 0, "jmax": 2}'),
        ("minimax-explore", '{"minimax_budget": 0, "jmax": 2}'),
        ("minimax-explore", '{"minimax_seeds": 1.5, "jmax": 2}'),
        ("subcritical-flow", '{"flow_seeds": 0, "jmax": 2}'),
        ("subcritical-flow", '{"flow_seeds": true, "jmax": 2}'),
        ("riesz-check", '{"grid_shape": [4, 4, 4]}'),  # exited 1 mid-run
        ("riesz-check", '{"grid_shape": [256, 256, 256]}'),  # over the node budget
        ("riesz-check", '{"grid_half_widths": [-1, 0]}'),  # NaN grid values
        ("gradient-decay", '{"rn_ladder": [0.1]}'),  # one rung: a drop factor of 1
        ("verify-group", '{"out_dir": 5}'),  # a raw TypeError after the run
        ("verify-group", '{"seed": 1.5}'),  # exited 3 after the run had started
        ("verify-group", '{"seed": -1}'),
        ("verify-group", '{"seed": true}'),  # ran as seed 1
        ("gradient-decay", '{"rn_ladder": ["0.1", "0.01"]}'),  # ran as (0.1, 0.01)
        ("gradient-decay", '{"rn_ladder": [true, 0.5]}'),  # ran as (1.0, 0.5)
        ("gradient-decay", '{"rn_ladder": [0.1, "0.01"]}'),
    ],
)
def test_bad_config_refused_before_work(tmp_path, sub, text):
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        fh.write(text)
    out = os.path.join(tmp_path, "out")
    start = time.perf_counter()
    assert main([sub, "--config", path, "--out", out]) == 2
    assert time.perf_counter() - start < 5.0
    assert not os.path.exists(out)


@pytest.mark.parametrize("exc", [DomainError("no such thing"), RuntimeError("boom")])
def test_unexpected_error_exits_3_with_a_record(tmp_path, monkeypatch, exc):
    import cryamabe.cli as cli

    def failing(cfg):
        raise exc

    monkeypatch.setattr(cli, "run_verify_group", failing)
    out = os.path.join(tmp_path, "out")
    assert main(["verify-group", "--out", out]) == 3
    assert os.listdir(out) == ["verify_group_error.json"]
    with open(os.path.join(out, "verify_group_error.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["subcommand"] == "verify-group" and record["type"] == type(exc).__name__
    assert record["message"] == str(exc) and "in failing" in record["traceback"]


def test_unwritable_output_exits_3(tmp_path, capsys):
    blocker = os.path.join(tmp_path, "file")
    with open(blocker, "w") as fh:
        fh.write("not a directory")
    assert main(["verify-group", "--out", blocker]) == 3
    assert "error record not written" in capsys.readouterr().err


def test_minimax_explore_creates_its_output_directory(tmp_path):
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        json.dump({"jmax": 2, "minimax_seeds": 1, "minimax_budget": 20}, fh)
    out = os.path.join(tmp_path, "new", "out")
    assert main(["minimax-explore", "--config", path, "--out", out]) in (0, 1)
    with open(os.path.join(out, "minimax_candidates.json"), encoding="utf-8") as fh:
        assert len(json.load(fh)) == 2  # one search seed plus the Hopf control


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(jmax=5, seed=3)
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        fh.write(cfg.to_json())
    loaded = ExperimentConfig.from_json(path)
    assert loaded == cfg


def test_numpy_integers_stored_as_python_ints():
    # one integer rule: numpy sizes pass like Python ones, and the config stays JSON-serializable
    cfg = ExperimentConfig(jmax=np.int64(4), seed=np.int64(3), grid_shape=(np.int64(16),) * 3)
    assert cfg == ExperimentConfig(jmax=4, seed=3, grid_shape=(16, 16, 16))
    assert all(type(n) is int for n in (cfg.jmax, cfg.seed, *cfg.grid_shape))
    assert json.loads(cfg.to_json())["grid_shape"] == [16, 16, 16]


def test_ladder_validation():
    for ladder in ((1e-1, 1e-1), ("0.1", "0.01"), (True, 0.5)):
        with pytest.raises(DomainError):
            ExperimentConfig(rn_ladder=ladder)
    assert ExperimentConfig(rn_ladder=(1, np.float64(0.5))).rn_ladder == (1.0, 0.5)


def test_verify_group_artifacts_and_determinism(tmp_path):
    out1 = os.path.join(tmp_path, "a")
    out2 = os.path.join(tmp_path, "b")
    assert main(["verify-group", "--out", out1, "--seed", "5"]) == 0
    assert main(["verify-group", "--out", out2, "--seed", "5"]) == 0
    with open(os.path.join(out1, "verify_group.csv"), "rb") as fh:
        blob1 = fh.read()
    with open(os.path.join(out2, "verify_group.csv"), "rb") as fh:
        blob2 = fh.read()
    assert blob1 == blob2
    text = blob1.decode()
    assert text.splitlines()[0] == "check,value,threshold,passed"
    assert "\r" not in text


def test_sobolev_subcommand_passes(tmp_path):
    out = os.path.join(tmp_path, "out")
    assert main(["sobolev-sharpness", "--out", out, "--jmax", "4"]) == 0
    assert os.path.exists(os.path.join(out, "sobolev_sharpness.csv"))


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cryamabe.cli", "verify-group", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "verify-group: PASS" in proc.stdout


@pytest.mark.parametrize("seed", range(12))
def test_conformal_covariance_passes_at_every_seed(seed):
    # criterion 3 at seeds 0-11; the h = 1e-4 stencil alone read 3.5e-4 at seed 2
    table = run_verify_cayley(ExperimentConfig().with_overrides(seed=seed))
    assert table.passed, [row for row in table.rows if not row[3]]


def test_conformal_covariance_negative_control(monkeypatch):
    # the pullback weight of k = 1 + 1e-3 breaks covariance, and the check sees it
    import cryamabe.cayley as cayley

    pullback = cayley.conformal_pullback
    monkeypatch.setattr(cayley, "conformal_pullback", lambda u, chart, k: pullback(u, chart, k + 1e-3))
    for seed in (0, 1):
        rows = {name: (value, ok) for name, value, _, ok in run_verify_cayley(ExperimentConfig().with_overrides(seed=seed)).rows}
        value, ok = rows["conformal_covariance"]
        assert value > 1e-4 and not ok



@pytest.mark.parametrize(
    "argv",
    [
        ["sobolev-sharpness", "--jmax", "0"],  # its strict-inequality mode is (1, 0, 0)
        ["minimax-explore", "--jmax", "0"],  # the antipodally odd mask is empty
    ],
)
def test_degree_one_subcommands_refuse_jmax_0(tmp_path, argv):
    start = time.perf_counter()
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 5.0
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "module,name,argv,row",
    [
        ("cryamabe.spectral", "apply_A2k", ["verify-cayley"], "conformal_covariance"),
        ("cryamabe.spectral", "apply_A2_differential", ["verify-spectral", "--jmax", "2"], "eigen_consistency"),
        ("cryamabe.bubbling", "commutator_identity_value", ["commutator-check"], "three_commutator_identity"),
        ("cryamabe.minimax", "invariance_check", ["minimax-explore", "--jmax", "2"], "energy_invariance"),
    ],
)
def test_nan_after_the_first_iteration_fails_its_row(monkeypatch, tmp_path, module, name, argv, row):
    # the row keeps the worst value over its iterations; Python's max(0.0, nan)
    # is 0.0, so a NaN after the first iteration must not fall out of it
    mod = importlib.import_module(module)
    fn = getattr(mod, name)
    calls = []

    def nan_on_second_call(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return out * math.nan if len(calls) == 2 else out

    monkeypatch.setattr(mod, name, nan_on_second_call)
    assert main(argv + ["--out", str(tmp_path)]) == 1
    with open(os.path.join(tmp_path, argv[0].replace("-", "_") + "_failures.json"), encoding="utf-8") as fh:
        failed = {rec["check"]: rec["value"] for rec in json.load(fh)}
    assert math.isnan(failed[row])
    assert len(calls) > 2


@pytest.mark.parametrize(
    "argv,config,code,files",
    [
        (["verify-group"], None, 0, ["verify_group.csv"]),
        (["verify-group", "--tol-scale", "1e-30"], None, 1, ["verify_group.csv", "verify_group_failures.json"]),
        (["commutator-check"], None, 0, ["commutator_check.csv"]),
        (["calibrate-normalizations"], None, 0, ["calibrate_normalizations.csv", "calibrate_normalizations.json"]),
        (["sobolev-sharpness", "--jmax", "4"], None, 0, ["sobolev_sharpness.csv"]),
        (
            ["minimax-explore"],
            {"jmax": 2, "minimax_seeds": 1, "minimax_budget": 20},
            0,
            ["minimax_candidates.json", "minimax_explore.csv"],
        ),
    ],
)
def test_files_of_a_run(tmp_path, argv, config, code, files):
    if config is not None:
        path = os.path.join(tmp_path, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = argv + ["--config", path]
    out = os.path.join(tmp_path, "out")
    assert main(argv + ["--out", out]) == code
    assert sorted(os.listdir(out)) == files


def test_runner_table_is_the_only_dispatch():
    import cryamabe.cli as cli

    (choices,) = [action.choices for action in cli.make_parser()._actions if action.dest == "subcommand"]
    assert list(choices) == list(cli.RUNNERS)
    # each runner is called from the table, so there is one way to run each check
    reached = set().union(*(runner.__code__.co_names for runner in cli.RUNNERS.values()))
    assert {name for name in vars(cli) if name.startswith("run_")} <= reached
    assert set(cli.REQUIRES_K1) | set(cli.REQUIRES_DEGREE_1) <= set(cli.RUNNERS)
