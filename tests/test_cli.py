import json

import numpy as np
import pytest

from lepskii.balancing import BalancingConfig, balancing_select
from lepskii.cli import dispatch, parse_kernel
from lepskii.estimators import TIKHONOV, fit_from_decomposition
from lepskii.grid import geometric_grid, heuristic_lambda0
from lepskii.kernels import GaussianKernel, gram_decomposition, gram_scale, read_dataset_csv
from lepskii.synthetic import generate, model_from_dict


MODEL_DOC = {
    "spectrum": {"type": "poly", "b": 2.0, "D": 60},
    "source": {"type": "holder", "r": 0.5, "R": 1.0, "h": "single"},
    "noise": {"sigma": 0.3, "M": 0.3},
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_DOC), encoding="utf-8")
    return str(path)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--help"])
    assert exc.value.code == 0
    assert "effdim" in capsys.readouterr().out


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        dispatch(["grid", "--n", "10", "--bogus", "1"])
    assert exc.value.code == 2


def test_missing_required_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        dispatch(["effdim", "--n", "10"])
    assert exc.value.code == 2


def test_kernel_flag_syntax():
    k = parse_kernel("gaussian:0.2")
    assert isinstance(k, GaussianKernel) and k.bandwidth == 0.2
    p = parse_kernel("poly:3:1")
    assert p.degree == 3 and p.offset == 1.0 and p.domain_radius == 1.0
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_kernel("banana:1")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_kernel("gaussian:-1")


def test_domain_error_exit_code(tmp_path, model_file):
    missing = str(tmp_path / "no-such-data.csv")
    code = dispatch(["fit", "--data", missing, "--kernel", "gaussian:0.2", "--lambda", "0.1"])
    assert code == 1
    # invalid lambda is a domain error, not a usage error
    data = tmp_path / "d.csv"
    dispatch(["simulate", "--model", model_file, "--n", "20", "--seed", "1", "--out", str(data)])
    code = dispatch(["fit", "--data", str(data), "--kernel", "gaussian:0.2", "--lambda", "7.0"])
    assert code == 1


def test_simulate_deterministic(tmp_path, model_file):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert dispatch(["simulate", "--model", model_file, "--n", "50", "--seed", "9", "--out", str(out_a)]) == 0
    assert dispatch(["simulate", "--model", model_file, "--n", "50", "--seed", "9", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    # matches the library path exactly
    model = model_from_dict(MODEL_DOC)
    sample = generate(model, 50, seed=9)
    back = read_dataset_csv(out_a)
    assert np.array_equal(back.xs, sample.data.xs)
    assert np.array_equal(back.ys, sample.data.ys)


def test_effdim_csv_shape_and_determinism(tmp_path, model_file):
    out_a = tmp_path / "eff_a.csv"
    out_b = tmp_path / "eff_b.csv"
    args = ["effdim", "--model", model_file, "--n", "200", "--seed", "7", "--eta", "0.1"]
    assert dispatch(args + ["--out", str(out_a)]) == 0
    assert dispatch(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().splitlines()
    assert lines[0] == "lambda,N_model,N_emp,delta,factor5_holds"
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_grid_command(tmp_path, model_file):
    out = tmp_path / "grid.json"
    assert dispatch(["grid", "--model", model_file, "--n", "500", "--q", "2.0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["lambdas"][-1] == 1.0
    assert doc["size"] == len(doc["lambdas"])
    assert set(doc) >= {"nlam0_ok", "logterm_ok", "q"}
    # fixed-value lambda0 without a model
    assert dispatch(["grid", "--n", "100", "--lambda0", "0.03", "--out", str(out)]) == 0
    doc2 = json.loads(out.read_text())
    assert doc2["lambdas"][0] <= 0.03


def test_malformed_threads_environment_is_a_usage_error_of_experiment_only(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LEPSKII_THREADS", "two")
    assert dispatch(["grid", "--n", "50", "--lambda0", "0.01", "--out", str(tmp_path / "g.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        dispatch(["experiment", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid int value: 'two'" in capsys.readouterr().err
    # an explicit flag wins over the environment; the missing config is then a domain error
    argv = ["experiment", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(tmp_path)]
    assert dispatch(argv + ["--threads", "1"]) == 1


def test_fit_command_csv(tmp_path, model_file):
    data = tmp_path / "d.csv"
    dispatch(["simulate", "--model", model_file, "--n", "30", "--seed", "3", "--out", str(data)])
    out = tmp_path / "fit.csv"
    assert dispatch(
        ["fit", "--data", str(data), "--kernel", "gaussian:0.3", "--lambda", "0.1", "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,coefficient,prediction"
    assert len(lines) == 31


def test_balance_cli_matches_library(tmp_path, model_file):
    data_path = tmp_path / "d.csv"
    dispatch(["simulate", "--model", model_file, "--n", "40", "--seed", "2", "--out", str(data_path)])
    out = tmp_path / "bal.json"
    assert (
        dispatch(
            [
                "balance",
                "--data", str(data_path),
                "--kernel", "gaussian:0.2",
                "--sigma", "0.3",
                "--q", "1.5",
                "--eta", "0.1",
                "--out", str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())

    data = read_dataset_csv(data_path)
    kernel = GaussianKernel(0.2)
    dec = gram_decomposition(kernel, data.xs)
    kscale = gram_scale(kernel, data.n)
    lam0 = heuristic_lambda0(dec, data.n, 1.5)
    grid = geometric_grid(lam0, 1.5)
    fits = np.column_stack(
        [fit_from_decomposition(dec, kscale, data.ys, TIKHONOV, float(lam)) for lam in grid.lambdas]
    )
    diag = balancing_select(fits, grid, dec, kscale, BalancingConfig(sigma=0.3, eta=0.1), data.n)
    assert doc["lambda_hat"] == diag.lambda_hat
    assert doc["jplus"] == list(diag.jplus)
    assert len(doc["pairwise_norms"]) == len(diag.pairwise_norms)


def test_experiment_command_roundtrip_and_determinism(tmp_path, model_file):
    cfg = {
        "model": MODEL_DOC,
        "n_values": [60],
        "replications": 2,
        "seed_base": 4,
        "grid_q": 2.0,
        "balancing": {"eta": 0.1},
        "filters": ["tikhonov"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    dir_a = tmp_path / "out_a"
    dir_b = tmp_path / "out_b"
    assert dispatch(["experiment", "--config", str(cfg_path), "--out-dir", str(dir_a)]) == 0
    assert dispatch(["experiment", "--config", str(cfg_path), "--out-dir", str(dir_b)]) == 0
    assert (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()
    assert (dir_a / "summary.json").read_bytes() == (dir_b / "summary.json").read_bytes()

    # rate command consumes the results CSV the experiment emitted
    rate_out = tmp_path / "rate.json"
    cfg["n_values"] = [60, 120]
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    dir_c = tmp_path / "out_c"
    assert dispatch(["experiment", "--config", str(cfg_path), "--out-dir", str(dir_c)]) == 0
    assert (
        dispatch(["rate", "--results", str(dir_c / "results.csv"), "--out", str(rate_out)]) == 0
    )
    doc = json.loads(rate_out.read_text())
    assert {"slope", "intercept", "r2", "column"} <= set(doc)


@pytest.mark.parametrize(
    "section, typo",
    [
        (None, "filtres"),
        ("balancing", "bal_factr"),
        ("spectrum", "DD"),
        ("source", "radius"),
        ("noise", "sgima"),
        ("outputs", "result"),
    ],
)
def test_experiment_config_rejects_unknown_keys(tmp_path, capsys, section, typo):
    # a misspelt key used to be ignored and its setting silently left at the default
    model = json.loads(json.dumps(MODEL_DOC))
    cfg = {"model": model, "n_values": [60], "replications": 1, "balancing": {"eta": 0.1}, "outputs": {}}
    sections = {None: cfg, "balancing": cfg["balancing"], "outputs": cfg["outputs"], **model}
    sections[section][typo] = 1.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = dispatch(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and "bad input document" in err and repr(typo) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value, allowed",
    [
        ("source", "type", "indx", "holder, index"),
        ("spectrum", "type", "polly", "poly, custom"),
        ("balancing", "constant_mode", "theoretcal", "practical, theoretical"),
        (None, "filters", "landwber", "tikhonov, spectral_cutoff, landweber"),
        (None, "lambda0_mode", "modle", "model, heuristic or a number"),
    ],
)
def test_experiment_config_rejects_unknown_values(tmp_path, capsys, section, key, value, allowed):
    # a misspelt enumerated value used to be read as one of the other choices
    model = json.loads(json.dumps(MODEL_DOC))
    cfg = {"model": model, "n_values": [60], "replications": 1, "balancing": {"eta": 0.1}}
    {None: cfg, "balancing": cfg["balancing"], **model}[section][key] = [value] if key == "filters" else value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = dispatch(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1 and repr(value) in err and f"allowed: {allowed}" in err
    assert not (tmp_path / "out").exists()


def test_short_csv_row_is_a_domain_error(tmp_path, capsys):
    data = tmp_path / "short.csv"
    data.write_text("x,y\n0.1,0.2\n0.5\n", encoding="utf-8")
    code = dispatch(["fit", "--data", str(data), "--kernel", "gaussian:0.2", "--lambda", "0.1"])
    assert code == 1 and "line 3" in capsys.readouterr().err


def test_unusable_paths_are_domain_errors(tmp_path, capsys):
    # a directory as --data and a file as --out-dir are OS errors, reported with exit 1
    code = dispatch(["fit", "--data", str(tmp_path), "--kernel", "gaussian:0.2", "--lambda", "0.1"])
    assert code == 1 and capsys.readouterr().err.startswith("error: ")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": MODEL_DOC, "n_values": [60], "replications": 1}), encoding="utf-8")
    code = dispatch(["experiment", "--config", str(cfg_path), "--out-dir", str(cfg_path)])
    assert code == 1 and capsys.readouterr().err.startswith("error: ")


def test_console_script_entry():
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "lepskii.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and "balance" in proc.stdout
