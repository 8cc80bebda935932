import json

import numpy as np
import pytest

from lepskii import cli, estimators, kernels
from lepskii.balancing import BalancingConfig, balancing_select
from lepskii.cli import dispatch, parse_kernel
from lepskii.estimators import TIKHONOV, fit_from_decomposition
from lepskii.experiments import format_float
from lepskii.grid import geometric_grid, heuristic_lambda0
from lepskii.kernels import Dataset, GaussianKernel, gram_decomposition, read_dataset_csv, write_dataset_csv
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


def test_malformed_threads_flag_is_a_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["experiment", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out_dir)]
    for value, message in (("two", "invalid int value: 'two'"), ("0", "must be at least 1, got 0"),
                           ("-1", "must be at least 1, got -1")):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv + ["--threads", value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()
    # a well-formed flag gets past parsing; the missing config is then a domain error
    assert dispatch(argv + ["--threads", "1"]) == 1


@pytest.mark.parametrize("column", ["no_such", "filter"])
def test_rate_column_outside_the_float_columns_is_a_usage_error(tmp_path, capsys, column):
    with pytest.raises(SystemExit) as exc:
        dispatch(["rate", "--results", str(tmp_path / "results.csv"), "--column", column])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid choice: '{column}'" in err and "err_s12_at_hat" in err


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
    lam0 = heuristic_lambda0(dec.eigenvalues, 1.5)
    grid = geometric_grid(lam0, 1.5)
    fits = np.column_stack(
        [fit_from_decomposition(dec, data.ys, TIKHONOV, float(lam)) for lam in grid.lambdas]
    )
    diag = balancing_select(fits, grid, dec, BalancingConfig(sigma=0.3, eta=0.1))
    assert doc["lambda_hat"] == diag.lambda_hat
    assert doc["jplus"] == list(diag.jplus)
    assert list(doc["thresholds"].values()) == diag.thresholds.tolist()
    # the library side fits one lambda at a time, which sums in another order than the CLI
    assert list(doc["pairwise_norms"].values()) == pytest.approx(diag.pairwise_norms, rel=1e-9)
    lams = [format_float(v) for v in grid.lambdas]
    assert list(doc["pairwise_norms"]) == [f"{lams[i]},{lams[j]}" for i in range(grid.size) for j in range(i)]


def test_the_shared_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys, model_file):
    assert cli.build_parser() is cli.build_parser()
    data_path = tmp_path / "d.csv"
    dispatch(["simulate", "--model", model_file, "--n", "40", "--seed", "2", "--out", str(data_path)])
    argv = ["balance", "--data", str(data_path), "--kernel", "gaussian:0.2", "--sigma", "0.3"]
    assert dispatch(argv) == 0
    first = capsys.readouterr().out
    assert dispatch([*argv, "--bal-factor", "nan"]) == 1
    with pytest.raises(SystemExit) as exc:
        dispatch(["experiment", "--config", "cfg.json", "--out-dir", str(tmp_path / "out"), "--threads", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert dispatch([*argv, "--s", "0.25"]) == 0
    quarter = json.loads(capsys.readouterr().out)
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == first

    data = read_dataset_csv(data_path)
    dec = gram_decomposition(GaussianKernel(0.2), data.xs)
    grid = geometric_grid(heuristic_lambda0(dec.eigenvalues, 2.0), 2.0)
    fits = fit_from_decomposition(dec, data.ys, TIKHONOV, grid.lambdas)
    diag = balancing_select(fits, grid, dec, BalancingConfig(s=0.25, sigma=0.3))
    assert quarter["s"] == 0.25 and json.loads(first)["s"] == 0.5
    assert quarter["lambda_hat"] == diag.lambda_hat and quarter["jplus"] == list(diag.jplus)
    assert list(quarter["thresholds"].values()) == diag.thresholds.tolist()
    assert list(quarter["pairwise_norms"].values()) == diag.pairwise_norms.tolist()


@pytest.mark.parametrize("factor", ["nan", "inf"])
def test_balance_rejects_a_non_finite_bal_factor(tmp_path, capsys, model_file, factor):
    # it used to exit 0 with NaN thresholds and lambda-hat = 1, printed as invalid JSON
    data_path = tmp_path / "d.csv"
    dispatch(["simulate", "--model", model_file, "--n", "40", "--seed", "2", "--out", str(data_path)])
    argv = ["balance", "--data", str(data_path), "--kernel", "gaussian:0.2", "--sigma", "0.3"]
    assert dispatch([*argv, "--bal-factor", factor, "--out", str(tmp_path / "bal.json")]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "bal.json").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [("--bal-factor", "nan", "sigma, M and bal_factor must be finite"), ("--eta", "2", "eta must lie in (0, 1)")],
    ids=["bal-factor-nan", "eta-2"],
)
def test_balance_checks_its_numbers_before_the_decomposition(tmp_path, capsys, monkeypatch, flag, value, message):
    def decompose(*args, **kwargs):
        raise AssertionError("the Gram matrix was decomposed before the balancing numbers were checked")

    monkeypatch.setattr(cli, "gram_decomposition", decompose)
    data_path = tmp_path / "d.csv"
    write_dataset_csv(Dataset(np.linspace(0.0, 1.0, 20), np.zeros(20)), data_path)
    argv = ["balance", "--data", str(data_path), "--kernel", "gaussian:0.2", "--sigma", "0.3", flag, value]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flags", [["--eta", "0"], ["--eta", "-1"], ["--eta", "1.5"], ["--n", "0"]], ids=["eta-0", "eta-minus-1", "eta-1.5", "n-0"]
)
def test_grid_rejects_eta_outside_the_unit_interval_and_n_below_one(capsys, flags):
    # eta = 0 ended in a ZeroDivisionError traceback, eta = -1 in a RuntimeWarning and exit 0,
    # and eta = 1.5 or n = 0 exited 0 with both conditions reported false
    code = dispatch(["grid", "--n", "500", "--lambda0", "0.01", *flags])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


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
        ("balancing", "c_s"),
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
        ("source", "type", "index", "holder"),
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


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("experiment", None, "n_values", 5),
        ("experiment", None, "replications", None),
        ("experiment", None, "n_values", [60.7]),
        ("experiment", None, "n_values", [True]),
        ("experiment", None, "replications", 1.9),
        ("experiment", None, "seed_base", 2.5),
        ("experiment", "spectrum", "D", 50.9),
        ("simulate", "spectrum", "D", True),
        ("experiment", "spectrum", "b", None),
        ("simulate", "spectrum", "b", None),
        ("effdim", "spectrum", "b", None),
        ("experiment", "balancing", "bal_factor", True),
        ("experiment", None, "grid_q", True),
        ("experiment", None, "lambda0_mode", True),
        ("experiment", None, "holdout_fraction", True),
        ("experiment", "balancing", "bal_factor", float("inf")),
        ("experiment", "noise", "sigma", float("nan")),
        ("simulate", "source", "r", True),
        ("simulate", "source", "h", [0.5, float("nan")]),
    ],
)
def test_wrongly_typed_document_values_are_bad_input(tmp_path, capsys, command, section, key, value):
    # a null number or a number in place of a list used to end in a TypeError traceback, a
    # fractional or boolean count was truncated by int() and run, and a boolean, NaN or
    # Infinity (which Python's json reads) was taken by float() and run
    model = json.loads(json.dumps(MODEL_DOC))
    cfg = {"model": model, "n_values": [60], "replications": 1, "balancing": {}}
    {None: cfg, "balancing": cfg["balancing"], **model}[section][key] = value
    doc, argv = (cfg, ["--config"]) if command == "experiment" else (model, ["--n", "30", "--model"])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    extra = ["--out-dir", str(tmp_path / "out")] if command == "experiment" else []
    code = dispatch([command, *argv, str(path), *extra])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: bad input document or value: wrongly typed value")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_negative_replications_leave_no_output_directory(tmp_path, capsys):
    # the output directory used to be created before the count was checked; a grid ratio or
    # hold-out fraction out of range used to exit 0 with every row failure-tagged
    cases = [
        ({"replications": -1}, "replications must be >= 0"),
        ({"grid_q": 0.5}, "grid_q must exceed 1, got 0.5"),
        ({"holdout_fraction": 1.5}, "holdout_fraction must lie in (0, 1), got 1.5"),
    ]
    for override, message in cases:
        path = tmp_path / "cfg.json"
        cfg = {"model": MODEL_DOC, "n_values": [60], "replications": 1, **override}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code = dispatch(["experiment", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 1 and message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_fit_predicts_through_the_factor(tmp_path, monkeypatch):
    # n = 2000 on Gaussian(0.2) takes the Cholesky route: no n x n kernel block is built
    rng = np.random.default_rng(8)
    xs = rng.random(2000)
    data_path, out = tmp_path / "d.csv", tmp_path / "fit.csv"
    write_dataset_csv(Dataset(xs, np.sin(2.0 * np.pi * xs) + 0.1 * rng.standard_normal(2000)), data_path)
    cross_gram = kernels.cross_gram

    def small_blocks_only(k, xs_a, xs_b):
        assert min(np.size(xs_a), np.size(xs_b)) == 1, "fit asked for a kernel matrix block"
        return cross_gram(k, xs_a, xs_b)

    for module in (kernels, estimators):
        monkeypatch.setattr(module, "cross_gram", small_blocks_only)
    argv = ["fit", "--data", str(data_path), "--kernel", "gaussian:0.2", "--lambda", "1e-4"]
    assert dispatch([*argv, "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table.shape == (2000, 4)
    dense = cross_gram(GaussianKernel(0.2), table[:, 0], table[:, 0]) @ table[:, 2]
    assert np.max(np.abs(table[:, 3] - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_short_csv_row_is_a_domain_error(tmp_path, capsys):
    data = tmp_path / "short.csv"
    data.write_text("x,y\n0.1,0.2\n0.5\n", encoding="utf-8")
    code = dispatch(["fit", "--data", str(data), "--kernel", "gaussian:0.2", "--lambda", "0.1"])
    assert code == 1 and "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["header", "row"])
@pytest.mark.parametrize("command", ["fit", "balance"])
def test_csv_field_over_the_csv_size_limit_is_a_domain_error(tmp_path, capsys, command, where):
    # csv refuses fields over 131072 characters; its error used to escape as a traceback.
    # The unquoted header goes through the header check of the C-reader path, the quoted
    # row through the csv loop.
    big = "a" * 131073
    text = f"x,y,{big}\n0.1,0.2\n" if where == "header" else f'x,y\n0.1,0.2,"{big}"\n'
    data = tmp_path / "big.csv"
    data.write_text(text, encoding="utf-8")
    extra = ["--lambda", "0.1"] if command == "fit" else ["--sigma", "0.3"]
    code = dispatch([command, "--data", str(data), "--kernel", "gaussian:0.2", *extra])
    err = capsys.readouterr().err
    line = 1 if where == "header" else 2
    assert code == 1 and err.startswith(f"error: dataset CSV line {line}: field larger than field limit")
    assert len(err.splitlines()) == 1


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
