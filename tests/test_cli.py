"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import hashlib
import json
import logging
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import signlasso
import signlasso.cli as cli
from signlasso import AssumptionConstants, CoefVector, DesignSpec, ExperimentConfig
from signlasso.cli import main
from signlasso.schema import from_json, jsonable
from signlasso.fileio import (
    write_counts_csv,
    write_matrix_csv,
    write_vector_csv,
)


@pytest.fixture()
def small_dataset(tmp_path):
    rng = np.random.default_rng(401)
    n, p = 40, 3
    X = 0.6 * rng.standard_normal((n, p))
    beta_star = np.array([0.9, -0.7, 0.0])
    lam = np.exp(X @ beta_star)
    counts = rng.poisson(lam)
    paths = {
        "x": tmp_path / "X.csv",
        "y": tmp_path / "Y.csv",
        "beta_star": tmp_path / "beta_star.csv",
        "out": tmp_path / "out",
    }
    write_matrix_csv(paths["x"], X)
    write_counts_csv(paths["y"], counts)
    write_vector_csv(paths["beta_star"], beta_star)
    return paths


def test_fit_smoke(small_dataset, capsys):
    code = main([
        "fit",
        "--x", str(small_dataset["x"]),
        "--y", str(small_dataset["y"]),
        "--alpha", "2.0",
        "--out", str(small_dataset["out"]),
    ])
    assert code == 0
    out_path = small_dataset["out"] / "fit.json"
    assert capsys.readouterr().out.strip() == str(out_path)
    payload = json.loads(out_path.read_text())
    assert payload["converged"] is True
    assert payload["kkt"]["all_passed"] is True
    assert len(payload["beta_hat"]) == 3


def test_fit_missing_file_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main([
        "fit", "--x", str(missing), "--y", str(missing),
        "--alpha", "1.0", "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: file not found: {missing}\n"


def test_fit_penalty_dominated_returns_null(small_dataset):
    code = main([
        "fit",
        "--x", str(small_dataset["x"]),
        "--y", str(small_dataset["y"]),
        "--alpha", "1e9",
        "--beta-tilde", "oracle:0.0",
        "--beta-star", str(small_dataset["beta_star"]),
        "--out", str(small_dataset["out"]),
    ])
    assert code == 0
    payload = json.loads((small_dataset["out"] / "fit.json").read_text())
    assert payload["beta_hat"] == [0.0, 0.0, 0.0]
    assert payload["support"] == []


def test_check_orthogonal_design(tmp_path, capsys):
    # The active column is constant, so the truth-weighted design has uniform
    # weights and the columns stay exactly orthogonal: margin 1, exit 0.
    H = np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=float)
    write_matrix_csv(tmp_path / "X.csv", H)
    write_counts_csv(tmp_path / "Y.csv", np.array([1, 2, 0, 1]))
    write_vector_csv(tmp_path / "b.csv", np.array([0.5, 0.0]))
    code = main([
        "check",
        "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "Y.csv"),
        "--beta-star", str(tmp_path / "b.csv"),
        "--beta-tilde", "oracle:0.0",
        "--alpha", "0.5",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["conditions"]["irrep_margin"] == 1.0
    assert payload["conditions"]["passes"]["irrepresentable"] is True


def test_check_exit_three_on_failed_constant(tmp_path):
    H = np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=float)
    write_matrix_csv(tmp_path / "X.csv", H)
    write_counts_csv(tmp_path / "Y.csv", np.array([1, 2, 0, 1]))
    write_vector_csv(tmp_path / "b.csv", np.array([0.5, 0.0]))
    write_vector_csv(tmp_path / "bt.csv", np.zeros(2))
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"min_eigen_active": 100.0}))
    code = main([
        "check",
        "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "Y.csv"),
        "--beta-star", str(tmp_path / "b.csv"),
        "--beta-tilde", str(tmp_path / "bt.csv"),
        "--constants", str(constants),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 3
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["conditions"]["passes"]["eigen_active"] is False


def test_check_exactly_orthogonal_margin_one(tmp_path):
    # Zero expansion point: unit weights, columns exactly orthogonal.
    H = np.array([[1, 1], [1, -1], [1, 1], [1, -1]], dtype=float)
    write_matrix_csv(tmp_path / "X.csv", H)
    write_counts_csv(tmp_path / "Y.csv", np.array([1, 2, 0, 1]))
    write_vector_csv(tmp_path / "b.csv", np.array([0.5, 0.0]))
    write_vector_csv(tmp_path / "bt.csv", np.zeros(2))
    code = main([
        "check",
        "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "Y.csv"),
        "--beta-star", str(tmp_path / "b.csv"),
        "--beta-tilde", str(tmp_path / "bt.csv"),
        "--alpha", "0.5",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["conditions"]["irrep_margin"] == 1.0
    assert payload["events"]["d"] == [0.0]


def test_check_singular_active_block_exit_code(tmp_path, capsys):
    X = np.column_stack([np.ones(6), np.ones(6), np.arange(6.0)])
    write_matrix_csv(tmp_path / "X.csv", X)
    write_counts_csv(tmp_path / "Y.csv", np.arange(6) % 3)
    write_vector_csv(tmp_path / "b.csv", np.array([1.0, 1.0, 0.0]))
    write_vector_csv(tmp_path / "bt.csv", np.zeros(3))
    code = main([
        "check",
        "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "Y.csv"),
        "--beta-star", str(tmp_path / "b.csv"),
        "--beta-tilde", str(tmp_path / "bt.csv"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 4
    # One message, not a log line and then the error again.
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_check_two_predictor_matches_oracle(tmp_path):
    rng = np.random.default_rng(409)
    n = 50
    x1 = rng.standard_normal(n)
    x2 = 0.5 * x1 + np.sqrt(1 - 0.25) * rng.standard_normal(n)
    X = np.column_stack([x1, x2])
    counts = rng.poisson(np.exp(0.6 * x1))
    write_matrix_csv(tmp_path / "X.csv", X)
    write_counts_csv(tmp_path / "Y.csv", counts)
    write_vector_csv(tmp_path / "b.csv", np.array([0.6, 0.0]))
    write_vector_csv(tmp_path / "bt.csv", np.array([0.6, 0.0]))
    code = main([
        "check",
        "--x", str(tmp_path / "X.csv"),
        "--y", str(tmp_path / "Y.csv"),
        "--beta-star", str(tmp_path / "b.csv"),
        "--beta-tilde", str(tmp_path / "bt.csv"),
        "--alpha", "1.0",
        "--out", str(tmp_path / "out"),
    ])
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    lam = np.exp(0.6 * x1)
    c11 = float(np.sum(lam * x1 * x1) / n)
    c21 = float(np.sum(lam * x2 * x1) / n)
    expected = 1.0 - abs(c21 / c11)
    assert payload["conditions"]["irrep_margin"] == pytest.approx(expected, abs=1e-10)


# sha256 of fit.json and of check's report.json on the small_dataset
# fixture at alpha 2.0, with the MLE and the oracle expansion point.  Taken
# from the code before the working problem cached its Gram product; fits
# and checks must keep these bytes.
FIT_CHECK_DIGESTS = {
    ("fit", "mle"): "e2f6e7015a591d9011ddb69bd2d0fa27e81cb19dd0d3d79bc9e64e27e5ac69b1",
    ("fit", "oracle:1.0"): "0e1797903790f377476c0e5e3d6f27db1e1cde71c1b3a639ed8bfaf5cf544b30",
    ("check", "mle"): "6096d317b08c71973ecda3f95e2dde91343f3cb13e1a0f4848d0caf5fd85f937",
    ("check", "oracle:1.0"): "2b0915a1767965a9b70a25e908f669e5ea72a6ad31f4267ac5f40c604982a62a",
}


@pytest.mark.parametrize("command, mode", sorted(FIT_CHECK_DIGESTS))
def test_fit_and_check_keep_their_golden_digest(command, mode, small_dataset, capsys):
    code = main([
        command,
        "--x", str(small_dataset["x"]),
        "--y", str(small_dataset["y"]),
        "--beta-star", str(small_dataset["beta_star"]),
        "--beta-tilde", mode,
        "--alpha", "2.0",
        "--seed", "3",
        "--out", str(small_dataset["out"]),
    ])
    assert code == 0
    artifact = small_dataset["out"] / ("fit.json" if command == "fit" else "report.json")
    assert capsys.readouterr().out.strip() == str(artifact)
    digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
    assert digest == FIT_CHECK_DIGESTS[command, mode]


def _experiment_config(tmp_path, **overrides):
    config = {
        "design": {"kind": "correlated_gaussian", "rho": 0.2, "scale": 0.6},
        "beta_star": [1.0, -1.0, 0.0, 0.0],
        "n_grid": [60, 120],
        "c1": 1.0,
        "c2": 0.5,
        "alpha_coef": 1.0,
        "replicates": 10,
        "seed": 90210,
        "beta_tilde_mode": "oracle:1.0",
        "tau": 0.3,
    }
    config.update(overrides)
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))
    return path


def test_simulate_produces_artifacts(tmp_path, capsys):
    config = _experiment_config(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.rsplit("/", 1)[-1] for line in lines] == [
        "results.csv",
        "summary.csv",
        "report.json",
    ]
    rows = (out / "results.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 10
    report = json.loads((out / "report.json").read_text())
    assert set(report["conditions"]) == {"60", "120"}
    assert report["config"]["seed"] == 90210


def test_simulate_rejects_bad_schedule(tmp_path, capsys):
    config = _experiment_config(tmp_path, c2=1.5)
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "0 < c2 < c1 <= 1" in capsys.readouterr().err


def test_simulate_reports_field_path_on_bad_type(tmp_path, capsys):
    config = _experiment_config(tmp_path, replicates="ten")
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "replicates" in capsys.readouterr().err


def _simulate_argv(tmp_path, **overrides):
    config = _experiment_config(tmp_path, **overrides)
    return ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]


def _check_argv(data, *extra):
    return [
        "check", "--x", str(data["x"]), "--y", str(data["y"]),
        "--beta-star", str(data["beta_star"]), "--out", str(data["out"]), *extra,
    ]


def _constants_file(tmp_path, constants):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(constants))
    return str(path)


def _vector_file(tmp_path, values):
    path = tmp_path / "vector.csv"
    write_vector_csv(path, np.asarray(values, dtype=float))
    return str(path)


def _text_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _fit_argv(data, *extra):
    return [
        "fit", "--x", str(data["x"]), "--y", str(data["y"]), "--alpha", "1.0",
        "--out", str(data["out"]), *extra,
    ]


def _duplicate_column_design(tmp_path):
    # Columns 0 and 1 are equal, so the active block of beta* = (1, -1, 0)
    # is exactly singular.
    x = np.random.default_rng(7).standard_normal((60, 2))
    path = tmp_path / "X_dup.csv"
    write_matrix_csv(path, np.column_stack([x[:, 0], x[:, 0], x[:, 1]]))
    return str(path)


def _simulate_design_argv(tmp_path, **design):
    return _simulate_argv(tmp_path, design={"kind": "correlated_gaussian", **design})


BAD_INPUTS = {
    "tau": lambda tmp, data: _simulate_argv(tmp, tau=float("nan")),
    "alpha_coef": lambda tmp, data: _simulate_argv(tmp, alpha_coef=float("inf")),
    "max_sweeps": lambda tmp, data: _simulate_argv(tmp, max_sweeps=0),
    "design.scale": lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "iid_gaussian", "scale": "x"}
    ),
    "design.foo": lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "iid_gaussian", "foo": 1}
    ),
    "redraw_design": lambda tmp, data: _simulate_argv(tmp, redraw_design=1),
    "beta_tilde_mode": lambda tmp, data: _simulate_argv(tmp, beta_tilde_mode="x"),
    "constants.tau": lambda tmp, data: _simulate_argv(tmp, constants={"tau": 0.95}),
    "constants.c1": lambda tmp, data: _check_argv(
        data, "--constants", _constants_file(tmp, {"c1": "a"})
    ),
    "beta-tilde": lambda tmp, data: _check_argv(data, "--beta-tilde", str(tmp / "nope.csv")),
    "alpha": lambda tmp, data: [
        "fit", "--x", str(data["x"]), "--y", str(data["y"]), "--alpha", "nan",
        "--out", str(data["out"]),
    ],
}


@pytest.mark.parametrize("field_path", sorted(BAD_INPUTS))
def test_bad_input_exits_one_with_field_path(field_path, tmp_path, small_dataset, capsys):
    # main() returning at all shows no exception escaped as a traceback.
    code = main(BAD_INPUTS[field_path](tmp_path, small_dataset))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {field_path}: "), err
    assert not (tmp_path / "out").exists()


OUT_OF_RANGE_INPUTS = {
    "simulate_tau_negative": ("tau", lambda tmp, data: _simulate_argv(tmp, tau=-3.0)),
    "simulate_tau_above_one": ("tau", lambda tmp, data: _simulate_argv(tmp, tau=1.5)),
    "check_alpha_nan": ("alpha", lambda tmp, data: _check_argv(data, "--alpha", "nan")),
    "check_alpha_negative": ("alpha", lambda tmp, data: _check_argv(data, "--alpha=-5")),
    "check_constants_tau": ("constants.tau", lambda tmp, data: _check_argv(
        data, "--constants", _constants_file(tmp, {"tau": -0.1})
    )),
    "simulate_seed_negative": ("seed", lambda tmp, data: _simulate_argv(tmp, seed=-5)),
    "simulate_seed_flag_negative": ("seed", lambda tmp, data: [
        *_simulate_argv(tmp), "--seed", "-1",
    ]),
    "simulate_threads_zero": ("threads", lambda tmp, data: [
        *_simulate_argv(tmp), "--threads", "0",
    ]),
    "fit_seed_negative": ("seed", lambda tmp, data: [
        "fit", "--x", str(data["x"]), "--y", str(data["y"]), "--alpha", "1.0",
        "--beta-tilde", "oracle:1.0", "--beta-star", str(data["beta_star"]),
        "--seed", "-1", "--out", str(data["out"]),
    ]),
    "check_seed_negative": ("seed", lambda tmp, data: _check_argv(
        data, "--beta-tilde", "oracle:1.0", "--seed", "-1"
    )),
    "simulate_singular_reference_design": ("design", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "file", "path": _duplicate_column_design(tmp)},
        beta_star=[1.0, -1.0, 0.0], n_grid=[60],
    )),
    "simulate_reference_overflow": ("design", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "iid_gaussian"}, beta_star=[200.0, 0.0],
    )),
    "simulate_reference_weight_floor": ("design", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "iid_gaussian"}, beta_star=[30.0, 0.0],
    )),
    "design_scale_negative": ("design.scale", lambda tmp, data: _simulate_design_argv(
        tmp, scale=-1.0
    )),
    "design_rho_above_one": ("design.rho", lambda tmp, data: _simulate_design_argv(
        tmp, rho=1.5
    )),
    "design_file_without_path": ("design.path", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "file"}
    )),
    "design_cap_negative": ("design.row_norm_cap", lambda tmp, data: _simulate_design_argv(
        tmp, row_norm_cap=-1.0
    )),
    "design_cap_zero": ("design.row_norm_cap", lambda tmp, data: _simulate_design_argv(
        tmp, row_norm_cap=0.0
    )),
    "check_beta_star_short": ("beta-star", lambda tmp, data: [
        *_check_argv(data), "--beta-star", _vector_file(tmp, [0.9, -0.7]),
    ]),
    "check_beta_star_long": ("beta-star", lambda tmp, data: [
        *_check_argv(data), "--beta-star", _vector_file(tmp, [0.9, -0.7, 0.0, 0.0]),
    ]),
    "check_beta_tilde_short": ("beta-tilde", lambda tmp, data: _check_argv(
        data, "--beta-tilde", _vector_file(tmp, [0.9, -0.7])
    )),
    "fit_beta_star_short": ("beta-star", lambda tmp, data: [
        "fit", "--x", str(data["x"]), "--y", str(data["y"]), "--alpha", "1.0",
        "--beta-tilde", "oracle:1.0", "--beta-star", _vector_file(tmp, [0.9, -0.7]),
        "--out", str(data["out"]),
    ]),
    "fit_beta_tilde_long": ("beta-tilde", lambda tmp, data: [
        "fit", "--x", str(data["x"]), "--y", str(data["y"]), "--alpha", "1.0",
        "--beta-tilde", _vector_file(tmp, [0.9, -0.7, 0.0, 0.0]),
        "--out", str(data["out"]),
    ]),
    "fit_x_nan": ("x", lambda tmp, data: _fit_argv(
        data, "--x", _text_file(tmp, "X_nan.csv", "nan,0,1\n" + "1,0,1\n" * 39),
    )),
    "fit_y_short": ("y", lambda tmp, data: _fit_argv(
        data, "--y", _text_file(tmp, "Y_short.csv", "1\n" * 39),
    )),
    "fit_y_inf": ("y", lambda tmp, data: _fit_argv(
        data, "--y", _text_file(tmp, "Y_inf.csv", "1\n" * 39 + "inf\n"),
    )),
    "fit_y_two_columns": ("y", lambda tmp, data: _fit_argv(
        data, "--y", _text_file(tmp, "Y_wide.csv", "1,2\n" * 20),
    )),
    "fit_y_huge": ("y", lambda tmp, data: _fit_argv(
        data, "--y", _text_file(tmp, "Y_huge.csv", "1\n" * 39 + "1e19\n"),
    )),
    "fit_beta_tilde_nan": ("beta-tilde", lambda tmp, data: _fit_argv(
        data, "--beta-tilde", _vector_file(tmp, [0.9, float("nan"), 0.0]),
    )),
    "check_beta_star_nan": ("beta-star", lambda tmp, data: [
        *_check_argv(data), "--beta-star", _vector_file(tmp, [0.9, float("nan"), 0.0]),
    ]),
    "check_beta_star_one_row": ("beta-star", lambda tmp, data: [
        *_check_argv(data), "--beta-star", _text_file(tmp, "beta_row.csv", "0.9,-0.7,0\n"),
    ]),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_INPUTS))
def test_out_of_range_input_exits_one_with_field_path(case, tmp_path, small_dataset, capsys):
    # A negative tau made irrepresentability pass trivially and tau > 1 always
    # aborted under "design"; check ran its events at any alpha.
    field_path, argv = OUT_OF_RANGE_INPUTS[case]
    code = main(argv(tmp_path, small_dataset))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {field_path}: "), err
    assert not (tmp_path / "out").exists()


def test_empty_input_file_is_one_stderr_line(small_dataset, tmp_path, capsys):
    # numpy's "input contained no data" warning used to precede the error.
    code = main(_fit_argv(small_dataset, "--x", _text_file(tmp_path, "empty.csv", "")))
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: x: {tmp_path / 'empty.csv'}: contains no data"]


def test_check_factorises_once_per_blocked_gram(small_dataset, cho_factor_calls, capsys):
    # check builds two blocked Grams: one for the condition report (shared by
    # the irrepresentability vector) and one for the events.
    assert main(_check_argv(small_dataset, "--beta-tilde", "oracle:1.0", "--alpha", "2.0")) == 0
    assert len(cho_factor_calls) == 2


def test_tau_bounds_are_valid(tmp_path, small_dataset, capsys):
    for tau in (0.0, 1.0):
        argv = _check_argv(small_dataset, "--constants", _constants_file(tmp_path, {"tau": tau}))
        assert main(argv) in (0, 3)
    assert ExperimentConfig(
        design=DesignSpec(kind="iid_gaussian"), beta_star=CoefVector([1.0, 0.0]),
        n_grid=(10,), c1=1.0, c2=0.5, alpha_coef=1.0, replicates=1, seed=0, tau=0.0,
    ).tau == 0.0


def test_config_round_trips_through_json():
    config = ExperimentConfig(
        design=DesignSpec(kind="file", scale=0.5, rho=0.1, row_norm_cap=3.0, path="X.csv"),
        beta_star=CoefVector([1.0, -0.5, 0.0]),
        n_grid=(50, 100),
        c1=0.9,
        c2=0.4,
        alpha_coef=1.5,
        replicates=3,
        seed=7,
        beta_tilde_mode="mle",
        tau=0.5,
        redraw_design=True,
        max_sweeps=50,
        solver_tol=1e-7,
        kkt_tol=1e-5,
        constants=AssumptionConstants(
            max_row_norm=1.0, max_col_norm=2.0, min_eigen_active=0.1,
            max_eigen_cross12=0.2, max_eigen_cross21=0.3, max_eigen_inactive=4.0,
            min_beta_scaled=0.5, c1=0.8, tau=0.6,
        ),
    )
    dumped = jsonable(config)
    assert jsonable(from_json(ExperimentConfig, dumped, "")) == dumped


def test_simulate_rerun_is_byte_identical(tmp_path):
    config = _experiment_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
    for name in ("results.csv", "summary.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_thread_count_does_not_change_bytes(tmp_path):
    config = _experiment_config(tmp_path)
    out1 = tmp_path / "serial"
    out2 = tmp_path / "threaded"
    assert main(["simulate", "--config", str(config), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2), "--threads", "8"]) == 0
    for name in ("results.csv", "summary.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_starts_no_thread(tmp_path, monkeypatch):
    config = _experiment_config(tmp_path)
    serial = tmp_path / "serial"
    assert main(["simulate", "--config", str(config), "--out", str(serial), "--threads", "1"]) == 0

    def refuse(thread):
        raise AssertionError(f"simulate started thread {thread.name}")

    # With no thread able to start, even a huge --threads value is safe to run.
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for threads in ("8", "1000000000"):
        out = tmp_path / f"threads{threads}"
        argv = ["simulate", "--config", str(config), "--out", str(out), "--threads", threads]
        assert main(argv) == 0
        for name in ("results.csv", "summary.csv", "report.json"):
            assert (out / name).read_bytes() == (serial / name).read_bytes()


def test_seed_override_changes_results(tmp_path):
    config = _experiment_config(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2), "--seed", "1"]) == 0
    assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


def _child_env(**overrides):
    """The parent environment, importing the same ``signlasso`` as this test.

    The directory holding the imported package goes first on ``PYTHONPATH``
    as an absolute path, so the child runs the code under test whatever its
    working directory and whether or not the package is installed.
    """
    package_root = str(Path(signlasso.__file__).resolve().parent.parent)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    env.update(overrides)
    return env


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "signlasso.cli", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_stdout_stays_machine_readable_under_debug_logging(tmp_path):
    config = _experiment_config(tmp_path, replicates=3, n_grid=[60])
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable, "-m", "signlasso.cli", "simulate",
            "--config", str(config), "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=_child_env(SIGNLASSO_LOG="debug"),
    )
    assert proc.returncode == 0
    # stdout carries only artifact paths; the log lines land on stderr.
    lines = proc.stdout.strip().splitlines()
    assert [line.rsplit("/", 1)[-1] for line in lines] == [
        "results.csv", "summary.csv", "report.json",
    ]
    assert "replicates ok" in proc.stderr


def test_unconverged_mle_warning_shows_at_the_default_level(small_dataset, monkeypatch, capsys):
    monkeypatch.delenv("SIGNLASSO_LOG", raising=False)
    real_fit_mle = cli.fit_mle

    def unconverged(X, counts):
        return replace(real_fit_mle(X, counts), converged=False)

    monkeypatch.setattr(cli, "fit_mle", unconverged)
    code = main([
        "fit", "--x", str(small_dataset["x"]), "--y", str(small_dataset["y"]),
        "--alpha", "2.0", "--out", str(small_dataset["out"]),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == str(small_dataset["out"] / "fit.json")
    assert captured.err.startswith("WARNING signlasso: MLE stopped without convergence")


def test_unknown_log_level_is_named_on_one_stderr_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SIGNLASSO_LOG", "verbose")
    missing = str(tmp_path / "missing.csv")
    code = main([
        "fit", "--x", missing, "--y", missing, "--alpha", "1.0", "--out", str(tmp_path / "out"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    # The unknown name costs one line; the run goes on at the warning level.
    warning, error = captured.err.splitlines()
    assert warning.startswith("WARNING signlasso: unknown SIGNLASSO_LOG level 'verbose'")
    assert error.startswith("error: ")
    assert logging.getLogger("signlasso").level == logging.WARNING
