"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import argparse
import errno
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from copy import deepcopy
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signlasso
import signlasso.cli as cli
import signlasso.harness as harness
from signlasso import AssumptionConstants, CoefVector, DesignSpec, ExperimentConfig, blas
from signlasso.cli import build_parser, main
from signlasso.schema import from_json, jsonable
from signlasso.fileio import (
    read_counts_csv,
    read_matrix_csv,
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


# Each bound of AssumptionConstants: the statistic it bounds in report.json,
# its key in "passes", and the direction in which a value is beyond it.
CONSTANT_BOUNDS = {
    "max_row_norm": ("row_norm_max", "row_norms", -math.inf),
    "max_col_norm": ("col_norm_max", "col_norms", -math.inf),
    "min_eigen_active": ("lambda_min_C11", "eigen_active", math.inf),
    "max_eigen_cross12": ("lambda_max_C12", "eigen_cross12", -math.inf),
    "max_eigen_cross21": ("lambda_max_C21", "eigen_cross21", -math.inf),
    "max_eigen_inactive": ("lambda_max_C22", "eigen_inactive", -math.inf),
    "min_beta_scaled": ("beta_min_scaled", "beta_min", math.inf),
}


@pytest.mark.parametrize("bound", sorted(CONSTANT_BOUNDS))
def test_check_bound_passes_at_its_statistic_and_fails_one_ulp_beyond(bound, tmp_path,
                                                                       small_dataset):
    statistic, key, beyond = CONSTANT_BOUNDS[bound]

    def check(name, *extra):
        out = tmp_path / name
        code = main([*_check_argv(small_dataset), "--out", str(out), *extra])
        return code, json.loads((out / "report.json").read_text())["conditions"]

    code, observed = check("observed")
    assert code == 0 and observed["all_passed"]
    value = observed[statistic]
    assert value > 0.0
    for name, limit, expected_code in [
        ("at", value, 0), ("beyond", float(np.nextafter(value, beyond)), 3),
    ]:
        path = tmp_path / f"constants_{name}.json"
        path.write_text(json.dumps({bound: limit}))
        code, conditions = check(name, "--constants", str(path))
        assert code == expected_code
        assert conditions[statistic] == value
        assert conditions["passes"] == {"irrepresentable": True, key: expected_code == 0}


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


# The tests' small simulate config.
SMALL_CONFIG = {
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


def _experiment_config(tmp_path, **overrides):
    config = {**SMALL_CONFIG, **overrides}
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


def _rank_deficient_inputs(tmp_path):
    # A 50 x 3 design whose first two columns are equal, and counts for it.
    rng = np.random.default_rng(11)
    x = rng.standard_normal((50, 2))
    x_path, y_path = tmp_path / "X_rank2.csv", tmp_path / "Y_rank2.csv"
    write_matrix_csv(x_path, np.column_stack([x[:, 0], x[:, 0], x[:, 1]]))
    write_counts_csv(y_path, rng.poisson(1.0, 50))
    return ["--x", str(x_path), "--y", str(y_path)]


def _ones_column_design(tmp_path):
    # With an all-ones column, beta* = (45, 0) puts every intensity at
    # e^45 (about 3.5e19), above the sampler's 2**62.
    x = np.random.default_rng(7).standard_normal(60)
    path = tmp_path / "X_ones.csv"
    write_matrix_csv(path, np.column_stack([np.ones(60), x]))
    return str(path)


def _overflowing_predictor_inputs(tmp_path):
    # A 40 x 2 design with a row (1e300, 1e300): at beta-tilde (1e10, -1e10)
    # its linear predictor overflows inside X @ beta.
    rows = "1e300,1e300\n" + "0.5,-0.5\n" * 39
    return [
        "--x", _text_file(tmp_path, "X_huge_row.csv", rows),
        "--beta-tilde", _text_file(tmp_path, "beta_tilde_huge.csv", "1e10\n-1e10\n"),
    ]


def _simulate_design_argv(tmp_path, **design):
    return _simulate_argv(tmp_path, design={"kind": "correlated_gaussian", **design})


BAD_INPUTS = {
    "tau": lambda tmp, data: _simulate_argv(tmp, tau=float("nan")),
    "alpha_coef": lambda tmp, data: _simulate_argv(tmp, alpha_coef=float("inf")),
    "max_sweeps": lambda tmp, data: _simulate_argv(tmp, max_sweeps=0),
    "design.scale": lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "iid_gaussian", "scale": "x"}
    ),
    "design.kind": lambda tmp, data: _simulate_argv(tmp, design={"kind": "nope"}),
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
    # The reference reports use the top-level c1; constants.c1 = 0.3 used to
    # run, although it breaks c2 < c1.
    "simulate_constants_c1": ("constants.c1", lambda tmp, data: _simulate_argv(
        tmp, constants={"c1": 0.3}
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
    "simulate_reference_intensity_too_large": ("design", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "file", "path": _ones_column_design(tmp)},
        beta_star=[45.0, 0.0], n_grid=[60], replicates=3,
    )),
    # An mle sweep with an n below p used to exit 0, every replicate at that
    # n failing with "RankDeficientError: need n >= p, got n=5, p=6".
    "simulate_mle_n_below_p": ("n_grid", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "iid_gaussian"}, beta_star=[1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        n_grid=[5, 60], seed=1, tau=0.0, beta_tilde_mode="mle",
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
    # A non-finite oracle scale used to pass validation: simulate then failed
    # every replicate, and fit and check named no field.
    "simulate_oracle_scale_nan": ("beta_tilde_mode", lambda tmp, data: _simulate_argv(
        tmp, beta_tilde_mode="oracle:nan"
    )),
    "simulate_oracle_scale_overflows": ("beta_tilde_mode", lambda tmp, data: _simulate_argv(
        tmp, beta_tilde_mode="oracle:1e400"
    )),
    "fit_oracle_scale_inf": ("beta-tilde", lambda tmp, data: _fit_argv(
        data, "--beta-tilde", "oracle:inf", "--beta-star", str(data["beta_star"]),
    )),
    "check_oracle_scale_nan": ("beta-tilde", lambda tmp, data: _check_argv(
        data, "--beta-tilde", "oracle:nan"
    )),
    # check used to name no flag for an all-zero --beta-star, and fit and
    # check none for an expansion point whose intensities overflow.
    "check_beta_star_all_zero": ("beta-star", lambda tmp, data: [
        *_check_argv(data), "--beta-star", _vector_file(tmp, [0.0, 0.0, 0.0]),
    ]),
    "fit_beta_tilde_overflows": ("beta-tilde", lambda tmp, data: _fit_argv(
        data, "--beta-tilde", _vector_file(tmp, [400.0, 0.0, 0.0]),
    )),
    "check_oracle_scale_overflows": ("beta-tilde", lambda tmp, data: _check_argv(
        data, "--beta-tilde", "oracle:1e300"
    )),
    # The MLE's rank check used to name no flag.
    "fit_mle_rank_deficient": ("beta-tilde", lambda tmp, data: _fit_argv(
        data, *_rank_deficient_inputs(tmp)
    )),
    "check_mle_rank_deficient": ("beta-tilde", lambda tmp, data: _check_argv(
        data, *_rank_deficient_inputs(tmp)
    )),
    # An integer literal beyond the largest float used to print "int too large
    # to convert to float" and name no field.
    "simulate_alpha_coef_huge_int": ("alpha_coef", lambda tmp, data: _simulate_argv(
        tmp, alpha_coef=10**400
    )),
    "design_scale_huge_int": ("design.scale", lambda tmp, data: _simulate_design_argv(
        tmp, scale=10**400
    )),
    "simulate_beta_star_huge_int": ("beta_star[1]", lambda tmp, data: _simulate_argv(
        tmp, beta_star=[1.0, -10**400, 0.0, 0.0]
    )),
    "check_constants_huge_int": ("constants.max_row_norm", lambda tmp, data: _check_argv(
        data, "--constants", _constants_file(tmp, {"max_row_norm": 10**400})
    )),
    "simulate_n_grid_huge_int": ("n_grid", lambda tmp, data: _simulate_argv(
        tmp, n_grid=[60, 10**400]
    )),
    # An n too large for an n x p float64 array used to run the smaller n
    # first and then print numpy's error without a field.
    "simulate_n_grid_beyond_array_dimensions": ("n_grid", lambda tmp, data: _simulate_argv(
        tmp, n_grid=[60, 10**30]
    )),
    "simulate_n_grid_array_too_big": ("n_grid", lambda tmp, data: _simulate_argv(
        tmp, n_grid=[60, 2**62]
    )),
    # A scale whose design or row norms overflow used to print numpy's
    # overflow warning and a singular-block error on "design", or, for the
    # correlated generator, "(34, 'Numerical result out of range')".
    "design_iid_scale_overflows_row_norms": ("design.scale", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "iid_gaussian", "scale": 1e160}
    )),
    "design_iid_scale_overflows": ("design.scale", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "iid_gaussian", "scale": 1e300}
    )),
    "design_orthogonal_ish_scale_overflows": ("design.scale", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "orthogonal_ish", "scale": 1e300}
    )),
    "design_correlated_scale_overflows": ("design.scale", lambda tmp, data: _simulate_design_argv(
        tmp, scale=1e160
    )),
    "design_file_row_norms_overflow": ("design.path", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "file", "row_norm_cap": 1.0, "path": _text_file(
            tmp, "X.csv", "1e200,1,0,1\n" * 120
        )}
    )),
    # Without a cap, rows that overflow used to print numpy's warnings, exit
    # 0 with nulls in report.json and fail every replicate.
    "design_file_row_norms_overflow_uncapped": ("design.path", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "file", "path": _text_file(
            tmp, "X.csv", "1,0,1e200,0\n" + "1,0,0,1\n" * 119
        )}
    )),
    # An expansion point whose X @ beta overflows used to print numpy's
    # overflow warning and its source line before the error.
    "fit_beta_tilde_predictor_overflows": ("beta-tilde", lambda tmp, data: _fit_argv(
        data, *_overflowing_predictor_inputs(tmp)
    )),
    "check_beta_tilde_predictor_overflows": ("beta-tilde", lambda tmp, data: _check_argv(
        data, *_overflowing_predictor_inputs(tmp),
        "--beta-star", _text_file(tmp, "beta_star_2.csv", "0.9\n0\n"),
    )),
    # c1 outside (0, 1] used to be reported on c2.
    "simulate_c1_above_one": ("c1", lambda tmp, data: _simulate_argv(tmp, c1=1.5)),
    # A file design of the wrong shape or with a non-finite entry used to
    # name no field.
    "design_file_too_few_rows": ("design.path", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "file", "path": _text_file(tmp, "X.csv", "1,0,0,1\n" * 50)}
    )),
    "design_file_wrong_columns": ("design.path", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "file", "path": _text_file(tmp, "X.csv", "1,0,1\n" * 120)}
    )),
    "design_file_nan": ("design.path", lambda tmp, data: _simulate_argv(
        tmp, design={"kind": "file", "path": _text_file(
            tmp, "X.csv", "nan,0,0,1\n" + "1,0,0,1\n" * 119
        )}
    )),
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
    assert err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


# A finite alpha_coef whose penalty at the largest n overflows used to be
# reported as "must be finite and nonnegative, got inf".
OVERFLOWING_PENALTY = {
    "config": lambda tmp: _simulate_argv(tmp, alpha_coef=1e308),
    "flag": lambda tmp: [*_simulate_argv(tmp), "--alpha", "1e308"],
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_PENALTY))
def test_overflowing_penalty_is_named(case, tmp_path, capsys):
    code = main(OVERFLOWING_PENALTY[case](tmp_path))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: alpha_coef: 1e+308 * n^((c2+1)/2) overflows the largest float at n=120\n"
    )
    assert not (tmp_path / "out").exists()


def test_simulate_alpha_flag_gives_the_bytes_of_the_config_field(tmp_path):
    outs = []
    for name, config, extra in [
        ("flag", {}, ["--alpha", "2.5"]),
        ("field", {"alpha_coef": 2.5}, []),
    ]:
        run_dir = tmp_path / name
        run_dir.mkdir()
        assert main([*_simulate_argv(run_dir, **config), *extra]) == 0
        outs.append(run_dir / "out")
    for artifact in ("results.csv", "summary.csv", "report.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
    # The override is in effect: the field's default run differs.
    default = tmp_path / "default"
    default.mkdir()
    assert main(_simulate_argv(default)) == 0
    assert (default / "out" / "results.csv").read_bytes() != (
        outs[0] / "results.csv").read_bytes()


_FLOAT_FIELDS = (
    "c1", "c2", "alpha_coef", "tau", "solver_tol", "kkt_tol",
    "design.scale", "design.rho", "design.row_norm_cap",
)
_INT_FIELDS = ("replicates", "seed", "max_sweeps")
_REQUIRED_FIELDS = (
    "design", "design.kind", "beta_star", "n_grid", "c1", "c2", "alpha_coef", "replicates", "seed",
)
_BEYOND_FLOAT = st.sampled_from([10**400, -(10**400), 2**1024])
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _at_most(bound):
    return st.floats(max_value=bound, allow_nan=False, allow_infinity=False)


def _below(bound):
    return _at_most(bound).filter(lambda x: x < bound)


def _above(bound):
    return st.floats(min_value=bound, exclude_min=True, allow_nan=False, allow_infinity=False)


# Values invalid by range for each field.
_OUT_OF_RANGE = {
    "c1": st.one_of(_at_most(0.0), _above(1.0)),
    "c2": st.one_of(_at_most(0.0), st.floats(1.0, 1e308)),
    "tau": st.one_of(_below(0.0), _above(1.0)),
    "alpha_coef": _below(0.0),
    "solver_tol": _at_most(0.0),
    "kkt_tol": _at_most(0.0),
    "design.scale": st.one_of(_at_most(0.0), st.floats(1e160, 1e308)),
    "design.rho": st.one_of(_at_most(-1.0), st.floats(1.0, 1e308)),
    "design.row_norm_cap": _at_most(0.0),
    "replicates": st.integers(-(2**70), 0),
    "seed": st.integers(-(2**70), -1),
    "max_sweeps": st.integers(-(2**70), 0),
}


def _set(config, path, value):
    *parents, key = path.split(".")
    for name in parents:
        config = config[name]
    config[key] = value


def _drop(config, path):
    *parents, key = path.split(".")
    for name in parents:
        config = config[name]
    del config[key]


@st.composite
def _bad_simulate_configs(draw):
    """The small simulate config with one invalid value, and the field path it is reported on."""
    config = deepcopy(SMALL_CONFIG)
    kind = draw(st.sampled_from([
        "drop", "unknown", "float_type", "int_type", "other_type", "range", "huge_float",
        "non_finite", "beyond_float", "n_grid",
    ]))
    if kind == "drop":
        path = draw(st.sampled_from(_REQUIRED_FIELDS))
        _drop(config, path)
    elif kind == "unknown":
        # No field of the schema starts with "x_".
        path = draw(st.sampled_from(["", "design."])) + "x_" + draw(
            st.text("abcdefghijklmnopqrstuvwxyz_", max_size=12)
        )
        _set(config, path, draw(st.integers(0, 3)))
    elif kind == "float_type":
        path = draw(st.sampled_from(_FLOAT_FIELDS))
        bad = st.one_of(st.text(max_size=5), st.booleans(), st.lists(st.integers(), max_size=2))
        if path != "design.row_norm_cap":
            bad = st.one_of(bad, st.none())
        _set(config, path, draw(bad))
    elif kind == "int_type":
        path = draw(st.sampled_from(_INT_FIELDS))
        _set(config, path, draw(st.one_of(
            st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=5), st.booleans(),
            st.none(),
        )))
    elif kind == "other_type":
        path, bad = draw(st.sampled_from([
            ("redraw_design", st.one_of(st.integers(), st.text(max_size=5), st.none())),
            ("beta_tilde_mode", st.one_of(st.integers(), st.floats(allow_nan=False), st.none())),
            ("design", st.one_of(st.integers(), st.text(max_size=5), st.lists(st.integers()))),
            ("design.kind", st.one_of(st.integers(), st.booleans(), st.none())),
            ("beta_star", st.one_of(st.integers(), st.text(max_size=5), st.none())),
            ("n_grid", st.one_of(st.integers(), st.text(max_size=5), st.none())),
            ("constants", st.one_of(st.integers(), st.text(max_size=5), st.lists(st.integers()))),
        ]))
        _set(config, path, draw(bad))
    elif kind == "range":
        path = draw(st.sampled_from(sorted(_OUT_OF_RANGE)))
        _set(config, path, draw(_OUT_OF_RANGE[path]))
    elif kind == "huge_float":
        path = draw(st.sampled_from(["c1", "c2", "tau", "design.scale", "design.rho"]))
        _set(config, path, draw(st.floats(1e160, 1e308)))
    elif kind == "non_finite":
        path = draw(st.sampled_from(_FLOAT_FIELDS))
        _set(config, path, draw(_NON_FINITE))
    elif kind == "beyond_float":
        path = draw(st.sampled_from(_FLOAT_FIELDS + ("beta_star",)))
        if path == "beta_star":
            k = draw(st.integers(0, len(config["beta_star"]) - 1))
            config["beta_star"][k] = draw(_BEYOND_FLOAT)
            path = f"beta_star[{k}]"
        else:
            _set(config, path, draw(_BEYOND_FLOAT))
    else:
        # An entry not above the one before it, not positive, beyond a float
        # or too large for an n x p float64 array.
        path = "n_grid"
        config["n_grid"] = draw(st.sampled_from([
            [60, 60], [120, 60], [0, 60], [-5, 60], [60, 10**400], [],
            [60, draw(st.integers(2**59, 10**30))],
        ]))
    return config, path


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(_bad_simulate_configs())
def test_bad_simulate_config_is_one_field_path_line(case):
    config, path = case
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "experiment.json"
        config_path.write_text(json.dumps(config))
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["simulate", "--config", str(config_path), "--out", str(Path(tmp) / "out")])
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), (path, lines)
        assert out.getvalue() == ""
        assert not (Path(tmp) / "out").exists()


_CONSTANTS_FIELDS = tuple(AssumptionConstants.__dataclass_fields__)


@st.composite
def _bad_constants(draw):
    """A valid ``check --constants`` object with one mutation, and the field it is reported on.

    Every field has a default, so a dropped key alone is valid: a dropped
    key comes back under a name the schema does not know.
    """
    constants = draw(st.fixed_dictionaries({}, optional={
        **{name: st.one_of(st.none(), st.floats(-10.0, 10.0)) for name in _CONSTANTS_FIELDS},
        "c1": st.floats(0.01, 1.0), "tau": st.floats(0.0, 1.0),
    }))
    kind = draw(st.sampled_from(
        ["dropped", "unknown", "type", "non_finite", "beyond_float", "range"]
    ))
    # No field of AssumptionConstants starts with "x_".
    unknown = "x_" + draw(st.text("abcdefghijklmnopqrstuvwxyz_", max_size=12))
    if kind == "dropped":
        field = draw(st.sampled_from(_CONSTANTS_FIELDS))
        constants[unknown] = constants.pop(field, 1.0)
        return constants, unknown
    if kind == "unknown":
        constants[unknown] = draw(st.one_of(st.none(), st.floats(allow_nan=False)))
        return constants, unknown
    field = draw(st.sampled_from(("c1", "tau") if kind == "range" else _CONSTANTS_FIELDS))
    constants[field] = draw({
        "type": st.one_of(st.text(max_size=5), st.booleans(), st.lists(st.integers(), max_size=2),
                          st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)),
        "non_finite": _NON_FINITE,
        "beyond_float": _BEYOND_FLOAT,
        "range": _OUT_OF_RANGE[field] if field == "tau" else _OUT_OF_RANGE["c1"],
    }[kind])
    return constants, field


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_bad_constants())
def test_bad_constants_file_is_one_field_path_line(case):
    constants, field = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(signlasso.cli, "expansion_point", _no_work)
        data = {"x": Path(tmp) / "X.csv", "y": Path(tmp) / "Y.csv",
                "beta_star": Path(tmp) / "b.csv", "out": Path(tmp) / "out"}
        write_matrix_csv(data["x"], np.eye(3))
        write_counts_csv(data["y"], np.array([1, 2, 3]))
        write_vector_csv(data["beta_star"], np.array([1.0, 0.0, 0.0]))
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(_check_argv(data, "--constants", _constants_file(Path(tmp), constants)))
        assert code == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: constants.{field}: "), lines
        assert out.getvalue() == ""
        assert not data["out"].exists()


def test_empty_input_file_is_one_stderr_line(small_dataset, tmp_path, capsys):
    # numpy's "input contained no data" warning used to precede the error.
    code = main(_fit_argv(small_dataset, "--x", _text_file(tmp_path, "empty.csv", "")))
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: x: {tmp_path / 'empty.csv'}: contains no data"]


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"{\"c1\": ", "Expecting value: line 1 column 8 (char 7)"),
], ids=["non_utf8", "invalid_json"])
@pytest.mark.parametrize("command", ["simulate", "check"])
def test_unreadable_json_input_names_its_file(command, content, reason, small_dataset, tmp_path,
                                              capsys):
    # simulate --config and check --constants read their JSON the same way.
    path = tmp_path / "input.json"
    path.write_bytes(content)
    if command == "simulate":
        argv = ["simulate", "--config", str(path), "--out", str(small_dataset["out"])]
    else:
        argv = _check_argv(small_dataset, "--constants", str(path))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: not valid JSON ({reason})"]
    assert not small_dataset["out"].exists()


DIRECTORY_INPUTS = {
    "config": lambda tmp, data, d: ["simulate", "--config", d, "--out", str(data["out"])],
    "constants": lambda tmp, data, d: _check_argv(data, "--constants", d),
    "x": lambda tmp, data, d: _fit_argv(data, "--x", d),
    "y": lambda tmp, data, d: _fit_argv(data, "--y", d),
    "beta-star": lambda tmp, data, d: _fit_argv(data, "--beta-star", d),
    "beta-tilde": lambda tmp, data, d: _check_argv(data, "--beta-tilde", d),
}


@pytest.mark.parametrize("option", sorted(DIRECTORY_INPUTS))
def test_directory_input_names_its_path(option, small_dataset, tmp_path, capsys):
    # An OSError on an input file used to print as "[Errno 21] Is a directory: '...'".
    directory = tmp_path / "a_directory"
    directory.mkdir()
    code = main(DIRECTORY_INPUTS[option](tmp_path, small_dataset, str(directory)))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {directory}: Is a directory"]
    assert not small_dataset["out"].exists()


def _no_work(*args):
    raise AssertionError("the work ran")


@pytest.mark.parametrize("command, below", [
    ("simulate", ""), ("simulate", "sub/dir"), ("fit", ""), ("fit", "sub/dir"),
    ("check", ""), ("check", "sub/dir"),
], ids=["out", "ancestor", "fit-out", "fit-ancestor", "check-out", "check-ancestor"])
def test_simulate_refuses_an_out_file_before_the_sweep(
    command, below, small_dataset, tmp_path, monkeypatch, capsys
):
    # The sweep, or fit's and check's MLE, used to run in full before mkdir
    # failed on the file.
    monkeypatch.setattr(signlasso.cli, "run_experiment", _no_work)
    monkeypatch.setattr(signlasso.cli, "expansion_point", _no_work)
    file = tmp_path / "out"
    file.write_text("keep me\n")
    out = str(file / below) if below else str(file)
    if command == "simulate":
        argv = ["simulate", "--config", str(_experiment_config(tmp_path)), "--out", out]
    else:
        argv = {"fit": _fit_argv, "check": _check_argv}[command]({**small_dataset, "out": out})
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {file}: exists and is not a directory"]
    assert file.read_text() == "keep me\n"


def _argv(command, data, tmp_path):
    """``command``'s arguments on the small dataset or the small config, into data's out."""
    if command == "simulate":
        config = str(_experiment_config(tmp_path))
        return ["simulate", "--config", config, "--out", str(data["out"])]
    return {"fit": _fit_argv, "check": _check_argv}[command](data)


def _entries(out):
    """The bytes of every entry in ``out``, by name; a directory maps to None."""
    return {path.name: None if path.is_dir() else path.read_bytes() for path in out.iterdir()}


def test_a_failed_simulate_keeps_the_previous_set_whole(tmp_path, monkeypatch, capsys):
    # simulate used to write seed 2's results.csv, print its path and fail on
    # summary.csv, leaving it beside seed 1's report.json.
    config, out = str(_experiment_config(tmp_path)), tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out), "--seed", "1"]) == 0
    (out / "summary.csv").unlink()
    (out / "summary.csv").mkdir()
    before = _entries(out)
    capsys.readouterr()
    monkeypatch.setattr(signlasso.cli, "run_experiment", _no_work)
    code = main(["simulate", "--config", config, "--out", str(out), "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {out / 'summary.csv'}: exists and is not a file"]
    assert _entries(out) == before


@pytest.mark.parametrize("command, name", [
    ("fit", "fit.json"), ("check", "report.json"), ("simulate", "results.csv"),
    ("simulate", "report.json"),
])
def test_an_artifact_path_that_is_not_a_file_is_refused_before_any_work(
    command, name, small_dataset, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(signlasso.cli, "run_experiment", _no_work)
    monkeypatch.setattr(signlasso.cli, "expansion_point", _no_work)
    out = small_dataset["out"]
    (out / name).mkdir(parents=True)
    code = main(_argv(command, small_dataset, tmp_path))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {out / name}: exists and is not a file"]
    assert _entries(out) == {name: None}


def _full_disk(*args, **kwargs):
    # Part of the file is written before the disk fills up.
    (path,) = [arg for arg in args if isinstance(arg, Path)]
    path.write_text('{"trunc')
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))


@pytest.mark.parametrize("command, writer, name", [
    ("simulate", "write_report_json", "report.json"),
    ("simulate", "write_results_csv", "results.csv"),
    ("fit", "write_json", "fit.json"),
    ("check", "write_json", "report.json"),
])
def test_a_writer_that_fails_leaves_the_previous_set_and_no_temporary(
    command, writer, name, small_dataset, tmp_path, monkeypatch, capsys
):
    out, argv = small_dataset["out"], _argv(command, small_dataset, tmp_path)
    main(argv)
    before = _entries(out)
    capsys.readouterr()
    monkeypatch.setattr(signlasso.cli, writer, _full_disk)
    code = main([*argv, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {out / name}: No space left on device"]
    assert _entries(out) == before


@pytest.mark.parametrize("failing_call", [1, 2, 3])
def test_a_rename_that_fails_leaves_the_previous_set_whole(
    failing_call, tmp_path, monkeypatch, capsys
):
    # Into an existing set, the renames go: the old results.csv out, the new
    # one in, the old summary.csv out, ...  Before, a failure after the
    # first new file was in left it beside the old summary and report.
    config, out = str(_experiment_config(tmp_path)), tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out), "--seed", "1"]) == 0
    before = _entries(out)
    capsys.readouterr()
    real, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == failing_call:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(dst))
        real(src, dst)

    monkeypatch.setattr(signlasso.cli.os, "replace", replace)
    code = main(["simulate", "--config", config, "--out", str(out), "--seed", "2"])
    captured = capsys.readouterr()
    failed = "summary.csv" if failing_call == 3 else "results.csv"
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {out / failed}: No space left on device"]
    assert _entries(out) == before


def test_simulate_prints_the_set_only_once_it_is_in_place(tmp_path, monkeypatch, capsys):
    config, out = str(_experiment_config(tmp_path)), tmp_path / "out"
    real = signlasso.cli.write_report_json
    seen = []

    def write(result, path):
        # The last writer runs before any artifact takes its name or is printed.
        seen.append((sorted(p.name for p in out.iterdir() if not p.name.startswith(".")),
                     capsys.readouterr().out))
        real(result, path)

    monkeypatch.setattr(signlasso.cli, "write_report_json", write)
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    names = ["results.csv", "summary.csv", "report.json"]
    assert seen == [([], "")]
    assert capsys.readouterr().out.splitlines() == [str(out / name) for name in names]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


@pytest.mark.parametrize("field_path, argv", [
    ("alpha", lambda tmp, data: _fit_argv(data, "--alpha", "nan")),
    ("beta-star", lambda tmp, data: _check_argv(
        {**data, "beta_star": _text_file(tmp, "zero.csv", "0\n0\n0\n")}
    )),
    ("constants.tau", lambda tmp, data: _check_argv(
        data, "--constants", _constants_file(tmp, {"tau": -0.1})
    )),
], ids=["fit_alpha_nan", "check_zero_beta_star", "check_constants_tau"])
def test_a_bad_flag_is_refused_before_the_expansion_point(
    field_path, argv, small_dataset, tmp_path, monkeypatch, capsys
):
    # Each used to be refused only after the MLE had run.
    monkeypatch.setattr(signlasso.cli, "expansion_point", _no_work)
    code = main(argv(tmp_path, small_dataset))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field_path}: "), captured.err
    assert not small_dataset["out"].exists()


def test_each_command_takes_its_own_flags():
    # fit and check take five flags from one parent parser; a flag it drops,
    # or one a command adds again, changes these lists.
    (commands,) = [
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        name: sorted(option for action in parser._actions for option in action.option_strings)
        for name, parser in commands.items()
    }
    shared = ["--x", "--y", "--beta-tilde", "--seed", "--out", "-h", "--help"]
    assert options == {
        "fit": sorted(shared + ["--alpha", "--beta-star"]),
        "check": sorted(shared + ["--alpha", "--beta-star", "--constants"]),
        "simulate": sorted(
            ["--config", "--out", "--threads", "--seed", "--alpha", "-h", "--help"]
        ),
    }


# SMALL_CONFIG's fields but the design, as the inside of a JSON object.
_NO_DESIGN = json.dumps({k: v for k, v in SMALL_CONFIG.items() if k != "design"})[1:-1]


@pytest.mark.parametrize("command, text, key", [
    ("simulate", '{"c1": 0.9, "design": {"kind": "iid_gaussian"}, ' + _NO_DESIGN + "}", "c1"),
    ("simulate", '{"design": {"kind": "iid_gaussian", "scale": 1.0, "scale": 2.0}, '
     + _NO_DESIGN + "}", "scale"),
    ("check", '{"tau": 0.1, "tau": 0.2}', "tau"),
], ids=["top_level", "nested", "constants"])
def test_a_key_given_twice_names_its_file(command, text, key, small_dataset, tmp_path, capsys):
    # json.loads used to keep the last value without a word.
    path = tmp_path / "input.json"
    path.write_text(text)
    if command == "simulate":
        argv = ["simulate", "--config", str(path), "--out", str(small_dataset["out"])]
    else:
        argv = _check_argv(small_dataset, "--constants", str(path))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: key {key!r} is given twice"]
    assert not small_dataset["out"].exists()


def test_check_factorises_once_per_blocked_gram(small_dataset, cho_factor_calls, capsys):
    # check builds one blocked Gram; the condition report, the
    # irrepresentability vector and the events share its factorisation.
    assert main(_check_argv(small_dataset, "--beta-tilde", "oracle:1.0", "--alpha", "2.0")) == 0
    assert len(cho_factor_calls) == 1


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


def test_simulate_reference_report_uses_the_top_level_c1(tmp_path):
    # beta_min_scaled is n^((1 - c1) / 2) * min |beta*_active|; it used to
    # read the default c1 = 1 and report 1.0.
    argv = _simulate_argv(tmp_path, c1=0.6, c2=0.5, n_grid=[400], replicates=1)
    assert main(argv) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["conditions"]["400"]["beta_min_scaled"] == pytest.approx(400**0.2)


def test_simulate_report_echoes_the_constants_it_used(tmp_path):
    # report.json used to echo the constants block's default c1 = 1 and
    # tau = 0.67 while the reference reports used the top-level 0.9 and 0.3.
    argv = _simulate_argv(
        tmp_path, c1=0.9, tau=0.3, n_grid=[400], replicates=1, constants={"max_row_norm": 10}
    )
    assert main(argv) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    constants = report["config"]["constants"]
    assert (constants["c1"], constants["tau"], constants["max_row_norm"]) == (0.9, 0.3, 10)
    assert report["conditions"]["400"]["beta_min_scaled"] == pytest.approx(400**0.05)


def test_simulate_rerun_is_byte_identical(tmp_path):
    config = _experiment_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
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
    real_fit_mle = harness.fit_mle

    def unconverged(X, counts):
        return replace(real_fit_mle(X, counts), converged=False)

    monkeypatch.setattr(harness, "fit_mle", unconverged)
    code = main([
        "fit", "--x", str(small_dataset["x"]), "--y", str(small_dataset["y"]),
        "--alpha", "2.0", "--out", str(small_dataset["out"]),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == str(small_dataset["out"] / "fit.json")
    assert captured.err.startswith("WARNING signlasso: MLE stopped without convergence")


@pytest.mark.parametrize("command", ["fit", "check"])
def test_converged_mle_is_logged_at_info_level(command, small_dataset, monkeypatch, capsys):
    argv = [
        command, "--x", str(small_dataset["x"]), "--y", str(small_dataset["y"]),
        "--beta-star", str(small_dataset["beta_star"]), "--alpha", "2.0",
        "--out", str(small_dataset["out"]),
    ]
    monkeypatch.delenv("SIGNLASSO_LOG", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("SIGNLASSO_LOG", "info")
    assert main(argv) == 0
    mle = signlasso.fit_mle(
        signlasso.DesignMatrix(read_matrix_csv(small_dataset["x"])),
        read_counts_csv(small_dataset["y"]),
    )
    assert capsys.readouterr().err.splitlines() == [
        f"INFO signlasso: MLE converged in {mle.iterations} iterations "
        f"(grad norm {mle.grad_norm:.3g})"
    ]


def test_simulate_records_an_unconverged_mle_as_a_failure(tmp_path, monkeypatch, capsys):
    real_fit_mle = harness.fit_mle

    def unconverged(X, counts):
        return replace(real_fit_mle(X, counts), converged=False)

    monkeypatch.setattr(harness, "fit_mle", unconverged)
    argv = _simulate_argv(tmp_path, beta_tilde_mode="mle", n_grid=[60], replicates=3)
    assert main(argv) == 0
    out = tmp_path / "out"
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(row.split(",")[2:7] == [""] * 5 for row in rows), rows
    report = json.loads((out / "report.json").read_text())
    assert [f["error"] for f in report["failures"]] == ["mle did not converge"] * 3


@pytest.mark.parametrize("mode, message", [
    ("oracle:1.0", "oracle mode requires --beta-star"),
    # A bad scale is reported before the missing --beta-star.
    ("oracle:abc", "bad oracle scale in beta_tilde mode 'oracle:abc'"),
    ("oracle:-1", "oracle scale must be nonnegative"),
])
def test_fit_oracle_mode_errors_name_beta_tilde(mode, message, small_dataset, capsys):
    code = main(_fit_argv(small_dataset, "--beta-tilde", mode))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: beta-tilde: {message}"]
    assert not small_dataset["out"].exists()


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


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

# p = 198, so a BLAS-threaded Gram product sums in another order, and in mle
# mode scipy's OpenBLAS factors the 198 x 198 Newton Hessian.
WIDE = {
    "design": {"kind": "correlated_gaussian", "rho": 0.2, "scale": 1.0},
    "beta_star": [1.0, -1.0] + [0.0] * 196,
    "n_grid": [1000],
    "c1": 1.0,
    "c2": 0.5,
    "alpha_coef": 1.0,
    "replicates": 4,
    "seed": 20260811,
    "beta_tilde_mode": "oracle:1.0",
    "tau": 0.0,
}


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    configs = {"oracle": WIDE, "mle": {**WIDE, "replicates": 3, "beta_tilde_mode": "mle"}}
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    script = (
        "import sys\nfrom signlasso.cli import main\n"
        "for name in ('oracle', 'mle'):\n"
        "    argv = ['simulate', '--config', name + '.json', '--out', sys.argv[1] + '/' + name]\n"
        "    assert main(argv) == 0\n"
    )
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script, f"threads{threads}"], cwd=tmp_path,
            env=_child_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    for name in configs:
        for artifact in ("results.csv", "summary.csv", "report.json"):
            one = (tmp_path / "threads1" / name / artifact).read_bytes()
            assert (tmp_path / "threads2" / name / artifact).read_bytes() == one, (name, artifact)


# Runs ``cli.main`` on ``sys.argv[2:]`` and prints its exit code, what each
# command saw on entry (whether scipy's OpenBLAS was mapped, and both
# libraries' thread counts) and the counts before and after it.  "warm" first
# loads scipy's library, as an earlier command would, and sets both libraries
# to 2 threads; "fresh" sets numpy's alone, so only the command can load scipy's.
_PIN_SCRIPT = """
import json, sys
import signlasso.cli as cli
from signlasso import blas

packages = ["numpy"]
if sys.argv[1] == "warm":
    blas.scipy_openblas()
    packages.append("scipy")

def threads(packages):
    return {package: blas._threads(package)[0]() for package in packages}

def entered(command):
    def run(args):
        with open("/proc/self/maps") as maps:
            loaded = "/libscipy_openblas-" in maps.read()
        seen.append([loaded, threads(["numpy", "scipy"])])
        return command(args)
    return run

for package in packages:
    blas._threads(package)[1](2)
seen, before = [], threads(packages)
for name in ("cmd_fit", "cmd_check", "cmd_simulate"):
    setattr(cli, name, entered(getattr(cli, name)))
code = cli.main(sys.argv[2:])
print(json.dumps([code, seen, before, threads(packages)]))
"""


def _pin_case(case: str, tmp: Path) -> tuple:
    """``(mode, argv, exit code)`` of one input of the pin test, made in ``tmp``."""
    paths = _exit_code_inputs(tmp)

    def data(x):
        return ["--x", str(x), "--y", str(paths["y"]), "--beta-star", str(paths["beta_star"])]

    out = ["--out", str(tmp / "out")]
    oracle, mle = ["--beta-tilde", "oracle:1.0"], ["--beta-tilde", "mle", "--alpha", "5"]
    simulate = ["simulate", "--config", str(paths["config"]), *out]
    cases = {
        "fit_oracle": (["fit", *data(paths["x"]), *oracle, "--alpha", "5", *out], 0),
        "fit_oracle_bad_alpha": (["fit", *data(paths["x"]), *oracle, "--alpha", "nan", *out], 1),
        "fit_mle": (["fit", *data(paths["x"]), *mle, *out], 0),
        "fit_mle_bad_out": (["fit", *data(paths["x"]), *mle, "--out", str(paths["x"] / "out")], 1),
        # These data's irrepresentable margin, about 0.65, is below the default tau.
        "check": (["check", *data(paths["x"]), "--constants",
                   _constants_file(tmp, {"tau": 0.3}), *out], 0),
        "check_singular_block": (["check", *data(_duplicate_column_design(tmp)), *oracle, *out], 4),
        "simulate": (simulate, 0),
        "simulate_bad_alpha": ([*simulate, "--alpha", "nan"], 1),
    }
    argv, code = cases[case.removesuffix("_fresh")]
    return "fresh" if case.endswith("_fresh") else "warm", argv, code


@pytest.mark.parametrize("case", [
    "fit_oracle", "fit_oracle_bad_alpha", "fit_oracle_fresh", "fit_mle", "fit_mle_bad_out",
    "check", "check_singular_block", "simulate", "simulate_bad_alpha",
])
def test_a_command_pins_both_libraries_and_restores_their_counts(case, tmp_path):
    # An oracle fit calls no LAPACK, so in a fresh process only the pin on
    # entry can have loaded scipy's OpenBLAS by the time the command runs.
    mode, argv, code = _pin_case(case, tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _PIN_SCRIPT, mode, *argv], cwd=tmp_path, env=_child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, seen, before, after = json.loads(proc.stdout.splitlines()[-1])
    assert exit_code == code, proc.stderr
    assert seen == [[True, {"numpy": 1, "scipy": 1}]]
    assert before == dict.fromkeys(before, 2) and after == before


def test_overlapping_commands_share_one_pin():
    # Two commands at once in one process, say on two threads, enter in the
    # order A, B and leave in the same order: the first entry pins both
    # libraries and the last exit gives back their counts from before it.
    libraries = [blas._threads(package) for package in ("numpy", "scipy")]
    earlier = [get() for get, _ in libraries]

    def threads():
        return [get() for get, _ in libraries]

    a, b = blas.one_thread(), blas.one_thread()
    try:
        for _, set_ in libraries:
            set_(2)
        seen = []
        a.__enter__()
        seen.append(threads())
        b.__enter__()
        seen.append(threads())
        a.__exit__(None, None, None)
        seen.append(threads())
        b.__exit__(None, None, None)
        assert seen == [[1, 1]] * 3
        assert threads() == [2, 2]
    finally:
        for (_, set_), count in zip(libraries, earlier):
            set_(count)


def test_each_command_pins_scipys_library_loaded_without_scipy_linalg(small_dataset):
    # Each fit opens scipy's OpenBLAS through ctypes on entry, the first
    # loading it, and pins it without importing scipy.linalg.  Between them
    # both libraries are set to 2 threads, and each command must give that
    # count back.
    script = (
        "import json, sys\nimport signlasso.cli as cli\nfrom signlasso import blas\n"
        "seen, after = [], []\nreal_fit = cli.fit\n"
        "def threads():\n"
        "    return [blas._threads(package)[0]() for package in ('numpy', 'scipy')]\n"
        "def fit(*args):\n    seen.append(threads())\n    return real_fit(*args)\n"
        "cli.fit = fit\n"
        "for _ in range(2):\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "    after.append(threads())\n"
        "    for package in ('numpy', 'scipy'):\n        blas._threads(package)[1](2)\n"
        "print(json.dumps([seen, after, 'scipy.linalg' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *_fit_argv(small_dataset, "--beta-tilde", "mle")],
        env=_child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    seen, after, linalg = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [[1, 1], [1, 1]]
    assert after == [[1, 1], [2, 2]]
    assert not linalg


def test_a_library_not_found_is_one_warning_and_the_command_runs(
        small_dataset, monkeypatch, capsys):
    # Both libraries are looked up once, on entry, and each one not found is
    # one warning however often the command's LAPACK calls run.
    monkeypatch.setattr(blas, "_threads", lambda package: None)
    assert main(_fit_argv(small_dataset, "--beta-tilde", "mle")) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == str(small_dataset["out"] / "fit.json")
    assert captured.err.splitlines() == [
        f"WARNING signlasso.blas: {package}'s OpenBLAS not found; it keeps its thread "
        "count, and results may depend on it" for package in ("numpy", "scipy")
    ]


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

# The exit codes of cli.py's table, by command.
_EXIT_CODES = {"fit": {0, 1, 2}, "check": {0, 1, 3, 4}, "simulate": {0, 1}}
_BAD_CELLS = st.sampled_from(["abc", "nan", "inf", "-inf", "1e999", "", "0x1"])
_BAD_COUNTS = st.sampled_from(["-1", "-7", "0.5", "2.5", "-3.25"])


def _exit_code_inputs(tmp: Path) -> dict:
    """A small valid fit/check input set, and a simulate config on the same design file."""
    rng = np.random.default_rng(401)
    X = 0.6 * rng.standard_normal((60, 3))
    beta_star = np.array([0.9, -0.7, 0.0])
    paths = {name: tmp / f"{name}.csv" for name in ("x", "y", "beta_star")}
    write_matrix_csv(paths["x"], X)
    write_counts_csv(paths["y"], rng.poisson(np.exp(X @ beta_star)))
    write_vector_csv(paths["beta_star"], beta_star)
    config = {**SMALL_CONFIG, "design": {"kind": "file", "path": str(paths["x"])},
              "beta_star": beta_star.tolist(), "n_grid": [60], "replicates": 2, "tau": 0.0}
    paths["config"] = tmp / "experiment.json"
    paths["config"].write_text(json.dumps(config))
    return paths


def _rewrite(path: Path, edit) -> None:
    """Replace the lines of a CSV file by ``edit(lines)``."""
    path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))


@st.composite
def _mutations(draw):
    """A command, one mutation of its valid inputs, and what the mutation draws."""
    command = draw(st.sampled_from(sorted(_EXIT_CODES)))
    mutation = draw(st.sampled_from([
        "bad_cell", "column_count", "missing_file", "bad_count", "bad_alpha", "duplicate_column",
    ]))
    files = ["x"] if command == "simulate" else ["x", "y", "beta_star"]
    drawn = {
        "mode": draw(st.sampled_from(["mle", "oracle:1.0"])),
        "file": draw(st.sampled_from(files)),
        "row": draw(st.integers(0, 59)),
        "col": draw(st.integers(0, 2)),
        "cell": draw(_BAD_CELLS),
        "count": draw(_BAD_COUNTS),
        "alpha": draw(st.sampled_from(["nan", "inf", "-inf", "-1", "-1e-300"])),
        "every_row": draw(st.booleans()),
        "missing": draw(st.sampled_from({
            "fit": ["--x", "--y", "--beta-star"],
            "check": ["--x", "--y", "--beta-star", "--constants"],
            "simulate": ["--config", "design"],
        }[command])),
    }
    return command, mutation, drawn


def _mutate(paths: dict, command: str, mutation: str, drawn: dict) -> list:
    """Apply ``mutation`` to the inputs in ``paths``; the argv that runs ``command`` on them."""
    if command == "simulate":
        options = {"--config": paths["config"]}
    else:
        options = {"--x": paths["x"], "--y": paths["y"], "--beta-star": paths["beta_star"],
                   "--beta-tilde": drawn["mode"], "--alpha": 5}
    path = paths[drawn["file"]]
    # A coefficient file has 3 rows.
    row = drawn["row"] % 3 if drawn["file"] == "beta_star" else drawn["row"]

    def at_row(line_edit):
        return lambda lines: [line_edit(line) if k == row else line for k, line in enumerate(lines)]

    if mutation == "bad_cell":
        def put(line):
            cells = line.split(",")
            cells[drawn["col"] % len(cells)] = drawn["cell"]
            return ",".join(cells)
        _rewrite(path, at_row(put))
    elif mutation == "column_count":
        # One row, or every row of a design, with a column too many.
        every_row = drawn["every_row"] and drawn["file"] == "x"
        _rewrite(path, lambda lines: [line + ",1" for line in lines] if every_row
                 else at_row(lambda line: line + ",1")(lines))
    elif mutation == "bad_count" and command == "simulate":
        config = json.loads(paths["config"].read_text())
        config["replicates"] = json.loads(drawn["count"])
        paths["config"].write_text(json.dumps(config))
    elif mutation == "bad_count":
        _rewrite(paths["y"], at_row(lambda line: drawn["count"]))
    elif mutation == "bad_alpha":
        options["--alpha"] = drawn["alpha"]
    elif mutation == "duplicate_column":
        # Columns 0 and 1 carry beta*'s two nonzero coefficients.
        _rewrite(paths["x"], lambda lines: [
            ",".join(line.split(",")[:1] * 2 + line.split(",")[2:]) for line in lines])
    elif drawn["missing"] == "design":
        paths["x"].unlink()
    else:
        options[drawn["missing"]] = paths["out"].parent / "missing.csv"
    # One token per option, so a negative --alpha is not read as a flag.
    return [command, *(f"{key}={value}" for key, value in options.items()),
            f"--out={paths['out']}"]


def _tree(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_mutations())
def test_a_mutated_input_gets_an_exit_code_of_the_table(case):
    command, mutation, drawn = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = _exit_code_inputs(Path(tmp))
        paths["out"] = Path(tmp) / "out"
        paths["out"].mkdir()
        (paths["out"] / "fit.json").write_text("an earlier fit\n")
        before = _tree(paths["out"])
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(_mutate(paths, command, mutation, drawn))
        assert code in _EXIT_CODES[command]
        expected = {1}
        if mutation == "duplicate_column" and drawn["mode"] == "oracle:1.0":
            # mle refuses the rank-deficient design, oracle mode fits it, and
            # check's two equal active columns are its singular-block exit.
            expected = {"fit": {0, 2}, "check": {4}, "simulate": {1}}[command]
        assert code in expected, (code, err.getvalue())
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert out.getvalue() == ""
            assert _tree(paths["out"]) == before
