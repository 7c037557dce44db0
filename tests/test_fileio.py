"""CSV helpers round-trip exactly."""

import numpy as np
import pytest

from signlasso.fileio import (
    format_float,
    read_counts_csv,
    read_matrix_csv,
    read_vector_csv,
    write_counts_csv,
    write_matrix_csv,
    write_vector_csv,
)


def test_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(19)
    values = rng.standard_normal((7, 3)) * np.exp(rng.uniform(-20, 20, (7, 3)))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, values)
    back = read_matrix_csv(path)
    assert np.array_equal(back, values)


def test_vector_roundtrip(tmp_path):
    values = np.array([0.1, -1e-300, 3e12, 0.0])
    path = tmp_path / "v.csv"
    write_vector_csv(path, values)
    assert np.array_equal(read_vector_csv(path), values)


def test_single_row_matrix_keeps_shape(tmp_path):
    path = tmp_path / "row.csv"
    write_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]))
    back = read_matrix_csv(path)
    assert back.shape == (1, 3)


def test_counts_roundtrip_and_validation(tmp_path):
    path = tmp_path / "y.csv"
    write_counts_csv(path, np.array([0, 3, 12]))
    assert np.array_equal(read_counts_csv(path), [0, 3, 12])
    path.write_text("1.5\n2\n")
    with pytest.raises(ValueError):
        read_counts_csv(path)
    path.write_text("-1\n2\n")
    with pytest.raises(ValueError):
        read_counts_csv(path)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_matrix_csv, ""),
        (read_vector_csv, ""),
        (read_counts_csv, ""),
        (read_vector_csv, "1,-1\n0,0\n"),
        (read_vector_csv, "0.5,1.5\n"),
        (read_counts_csv, "1,2\n3,4\n"),
        (read_counts_csv, "1\ninf\n"),
        (read_counts_csv, "1\nnan\n"),
        (read_counts_csv, "1\n1e19\n"),
    ],
)
def test_bad_file_is_a_value_error_naming_it(reader, text, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad.csv"):
        reader(path)


def test_format_float_round_trips():
    for x in (0.1, 1 / 3, 2e-308, 1.7976931348623157e308, -0.0):
        assert float(format_float(x)) == x
