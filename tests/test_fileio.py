"""CSV helpers round-trip exactly."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


def test_counts_beyond_a_float_are_read_exactly(tmp_path):
    # Parsed as floats, 12345678901234567 read as ...568, 2**53 + 1 as 2**53,
    # and 2**63 - 1 was refused as 2**63.
    path = tmp_path / "y.csv"
    counts = [12345678901234567, 2**53 + 1, 2**63 - 1, 0]
    write_counts_csv(path, np.array(counts))
    assert read_counts_csv(path).tolist() == counts


@pytest.mark.parametrize("text, message", [
    ("1.5\n2\n", "counts must be nonnegative integers"),
    ("-1\n2\n", "counts must be nonnegative integers"),
    ("1\nnan\n", "counts must be finite"),
    ("1\n-inf\n", "counts must be finite"),
    ("1\n1e19\n", "counts must be below 2**63, got 10000000000000000000"),
    ("9223372036854775808\n", "counts must be below 2**63, got 9223372036854775808"),
])
def test_bad_counts_keep_their_message(text, message, tmp_path):
    path = tmp_path / "y.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_counts_csv(path)
    assert str(info.value) == f"{path}: {message}"


_BAD_LITERALS = [
    ("1.5\n", "counts must be nonnegative integers"),
    ("-0.5\n", "counts must be nonnegative integers"),
    ("nan\n", "counts must be finite"),
    ("1e19\n", "counts must be below 2**63, got 10000000000000000000"),
]


def _old_numpy_loadtxt(real):
    """loadtxt as numpy before 2.x reads integers: a literal such as 1.5 or
    nan goes through a float, with only a DeprecationWarning."""
    def loadtxt(handle, *, dtype=float, **kwargs):
        if dtype is not np.int64:
            return real(handle, dtype=dtype, **kwargs)
        values = real(handle, dtype=float, **kwargs)
        if not (np.isfinite(values) & (values == np.round(values))).all() or (
                np.abs(values) >= 2.0**63).any():
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
        with np.errstate(invalid="ignore"):
            return values.astype(np.int64)
    return loadtxt


@pytest.mark.parametrize("old_numpy", [False, True])
def test_bad_counts_keep_their_message_whatever_the_warning_filters(
        old_numpy, tmp_path, monkeypatch):
    # Outside pytest a DeprecationWarning is ignored, so a parse that only
    # warns would read 1.5 as 1 and nan as INT64_MIN.
    if old_numpy:
        monkeypatch.setattr(np, "loadtxt", _old_numpy_loadtxt(np.loadtxt))
    for k, (text, message) in enumerate(_BAD_LITERALS):
        path = tmp_path / f"y{k}.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError) as info:
                read_counts_csv(path)
        assert str(info.value) == f"{path}: {message}"


def test_integral_float_literals_are_counts(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("3.0\n1e3\n0\n")
    assert read_counts_csv(path).tolist() == [3, 1000, 0]


# Every float64 bit pattern but NaN: -0.0, subnormals and both extremes among them.
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


def _round_trip(write, read, values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "values.csv"
        write(path, values)
        return read(path)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)), elements=_FLOATS))
def test_matrix_csv_round_trip_is_bit_exact(values):
    back = _round_trip(write_matrix_csv, read_matrix_csv, values)
    assert back.tobytes() == values.tobytes()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(1, 6), elements=_FLOATS))
def test_vector_csv_round_trip_is_bit_exact(values):
    back = _round_trip(write_vector_csv, read_vector_csv, values)
    assert back.tobytes() == values.tobytes()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(arrays(np.int64, st.integers(1, 6), elements=st.one_of(
    st.integers(0, 2**63 - 1), st.sampled_from([0, 2**53 + 1, 2**63 - 1]),
)))
def test_counts_csv_round_trip_is_exact(counts):
    back = _round_trip(write_counts_csv, read_counts_csv, counts)
    assert back.dtype == np.int64 and back.tolist() == counts.tolist()


def test_format_float_round_trips():
    for x in (0.1, 1 / 3, 2e-308, 1.7976931348623157e308, -0.0):
        assert float(format_float(x)) == x
