"""The CSV writer's fields against Python's own text: repr for floats, str for integers."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczpr import _csv
from kaczpr._csv import write_csv


def _fields(*columns) -> list:
    """The fields after the row index of every line write_csv writes for `columns`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "table.csv")
        write_csv(path, "header", columns)
        lines = path.read_bytes().decode().split("\n")
    assert lines[0] == "header" and lines[-1] == ""
    body = [line.split(",") for line in lines[1:-1]]
    assert [int(row[0]) for row in body] == list(range(len(columns[0])))
    return [row[1:] for row in body]


def _assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    got = [row[0] for row in _fields(values)]
    want = [repr(v) for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:10]


def _ulp_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_fields_are_repr(values):
    _assert_repr(values)


def test_random_bit_patterns_are_repr():
    bits = np.random.default_rng(20180618).integers(0, 2**64, 100_000, dtype=np.uint64,
                                                    endpoint=False)
    _assert_repr(bits.view(np.float64))


_FIXED = {
    "powers of two": _ulp_neighbours([2.0**k for k in range(-1074, 1024)]),
    "powers of ten": _ulp_neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    # repr's switch between positional and scientific notation
    "switch points": _ulp_neighbours([1e-5, 1e-4, 1e15, 1e16]),
    "near 2**53": [2.0**53 + k for k in range(-8, 9)],
    "one digit": [5e-324, 1e22, 2e23, 9e15, 1e-4, 0.5],
    "short fractions": np.arange(1, 200) / 32,
    "signed specials": [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        np.float64(np.nan) * -1, 1.7976931348623157e308],
}


@pytest.mark.parametrize("name", list(_FIXED))
def test_fixed_sets_are_repr(name):
    values = np.asarray(_FIXED[name], dtype=np.float64)
    _assert_repr(np.concatenate([values, -values]))


def test_negative_nan_prints_as_nan():
    bits = np.array([0xFFF8000000000000, 0xFFF0000000000001], dtype=np.uint64)
    assert _fields(bits.view(np.float64)) == [["nan"], ["nan"]]


def test_integer_fields_are_str():
    rng = np.random.default_rng(7)
    info = np.iinfo(np.int64)
    values = np.concatenate([
        [0, 1, -1, 9, 10, -10, 99, 100, info.max, info.min, info.min + 1],
        [10**k + d for k in range(19) for d in (-1, 0, 1)],
        rng.integers(info.min, info.max, 10_000),
    ]).astype(np.int64)
    assert [row[0] for row in _fields(values)] == [str(int(v)) for v in values.tolist()]


def test_columns_of_every_kind_in_one_line():
    ints = np.array([3, -40, 512], dtype=np.int64)
    floats = np.array([0.1, -2.5e-8, 1e300])
    # a longer column is cut and a shorter one ends in empty fields
    assert _fields(ints, None, floats, floats[::-1], floats[:1], ints[:2], floats[:0],
                   np.append(floats, 7.0)) == [
        ["3", "", "0.1", "1e+300", "0.1", "3", "", "0.1"],
        ["-40", "", "-2.5e-08", "-2.5e-08", "", "-40", "", "-2.5e-08"],
        ["512", "", "1e+300", "0.1", "", "", "", "1e+300"],
    ]


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("passes", [1, 2, 3])
def test_row_counts_at_the_edges_of_the_passes(passes, offset):
    rows = passes * _csv._CHUNK_ROWS + offset
    rng = np.random.default_rng(rows)
    ints = rng.integers(0, 10**6, rows)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows)
    want = [[str(i), repr(f)] for i, f in zip(ints.tolist(), floats.tolist())]
    assert _fields(ints, floats) == want


def test_an_empty_table_writes_its_header_only(tmp_path):
    write_csv(tmp_path / "empty.csv", "a,b", (np.empty(0), np.empty(0, dtype=np.int64)))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


def test_a_line_whose_float_fields_are_all_empty():
    assert _fields(np.array([4]), np.empty(0)) == [["4", ""]]


def test_set_up_neither_imports_the_writer_nor_builds_its_tables():
    import os
    import subprocess
    import sys

    child = ("import sys, kaczpr.cli\n"
             "assert 'kaczpr._csv' not in sys.modules\n"
             "import kaczpr._csv as c\n"
             "sys.exit(c._tables.cache_info().currsize)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
