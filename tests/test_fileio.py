import io

import numpy as np
import pytest

from conftest import as_grid
from oracles import read_pgm
from twinbeam import SweepRow, ValidationError
from twinbeam import fileio
from twinbeam.field import separable_gaussian


def test_pgm_header_and_values(tmp_path):
    f = as_grid(separable_gaussian(0.15e-3, 64, 20e-6))
    path = tmp_path / "field.pgm"
    path.write_bytes(fileio.intensity_to_pgm(np.abs(f) ** 2))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n64 64\n65535\n")
    img = read_pgm(path)
    assert img.shape == (64, 64)
    assert img[32, 32] == 65535  # peak normalized to full scale
    assert img.dtype == np.uint16


def test_pgm_rejects_negative():
    with pytest.raises(ValidationError):
        fileio.intensity_to_pgm(np.array([[-1.0, 0.0], [0.0, 1.0]]))


def test_profile_csv_roundtrip(tmp_path):
    coords = np.linspace(-1e-3, 1e-3, 41)
    rates = np.exp(-coords**2 / 1e-8) * 123.456
    path = tmp_path / "profile.csv"
    path.write_text(fileio.profile_to_csv(coords, rates))
    x, r = fileio.read_profile_csv(path)
    assert np.array_equal(x, coords)
    assert np.array_equal(r, rates)
    header = path.read_text().splitlines()[0]
    assert header == "scan_coordinate_m,rate_pairs_per_s"


@pytest.mark.parametrize("body", ["", "\n", "1.0\n2.0\n"], ids=["header-only", "blank", "one-column"])
def test_profile_csv_without_two_column_rows_is_refused(tmp_path, body):
    # numpy's loadtxt returns no second column here (and warns on no data)
    path = tmp_path / "empty.csv"
    path.write_text("scan_coordinate_m,rate_pairs_per_s\n" + body)
    with pytest.raises(ValidationError, match="empty.csv"):
        fileio.read_profile_csv(path)


def test_counted_csv_columns():
    text = fileio.counted_to_csv([0.0, 1e-5], [1.5, 2.5], [3, 4], [0.1, 0.1])
    lines = text.splitlines()
    assert lines[0] == "scan_coordinate_m,expected_rate_pairs_per_s,counts,accidental_pairs_per_s"
    assert lines[1].split(",")[2] == "3"


def test_sweep_csv_marks_infeasible():
    text = fileio.sweep_to_csv([SweepRow(1.0, 2.0, 3.0, True), SweepRow(2.0, None, None, True)])
    lines = text.splitlines()
    assert lines[0] == "Z_m,peak_rate,snr,collimated_flag"
    assert "infeasible" in lines[2]
    assert lines[1].endswith(",1")


def _savetxt_csv(header, columns):
    """The CSV text ``np.savetxt`` writes row by row, as the reference."""
    buf = io.StringIO()
    buf.write(header + "\n")
    np.savetxt(buf, np.column_stack(columns), fmt=fileio.FLOAT_FMT, delimiter=",")
    return buf.getvalue()


def _reference_pgm(values):
    peak = values.max()
    scaled = np.zeros(values.shape, dtype=np.uint16)
    if peak > 0:
        scaled = np.round(values / peak * 65535.0).astype(np.uint16)
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode("ascii")
    return header + scaled.astype(">u2").tobytes()


_MAPS = {
    "random": np.random.default_rng(5).uniform(size=(37, 41)) * 1234.5,
    "spread": np.exp(np.random.default_rng(6).normal(scale=30.0, size=(37, 41))),
    "zero": np.zeros((37, 41)),
}


@pytest.mark.parametrize("values", _MAPS.values(), ids=_MAPS.keys())
def test_map_csv_matches_savetxt(values):
    x = np.linspace(-1e-3, 1e-3, values.shape[1])
    y = np.linspace(-2e-3, 2e-3, values.shape[0])
    xx, yy = np.meshgrid(x, y)
    ref = _savetxt_csv("x_m,y_m,rate_pairs_per_s", [xx.ravel(), yy.ravel(), values.ravel()])
    assert fileio.map_to_csv(x, y, values) == ref


@pytest.mark.parametrize("shape", [(37, 41), (250, 250), (256, 1), (0, 3), (251, 251), (3, 0)])
def test_map_csv_matches_the_meshgrid_table(shape):
    # the runner's map excerpt is up to 256 x 256 (251 x 251 for the
    # presets): each coordinate formatted once, and each row's templates
    # joined from them, give the text of the three meshgrid columns
    values = np.exp(np.random.default_rng(8).normal(scale=30.0, size=shape))
    x = np.linspace(-1.5e-3, 1.5e-3, shape[1])
    y = np.linspace(-1.5e-3, 1.5e-3, shape[0]) + 1e-9
    xx, yy = np.meshgrid(x, y)
    ref = fileio._table_csv("x_m,y_m,rate_pairs_per_s", [xx.ravel(), yy.ravel(), values.ravel()])
    assert fileio.map_to_csv(x, y, values) == ref


@pytest.mark.parametrize("values", _MAPS.values(), ids=_MAPS.keys())
def test_profile_csv_matches_savetxt(values):
    coords = np.linspace(-1e-3, 1e-3, values.shape[1])
    ref = _savetxt_csv("scan_coordinate_m,rate_pairs_per_s", [coords, values[0]])
    assert fileio.profile_to_csv(coords, values[0]) == ref


@pytest.mark.parametrize("values", _MAPS.values(), ids=_MAPS.keys())
def test_pgm_matches_reference_encoding(values):
    assert fileio.intensity_to_pgm(values) == _reference_pgm(values)
