import numpy as np
import pytest

from twinbeam import SweepRow, ValidationError, gaussian_beam
from twinbeam import fileio


def test_field_csv_roundtrip_is_exact(tmp_path):
    f = gaussian_beam(0.15e-3, 64, 20e-6)
    noisy = f.with_samples(f.samples * np.exp(1j * 0.173) + 1e-17)
    path = tmp_path / "field.csv"
    path.write_text(fileio.field_to_csv(noisy))
    back = fileio.read_field_csv(path)
    assert back.pitch == noisy.pitch
    assert np.array_equal(back.samples, noisy.samples)


def test_pgm_header_and_values(tmp_path):
    f = gaussian_beam(0.15e-3, 64, 20e-6)
    path = tmp_path / "field.pgm"
    path.write_bytes(fileio.intensity_to_pgm(f.intensity()))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n64 64\n65535\n")
    img = fileio.read_pgm(path)
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
