"""CSV and PGM serialization.

CSV is the exact round-trip format (17 significant digits reproduce float64
bit-for-bit); PGM P5 16-bit is for quick visual inspection of intensity
maps.  Column names carry SI units.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .field import ScalarField

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# PGM (P5, 16-bit, binary)
# ---------------------------------------------------------------------------

def intensity_to_pgm(values: np.ndarray) -> bytes:
    """Encode a non-negative 2D array as 16-bit PGM, normalized to its max."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"PGM needs a 2D array, got shape {arr.shape}")
    if arr.size and arr.min() < 0:
        raise ValidationError("PGM intensity values must be non-negative")
    peak = arr.max() if arr.size else 0.0
    scaled = np.zeros(arr.shape, dtype=np.uint16)
    if peak > 0:
        scaled = np.round(arr / peak * 65535.0).astype(np.uint16)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    return header + scaled.astype(">u2").tobytes()


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary 16-bit P5 file back into a uint16 array."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5" or len(parts) < 4:
        raise ValidationError(f"{path} is not a binary PGM file")
    width, height = (int(v) for v in parts[1].split())
    if parts[2] != b"65535":
        raise ValidationError("only 16-bit PGM is supported")
    return np.frombuffer(parts[3], dtype=">u2").reshape(height, width).astype(np.uint16)


# ---------------------------------------------------------------------------
# ScalarField CSV round-trip
# ---------------------------------------------------------------------------

def field_to_csv(fld: ScalarField) -> str:
    x = fld.coords
    xx, yy = np.meshgrid(x, x)
    cols = np.column_stack(
        [xx.ravel(), yy.ravel(), fld.samples.real.ravel(), fld.samples.imag.ravel()]
    )
    buf = io.StringIO()
    buf.write("x_m,y_m,re,im\n")
    np.savetxt(buf, cols, fmt=FLOAT_FMT, delimiter=",")
    return buf.getvalue()


def read_field_csv(path: str | Path) -> ScalarField:
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    n = int(round(np.sqrt(raw.shape[0])))
    if n * n != raw.shape[0]:
        raise ValidationError(f"{path} does not hold a square field grid")
    x = raw[:, 0].reshape(n, n)
    # the sample one step right of center sits exactly at x = pitch, so this
    # recovers the pitch bit-exactly (differences of other coordinates would
    # round)
    pitch = float(x[0, n // 2 + 1])
    samples = (raw[:, 2] + 1j * raw[:, 3]).reshape(n, n)
    return ScalarField(samples, pitch)


# ---------------------------------------------------------------------------
# Profile and table CSV
# ---------------------------------------------------------------------------

def profile_to_csv(coordinates: np.ndarray, rates: np.ndarray) -> str:
    buf = io.StringIO()
    buf.write("scan_coordinate_m,rate_pairs_per_s\n")
    np.savetxt(buf, np.column_stack([coordinates, rates]), fmt=FLOAT_FMT, delimiter=",")
    return buf.getvalue()


def read_profile_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return raw[:, 0], raw[:, 1]


def counted_to_csv(coordinates, expected_rates, counts, accidental_rates) -> str:
    buf = io.StringIO()
    buf.write("scan_coordinate_m,expected_rate_pairs_per_s,counts,accidental_pairs_per_s\n")
    for x, r, c, a in zip(coordinates, expected_rates, counts, accidental_rates):
        buf.write(f"{x:.17g},{r:.17g},{int(c)},{a:.17g}\n")
    return buf.getvalue()


def sweep_to_csv(rows) -> str:
    """Sweep rows (``counting.SweepRow``) as CSV; a None rate or SNR reads "infeasible"."""
    buf = io.StringIO()
    buf.write("Z_m,peak_rate,snr,collimated_flag\n")
    for row in rows:
        peak_s = "infeasible" if row.peak_rate is None else f"{row.peak_rate:.17g}"
        snr_s = "infeasible" if row.snr is None else f"{row.snr:.17g}"
        buf.write(f"{row.distance_m:.17g},{peak_s},{snr_s},{int(row.collimated)}\n")
    return buf.getvalue()


def map_to_csv(x_coords: np.ndarray, y_coords: np.ndarray, values: np.ndarray) -> str:
    """2D map as (x_m, y_m, rate) rows, row-major."""
    xx, yy = np.meshgrid(x_coords, y_coords)
    cols = np.column_stack([xx.ravel(), yy.ravel(), values.ravel()])
    buf = io.StringIO()
    buf.write("x_m,y_m,rate_pairs_per_s\n")
    np.savetxt(buf, cols, fmt=FLOAT_FMT, delimiter=",")
    return buf.getvalue()
