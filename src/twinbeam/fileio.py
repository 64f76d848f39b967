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
    if peak > 0:
        scaled = np.divide(arr, peak)
        np.multiply(scaled, 65535.0, out=scaled)
        pixels = np.round(scaled, out=scaled).astype(">u2")
    else:
        pixels = np.zeros(arr.shape, dtype=">u2")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    return header + pixels.tobytes()


# ---------------------------------------------------------------------------
# Profile and table CSV
# ---------------------------------------------------------------------------

def _table_csv(header: str, columns: list) -> str:
    """Header line, then one row of FLOAT_FMT values per sample, formatted by
    one ``%`` call: the text ``np.savetxt`` writes row by row."""
    table = np.column_stack(columns)
    rows, cols = table.shape
    row_fmt = ",".join([FLOAT_FMT] * cols) + "\n"
    return header + "\n" + (row_fmt * rows) % tuple(table.ravel().tolist())


def profile_to_csv(coordinates: np.ndarray, rates: np.ndarray) -> str:
    return _table_csv("scan_coordinate_m,rate_pairs_per_s", [coordinates, rates])


def read_profile_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    rows = [line for line in Path(path).read_text().splitlines()[1:] if line.strip()]
    raw = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, 0))
    if raw.shape[0] == 0 or raw.shape[1] != 2:
        raise ValidationError(f"profile {path} needs rows of two columns, got shape {raw.shape}")
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
    """2D map as (x_m, y_m, rate) rows, row-major.

    The text :func:`_table_csv` writes for the meshgrid's three columns, but
    each distinct coordinate is formatted once, each map row's templates
    are one ``str.join`` of its x values, and the rates are formatted by one
    ``%`` call on the joined templates.
    """
    xs, ys = ([FLOAT_FMT % c for c in np.asarray(a, np.float64).tolist()]
              for a in (x_coords, y_coords))
    rows = "".join([(s := f",{y},{FLOAT_FMT}\n").join(xs) + s for y in ys]) if xs else ""
    rates = np.asarray(values, np.float64).ravel().tolist()
    return "x_m,y_m,rate_pairs_per_s\n" + rows % tuple(rates)
