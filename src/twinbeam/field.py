"""Fields held as low-rank factors on uniform square grids.

Grid convention: n samples per axis at physical pitch (meters per sample);
sample (row j, column i) sits at transverse coordinate
``x = (i - n//2) * pitch``, ``y = (j - n//2) * pitch``, so index n//2 is
the optical axis.  A field is never held as its n x n samples: a
:class:`SeparableField` holds the 1-D factors whose product they are.

The Gaussian beam is defined once, as its two 1-D factors; bilinear
interpolation once, as the cells of the points (:func:`_bilinear_cells`)
and the gather from them (:func:`_bilinear_gather`), which the scan calls
on the two map lines it reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfWindowError, SamplingError, ValidationError

MIN_GRID = 16


def _all_finite(a: np.ndarray) -> bool:
    """Whether every sample of ``a`` is finite: a NaN or an infinity makes the
    sum non-finite, so a finite sum clears ``a`` without a mask and an
    overflowed one is cleared by a scan."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(a.sum()) or np.isfinite(a).all())


def _abs_square(u: np.ndarray) -> np.ndarray:
    """``np.abs(u) ** 2`` in a new float array."""
    out = np.abs(u)
    return np.square(out, out=out)


@dataclass(frozen=True)
class WaveContext:
    """Monochromatic propagation context: wavenumber in rad/m."""

    wavenumber: float

    def __post_init__(self):
        if not (self.wavenumber > 0 and np.isfinite(self.wavenumber)):
            raise ValidationError(f"wavenumber must be positive, got {self.wavenumber}")

    @classmethod
    def from_wavelength(cls, wavelength: float) -> "WaveContext":
        if not (wavelength > 0 and np.isfinite(wavelength)):
            raise ValidationError(f"wavelength must be positive, got {wavelength}")
        return cls(2.0 * np.pi / wavelength)

    @property
    def wavelength(self) -> float:
        return 2.0 * np.pi / self.wavenumber


def axis_coords(n: int, pitch: float) -> np.ndarray:
    """Centered sample coordinates along one axis, in meters."""
    return (np.arange(n) - n // 2) * pitch


@dataclass(frozen=True)
class SeparableField:
    """A field held as low-rank factors: sample (j, i) is
    ``sum_r column[j, r] * row[i, r]``, on the centred n x n grid, so the
    samples are ``column @ row.T``.  Each factor is an (n, R) array of R 1-D
    fields; a 1-D factor is read as R = 1, the product ``outer(column, row)``.
    The factors are held as read-only complex views, so no train that starts
    from them writes the caller's arrays.
    """

    column: np.ndarray
    row: np.ndarray
    pitch: float

    def __post_init__(self):
        for name in ("column", "row"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            if arr.ndim not in (1, 2):
                raise ValidationError(f"{name} factors must be 1D or (n, R), got shape {arr.shape}")
            arr = arr.reshape(arr.shape[0], -1).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if not _all_finite(arr):
                raise ValidationError(f"{name} factor samples must all be finite")
        if self.column.shape != self.row.shape:
            raise ValidationError(f"factors must have one length and one rank, got shapes "
                                  f"{self.column.shape} and {self.row.shape}")
        if self.n < MIN_GRID:
            raise ValidationError(f"grid must be at least {MIN_GRID}x{MIN_GRID}, got {self.n}")
        if not (self.pitch > 0 and np.isfinite(self.pitch)):
            raise ValidationError(f"pitch must be positive, got {self.pitch}")

    @property
    def n(self) -> int:
        return self.row.shape[0]


@dataclass(frozen=True)
class TransmissionMask:
    """Real amplitude transmission in [0, 1] of each of the n columns of the
    grid, held as that 1-D profile: a mask multiplies every row of a field
    by it, that is the field's row factor."""

    samples: np.ndarray
    pitch: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64).view()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1 or arr.size < MIN_GRID:
            raise ValidationError(f"mask must be the 1D profile of at least {MIN_GRID} column "
                                  f"transmissions, got shape {arr.shape}")
        if not (self.pitch > 0 and np.isfinite(self.pitch)):
            raise ValidationError(f"pitch must be positive, got {self.pitch}")
        if not _all_finite(arr):
            raise ValidationError("mask values must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValidationError("mask values must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def check_grid(self, n: int, pitch: float) -> None:
        """Refuse a field grid of another size or pitch than this mask's."""
        if n != self.n or pitch != self.pitch:
            raise ValidationError("mask grid does not match field grid")


def _check_gaussian_sampling(waist: float, n: int, pitch: float) -> None:
    """Refuse an under-resolved waist, and a window without a 6-waist guard band."""
    if waist <= 2 * pitch:
        raise SamplingError(
            f"waist {waist:g} m must exceed 2 pitches ({2 * pitch:g} m)"
        )
    if n * pitch <= 6 * waist:
        needed = int(np.ceil(6 * waist / pitch)) + 1
        raise SamplingError(
            f"window {n * pitch:g} m too small for waist {waist:g} m; "
            f"need N > {needed} at pitch {pitch:g} m"
        )


def separable_gaussian(waist: float, n: int, pitch: float) -> SeparableField:
    """Flat-phase Gaussian beam exp(-rho^2 / waist^2) with unit peak, as its
    two equal 1-D factors: exp(-rho^2 / waist^2) = exp(-y^2 / waist^2) *
    exp(-x^2 / waist^2).

    Parameters
    ----------
    waist : float
        1/e amplitude radius in meters.
    n : int
        Grid size (n x n samples).
    pitch : float
        Sample spacing in meters.

    Raises
    ------
    SamplingError
        If the waist is under-resolved, or the window does not leave a
        guard band of at least 6 waists.
    """
    _check_gaussian_sampling(waist, n, pitch)
    profile = np.exp(-axis_coords(n, pitch) ** 2 / waist**2)
    return SeparableField(profile, profile, pitch)


def wire_mask(width: float, n: int, pitch: float) -> TransmissionMask:
    """Opaque vertical wire: transmission 0 on the band of the given width.

    The blocked band is the half-open interval -width/2 <= x < width/2 of
    column centers, which makes a width of exactly k pitches block exactly
    k columns.
    """
    if width < 2 * pitch:
        raise SamplingError(
            f"wire width {width:g} m is below 2 pitches ({2 * pitch:g} m)"
        )
    x = axis_coords(n, pitch)
    return TransmissionMask(np.where((x >= -width / 2) & (x < width / 2), 0.0, 1.0), pitch)


def _bilinear_cells(n: int, pitch: float, x, y) -> tuple:
    """The bilinear cells of the points (x, y) meters on a centered n-sample
    grid, broadcast: lower corners (i0, j0), clamped to [0, n - 2] so that the
    last node is read from the last cell, and the fractions (tx, ty) of the
    points within them.

    Raises OutOfWindowError when any point falls outside the hull of sample
    centers; scans that leave the window are configuration bugs, not zeros.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    fi = x / pitch + n // 2
    fj = y / pitch + n // 2
    inside = (0.0 <= fi) & (fi <= n - 1) & (0.0 <= fj) & (fj <= n - 1)
    if not inside.all():
        k = np.flatnonzero(~inside)[0]
        half = (n // 2) * pitch
        raise OutOfWindowError(
            f"sample point ({x.flat[k]:g}, {y.flat[k]:g}) m outside grid window "
            f"[{-half:g}, {(n - 1 - n // 2) * pitch:g}] m"
        )
    i0, j0 = (np.clip(f.astype(int), 0, n - 2) for f in (fi, fj))
    return i0, j0, fi - i0, fj - j0


def _bilinear_gather(values: np.ndarray, i0, j0, tx, ty):
    """The bilinear interpolant on the cells of :func:`_bilinear_cells`, read
    from ``values[j0, i0]`` to ``values[j0 + 1, i0 + 1]``: a float for one
    point, else an array."""
    out = (values[j0, i0] * (1 - tx) * (1 - ty)
           + values[j0, i0 + 1] * tx * (1 - ty)
           + values[j0 + 1, i0] * (1 - tx) * ty
           + values[j0 + 1, i0 + 1] * tx * ty)
    return float(out) if out.ndim == 0 else out
