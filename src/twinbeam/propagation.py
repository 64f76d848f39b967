"""Free-space propagation, thin lenses, masks, and ordered optical trains.

The workhorse propagator is the angular-spectrum method with the exact
(non-paraxial) transfer function.  Spatial frequencies outside the
aliasing-safe cone for the requested distance are zeroed, which keeps long
paths free of wraparound ghosts; if that clipping would remove more than a
small configurable fraction of the field power, propagation refuses and
reports the largest safe distance instead.

Every train runs on one working array, held either as samples or as their
angular spectrum.  Free propagation is diagonal in the spectrum, so a hop
transforms the array forward only if it holds samples, multiplies it by the
transfer function and leaves it a spectrum; the next hop starts from that
spectrum.  A lens, a lens stop, a mask and the end of the train transform
it back first, and only if it is a spectrum.  So each stretch of
consecutive hops costs one forward and one inverse FFT, and a lone
:func:`propagate` makes 2.  Each hop has its own band-limit cone, its own
clip check and refusal distance, and its own finiteness check (on the
spectrum; the train's last element is checked once, on the samples it ends
with).  This is the standard composition of angular-spectrum steps
(Schmidt, *Numerical Simulation of Optical Wave Propagation*, SPIE 2010,
ch. 7).  On the grid each hop multiplies by its own transfer; only the
hops held as factors' spectra (below) share one transfer.

Every inverse is one routine, :func:`_inverse`, whose passes run in the
other order from ``ifft2``: down the columns, then along the rows.  The
spectrum it inverts is zero outside the square of its cone m (the last grid
hop's, or the held stretch's), so the column pass runs only on the cone's
2m - 1 columns: the others are zero and stay zero.  The row pass runs only
on the rows asked for.  This is output pruning of the FFT (Markel, IEEE
Trans. Audio Electroacoust. 19, 305 (1971)).  Before a lens, a stop or a
mask, and for :func:`propagate_train`, every row is asked for; a scan asks
:func:`_train_rows` for the rows its aperture lines reach, 42 of the
presets' grid rows.  So fig5's inverse after its 2.25 m hop transforms 439
of 2048 columns, and a free 0.5 m sweep row 493 of 1024 columns and 202
rows.

A train may also start from a :class:`~twinbeam.field.SeparableField`, the
form the pump takes: a Gaussian, wire-masked or not, is ``outer(column,
row)``, and its spectrum ``outer(fft(column), fft(row))``.  The working
array then holds the two factors until an element needs the grid.  A mask
whose rows all repeat one profile (a ``wire_mask``) multiplies the row
factor.  The first hop replaces the factors with their 1-D transforms and
opens a stretch: it and each later hop add their distance and narrow the
stretch's cone to their own.  The stretch's power stays separable,
``outer(|fft(column)|^2, |fft(row)|^2)`` inside the cone and zero outside,
so each hop's clip check and refusal read the ring table of the two folded
1-D powers in O(n) (:func:`_separable_ring_table`; the band-limited
criterion of Matsushima and Shimobaba, Opt. Express 17, 19662 (2009)): a
refused hop makes no grid-sized array and no 2-D transform.  The first
element that needs the grid (a lens, a stop, a mask after a hop, the end
of the train) writes the stretch once, into a working array allocated
before the transfer's quadrant (the other order let the C heap grow over
repeated sweeps): ``outer(fft(column), fft(row))`` times one transfer,
``exp(i (z_1 + ... + z_k) kz_rel)``, on the stretch's cone, zero outside
it.  Only the transfers are merged; the carrier-referenced ``kz_rel`` makes
the merged one equal their product to rounding (measured within 2e-14 of
the field's peak).  Each hop keeps its own cone, clip check, refusal and
element index.  A hop whose cone holds evanescent samples (``2 (2 pi f)^2
>= k^2`` at its corner, only at a pitch of at most lambda / sqrt(2))
zeroes them, which is not separable: it writes the grid first and runs on
it.  Factors are checked for finiteness in O(n); the grid, after the
element that writes it.  So fig5's train (mask, 0.005 m, 0.25 m, lens,
2.25 m, lens, 0.5 m) makes 5 2-D transforms, fig4b's makes 3 and a free
sweep row 1: the first stretch of hops costs only its inverse.  A train
that ends inside its first stretch and is asked for some rows writes only
the cone's columns of the stretch, an n x (2m - 1) block, and the rows
read: no n x n array.

:func:`propagate_train` copies a ScalarField input once (a SeparableField
is not copied); each element then writes into the complex array it reads,
and the array is wrapped in a ScalarField only at the end.  A hop's
transfer function and a lens's phase depend on two half axes only, so each
is built on one quadrant of the grid and the working array is multiplied by
it block by block, four slice products reading the quadrant mirrored; no
second full-size array is made.  The transfer is zero outside the
band-limit cone, so only the cone's m x m block of the quadrant is built;
a hop zeroes the rows and columns of the working array outside the cone
and multiplies only the cone's mirrored blocks.  The lens phase
``exp(-i k (x^2 + y^2) / 2f)`` is built as ``outer(p, p)`` of the 1-D chirp
``p = exp(-i k x^2 / 2f)`` on the half axis, n/2 + 1 complex
exponentials; it equals the 2-D exponential to the rounding of the phase
(a few eps times the phase).  A hop on the grid whose cone leaves
frequencies out sums the power outside the cone's square in one pass; only
a hop that refuses builds the table of power per ring, which gives its clip
fraction and safe distance, from the power folded onto the quadrant (no
ring index).  :func:`propagate` and :func:`apply_thin_lens`
are one copy plus the same in-place kernels.

The results equal the out-of-place formulas byte for byte, with
``ifftc(s) = ifft(ifft(s, axis=0), axis=1)`` for the inverse, columns first
(it differs from ``ifft2``, rows first, by rounding, within 1e-14 of the
peak): ``ifftc(fft2(u) * transfer)`` for a hop,
``ifftc((fft2(u) * transfer_1) * transfer_2)`` for two hops in a row,
``ifftc(outer(fft(column), fft(row)) * transfer)`` for a stretch held as
factors' spectra, and ``u * outer(p, p)`` for a lens; rows read alone are
those rows of the formula.  Three traps break that:

* operand order.  Each product is ``np.multiply(u, factor, out=u)`` in the
  order of the formula: under FMA, a complex product with swapped operands
  rounds differently;
* numpy's temporary elision.  An unnamed temporary of 256 KiB and up that
  enters a commutative operation is overwritten in place with the operands
  swapped, so ``u * quadrant[np.ix_(i, j)]`` computes ``gathered * u``;
* ``np.fft.ifft2`` ignores ``out=`` (numpy 2.4 passes ``out=None`` on), so
  the inverse runs numpy's 1-D ``ifft``, which writes into ``out=``.

``out=`` on the ``numpy.fft`` functions needs numpy 2.0.

From 512 x 512 samples up, every full-grid pass of a train is split
across the cores in the process's affinity mask by
:func:`twinbeam.field._each_block`, on one persistent thread pool (numpy's
ufuncs and pocketfft release the GIL).  The aperture convolution in
:mod:`twinbeam.biphoton` transforms only the map lines it reads and makes
no full-grid pass.
The forward transform, :func:`_fft2_inplace`, runs numpy's 1-D ``fft``
over blocks of rows, then over blocks of columns: what ``fft2`` does
itself, line by line with the same routine, axis order and scaling.  The
inverse runs ``ifft`` over blocks of the cone's columns, then over blocks
of rows (all rows) or in one call (the rows read).  Every other pass (the
input copy, the outer product of the factors, the stretch's write, the
transfer and lens builds, the zeroing outside a cone, the mirrored and
mask products, the lens stop, the finiteness check) is elementwise: a
worker evaluates the expression, operands in the same order, on a block of
rows and writes it into an array the caller allocated.  The reductions
split are the finiteness check's sum, which is never kept, and the clipped
power's row sums, each row summed whole by one worker; the ring table,
which only a refusal builds, is serial.  So the result equals the one-call
expression byte for byte, whatever the number of blocks; smaller arrays,
and a process allowed one core, run each pass as one call over the whole
array, on the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import AliasingRiskError, ValidationError
from .field import (ScalarField, SeparableField, TransmissionMask, WaveContext, _abs_square,
                    _all_finite, _each_block, axis_coords, centred_runs)

# Fraction of field power the band-limit clip may silently remove. Hard-edged
# masks carry percent-level spectral tails, so this is deliberately loose;
# grossly under-sampled propagation still errors out.
DEFAULT_MAX_CLIP_FRACTION = 0.05

# Samples per |u|^2 temporary of _clipped_fraction: 512 KiB of floats.
_CLIP_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# The 2-D transform, split across the process's cores
# ---------------------------------------------------------------------------

def _fft2_inplace(u: np.ndarray) -> np.ndarray:
    """``np.fft.fft2(u)``, written into ``u``.

    The row pass, then the column pass, each split into one block per core
    when :func:`twinbeam.field._splits` says so, else one call (see the
    module docstring for why this is byte-identical either way).
    """
    _each_block(lambda r: np.fft.fft(u[r], axis=-1, out=u[r]), u.shape[0], u.size)
    _each_block(lambda c: np.fft.fft(u[:, c], axis=-2, out=u[:, c]), u.shape[1], u.size)
    return u


def _column_pass(a: np.ndarray, runs: tuple) -> None:
    """``ifft`` down the columns of ``a`` that the slices ``runs`` select, in
    place, split across the cores as one pass over all of them."""
    blocks = [a[:, cols] for cols in runs]
    size = sum(b.size for b in blocks)
    for b in blocks:
        _each_block(lambda c, b=b: np.fft.ifft(b[:, c], axis=0, out=b[:, c]), b.shape[1], size)


def _inverse(u: np.ndarray, m: int, rows=None) -> np.ndarray:
    """Rows ``rows`` (all by default) of the inverse 2-D transform of an
    FFT-ordered spectrum ``u`` that is zero outside the square of its first
    ``m`` rings.

    The column pass runs first, in place and only on the cone's 2m - 1
    columns: the others are zero and stay zero.  The row pass then runs on
    ``rows``: for all rows in place, so ``u`` holds the samples, else into a
    new array, and ``u`` holds neither.
    """
    n = u.shape[0]
    _column_pass(u, tuple(cols for cols, _ in _fft_runs(n, m)))
    if rows is None:
        _each_block(lambda r: np.fft.ifft(u[r], axis=-1, out=u[r]), n, u.size)
        return u
    out = np.take(u, rows, axis=0)
    return np.fft.ifft(out, axis=-1, out=out)


# ---------------------------------------------------------------------------
# Band-limit bookkeeping
# ---------------------------------------------------------------------------

def safe_frequency_limit(window: float, wavelength: float, distance: float) -> float:
    """Highest spatial frequency (cycles/m) the grid propagates alias-free.

    Standard band-limited angular-spectrum criterion for a square window:
    the transfer-function phase must stay adequately sampled, which bounds
    each frequency axis at 1 / (lambda * sqrt((2 z / L)^2 + 1)).
    """
    if distance == 0.0:
        return 1.0 / wavelength
    ratio = 2.0 * distance / window
    return 1.0 / (wavelength * np.hypot(ratio, 1.0))


def _half_freqs(n: int, pitch: float) -> np.ndarray:
    """The n//2 + 1 distinct values of |fftfreq(n, pitch)|, in ascending order."""
    return np.abs(np.fft.fftfreq(n, d=pitch)[: n // 2 + 1])


def _fft_runs(n: int, m: int | None = None) -> tuple:
    """(axis slice, half-axis slice) pairs that mirror the first ``m`` entries
    of a half axis (all n//2 + 1 by default) into FFT order.

    fftfreq gives samples i and n - i exact negatives of each other, so
    sample i takes entry min(i, n - i) of the half axis: an ascending run,
    then a descending one.  The samples m <= i <= n - m, which take no
    entry, lie between the two runs.
    """
    m = n // 2 + 1 if m is None else m
    s = max(m, n - m + 1)
    return ((slice(0, m), slice(0, m)), (slice(s, n), slice(n - s, 0, -1)))


def _multiply_mirrored(u: np.ndarray, quadrant: np.ndarray, runs: tuple) -> None:
    """Multiply ``u[i, j]`` by ``quadrant[m(i), m(j)]`` in place, block by block,
    for the index map ``m`` that ``runs`` spells out."""
    for rows, q_rows in runs:
        for cols, q_cols in runs:
            ub, qb = u[rows, cols], quadrant[q_rows, q_cols]
            _each_block(lambda r, ub=ub, qb=qb: np.multiply(ub[r], qb[r], out=ub[r]),
                        ub.shape[0], u.size)


def _clear_outside_cone(u: np.ndarray, m: int) -> None:
    """Zero the samples of an FFT-ordered array outside the square of its first
    ``m`` Chebyshev rings: every row and every column m <= i <= n - m."""
    n = u.shape[0]
    s = max(m, n - m + 1)

    def clear(r):
        a, b = r.start, r.stop
        u[max(a, m):min(b, s)] = 0.0  # the band's rows
        u[a:min(b, m), m:s] = 0.0  # the band's columns in the cone's rows
        u[max(a, s):b, m:s] = 0.0

    _each_block(clear, n, u.size)


def _write_cone(u: np.ndarray, column: np.ndarray, row: np.ndarray, quadrant: np.ndarray,
                runs: tuple, column_runs: tuple | None = None) -> None:
    """Write ``(column[i] * row[j]) * quadrant[m(i), m(j)]`` into the blocks of
    ``u`` that ``runs`` spells out (on the columns, ``column_runs`` if
    given), one pass over ``u``."""
    for rows, q_rows in runs:
        for cols, q_cols in runs if column_runs is None else column_runs:
            ub, qb, cb, rb = u[rows, cols], quadrant[q_rows, q_cols], column[rows], row[cols]

            def write(r, ub=ub, qb=qb, cb=cb, rb=rb):
                out = ub[r]
                np.multiply(cb[r, None], rb[None, :], out=out)
                np.multiply(out, qb[r], out=out)

            _each_block(write, ub.shape[0], u.size)


def _ring_table(spectrum: np.ndarray) -> np.ndarray:
    """Power of an FFT-ordered spectrum on each of its n//2 + 1 Chebyshev rings.

    The power is folded onto the quadrant of half axes, ``q[a, b]`` the sum
    over the samples (i, j) with min(i, n - i) = a and min(j, n - j) = b,
    block by block along :func:`_fft_runs`.  Ring r holds the entries with
    max(a, b) = r: row r up to column r, which is the diagonal of
    ``cumsum(q, 1)``, and column r above row r, the diagonal above the main
    one of ``cumsum(q, 0)``.
    """
    runs = _fft_runs(spectrum.shape[0])
    h = runs[0][0].stop
    q = np.zeros((h, h))
    for rows, q_rows in runs:
        for cols, q_cols in runs:
            p = np.abs(spectrum[rows, cols])
            q[q_rows, q_cols] += np.square(p, out=p)
    power = np.diagonal(np.cumsum(q, axis=1)).copy()
    power[1:] += np.diagonal(np.cumsum(q, axis=0), offset=1)
    return power


def _separable_ring_table(column: np.ndarray, row: np.ndarray, cone: int) -> np.ndarray:
    """:func:`_ring_table` of ``outer(column, row)`` with the rings from ``cone``
    on zeroed, in O(n).

    With ``pc`` and ``pr`` the factors' powers folded onto the half axis
    (sample i onto min(i, n - i)), ring r holds the samples with
    max(a, b) = r, so its power is
    ``pc[r] * sum(pr[:r + 1]) + pr[r] * sum(pc[:r])``.
    """
    n = column.size
    i = np.arange(n)
    fold = np.minimum(i, n - i)
    pc, pr = (np.bincount(fold, weights=_abs_square(a), minlength=n // 2 + 1)
              for a in (column, row))
    below = np.cumsum(pc)
    below[1:], below[0] = below[:-1], 0.0
    power = pc * np.cumsum(pr) + pr * below
    power[cone:] = 0.0
    return power


def _clip_curve(power: np.ndarray, ring_f: np.ndarray, window: float, wavelength: float):
    """Clipped power fraction as a function of distance, from one ring table.

    The clip at f_limit removes the rings whose frequency ``ring_f[r]`` lies
    above f_limit.  The table ``power`` (from :func:`_ring_table` or
    :func:`_separable_ring_table`) is summed in reverse, into the power on
    and beyond each ring, so a small tail suffers no cancellation.
    """
    tail = np.append(np.cumsum(power[::-1])[::-1], 0.0)

    def clipped(z):
        if tail[0] == 0.0:
            return 0.0
        f_limit = safe_frequency_limit(window, wavelength, z)
        return float(tail[np.searchsorted(ring_f, f_limit, side="right")] / tail[0])

    return clipped


def _clipped_fraction(spectrum: np.ndarray, m: int) -> float:
    """Power fraction of an FFT-ordered spectrum outside the square of its
    first ``m`` Chebyshev rings: the samples with ``m <= i <= n - m`` in
    either index, which a cone that keeps ``m`` rings clips.

    It is the clip fraction of :func:`_clip_curve` with no ring index: each
    row's power, in all and outside the square, is summed a few rows at a
    time, so no full-size temporary is made, and the rows are summed alike
    on any number of cores.
    """
    n = spectrum.shape[0]
    total, outside = np.empty(n), np.empty(n)
    clipped = slice(m, n - m + 1)
    step = max(1, _CLIP_CHUNK // n)

    def row_sums(rows):
        for start in range(rows.start, rows.stop, step):
            r = slice(start, min(start + step, rows.stop))
            p = np.abs(spectrum[r])
            np.square(p, out=p)
            p.sum(axis=1, out=total[r])
            p[:, clipped].sum(axis=1, out=outside[r])

    _each_block(row_sums, n, spectrum.size)
    outside[clipped] = total[clipped]
    whole = total.sum()
    return float(outside.sum() / whole) if whole > 0.0 else 0.0


def _bisect_safe_distance(frac, window: float, max_clip_fraction: float) -> float:
    lo, hi = 0.0, window * 4.0
    if frac(hi) <= max_clip_fraction:
        while frac(hi) <= max_clip_fraction and hi < 1e6:
            hi *= 4.0
        if hi >= 1e6:
            return float("inf")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if frac(mid) <= max_clip_fraction:
            lo = mid
        else:
            hi = mid
    return lo


def _refusal(clipped, distance: float, window: float,
             max_clip_fraction: float) -> AliasingRiskError:
    """The error of a hop whose clip, ``clipped(distance)``, is over budget."""
    z_max = _bisect_safe_distance(clipped, window, max_clip_fraction)
    return AliasingRiskError(
        f"distance {distance:g} m would clip {clipped(distance):.2%} of the "
        f"power (budget {max_clip_fraction:.2%}); max safe distance for this "
        f"field is {z_max:.4g} m",
        max_safe_distance=z_max,
    )


def max_safe_distance(fld: ScalarField, ctx: WaveContext,
                      max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> float:
    """Largest distance this field can be propagated within the clip budget.

    Monotone in distance (the safe cone only shrinks), so a bisection on the
    clipped power fraction suffices.
    """
    clipped = _clip_curve(_ring_table(np.fft.fft2(fld.samples)),
                          _half_freqs(fld.n, fld.pitch), fld.window, ctx.wavelength)
    return _bisect_safe_distance(clipped, fld.window, max_clip_fraction)


def _propagates(k: float, f: np.ndarray, m: int) -> bool:
    """Whether every sample of the cone's m x m block of the quadrant of half
    axes ``f`` propagates: its corner, the sample with the smallest kz^2
    (evaluated as :func:`_transfer_quadrant` does), is not evanescent."""
    k_sq = (2.0 * np.pi * f[m - 1:m]) ** 2
    return bool(k**2 - k_sq[0] - k_sq[0] > 0.0)


def _transfer_quadrant(f: np.ndarray, k: float, m: int, distance: float) -> np.ndarray:
    """Band-limited transfer function on the cone's m x m block of the
    quadrant of half axes ``f``; the transfer is zero outside the block.

    Within the block the cone is the propagating samples.
    """
    quadrant = np.empty((m, m), np.complex128)
    k_sq = (2.0 * np.pi * f[:m]) ** 2

    def build(r):
        kx_sq, ky_sq = k_sq[None, :], k_sq[r, None]
        kz = k**2 - kx_sq - ky_sq  # kz^2 until the square root
        propagating = kz > 0.0
        np.sqrt(np.maximum(kz, 0.0, out=kz), out=kz)
        # Carrier-referenced transfer: the plane-wave phase k z is dropped so
        # composed short hops agree with one long hop to full precision (k z
        # is ~1e7 rad over a meter, where float64 rounding alone would break
        # the semigroup property at the 1e-10 level).  kz - k is evaluated in
        # its cancellation-free form, -(kx^2 + ky^2) / (kz + k).
        kz_rel = kx_sq + ky_sq
        np.negative(kz_rel, out=kz_rel)
        np.divide(kz_rel, np.add(kz, k, out=kz), out=kz_rel)
        block = quadrant[r]
        np.exp(np.multiply(1j * distance, kz_rel, out=block), out=block)
        block[~propagating] = 0.0

    _each_block(build, m, m * m)
    return quadrant


# ---------------------------------------------------------------------------
# The working array and its in-place kernels
# ---------------------------------------------------------------------------

class _Workspace:
    """One copy of a field, written in place by each element applied to it.

    The copy is held in one of four states, as the module docstring
    describes: a SeparableField's ``factors`` (and no ``samples``); those
    factors' spectra with the stretch of hops applied to them since, over
    its total ``distance``; or the grid ``samples``, as samples or as their
    spectrum.  ``cone`` is None while the copy holds samples; a spectrum is
    zero outside the square of its first ``cone`` rings, the stretch's cone
    or the last grid hop's.  A hop on the grid transforms it forward only
    if it holds samples and leaves it a spectrum, so consecutive hops share
    one transform; every other element transforms it back first, by
    :func:`_inverse`, and the train's end reads the rows it is asked for
    (:meth:`rows`, :meth:`field`).
    """

    def __init__(self, fld: ScalarField | SeparableField, ctx: WaveContext):
        self.n = fld.n
        self.pitch = fld.pitch
        self.ctx = ctx
        self.cone = self.distance = None
        if isinstance(fld, SeparableField):
            self.factors, self.samples = (fld.column, fld.row), None
        else:
            self.factors = None
            self.samples = np.empty_like(fld.samples)
            _each_block(lambda r: np.copyto(self.samples[r], fld.samples[r]), fld.n,
                        fld.samples.size)

    def _stretch_transfer(self) -> np.ndarray:
        """The held stretch's one transfer, on its cone's block of the quadrant."""
        return _transfer_quadrant(_half_freqs(self.n, self.pitch), self.ctx.wavenumber,
                                  self.cone, self.distance)

    def _write_grid(self) -> None:
        """Write the grid from the factors: the samples ``outer(column, row)``,
        or the stretch's spectrum ``outer(fft(column), fft(row))`` times its
        one transfer on its cone, zero outside it."""
        column, row = self.factors
        n = self.n
        # The working array is allocated before the transfer quadrant.
        u = self.samples = np.empty((n, n), np.complex128)
        if self.cone is None:
            _each_block(lambda r: np.multiply(column[r, None], row[None, :], out=u[r]), n, u.size)
        else:
            m = self.cone
            quadrant = self._stretch_transfer()
            _clear_outside_cone(u, m)
            _write_cone(u, column, row, quadrant, _fft_runs(n, m))
        self.factors = self.distance = None

    def _to_samples(self) -> np.ndarray:
        if self.factors is not None:
            self._write_grid()
        if self.cone is not None:
            _inverse(self.samples, self.cone)
            self.cone = None
        return self.samples

    def _stretch_rows(self, rows) -> np.ndarray:
        """Rows ``rows`` of the held stretch's samples, with no n x n array.

        The cone's columns of the spectrum :meth:`_write_grid` writes are
        written into an n x (2m - 1) block, by the same products in the same
        order, and transformed down the columns; each row asked for takes
        them on the cone's columns, zero elsewhere, and is transformed
        along.  So the rows equal the grid's byte for byte.
        """
        column, row = self.factors
        n, m = self.n, self.cone
        runs = _fft_runs(n, m)
        (low, _), (high, q_high) = runs
        cols = np.r_[low, high]
        block = np.empty((n, cols.size), np.complex128)
        block[m:high.start] = 0.0  # the rows outside the cone
        _write_cone(block, column, row[cols], self._stretch_transfer(), runs,
                    ((low, low), (slice(m, cols.size), q_high)))
        _column_pass(block, (slice(None),))
        out = np.zeros((len(rows), n), np.complex128)
        out[:, cols] = block[rows]
        return np.fft.ifft(out, axis=-1, out=out)

    def _hold(self, distance: float, f: np.ndarray, m: int, max_clip_fraction: float) -> None:
        """Add a hop of cone ``m`` to the stretch held as the factors' spectra:
        its clip check and refusal read the 1-D ring table, and its transfer
        waits for the stretch's write."""
        if self.cone is None:
            # fft2(outer(c, r)) = outer(fft(c), fft(r))
            self.factors = tuple(np.fft.fft(a) for a in self.factors)
            self.cone, self.distance = f.size, 0.0
        if m < f.size:
            window = self.n * self.pitch
            clipped = _clip_curve(_separable_ring_table(*self.factors, self.cone), f, window,
                                  self.ctx.wavelength)
            if clipped(distance) > max_clip_fraction:
                raise _refusal(clipped, distance, window, max_clip_fraction)
        self.cone, self.distance = min(self.cone, m), self.distance + distance

    def hop(self, distance: float, max_clip_fraction: float) -> None:
        if distance < 0:
            raise ValidationError(f"propagation distance must be >= 0, got {distance}")
        if distance == 0.0:
            return
        n = self.n
        window, wavelength, k = n * self.pitch, self.ctx.wavelength, self.ctx.wavenumber
        f = _half_freqs(n, self.pitch)
        m = np.searchsorted(f, safe_frequency_limit(window, wavelength, distance), side="right")
        if self.factors is not None:
            # Evanescent samples in the cone would make the transfer's zeros,
            # and so the spectrum, not separable: then the hop runs on the grid.
            if _propagates(k, f, m):
                self._hold(distance, f, m, max_clip_fraction)
                return
            self._write_grid()
        if self.cone is None:
            _fft2_inplace(self.samples)
            self.cone = f.size
        u = self.samples
        # A cone that holds every frequency clips nothing.  Within budget the
        # clip costs one pass; only a refusal builds the ring table, for its
        # fraction and its safe distance.
        if m < f.size and _clipped_fraction(u, m) > max_clip_fraction:
            raise _refusal(_clip_curve(_ring_table(u), f, window, wavelength), distance,
                           window, max_clip_fraction)
        quadrant = _transfer_quadrant(f, k, m, distance)
        _clear_outside_cone(u, m)
        _multiply_mirrored(u, quadrant, _fft_runs(n, m))
        self.cone = m

    def lens(self, focal: float) -> None:
        if focal == 0 or np.isnan(focal):
            raise ValidationError(f"focal length must be nonzero, got {focal}")
        if np.isinf(focal):
            return
        # exp(-i k rho^2 / 2f) = outer(p, p) on the quadrant of distances
        # |i - n//2| from the axis, p = exp(-i k x^2 / 2f) on the half axis
        h = self.n // 2 + 1
        x2 = (np.arange(h) * self.pitch) ** 2
        p = np.exp(-1j * self.ctx.wavenumber * x2 / (2.0 * focal))
        quadrant = np.empty((h, h), np.complex128)
        _each_block(lambda r: np.multiply(p[r, None], p[None, :], out=quadrant[r]), h,
                    quadrant.size)
        _multiply_mirrored(self._to_samples(), quadrant, centred_runs(self.n))

    def stop(self, radius: float) -> None:
        """Zero the samples outside a centred disk: a bounded lens's aperture."""
        u = self._to_samples()
        x2 = axis_coords(self.n, self.pitch) ** 2

        def clear(r):
            u[r][x2[None, :] + x2[r, None] > radius**2] = 0.0

        _each_block(clear, self.n, u.size)

    def mask(self, transmission: TransmissionMask) -> None:
        if (self.factors is not None and self.cone is None
                and transmission.samples.strides[0] == 0):
            # Every row repeats one profile (a wire_mask broadcast): it
            # multiplies the row factor, into a new array.
            transmission.check_grid((self.n, self.n), self.pitch)
            column, row = self.factors
            self.factors = (column, np.multiply(row, transmission.samples[0]))
        else:
            transmission.multiply_into(self._to_samples(), self.pitch)

    def check_finite(self) -> None:
        # On a spectrum too: a non-finite sample spreads to every frequency.
        arrays = self.factors if self.factors is not None else (self.samples,)
        if not all(_all_finite(a) for a in arrays):
            raise ValidationError("field samples must all be finite")

    def rows(self, rows=None) -> np.ndarray:
        """Rows ``rows`` of the samples, any sequence of row indices, checked
        for finiteness: the workspace's last read, whatever state it holds.
        All rows (the default) are the working array itself."""
        if rows is None:
            out = self._to_samples()
        elif self.factors is not None and self.cone is None:
            column, row = self.factors
            out = np.multiply(column[rows, None], row[None, :])
        elif self.factors is not None:
            out = self._stretch_rows(rows)
        elif self.cone is None:
            out = np.take(self.samples, rows, axis=0)
        else:
            out = _inverse(self.samples, self.cone, rows)
        if not _all_finite(out):
            raise ValidationError("field samples must all be finite")
        return out

    def field(self) -> ScalarField:
        """All rows of the samples, as a ScalarField (which checks them)."""
        return ScalarField(self._to_samples(), self.pitch)


# ---------------------------------------------------------------------------
# Angular-spectrum propagation
# ---------------------------------------------------------------------------

def propagate(fld: ScalarField, ctx: WaveContext, distance: float,
              max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> ScalarField:
    """Propagate a field through free space by the angular-spectrum method.

    Parameters
    ----------
    fld : ScalarField
        Input field.
    ctx : WaveContext
        Wavenumber of the light being propagated.
    distance : float
        Propagation distance in meters, >= 0.
    max_clip_fraction : float
        Power fraction the band-limit clip may remove before the call is
        rejected as aliasing-prone.

    Returns
    -------
    ScalarField
        The propagated field.  Power is conserved to better than 1e-9
        (relative) whenever the input has no evanescent or out-of-cone
        content.

    Raises
    ------
    AliasingRiskError
        If the requested distance lies beyond the band-limited range for
        this grid; the error names the maximum safe distance.
    """
    ws = _Workspace(fld, ctx)
    ws.hop(distance, max_clip_fraction)
    return ws.field()


def apply_thin_lens(fld: ScalarField, ctx: WaveContext, focal: float) -> ScalarField:
    """Multiply by the thin-lens phase exp(-i k rho^2 / (2 f)).

    Positive focal lengths converge.  An infinite focal length is the
    identity.  Power is unchanged (the lens is unbounded; clip with a mask
    element if an aperture matters).
    """
    ws = _Workspace(fld, ctx)
    ws.lens(focal)
    return ws.field()


# ---------------------------------------------------------------------------
# Optical elements and trains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeSpace:
    distance: float

    def __post_init__(self):
        if self.distance < 0:
            raise ValidationError(f"free-space distance must be >= 0, got {self.distance}")

    def describe(self) -> str:
        return f"FreeSpace({self.distance:g} m)"


@dataclass(frozen=True)
class ThinLens:
    focal: float
    aperture_radius: float | None = None  # None = unbounded

    def __post_init__(self):
        if self.focal == 0:
            raise ValidationError("thin-lens focal length must be nonzero")
        if self.aperture_radius is not None and self.aperture_radius <= 0:
            raise ValidationError("bounded lens aperture radius must be > 0")

    def describe(self) -> str:
        return f"ThinLens(f={self.focal:g} m)"


@dataclass(frozen=True)
class Mask:
    transmission: TransmissionMask

    def describe(self) -> str:
        return "Mask"


OpticalElement = Union[FreeSpace, ThinLens, Mask]


@dataclass(frozen=True)
class OpticalTrain:
    """Ordered sequence of optical elements, applied left to right."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for el in self.elements:
            if not isinstance(el, (FreeSpace, ThinLens, Mask)):
                raise ValidationError(f"unsupported optical element {el!r}")


def _apply_element(ws: _Workspace, el: OpticalElement, max_clip_fraction: float) -> None:
    if isinstance(el, FreeSpace):
        ws.hop(el.distance, max_clip_fraction)
    elif isinstance(el, ThinLens):
        ws.lens(el.focal)
        if el.aperture_radius is not None:
            ws.stop(el.aperture_radius)
    else:
        ws.mask(el.transmission)


def _run_train(fld: ScalarField | SeparableField, ctx: WaveContext, train: OpticalTrain,
               max_clip_fraction: float, read):
    """The element loop of :func:`propagate_train` on one :class:`_Workspace`:
    it returns ``read(workspace)``, which checks the last element's output,
    under that element's error prefix."""
    ws = _Workspace(fld, ctx)
    last = len(train.elements) - 1
    for i, el in enumerate(train.elements):
        try:
            _apply_element(ws, el, max_clip_fraction)
            if i == last:
                return read(ws)
            ws.check_finite()
        except AliasingRiskError as exc:
            raise AliasingRiskError(
                f"element {i} ({el.describe()}): {exc}", exc.max_safe_distance
            ) from exc
        except ValidationError as exc:
            raise type(exc)(f"element {i} ({el.describe()}): {exc}") from exc
    return read(ws)


def propagate_train(fld: ScalarField | SeparableField, ctx: WaveContext, train: OpticalTrain,
                    max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> ScalarField:
    """Apply every element of the train in order, on one copy of the field.

    A :class:`~twinbeam.field.SeparableField` is not copied: the train
    starts from its two factors and writes the grid at the first element
    that needs it, which for a hop is the spectrum, with no 2-D transform.
    Element errors are re-raised with the element index prepended so a
    failing stage of a long train is identifiable.  Each element's output is
    checked for finiteness once (held as factors, on both factors): the last
    one's by the ScalarField it becomes.
    """
    return _run_train(fld, ctx, train, max_clip_fraction, _Workspace.field)


def _train_rows(fld: ScalarField | SeparableField, ctx: WaveContext, train: OpticalTrain,
                rows=None, max_clip_fraction: float = DEFAULT_MAX_CLIP_FRACTION) -> np.ndarray:
    """Rows ``rows`` (all by default) of :func:`propagate_train`'s samples,
    equal to them byte for byte: the last inverse transform runs its row pass on those rows
    only, and a train that ends in its first stretch of hops makes no
    n x n array (:meth:`_Workspace.rows`)."""
    return _run_train(fld, ctx, train, max_clip_fraction, lambda ws: ws.rows(rows))
