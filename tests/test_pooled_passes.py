"""Every full-grid pass split across the core pool equals today's one-call
expression byte for byte, whatever the number of row blocks.

``_SPLIT_MIN_SIZE`` is forced to 0, so even these small grids are split,
into one row block per worker; 129 and 257 rows do not divide evenly.  The
grids are at least 128 wide so that their complex arrays reach numpy's
256 KiB temporary-elision threshold (see the propagation module docstring).
"""

import numpy as np
import pytest

from conftest import PUMP_WAVELENGTH, make_scenario
from oracles import (aperture_map_formula, full_grid_transfer, ifft2_columns_first, lens_phase,
                     radius_squared)
from twinbeam import (ScalarField, TransmissionMask, ValidationError, WaveContext,
                      apply_thin_lens, bilinear_sample, biphoton, field, gaussian_beam,
                      propagation, safe_frequency_limit)

CTX = WaveContext.from_wavelength(PUMP_WAVELENGTH)
PITCH = 20e-6


class _Pool:
    def __init__(self, workers):
        self.workers, self.split_calls = workers, []

    def check(self):
        """The passes went through the pool exactly when it has more than one worker."""
        assert bool(self.split_calls) == (self.workers > 1)


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"{w}w")
def pool(request, monkeypatch):
    spy = _Pool(request.param)
    executor = field._executor
    monkeypatch.setattr(field, "_SPLIT_MIN_SIZE", 0)
    monkeypatch.setattr(field, "_worker_count", lambda: spy.workers)
    monkeypatch.setattr(field, "_executor",
                        lambda workers: spy.split_calls.append(workers) or executor(workers))
    return spy


@pytest.fixture(params=[128, 129, 257])
def n(request):
    return request.param


def _random_field(n):
    rng = np.random.default_rng(n)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("distance", [0.05, 1.5])  # full band; band-limited
def test_transfer_quadrant(n, pool, distance):
    # built on the cone's m x m block only: outside it the transfer is zero
    f = propagation._half_freqs(n, PITCH)
    k = CTX.wavenumber
    f_limit = safe_frequency_limit(n * PITCH, CTX.wavelength, distance)
    m = np.searchsorted(f, f_limit, side="right")
    out = propagation._transfer_quadrant(f, k, m, distance)
    k_sq = (2.0 * np.pi * f) ** 2
    kx_sq, ky_sq = k_sq[None, :], k_sq[:, None]
    kz = k**2 - kx_sq - ky_sq
    in_cone = (kz > 0.0) & (f[None, :] <= f_limit) & (f[:, None] <= f_limit)
    kz_rel = -(kx_sq + ky_sq) / (np.sqrt(np.maximum(kz, 0.0)) + k)
    ref = np.where(in_cone, np.exp(1j * distance * kz_rel), 0.0)
    assert out.shape == (m, m) and not ref[m:].any() and not ref[:, m:].any()
    assert out.tobytes() == ref[:m, :m].copy().tobytes()
    pool.check()


@pytest.mark.parametrize("focal", [0.2, -0.2])
def test_lens_phase(n, pool, focal):
    samples = _random_field(n)
    out = apply_thin_lens(ScalarField(samples, PITCH), CTX, focal)
    phase = lens_phase(n, PITCH, CTX, focal)
    ref = samples * phase
    assert out.samples.tobytes() == ref.tobytes()
    pool.check()


@pytest.mark.parametrize("runs, index", [
    (propagation._fft_runs, lambda n: np.minimum(np.arange(n), n - np.arange(n))),
    (field.centred_runs, lambda n: np.abs(np.arange(n) - n // 2)),
], ids=["fft-order", "centred"])
def test_mirrored_products(n, pool, runs, index):
    a = _random_field(n)
    quadrant = _random_field(n // 2 + 1)
    u = a.copy()
    propagation._multiply_mirrored(u, quadrant, runs(n))
    gathered = quadrant[np.ix_(index(n), index(n))]
    ref = a * gathered
    assert u.tobytes() == ref.tobytes()
    pool.check()


def test_workspace_copies_the_input(n, pool):
    fld = ScalarField(_random_field(n), PITCH)
    ws = propagation._Workspace(fld, CTX)
    assert ws.samples.tobytes() == fld.samples.tobytes()
    assert ws.samples.flags.writeable and not np.shares_memory(ws.samples, fld.samples)
    pool.check()


def test_mask_product(n, pool):
    samples = _random_field(n)
    transmission = np.random.default_rng(n + 1).uniform(size=(n, n))
    out = TransmissionMask(transmission, PITCH).apply(ScalarField(samples, PITCH))
    ref = samples * transmission
    assert out.samples.tobytes() == ref.tobytes()
    pool.check()


def test_clip_table(n, pool):
    # the power folded onto the quadrant, then ring r as the diagonal of
    # cumsum(q, 1) plus the diagonal above it of cumsum(q, 0), byte for
    # byte; against bincount on a ring index within 1e-14 of each ring
    spectrum = np.fft.fft2(_random_field(n))
    f = propagation._half_freqs(n, PITCH)
    i = np.arange(n)
    ring = np.minimum(i, n - i)
    power = np.abs(spectrum) ** 2
    q = np.zeros((f.size, f.size))
    for rows, q_rows in propagation._fft_runs(n):
        for cols, q_cols in propagation._fft_runs(n):
            q[q_rows, q_cols] += power[rows, cols]
    folded = np.diagonal(np.cumsum(q, axis=1)).copy()
    folded[1:] += np.diagonal(np.cumsum(q, axis=0), offset=1)
    table = propagation._ring_table(spectrum)
    assert table.tobytes() == folded.tobytes()
    rings = np.maximum(ring[None, :], ring[:, None]).ravel()
    counted = np.bincount(rings, weights=power.ravel(), minlength=f.size)
    assert np.all(np.abs(table - counted) <= 1e-14 * counted)
    clipped = propagation._clip_curve(table, f, n * PITCH, CTX.wavelength)
    tail = np.append(np.cumsum(table[::-1])[::-1], 0.0)
    for z in (0.05, 0.5, 1.5, 3.0):
        f_limit = safe_frequency_limit(n * PITCH, CTX.wavelength, z)
        assert clipped(z) == tail[np.searchsorted(f, f_limit, side="right")] / tail[0]
    assert pool.split_calls == []  # the fold is serial: only a refusal builds it


@pytest.mark.parametrize("distance", [0.5, 1.5, 3.0])
def test_clipped_fraction(n, pool, distance):
    # the pooled row sums in a few rows at a time equal whole-array row sums;
    # the fraction equals the ring table's to rounding
    spectrum = np.fft.fft2(_random_field(n))
    f = propagation._half_freqs(n, PITCH)
    m = np.searchsorted(f, safe_frequency_limit(n * PITCH, CTX.wavelength, distance), "right")
    assert m <= n // 2
    power = np.abs(spectrum) ** 2
    total, outside = power.sum(axis=1), power[:, m:n - m + 1].sum(axis=1)
    outside[m:n - m + 1] = total[m:n - m + 1]
    got = propagation._clipped_fraction(spectrum, m)
    assert got == outside.sum() / total.sum()
    table = propagation._clip_curve(propagation._ring_table(spectrum), f, n * PITCH,
                                    CTX.wavelength)
    assert got == pytest.approx(table(distance), rel=1e-12)
    pool.check()


@pytest.mark.parametrize("elements", [(), (propagation.FreeSpace(0.05),)],
                         ids=["samples", "spectrum"])
def test_separable_start(n, pool, elements):
    # the grid written from the factors: outer(column, row), or after a hop,
    # which the factors' spectra hold, the inverse of outer(fft(column),
    # fft(row)) * T, columns first (within 1e-14 of ifft2's rows first)
    rng = np.random.default_rng(n)
    column, row = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    ws = propagation._Workspace(field.SeparableField(column, row, PITCH), CTX)
    for el in elements:
        propagation._apply_element(ws, el, max_clip_fraction=1.0)
    if elements:
        assert ws.samples is None and ws.cone is not None
        spectrum = np.multiply.outer(np.fft.fft(column), np.fft.fft(row))
        transfer = full_grid_transfer(n, PITCH, CTX, 0.05)  # named: no elided, swapped product
        ref = spectrum * transfer
        out = ws.field().samples
        assert out.tobytes() == ifft2_columns_first(ref).tobytes()
        rows_first = np.fft.ifft2(ref)
        assert np.max(np.abs(out - rows_first)) <= 1e-14 * np.max(np.abs(rows_first))
    else:
        assert ws.field().samples.tobytes() == np.multiply.outer(column, row).tobytes()
    pool.check()


@pytest.mark.parametrize("distances", [(0.05, 1.5), (1.5, 0.05, 0.5)])
def test_stretch_write(n, pool, distances, monkeypatch):
    # a stretch of hops held as the factors' spectra is written once:
    # outer(fft(column), fft(row)) times one transfer for the total distance
    # on the smallest cone, zero outside it
    rng = np.random.default_rng(n)
    column, row = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    ws = propagation._Workspace(field.SeparableField(column, row, PITCH), CTX)
    for z in distances:
        ws.hop(z, max_clip_fraction=1.0)
    full = np.full  # a new working array starts as NaN: every sample must be written
    monkeypatch.setattr(np, "empty", lambda shape, dtype=float: full(shape, np.nan, dtype))
    ws._write_grid()
    monkeypatch.undo()
    f = np.abs(np.fft.fftfreq(n, d=PITCH))
    f_limit = min(safe_frequency_limit(n * PITCH, CTX.wavelength, z) for z in distances)
    in_cone = (f[None, :] <= f_limit) & (f[:, None] <= f_limit)
    transfer = full_grid_transfer(n, PITCH, CTX, sum(distances), f_limit)
    assert 0 < in_cone.sum() < n * n and np.count_nonzero(transfer) == in_cone.sum()
    spectrum = np.multiply.outer(np.fft.fft(column), np.fft.fft(row))
    product = spectrum * transfer
    ref = np.where(in_cone, product, 0.0)  # +0 outside the cone, which the write clears
    m = np.count_nonzero(f[: n // 2 + 1] <= f_limit)
    assert ws.cone == m and ws.samples.tobytes() == ref.tobytes()
    pool.check()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("row", [0, -1])  # the first and the last row block
def test_finiteness_checks(n, pool, bad, row):
    samples = _random_field(n)
    ws = propagation._Workspace(ScalarField(samples, PITCH), CTX)
    ws.check_finite()
    ws.samples[row, n // 3] = bad
    with pytest.raises(ValidationError, match="finite"):
        ws.check_finite()
    with pytest.raises(ValidationError, match="finite"):
        ScalarField(ws.samples, PITCH)
    pool.check()


def test_finiteness_checks_pass_an_overflowing_sum(n, pool):
    samples = np.full((n, n), 1e308 * (1 + 1j))
    with np.errstate(over="ignore"):
        assert not np.isfinite(samples.sum())
    fld = ScalarField(samples, PITCH)
    propagation._Workspace(fld, CTX).check_finite()
    pool.check()


def test_consecutive_hops_share_one_spectrum(n, pool):
    # two hops in a row transform once each way: the inverse, columns first,
    # of (fft2(u) * T1) * T2, operands in the order the workspace multiplies
    # them, each one named so that numpy cannot elide it into a swapped
    # in-place product
    samples = _random_field(n)
    train = propagation.OpticalTrain((propagation.FreeSpace(0.05), propagation.FreeSpace(1.5)))
    out = propagation.propagate_train(ScalarField(samples, PITCH), CTX, train,
                                      max_clip_fraction=1.0)
    t1, t2 = (full_grid_transfer(n, PITCH, CTX, z) for z in (0.05, 1.5))
    spectrum = np.fft.fft2(samples)
    once = spectrum * t1
    twice = once * t2
    assert out.samples.tobytes() == ifft2_columns_first(twice).tobytes()
    hop_by_hop = samples
    for transfer in (t1, t2):
        spectrum = np.fft.fft2(hop_by_hop)
        hop_by_hop = np.fft.ifft2(spectrum * transfer)
    assert np.max(np.abs(out.samples - hop_by_hop)) <= 1e-13 * np.max(np.abs(hop_by_hop))
    pool.check()


@pytest.mark.parametrize("radius", [0.3e-3, 2e-3])  # inside and beyond the window
def test_lens_stop(n, pool, radius):
    samples = _random_field(n)
    ws = propagation._Workspace(ScalarField(samples, PITCH), CTX)
    ws.stop(radius)
    ref = np.where(radius_squared(n, PITCH) <= radius**2, samples, 0.0)
    assert ws.samples.tobytes() == ref.tobytes()
    pool.check()


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("waist", [0.3e-3, 0.41e-3])
def test_gaussian_beam(n, pool, waist):
    # the beam is one outer product of its factors; its one full-grid pass
    # is the finiteness check of the ScalarField it becomes
    factors = field.separable_gaussian(waist, n, PITCH)
    ref = np.outer(factors.column, factors.row)
    assert gaussian_beam(waist, n, PITCH).samples.tobytes() == ref.tobytes()
    pool.check()


def test_intensity(n, pool):
    samples = _random_field(n)
    ref = np.abs(samples) ** 2
    assert ScalarField(samples, PITCH).intensity().tobytes() == ref.tobytes()
    pool.check()


# ---------------------------------------------------------------------------
# biphoton
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("radii", [(1e-4, 1e-4), (1e-4, 2e-4)])
def test_aperture_map(n, pool, radii):
    # the map is convolved line by line, off the pool, so every worker count
    # gives the same lines.  The left half is dark: there the convolution
    # rounds to tiny negatives, thousands of them, which the clamp must zero
    samples = np.random.default_rng(n).uniform(size=(n, n))
    samples[:, : n // 2] = 0.0
    out = biphoton._map_lines(samples, PITCH, radii, "x", np.arange(n))
    assert pool.split_calls == []
    ref = aperture_map_formula(np.square(samples), PITCH, radii)
    assert np.max(np.abs(out - ref)) <= 1e-13 * ref.max() and out.min() == 0.0


def test_scan_scales_what_it_reads_from_the_map(n, pool, monkeypatch):
    # the line read carries no kappa and no P: kappa * P multiplies it.  It
    # convolves two lines, not the grid, so the scan makes no pooled pass
    scenario = make_scenario(waist=0.2e-3, n=n, pitch=PITCH, aperture=1e-4,
                             scan=(-1e-3, 1e-3, 1e-4))
    detector_field = ScalarField(_random_field(n), PITCH)
    monkeypatch.setattr(biphoton, "_detector_rows", lambda scenario, rows:
                        detector_field.samples if rows is None else detector_field.samples[rows])
    kappa = 1359.4635691545443
    k_p = 2.0 * np.pi / scenario.pump.wavelength_m
    scale = kappa * biphoton.divergence_prefactor(k_p, biphoton.divergence_loss_distance(scenario))
    pool.split_calls.clear()
    profile = biphoton.scan_detector(scenario, kappa=kappa)
    assert pool.split_calls == []
    _, _, raw = biphoton._scan_stage(scenario)
    assert profile.rates.tobytes() == (scale * raw).tobytes()
    rate_map = aperture_map_formula(np.abs(detector_field.samples) ** 2, PITCH, (1e-4, 1e-4))
    ref = bilinear_sample(rate_map, PITCH, profile.coordinates, 0.0)
    assert np.max(np.abs(raw - ref)) <= 1e-13 * rate_map.max()

