"""Every pass of the factor path gives the same bytes whatever the number of
numpy's OpenBLAS threads, and agrees with its plain 2-D formula.

The ``threads`` fixture runs each pass with OpenBLAS limited to 1, 2 and 3
threads and checks the bytes against the one-thread result.  The one pass
that reaches BLAS and LAPACK on grid rows is the recompression: its tree QR
factors leaves that are a multiple of 64 cone rows tall by the hop's column
pairs, and applies Q by batched products.  The grids are 128, 129 and 257
wide, whose leaves are 64 rows tall; even and odd n fold their half axes
differently.  ``test_recompress_largest_block`` checks 32 column pairs on 8
leaves of 256 rows: the widest block the presets and the fig4b sweeps reach
is 32 pairs (on 128-row leaves), and their tallest leaves are 256 rows (of
24 pairs).
"""

import numpy as np
import pytest

from conftest import (PUMP_WAVELENGTH, as_grid, blas_threads, count_transforms, make_scenario,
                      patch_map)
from oracles import (aperture_map_formula, disk_stop, full_grid_transfer, lens_phase,
                     oracle_angular_spectrum_train)
from twinbeam import (FreeSpace, Mask, OpticalTrain, SeparableField, ThinLens, TransmissionMask,
                      ValidationError, WaveContext, apply_thin_lens, biphoton, field,
                      propagate_train, propagation, safe_frequency_limit)

CTX = WaveContext.from_wavelength(PUMP_WAVELENGTH)
PITCH = 20e-6


def _bytes(result) -> bytes:
    if isinstance(result, (tuple, list)):
        return b"".join(_bytes(r) for r in result)
    if isinstance(result, SeparableField):
        return result.column.tobytes() + result.row.tobytes()
    return np.asarray(result).tobytes()


class _Threads:
    def __init__(self, count):
        self.count = count

    def run(self, fn):
        """``fn()`` with OpenBLAS on this many threads, checked to be the
        bytes it gives on one thread."""
        with blas_threads(1):
            want = fn()
        with blas_threads(self.count):
            got = fn()
        assert _bytes(got) == _bytes(want)
        return got


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"{w}w")
def threads(request):
    return _Threads(request.param)


@pytest.fixture(params=[128, 129, 257])
def n(request):
    return request.param


def _random_field(n):
    rng = np.random.default_rng(n)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _random_factors(n, rank=3):
    rng = np.random.default_rng(n)
    return tuple(rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)) for _ in range(2))


def _close(got, want, bound=1e-13):
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("distance", [0.05, 1.5])  # full band; band-limited
def test_transfer_quadrant(n, threads, distance):
    # the ACA factors of the cone's quadrant, mirrored onto the cone's rows in
    # FFT order, give the full-grid transfer, zero outside the cone, within
    # the tolerance
    f, m = propagation._cone(n, PITCH, CTX.wavelength, distance)
    assert (m == f.size) == (distance == 0.05)
    u, v = threads.run(lambda: propagation._transfer_factors(n, f, CTX.wavenumber, m, distance))
    inside = np.minimum(np.arange(n), n - np.arange(n)) < m
    assert u.shape == v.shape and u.shape[0] == np.count_nonzero(inside)
    assert u.shape[1] <= propagation.RANK_CAP
    got = np.zeros((n, n), complex)
    got[np.ix_(inside, inside)] = np.einsum("ik,jk->ij", u, v)
    _close(got, full_grid_transfer(n, PITCH, CTX, distance), 1e-12)


@pytest.mark.parametrize("focal", [0.2, -0.2])
def test_lens_phase(n, threads, focal):
    # each factor times the chirp, within rounding of the product with the
    # full-grid phase
    a, b = _random_factors(n)
    out = threads.run(lambda: apply_thin_lens(SeparableField(a, b, PITCH), CTX, focal))
    _close(as_grid(out), (a @ b.T) * lens_phase(n, PITCH, CTX, focal), 1e-14)


def _folded_grams_case(n):
    # the Gram matrices folded onto the half axis, against a scatter-add
    x = _random_factors(n)[0]
    fold = np.minimum(np.arange(n), n - np.arange(n))
    want = np.zeros((n // 2 + 1, 3, 3), complex)
    np.add.at(want, fold, np.einsum("ir,is->irs", x, x.conj()))
    return (lambda: propagation._folded_grams(x)), want


def _chirp_case(n):
    # the lens chirp on the centred axis, against the half axis's chirp
    # read at each sample's distance |i - n//2| from the axis
    half = np.exp(-1j * CTX.wavenumber * (np.arange(n // 2 + 1) * PITCH) ** 2 / 0.4)
    return (lambda: propagation._chirp(n, PITCH, CTX, 0.2)), half[np.abs(np.arange(n) - n // 2)]


@pytest.mark.parametrize("runs, index", [(_folded_grams_case, None), (_chirp_case, None)],
                         ids=["fft-order", "centred"])
def test_mirrored_products(n, threads, runs, index):
    # a half-axis table read onto a whole axis: FFT order folds sample i onto
    # min(i, n - i), a centred axis onto |i - n//2|; both byte for byte
    fn, want = runs(n)
    assert threads.run(fn).tobytes() == want.tobytes()


def test_workspace_copies_the_input(n, threads):
    # a factor train reads the caller's factors and never writes them
    a, b = _random_factors(n)
    fld = SeparableField(a, b, PITCH)
    before = fld.column.tobytes(), fld.row.tobytes()
    train = OpticalTrain((Mask(field.wire_mask(4 * PITCH, n, PITCH)), FreeSpace(0.05),
                          ThinLens(0.2), FreeSpace(0.05)))
    out = threads.run(lambda: propagate_train(fld, CTX, train, max_clip_fraction=1.0))
    assert (fld.column.tobytes(), fld.row.tobytes()) == before
    assert not fld.column.flags.writeable and np.shares_memory(fld.column, a)
    for factor in (out.column, out.row):
        assert not np.shares_memory(factor, a) and not np.shares_memory(factor, b)


def test_mask_product(n, threads):
    # a mask multiplies every row by its profile, through the row factor:
    # on the factor byte for byte, and on the samples within rounding of the
    # product
    transmission = np.random.default_rng(n + 1).uniform(size=n)
    mask = TransmissionMask(transmission, PITCH)
    a, b = _random_factors(n)
    out = threads.run(lambda: propagate_train(SeparableField(a, b, PITCH), CTX,
                                              OpticalTrain((Mask(mask),))))
    assert out.column.tobytes() == a.tobytes()
    assert out.row.tobytes() == (b * transmission[:, None]).tobytes()
    _close(as_grid(out), (a @ b.T) * transmission, 1e-15)


def test_clip_table(n, threads):
    # the ring table of a @ b.T from the factors' folded Gram matrices, against
    # bincount on a ring index of the 2-D spectrum, within 1e-12 of each ring;
    # the clip curve reads the tail sums of the table
    a, b = (np.fft.fft(x, axis=0) for x in _random_factors(n))
    spectrum = a @ b.T
    f = propagation._half_freqs(n, PITCH)
    fold = np.minimum(np.arange(n), n - np.arange(n))
    rings = np.maximum(fold[None, :], fold[:, None]).ravel()
    counted = np.bincount(rings, weights=(np.abs(spectrum) ** 2).ravel(), minlength=f.size)
    table = threads.run(lambda: propagation._gram_ring_table(a, b))
    assert table.shape == counted.shape
    assert np.all(np.abs(table - counted) <= 1e-12 * counted)
    clipped = propagation._clip_curve(table, f, n * PITCH, CTX.wavelength)
    tail = np.append(np.cumsum(table[::-1])[::-1], 0.0)
    for z in (0.05, 0.5, 1.5, 3.0):
        f_limit = safe_frequency_limit(n * PITCH, CTX.wavelength, z)
        assert clipped(z) == tail[np.searchsorted(f, f_limit, side="right")] / tail[0]


@pytest.mark.parametrize("distance", [0.5, 1.5, 3.0])
def test_clipped_fraction(n, threads, distance):
    # the fraction a hop's cone clips, from the factors' ring table, equals
    # the power of the 2-D spectrum outside the cone's square to rounding
    a, b = (np.fft.fft(x, axis=0) for x in _random_factors(n))
    f, m = propagation._cone(n, PITCH, CTX.wavelength, distance)
    assert m <= n // 2
    power = np.abs(a @ b.T) ** 2
    outside = power.sum() - power[np.ix_(*2 * [np.r_[0:m, n - m + 1:n]])].sum()
    got = threads.run(lambda: propagation._clip_curve(propagation._gram_ring_table(a, b), f,
                                                   n * PITCH, CTX.wavelength)(distance))
    assert got == pytest.approx(outside / power.sum(), rel=1e-12)


@pytest.mark.parametrize("elements", [(), (FreeSpace(0.05),)], ids=["samples", "spectrum"])
def test_separable_start(n, threads, elements):
    # from rank-1 factors: outer(column, row) with no element, to the rounding
    # of the product; after a hop, the 2-D oracle's field within 1e-13 of its
    # peak
    rng = np.random.default_rng(n)
    column, row = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    fld = SeparableField(column, row, PITCH)
    out = as_grid(threads.run(lambda: propagate_train(fld, CTX, OpticalTrain(elements),
                                                      max_clip_fraction=1.0)))
    want = oracle_angular_spectrum_train(np.multiply.outer(column, row), PITCH, CTX, elements)
    _close(out, want, 1e-13 if elements else 1e-15)


@pytest.mark.parametrize("distances", [(0.05, 1.5), (1.5, 0.05, 0.5)])
def test_stretch_write(n, threads, distances):
    # consecutive hops on the factors' spectra, each on its own cone, give the
    # 2-D oracle's hop-by-hop field within 1e-13 of its peak
    a, b = _random_factors(n)
    train = OpticalTrain(tuple(FreeSpace(z) for z in distances))
    out = as_grid(threads.run(lambda: propagate_train(SeparableField(a, b, PITCH), CTX, train,
                                                      max_clip_fraction=1.0)))
    _close(out, oracle_angular_spectrum_train(a @ b.T, PITCH, CTX, train.elements))


def _tree_qr_explicit(x):
    """The tree QR of x's columns as explicit ``(q, r)``."""
    r, apply = propagation._tree_qr(x, np.ones((x.shape[0], 1)))
    return apply(np.eye(x.shape[1])), r


def test_orthonormal_keeps_independent_columns(n, threads):
    # the tree QR of 12 columns on 5 nonzero rows: the first 5 span them, and
    # the other 7 leave only rounding residuals in r, which the SVD cut of
    # the recompression must drop
    x = np.zeros((n, 12), complex)
    x[[0, 3, n // 2, n - 4, n - 1]] = _random_factors(5, rank=12)[0]
    q, r = threads.run(lambda: _tree_qr_explicit(x))
    s = np.linalg.svd(r, compute_uv=False)
    assert np.count_nonzero(s > propagation.RANK_TOLERANCE * s[0]) == 5
    assert np.max(np.abs(q.conj().T @ q - np.eye(12))) <= 1e-14
    _close(q @ r, x)
    b = _random_factors(n, rank=12)[0]
    one = np.ones((n, 1))
    qa, qb = threads.run(lambda: propagation._recompress(x, one, b, one))
    assert qa.shape == qb.shape == (n, 5)
    _close(qa @ qb.T, x @ b.T)


def test_recompress_core(n, threads, monkeypatch):
    # 52 column pairs: OpenBLAS rounds a complex 52 x 52 product differently
    # on 3 threads than on 1, so the core is formed without BLAS
    monkeypatch.setattr(propagation, "RANK_CAP", 64)
    a, b = _random_factors(n, rank=52)
    one = np.ones((n, 1))
    threads.run(lambda: propagation._recompress(a, one, b, one))


def test_recompress_largest_block(threads):
    # the presets' widest block and tallest leaves at once: 32 column pairs
    # on 2048 cone rows, 8 leaves of 256 rows and a 256 x 32 stack of R
    # factors
    rng = np.random.default_rng(2048)
    a, u, b, v = (rng.normal(size=(2048, r)) + 1j * rng.normal(size=(2048, r))
                  for r in (4, 8, 4, 8))
    qa, qb = threads.run(lambda: propagation._recompress(a, u, b, v))
    x, y = ((f[:, :, None] * g[:, None, :]).reshape(2048, 32) for f, g in ((a, u), (b, v)))
    _close(qa[::16] @ qb.T, x[::16] @ y.T)  # on every 16th row


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("row", [0, -1])  # the first and the last row
def test_finiteness_checks(n, threads, bad, row):
    a, b = _random_factors(n)
    state = propagation._Factors(SeparableField(a, b, PITCH), CTX)
    state.check_finite()
    state.b = b.copy()
    state.b[row, 1] = bad
    with pytest.raises(ValidationError, match="finite"):
        state.check_finite()
    with pytest.raises(ValidationError, match="row factor samples must all be finite"):
        SeparableField(a, state.b, PITCH)
    threads.run(lambda: propagation._Factors(SeparableField(a, b, PITCH), CTX).check_finite())


def test_finiteness_checks_pass_an_overflowing_sum(n, threads):
    big = np.full((n, 2), 1e308 * (1 + 1j))
    with np.errstate(over="ignore"):
        assert not np.isfinite(big.sum())
    threads.run(lambda: propagation._Factors(SeparableField(big, big, PITCH), CTX).check_finite())


def test_consecutive_hops_share_one_spectrum(n, threads, monkeypatch):
    # two hops in a row transform the factors forward once and back once,
    # and agree with the 2-D oracle hop by hop
    a, b = _random_factors(n)
    train = OpticalTrain((FreeSpace(0.05), FreeSpace(1.5)))
    out = threads.run(lambda: propagate_train(SeparableField(a, b, PITCH), CTX, train,
                                           max_clip_fraction=1.0))
    _close(as_grid(out), oracle_angular_spectrum_train(a @ b.T, PITCH, CTX, train.elements))
    calls = count_transforms(monkeypatch)
    propagate_train(SeparableField(a, b, PITCH), CTX, train, max_clip_fraction=1.0)
    assert calls == [False, True]


@pytest.mark.parametrize("radius", [0.3e-3, 2e-3])  # inside and beyond the window
def test_lens_stop(n, threads, radius):
    # a lens stop is a 2-D disk, which has no 1-D profile and no low-rank
    # form: no mask holds it.  Its slit |x| <= radius keeps the columns inside
    # and zeroes the others: the rows of the row factor
    with pytest.raises(ValidationError, match="1D profile"):
        TransmissionMask(disk_stop(n, PITCH, radius), PITCH)
    a, b = _random_factors(n)
    inside = np.abs(field.axis_coords(n, PITCH)) <= radius
    slit = OpticalTrain((Mask(TransmissionMask(inside.astype(float), PITCH)),))
    out = threads.run(lambda: propagate_train(SeparableField(a, b, PITCH), CTX, slit))
    assert np.array_equal(out.column, a)
    assert np.array_equal(out.row, np.where(inside[:, None], b, 0.0))


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("waist", [0.3e-3, 0.41e-3])
def test_gaussian_beam(n, threads, waist):
    # the beam is two equal rank-1 factors, each the 1-D Gaussian
    factors = threads.run(lambda: field.separable_gaussian(waist, n, PITCH))
    assert factors.column.shape == factors.row.shape == (n, 1)
    ref = np.exp(-field.axis_coords(n, PITCH) ** 2 / waist**2).astype(complex)
    assert factors.column.tobytes() == factors.row.tobytes() == ref.tobytes()


def test_intensity(n, threads):
    samples = _random_field(n)
    ref = np.abs(samples) ** 2
    got = threads.run(lambda: field._abs_square(samples))
    assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# biphoton
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("radii", [(1e-4, 1e-4), (1e-4, 2e-4)])
def test_aperture_map(n, threads, radii):
    # the whole map, from a patch that wraps past every edge, by one 2-D
    # transform.  The left half is dark: there the convolution rounds to tiny
    # negatives, thousands of them, which the clamp must zero
    samples = np.random.default_rng(n).uniform(size=(n, n))
    samples[:, : n // 2] = 0.0
    out = threads.run(lambda: patch_map(samples, PITCH, radii, [0, n - 1], [0, n - 1]))
    ref = aperture_map_formula(np.square(samples), PITCH, radii)
    assert np.max(np.abs(out - ref)) <= 1e-13 * ref.max() and out.min() == 0.0


def test_scan_scales_what_it_reads_from_the_map(n, threads, monkeypatch):
    # the line read carries no kappa and no P: kappa * P multiplies it
    scenario = make_scenario(waist=0.2e-3, n=n, pitch=PITCH, aperture=1e-4,
                             scan=(-1e-3, 1e-3, 1e-4))
    detector_field = _random_field(n)
    monkeypatch.setattr(biphoton, "_detector_rows", lambda scenario, rows, cols, transposed:
                        detector_field[np.ix_(rows, cols)])
    kappa = 1359.4635691545443
    k_p = 2.0 * np.pi / scenario.pump.wavelength_m
    scale = kappa * biphoton.divergence_prefactor(k_p, biphoton.divergence_loss_distance(scenario))
    profile = threads.run(lambda: biphoton.scan_detector(scenario, kappa=kappa).rates)
    _, raw, _ = biphoton._scan_stage(scenario)
    assert profile.tobytes() == (scale * raw).tobytes()
    rate_map = aperture_map_formula(np.abs(detector_field) ** 2, PITCH, (1e-4, 1e-4))
    coords = biphoton.scan_points(scenario)[0]
    ref = field._bilinear_gather(rate_map, *field._bilinear_cells(n, PITCH, coords, 0.0))
    assert np.max(np.abs(raw - ref)) <= 1e-13 * rate_map.max()

