import dataclasses

import numpy as np
import pytest

from conftest import (PUMP_WAVELENGTH, as_grid, count_inverse_lines, intensity_ncc,
                      make_scenario, masked, patch_map, traced_peak)
from oracles import (aperture_map_formula, aperture_map_per_disk, circular_rate_map,
                     coincidence_imaged, composite_kernel, disk_kernel,
                     oracle_angular_spectrum_train, rate_from_intensity)
from twinbeam import (
    OutOfWindowError,
    SamplingError,
    SeparableField,
    ValidationError,
    WaveContext,
    divergence_loss_distance,
    divergence_prefactor,
    effective_detector_field,
    load_scenario,
    propagate_train,
    scan_detector,
    unfolded_pump_train,
    wire_mask,
)
from twinbeam import biphoton, propagation
from twinbeam.biphoton import CoincidenceProfile, pump_input_field
from twinbeam.field import _bilinear_cells, _bilinear_gather, separable_gaussian
from twinbeam.propagation import FreeSpace, OpticalTrain, ThinLens
from twinbeam.scenario import LensElement

K_P = 2 * np.pi / PUMP_WAVELENGTH
CTX = WaveContext(K_P)


def free_scenario(**overrides):
    """Unmasked 0.5 mm Gaussian pump at the crystal, point detectors at 0.5 m."""
    args = dict(mask_type="none", waist=0.5e-3, z_m1=0.0, z_det=0.5, n=256,
                pitch=20e-6, aperture=0.0, include_prefactor=False)
    return make_scenario(**{**args, **overrides})


def with_idler_at(scenario, x_m):
    """The scenario with its fixed idler detector moved to x_m."""
    idler = dataclasses.replace(scenario.detectors.idler, x_m=x_m)
    return dataclasses.replace(
        scenario, detectors=dataclasses.replace(scenario.detectors, idler=idler))


@pytest.fixture(scope="module")
def free_field():
    """The free scenario's detector field, as its n x n samples."""
    return as_grid(effective_detector_field(free_scenario()))


def _masked_intensity():
    """|W|^2 of the 0.5 mm pump behind the 0.2 mm wire on the 256-sample grid."""
    beam = masked(separable_gaussian(0.5e-3, 256, 20e-6), wire_mask(0.2e-3, 256, 20e-6))
    return np.abs(as_grid(beam)) ** 2


class TestCoincidenceFree:
    def test_free_train_is_one_hop_at_pump_wavenumber(self, free_field):
        assert unfolded_pump_train(free_scenario()).elements == (FreeSpace(0.5),)
        direct = oracle_angular_spectrum_train(as_grid(separable_gaussian(0.5e-3, 256, 20e-6)),
                                               20e-6, CTX, (FreeSpace(0.5),))
        # the train runs on the pump's two 1-D spectra, so it agrees with the
        # 2-D hop to rounding, not byte for byte
        peak = np.max(np.abs(direct))
        assert np.max(np.abs(free_field - direct)) <= 1e-13 * peak

    def test_rate_depends_only_on_sum_coordinate(self, free_field):
        intensity = np.abs(free_field) ** 2
        rng = np.random.default_rng(0)
        for _ in range(100):
            rho_s = rng.uniform(-1e-3, 1e-3, 2)
            rho_i = rng.uniform(-1e-3, 1e-3, 2)
            delta = rng.uniform(-5e-4, 5e-4, 2)
            r1 = rate_from_intensity(intensity, 20e-6, tuple(rho_s + rho_i))
            r2 = rate_from_intensity(intensity, 20e-6,
                                     tuple((rho_s + delta) + (rho_i - delta)))
            assert r2 == pytest.approx(r1, rel=1e-6)

    def test_profile_is_gaussian_centered_at_minus_fixed(self):
        profile = scan_detector(with_idler_at(free_scenario(scan=(-1e-3, 1e-3, 5e-6)), 3e-4))
        peak = profile.coordinates[np.argmax(profile.rates)]
        assert peak == pytest.approx(-3e-4, abs=5e-6)

    def test_prefactor_quarters_when_distance_doubles(self, free_field):
        intensity = np.abs(free_field) ** 2
        r1 = rate_from_intensity(intensity, 20e-6, (1e-4, 2e-4),
                                 prefactor=divergence_prefactor(K_P, 1.0))
        r2 = rate_from_intensity(intensity, 20e-6, (1e-4, 2e-4),
                                 prefactor=divergence_prefactor(K_P, 2.0))
        assert r1 / r2 == pytest.approx(4.0, rel=1e-12)

    def test_out_of_window_is_error_not_zero(self, free_field):
        with pytest.raises(OutOfWindowError):
            rate_from_intensity(np.abs(free_field) ** 2, 20e-6, (1e-2, 0.0))

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan])
    def test_kappa_must_be_positive_and_finite(self, kappa):
        with pytest.raises(ValidationError, match="kappa must be positive and finite"):
            scan_detector(free_scenario(), kappa=kappa)

    def test_kappa_scales_linearly(self):
        r1, r7 = (scan_detector(free_scenario(), kappa=kappa).rates for kappa in (1.0, 7.0))
        assert np.allclose(r7, 7.0 * r1, rtol=1e-12, atol=0.0)


class TestCoincidenceImaged:
    def test_unit_magnification_samples_mask_field(self):
        intensity = _masked_intensity()
        r = coincidence_imaged(intensity, 20e-6, 0.2, 0.2, (2e-4, 1e-4), (1e-4, -1e-4))
        assert r == pytest.approx(rate_from_intensity(intensity, 20e-6, (3e-4, 0.0)), rel=1e-12)

    def test_demagnification_scales_coordinates(self):
        intensity = _masked_intensity()
        # O = 2I: a feature at u in the mask appears at sum coordinate u/2
        u = 4e-4
        r_feature = coincidence_imaged(intensity, 20e-6, 0.4, 0.2, (u / 2, 0.0), (0.0, 0.0))
        direct = rate_from_intensity(intensity, 20e-6, (u, 0.0))
        assert r_feature == pytest.approx(direct, rel=1e-12)

    def test_nonpositive_distances_rejected(self):
        intensity = np.abs(as_grid(separable_gaussian(0.5e-3, 256, 20e-6))) ** 2
        with pytest.raises(ValidationError):
            coincidence_imaged(intensity, 20e-6, 0.0, 0.2, (0, 0), (0, 0))


class TestUnfoldedTrain:
    def test_pump_only_reduces_to_free_case(self):
        scenario = make_scenario(z_m1=0.02, twin_lenses=(), z_det=0.5)
        train = unfolded_pump_train(scenario)
        # elements: wire mask, pump leg to crystal, free leg to the detector
        kinds = [type(el).__name__ for el in train.elements]
        assert kinds == ["Mask", "FreeSpace", "FreeSpace"]
        w_train = as_grid(effective_detector_field(scenario))
        beam = masked(separable_gaussian(1e-3, 512, 20e-6), wire_mask(0.2e-3, 512, 20e-6))
        w_free = oracle_angular_spectrum_train(as_grid(beam), 20e-6, CTX,
                                               (FreeSpace(0.02), FreeSpace(0.5)))
        assert np.allclose(w_train, w_free, atol=1e-12)

    def test_imaging_condition_on_equivalent_abcd(self):
        from twinbeam import check_imaging, compose
        from twinbeam.paraxial import RayMatrix

        z_m1, z_l, z_d = 0.05, 0.15, 0.2
        focal = (z_m1 + z_l) * z_d / (z_m1 + z_l + z_d)
        scenario = make_scenario(z_m1=z_m1, twin_lenses=(LensElement(focal, z_l),),
                                 z_det=z_l + z_d)
        train = unfolded_pump_train(scenario)
        ms = []
        for el in train.elements:
            if isinstance(el, FreeSpace):
                ms.append(RayMatrix.free(el.distance))
            elif isinstance(el, ThinLens):
                ms.append(RayMatrix.lens(el.focal))
        is_image, mag = check_imaging(compose(ms))
        assert is_image
        assert mag == pytest.approx(-z_d / (z_m1 + z_l), rel=1e-9)

    def test_pump_lens_layout_matches_pump_intensity_image(self):
        # projection lens in the pump path only: the coincidence pattern at the
        # detector plane equals the pump intensity image there
        z_m1, d_lens = 0.425, 0.375
        scenario = make_scenario(
            waist=0.4e-3, z_m1=z_m1,
            pump_lenses=(LensElement(0.25, d_lens),),
            twin_lenses=(), z_det=0.7, n=1024, pitch=10e-6)
        train = unfolded_pump_train(scenario)
        assert all(not isinstance(el, ThinLens) or el is train.elements[2]
                   for el in train.elements)
        w_eff = as_grid(effective_detector_field(scenario))
        # the pump side, up to the crystal, then the pump's own 0.7 m on
        pump_side = OpticalTrain(train.elements[:-1] + (FreeSpace(0.7),))
        pump_img = as_grid(propagate_train(pump_input_field(scenario), CTX, pump_side))
        assert intensity_ncc(np.abs(w_eff) ** 2, np.abs(pump_img) ** 2) >= 0.99

    def test_divergence_loss_distance(self):
        free = make_scenario(twin_lenses=(), z_det=0.7)
        lensed = make_scenario(twin_lenses=(LensElement(0.15, 0.22),), z_det=0.7)
        assert divergence_loss_distance(free) == 0.7
        assert divergence_loss_distance(lensed) == 0.22


class TestSeparablePump:
    """The pump enters the train as its two 1-D factors, and the detector
    field leaves it as factors; their samples are the field that the 2-D
    oracle's train makes from the 2-D beam, to rounding."""

    @pytest.mark.parametrize("scenario, bound", [
        (lambda: load_scenario("fig4a"), 1e-13),  # measured 1.2e-14
        (lambda: load_scenario("fig4b"), 1e-13),  # measured 6.4e-15
        # measured 2.2e-13: seven hops and lenses over 3 m, rank 7 at the end
        (lambda: load_scenario("fig5"), 3e-13),
        (lambda: free_scenario(z_m1=0.02), 1e-13),
    ], ids=["fig4a", "fig4b", "fig5", "no-mask"])
    def test_detector_field_equals_the_train_of_the_2d_beam(self, scenario, bound):
        scenario = scenario()
        ctx = WaveContext.from_wavelength(scenario.pump.wavelength_m)
        beam = as_grid(pump_input_field(scenario))
        want = oracle_angular_spectrum_train(beam, scenario.grid.pitch_m, ctx,
                                             unfolded_pump_train(scenario).elements)
        got = effective_detector_field(scenario)
        assert isinstance(got, SeparableField)
        assert np.max(np.abs(as_grid(got) - want)) <= bound * np.max(np.abs(want))

    def test_pump_input_field_factors_the_beam(self):
        pump = pump_input_field(free_scenario())
        assert isinstance(pump, SeparableField) and pump.pitch == 20e-6
        assert pump.column.shape == pump.row.shape == (256, 1)
        outer = np.multiply.outer(pump.column[:, 0], pump.row[:, 0])
        x2 = ((np.arange(256) - 128) * 20e-6) ** 2
        assert np.max(np.abs(outer - np.exp(-(x2[:, None] + x2[None, :]) / 0.5e-3**2))) <= 1e-15

    def test_detector_field_holds_no_grid(self):
        # fig5's train at 2048 x 2048 returns its factors: its peak stays
        # below one n x n complex array, 64 MiB (measured 4.2 MiB)
        nbytes = 2048**2 * np.dtype(np.complex128).itemsize
        assert traced_peak(lambda: effective_detector_field(load_scenario("fig5"))) < nbytes


class TestScanDetector:
    def test_point_detectors_sample_point_law(self):
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=0.0,
                                 scan=(-1e-3, 1e-3, 5e-5))
        profile = scan_detector(scenario, kappa=1.0)
        w = effective_detector_field(scenario)
        pref = divergence_prefactor(K_P, 0.5)
        expected = [rate_from_intensity(np.abs(as_grid(w)) ** 2, w.pitch, (x, 0.0), 1.0, pref)
                    for x in profile.coordinates]
        assert np.allclose(profile.rates, expected, rtol=1e-12)

    def test_role_swap_symmetry(self):
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=1e-4,
                                 scan=(-1e-3, 1e-3, 1e-4))
        a = scan_detector(scenario)
        swapped = dataclasses.replace(
            scenario, scan=dataclasses.replace(scenario.scan, moving="idler"))
        b = scan_detector(swapped)
        assert np.array_equal(a.rates, b.rates)

    def test_aperture_reduces_dip_contrast_monotonically(self):
        from twinbeam import contrast

        contrasts = []
        for radius in (0.0, 1e-4, 2e-4):
            scenario = make_scenario(z_m1=0.005, z_det=0.4, aperture=radius,
                                     twin_lenses=(LensElement(0.2, 0.295),),
                                     waist=0.4e-3, n=1024, pitch=10e-6,
                                     scan=(-1e-3, 1e-3, 2.5e-5))
            profile = scan_detector(scenario, kappa=1.0)
            contrasts.append(contrast(profile.rates))
        assert contrasts[0] > contrasts[1] > contrasts[2]

    def test_fixed_detector_offset_shifts_profile(self):
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=0.0,
                                 scan=(-1e-3, 1e-3, 2e-5))
        centered = scan_detector(scenario, kappa=1.0)
        offset = scan_detector(with_idler_at(scenario, 4e-4), kappa=1.0)
        # rate depends on the coordinate sum, so an offset idler shifts the
        # whole profile by -offset along the scanned axis
        shift = int(round(4e-4 / 2e-5))
        assert np.allclose(offset.rates[:-shift], centered.rates[shift:], rtol=1e-9)

    def test_underresolved_aperture_rejected(self):
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=3e-5)
        with pytest.raises(SamplingError):
            scan_detector(scenario)

    def test_scan_outside_window_errors(self):
        scenario = make_scenario(z_m1=0.02, z_det=0.5, scan=(-9e-3, 9e-3, 1e-3))
        with pytest.raises(OutOfWindowError):
            scan_detector(scenario)

    def test_rate_map_matches_scan(self):
        # an x scan reads the map's rows, a y scan its columns
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=1e-4,
                                 scan=(-1e-3, 1e-3, 1e-4))
        w = effective_detector_field(scenario)
        # the map carries no kappa and no P: they scale what is read from it
        rate_map = circular_rate_map(as_grid(w), w.pitch, (1e-4, 1e-4))
        scale = 2.0 * divergence_prefactor(K_P, divergence_loss_distance(scenario))
        for axis in ("x", "y"):
            scanned = dataclasses.replace(scenario,
                                          scan=dataclasses.replace(scenario.scan, axis=axis))
            profile = scan_detector(scanned, kappa=2.0)
            points = [(c, 0.0) if axis == "x" else (0.0, c) for c in profile.coordinates]
            mid = [scale * _bilinear_gather(rate_map, *_bilinear_cells(w.n, w.pitch, *point))
                   for point in points]
            assert np.allclose(profile.rates, mid, rtol=1e-12)


class TestProfileInvariants:
    def test_rates_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            CoincidenceProfile(np.array([0.0, 1.0]), np.array([1.0, -2.0]))

    def test_coordinates_strictly_increasing(self):
        with pytest.raises(ValidationError):
            CoincidenceProfile(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_aperture_map_point_limit_is_identity(self):
        # with point detectors the map of a patch is |patch|^2, byte for
        # byte, and the patch is the map points themselves
        fld, pitch = as_grid(separable_gaussian(0.15e-3, 64, 20e-6)), 20e-6
        assert biphoton._patch(64, pitch, (), [5, 32], [0, 63]) == (slice(5, 33), slice(0, 64))
        rows = patch_map(fld, pitch, (), [5, 32], [0, 63])
        columns = patch_map(fld.T, pitch, (), [5, 32], [0, 63])
        intensity = np.abs(fld) ** 2
        assert rows.tobytes() == intensity[5:33].tobytes()
        assert columns.tobytes() == np.ascontiguousarray(intensity[:, 5:33].T).tobytes()

    @pytest.mark.parametrize("radii, center", [((1e-4, 1e-4), 73), ((1e-4, 2e-4), 73),
                                               ((1e-4, 0.0), 1)])
    def test_map_of_one_bright_sample_is_the_kernel(self, radii, center):
        # a unit sample on the axis spreads into K = disk(a_s) * disk(a_i)
        # pitch^4 (one disk pitch^2) around it.  At zero offset K counts the
        # smaller disk's lattice points: 73, as the points (3, 4) pitches
        # from the axis and their mirror images round to just outside it
        n, pitch = 128, 20e-6
        intensity = np.zeros((n, n))
        intensity[n // 2, n // 2] = 1.0
        positive = tuple(r for r in radii if r > 0)
        kernel = np.fft.fftshift(composite_kernel(n, pitch, positive))
        assert kernel[n // 2, n // 2] == center * pitch ** (2 * len(positive))
        out = patch_map(intensity, pitch, positive, [0, n - 1], [0, n - 1])
        assert np.max(np.abs(out - kernel)) <= 1e-13 * kernel.max()

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("radii", [(1e-4, 1e-4), (1e-4, 2e-4)])
    def test_aperture_map_matches_out_of_place_formula(self, n, radii):
        # the whole map, from a patch that wraps past every edge, against
        # np.maximum(irfft2(rfft2(K) * rfft2(I), s), 0) and against the map
        # convolved with each disk in turn; the dark left half rounds to
        # negatives the clamp zeroes
        pitch = 20e-6
        samples = np.random.default_rng(n).uniform(size=(n, n))
        samples[:, : n // 2] = 0.0
        intensity = np.square(samples)
        out = patch_map(samples, pitch, radii, [0, n - 1], [0, n - 1])
        assert out.min() == 0.0
        for ref in (aperture_map_formula(intensity, pitch, radii),
                    aperture_map_per_disk(intensity, pitch, radii)):
            assert np.max(np.abs(out - ref)) <= 1e-13 * ref.max()

    @pytest.mark.parametrize("n", [128, 129, 257])
    @pytest.mark.parametrize("radii", [(1e-4, 1e-4), (1e-4, 2e-4)])
    def test_aperture_map_is_the_complex_formula_up_to_round_off(self, n, radii):
        # real-input transforms round differently from complex ones
        pitch = 20e-6
        samples = np.random.default_rng(n).uniform(size=(n, n))
        ref = aperture_map_formula(np.square(samples), pitch, radii, real_input=False)
        out = patch_map(samples, pitch, radii, [0, n - 1], [0, n - 1])
        assert np.max(np.abs(out - ref)) <= 1e-14 * ref.max()

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("radius", [1e-4, 0.37e-3, 1.5e-3])  # the last exceeds half the window
    def test_disk_kernel_matches_shifted_full_grid_disk(self, n, radius):
        # the kernel of one radius is the disk, clipped to the grid: at its
        # offsets e it is the shifted full-grid disk, every other sample of
        # that disk is empty, and its padding is zero
        pitch = 20e-6
        ref = disk_kernel(n, pitch, radius)
        e = biphoton._kernel_offsets(n, pitch, (radius,))
        shape = (e.size + 3, e.size + 64)
        out = np.fft.irfft2(biphoton._kernel_spectrum(n, pitch, (radius,), shape), shape)
        want = np.zeros(shape)
        want[:e.size, :e.size] = ref[np.ix_(e % n, e % n)]
        assert np.max(np.abs(out - want)) <= 1e-13 * pitch**2
        inside = np.zeros((n, n), bool)
        inside[np.ix_(e % n, e % n)] = True
        assert not ref[~inside].any()

    def test_disk_kernel_is_built_in_its_own_array(self):
        # K's spectrum is built at the padded shape of the patch it
        # convolves, never on the grid: for a scan's 64 x 384 it takes a
        # few hundredths of a complex field; one n x (n//2 + 1) half
        # spectrum alone would be 0.5
        n, pitch = 512, 20e-6
        build = biphoton._kernel_spectrum.__wrapped__
        peak = traced_peak(lambda: build(n, pitch, (1e-4, 1e-4), (64, 384)))
        assert peak / (n * n * np.dtype(np.complex128).itemsize) < 0.25

    def test_scan_points_independent_of_evaluation_order(self):
        # every point is a pure read of the same two lines of the map, so
        # reading the coordinates one by one in reverse from those lines must
        # reproduce the profile exactly
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=1e-4,
                                 scan=(-1e-3, 1e-3, 1e-4))
        profile = scan_detector(scenario, kappa=1.0)
        n, pitch = scenario.grid.n, scenario.grid.pitch_m
        cells = _bilinear_cells(n, pitch, profile.coordinates, 0.0)
        i0, j0 = cells[:2]
        lines = patch_map(biphoton._detector_rows(scenario), pitch, (1e-4, 1e-4),
                          [j0[0], j0[0] + 1], [i0[0], i0[-1] + 1])
        reversed_rates = [_bilinear_gather(lines, i - i0[0], j - j0[0], tx, ty)
                          for i, j, tx, ty in zip(*(c[::-1] for c in cells))]
        scale = divergence_prefactor(K_P, divergence_loss_distance(scenario))
        assert np.array_equal(scale * np.array(reversed_rates)[::-1], profile.rates)


def _fixed_coordinate(n, pitch, where):
    """A coordinate on a node, between two nodes, or in the last cell, whose
    lower corner the bilinear read clamps to n - 2."""
    return {"node": 3 * pitch, "between": -2.3 * pitch,
            "last": (n - 1 - n // 2) * pitch}[where]


def _scan_scenario(n, pitch, radii, axis, start, step, fixed):
    """A scan of 37 points from ``start`` by ``step`` along ``axis``, with
    the signal aperture ``radii[0]`` moving and the idler's ``radii[1]``
    fixed at ``fixed`` on the other axis."""
    scenario = make_scenario(n=n, pitch=pitch, waist=n * pitch / 7,
                             scan=(start, start + 36 * step, step))
    detectors = scenario.detectors
    signal = dataclasses.replace(detectors.signal, aperture_radius_m=radii[0])
    idler = dataclasses.replace(detectors.idler, aperture_radius_m=radii[1],
                                **{"y_m" if axis == "x" else "x_m": fixed})
    return dataclasses.replace(
        scenario, detectors=dataclasses.replace(detectors, signal=signal, idler=idler),
        scan=dataclasses.replace(scenario.scan, axis=axis))


def _recorded_reads(monkeypatch, samples=None):
    """Every read of ``biphoton._detector_rows`` as (rows, cols, patch): the
    train's, or the patch of the field ``samples`` (its transpose for a y
    scan) when given."""
    reads = []
    detector_rows = biphoton._detector_rows

    def read(scenario, rows, cols, transposed):
        if samples is None:
            patch = detector_rows(scenario, rows, cols, transposed)
        else:
            patch = (samples.T if transposed else samples)[np.ix_(rows, cols)]
        reads.append((rows, cols, patch))
        return patch

    monkeypatch.setattr(biphoton, "_detector_rows", read)
    return reads


class TestLineRead:
    """The rate map is convolved on patches of the field, only where it is
    read: a scan its two lines, a run its scan-region crop, each by one 2-D
    FFT convolution."""

    @pytest.mark.parametrize("n", [128, 129, 257])
    @pytest.mark.parametrize("radii", [(1e-4, 1e-4), (1e-4, 2e-4), (1e-4, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_map_lines_are_the_map_lines(self, n, radii, axis):
        # patches of the map against the circular oracle's map within 1e-13
        # of its peak; with point detectors, |samples|^2 byte for byte.  The
        # lines at both edges, whose reach wraps past row 0, a crop whose
        # patch wraps past row 0 and column 0, and a patch inside.  The
        # map's columns (a y scan's) are the rows of the transposed
        # samples' map
        pitch = 20e-6
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        positive = tuple(r for r in radii if r > 0)
        rate_map = circular_rate_map(samples, pitch, positive)
        read, ref_map = (samples, rate_map) if axis == "x" else (samples.T, rate_map.T)
        for rows, cols in (([n - 2, n + 2], [0, n - 1]), ([n - 7, n + 9], [-11, 40]),
                           ([n // 4, 3 * n // 4], [n // 3, n // 2])):
            out = patch_map(read, pitch, positive, rows, cols)
            ref = ref_map[np.ix_(*(np.arange(a, b + 1) % n for a, b in (rows, cols)))]
            if positive:
                assert np.max(np.abs(out - ref)) <= 1e-13 * rate_map.max()
            else:
                assert out.tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("n", [128, 129, 257])
    @pytest.mark.parametrize("radii", [(1e-4, 1e-4), (1e-4, 2e-4), (1e-4, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("where", ["node", "between", "last"])
    def test_line_read_is_the_map_read(self, monkeypatch, n, radii, axis, where):
        # the scan's rates, read from a random field, within 1e-13 of the
        # circular oracle's map read bilinearly at the scan points; with point
        # detectors the map is |samples|^2 itself and the read equals it byte
        # for byte.  With apertures, a read of the last cell would reach past
        # the edge, where the map wraps: the scan refuses it before it reads
        pitch = 20e-6
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        step = (n // 2) * pitch / 36
        fixed = _fixed_coordinate(n, pitch, where)
        scenario = _scan_scenario(n, pitch, radii, axis, -18 * step, step, fixed)
        reads = _recorded_reads(monkeypatch, samples)
        positive = tuple(r for r in radii if r > 0)
        if positive and where == "last":
            with pytest.raises(OutOfWindowError, match="the apertures reach"):
                biphoton._scan_stage(scenario)
            assert reads == []
            return
        coords, raw, _ = biphoton._scan_stage(scenario)
        if positive:
            rate_map = circular_rate_map(samples, pitch, positive)
            point = (coords, fixed) if axis == "x" else (fixed, coords)
            cells = _bilinear_cells(n, pitch, *point)
            ref = _bilinear_gather(rate_map, *cells)
            assert np.max(np.abs(raw - ref)) <= 1e-13 * rate_map.max()
        else:
            rate_map = np.abs(samples if axis == "x" else samples.T) ** 2
            ref = _bilinear_gather(rate_map, *_bilinear_cells(n, pitch, coords, fixed))
            assert raw.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("radii", [(1e-4, 1e-4), (5e-4, 5e-4)])
    def test_line_read_holds_no_grid(self, monkeypatch, radii):
        # a scan's read at n = 1024, K's build included, peaks below one
        # n x n float array: its patch is a few hundred samples a side, for
        # an x scan and for a y scan, which reads the transposed samples
        n, pitch = 1024, 1e-5
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        _recorded_reads(monkeypatch, samples)
        biphoton._kernel_spectrum.cache_clear()
        for axis in ("x", "y"):
            scenario = _scan_scenario(n, pitch, radii, axis, -1.8e-3, 1e-4, 0.3e-3)
            peak = traced_peak(lambda: biphoton._scan_stage(scenario))
            assert peak < n * n * np.dtype(np.float64).itemsize

    @pytest.mark.parametrize("radii", [(5e-5,), (5e-5, 5e-5), (5e-5, 7e-5), (6.1e-5, 4e-5)])
    def test_kernel_counts_are_lattice_pair_counts(self, radii):
        pitch = 20e-6
        disks = []
        for radius in radii:
            reach = int(radius / pitch) + 1
            disks.append([(a, b) for a in range(-reach, reach + 1) for b in range(-reach, reach + 1)
                          if (a * pitch) ** 2 + (b * pitch) ** 2 <= radius**2])
        counts = {}
        if len(disks) == 1:
            counts = dict.fromkeys(disks[0], 1)
        else:
            for a, b in disks[0]:
                for c, d in disks[1]:
                    counts[a + c, b + d] = counts.get((a + c, b + d), 0) + 1
        e, out = biphoton._overlap_counts(128, pitch, radii)
        assert out.dtype == np.int64
        ref = np.zeros_like(out)
        for (a, b), count in counts.items():
            ref[a - e[0], b - e[0]] = count
        assert np.array_equal(out, ref)
        # the offsets end at the outermost pairs: no row or column is empty
        assert out[0].any() and out[-1].any() and out[:, 0].any() and out[:, -1].any()

    def test_kernel_spectrum_is_read_only_and_kept(self):
        spectrum = biphoton._kernel_spectrum(128, 20e-6, (1e-4, 1e-4), (64, 128))
        assert not spectrum.flags.writeable
        assert biphoton._kernel_spectrum(128, 20e-6, (1e-4, 1e-4), (64, 128)) is spectrum

    def test_scan_and_sweep_row_build_no_map(self, monkeypatch):
        from twinbeam import counting

        # each builds K once, on an empty cache, and convolves one patch,
        # whose map is the scan's two lines
        calls = []
        map_patch = biphoton._map_patch

        def counting_map(*args):
            out = map_patch(*args)
            calls.append(out.shape[0])
            return out

        monkeypatch.setattr(biphoton, "_map_patch", counting_map)
        count = biphoton._overlap_counts
        monkeypatch.setattr(biphoton, "_overlap_counts",
                            lambda *args: calls.append("_overlap_counts") or count(*args))
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=1e-4, n=256, waist=0.4e-3,
                                 scan=(-1e-3, 1e-3, 1e-4))
        biphoton._kernel_spectrum.cache_clear()
        assert scan_detector(scenario).peak_rate > 0
        assert calls == ["_overlap_counts", 2]
        biphoton._kernel_spectrum.cache_clear()
        row, = counting.sweep_distance(scenario, [0.3], collimated=False,
                                       aperture_radius_m=1e-4)
        assert row.peak_rate > 0 and calls == ["_overlap_counts", 2] * 2

    def test_aperture_reach_past_the_window_raises(self):
        # R = ceil(2e-4 / 2e-5) + 1 = 11 samples, 0.22 mm; the window of 256
        # samples is [-2.56, 2.54] mm, so the first point's cell (8) is inside
        # the window, but its reach is not
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=1e-4, n=256, waist=0.4e-3,
                                 scan=(-2.4e-3, 0.0, 1e-4))
        with pytest.raises(OutOfWindowError, match=r"\(-0.0024, 0\) m: the apertures reach "
                                                   r"0.00022 m .* \[-0.00256, 0.00254\] m"):
            scan_detector(scenario)
        # from 0.1 mm further in, and with point detectors, the scan is read
        inside = dataclasses.replace(scenario, scan=dataclasses.replace(scenario.scan,
                                                                        start_m=-2.3e-3))
        assert scan_detector(inside).peak_rate > 0
        point = make_scenario(z_m1=0.02, z_det=0.5, n=256, waist=0.4e-3,
                              scan=(-2.4e-3, 0.0, 1e-4))
        assert scan_detector(point).peak_rate > 0

    def test_aperture_reach_is_checked_before_the_train_runs(self, monkeypatch):
        # the scan asks the train for the patch its lines reach, so the guard
        # that keeps that patch inside the window runs first
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=1e-4, n=256, waist=0.4e-3,
                                 scan=(-2.4e-3, 0.0, 1e-4))

        def fail(*args):
            raise AssertionError("the train ran for a scan past the window")

        monkeypatch.setattr(biphoton, "_detector_rows", fail)
        with pytest.raises(OutOfWindowError, match="the apertures reach"):
            scan_detector(scenario)


class TestScanRows:
    """A scan transforms only what it reads: its train inverts the 1-D
    factors, and reads the patch its apertures reach as
    ``a[rows] @ b[cols].T``."""

    def test_free_sweep_row_makes_no_grid(self, monkeypatch):
        # the free 0.5 m row ends at rank 3: its inverse transforms the 6
        # columns of its two factors, no row, and it reads the 202 x 502
        # patch that K (0.5 mm apertures, offsets -100..100) reaches from
        # its two lines, with no n x n complex array
        from twinbeam import counting, with_free_twin_side

        scenario = load_scenario("fig4b")
        n = scenario.grid.n
        passes = count_inverse_lines(monkeypatch)
        biphoton._kernel_spectrum.cache_clear()
        peak = traced_peak(lambda: counting.sweep_distance(scenario, [0.5], collimated=False,
                                                           kappa=1.0))
        assert passes == [("columns", 6)]
        assert peak < n * n * np.dtype(np.complex128).itemsize
        # the patch read is the whole field's, byte for byte
        derived = with_free_twin_side(scenario, 0.5, 0.5e-3)
        whole = biphoton._detector_rows(derived)
        reads = _recorded_reads(monkeypatch)
        biphoton._scan_stage(derived)
        (rows, cols, patch), = reads
        assert patch.shape == (202, 502)
        assert patch.tobytes() == whole[np.ix_(rows, cols)].tobytes()

    @pytest.mark.parametrize("preset", ["fig4a", "fig4b", "fig5"])
    def test_y_scan_reads_the_columns_it_reaches(self, monkeypatch, preset):
        # a y scan asks the train for the patch its two map columns reach, as
        # rows of the transpose b[columns] @ a[rows].T: the whole field's
        # patch byte for byte, 42 of its columns by 342 of its rows
        scenario = load_scenario(preset)
        scenario = dataclasses.replace(scenario, scan=dataclasses.replace(scenario.scan, axis="y"))
        whole = biphoton._detector_rows(scenario)
        reads = _recorded_reads(monkeypatch)
        biphoton._scan_stage(scenario)
        (columns, rows, patch), = reads
        assert patch.shape == (42, 342)
        assert patch.tobytes() == np.ascontiguousarray(whole[np.ix_(rows, columns)].T).tobytes()

    def test_fig5_inverse_after_the_long_hop_covers_its_cone(self, monkeypatch):
        # mask, 0.005 m, 0.25 m, lens, 2.25 m, lens, 0.5 m at 2048: each lens
        # and the end invert the factors, rank 3, 3 and 7, 26 transforms of
        # 2048 samples and no row; the 2.25 m hop's factors are zero outside
        # its cone's 439 of 2048 frequencies; the scan reads a 42 x 342 patch
        passes = count_inverse_lines(monkeypatch)
        ranks = []
        hop = propagation._Factors.hop

        def recording_hop(state, distance, max_clip_fraction):
            hop(state, distance, max_clip_fraction)
            ranks.append(state.a.shape[1])
            if distance == 2.25:
                assert np.count_nonzero(np.abs(state.a).sum(axis=1)) == 439

        monkeypatch.setattr(propagation._Factors, "hop", recording_hop)
        reads = _recorded_reads(monkeypatch)
        scan_detector(load_scenario("fig5"), kappa=1.0)
        assert passes == [("columns", 26)]
        assert ranks == [2, 3, 3, 7] and [patch.shape for *_, patch in reads] == [(42, 342)]
