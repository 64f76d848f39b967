import dataclasses

import numpy as np
import pytest

from conftest import PUMP_WAVELENGTH, intensity_ncc, make_scenario, traced_peak
from oracles import coincidence_imaged, rate_from_intensity
from twinbeam import (
    OutOfWindowError,
    SamplingError,
    ValidationError,
    WaveContext,
    bilinear_sample,
    coincidence_rate_map,
    divergence_loss_distance,
    divergence_prefactor,
    effective_detector_field,
    gaussian_beam,
    propagate,
    propagate_train,
    scan_detector,
    unfolded_pump_train,
    wire_mask,
)
from twinbeam import biphoton
from twinbeam.biphoton import CoincidenceProfile, aperture_integrated_map, pump_input_field
from twinbeam.field import radius_squared
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
    return effective_detector_field(free_scenario())


class TestCoincidenceFree:
    def test_free_train_is_one_hop_at_pump_wavenumber(self, free_field):
        assert unfolded_pump_train(free_scenario()).elements == (FreeSpace(0.5),)
        direct = propagate(gaussian_beam(0.5e-3, 256, 20e-6), CTX, 0.5)
        assert np.array_equal(free_field.samples, direct.samples)

    def test_rate_depends_only_on_sum_coordinate(self, free_field):
        intensity = free_field.intensity()
        rng = np.random.default_rng(0)
        for _ in range(100):
            rho_s = rng.uniform(-1e-3, 1e-3, 2)
            rho_i = rng.uniform(-1e-3, 1e-3, 2)
            delta = rng.uniform(-5e-4, 5e-4, 2)
            r1 = rate_from_intensity(intensity, free_field.pitch, tuple(rho_s + rho_i))
            r2 = rate_from_intensity(intensity, free_field.pitch,
                                     tuple((rho_s + delta) + (rho_i - delta)))
            assert r2 == pytest.approx(r1, rel=1e-6)

    def test_profile_is_gaussian_centered_at_minus_fixed(self):
        profile = scan_detector(with_idler_at(free_scenario(scan=(-1e-3, 1e-3, 5e-6)), 3e-4))
        peak = profile.coordinates[np.argmax(profile.rates)]
        assert peak == pytest.approx(-3e-4, abs=5e-6)

    def test_prefactor_quarters_when_distance_doubles(self, free_field):
        intensity = free_field.intensity()
        r1 = rate_from_intensity(intensity, free_field.pitch, (1e-4, 2e-4),
                                 prefactor=divergence_prefactor(K_P, 1.0))
        r2 = rate_from_intensity(intensity, free_field.pitch, (1e-4, 2e-4),
                                 prefactor=divergence_prefactor(K_P, 2.0))
        assert r1 / r2 == pytest.approx(4.0, rel=1e-12)

    def test_out_of_window_is_error_not_zero(self, free_field):
        with pytest.raises(OutOfWindowError):
            rate_from_intensity(free_field.intensity(), free_field.pitch, (1e-2, 0.0))

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan])
    def test_kappa_must_be_positive_and_finite(self, free_field, kappa):
        with pytest.raises(ValidationError, match="kappa must be positive and finite"):
            coincidence_rate_map(free_scenario(), free_field, (0.0, 0.0), kappa)

    def test_kappa_scales_linearly(self, free_field):
        r1, r7 = (coincidence_rate_map(free_scenario(), free_field, (0.0, 0.0), kappa)[0]
                  for kappa in (1.0, 7.0))
        assert np.allclose(r7, 7.0 * r1, rtol=1e-12, atol=0.0)


class TestCoincidenceImaged:
    def test_unit_magnification_samples_mask_field(self):
        w_mask = wire_mask(0.2e-3, 256, 20e-6).apply(gaussian_beam(0.5e-3, 256, 20e-6))
        intensity = w_mask.intensity()
        r = coincidence_imaged(w_mask, 0.2, 0.2, (2e-4, 1e-4), (1e-4, -1e-4))
        assert r == pytest.approx(
            rate_from_intensity(intensity, w_mask.pitch, (3e-4, 0.0)), rel=1e-12)

    def test_demagnification_scales_coordinates(self):
        w_mask = wire_mask(0.2e-3, 256, 20e-6).apply(gaussian_beam(0.5e-3, 256, 20e-6))
        # O = 2I: a feature at u in the mask appears at sum coordinate u/2
        u = 4e-4
        r_feature = coincidence_imaged(w_mask, 0.4, 0.2, (u / 2, 0.0), (0.0, 0.0))
        direct = rate_from_intensity(w_mask.intensity(), w_mask.pitch, (u, 0.0))
        assert r_feature == pytest.approx(direct, rel=1e-12)

    def test_nonpositive_distances_rejected(self):
        w_mask = gaussian_beam(0.5e-3, 256, 20e-6)
        with pytest.raises(ValidationError):
            coincidence_imaged(w_mask, 0.0, 0.2, (0, 0), (0, 0))


class TestUnfoldedTrain:
    def test_pump_only_reduces_to_free_case(self):
        scenario = make_scenario(z_m1=0.02, twin_lenses=(), z_det=0.5)
        train = unfolded_pump_train(scenario)
        # elements: wire mask, pump leg to crystal, free leg to the detector
        kinds = [type(el).__name__ for el in train.elements]
        assert kinds == ["Mask", "FreeSpace", "FreeSpace"]
        w_train = effective_detector_field(scenario)
        masked = wire_mask(0.2e-3, 512, 20e-6).apply(pump_input_field(scenario))
        w_free = propagate(propagate(masked, CTX, 0.02), CTX, 0.5)
        assert np.allclose(w_train.samples, w_free.samples, atol=1e-12)

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
        w_eff = effective_detector_field(scenario)
        pump_side = OpticalTrain(train.elements[:-1])  # up to the crystal
        pump_at_crystal = propagate_train(pump_input_field(scenario), CTX, pump_side)
        pump_img = propagate(pump_at_crystal, CTX, 0.7)
        assert intensity_ncc(w_eff.intensity(), pump_img.intensity()) >= 0.99

    def test_divergence_loss_distance(self):
        free = make_scenario(twin_lenses=(), z_det=0.7)
        lensed = make_scenario(twin_lenses=(LensElement(0.15, 0.22),), z_det=0.7)
        assert divergence_loss_distance(free) == 0.7
        assert divergence_loss_distance(lensed) == 0.22


class TestScanDetector:
    def test_point_detectors_sample_point_law(self):
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=0.0,
                                 scan=(-1e-3, 1e-3, 5e-5))
        profile = scan_detector(scenario, kappa=1.0)
        w = effective_detector_field(scenario)
        pref = divergence_prefactor(K_P, 0.5)
        expected = [rate_from_intensity(w.intensity(), w.pitch, (x, 0.0), 1.0, pref)
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
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=1e-4,
                                 scan=(-1e-3, 1e-3, 1e-4))
        w = effective_detector_field(scenario)
        rate_map, pitch = coincidence_rate_map(scenario, w, (1e-4, 1e-4), kappa=2.0)
        profile = scan_detector(scenario, kappa=2.0)
        mid = [bilinear_sample(rate_map, pitch, x, 0.0) for x in profile.coordinates]
        assert np.allclose(profile.rates, mid, rtol=1e-12)


class TestProfileInvariants:
    def test_rates_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            CoincidenceProfile(np.array([0.0, 1.0]), np.array([1.0, -2.0]))

    def test_coordinates_strictly_increasing(self):
        with pytest.raises(ValidationError):
            CoincidenceProfile(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_aperture_map_point_limit_is_identity(self):
        intensity = gaussian_beam(0.15e-3, 64, 20e-6).intensity()
        out = aperture_integrated_map(intensity, 20e-6, 0.0, 0.0)
        assert out is intensity

    @pytest.mark.parametrize("radii, kernels", [((1e-4, 1e-4), 1), ((1e-4, 2e-4), 2)])
    def test_one_disk_kernel_per_distinct_radius(self, monkeypatch, radii, kernels):
        calls = []
        build = biphoton._disk_kernel_spectrum

        def counting_build(n, pitch, radius):
            calls.append(radius)
            return build(n, pitch, radius)

        monkeypatch.setattr(biphoton, "_disk_kernel_spectrum", counting_build)
        intensity = gaussian_beam(0.5e-3, 256, 20e-6).intensity()
        aperture_integrated_map(intensity, 20e-6, *radii)
        assert len(calls) == kernels

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("radii", [(1e-4, 1e-4), (1e-4, 2e-4)])
    def test_aperture_map_matches_out_of_place_formula(self, n, radii):
        # np.maximum(ifft2(K2 * (K1 * fft2(I))).real, 0), each product named
        # so that numpy cannot elide it into a swapped in-place product
        pitch = 20e-6
        intensity = np.random.default_rng(n).uniform(size=(n, n))
        k1, k2 = (np.fft.fft2(np.fft.ifftshift(
            (radius_squared(n, pitch) <= r**2).astype(np.float64) * pitch**2)) for r in radii)
        spec = np.fft.fft2(intensity)
        once = k1 * spec
        twice = k2 * once
        ref = np.maximum(np.fft.ifft2(twice).real, 0.0)
        out = aperture_integrated_map(intensity, pitch, *radii)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("radii, bound", [((1e-4, 1e-4), 3.0), ((1e-4, 2e-4), 4.0)])
    def test_aperture_map_works_in_one_complex_array(self, radii, bound):
        # in units of a complex field of the map's shape: one array for the
        # map's spectrum, one per distinct disk kernel, the real result, and
        # the kernel build; out of place it peaked one field higher
        intensity = gaussian_beam(1e-3, 512, 20e-6).intensity()
        peak = traced_peak(lambda: aperture_integrated_map(intensity, 20e-6, *radii))
        assert peak / (2 * intensity.nbytes) < bound

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("radius", [1e-4, 0.37e-3, 1.5e-3])  # the last exceeds half the window
    def test_disk_kernel_matches_shifted_full_grid_disk(self, n, radius):
        pitch = 20e-6
        disk = (radius_squared(n, pitch) <= radius**2).astype(np.float64) * pitch**2
        ref = np.fft.fft2(np.fft.ifftshift(disk).astype(np.complex128))
        out = biphoton._disk_kernel_spectrum(n, pitch, radius)
        assert out.tobytes() == ref.tobytes()

    def test_disk_kernel_is_built_in_its_own_array(self):
        # the kernel is written straight into FFT order and transformed in
        # place: one field; through a full-grid disk and ifftshift, two
        n, pitch = 512, 20e-6
        peak = traced_peak(lambda: biphoton._disk_kernel_spectrum(n, pitch, 1e-4))
        assert peak / (n * n * np.dtype(np.complex128).itemsize) < 1.5

    def test_scan_points_independent_of_evaluation_order(self):
        # every point is a pure lookup on one precomputed map, so sampling
        # the coordinates in reverse must reproduce the profile exactly
        scenario = make_scenario(z_m1=0.02, z_det=0.5, aperture=1e-4,
                                 scan=(-1e-3, 1e-3, 1e-4))
        profile = scan_detector(scenario, kappa=1.0)
        w = effective_detector_field(scenario)
        rate_map, pitch = coincidence_rate_map(scenario, w, (1e-4, 1e-4), kappa=1.0)
        reversed_rates = [bilinear_sample(rate_map, pitch, x, 0.0)
                          for x in profile.coordinates[::-1]]
        assert np.array_equal(np.array(reversed_rates)[::-1], profile.rates)
