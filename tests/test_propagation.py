import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import intensity_ncc, random_band_limited_field, rel_rms, second_moment_radius
from twinbeam import (
    AliasingRiskError,
    FreeSpace,
    Mask,
    OpticalTrain,
    ScalarField,
    ThinLens,
    ValidationError,
    WaveContext,
    apply_thin_lens,
    gaussian_beam,
    max_safe_distance,
    oracle_fresnel_direct,
    power,
    propagate,
    propagate_train,
    resample_scaled,
    wire_mask,
)

CTX = WaveContext.from_wavelength(425e-9)


class TestPropagate:
    def test_zero_distance_identity(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        out = propagate(f, CTX, 0.0)
        assert np.array_equal(out.samples, f.samples)

    def test_negative_distance_rejected(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        with pytest.raises(ValidationError):
            propagate(f, CTX, -0.1)

    def test_power_conserved_at_one_meter(self):
        f = gaussian_beam(0.5e-3, 512, 20e-6)
        out = propagate(f, CTX, 1.0)
        assert abs(power(out) / power(f) - 1.0) < 1e-9

    @pytest.mark.parametrize("frac", [0.5, 1.0, 2.0])
    def test_gaussian_width_law(self, frac):
        w0 = 0.5e-3
        z_r = np.pi * w0**2 / CTX.wavelength
        f = gaussian_beam(w0, 512, 20e-6)
        out = propagate(f, CTX, frac * z_r)
        expected = w0 * np.sqrt(1 + frac**2)
        assert second_moment_radius(out) == pytest.approx(expected, rel=5e-3)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_semigroup(self, a, b):
        rng = np.random.default_rng(7)
        f = random_band_limited_field(rng, n=64, pitch=40e-6, max_distance=2.5)
        two_step = propagate(propagate(f, CTX, a), CTX, b)
        one_step = propagate(f, CTX, a + b)
        assert rel_rms(two_step.samples, one_step.samples) < 1e-10

    def test_aliasing_error_names_safe_distance(self):
        # sharp field on a tiny window: spectrum far exceeds the long-haul cone
        f = gaussian_beam(60e-6, 64, 20e-6)
        with pytest.raises(AliasingRiskError) as err:
            propagate(f, CTX, 2.0)
        assert err.value.max_safe_distance < 2.0
        assert f"{err.value.max_safe_distance:.4g}" in str(err.value)
        # the reported distance itself must be safe
        propagate(f, CTX, err.value.max_safe_distance * 0.99)

    def test_max_safe_distance_monotone_in_budget(self):
        f = gaussian_beam(60e-6, 64, 20e-6)
        loose = max_safe_distance(f, CTX, max_clip_fraction=0.10)
        tight = max_safe_distance(f, CTX, max_clip_fraction=0.01)
        assert tight < loose

    def test_power_non_increasing_when_cone_clips(self):
        # propagate just inside the clip budget: some spectral tail is
        # zeroed, so power must drop, and never grow
        f = gaussian_beam(60e-6, 64, 20e-6)
        z = max_safe_distance(f, CTX, max_clip_fraction=0.03)
        out = propagate(f, CTX, 0.999 * z, max_clip_fraction=0.03)
        ratio = power(out) / power(f)
        assert 0.96 < ratio < 1.0


class TestThinLens:
    def test_infinite_focal_is_identity(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        out = apply_thin_lens(f, CTX, np.inf)
        assert np.array_equal(out.samples, f.samples)

    def test_zero_focal_rejected(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        with pytest.raises(ValidationError):
            apply_thin_lens(f, CTX, 0.0)

    def test_power_unchanged(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        out = apply_thin_lens(f, CTX, 0.25)
        assert power(out) == pytest.approx(power(f), rel=1e-12)

    def test_lens_inverse_pair_is_identity(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        out = apply_thin_lens(apply_thin_lens(f, CTX, 0.2), CTX, -0.2)
        assert np.allclose(out.samples, f.samples, atol=1e-14)

    def test_collimation_of_point_source(self):
        # source in the front focal plane emerges with flat phase;
        # the spherical wave is produced by the independent quadrature oracle
        n, pitch = 64, 20e-6
        window = n * pitch
        waist = 50e-6
        focal = np.pi * waist * window / (2 * CTX.wavelength)
        src = gaussian_beam(waist, n, pitch)
        at_lens = oracle_fresnel_direct(src, CTX, focal)
        out = apply_thin_lens(at_lens, CTX, focal)
        x = out.coords
        xx, yy = np.meshgrid(x, x)
        central = (np.abs(xx) <= window / 4) & (np.abs(yy) <= window / 4)
        phase = np.angle(out.samples * np.exp(-1j * np.angle(out.samples[n // 2, n // 2])))
        assert np.abs(phase[central]).max() < 0.05

    def test_focal_spot_from_plane_wave(self):
        n = 512
        plane = ScalarField(np.ones((n, n), complex), 20e-6)
        focused = propagate(apply_thin_lens(plane, CTX, 0.25), CTX, 0.25)
        intensity = focused.intensity()
        assert intensity[n // 2, n // 2] / intensity.mean() >= 100


class TestTrains:
    def test_empty_train_is_identity(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        out = propagate_train(f, CTX, OpticalTrain(()))
        assert np.array_equal(out.samples, f.samples)

    def test_split_free_space_equals_single_hop(self):
        rng = np.random.default_rng(3)
        f = random_band_limited_field(rng, n=64, pitch=40e-6, max_distance=1.0)
        split = propagate_train(f, CTX, OpticalTrain((FreeSpace(0.3), FreeSpace(0.2))))
        joined = propagate(f, CTX, 0.5)
        assert rel_rms(split.samples, joined.samples) < 1e-10

    def test_4f_relay_images_scaled_and_inverted(self):
        f1, f2 = 0.2, 0.1
        n, pitch = 1024, 10e-6
        obj = wire_mask(0.2e-3, n, pitch).apply(gaussian_beam(0.5e-3, n, pitch))
        train = OpticalTrain((FreeSpace(f1), ThinLens(f1), FreeSpace(f1 + f2),
                              ThinLens(f2), FreeSpace(f2)))
        img = propagate_train(obj, CTX, train)
        ref = resample_scaled(obj, -f2 / f1)
        assert intensity_ncc(img.intensity(), ref.intensity()) >= 0.99

    def test_element_errors_carry_index(self):
        f = gaussian_beam(60e-6, 64, 20e-6)
        train = OpticalTrain((FreeSpace(0.001), FreeSpace(5.0)))
        with pytest.raises(AliasingRiskError, match="element 1"):
            propagate_train(f, CTX, train)

    def test_mask_element_grid_mismatch(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        bad = Mask(wire_mask(0.2e-3, 128, 20e-6))
        with pytest.raises(ValidationError, match="element 0"):
            propagate_train(f, CTX, OpticalTrain((bad,)))

    def test_bounded_lens_aperture_clips_power(self):
        f = gaussian_beam(0.4e-3, 128, 20e-6)
        clipped = propagate_train(
            f, CTX, OpticalTrain((ThinLens(0.5, aperture_radius=0.3e-3),))
        )
        assert power(clipped) < power(f)


class TestOracle:
    def test_matches_fft_propagator(self):
        f = gaussian_beam(0.2e-3, 64, 60e-6)
        a = propagate(f, CTX, 0.5)
        b = oracle_fresnel_direct(f, CTX, 0.5)
        assert rel_rms(a.samples, b.samples) < 1e-6
        assert rel_rms(b.samples, a.samples) < 1e-6

    def test_zero_distance_unsupported(self):
        f = gaussian_beam(0.2e-3, 64, 60e-6)
        with pytest.raises(ValidationError):
            oracle_fresnel_direct(f, CTX, 0.0)

    def test_large_grid_rejected(self):
        f = gaussian_beam(1e-3, 256, 60e-6)
        with pytest.raises(ValidationError, match="capped"):
            oracle_fresnel_direct(f, CTX, 0.5)

    def test_on_axis_fresnel_zone_closed_form(self):
        # uniform circular aperture of exactly one Fresnel zone: |U| on axis = 2 U0
        lam, z = CTX.wavelength, 0.5
        radius = np.sqrt(lam * z)
        n, pitch = 128, 30e-6
        x = (np.arange(n) - n // 2) * pitch
        xx, yy = np.meshgrid(x, x)
        sub = np.linspace(-0.5 + 1 / 8, 0.5 - 1 / 8, 4) * pitch
        acc = np.zeros((n, n))
        for dx in sub:
            for dy in sub:
                acc += ((xx + dx) ** 2 + (yy + dy) ** 2 <= radius**2)
        aperture = ScalarField((acc / 16.0).astype(complex), pitch)
        out = oracle_fresnel_direct(aperture, CTX, z)
        assert abs(out.samples[n // 2, n // 2]) == pytest.approx(2.0, rel=0.01)


class TestUnitarity:
    def test_band_limited_fields_conserve_power(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            f = random_band_limited_field(rng, n=128, pitch=40e-6, max_distance=3.0)
            p_in = power(f)
            for z in (0.1, 1.7, 3.0):
                assert abs(power(propagate(f, CTX, z)) / p_in - 1.0) < 1e-9
