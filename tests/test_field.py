import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import resample_scaled
from twinbeam import (
    OutOfWindowError,
    SamplingError,
    ScalarField,
    TransmissionMask,
    ValidationError,
    WaveContext,
    bilinear_sample,
    gaussian_beam,
    power,
    wire_mask,
)
from twinbeam.field import radius_squared


class TestWaveContext:
    def test_wavelength_wavenumber_consistency(self):
        ctx = WaveContext.from_wavelength(425e-9)
        assert ctx.wavelength * ctx.wavenumber == pytest.approx(2 * np.pi, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            WaveContext(-1.0)
        with pytest.raises(ValidationError):
            WaveContext.from_wavelength(0.0)


class TestGaussianBeam:
    def test_peak_is_one_at_center(self):
        f = gaussian_beam(1e-3, 512, 20e-6)
        assert f.samples[256, 256] == 1.0 + 0.0j

    def test_amplitude_at_waist_radius(self):
        f = gaussian_beam(1e-3, 512, 20e-6)
        # rho = waist = 50 pitches along x
        assert abs(f.samples[256, 256 + 50]) == pytest.approx(np.e**-1, rel=1e-12)

    def test_power_matches_analytic_integral(self):
        # closed form: integral of exp(-2 rho^2/w^2) = pi w^2 / 2
        waist = 1e-3
        f = gaussian_beam(waist, 512, 20e-6)
        assert power(f) == pytest.approx(np.pi / 2 * waist**2, rel=1e-3)

    def test_radial_symmetry(self):
        f = gaussian_beam(0.7e-3, 128, 40e-6)
        s = f.samples
        n = 128
        for i, j in [(10, 40), (3, 50), (60, 21)]:
            assert s[n // 2 + i, n // 2 + j] == s[n // 2 + j, n // 2 + i]
            assert s[n // 2 + i, n // 2 + j] == s[n // 2 - i, n // 2 - j]

    @pytest.mark.parametrize("n", [128, 129])
    @pytest.mark.parametrize("waist", [0.3e-3, 0.41e-3])
    def test_mirrored_quadrant_matches_full_grid(self, n, waist):
        pitch = 20e-6
        ref = np.exp(-radius_squared(n, pitch) / waist**2).astype(complex)
        assert gaussian_beam(waist, n, pitch).samples.tobytes() == ref.tobytes()

    def test_underresolved_waist_rejected(self):
        with pytest.raises(SamplingError):
            gaussian_beam(30e-6, 64, 20e-6)

    def test_guard_band_violation_names_required_n(self):
        with pytest.raises(SamplingError, match="need N >"):
            gaussian_beam(1e-3, 128, 20e-6)


class TestWireMask:
    def test_exact_zero_column_count(self):
        m = wire_mask(0.2e-3, 512, 20e-6)
        zero_cols = np.sum(np.all(m.samples == 0.0, axis=0))
        assert zero_cols == 10

    def test_full_width_blocks_everything(self):
        m = wire_mask(512 * 20e-6, 512, 20e-6)
        assert np.all(m.samples == 0.0)

    def test_power_loss_fraction(self):
        n, pitch, width = 512, 20e-6, 0.2e-3
        uniform = ScalarField(np.ones((n, n), complex), pitch)
        masked = wire_mask(width, n, pitch).apply(uniform)
        loss = 1.0 - power(masked) / power(uniform)
        assert loss == pytest.approx(width / (n * pitch), abs=pitch / (n * pitch))

    def test_idempotent(self):
        m = wire_mask(0.2e-3, 128, 20e-6)
        f = gaussian_beam(0.3e-3, 128, 20e-6)
        once = m.apply(f)
        twice = m.apply(once)
        assert np.array_equal(once.samples, twice.samples)

    def test_too_narrow_rejected(self):
        with pytest.raises(SamplingError):
            wire_mask(30e-6, 128, 20e-6)

    def test_values_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            TransmissionMask(np.full((16, 16), 1.5), 1e-5)


class TestPower:
    def test_zero_field(self):
        assert power(ScalarField(np.zeros((16, 16), complex), 1e-5)) == 0.0

    def test_single_unit_sample(self):
        s = np.zeros((16, 16), complex)
        s[3, 4] = 1.0
        assert power(ScalarField(s, 2e-5)) == pytest.approx((2e-5) ** 2, rel=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-np.pi, max_value=np.pi))
    def test_invariant_under_global_phase(self, phase):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        rotated = f.with_samples(f.samples * np.exp(1j * phase))
        assert power(rotated) == pytest.approx(power(f), rel=1e-12)


class TestScalarFieldValidation:
    def test_rejects_small_grid(self):
        with pytest.raises(ValidationError):
            ScalarField(np.ones((8, 8), complex), 1e-5)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            ScalarField(np.ones((16, 32), complex), 1e-5)

    def test_rejects_nonfinite(self):
        s = np.ones((16, 16), complex)
        s[0, 0] = np.nan
        with pytest.raises(ValidationError):
            ScalarField(s, 1e-5)

    def test_rejects_bad_pitch(self):
        with pytest.raises(ValidationError):
            ScalarField(np.ones((16, 16), complex), 0.0)

    def test_samples_frozen(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        with pytest.raises(ValueError):
            f.samples[0, 0] = 5.0


class TestBilinearSample:
    def test_exact_at_sample_points(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        intensity = f.intensity()
        assert bilinear_sample(intensity, f.pitch, 0.0, 0.0) == intensity[32, 32]

    def test_midpoint_average(self):
        vals = np.zeros((16, 16))
        vals[8, 8] = 1.0
        vals[8, 9] = 3.0
        assert bilinear_sample(vals, 1e-5, 0.5e-5, 0.0) == pytest.approx(2.0)

    def test_out_of_window_raises(self):
        vals = np.ones((16, 16))
        with pytest.raises(OutOfWindowError):
            bilinear_sample(vals, 1e-5, 1.0, 0.0)
        # one point of an array call outside the window fails the whole call
        with pytest.raises(OutOfWindowError):
            bilinear_sample(vals, 1e-5, np.array([0.0, 2e-5, 1.0]), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=-3e-4, max_value=3e-4),
           st.floats(min_value=-3e-4, max_value=3e-4))
    def test_interpolation_bounded_by_neighbors(self, x, y):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        intensity = f.intensity()
        value = bilinear_sample(intensity, f.pitch, x, y)
        i = int(np.floor(x / f.pitch)) + 32
        j = int(np.floor(y / f.pitch)) + 32
        cell = intensity[j:j + 2, i:i + 2]
        assert cell.min() - 1e-15 <= value <= cell.max() + 1e-15
        # an array call returns, bit for bit, the scalar call at every point
        xs, ys = np.array([x, 0.0, -x, y]), np.array([y, y, 0.0, x])
        batch = bilinear_sample(intensity, f.pitch, xs, ys)
        one_by_one = [bilinear_sample(intensity, f.pitch, a, b) for a, b in zip(xs, ys)]
        assert batch.tobytes() == np.array(one_by_one).tobytes()


class TestCircularMaskAndResample:
    def test_resample_unit_magnification_is_identity_inside(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        r = resample_scaled(f, 1.0)
        assert np.allclose(r.samples, f.samples)

    def test_resample_inversion(self):
        f = gaussian_beam(0.15e-3, 64, 20e-6)
        shifted = f.with_samples(np.roll(f.samples, 5, axis=1))
        r = resample_scaled(shifted, -1.0)
        # peak moves from +5 pitches to -5 pitches
        j = np.argmax(np.abs(r.samples[32, :]))
        assert j == 32 - 5
