import numpy as np
import pytest

from conftest import make_scenario
from twinbeam import PhysicsError, ValidationError
from twinbeam.biphoton import CoincidenceProfile
from twinbeam.counting import (
    CountedProfile,
    CountingConfig,
    sample_counts,
    snr,
    sweep_distance,
)


def bell_profile(peak=800.0, n=41):
    coords = np.arange(n) * 1e-5
    rates = peak * np.exp(-(((np.arange(n) - n // 2) / 8.0) ** 2))
    return CoincidenceProfile(coords, rates)


QUIET = dict(singles_signal_per_s=0.0, singles_idler_per_s=0.0, coincidence_window_s=0.0)


class TestCountingConfig:
    def test_accidental_rate(self):
        cfg = CountingConfig(1.0, 5e4, 5e4, 5e-9, 0)
        assert cfg.accidental_rate == pytest.approx(12.5)

    def test_window_must_be_rare(self):
        with pytest.raises(ValidationError):
            CountingConfig(1.0, 5e4, 5e4, 1e-4, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            CountingConfig(-1.0, 0, 0, 0, 0)


class TestSampleCounts:
    def test_zero_rates_zero_counts(self):
        prof = CoincidenceProfile(np.arange(5) * 1e-5, np.zeros(5))
        counted = sample_counts(prof, CountingConfig(10.0, seed=3, **QUIET))
        assert np.all(counted.counts == 0)

    def test_poisson_moments(self):
        # 1e4 draws at rate*T = 1000
        n = 10_000
        prof = CoincidenceProfile(np.arange(n) * 1e-6, np.full(n, 100.0))
        counted = sample_counts(prof, CountingConfig(10.0, seed=42, **QUIET))
        mean = counted.counts.mean()
        assert abs(mean - 1000.0) < 3 * np.sqrt(1000.0)
        assert 0.95 < counted.counts.var() / mean < 1.05

    def test_seed_determinism_is_exact(self):
        prof = bell_profile()
        cfg = CountingConfig(10.0, 5e4, 5e4, 5e-9, seed=77)
        a = sample_counts(prof, cfg)
        b = sample_counts(prof, cfg)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        prof = bell_profile()
        a = sample_counts(prof, CountingConfig(10.0, 5e4, 5e4, 5e-9, seed=1))
        b = sample_counts(prof, CountingConfig(10.0, 5e4, 5e4, 5e-9, seed=2))
        assert not np.array_equal(a.counts, b.counts)

    def test_accidentals_add_background(self):
        prof = CoincidenceProfile(np.arange(2000) * 1e-6, np.zeros(2000))
        cfg = CountingConfig(1.0, 5e4, 5e4, 5e-9, seed=5)
        counted = sample_counts(prof, cfg)
        assert counted.counts.mean() == pytest.approx(12.5, rel=0.1)


class TestSnr:
    def test_formula_on_clean_counts(self):
        cfg = CountingConfig(1.0, seed=0, **QUIET)
        counted = CountedProfile(np.array([0.0, 1e-5]), np.array([0.0, 1e6]),
                                 np.array([0, 10**6]), np.zeros(2), cfg)
        assert snr(counted) == pytest.approx(1000.0)

    def test_all_zero_counts_undefined(self):
        cfg = CountingConfig(1.0, seed=0, **QUIET)
        counted = CountedProfile(np.array([0.0, 1e-5]), np.zeros(2),
                                 np.zeros(2, dtype=int), np.zeros(2), cfg)
        with pytest.raises(PhysicsError):
            snr(counted)

    def test_scales_as_sqrt_time(self):
        prof = bell_profile()
        snr_t, snr_2t = [], []
        for seed in range(100):
            snr_t.append(snr(sample_counts(prof, CountingConfig(1.0, 5e4, 5e4, 5e-9, seed=seed))))
            snr_2t.append(snr(sample_counts(prof, CountingConfig(2.0, 5e4, 5e4, 5e-9, seed=10_000 + seed))))
        ratio = np.mean(snr_2t) / np.mean(snr_t)
        assert abs(ratio / np.sqrt(2.0) - 1.0) < 0.05

    def test_median_snr_nondecreasing_in_time(self):
        prof = bell_profile(peak=200.0)
        medians = []
        for t in (0.5, 1.0, 2.0, 4.0):
            vals = [snr(sample_counts(prof, CountingConfig(t, 5e4, 5e4, 5e-9, seed=s)))
                    for s in range(20)]
            medians.append(np.median(vals))
        assert all(b >= a for a, b in zip(medians, medians[1:]))


@pytest.fixture(scope="module")
def sweep_scenario():
    return make_scenario(name="sweep", waist=1e-3, wire=0.2e-3, z_m1=0.005,
                         z_det=1.0, aperture=5e-4, n=1024, pitch=20e-6,
                         scan=(-1.5e-3, 1.5e-3, 5e-5), seed=5)


class TestSweepDistance:
    def test_validates_distances(self, sweep_scenario):
        with pytest.raises(ValidationError):
            sweep_distance(sweep_scenario, [], collimated=False)
        with pytest.raises(ValidationError):
            sweep_distance(sweep_scenario, [2.0, 1.0], collimated=False)

    @pytest.mark.parametrize("distances", [[0.5, float("nan")], [float("nan"), 0.5],
                                           [0.5, float("inf")], [float("-inf")]])
    def test_rejects_non_finite_distances(self, sweep_scenario, distances):
        # NaN fails every comparison, so "d <= 0" and "b <= a" let it through
        with pytest.raises(ValidationError, match=r"positive and finite, got \[-?(nan|inf)\]"):
            sweep_distance(sweep_scenario, distances, collimated=False)

    def test_free_sweep_follows_inverse_square(self, sweep_scenario):
        rows = sweep_distance(sweep_scenario, [1.0, 2.0], collimated=False, kappa=10.0)
        ratio = rows[0].peak_rate / rows[1].peak_rate
        assert ratio == pytest.approx(4.0, rel=0.10)

    def test_free_snr_decreases_with_distance(self, sweep_scenario):
        from twinbeam import scan_detector, with_free_twin_side

        medians = []
        for z in (0.7, 1.4, 2.8):
            profile = scan_detector(with_free_twin_side(sweep_scenario, z, 5e-4),
                                    kappa=10.0)
            snrs = [snr(sample_counts(profile, CountingConfig(1.0, 5e4, 5e4, 5e-9, seed=s)))
                    for s in range(20)]
            medians.append(np.median(snrs))
        assert medians[0] > medians[1] > medians[2]

    def test_collimated_sweep_is_flat(self, sweep_scenario):
        rows = sweep_distance(sweep_scenario, [1.1, 2.0, 3.0], collimated=True,
                              catalog=(0.5,), kappa=10.0)
        peaks = [r.peak_rate for r in rows]
        assert (max(peaks) - min(peaks)) / max(peaks) < 0.10

    def test_collimated_beats_free_at_three_meters(self, sweep_scenario):
        free = sweep_distance(sweep_scenario, [3.0], collimated=False, kappa=10.0)[0]
        col = sweep_distance(sweep_scenario, [3.0], collimated=True,
                             catalog=(0.5,), kappa=10.0)[0]
        assert col.peak_rate / free.peak_rate >= 5.0

    def test_infeasible_rows_marked(self, sweep_scenario):
        rows = sweep_distance(sweep_scenario, [0.5, 3.0], collimated=True,
                              catalog=(1.0,), kappa=10.0)
        assert rows[0].peak_rate is None and rows[0].snr is None
        assert rows[1].peak_rate is not None
