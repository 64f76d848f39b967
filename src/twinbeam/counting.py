"""Poisson counting statistics, SNR, and distance sweeps.

Deterministic rate profiles become count records by drawing Poisson
variates per scan point; accidental coincidences from uncorrelated singles
add a flat background singles_s * singles_i * window.  Sub-seeds are
derived per point from (seed, point index), so points can be sampled in
any order, or in parallel, with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .biphoton import CoincidenceProfile, scan_detector
from .errors import InfeasibleDesignError, PhysicsError, ValidationError
from .paraxial import design_telescope

DEFAULT_COINCIDENCE_WINDOW_S = 5e-9
DEFAULT_SINGLES_PER_S = 50_000.0


@dataclass(frozen=True)
class CountingConfig:
    """Acquisition settings for one scan."""

    acquisition_time_s: float = 1.0
    singles_signal_per_s: float = DEFAULT_SINGLES_PER_S
    singles_idler_per_s: float = DEFAULT_SINGLES_PER_S
    coincidence_window_s: float = DEFAULT_COINCIDENCE_WINDOW_S
    seed: int = 0

    def __post_init__(self):
        for name in ("acquisition_time_s", "singles_signal_per_s",
                     "singles_idler_per_s", "coincidence_window_s"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        singles_max = max(self.singles_signal_per_s, self.singles_idler_per_s)
        if singles_max > 0 and self.coincidence_window_s >= 1.0 / singles_max:
            raise ValidationError(
                "coincidence window must be shorter than 1/max(singles) "
                "(rare-accidental regime)"
            )

    @property
    def accidental_rate(self) -> float:
        return (self.singles_signal_per_s * self.singles_idler_per_s
                * self.coincidence_window_s)


@dataclass(frozen=True)
class CountedProfile:
    """Poisson-sampled counts alongside the expected rates."""

    coordinates: np.ndarray
    expected_rates: np.ndarray
    counts: np.ndarray
    accidental_rates: np.ndarray
    config: CountingConfig

    def __post_init__(self):
        for name in ("coordinates", "expected_rates", "counts", "accidental_rates"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.coordinates.shape == self.expected_rates.shape
                == self.counts.shape == self.accidental_rates.shape):
            raise ValidationError("counted profile arrays must share one shape")
        if self.counts.size and self.counts.min() < 0:
            raise ValidationError("counts must be non-negative")


def _point_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def sample_counts(profile: CoincidenceProfile, cfg: CountingConfig) -> CountedProfile:
    """Draw counts ~ Poisson((rate + accidentals) * T) per scan point."""
    acc = cfg.accidental_rate
    t = cfg.acquisition_time_s
    counts = np.empty(profile.rates.shape, dtype=np.int64)
    for i, rate in enumerate(profile.rates):
        lam = (rate + acc) * t
        counts[i] = _point_rng(cfg.seed, i).poisson(lam) if lam > 0 else 0
    return CountedProfile(
        coordinates=profile.coordinates.copy(),
        expected_rates=profile.rates.copy(),
        counts=counts,
        accidental_rates=np.full(profile.rates.shape, acc),
        config=cfg,
    )


def snr(counted: CountedProfile) -> float:
    """(peak - background) / sqrt(peak + background) on counts.

    Background is the accidental expectation plus the profile's minimum
    counts; the profile must have a discernible feature.
    """
    if counted.counts.size == 0 or counted.counts.max() == 0:
        raise PhysicsError("SNR undefined: profile has no counts")
    peak = float(counted.counts.max())
    background = float(counted.accidental_rates.max() * counted.config.acquisition_time_s
                       + counted.counts.min())
    if peak + background <= 0:
        raise PhysicsError("SNR undefined: empty peak and background")
    return (peak - background) / np.sqrt(peak + background)


# ---------------------------------------------------------------------------
# Distance sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    distance_m: float
    peak_rate: Optional[float]
    snr: Optional[float]
    collimated: bool
    note: str = ""


def sweep_distance(scenario, distances: Sequence[float], collimated: bool,
                   catalog: Iterable[float] = (0.1, 0.15, 0.25, 0.5),
                   magnification_target: float = -1.0,
                   aperture_radius_m: float = 0.5e-3,
                   kappa: float = 1.0) -> list[SweepRow]:
    """Peak rate and SNR versus crystal-to-detector distance.

    Uncollimated rows rebuild the scenario with bare free propagation to
    each distance; collimated rows insert a relay from
    :func:`design_telescope`.  Both use the same fixed detector aperture
    pair.  A distance where no relay fits is reported as infeasible rather
    than aborting the sweep.
    """
    from .scenario import with_free_twin_side, with_telescope

    distances = list(distances)
    bad = [d for d in distances if not (d > 0 and np.isfinite(d))]
    if not distances or bad:
        raise ValidationError(f"sweep distances must be positive and finite, got {bad}")
    if any(not b > a for a, b in zip(distances, distances[1:])):
        raise ValidationError("sweep distances must be strictly ascending")

    rows = []
    for z in distances:
        if collimated:
            try:
                plan = design_telescope(z, magnification_target, catalog)
            except InfeasibleDesignError as exc:
                rows.append(SweepRow(z, None, None, True, note=str(exc)))
                continue
            derived = with_telescope(scenario, plan, aperture_radius_m)
        else:
            derived = with_free_twin_side(scenario, z, aperture_radius_m)
        profile = scan_detector(derived, kappa=kappa)
        counted = sample_counts(profile, derived.counting)
        rows.append(SweepRow(z, profile.peak_rate, snr(counted), collimated))
    return rows
