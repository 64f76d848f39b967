"""Paraxial ray-transfer (ABCD) algebra and collimating-relay synthesis.

Conventions: distances positive left to right, converging lenses have
positive focal length.  For a composed system, B = 0 is the imaging
condition (magnification A) and D = 0 means a point source at the input
emerges collimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InfeasibleDesignError, ValidationError

DET_TOL = 1e-12
IMAGING_B_TOL = 1e-9
COLLIMATION_D_TOL = 1e-9


@dataclass(frozen=True)
class RayMatrix:
    """2x2 paraxial transfer matrix. B is in meters, C in 1/meters."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        # A*D and B*C keep float64 precision relative to their own size only
        ad, bc = self.a * self.d, self.b * self.c
        if not abs(ad - bc - 1.0) <= DET_TOL * max(1.0, abs(ad), abs(bc)):
            raise ValidationError(f"ray matrix determinant {ad - bc!r} != 1")

    def __matmul__(self, other: "RayMatrix") -> "RayMatrix":
        return RayMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @classmethod
    def identity(cls) -> "RayMatrix":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def free(cls, distance: float) -> "RayMatrix":
        if distance < 0:
            raise ValidationError(f"free-space distance must be >= 0, got {distance}")
        return cls(1.0, distance, 0.0, 1.0)

    @classmethod
    def lens(cls, focal: float) -> "RayMatrix":
        if focal == 0:
            raise ValidationError("lens focal length must be nonzero")
        return cls(1.0, 0.0, -1.0 / focal, 1.0)


def compose(matrices: Sequence[RayMatrix]) -> RayMatrix:
    """Compose matrices for elements traversed in list order.

    Light meets matrices[0] first, so the product is applied right to left:
    compose([m1, m2, m3]) = m3 @ m2 @ m1.
    """
    if not matrices:
        raise ValidationError("compose requires at least one matrix")
    out = RayMatrix.identity()
    for m in matrices:
        out = m @ out
    return out


def check_imaging(m: RayMatrix) -> tuple[bool, float]:
    """Whether the system images its input plane; magnification when it does."""
    is_image = abs(m.b) < IMAGING_B_TOL
    return is_image, (m.a if is_image else float("nan"))


def check_collimation(m: RayMatrix) -> bool:
    """True when a point source at the input emerges as parallel rays (D=0)."""
    return abs(m.d) < COLLIMATION_D_TOL


# ---------------------------------------------------------------------------
# Two-lens collimating relay synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelescopePlan:
    """Two-lens-per-beam relay: identical pair (f1, f2) on one beam and
    (f3, f4) on the other; in the unfolded single-axis picture only two
    lens stations exist, at ``station_positions`` meters downstream of the
    source plane, with the detector at ``total_distance``."""

    focal_lengths: tuple  # (f1, f2, f3, f4); f1 == f2, f3 == f4
    station_positions: tuple  # (z of first lens pair, z of second lens pair)
    total_distance: float
    magnification: float

    def __post_init__(self):
        z1, z2 = self.station_positions
        if not (0 < z1 < z2 < self.total_distance):
            raise ValidationError(
                f"station positions {self.station_positions} must be strictly "
                f"increasing inside (0, {self.total_distance})"
            )
        if any(f <= 0 for f in self.focal_lengths):
            raise ValidationError("all relay focal lengths must be positive")

    @property
    def first_focal(self) -> float:
        return self.focal_lengths[0]

    @property
    def second_focal(self) -> float:
        return self.focal_lengths[2]

    def leg_lengths(self) -> tuple:
        z1, z2 = self.station_positions
        return (z1, z2 - z1, self.total_distance - z2)

    def matrices(self) -> list[RayMatrix]:
        d1, d2, d3 = self.leg_lengths()
        return [
            RayMatrix.free(d1),
            RayMatrix.lens(self.first_focal),
            RayMatrix.free(d2),
            RayMatrix.lens(self.second_focal),
            RayMatrix.free(d3),
        ]

    def long_leg_matrix(self) -> RayMatrix:
        """Source plane up to just after the first lens (the collimated leg)."""
        return compose(self.matrices()[:2])


MAG_REL_TOL = 0.02
PLAN_B_TOL = 1e-6
MIN_GAP = 1e-3  # lenses and stations at least 1 mm apart


def design_telescope(total_distance: float, net_magnification_target: float,
                     catalog: Iterable[float]) -> TelescopePlan:
    """Pick a two-lens collimating relay from a focal-length catalog.

    The relay must image the source plane onto the detector plane
    (|B| < 1e-6 m) with magnification within 2% of the target, while the
    long inter-station leg is collimated (D = 0 after the first lens).
    Those constraints pin the geometry for a lens pair (fa, fb): the first
    lens sits one focal length from the source, the detector one focal
    length behind the second lens, and the magnification is -fb/fa.  The
    search is an exhaustive scan of catalog pairs; ties prefer the smallest
    first focal length (smallest intermediate image), then the closest
    magnification.

    Raises
    ------
    InfeasibleDesignError
        When no pair fits; the error reports the closest candidate.
    """
    catalog = sorted(set(float(f) for f in catalog))
    if not catalog:
        raise ValidationError("catalog must not be empty")
    if any(f <= 0 for f in catalog):
        raise ValidationError("catalog focal lengths must be positive")
    if total_distance <= 0:
        raise ValidationError("total distance must be positive")
    target = net_magnification_target
    if not (0.1 <= abs(target) <= 10.0):
        raise ValidationError(
            f"|magnification target| must lie in [0.1, 10], got {target}"
        )

    scored = []
    for fa in catalog:
        for fb in catalog:
            mag = -fb / fa
            mag_err = abs(mag - target) / abs(target)
            gap = total_distance - fa - fb
            fits = gap >= MIN_GAP
            scored.append((not fits, mag_err, fa, fb, gap, mag))
    scored.sort()

    feasible = [s for s in scored if not s[0] and s[1] < MAG_REL_TOL]
    if not feasible:
        _, mag_err, fa, fb, _, mag = scored[0]
        raise InfeasibleDesignError(
            f"no catalog pair meets magnification {target:g} within "
            f"{MAG_REL_TOL:.0%} inside {total_distance:g} m; closest candidate "
            f"fa={fa:g} m, fb={fb:g} m (magnification {mag:g}, off by "
            f"{mag_err:.1%})",
            closest=(fa, fb, mag),
        )
    # Ties prefer the smallest first focal length (smallest intermediate
    # image and shortest divergence leg), then the closest magnification.
    _, _, fa, fb, gap, mag = min(feasible, key=lambda s: (s[2], s[1], s[3]))
    best = TelescopePlan(
        focal_lengths=(fa, fa, fb, fb),
        station_positions=(fa, fa + gap),
        total_distance=total_distance,
        magnification=mag,
    )

    # Re-verify independently of the search path.
    system = compose(best.matrices())
    is_image, mag = check_imaging(system)
    if not (is_image and abs(system.b) < PLAN_B_TOL):
        raise InfeasibleDesignError(f"designed plan fails imaging check: B={system.b!r}")
    if abs(mag - target) / abs(target) >= MAG_REL_TOL:
        raise InfeasibleDesignError(
            f"designed plan magnification {mag:g} misses target {target:g}"
        )
    if not check_collimation(best.long_leg_matrix()):
        raise InfeasibleDesignError("designed plan fails collimation on the long leg")
    return best
