"""Exception hierarchy shared across the package.

Two branches matter for the CLI exit codes: configuration/validation
problems (exit 2) and physics or feasibility problems found at run time
(exit 3).
"""


class TwinbeamError(Exception):
    """Base class for all package errors."""


class ValidationError(TwinbeamError):
    """Bad configuration, schema violation, or parameter out of contract."""


class SamplingError(ValidationError):
    """Grid cannot resolve the requested feature (waist, mask, aperture)."""


class PhysicsError(TwinbeamError):
    """Simulation cannot proceed or produce a trustworthy result."""


class AliasingRiskError(PhysicsError):
    """Propagation distance exceeds the aliasing-safe range of the grid."""

    def __init__(self, message, max_safe_distance):
        super().__init__(message)
        self.max_safe_distance = max_safe_distance


class UnsupportedAsymmetryError(PhysicsError):
    """Signal and idler twin-side trains differ; the unfolded picture needs identical arms."""


class OutOfWindowError(PhysicsError):
    """A sampled coordinate fell outside the field window."""


class InfeasibleDesignError(PhysicsError):
    """No catalog combination satisfies the design constraints."""

    def __init__(self, message, closest=None):
        super().__init__(message)
        self.closest = closest
