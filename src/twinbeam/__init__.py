"""Scalar-wave simulator for twin-beam coincidence imaging.

Propagates a structured pump field through masks and lenses, evaluates
two-photon coincidence-rate distributions in the detector sum coordinate,
and demonstrates that collimating relay optics carry the correlated image
over long distances without losing it to beam divergence.
"""

from .biphoton import (
    CoincidenceProfile,
    DetectorSpec,
    coincidence_rate_map,
    divergence_loss_distance,
    divergence_prefactor,
    effective_detector_field,
    scan_detector,
    unfolded_pump_train,
)
from .counting import (
    CountedProfile,
    CountingConfig,
    SweepRow,
    sample_counts,
    snr,
    sweep_distance,
)
from .errors import (
    AliasingRiskError,
    InfeasibleDesignError,
    OutOfWindowError,
    PhysicsError,
    SamplingError,
    TwinbeamError,
    ValidationError,
)
from .field import (
    ScalarField,
    TransmissionMask,
    WaveContext,
    bilinear_sample,
    gaussian_beam,
    power,
    wire_mask,
)
from .paraxial import (
    RayMatrix,
    TelescopePlan,
    check_collimation,
    check_imaging,
    compose,
    design_telescope,
)
from .propagation import (
    FreeSpace,
    Mask,
    OpticalTrain,
    ThinLens,
    apply_thin_lens,
    max_safe_distance,
    propagate,
    propagate_train,
    safe_frequency_limit,
)
from .runner import RunReport, resolve_kappa, run
from .scenario import (
    Scenario,
    compare_profiles,
    contrast,
    emit_scenario,
    feature_width,
    load_scenario,
    parse_scenario,
    with_free_twin_side,
    with_telescope,
)

__version__ = "0.1.0"
