"""braggsim: numerical simulator for a Bragg-diffraction atom gravimeter.

Propagates single atoms on the 2*hbar*k momentum ladder through Bloch
velocity selection and pi/2 - pi - pi/2 Mach-Zehnder pulse sequences,
synthesizes lab noise and tides, and extracts gravity, fringe harmonics,
contrast revivals, Allan deviations and gradiometer correlations.
"""

__version__ = "0.1.0"

from .analysis import (
    AllanCurve,
    FringeScan,
    HarmonicFit,
    allan_deviation,
    bin_timeseries,
    enumerate_interferometer_class,
    fit_harmonics,
    fringe_contrast,
    gradiometer_correlation,
    phase_to_gravity,
)
from .bloch import LatticeRamp, bloch_accelerate, selection_profile
from .environment import (
    NoiseModel,
    TideComponent,
    TideModel,
    apply_detection_noise,
    sample_mirror_phases,
    synthesize_tide,
    tilt_projection_drift,
)
from .ladder import (
    EvolutionConfig,
    MomentumLadderState,
    PulseSpec,
    apply_pulse,
    calibrate_pulse_amplitude,
    free_propagate,
    plane_wave_state,
    pulse_propagator,
)
from .physics import (
    AtomSpecies,
    BeamGeometry,
    InterferometerParams,
    bragg_resonance,
    coherence_length,
    gravity_from_sweep,
    mzi_phase,
    path_length_increment,
    path_phase,
    propagation_phase,
    resonant_sweep_rate,
    revival_period,
)
from .sequence import (
    EnsembleSpec,
    GradiometerSpec,
    MZISequence,
    ShotResult,
    prepare_sequence,
    run_gradiometer,
    run_gravity_series,
    run_shot,
    scan_contrast_vs_T,
    scan_fringe,
    scan_sweep_rate,
)

__all__ = [
    "__version__",
    "AllanCurve", "FringeScan", "HarmonicFit", "allan_deviation",
    "bin_timeseries", "enumerate_interferometer_class", "fit_harmonics",
    "fringe_contrast", "gradiometer_correlation", "phase_to_gravity",
    "LatticeRamp", "bloch_accelerate", "selection_profile",
    "NoiseModel", "TideComponent", "TideModel", "apply_detection_noise",
    "sample_mirror_phases", "synthesize_tide", "tilt_projection_drift",
    "EvolutionConfig", "MomentumLadderState", "PulseSpec", "apply_pulse",
    "calibrate_pulse_amplitude", "free_propagate", "plane_wave_state",
    "pulse_propagator",
    "AtomSpecies", "BeamGeometry", "InterferometerParams", "bragg_resonance",
    "coherence_length", "gravity_from_sweep", "mzi_phase",
    "path_length_increment", "path_phase", "propagation_phase",
    "resonant_sweep_rate", "revival_period",
    "EnsembleSpec", "GradiometerSpec", "MZISequence", "ShotResult",
    "prepare_sequence", "run_gradiometer", "run_gravity_series", "run_shot",
    "scan_contrast_vs_T", "scan_fringe", "scan_sweep_rate",
]
