"""Lab environment synthesis: mirror vibration, detection noise, alignment
drift and tidal gravity variation.

Vibration of the retro-reflection mirror enters as independent Gaussian
phase draws on the three interferometer pulses; the interferometer responds
to their combination phi1 - 2*phi2 + phi3. Detection is additive Gaussian
per port signal at sigma = 1/SNR (photon-shot-noise-like). Tides are a
configurable sum of gravity harmonics, a stand-in for a published
solid-Earth-tide model.

All randomness is reproducible from (seed, stream id): one generator per
noise stream (the ensemble's from ``EnsembleSpec.seed``, the others' from
the run's master seed), and shot i takes row i of its stream in any batch
of shots. There is no hidden global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import STANDARD_GRAVITY

# stream ids: one independent RNG stream per physical noise source
STREAM_QUASIMOMENTUM = 0
STREAM_MIRROR = 1
STREAM_DETECTION = 2
STREAM_DETECTION_UPPER = 3


def shot_rng(master_seed: int, stream: int) -> np.random.Generator:
    """The generator of one noise stream; row i of its draws is shot i's."""
    return np.random.default_rng((int(master_seed), 0, int(stream)))


@dataclass(frozen=True)
class NoiseModel:
    """Mirror-vibration phase jitter, detection SNR (None: no detection
    noise) and alignment drift; the config's ``noise`` block."""

    mirror_phase_rms_rad: float = 0.0   # per pulse
    detection_snr: float | None = 50.0
    tilt_drift_rad_per_hour: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 <= self.mirror_phase_rms_rad < math.inf:
            raise ValueError(f"mirror_phase_rms_rad must be finite and >= 0, "
                             f"got {self.mirror_phase_rms_rad}")
        if self.detection_snr is not None and not 0 < self.detection_snr < math.inf:
            raise ValueError(f"detection_snr must be > 0 and finite, "
                             f"got {self.detection_snr}")
        if not math.isfinite(self.tilt_drift_rad_per_hour):
            raise ValueError(f"tilt_drift_rad_per_hour must be finite, "
                             f"got {self.tilt_drift_rad_per_hour}")


def sample_mirror_phases(model: NoiseModel, rng: np.random.Generator,
                         shots: int) -> np.ndarray:
    """Independent Gaussian pulse-phase draws (rad), one row per shot and one
    column per pulse.

    The combination phi1 - 2*phi2 + phi3 has variance 6*rms^2. Zero rms
    returns zeros and consumes no randomness.
    """
    if model.mirror_phase_rms_rad == 0.0:
        return np.zeros((shots, 3))
    return rng.normal(0.0, model.mirror_phase_rms_rad, size=(shots, 3))


def apply_detection_noise(populations, model: NoiseModel, rng: np.random.Generator):
    """Additive Gaussian port noise with sigma = 1/SNR, clamped to [0, 1].

    Takes an array of port populations and returns an array of the same
    shape, one draw per element in order. An SNR of None returns the input
    itself.
    """
    if model.detection_snr is None:
        return populations
    sigma = 1.0 / model.detection_snr
    arr = np.asarray(populations, dtype=float)
    return np.clip(arr + rng.normal(0.0, sigma, size=arr.shape), 0.0, 1.0)


@dataclass(frozen=True)
class TideComponent:
    """One gravity harmonic: amplitude (m/s^2), angular frequency (rad/s),
    phase (rad)."""

    amplitude: float
    angular_frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if not 0 <= self.amplitude < math.inf:  # NaN fails every check
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        for name in ("angular_frequency", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class TideModel:
    """Mean gravity plus a configurable sum of harmonic components."""

    mean_gravity: float = STANDARD_GRAVITY
    components: tuple[TideComponent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 0 < self.mean_gravity < math.inf:  # NaN fails every check
            raise ValueError(
                f"mean_gravity must be finite and > 0, got {self.mean_gravity}")

    @classmethod
    def demo_m2(cls, mean_gravity: float = STANDARD_GRAVITY,
                amplitude: float = 1.0e-6) -> "TideModel":
        """Single M2-like component: 12.42 h period, ~1 umps^2 swing."""
        omega = 2.0 * math.pi / (12.42 * 3600.0)
        return cls(mean_gravity=mean_gravity,
                   components=(TideComponent(amplitude, omega),))


def synthesize_tide(model: TideModel, t):
    """g(t) = g_mean + sum_i A_i cos(w_i t + phi_i); broadcasts over t."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < math.inf)):   # NaN fails too
        raise ValueError("time must be >= 0 and finite")
    g = np.full(t.shape, model.mean_gravity)
    for comp in model.components:
        g = g + comp.amplitude * np.cos(comp.angular_frequency * t + comp.phase)
    return float(g) if g.ndim == 0 else g


def tilt_projection_drift(model: NoiseModel, t, base_tilt: float = 0.0):
    """Effective cos(tilt) under a deterministic linear tilt drift."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < math.inf)):   # NaN fails too
        raise ValueError("time must be >= 0 and finite")
    c = np.cos(base_tilt + model.tilt_drift_rad_per_hour * t / 3600.0)
    return float(c) if c.ndim == 0 else c
