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

from dataclasses import field
from typing import Annotated

import numpy as np

from .bounds import Finite, NonNegative, Positive, bounded, check
from .constants import STANDARD_GRAVITY

# stream ids: one independent RNG stream per physical noise source
STREAM_QUASIMOMENTUM = 0
STREAM_MIRROR = 1
STREAM_DETECTION = 2
STREAM_DETECTION_UPPER = 3


def shot_rng(master_seed: int, stream: int) -> np.random.Generator:
    """The generator of one noise stream; row i of its draws is shot i's."""
    return np.random.default_rng((int(master_seed), 0, int(stream)))


@bounded
class NoiseModel:
    """Mirror-vibration phase jitter, detection SNR (None: no detection
    noise) and alignment drift; the config's ``noise`` block."""

    mirror_phase_rms_rad: Annotated[float, NonNegative] = 0.0   # per pulse
    detection_snr: Annotated[float, Positive] | None = 50.0
    tilt_drift_rad_per_hour: Annotated[float, Finite] = 0.0


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


@bounded
class TideComponent:
    """One gravity harmonic: amplitude (m/s^2), angular frequency (rad/s),
    phase (rad)."""

    amplitude: Annotated[float, NonNegative]
    angular_frequency: Annotated[float, Finite]
    phase: Annotated[float, Finite] = 0.0


@bounded
class TideModel:
    """Mean gravity plus a configurable sum of harmonic components."""

    mean_gravity: Annotated[float, Positive] = STANDARD_GRAVITY
    components: tuple[TideComponent, ...] = field(default_factory=tuple)


def synthesize_tide(model: TideModel, t):
    """g(t) = g_mean + sum_i A_i cos(w_i t + phi_i); broadcasts over t."""
    t = np.asarray(t, dtype=float)
    check("t", t, NonNegative)
    g = np.full(t.shape, model.mean_gravity)
    for comp in model.components:
        g = g + comp.amplitude * np.cos(comp.angular_frequency * t + comp.phase)
    return float(g) if g.ndim == 0 else g


def tilt_projection_drift(model: NoiseModel, t, base_tilt: float = 0.0):
    """Effective cos(tilt) under a deterministic linear tilt drift."""
    t = np.asarray(t, dtype=float)
    check("t", t, NonNegative)
    c = np.cos(base_tilt + model.tilt_drift_rad_per_hour * t / 3600.0)
    return float(c) if c.ndim == 0 else c
