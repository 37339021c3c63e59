"""Closed-form physics of the Bragg gravimeter.

Everything here is analytic: species constants, the Mach-Zehnder phase
response, the sweep-rate/gravity pair, and the multi-path quantities
(coherence length, path-length increment, revival period, per-trajectory
phases) that govern contrast revivals.

Conventions: k = 2*pi/lambda is the single-photon wavevector and enters
the multi-path formulas; the interferometer phase uses the two-photon
k_eff = 2k. Phases in rad, angular frequencies in rad/s, the sweep rate
alpha in Hz/s (cyclic, so it appears as 2*pi*alpha in the phase model).
"""

from __future__ import annotations

import math
from typing import Annotated

from .bounds import NonNegative, Positive, Range, bounded, check
from .constants import BOLTZMANN, HBAR, RB87_D2_WAVELENGTH, RB87_MASS


@bounded
class AtomSpecies:
    """Atom driving the interferometer: mass (kg) and Bragg wavelength (m).

    The wavevector and recoil frequency are always derived, never stored,
    so there is a single source of truth for k.
    """

    mass: Annotated[float, Positive]
    wavelength: Annotated[float, Positive]

    @property
    def wavevector(self) -> float:
        """Single-photon wavevector k = 2*pi/lambda (1/m)."""
        return 2.0 * math.pi / self.wavelength

    @property
    def recoil_frequency(self) -> float:
        """Recoil angular frequency hbar k^2 / 2m (rad/s)."""
        k = self.wavevector
        return HBAR * k * k / (2.0 * self.mass)

    @property
    def recoil_velocity(self) -> float:
        """Single-photon recoil velocity hbar k / m (m/s)."""
        return HBAR * self.wavevector / self.mass

    @classmethod
    def rubidium87(cls, wavelength: float = RB87_D2_WAVELENGTH) -> "AtomSpecies":
        return cls(mass=RB87_MASS, wavelength=wavelength)


@bounded
class BeamGeometry:
    """Two-photon beam geometry: k_eff = 4*pi/lambda and tilt from vertical."""

    k_eff: Annotated[float, Positive]
    tilt_angle: Annotated[float, Range(0.0, math.pi / 2, open_high=True)] = 0.0

    @property
    def projection(self) -> float:
        """cos(tilt): projection of gravity on the beam axis."""
        return math.cos(self.tilt_angle)

    @classmethod
    def vertical(cls, species: AtomSpecies, tilt_angle: float = 0.0) -> "BeamGeometry":
        """Retro-reflected geometry: k_eff = 2k exactly."""
        return cls(k_eff=2.0 * species.wavevector, tilt_angle=tilt_angle)


def mzi_phase(order: int, interrogation_time: float, geometry: BeamGeometry, *,
              gravity: float = 0.0, sweep_rate: float = 0.0,
              pulse_phases: tuple[float, float, float] = (0.0, 0.0, 0.0)) -> float:
    """Mach-Zehnder phase Phi = n [(k_eff g cos(tilt) - 2 pi alpha) T^2 - phi_L]
    of Bragg order n, interrogation time T (s), gravity g (m/s^2), sweep rate
    alpha (Hz/s) and the laser phase phi_L = phi1 - 2 phi2 + phi3 (rad) of the
    three pulse phases.

    This is the closed-form phase response; it vanishes when the sweep rate
    cancels the Doppler ramp and no pulse phase is applied. A pulse imprints
    its phase at once, an order-n pulse n times it, so phi_L is not scaled
    by T^2.
    """
    check("order", order, Range(1))
    check("interrogation_time", interrogation_time, Positive)
    p1, p2, p3 = pulse_phases
    ramp = geometry.k_eff * gravity * geometry.projection - 2.0 * math.pi * sweep_rate
    return order * (ramp * interrogation_time**2 - (p1 - 2.0 * p2 + p3))


def resonant_sweep_rate(gravity: float, geometry: BeamGeometry) -> float:
    """Sweep rate alpha_0 = k_eff g cos(tilt) / 2 pi (Hz/s) cancelling gravity."""
    check("gravity", gravity, NonNegative)
    return geometry.k_eff * gravity * geometry.projection / (2.0 * math.pi)


def gravity_from_sweep(sweep_rate: float, geometry: BeamGeometry) -> float:
    """Invert the resonance condition: g = 2 pi alpha_0 / (k_eff cos(tilt))."""
    check("sweep_rate", sweep_rate, NonNegative)
    return 2.0 * math.pi * sweep_rate / (geometry.k_eff * geometry.projection)


def bragg_resonance(order: int, species: AtomSpecies) -> float:
    """Beam frequency difference 4 n omega_r (rad/s) coupling |0> and |2n hbar k>.

    Follows from kinetic-energy conservation for an n-th order (2n-photon)
    transition starting at rest.
    """
    check("order", order, Range(1))
    return 4.0 * order * species.recoil_frequency


def coherence_length(species: AtomSpecies, temperature: float) -> float:
    """Thermal coherence length hbar sqrt(2 pi) / sqrt(m k_B T) (m)."""
    check("temperature", temperature, Positive)
    return HBAR * math.sqrt(2.0 * math.pi) / math.sqrt(
        species.mass * BOLTZMANN * temperature
    )


def path_length_increment(species: AtomSpecies, interrogation_time: float) -> float:
    """Quantum of path-length difference l = 2 hbar k T / m (m).

    Momentum kicks come in units of 2 hbar k, so path-length differences
    between interferometer arms are multiples of this.
    """
    check("interrogation_time", interrogation_time, NonNegative)
    return 2.0 * HBAR * species.wavevector * interrogation_time / species.mass


def revival_period(species: AtomSpecies) -> float:
    """Contrast revival period delta_T = pi m / (2 hbar k^2) (s).

    At integer multiples of delta_T all trajectories within a multi-path
    interferometer class acquire the same phase modulo 2 pi.
    """
    k = species.wavevector
    return math.pi * species.mass / (2.0 * HBAR * k * k)


def path_phase(
    class_index: int, first_half_steps: int, interrogation_time: float,
    species: AtomSpecies,
) -> float:
    """Phase of one trajectory in class j: (4 hbar k^2 T / m)(j^2/2 + a^2 - a j).

    ``first_half_steps`` is the integer a with arm momenta 2a*hbar*k then
    2(j-a)*hbar*k over the two halves. Symmetric under a <-> j - a.
    """
    check("interrogation_time", interrogation_time, NonNegative)
    j, a = class_index, first_half_steps
    k = species.wavevector
    scale = 4.0 * HBAR * k * k * interrogation_time / species.mass
    return scale * (j * j / 2.0 + a * a - a * j)


def propagation_phase(
    k1: float, z1: float, k2: float, z2: float, interrogation_time: float,
    species: AtomSpecies,
) -> float:
    """Propagation phase along one arm: k1 z1 + k2 z2 - (omega_1 + omega_2) T,
    with omega_i = hbar k_i^2 / 2m.

    With k_i quantized in units of 2k and z_i the free-flight distances this
    reduces to :func:`path_phase`.
    """
    w1 = HBAR * k1 * k1 / (2.0 * species.mass)
    w2 = HBAR * k2 * k2 / (2.0 * species.mass)
    return k1 * z1 + k2 * z2 - (w1 + w2) * interrogation_time
