"""Bloch-oscillation velocity selection (BVS).

A standing-wave lattice is ramped up adiabatically on the falling cloud,
then one beam is swept in frequency so the lattice accelerates at a set
acceleration for as long as it takes to impart ``target_momentum`` photon
recoils; atoms in the first band follow it, while atoms outside the first
band are left behind. The lattice depth in recoil energies sets the
nearest-neighbour ladder coupling to depth * w_r / 4 (potential
depth*E_r*cos^2(kz)).

The three stages (linear depth ramp up, linear frequency sweep, linear ramp
down) are one ``ladder.drive`` call for any number of input states, so a
selection profile makes one solve per stage. The driver, which also runs
Bragg pulses, checks the norms, sizes the windows and checks edge leakage.
The lattice phase accumulated by the sweep is carried across stage
boundaries so the lattice never jumps in space. Momenta are in units of
hbar*k, as on the ladder.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Annotated

import numpy as np

from .bounds import Positive, Range, bounded, check
from .ladder import (
    DEFAULT_CONFIG,
    EvolutionConfig,
    MomentumLadderState,
    drive,
    plane_wave_state,
)
from .physics import AtomSpecies


@bounded
class LatticeRamp:
    """Lattice depth (units of E_r = hbar*w_r), stage durations and target.

    ``target_momentum`` is the imparted momentum in units of hbar*k and must
    be even (whole two-photon kicks). The lattice accelerates at
    ``acceleration``, which sets the sweep duration target*hbar*k/(m*a).
    """

    depth: Annotated[float, Positive] = 4.0
    load_duration: Annotated[float, Positive] = 100e-6
    acceleration: Annotated[float, Positive] = 30.0
    target_momentum: Annotated[int, Positive] = 8

    def __post_init__(self):
        if self.target_momentum % 2 != 0:
            raise ValueError(f"target_momentum must be even, got {self.target_momentum}")

    def resolved_sweep_duration(self, species: AtomSpecies) -> float:
        """Sweep time (s): target momentum over m*acceleration."""
        return self.target_momentum * species.recoil_velocity / self.acceleration


def bloch_accelerate(
    states: list[MomentumLadderState],
    ramp: LatticeRamp,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
) -> list[MomentumLadderState]:
    """Load, accelerate and release the lattice on states of one species;
    re-index each to the target.

    The stages reach target / 2 sites above the occupied ones. The returned
    states have site 0 relabelled to the target momentum (a Galilean boost;
    populations preserved); window-edge leakage is signalled as for pulses.
    """
    if not states:
        return []
    species = states[0].species
    if any(psi.species != species for psi in states):
        raise ValueError("bloch_accelerate takes states of one species")
    wr = species.recoil_frequency
    g_max = ramp.depth * wr / 4.0
    t_load = ramp.load_duration
    t_sweep = ramp.resolved_sweep_duration(species)
    delta_end = 4.0 * ramp.target_momentum * wr  # 2k * target velocity
    # the sweep leaves the lattice phase at delta_end*t_sweep/2; the release
    # continues it from there so the lattice never jumps in space
    phi_carry = 0.5 * delta_end * t_sweep
    stages = [
        # 1) adiabatic load: depth 0 -> full, lattice at rest
        (t_load, lambda t: g_max * (t / t_load), lambda t: 0.0),
        # 2) frequency sweep: delta ramps 0 -> delta_end at constant depth
        (t_sweep, lambda t: g_max, lambda t: 0.5 * delta_end * t * t / t_sweep),
        # 3) release: depth full -> 0, lattice coasting at delta_end
        (t_load, lambda t: g_max * (1.0 - t / t_load),
         lambda t: delta_end * t + phi_carry),
    ]
    target_site = ramp.target_momentum // 2
    out = drive(states, stages, (0, target_site), cfg)
    # the Galilean boost to the target frame: old site target_site is site 0
    return [replace(final, n_min=final.n_min - target_site) for final in out]


def selection_profile(
    species: AtomSpecies,
    ramp: LatticeRamp,
    momenta: np.ndarray,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Transfer efficiency into the target +-1 hbar*k window per input momentum.

    ``momenta`` are initial plane-wave momenta (units of hbar*k) within +-2;
    values beyond the first band start on ladder site +-1.
    """
    momenta = np.asarray(momenta, dtype=float)
    check("momenta", momenta, Range(-2 - 2e-12, 2 + 2e-12))
    states = [plane_wave_state(species, site=round(p / 2),
                               quasimomentum=p - 2 * round(p / 2)) for p in momenta]
    finals = bloch_accelerate(states, ramp, cfg)
    return np.array([final.population(0) for final in finals])
