"""Free evolution between pulses, kept in the tests as a reference that is
independent of the package's propagator code."""

from dataclasses import replace

import numpy as np

from braggsim.ladder import MomentumLadderState, kinetic_frequencies


def free_propagate(state: MomentumLadderState, duration: float) -> MomentumLadderState:
    """Diagonal kinetic evolution e^{-i E_n t / hbar} in the falling frame."""
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if duration == 0.0:
        return state
    kin = kinetic_frequencies(state.species, state.sites, state.quasimomentum)
    return replace(state, amplitudes=state.amplitudes * np.exp(-1j * kin * duration))
