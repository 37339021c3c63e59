"""Models that only the tests use: an M2-like tide and the mean momentum of
a ladder state, kept out of the package as ``free_flight`` is."""

import math

import numpy as np

from braggsim.constants import STANDARD_GRAVITY
from braggsim.environment import TideComponent, TideModel
from braggsim.ladder import MomentumLadderState


def demo_m2(mean_gravity: float = STANDARD_GRAVITY,
            amplitude: float = 1.0e-6) -> TideModel:
    """Single M2-like component: 12.42 h period, ~1 umps^2 swing."""
    omega = 2.0 * math.pi / (12.42 * 3600.0)
    return TideModel(mean_gravity=mean_gravity,
                     components=(TideComponent(amplitude, omega),))


def mean_momentum(state: MomentumLadderState) -> float:
    """Ensemble mean momentum (units of hbar*k) in the current frame."""
    p = 2.0 * state.sites + state.quasimomentum
    return float(np.sum(np.abs(state.amplitudes) ** 2 * p))
