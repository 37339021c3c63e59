"""Bloch velocity selection: band transport, selectivity and bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest

from braggsim import ladder
from braggsim.bloch import LatticeRamp, bloch_accelerate, selection_profile
from braggsim.ladder import EvolutionConfig, TruncationLeakError, plane_wave_state
from braggsim.physics import AtomSpecies
from reference_models import mean_momentum

RB = AtomSpecies.rubidium87()

RAMP = LatticeRamp()  # depth 4 E_r, 30 m/s^2, 8 hbar k


def accelerate_momentum(p_hk, ramp=RAMP):
    """Run a plane wave of momentum p (units hbar k) through the BVS stage."""
    site = round(p_hk / 2)
    q = p_hk - 2 * site
    return bloch_accelerate([plane_wave_state(RB, site=site, quasimomentum=q)],
                            ramp)[0]


class TestBlochAccelerate:
    def test_zero_depth_rejected(self):
        # a zero-depth lattice moves no atom to the target, so it is no ramp
        with pytest.raises(ValueError, match="depth must be > 0, got 0.0"):
            LatticeRamp(depth=0.0, target_momentum=8)

    def test_leakage_signalled(self):
        # a deep, fast lattice drives population out to the window edge
        cfg = EvolutionConfig(guard_sites=4)
        ramp = LatticeRamp(depth=200.0, load_duration=5e-6,   # a 20 us sweep
                           acceleration=2 * RB.recoil_velocity / 20e-6,
                           target_momentum=2)
        with pytest.raises(TruncationLeakError) as err:
            bloch_accelerate([plane_wave_state(RB)], ramp, cfg)
        assert err.value.leakage > err.value.bound

    def test_no_states_no_solve(self, monkeypatch):
        monkeypatch.setattr(ladder, "solve_ivp", None)
        assert bloch_accelerate([], RAMP) == []

    def test_mixed_species_rejected(self):
        # the lattice depth, sweep time and target are sized from one recoil
        heavy = dataclasses.replace(RB, mass=2 * RB.mass)
        with pytest.raises(ValueError, match="one species"):
            bloch_accelerate([plane_wave_state(RB), plane_wave_state(heavy)], RAMP)

    def test_first_band_center_transfer(self):
        out = accelerate_momentum(0.0)
        assert out.population(0) >= 0.95

    def test_out_of_band_left_behind(self):
        for p in (-2.0, -1.5, 1.5, 2.0):
            out = accelerate_momentum(p)
            assert out.population(0) < 0.1, f"p={p} hbar k"

    def test_unitarity_per_run(self):
        out = accelerate_momentum(0.4)
        assert abs(out.norm - 1.0) < 1e-9

    def test_momentum_bookkeeping(self):
        out = accelerate_momentum(0.0)
        # the re-indexing boosts site 0 to the target momentum
        gain_hk = mean_momentum(out) + RAMP.target_momentum
        assert gain_hk == pytest.approx(RAMP.target_momentum, rel=0.02)

    def test_adiabatic_limit_load_doubling(self):
        # deep in the adiabatic loading regime the transfer is converged
        slow = LatticeRamp(load_duration=300e-6)
        slower = LatticeRamp(load_duration=600e-6)
        p1 = bloch_accelerate([plane_wave_state(RB)], slow)[0].population(0)
        p2 = bloch_accelerate([plane_wave_state(RB)], slower)[0].population(0)
        assert abs(p2 - p1) < 1e-3

    def test_sweep_speed_convergence(self):
        halved = LatticeRamp(acceleration=RAMP.acceleration / 2)
        p_fast = bloch_accelerate([plane_wave_state(RB)], RAMP)[0].population(0)
        p_slow = bloch_accelerate([plane_wave_state(RB)], halved)[0].population(0)
        assert p_slow >= p_fast - 1e-3
        assert abs(p_slow - p_fast) < 0.02


@pytest.fixture(scope="module")
def profile():
    momenta = np.linspace(-2.0, 2.0, 21)
    return momenta, selection_profile(RB, RAMP, momenta)


class TestSelectionProfile:

    def test_symmetric_in_quasimomentum(self, profile):
        # q -> -q parity is exact for first-band input (site 0, |p| <= hbar k);
        # beyond the band edge the directional sweep breaks the symmetry
        # because +|p| and -|p| states meet different crossing sequences.
        momenta, eff = profile
        band = np.abs(momenta) <= 1 + 1e-9
        np.testing.assert_allclose(eff[band], eff[band][::-1], atol=1e-6)

    def test_band_edge_below_center(self, profile):
        momenta, eff = profile
        center = eff[10]                       # p = 0
        edges = eff[[5, 15]]                   # p = -+1 hbar k
        assert np.all(edges < center)

    def test_acceptance_fwhm_about_2hk(self, profile):
        momenta, eff = profile
        half = eff.max() / 2
        above = momenta[eff >= half]
        fwhm = above.max() - above.min()
        assert 1.5 <= fwhm <= 2.5

    def test_matches_lone_accelerations(self):
        # one batched solve per stage against each momentum on its own
        momenta = np.array([-2.0, -1.3, 0.0, 0.7, 2.0])
        lone = [accelerate_momentum(p).population(0) for p in momenta]
        np.testing.assert_allclose(selection_profile(RB, RAMP, momenta), lone,
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("points", [5, 21])
    def test_one_solve_per_stage(self, monkeypatch, points):
        real, solves = ladder.solve_ivp, []
        monkeypatch.setattr(ladder, "solve_ivp",
                            lambda *a, **k: solves.append(1) or real(*a, **k))
        selection_profile(RB, RAMP, np.linspace(-2.0, 2.0, points))
        assert len(solves) == 3

    def test_no_momenta_no_profile(self):
        assert selection_profile(RB, RAMP, []).shape == (0,)

    def test_momenta_outside_two_hk_rejected(self):
        with pytest.raises(ValueError):
            selection_profile(RB, RAMP, np.array([2.5]))

    def test_nan_momentum_rejected(self):
        # a NaN must fail the bound rather than reach the solver
        with pytest.raises(ValueError, match=r"within \+-2 hbar\*k"):
            selection_profile(RB, LatticeRamp(), [math.nan])


class TestLatticeRampValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            LatticeRamp(depth=-1.0)
        with pytest.raises(ValueError):
            LatticeRamp(load_duration=0.0)
        with pytest.raises(ValueError):
            LatticeRamp(target_momentum=7)    # odd
        with pytest.raises(ValueError):
            LatticeRamp(target_momentum=0)
        with pytest.raises(ValueError):
            LatticeRamp(acceleration=0.0)

    @pytest.mark.parametrize("field, value", [
        ("depth", math.nan), ("depth", math.inf),
        ("load_duration", math.nan), ("load_duration", math.inf),
        ("acceleration", math.nan), ("acceleration", math.inf),
    ], ids=["depth-nan", "depth-inf", "load_duration-nan", "load_duration-inf",
            "acceleration-nan", "acceleration-inf"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            LatticeRamp(**{field: value})
