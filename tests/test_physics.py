"""Closed-form physics: frozen oracle values and algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braggsim.physics import (
    AtomSpecies,
    BeamGeometry,
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

# Independent oracle constants (CODATA 2018), deliberately restated here so
# the tests do not share a source with the package.
HBAR = 1.054571817e-34
KB = 1.380649e-23
M_RB87 = 86.90918053 * 1.660539066e-27
LAMBDA = 780.24e-9
K = 2.0 * math.pi / LAMBDA

RB = AtomSpecies.rubidium87()
GEOM = BeamGeometry.vertical(RB)


class TestRecoilFrequency:
    def test_rb87_value(self):
        # direct evaluation of hbar k^2 / 2m
        expected = HBAR * K * K / (2.0 * M_RB87)
        assert RB.recoil_frequency == pytest.approx(expected, rel=1e-12)
        assert RB.recoil_frequency / (2 * math.pi) == pytest.approx(3771.0, rel=1e-4)

    def test_mass_scaling(self):
        heavy = AtomSpecies(mass=2 * RB.mass, wavelength=RB.wavelength)
        assert heavy.recoil_frequency == pytest.approx(RB.recoil_frequency / 2)

    def test_wavelength_scaling(self):
        red = AtomSpecies(mass=RB.mass, wavelength=2 * RB.wavelength)
        assert red.recoil_frequency == pytest.approx(RB.recoil_frequency / 4)


class TestMziPhase:
    def test_resonant_sweep_gives_zero(self):
        alpha0 = resonant_sweep_rate(9.81, GEOM)
        for n in (1, 2, 3):
            for T in (0.01, 0.04, 0.1):
                assert abs(mzi_phase(n, T, GEOM, gravity=9.81,
                                     sweep_rate=alpha0)) < 1e-6

    def test_direct_value(self):
        # n=2, g=9.81, alpha=0, T=60 ms: Phi = 2 * (2k * 9.81) * T^2
        phi = mzi_phase(2, 0.06, GEOM, gravity=9.81)
        expected = 2 * (2 * K * 9.81) * 0.06**2
        assert phi == pytest.approx(expected, rel=1e-12)
        assert phi == pytest.approx(1.138e6, rel=1e-3)

    def test_linearity_in_sweep_offset(self):
        alpha0 = resonant_sweep_rate(9.81, GEOM)
        expected = -2 * 2 * math.pi * 1.0 * 0.06**2
        assert mzi_phase(2, 0.06, GEOM, gravity=9.81,
                         sweep_rate=alpha0 + 1.0) == pytest.approx(expected, abs=1e-9)

    def test_order_and_time_scaling(self):
        base = mzi_phase(1, 0.03, GEOM, gravity=9.81)
        assert mzi_phase(2, 0.03, GEOM, gravity=9.81) == pytest.approx(2 * base)
        assert mzi_phase(1, 0.06, GEOM, gravity=9.81) == pytest.approx(4 * base)


class TestSweepRateGravityPair:
    def test_rb_value(self):
        alpha0 = resonant_sweep_rate(9.81, GEOM)
        assert alpha0 == pytest.approx(25.1e6, rel=5e-3)

    def test_zero(self):
        assert resonant_sweep_rate(0.0, GEOM) == 0.0
        assert gravity_from_sweep(0.0, GEOM) == 0.0

    def test_round_trip(self):
        for g in (0.1, 1.0, 9.81, 42.0):
            back = gravity_from_sweep(resonant_sweep_rate(g, GEOM), GEOM)
            assert abs(back - g) / g < 1e-12

    def test_inverse_example(self):
        assert gravity_from_sweep(25.1e6, GEOM) == pytest.approx(9.79, abs=0.01)

    def test_tilted_round_trip(self):
        geom = BeamGeometry.vertical(RB, tilt_angle=0.3)
        back = gravity_from_sweep(resonant_sweep_rate(9.81, geom), geom)
        assert back == pytest.approx(9.81, rel=1e-12)

    def test_degenerate_tilt_rejected(self):
        with pytest.raises(ValueError):
            BeamGeometry(k_eff=2 * K, tilt_angle=math.pi / 2)


class TestBraggResonance:
    def test_first_order(self):
        assert bragg_resonance(1, RB) / (2 * math.pi) == pytest.approx(15.1e3, rel=2e-3)

    def test_second_order(self):
        assert bragg_resonance(2, RB) / (2 * math.pi) == pytest.approx(30.2e3, rel=2e-3)

    def test_proportionality(self):
        for n in (1, 2, 5):
            assert bragg_resonance(2 * n, RB) == pytest.approx(2 * bragg_resonance(n, RB))


class TestAnalyticLengthsAndTimes:
    def test_coherence_length_value(self):
        # direct evaluation: hbar sqrt(2 pi) / sqrt(m kB T) at 1 uK
        expected = HBAR * math.sqrt(2 * math.pi) / math.sqrt(M_RB87 * KB * 1e-6)
        got = coherence_length(RB, 1e-6)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(187e-9, rel=5e-3)
        assert got == pytest.approx(190e-9, rel=0.05)

    def test_coherence_temperature_scaling(self):
        assert coherence_length(RB, 4e-6) == pytest.approx(
            coherence_length(RB, 1e-6) / 2
        )

    def test_path_length_increment(self):
        expected = 2 * HBAR * K * 0.04 / M_RB87
        got = path_length_increment(RB, 0.04)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(470e-6, rel=5e-3)
        assert got == pytest.approx(500e-6, rel=0.10)
        assert path_length_increment(RB, 0.0) == 0.0

    def test_revival_period(self):
        expected = math.pi * M_RB87 / (2 * HBAR * K * K)
        got = revival_period(RB)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(33.1e-6, rel=2e-3)
        # algebraic identity: delta_T * 4 omega_r = pi
        assert got * 4 * RB.recoil_frequency == pytest.approx(math.pi, rel=1e-12)


class TestPathPhase:
    def test_zero(self):
        assert path_phase(0, 0, 0.04, RB) == 0.0

    @given(st.integers(-10, 10), st.integers(-10, 10))
    def test_symmetry(self, j, a):
        T = 0.01
        assert path_phase(j, a, T, RB) == pytest.approx(
            path_phase(j, j - a, T, RB), rel=1e-12, abs=1e-18
        )

    def test_congruence_at_revival(self):
        dT = revival_period(RB)
        for q in (1, 2, 3):
            T = q * dT
            for j in range(-10, 11):
                phases = [path_phase(j, a, T, RB) for a in range(-10, 11)]
                ref = phases[0]
                for p in phases[1:]:
                    r = (p - ref) / (2 * math.pi)
                    assert abs(r - round(r)) * 2 * math.pi < 1e-9

    def test_congruence_splitting_at_half_revival(self):
        # At T = dT/2 the per-trajectory phase is pi*(j^2/2 + a(a-j)).
        # a(a-j) is even for all a when j is odd, so odd classes rephase
        # already at the half period; even classes split into two groups.
        T = 0.5 * revival_period(RB)

        def residues(j):
            phases = [path_phase(j, a, T, RB) for a in range(-10, 11)]
            return {round(((p - phases[0]) / math.pi) % 2.0, 6) % 2.0
                    for p in phases}

        assert len(residues(2)) == 2
        assert len(residues(3)) == 1


class TestPropagationPhase:
    def test_all_zero(self):
        assert propagation_phase(0, 0, 0, 0, 0.1, RB) == 0.0

    def test_reduces_to_path_phase(self):
        T = 0.02
        for j in range(-4, 5):
            for a in range(-5, 6):
                b = j - a
                k1, k2 = 2 * a * K, 2 * b * K
                z1 = HBAR * k1 * T / M_RB87
                z2 = HBAR * k2 * T / M_RB87
                got = propagation_phase(k1, z1, k2, z2, T, RB)
                assert got == pytest.approx(path_phase(j, a, T, RB), rel=1e-10,
                                            abs=1e-12)

    def test_linear_in_time(self):
        k1, k2 = 2 * K, 4 * K
        def ph(T):
            return propagation_phase(k1, HBAR * k1 * T / M_RB87,
                                     k2, HBAR * k2 * T / M_RB87, T, RB)
        assert ph(0.04) == pytest.approx(2 * ph(0.02), rel=1e-12)


class TestValidation:
    def test_species_invariants(self):
        with pytest.raises(ValueError):
            AtomSpecies(mass=-1.0, wavelength=780e-9)
        with pytest.raises(ValueError):
            AtomSpecies(mass=M_RB87, wavelength=0.0)

    @pytest.mark.parametrize("field, value", [
        ("mass", math.nan), ("mass", math.inf),
        ("wavelength", math.nan), ("wavelength", math.inf),
    ], ids=["mass-nan", "mass-inf", "wavelength-nan", "wavelength-inf"])
    def test_species_rejects_non_finite(self, field, value):
        kwargs = {"mass": M_RB87, "wavelength": LAMBDA, field: value}
        with pytest.raises(ValueError, match=field):
            AtomSpecies(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("k_eff", math.nan), ("k_eff", math.inf), ("tilt_angle", math.nan),
    ], ids=["k_eff-nan", "k_eff-inf", "tilt_angle-nan"])
    def test_geometry_rejects_non_finite(self, field, value):
        kwargs = {"k_eff": 1.6e7, field: value}
        with pytest.raises(ValueError, match=field):
            BeamGeometry(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("order", math.nan),
        ("interrogation_time", math.nan), ("interrogation_time", math.inf),
    ], ids=["order-nan", "interrogation_time-nan", "interrogation_time-inf"])
    def test_params_reject_non_finite(self, field, value):
        # mzi_phase's order and interrogation time
        kwargs = {"order": 1, "interrogation_time": 0.04, field: value}
        with pytest.raises(ValueError, match=field):
            mzi_phase(geometry=GEOM, **kwargs)

    def test_params_invariants(self):
        with pytest.raises(ValueError, match="order"):
            mzi_phase(0, 0.04, GEOM)
        with pytest.raises(ValueError, match="interrogation_time"):
            mzi_phase(1, 0.0, GEOM)

    def test_laser_phase_combination(self):
        # Phi moves by -n (phi1 - 2 phi2 + phi3), not scaled by T^2
        for n, T in ((1, 0.04), (3, 0.1)):
            phi = mzi_phase(n, T, GEOM, gravity=9.81, pulse_phases=(0.1, 0.2, 0.7))
            assert phi - mzi_phase(n, T, GEOM, gravity=9.81) == pytest.approx(
                -n * (0.1 - 0.4 + 0.7), rel=1e-6)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            resonant_sweep_rate(-1.0, GEOM)
        with pytest.raises(ValueError):
            gravity_from_sweep(-1.0, GEOM)
        with pytest.raises(ValueError):
            coherence_length(RB, 0.0)
        with pytest.raises(ValueError):
            bragg_resonance(0, RB)

    def test_temperature_whose_thermal_energy_underflows_rejected(self):
        # 5e-324 K is positive, but m k_B T underflows to 0, which once
        # divided by zero
        with pytest.raises(ValueError,
                           match="^temperature times m k_B must be > 0, got 0.0$"):
            coherence_length(RB, 5e-324)

    @pytest.mark.parametrize("call, argument", [
        (lambda: resonant_sweep_rate(math.nan, GEOM), "gravity"),
        (lambda: gravity_from_sweep(math.nan, GEOM), "sweep_rate"),
        (lambda: bragg_resonance(math.nan, RB), "order"),
        (lambda: coherence_length(RB, math.nan), "temperature"),
        (lambda: path_length_increment(RB, math.nan), "interrogation_time"),
        (lambda: path_phase(2, 1, math.nan, RB), "interrogation_time"),
    ], ids=["resonant_sweep_rate-gravity", "gravity_from_sweep-sweep_rate",
            "bragg_resonance-order", "coherence_length-temperature",
            "path_length_increment-interrogation_time",
            "path_phase-interrogation_time"])
    def test_nan_argument_rejected(self, call, argument):
        with pytest.raises(ValueError, match=f"{argument} must be"):
            call()
