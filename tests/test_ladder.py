"""Ladder dynamics against analytic oracles and unitarity contracts."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erf, jv

from braggsim import ladder
from braggsim.ladder import (
    CalibrationError,
    EvolutionConfig,
    MomentumLadderState,
    PulseSpec,
    TruncationLeakError,
    apply_pulse,
    calibrate_pulse_amplitude,
    kinetic_frequencies,
    plane_wave_state,
    pulse_propagator,
)
from braggsim.physics import AtomSpecies, bragg_resonance
from braggsim.sequence import prepare_sequence

from free_flight import free_propagate
from reference_models import mean_momentum

RB = AtomSpecies.rubidium87()

# truncated-Gaussian pulse area correction for a +-3 sigma window
TRUNC = erf(3.0 / math.sqrt(2.0))


def gaussian_area(omega0, sigma):
    return omega0 * sigma * math.sqrt(2.0 * math.pi) * TRUNC


def deep_bragg_pulse(area, sigma=200e-6, order=1):
    omega0 = area / (sigma * math.sqrt(2.0 * math.pi) * TRUNC)
    return PulseSpec(rabi_peak=omega0, sigma=sigma, detuning=bragg_resonance(order, RB))


@pytest.fixture
def cold_lobes():
    """A cold first-lobe memo, cleared again afterwards so that a lobe found
    through a monkeypatched transfer outlives no test."""
    ladder._first_lobe.cache_clear()
    yield
    ladder._first_lobe.cache_clear()


class TestFreePropagation:
    def test_zero_duration_identity(self):
        psi = plane_wave_state(RB, site=0)
        out = free_propagate(psi, 0.0)
        assert out is psi

    def test_populations_invariant(self):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=9) + 1j * rng.normal(size=9)
        amps /= np.linalg.norm(amps)
        psi = MomentumLadderState(species=RB, amplitudes=amps, n_min=-4,
                                  quasimomentum=0.3)
        out = free_propagate(psi, 1.7e-3)
        np.testing.assert_allclose(np.abs(out.amplitudes) ** 2,
                                   np.abs(psi.amplitudes) ** 2, atol=1e-15)

    def test_single_site_phase(self):
        q = 0.25
        for n in (-2, 0, 3):
            psi = plane_wave_state(RB, site=n, quasimomentum=q)
            T = 0.8e-3
            out = free_propagate(psi, T)
            expected = -4.0 * RB.recoil_frequency * (n + 0.125) ** 2 * T
            got = np.angle(out.amplitudes[out.sites.tolist().index(n)])
            diff = (got - expected) % (2 * math.pi)
            assert min(diff, 2 * math.pi - diff) < 1e-9


class TestZeroAmplitudePulse:
    def test_matches_free_propagation(self):
        pulse = PulseSpec(rabi_peak=0.0, sigma=15e-6, detuning=bragg_resonance(2, RB))
        psi = plane_wave_state(RB, site=0)
        pulsed = apply_pulse(psi, pulse)
        free = free_propagate(psi.expanded(pulsed.n_min, pulsed.n_max),
                              pulse.total_duration)
        np.testing.assert_allclose(pulsed.amplitudes, free.amplitudes, atol=1e-12)


class TestTwoLevelOracle:
    """Deep-Bragg first order: the ladder reduces to resonant Rabi flopping."""

    def test_pi_pulse_transfer(self):
        out = apply_pulse(plane_wave_state(RB), deep_bragg_pulse(math.pi))
        assert out.population(1) >= 0.99

    def test_area_sweep_matches_analytic(self):
        for x in (0.25, 0.5, 0.75, 1.0, 1.25):
            area = x * math.pi
            out = apply_pulse(plane_wave_state(RB), deep_bragg_pulse(area))
            expected = math.sin(area / 2.0) ** 2
            assert out.population(1) == pytest.approx(expected, abs=0.01), (
                f"area {x} pi: {out.population(1)} vs {expected}"
            )


class TestRamanNathOracle:
    """sigma -> 0 at fixed area: populations follow Bessel functions."""

    @pytest.mark.parametrize("area", [0.5, 1.0, 1.5, 2.0])
    def test_bessel_populations(self, area):
        sigma = 10e-9
        omega0 = area / (sigma * math.sqrt(2.0 * math.pi) * TRUNC)
        pulse = PulseSpec(rabi_peak=omega0, sigma=sigma, detuning=0.0)
        # sites +-10: the order-1 reach plus 9 guard sites
        out = apply_pulse(plane_wave_state(RB), pulse,
                          EvolutionConfig(guard_sites=9))
        for m in range(-4, 5):
            assert out.population(m) == pytest.approx(jv(m, area) ** 2, abs=1e-3)


class TestUnitarityAndTruncation:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_resonant_pulse_window_reaches_order_plus_guard(self, order):
        # the window follows the detuning: bragg_resonance(n) targets order n
        pulse = PulseSpec(rabi_peak=0.0, sigma=15e-6,
                          detuning=bragg_resonance(order, RB))
        out = apply_pulse(plane_wave_state(RB), pulse)
        reach = order + EvolutionConfig().guard_sites
        assert (out.n_min, out.n_max) == (-reach, reach)

    def test_negative_order_pulse_mirrors_positive_order(self):
        # -bragg_resonance(8) drives |0> -> |-8>: the same +-(8 + 6) window
        # as its mirror image, and mirrored populations
        up = apply_pulse(plane_wave_state(RB),
                         PulseSpec(2e6, 2e-6, detuning=bragg_resonance(8, RB)))
        down = apply_pulse(plane_wave_state(RB),
                           PulseSpec(2e6, 2e-6, detuning=-bragg_resonance(8, RB)))
        assert (down.n_min, down.n_max) == (up.n_min, up.n_max) == (-14, 14)
        for n in up.sites:
            assert down.population(-n) == pytest.approx(up.population(n), abs=1e-9)

    def test_norm_drift_below_1e9(self):
        pulse = PulseSpec(rabi_peak=1.2e5, sigma=15e-6, detuning=bragg_resonance(2, RB))
        for qt in (0.0, -0.37, 0.61):
            out = apply_pulse(plane_wave_state(RB, quasimomentum=qt), pulse)
            assert abs(out.norm - 1.0) < 1e-9

    def test_guard_site_convergence(self):
        pulse = PulseSpec(rabi_peak=1.2e5, sigma=15e-6, detuning=bragg_resonance(2, RB))
        psi = plane_wave_state(RB)
        base = apply_pulse(psi, pulse, EvolutionConfig(guard_sites=6))
        wide = apply_pulse(psi, pulse, EvolutionConfig(guard_sites=10))
        for n in range(-4, 7):
            assert abs(base.population(n) - wide.population(n)) < 1e-6

    def test_leakage_signalled(self):
        # strong Raman-Nath kick into a minimal window populates the edges
        sigma = 10e-9
        omega0 = 8.0 / (sigma * math.sqrt(2.0 * math.pi))
        pulse = PulseSpec(rabi_peak=omega0, sigma=sigma, detuning=0.0)
        cfg = EvolutionConfig(guard_sites=4)
        with pytest.raises(TruncationLeakError) as exc:
            apply_pulse(plane_wave_state(RB), pulse, cfg)
        assert exc.value.leakage > 1e-4

    def test_8sigma_window_cross_check(self):
        # tail clipping at 6 sigma contributes < 1e-4 transfer error: the
        # same resonant pulse as one 8 sigma stage centred at 4 sigma
        base = deep_bragg_pulse(math.pi)
        s, half, delta = base.sigma, 0.5 * base.rabi_peak, bragg_resonance(1, RB)
        longer = (8 * s, lambda t: half * math.exp(-((t - 4 * s) ** 2) / (2 * s * s)),
                  lambda t: delta * t)
        p6 = apply_pulse(plane_wave_state(RB), base).population(1)
        p8 = ladder.drive([plane_wave_state(RB)], [longer], (1, 1))[0].population(1)
        assert abs(p6 - p8) < 1e-4


class TestPhaseImprinting:
    def test_transfer_amplitude_picks_up_minus_n_phi(self):
        dphi = 0.7318
        base = PulseSpec(rabi_peak=9e4, sigma=15e-6, detuning=bragg_resonance(2, RB))
        shifted = PulseSpec(rabi_peak=9e4, sigma=15e-6, detuning=bragg_resonance(2, RB),
                            laser_phase=dphi)
        out0 = apply_pulse(plane_wave_state(RB), base)
        out1 = apply_pulse(plane_wave_state(RB), shifted)
        # two independent adaptive solves: the amplitude ratio inherits the
        # integrator error scaled by 1/|a0|, so gate on occupied sites
        for n in range(-3, 6):
            a0 = out0.amplitudes[n - out0.n_min]
            a1 = out1.amplitudes[n - out1.n_min]
            if abs(a0) > 1e-3:
                ratio = a1 / a0
                assert ratio == pytest.approx(np.exp(-1j * n * dphi), abs=1e-7)


class TestPropagatorConsistency:
    def test_matrix_matches_state_path(self):
        pulse = PulseSpec(rabi_peak=1.1e5, sigma=15e-6, detuning=bragg_resonance(2, RB))
        q = 0.23
        psi = plane_wave_state(RB, quasimomentum=q)
        out = apply_pulse(psi, pulse)
        U = pulse_propagator(RB, pulse, (out.n_min, out.n_max), q)
        via_matrix = U @ psi.expanded(out.n_min, out.n_max).amplitudes
        np.testing.assert_allclose(via_matrix, out.amplitudes, atol=5e-10)

    def test_batched_propagators(self):
        pulse = PulseSpec(rabi_peak=1.1e5, sigma=15e-6, detuning=bragg_resonance(2, RB))
        qs = np.array([-0.4, 0.0, 0.55])
        Us = pulse_propagator(RB, pulse, (-8, 8), qs)
        assert Us.shape == (3, 17, 17)
        for q, U in zip(qs, Us):
            single = pulse_propagator(RB, pulse, (-8, 8), float(q))
            np.testing.assert_allclose(U, single, atol=1e-9)

    def test_phase_conjugation_equals_phased_pulse(self):
        phi = -1.234
        base = PulseSpec(rabi_peak=1.1e5, sigma=15e-6, detuning=bragg_resonance(2, RB))
        phased = PulseSpec(rabi_peak=1.1e5, sigma=15e-6,
                           detuning=bragg_resonance(2, RB),
                           laser_phase=phi)
        psi = plane_wave_state(RB)
        out = apply_pulse(psi, phased)
        sites = np.arange(out.n_min, out.n_max + 1)
        U0 = pulse_propagator(RB, base, (out.n_min, out.n_max), 0.0)
        # U(phi) = D U D*, D = diag(e^{-i n phi})
        d = np.exp(-1j * sites * phi)
        via = d * (U0 @ (np.conj(d) * psi.expanded(out.n_min, out.n_max).amplitudes))
        np.testing.assert_allclose(via, out.amplitudes, atol=5e-10)

    def test_propagator_honours_laser_phase(self):
        phi = 0.917
        base = PulseSpec(rabi_peak=1.1e5, sigma=15e-6, detuning=bragg_resonance(2, RB))
        phased = dataclasses.replace(base, laser_phase=phi)
        qs = np.array([-0.3, 0.2])
        U0 = pulse_propagator(RB, base, (-8, 8), qs)
        U = pulse_propagator(RB, phased, (-8, 8), qs)
        # U(phi) = D U(0) D*, D = diag(e^{-i n phi})
        d = np.exp(-1j * np.arange(-8, 9) * phi)
        np.testing.assert_allclose(U, d[:, None] * U0 * np.conj(d), atol=5e-10)
        assert np.abs(U - U0).max() > 0.1

    @staticmethod
    def direct_stack(pulse, reach, qs):
        # one column per quasimomentum, the path a stack of <= 49 takes: the
        # first half at chirp r and at -r, G(t_c)* applied, then transposed
        # and multiplied, and G(6 sigma) G(0) put back
        sites = np.arange(-reach, reach + 1)
        dur, coupling, theta = ladder._pulse_stage(pulse)
        halves = []
        for chirp in (pulse.chirp, -pulse.chirp):
            th = ladder._pulse_stage(dataclasses.replace(pulse, chirp=chirp))[2]
            half = ladder._evolve(kinetic_frequencies(RB, sites, qs),
                                  np.eye(len(sites), dtype=complex), dur / 2.0,
                                  coupling, th, EvolutionConfig(), max_step=dur / 12.0)
            halves.append(half * np.exp(1j * sites * th(dur / 2.0))[:, None])
        U = np.einsum("...ki,...kj->...ij", halves[1], halves[0])
        return U * np.exp(-1j * sites * (theta(dur) + theta(0.0)))[:, None]

    @staticmethod
    def full_stack(pulse, reach, qs, cfg=EvolutionConfig()):
        # the whole pulse in one solve
        sites = np.arange(-reach, reach + 1)
        return ladder._evolve(kinetic_frequencies(RB, sites, qs),
                              np.eye(len(sites), dtype=complex),
                              *ladder._pulse_stage(pulse), cfg)

    @staticmethod
    def counted_evolve(monkeypatch):
        # the number of propagator columns of each _evolve call; a warm node
        # memo would skip the node solves
        ladder._node_series.cache_clear()
        real, columns = ladder._evolve, []
        monkeypatch.setattr(ladder, "_evolve", lambda kin, *a, **k: columns.append(
            kin.shape[0] if kin.ndim > 1 else 1) or real(kin, *a, **k))
        return columns

    @staticmethod
    def drawn(samples):
        # the band edges and a uniform draw across the first band
        rng = np.random.default_rng(samples)
        return np.r_[-1.0, 1.0, rng.uniform(-1.0, 1.0, samples - 2)]

    # (order, sigma, Omega_0 near the pi/2 or pi amplitude, chirp Hz/s,
    # detuning offset rad/s, samples, columns of each _evolve call): a
    # 128-sample sigma = 5 us stack is one half solve of 25 columns, two if
    # the pulse is chirped
    NODE_CASES = [
        (1, 5e-6, 1.825e5, 0.0, 0.0, 64, [25]),
        (2, 5e-6, 2.819e5, 2000.0, 0.0, 128, [25, 25]),
        (2, 5e-6, 6.103e5, 0.0, 2 * math.pi * 2e3, 200, [25]),
        (3, 5e-6, 5.112e5, -2000.0, 0.0, 128, [25, 25]),
        (2, 15e-6, 1.951e5, -2000.0, 2 * math.pi * 2e3, 64, [25, 25, 24, 24]),
        (1, 30e-6, 4.221e4, 2000.0, 0.0, 64, [25, 25, 24, 24]),
    ]

    @pytest.mark.parametrize("order, sigma, rabi, chirp, offset, samples, rounds",
                             NODE_CASES, ids=[f"order{c[0]}-{c[1] * 1e6:.0f}us-{c[5]}"
                                              for c in NODE_CASES])
    def test_node_stack_matches_direct_stack(self, monkeypatch, order, sigma, rabi,
                                             chirp, offset, samples, rounds):
        pulse = PulseSpec(rabi, sigma, detuning=bragg_resonance(order, RB) + offset,
                          chirp=chirp)
        reach, qs = order + 6, self.drawn(samples)
        columns = self.counted_evolve(monkeypatch)
        U = pulse_propagator(RB, pulse, (-reach, reach), qs)
        assert columns == rounds
        np.testing.assert_allclose(U, self.direct_stack(pulse, reach, qs),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("sigma, rabi, reach, samples, rounds",
                             [(5e-6, 2.819e5, 8, 49, [49]),
                              (30e-6, 1.21e5, 5, 50, [25, 24, 50])],
                             ids=["49-samples", "49-nodes-fail"])
    def test_direct_stack_is_bit_identical(self, monkeypatch, sigma, rabi, reach,
                                           samples, rounds):
        # order 2 at sigma = 30 us needs more than 49 nodes (a tail of ~4e-8
        # on +-8 sites); +-5 sites keep the three solves cheap
        pulse = PulseSpec(rabi, sigma, detuning=bragg_resonance(2, RB))
        qs = self.drawn(samples)
        columns = self.counted_evolve(monkeypatch)
        U = pulse_propagator(RB, pulse, (-reach, reach), qs)
        assert columns == rounds
        assert np.array_equal(U, self.direct_stack(pulse, reach, qs))

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [5e-6, 15e-6, 30e-6])
    def test_half_built_pulse_matches_full_pulse(self, monkeypatch, order, sigma):
        # U = G(6 sigma) U_b1(-r)^T U_b1(r) G(0)*: one half solve per
        # unchirped pulse, two per chirped one, against one whole-pulse solve
        qs = np.array([-1.0, -0.3, 0.45])
        columns = self.counted_evolve(monkeypatch)
        for chirp in (0.0, 2e3, -2e3, 2.5e5, -2.5e5):
            pulse = PulseSpec(order * math.pi / (sigma * math.sqrt(2 * math.pi)), sigma,
                              detuning=bragg_resonance(order, RB), laser_phase=0.7,
                              chirp=chirp)
            columns.clear()
            U = pulse_propagator(RB, pulse, (-order - 6, order + 6), qs)
            assert columns == ([3] if chirp == 0.0 else [3, 3])
            np.testing.assert_allclose(U, self.full_stack(pulse, order + 6, qs),
                                       rtol=0, atol=1e-10)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [5e-6, 15e-6, 30e-6])
    def test_unchirped_pulse_is_symmetric_in_the_lattice_frame(self, order, sigma):
        # the premise: H_b = K - n delta + g(t) (R + R^dagger) is real and even
        # about the pulse centre, so U_b = G(6 sigma)* U G(0) equals its
        # transpose; a chirp breaks the evenness
        sites, qs = np.arange(-order - 6, order + 7), np.array([-0.3, 0.45])
        for chirp, symmetric in ((0.0, True), (2.5e5, False)):
            pulse = PulseSpec(order * math.pi / (sigma * math.sqrt(2 * math.pi)), sigma,
                              detuning=bragg_resonance(order, RB), laser_phase=0.7,
                              chirp=chirp)
            dur, _, theta = ladder._pulse_stage(pulse)
            U = self.full_stack(pulse, order + 6, qs)
            Ub = (np.exp(1j * sites * theta(dur))[:, None] * U
                  * np.exp(-1j * sites * theta(0.0)))
            asymmetry = np.abs(Ub - np.swapaxes(Ub, -1, -2)).max()
            assert (asymmetry <= 1e-10) == symmetric, asymmetry

    @pytest.mark.parametrize("q", [1.5, [0.1, 3.0], [0.1, math.nan]],
                             ids=["scalar", "outside", "nan"])
    def test_out_of_band_quasimomentum_rejected_before_a_solve(self, monkeypatch, q):
        pulse = PulseSpec(1.1e5, 15e-6, detuning=bragg_resonance(2, RB))
        columns = self.counted_evolve(monkeypatch)
        with pytest.raises(ValueError, match=r"^quasimomentum must (lie in|be finite)"):
            pulse_propagator(RB, pulse, (-8, 8), q)
        assert columns == []

    def test_empty_stack_without_a_solve(self, monkeypatch):
        # as selection_profile(..., []) has shape (0,)
        pulse = PulseSpec(1.1e5, 15e-6, detuning=bragg_resonance(2, RB))
        columns = self.counted_evolve(monkeypatch)
        assert pulse_propagator(RB, pulse, (-8, 8), np.array([])).shape == (0, 17, 17)
        assert columns == []

    def test_time_reversal_round_trip(self):
        pulse = PulseSpec(rabi_peak=1.3e5, sigma=15e-6, detuning=bragg_resonance(2, RB))
        U = pulse_propagator(RB, pulse, (-8, 8), 0.0)
        W = U.shape[0]
        assert np.abs(U.conj().T @ U - np.eye(W)).max() < 1e-9
        psi = np.zeros(W, complex)
        psi[8] = 1.0
        back = U.conj().T @ (U @ psi)
        assert np.abs(back - psi).max() < 1e-9


class TestCalibration:
    def test_first_order_pi_matches_pulse_area(self):
        sigma = 200e-6
        om = calibrate_pulse_amplitude(RB, target=1.0, order=1, sigma=sigma)
        assert om == pytest.approx(math.pi / (sigma * math.sqrt(2 * math.pi)),
                                   rel=0.05)

    def test_half_target_is_smaller(self):
        sigma = 200e-6
        om_half = calibrate_pulse_amplitude(RB, target=0.5, order=1, sigma=sigma)
        om_full = calibrate_pulse_amplitude(RB, target=1.0, order=1, sigma=sigma)
        assert om_half < om_full

    def test_half_target_transfer_accuracy(self):
        sigma = 200e-6
        om = calibrate_pulse_amplitude(RB, target=0.5, order=1, sigma=sigma)
        out = apply_pulse(plane_wave_state(RB),
                          PulseSpec(rabi_peak=om, sigma=sigma,
                                    detuning=bragg_resonance(1, RB)))
        assert out.population(1) == pytest.approx(0.5, abs=1e-4)

    def test_pi_twice_returns_home_in_deep_bragg(self):
        sigma = 200e-6
        om = calibrate_pulse_amplitude(RB, target=1.0, order=1, sigma=sigma)
        pulse = PulseSpec(rabi_peak=om, sigma=sigma, detuning=bragg_resonance(1, RB))
        out = apply_pulse(apply_pulse(plane_wave_state(RB), pulse), pulse)
        assert out.population(0) >= 0.96

    def test_pi_search_repeats_no_pi_half_solve(self, monkeypatch):
        # the pi search revisits every Rabi frequency of the pi/2 search, so
        # with the transfer memo a sequence costs one calibration's solves
        solves = []
        real = ladder.solve_ivp

        def counted(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ladder, "solve_ivp", counted)
        ladder._first_lobe.cache_clear()
        prepare_sequence(RB, order=1, interrogation_time=1e-3, pulse_sigma=5e-6)
        in_sequence = len(solves)
        ladder._first_lobe.cache_clear()
        solves.clear()
        calibrate_pulse_amplitude(RB, 0.5, 1, 5e-6)
        assert in_sequence == len(solves) > 0

    def test_batched_transfer_matches_apply_pulse(self):
        # one solve evolves a plane-wave column per Omega_0 across the first
        # lobe (peak near 6.1e5 rad/s); each row must match a lone pulse
        omegas = (1e5, 3e5, 5e5, 6.1e5, 8e5)
        batched = ladder._transfer(RB, 2, 5e-6, EvolutionConfig(), omegas)
        for om, p in zip(omegas, batched):
            out = apply_pulse(plane_wave_state(RB),
                              PulseSpec(rabi_peak=om, sigma=5e-6,
                                        detuning=bragg_resonance(2, RB)))
            assert p == pytest.approx(out.population(2), abs=1e-10)

    def test_batched_drive_matches_lone_drives(self):
        # states on different sites, spans, q and species share one solve;
        # each keeps its own window, padded at the top to the widest, and
        # must match a drive of it alone on that window
        pulse = PulseSpec(rabi_peak=3e5, sigma=5e-6, detuning=bragg_resonance(1, RB),
                          laser_phase=0.4)
        stages = [ladder._pulse_stage(pulse)]
        heavy = dataclasses.replace(RB, mass=2 * RB.mass)
        pair = MomentumLadderState(RB, np.array([1, 1j]) / math.sqrt(2), n_min=0,
                                   quasimomentum=0.1)
        states = [plane_wave_state(RB, site=-1, quasimomentum=0.3),
                  plane_wave_state(heavy, site=2, quasimomentum=-0.6), pair]
        batch = ladder.drive(states, stages, (0, 0))
        assert [(out.n_min, out.n_max) for out in batch] == [(-7, 6), (-4, 9), (-6, 7)]
        for psi, out in zip(states, batch):
            alone = ladder.drive([psi.expanded(out.n_min, out.n_max)], stages,
                                 (0, 0))[0]
            assert (alone.n_min, alone.n_max) == (out.n_min, out.n_max)
            np.testing.assert_allclose(out.amplitudes, alone.amplitudes,
                                       rtol=0, atol=1e-9)

    @pytest.mark.parametrize("order, sigma, guard, budget", [(2, 5e-6, 6, 3),
                                                             (3, 5e-6, 6, 3),
                                                             (1, 3e-6, 4, 4)],
                             ids=["order2-5us", "order3-5us", "leak-past-lobe"])
    def test_sequence_solve_budget(self, monkeypatch, order, sigma, guard, budget):
        # one seeded sweep batch and the proxy are one solve each, memoised as
        # the first lobe, which the pi search reuses: 3 with the pi/2 check; two
        # unseeded batches took 4, a zoom loop 15 and 9, the serial search 45
        # and 31. On the narrow window the seeded batch leaks past the lobe,
        # its lower half does not, and its first probe is already on the lobe,
        # so the probes below its start take one more batch; there the lobe peak
        # lies below 1/2, so pi/2 is the peak and needs no check
        real, solves = ladder.solve_ivp, []
        monkeypatch.setattr(ladder, "solve_ivp",
                            lambda *a, **k: solves.append(1) or real(*a, **k))
        ladder._first_lobe.cache_clear()
        prepare_sequence(RB, order=order, interrogation_time=2e-3, pulse_sigma=sigma,
                         cfg=EvolutionConfig(guard_sites=guard))
        assert len(solves) == budget

    @pytest.mark.parametrize("tol", [1e-10, 1e-5])
    def test_decisions_solve_at_search_accuracy(self, monkeypatch, cold_lobes, tol):
        # the sweep batch and the pi/2 check only pick a grid point, flag a
        # leak against LEAK_BOUND = 1e-4 or test the root against 1e-4, so
        # they solve at 1e-6 unless the config asks for looser; the proxy,
        # whose values reach the amplitudes, solves at the config's tolerance
        real, solves = ladder.solve_ivp, []
        monkeypatch.setattr(ladder, "solve_ivp", lambda *a, **k: solves.append(
            (len(a[3]), k["rtol"], k["atol"])) or real(*a, **k))
        cfg = EvolutionConfig(error_tolerance=tol)
        calibrate_pulse_amplitude(RB, 0.5, 2, 30e-6, cfg)
        search = max(tol, 1e-6)
        assert solves == [(9, 0.1 * search, 0.01 * search), (33, 0.1 * tol, 0.01 * tol),
                          (1, 0.1 * search, 0.01 * search)]

    # (order, sigma, guard_sites): pi/2 and pi amplitudes, bit for bit, of the
    # sweep that started at the grid's first point
    AMPLITUDES = {
        (1, 200e-6, 6): ("0x1.88bc9001488d3p+11", "0x1.88c8916b27726p+12"),
        (1, 5e-6, 6): ("0x1.6467947c0608bp+17", "0x1.6467947c0608bp+17"),
        (1, 30e-6, 6): ("0x1.47e15904042b6p+14", "0x1.49bc89e67511cp+15"),
        (2, 5e-6, 6): ("0x1.134f3ecf2f135p+18", "0x1.2a04535e0fa1fp+19"),
        (2, 15e-6, 6): ("0x1.c833c50aa2cabp+16", "0x1.7d1ca2de42581p+17"),
        (2, 30e-6, 6): ("0x1.3734de286058dp+16", "0x1.d88df62298f9fp+16"),
        (2, 80e-6, 6): ("0x1.7148a9d0835bbp+15", "0x1.0d8fe5cdb3851p+16"),
        (3, 5e-6, 6): ("0x1.856710fa899bfp+18", "0x1.f335c3c457866p+18"),
        (3, 15e-6, 6): ("0x1.dd614c7c5921ap+17", "0x1.551f29ed22095p+18"),
        (1, 3e-6, 4): ("0x1.0107060dd8b32p+18", "0x1.0107060dd8b32p+18"),
    }

    @pytest.mark.parametrize("order, sigma, guard", list(AMPLITUDES),
                             ids=lambda v: f"{v:g}")
    def test_amplitude_ledger(self, order, sigma, guard, cold_lobes):
        # a change to the sweep, the proxy or the kernel that moves an
        # amplitude by one bit shows here
        cfg = EvolutionConfig(guard_sites=guard)
        assert [calibrate_pulse_amplitude(RB, target, order, sigma, cfg).hex()
                for target in (0.5, 1.0)] == list(self.AMPLITUDES[order, sigma, guard])

    # (order, sigma): pi/2 and pi amplitudes of the zoom-loop calibrator
    ZOOM_AMPLITUDES = {
        (2, 30e-6): ("0x1.3734de2860ad3p+16", "0x1.d88e10c224fccp+16"),
        (2, 15e-6): ("0x1.c833c50aa37d6p+16", "0x1.7d1c8e7d3d823p+17"),
        (2, 5e-6): ("0x1.134f3ecf2fbe9p+18", "0x1.2a04753f5af56p+19"),
        (1, 200e-6): ("0x1.88bc900149338p+11", "0x1.88c8acb671b6fp+12"),
        (3, 5e-6): ("0x1.856710fa8a17dp+18", "0x1.f335ef9bf7ad7p+18"),
    }

    @pytest.mark.parametrize("order, sigma", list(ZOOM_AMPLITUDES),
                             ids=lambda v: f"{v:g}")
    def test_proxy_matches_the_zoom_calibration(self, order, sigma):
        # the pi/2 root agrees to roundoff; the pi amplitude is the proxy's
        # exact maximum, so its transfer is no lower than the zoom's, which
        # stopped at a width of 1e-4 Omega_0
        half, pi = (float.fromhex(h) for h in self.ZOOM_AMPLITUDES[order, sigma])
        assert calibrate_pulse_amplitude(RB, 0.5, order, sigma) == \
            pytest.approx(half, rel=1e-9)
        om = calibrate_pulse_amplitude(RB, 1.0, order, sigma)
        now, zoom = ladder._transfer(RB, order, sigma, EvolutionConfig(), (om, pi))
        assert now >= zoom - 1e-12

    def test_proxy_that_cannot_converge_raises_with_sweep(self, monkeypatch,
                                                          cold_lobes):
        # transfers noisy at 1e-6 leave a Chebyshev tail far above the 1e-10
        # tolerance at 33 and at 65 nodes; the 65 are the 33 and 32 new ones
        scale = 1.0 / 5e5
        rng = np.random.default_rng(0)
        probed = []

        def noisy(species, order, sigma, cfg, omegas):
            probed.append(len(omegas))
            p = np.sin(0.5 * np.pi * np.array(omegas) * scale) ** 2
            return tuple(p + 1e-6 * rng.standard_normal(len(omegas)))

        monkeypatch.setattr(ladder, "_transfer", noisy)
        with pytest.raises(CalibrationError, match="no lobe proxy within 1.0e-10") as err:
            calibrate_pulse_amplitude(RB, 0.5, 2, 5e-6)
        assert probed[-2:] == [33, 32]
        oms, ps = zip(*err.value.sweep)   # the 1.25x sweep, up to past the peak
        np.testing.assert_allclose(np.diff(np.log(oms)), math.log(1.25))
        assert max(ps) > 0.9 and ps[-1] < 0.8 * max(ps)

    def test_order4_lobe_proxy_solves_only_the_new_nodes(self, monkeypatch, cold_lobes):
        # at order 4 and sigma = 30 us, one seeded sweep batch finds the lobe
        # and 33 nodes miss the 1e-10 tail rule: the second round solves the
        # 32 between them, not all 65 afresh
        real, probed = ladder._transfer, []
        monkeypatch.setattr(ladder, "_transfer",
                            lambda *a: probed.append(len(a[-1])) or real(*a))
        calibrate_pulse_amplitude(RB, 0.5, 4, 30e-6)
        assert probed == [9, 33, 32, 1]

    def test_second_proxy_round_reuses_the_first_nodes(self, monkeypatch, cold_lobes):
        # P = 2u^3 / (1 + u^6), u = Omega_0 / 5e5, peaks at 1 at u = 1; its
        # poles at u = e^{i pi / 6} leave a 33-node tail of ~2e-9 and a
        # 65-node one of ~1e-15, so 65 nodes are 33 kept and 32 new, and the
        # pi/2 root is u^3 = 2 - sqrt(3)
        scale = 1.0 / 5e5
        probed = []

        def lobe(species, order, sigma, cfg, omegas):
            probed.append(len(omegas))
            u = np.asarray(omegas) * scale
            return list(2 * u**3 / (1 + u**6))

        monkeypatch.setattr(ladder, "_transfer", lobe)
        om = calibrate_pulse_amplitude(RB, 0.5, 2, 5e-6)
        assert probed[-3:] == [33, 32, 1]
        assert om == pytest.approx((2 - math.sqrt(3)) ** (1 / 3) / scale, rel=1e-9)

    def test_unreachable_target_raises(self, monkeypatch, cold_lobes):
        # no transfer reaches 0.05 up to the sweep ceiling: no lobe, for a
        # target below that best transfer too
        monkeypatch.setattr(ladder, "_transfer",
                            lambda *args: [0.02] * len(args[-1]))
        for target in (0.01, 0.9):
            with pytest.raises(CalibrationError, match="no Rabi lobe") as err:
                calibrate_pulse_amplitude(RB, target=target, order=1, sigma=200e-6)
            oms, _ = zip(*err.value.sweep)
            assert oms[-1] / oms[0] == pytest.approx(1.25 ** 36)


class TestSpecValidation:
    def test_pulse_spec_invariants(self):
        with pytest.raises(ValueError):
            PulseSpec(rabi_peak=1e5, sigma=0.0, detuning=bragg_resonance(1, RB))
        with pytest.raises(ValueError):
            PulseSpec(rabi_peak=-1.0, sigma=1e-5, detuning=bragg_resonance(1, RB))
        with pytest.raises(TypeError):
            PulseSpec(rabi_peak=1e5, sigma=1e-5)  # no detuning at all

    @pytest.mark.parametrize("field, value", [
        ("rabi_peak", math.nan), ("rabi_peak", math.inf),
        ("sigma", math.nan), ("sigma", math.inf),
        ("detuning", math.nan), ("detuning", math.inf),
        ("laser_phase", math.nan), ("chirp", math.inf),
    ], ids=["rabi_peak-nan", "rabi_peak-inf", "sigma-nan", "sigma-inf",
            "detuning-nan", "detuning-inf", "laser_phase-nan", "chirp-inf"])
    def test_pulse_spec_rejects_non_finite(self, field, value):
        kwargs = {"rabi_peak": 1e5, "sigma": 1e-5, "detuning": 0.0, field: value}
        with pytest.raises(ValueError, match=field):
            PulseSpec(**kwargs)

    def test_evolution_config_invariants(self):
        with pytest.raises(ValueError):
            EvolutionConfig(error_tolerance=0.0)
        with pytest.raises(ValueError):
            EvolutionConfig(error_tolerance=1e-2)
        with pytest.raises(ValueError):
            EvolutionConfig(guard_sites=3)

    def test_quasimomentum_bound(self):
        with pytest.raises(ValueError):
            plane_wave_state(RB, quasimomentum=1.5)

    def test_nan_quasimomentum_rejected(self):
        # a NaN must fail the bound rather than reach the solver
        with pytest.raises(ValueError, match="quasimomentum must be finite, got nan"):
            plane_wave_state(RB, quasimomentum=math.nan)

    def test_unnormalized_state_rejected(self):
        psi = plane_wave_state(RB)
        bad = MomentumLadderState(species=RB, amplitudes=2 * psi.amplitudes,
                                  n_min=psi.n_min)
        with pytest.raises(ValueError):
            apply_pulse(bad, PulseSpec(rabi_peak=1e5, sigma=1e-5,
                                       detuning=bragg_resonance(1, RB)))

    @pytest.mark.parametrize("amps", [[math.nan], [math.nan, 1.0]],
                             ids=["one-site", "two-site"])
    def test_nan_state_fails_the_norm_check(self, amps):
        bad = MomentumLadderState(species=RB, amplitudes=np.array(amps), n_min=0)
        with pytest.raises(ValueError, match="^state norm must be finite, got nan"):
            apply_pulse(bad, PulseSpec(rabi_peak=1e5, sigma=1e-5,
                                       detuning=bragg_resonance(1, RB)))

    def test_nan_populations_fail_the_leak_check(self):
        with pytest.raises(TruncationLeakError, match="leakage nan"):
            ladder.check_leakage(np.array([[0.0, 1.0, 0.0], [math.nan, 0.5, 0.5]]))


class TestKineticHelper:
    def test_matches_definition(self):
        sites = np.arange(-3, 4)
        got = kinetic_frequencies(RB, sites, 0.5)
        expected = 4 * RB.recoil_frequency * (sites + 0.25) ** 2
        np.testing.assert_allclose(got, expected)

    def test_mean_momentum_in_hk(self):
        psi = plane_wave_state(RB, site=1, quasimomentum=0.3)
        assert mean_momentum(psi) == pytest.approx(2.3, abs=1e-12)
