"""Analysis operations: exact fits, estimator statistics, class oracle."""

import math

import numpy as np
import pytest

from braggsim.analysis import (
    AllanCurve,
    FitRejectedError,
    FringeScan,
    HarmonicFit,
    allan_deviation,
    bin_timeseries,
    class_contrast_proxy,
    extract_shot_phases,
    fit_harmonics,
    fringe_contrast,
    gradiometer_correlation,
    phase_to_gravity,
)
from braggsim.physics import AtomSpecies, revival_period

RB = AtomSpecies.rubidium87()
K_EFF = 2 * RB.wavevector


def make_scan(phi, values, port=2):
    values = np.clip(values, 0.0, 1.0)
    return FringeScan(phase_grid=phi, port_populations={0: 1 - values, port: values},
                      normalized=values)


class TestFitHarmonics:
    def test_exact_single_harmonic_recovery(self):
        phi = np.linspace(0, 4 * math.pi, 60)
        y = 0.5 + 0.3 * np.cos(phi + 0.2)
        fit = fit_harmonics(make_scan(phi, y), n_harmonics=3)
        assert fit.offset == pytest.approx(0.5, abs=1e-9)
        assert fit.amplitudes[0] == pytest.approx(0.3, abs=1e-6)
        assert fit.phases[0] == pytest.approx(0.2, abs=1e-6)
        assert fit.amplitudes[1] < 1e-6
        assert fit.amplitudes[2] < 1e-6

    def test_exact_multi_harmonic_recovery(self):
        phi = np.linspace(0, 4 * math.pi, 120)
        y = (0.45 + 0.25 * np.cos(phi - 0.7) + 0.12 * np.cos(2 * phi + 1.1)
             + 0.05 * np.cos(3 * phi + 2.9))
        fit = fit_harmonics(make_scan(phi, y), n_harmonics=3)
        assert fit.amplitudes[0] == pytest.approx(0.25, abs=1e-6)
        assert fit.amplitudes[1] == pytest.approx(0.12, abs=1e-6)
        assert fit.amplitudes[2] == pytest.approx(0.05, abs=1e-6)
        assert fit.phases[0] == pytest.approx(-0.7, abs=1e-6)
        assert fit.phases[1] == pytest.approx(1.1, abs=1e-6)
        assert fit.phases[2] == pytest.approx(2.9, abs=1e-5)
        assert fit.residual_rms < 1e-9

    def test_short_span_rejected(self):
        phi = np.linspace(0, 2 * math.pi, 30)  # only one period
        with pytest.raises(FitRejectedError):
            fit_harmonics(make_scan(phi, 0.5 + 0.1 * np.cos(phi)))

    def test_too_few_points_rejected(self):
        phi = np.linspace(0, 4 * math.pi, 5)
        with pytest.raises(FitRejectedError):
            fit_harmonics(make_scan(phi, np.full(5, 0.5)), n_harmonics=3)

    def test_dominant_harmonic(self):
        phi = np.linspace(0, 4 * math.pi, 80)
        y = 0.5 + 0.05 * np.cos(phi) + 0.2 * np.cos(2 * phi)
        fit = fit_harmonics(make_scan(phi, y), n_harmonics=3)
        assert fit.dominant_harmonic == 2


class TestFringeContrast:
    def test_full_contrast(self):
        fit = HarmonicFit(offset=0.5, amplitudes=(0.5,), phases=(0.0,),
                          residual_rms=0.0)
        assert fringe_contrast(fit) == pytest.approx(1.0, abs=1e-6)

    def test_zero_amplitude(self):
        fit = HarmonicFit(offset=0.5, amplitudes=(0.0,), phases=(0.0,),
                          residual_rms=0.0)
        assert fringe_contrast(fit) == 0.0

    def test_negative_dip_clamped(self):
        fit = HarmonicFit(offset=0.2, amplitudes=(0.5,), phases=(0.0,),
                          residual_rms=0.0)
        # curve spans [-0.3, 0.7]; clamped min 0 -> contrast 1
        assert fringe_contrast(fit) == pytest.approx(1.0, abs=1e-9)


class TestPhaseToGravity:
    def test_paper_conversion(self):
        dg = phase_to_gravity(1.5e-3, 1, K_EFF, 0.06)
        assert dg / 9.81 == pytest.approx(3e-9, rel=0.15)

    def test_inverts_forward_phase_model(self):
        # forward: a gravity change shifts the order-m phase by
        # m * k_eff * dg * T^2; phase_to_gravity must undo it exactly
        from braggsim.physics import BeamGeometry, mzi_phase
        geom = BeamGeometry.vertical(RB)
        T = 0.04
        for m in (1, 2, 3):
            for dg in (1e-9, 3e-7, 2e-4):
                dphi = (mzi_phase(m, T, geom, gravity=9.81 + dg)
                        - mzi_phase(m, T, geom, gravity=9.81))
                back = phase_to_gravity(dphi, m, geom.k_eff, T)
                assert back == pytest.approx(dg, rel=1e-9)

    def test_zero(self):
        assert phase_to_gravity(0.0, 1, K_EFF, 0.06) == 0.0

    def test_time_scaling(self):
        a = phase_to_gravity(1e-3, 1, K_EFF, 0.03)
        b = phase_to_gravity(1e-3, 1, K_EFF, 0.06)
        assert a == pytest.approx(4 * b)

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_to_gravity(1e-3, 0, K_EFF, 0.06)
        with pytest.raises(ValueError):
            phase_to_gravity(1e-3, 1, K_EFF, 0.0)

    @pytest.mark.parametrize("harmonic, interrogation_time, argument", [
        (math.nan, 0.06, "harmonic"), (1, math.nan, "interrogation_time"),
    ], ids=["harmonic-nan", "interrogation_time-nan"])
    def test_nan_argument_rejected(self, harmonic, interrogation_time, argument):
        with pytest.raises(ValueError, match=f"{argument} must be"):
            phase_to_gravity(1e-3, harmonic, K_EFF, interrogation_time)

    @pytest.mark.parametrize("argument, value", [
        ("delta_phi", math.nan), ("delta_phi", math.inf),
        ("harmonic", math.inf), ("k_eff", math.nan), ("k_eff", math.inf),
        ("k_eff", 0.0), ("interrogation_time", math.inf),
    ], ids=["delta_phi-nan", "delta_phi-inf", "harmonic-inf", "k_eff-nan",
            "k_eff-inf", "k_eff-0", "interrogation_time-inf"])
    def test_non_finite_argument_rejected(self, argument, value):
        kwargs = {"delta_phi": 1e-3, "harmonic": 1, "k_eff": K_EFF,
                  "interrogation_time": 0.06, argument: value}
        with pytest.raises(ValueError, match=f"{argument} must be"):
            phase_to_gravity(**kwargs)


class TestAllanDeviation:
    def test_constant_series_zero(self):
        curve = allan_deviation(np.full(256, 3.3), shot_period=1.0)
        assert np.all(curve.values < 1e-12)

    def test_white_noise_slope(self):
        rng = np.random.default_rng(11)
        y = rng.normal(0, 1e-8, 16384)
        curve = allan_deviation(y, shot_period=1.0)
        # restrict to well-estimated taus
        sel = curve.taus <= 256
        slope = np.polyfit(np.log(curve.taus[sel]), np.log(curve.values[sel]), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_white_noise_level(self):
        rng = np.random.default_rng(12)
        sigma = 4e-9
        y = rng.normal(0, sigma, 8192)
        curve = allan_deviation(y, shot_period=1.0, taus=[1.0, 16.0])
        assert curve.values[0] == pytest.approx(sigma, rel=0.05)
        assert curve.values[1] == pytest.approx(sigma / 4, rel=0.10)

    def test_converges_with_more_realizations(self):
        # point-wise convergence: the tau = 8 estimate approaches the true
        # sigma/sqrt(8) within its shrinking 3-sigma statistical band
        sigma = 1e-8
        truth = sigma / math.sqrt(8)
        for n, seed in ((2000, 1), (8000, 2), (32000, 3)):
            y = np.random.default_rng(seed).normal(0, sigma, n)
            got = allan_deviation(y, 1.0, taus=[8.0]).values[0]
            # ~n/8 effective samples -> relative error band ~ 3/sqrt(2 n/8)
            band = 3.0 * truth / math.sqrt(2 * n / 8)
            assert abs(got - truth) < band

    def test_insufficient_tau_omitted_with_notice(self):
        curve = allan_deviation(np.arange(64.0), shot_period=1.0,
                                taus=[1.0, 8.0, 64.0])
        assert len(curve.taus) == 2
        assert any("64" in n for n in curve.notices)

    def test_nan_shot_period_rejected(self):
        with pytest.raises(ValueError, match="^shot_period must be finite, got nan"):
            allan_deviation(np.arange(64.0), math.nan)

    def test_infinite_shot_period_rejected(self):
        with pytest.raises(ValueError, match="^shot_period must be finite, got inf"):
            allan_deviation(np.arange(64.0), math.inf)

    def test_negative_tau_rejected(self):
        # once silently a one-shot point; CHECKED_ARGUMENTS drives zero, NaN and inf
        with pytest.raises(ValueError, match="^taus must be > 0, got -5.0$"):
            allan_deviation(np.arange(64.0), 1.0, taus=[-5.0])

    def test_tau_of_more_shots_than_the_largest_float_rejected(self):
        # tau / shot_period overflows to inf, which once reached int(round(inf))
        with pytest.raises(ValueError,
                           match="^taus in shot periods must be finite, got inf$"):
            allan_deviation(np.arange(64.0), 1e-300, taus=[1e10])

    def test_short_tau_rounds_to_one_shot(self):
        curve = allan_deviation(np.arange(64.0), 2.0, taus=[0.4, 4.0])
        assert list(curve.taus) == [2.0, 4.0]

    def test_all_insufficient_raises(self):
        with pytest.raises(ValueError):
            allan_deviation(np.arange(8.0), shot_period=1.0, taus=[100.0])


class TestGradiometerCorrelation:
    def test_identical_series(self):
        x = np.sin(np.arange(50))
        za, zb, r = gradiometer_correlation(x, x)
        assert r == pytest.approx(1.0, abs=1e-12)
        assert np.mean(za) == pytest.approx(0.0, abs=1e-12)
        assert np.std(za) == pytest.approx(1.0, abs=1e-12)

    def test_independent_series(self):
        rng = np.random.default_rng(5)
        n = 4000
        _, _, r = gradiometer_correlation(rng.normal(size=n), rng.normal(size=n))
        assert abs(r) < 3 / math.sqrt(n)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            gradiometer_correlation(np.ones(20), np.arange(20.0))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            gradiometer_correlation(np.arange(5.0), np.arange(5.0))


class TestClassOracle:
    def test_full_revival_any_weights(self):
        dT = revival_period(RB)
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 1.0, 21)
        proxy = class_contrast_proxy(3, range(-10, 11), dT, RB, weights=w)
        assert proxy == pytest.approx(1.0, abs=1e-9)

    def test_even_class_dephased_at_half_period(self):
        dT = revival_period(RB)
        assert class_contrast_proxy(2, range(-10, 11), dT / 2, RB) < 0.1

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            class_contrast_proxy(3, range(-2, 3), 1e-4, RB, weights=[1.0, 2.0])


class TestBinTimeseries:
    def test_bin_one_rejected(self):
        # a bin of one sample has no standard error
        with pytest.raises(ValueError, match="bin_size must be >= 2, got 1"):
            bin_timeseries(np.arange(10.0), 1)

    def test_constant_series(self):
        means, errs = bin_timeseries(np.full(100, 2.5), 10)
        np.testing.assert_allclose(means, 2.5)
        np.testing.assert_allclose(errs, 0.0, atol=1e-15)

    def test_white_noise_error_scaling(self):
        rng = np.random.default_rng(8)
        y = rng.normal(0, 1.0, 38 * 400)
        _, errs = bin_timeseries(y, 38)
        assert np.mean(errs) == pytest.approx(1 / math.sqrt(38), rel=0.05)

    def test_tail_dropped(self):
        means, _ = bin_timeseries(np.arange(25.0), 10)
        assert len(means) == 2


class TestExtractShotPhases:
    def test_recovers_injected_offsets(self):
        phi = np.linspace(0, 6 * math.pi, 400)
        rng = np.random.default_rng(21)
        offsets = rng.normal(0, 0.02, len(phi))
        y = 0.5 + 0.3 * np.cos(phi + offsets)
        scan = make_scan(phi, y)
        fit = fit_harmonics(scan, n_harmonics=1)
        deltas, mask = extract_shot_phases(scan, fit)
        assert mask.sum() > 100
        # local linear inversion: expected delta = -offset at retained points
        np.testing.assert_allclose(deltas[mask], offsets[mask], atol=5e-3)
