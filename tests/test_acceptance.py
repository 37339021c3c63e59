"""Acceptance criteria: one test per criterion, each printing PASS/FAIL.

The criteria: sweep-rate value, analytic constants, Raman-Nath and
two-level oracles, unitarity/truncation, fringe-periodicity regimes,
harmonic growth, contrast revivals, sensitivity integration, gradiometer
common-mode rejection, tide recovery, mid-fringe conversion and Bloch
velocity selection.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Expensive artifacts (calibrated sequences, propagators)
are shared through module-scoped fixtures.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.special import erf, jv
from scipy.stats import norm

from braggsim.analysis import (
    allan_deviation,
    class_contrast_proxy,
    extract_shot_phases,
    fit_harmonic_components,
    fit_harmonics,
    fit_revival_period,
    fringe_contrast,
    gradiometer_correlation,
    phase_to_gravity,
)
from braggsim.bloch import LatticeRamp, bloch_accelerate, selection_profile
from braggsim.environment import NoiseModel, TideComponent, TideModel
from braggsim.ladder import (
    EvolutionConfig,
    PulseSpec,
    apply_pulse,
    plane_wave_state,
    pulse_propagator,
)
from braggsim.physics import (
    AtomSpecies,
    BeamGeometry,
    bragg_resonance,
    coherence_length,
    path_length_increment,
    resonant_sweep_rate,
    revival_period,
)
from braggsim.sequence import (
    EnsembleSpec,
    GradiometerSpec,
    prepare_sequence,
    run_gradiometer,
    run_gravity_series,
    scan_contrast_vs_T,
    scan_fringe,
)
from reference_models import demo_m2

RB = AtomSpecies.rubidium87()
GEOM = BeamGeometry.vertical(RB)
QUIET = NoiseModel(mirror_phase_rms_rad=0.0, detection_snr=None)
TRUNC = erf(3.0 / math.sqrt(2.0))

_t0 = {}


def _report(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    dt = time.perf_counter() - _t0.get(num, time.perf_counter())
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({detail}) [{dt:.1f}s]")
    assert ok, f"criterion {num} {name}: {detail}"


def _start(num: int):
    _t0[num] = time.perf_counter()


@dataclasses.dataclass(frozen=True)
class StratifiedEnsemble(EnsembleSpec):
    """The ensemble's Gaussian as deterministic equal-probability
    quasimomentum nodes in +-1 hbar k instead of random draws."""

    def draw(self) -> np.ndarray:
        n, sigma_q = self.samples, self.sigma_q_hk
        u = (np.arange(n) + 0.5) / n
        lo, hi = norm.cdf(-1 / sigma_q), norm.cdf(1 / sigma_q)
        return np.clip(sigma_q * norm.ppf(lo + u * (hi - lo)), -1.0, 1.0)


@pytest.fixture(scope="module")
def qb_sequence():
    """Quasi-Bragg working point: n = 2, sigma = 5 us, first-lobe calibrated."""
    return prepare_sequence(RB, order=2, interrogation_time=2e-3,
                            pulse_sigma=5e-6)


def test_criterion_01_sweep_rate():
    _start(1)
    alpha0 = resonant_sweep_rate(9.81, GEOM)
    err = abs(alpha0 - 25.1e6) / 25.1e6
    _report(1, "sweep-rate-check", err < 0.005,
            f"alpha0 = {alpha0 / 1e6:.3f} MHz/s, deviation {err * 100:.2f}%")


def test_criterion_02_analytic_constants():
    _start(2)
    lc = coherence_length(RB, 1e-6)
    li = path_length_increment(RB, 40e-3)
    dt = revival_period(RB)
    ok_lc = abs(lc - 190e-9) / 190e-9 < 0.05
    ok_li = abs(li - 500e-6) / 500e-6 < 0.10
    # band edges quoted to 0.1 us (32.6 and 33.1 in the sources)
    ok_dt = 32.55e-6 <= dt <= 33.15e-6
    _report(2, "analytic-constants", ok_lc and ok_li and ok_dt,
            f"coherence {lc * 1e9:.1f} nm, increment {li * 1e6:.0f} um, "
            f"revival {dt * 1e6:.2f} us")


def test_criterion_03_raman_nath_oracle():
    _start(3)
    sigma = 10e-9
    worst = 0.0
    for area in (0.5, 1.0, 1.5, 2.0):
        omega0 = area / (sigma * math.sqrt(2 * math.pi) * TRUNC)
        pulse = PulseSpec(rabi_peak=omega0, sigma=sigma, detuning=0.0)
        # sites +-10: the order-1 reach plus 9 guard sites
        out = apply_pulse(plane_wave_state(RB), pulse,
                          EvolutionConfig(guard_sites=9))
        for m in range(-4, 5):
            worst = max(worst, abs(out.population(m) - jv(m, area) ** 2))
    _report(3, "raman-nath-oracle", worst < 1e-3,
            f"max |P_m - J_m^2| = {worst:.2e} over theta <= 2, m in [-4, 4]")


def test_criterion_04_two_level_oracle():
    _start(4)
    sigma = 200e-6
    worst = 0.0
    pi_transfer = None
    for x in (0.25, 0.5, 0.75, 1.0, 1.25):
        area = x * math.pi
        omega0 = area / (sigma * math.sqrt(2 * math.pi) * TRUNC)
        pulse = PulseSpec(rabi_peak=omega0, sigma=sigma,
                          detuning=bragg_resonance(1, RB))
        got = apply_pulse(plane_wave_state(RB), pulse).population(1)
        expected = math.sin(area / 2) ** 2
        worst = max(worst, abs(got - expected))
        if x == 1.0:
            pi_transfer = got
    ok = pi_transfer >= 0.99 and worst < 0.01
    _report(4, "two-level-oracle", ok,
            f"pi transfer {pi_transfer:.4f}, max sweep deviation {worst:.4f}")


def test_criterion_05_unitarity_truncation(qb_sequence):
    _start(5)
    drift = 0.0
    for sigma, order in ((15e-6, 2), (5e-6, 2)):
        om = qb_sequence.mirror_rabi if sigma == 5e-6 else 1.2e5
        pulse = PulseSpec(rabi_peak=om, sigma=sigma,
                          detuning=bragg_resonance(order, RB))
        for qt in (0.0, -0.37, 0.61):
            out = apply_pulse(plane_wave_state(RB, quasimomentum=qt), pulse)
            drift = max(drift, abs(out.norm - 1.0))
    pulse = PulseSpec(rabi_peak=1.2e5, sigma=15e-6, detuning=bragg_resonance(2, RB))
    base = apply_pulse(plane_wave_state(RB), pulse,
                       EvolutionConfig(guard_sites=6))
    wide = apply_pulse(plane_wave_state(RB), pulse,
                       EvolutionConfig(guard_sites=10))
    dp = max(abs(base.population(n) - wide.population(n)) for n in range(-5, 8))
    ok = drift < 1e-9 and dp < 1e-6
    _report(5, "unitarity-truncation", ok,
            f"max norm drift {drift:.1e}, +4-site population change {dp:.1e}")


def test_criterion_06_fringe_periodicity(qb_sequence):
    _start(6)
    grid = np.linspace(0, 4 * math.pi, 24, endpoint=False)
    bragg = prepare_sequence(RB, order=2, interrogation_time=2e-3,
                             pulse_sigma=80e-6)
    fit_b = fit_harmonics(scan_fringe(
        RB, EnsembleSpec(samples=1, sigma_q_hk=0.0), bragg, QUIET,
        grid, 1), 3)
    ens = EnsembleSpec(samples=200, sigma_q_hk=0.42, seed=7)
    fit_q = fit_harmonics(scan_fringe(RB, ens, qb_sequence, QUIET,
                                      grid, 2), 3)
    ok_b = fit_b.amplitudes[1] > 5 * fit_b.amplitudes[0]
    ok_q = fit_q.amplitudes[0] > fit_q.amplitudes[1]
    _report(6, "fringe-periodicity-regimes", ok_b and ok_q,
            f"Bragg c2/c1 = {fit_b.amplitudes[1] / max(fit_b.amplitudes[0], 1e-12):.0f}, "
            f"quasi-Bragg c1 = {fit_q.amplitudes[0]:.3f} vs c2 = {fit_q.amplitudes[1]:.3f}")


def test_criterion_07_harmonic_growth():
    _start(7)
    grid = np.linspace(0, 4 * math.pi, 24, endpoint=False)
    ens = EnsembleSpec(samples=96, sigma_q_hk=0.42, seed=7)
    ratios = []
    for sigma in (5e-6, 7e-6, 10e-6):
        seq = prepare_sequence(RB, order=2, interrogation_time=2e-3,
                               pulse_sigma=sigma)
        fit = fit_harmonics(scan_fringe(RB, ens, seq, QUIET, grid, 3), 3)
        ratios.append(fit.amplitudes[1] / max(fit.amplitudes[0], 1e-12))
    ok = ratios[0] < ratios[1] < ratios[2]
    _report(7, "higher-harmonic-growth", ok,
            "c2/c1 = " + ", ".join(f"{r:.2f}" for r in ratios)
            + " for sigma = 5, 7, 10 us")


def test_criterion_08_contrast_revivals(qb_sequence):
    _start(8)
    dT = revival_period(RB)
    grid_step = 2e-6
    t_start = 0.8e-3
    times = t_start + np.arange(0.0, 3.3 * dT, grid_step)
    ens = StratifiedEnsemble(samples=48, sigma_q_hk=0.42, seed=7)
    curve = scan_contrast_vs_T(RB, ens, qb_sequence, times, QUIET,
                               master_seed=5)
    ts = np.array([t for t, _ in curve])
    cs = np.array([c for _, c in curve])
    p_sim, peak_sim = fit_revival_period(ts - t_start, cs, 0.8 * dT, 1.2 * dT)
    spacing_ok = abs(p_sim - dT) / dT < 0.05

    # closed-form class oracle for the dominant class j = 2, with weights
    # from the simulated q = 0 pulse amplitudes along each trajectory into
    # port 0
    window = (-8, 8)
    sites = np.arange(window[0], window[1] + 1)
    i0 = -window[0]
    delta, sigma = 4 * 2 * RB.recoil_frequency, qb_sequence.pulse_sigma
    U_bs = pulse_propagator(RB, PulseSpec(qb_sequence.beamsplitter_rabi, sigma,
                                          detuning=delta), window)
    U_pi = pulse_propagator(RB, PulseSpec(qb_sequence.mirror_rabi, sigma,
                                          detuning=delta), window)
    weights = []
    a_vals = (0, 1, 2)
    for a in a_vals:
        b = 2 - a
        w = (abs(U_bs[i0 + a, i0]) * abs(U_pi[i0 + b, i0 + a])
             * abs(U_bs[i0, i0 + b]))
        weights.append(w)
    oracle = np.array([
        class_contrast_proxy(2, a_vals, float(t), RB, weights=weights) for t in ts
    ])
    p_orc, peak_orc = fit_revival_period(ts - t_start, oracle,
                                         0.8 * dT, 1.2 * dT)

    # peak trains, aligned by one global offset (constant within-pulse
    # transfer phase; finite-pulse corrections are a stated non-goal)
    k_max = int((ts[-1] - t_start) / dT)
    sim_peaks = np.array([peak_sim + k * p_sim for k in range(k_max)])
    orc_peaks = np.array([peak_orc + k * p_orc for k in range(k_max)])
    offset = np.mean(sim_peaks - orc_peaks)
    residuals = sim_peaks - orc_peaks - offset
    positions_ok = np.max(np.abs(residuals)) < grid_step
    _report(8, "contrast-revivals", spacing_ok and positions_ok,
            f"spacing {p_sim * 1e6:.2f} us vs dT {dT * 1e6:.2f} us "
            f"({abs(p_sim - dT) / dT * 100:.1f}%), oracle period "
            f"{p_orc / dT:.4f} dT, max peak residual "
            f"{np.max(np.abs(residuals)) * 1e6:.2f} us (offset "
            f"{offset * 1e6:.1f} us)")


def test_criterion_09_sensitivity_integration():
    _start(9)
    sens = 6e-8                      # Delta g / g per root Hz
    period = 1.0
    T = 60e-3
    seq = prepare_sequence(RB, order=2, interrogation_time=T,
                           pulse_sigma=15e-6)
    sigma_combo = sens / math.sqrt(period) * 9.81 * GEOM.k_eff * T * T
    noise = NoiseModel(mirror_phase_rms_rad=sigma_combo / math.sqrt(6.0),
                       detection_snr=None)
    ens = EnsembleSpec(samples=32, sigma_q_hk=0.42, seed=3)
    tide = TideModel(mean_gravity=9.81)
    series = run_gravity_series(RB, ens, seq, tide, noise, n_shots=20000,
                                shot_period=period, master_seed=17)
    frac = (series.mean_gravity + series.recovered_shift - 9.81) / 9.81
    taus = [2.0**k for k in range(9)] + [1000.0]
    curve = allan_deviation(frac, period, taus=taus)
    at_1000 = float(curve.values[np.argmin(np.abs(curve.taus - 1000.0))])
    sel = curve.taus <= 256
    slope = float(np.polyfit(np.log(curve.taus[sel]),
                             np.log(curve.values[sel]), 1)[0])
    ok = at_1000 <= 3e-9 and abs(slope + 0.5) <= 0.5 * 0.15
    _report(9, "sensitivity-integration", ok,
            f"ADEV(1000 s) = {at_1000:.2e} (<= 3e-9), log-log slope "
            f"{slope:.3f} (target -0.5, ideal value 1.9e-9)")


def test_criterion_10_gradiometer_common_mode(qb_sequence):
    _start(10)
    # 2 pi-periodic quasi-Bragg fringes (as in the measured gradiometer);
    # momenta chosen to keep the Bragg resonances resolvable at sigma = 5 us
    gspec = GradiometerSpec(lower_momentum_hk=12, upper_momentum_hk=2)
    ens = EnsembleSpec(samples=8, sigma_q_hk=0.42, seed=11)
    grid = np.linspace(0, 4 * math.pi, 160, endpoint=False)

    def run(rms, seed):
        noise = NoiseModel(mirror_phase_rms_rad=rms, detection_snr=150.0)
        res = run_gradiometer(RB, gspec, ens, qb_sequence, noise, grid,
                              master_seed=seed)
        fit_lo = fit_harmonics(res.lower, 3)
        fit_up = fit_harmonics(res.upper, 3)
        # extract near the fringe inflections, where inversion is linear
        d_lo, m_lo = extract_shot_phases(res.lower, fit_lo,
                                         min_slope_fraction=0.7)
        d_up, m_up = extract_shot_phases(res.upper, fit_up,
                                         min_slope_fraction=0.7)
        keep = m_lo & m_up
        r = (gradiometer_correlation(d_lo[keep], d_up[keep])[2]
             if rms > 0 else float("nan"))
        return r, float(np.std(d_lo[keep] - d_up[keep])), int(keep.sum())

    _, det_diff, _ = run(0.0, 21)          # vibration off: pure detection
    det_equiv = det_diff / math.sqrt(2.0)  # per-cloud detection phase noise
    rms_values = (0.1, 0.15, 0.2)
    results = [run(rms, seed) for rms, seed in
               zip(rms_values, (31, 41, 51))]
    ratios = [math.sqrt(6.0) * rms / det_equiv for rms in rms_values]
    r_min = min(r for r, _, _ in results)
    stds = np.array([s for _, s, _ in results])
    n_min = min(n for _, _, n in results)
    coeffs, cov = np.polyfit(rms_values, stds, 1, cov=True)
    slope, slope_err = float(coeffs[0]), math.sqrt(float(cov[0, 0]))
    # full vibration leakage would slope at sqrt(12); demand consistency
    # with zero within fit error (allowing 10% of the full-leak slope)
    independent = abs(slope) < max(3 * slope_err, 0.1 * math.sqrt(12.0))
    ok = min(ratios) >= 5.0 and r_min > 0.9 and independent
    _report(10, "gradiometer-common-mode", ok,
            f"vibration/detection = {min(ratios):.1f}..{max(ratios):.1f} (>= 5), "
            f"min r = {r_min:.3f}, d(diff std)/d(rms) = {slope:.3f} "
            f"+- {slope_err:.3f} (full leak would be 3.46), "
            f"{n_min}+ shots retained")


def test_criterion_11_tide_recovery():
    _start(11)
    T = 60e-3
    seq = prepare_sequence(RB, order=2, interrogation_time=T,
                           pulse_sigma=15e-6)
    tide = demo_m2(mean_gravity=9.81, amplitude=1.0e-6)
    noise = NoiseModel(mirror_phase_rms_rad=0.015, detection_snr=50.0)
    ens = EnsembleSpec(samples=32, sigma_q_hk=0.42, seed=3)
    n_shots = 36 * 3600  # 36 hours at 1 s per shot
    series = run_gravity_series(RB, ens, seq, tide, noise, n_shots=n_shots,
                                shot_period=1.0, master_seed=23)
    from braggsim.analysis import bin_timeseries
    means, errs = bin_timeseries(series.mean_gravity + series.recovered_shift,
                                 38)
    t_bins, _ = bin_timeseries(series.times, 38)
    omega = tide.components[0].angular_frequency
    _, comps = fit_harmonic_components(t_bins, means, [omega], weights=errs)
    amp, _, se = comps[0]
    ok = abs(amp - 1.0e-6) <= se
    _report(11, "tide-recovery", ok,
            f"recovered {amp * 1e6:.4f} umps2 vs injected 1.0000, "
            f"bin-propagated standard error {se * 1e6:.4f}")


def test_criterion_12_mid_fringe_conversion():
    _start(12)
    dg = phase_to_gravity(1.5e-3, 1, GEOM.k_eff, 60e-3)
    rel = dg / 9.81
    ok = abs(rel - 3e-9) / 3e-9 < 0.15
    _report(12, "mid-fringe-conversion", ok,
            f"1.5 mrad at T = 60 ms -> dg/g = {rel:.2e} (target ~3e-9)")


def test_criterion_13_bvs_selection():
    _start(13)
    ramp = LatticeRamp()   # depth 4 E_r, 30 m/s^2, 8 hbar k
    q0 = bloch_accelerate([plane_wave_state(RB)], ramp)[0].population(0)
    out_band = []
    for p_hk in (-2.0, -1.75, -1.5, -1.3, 1.3, 1.5, 1.75, 2.0):
        site = round(p_hk / 2)
        q = p_hk - 2 * site
        psi = plane_wave_state(RB, site=site, quasimomentum=q)
        out_band.append(bloch_accelerate([psi], ramp)[0].population(0))
    momenta = np.linspace(-2.0, 2.0, 21)
    eff = selection_profile(RB, ramp, momenta)
    half = eff.max() / 2
    above = momenta[eff >= half]
    fwhm = above.max() - above.min()
    ok = q0 >= 0.95 and max(out_band) < 0.1 and 1.5 <= fwhm <= 2.5
    _report(13, "bvs-selection", ok,
            f"q=0 transfer {q0:.3f} (>= 0.95), out-of-band max "
            f"{max(out_band):.3f} (< 0.1, |p| >= 1.3 hk), acceptance FWHM "
            f"{fwhm:.2f} hk (~2 hk input, ~1 hk rms-equivalent output)")
