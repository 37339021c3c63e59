"""Full interferometer runs: ensembles, pi/2 - pi - pi/2 scheduling, fringe
and interrogation-time scans, dual-cloud gradiometry and synthetic gravity
series.

Frame bookkeeping: the simulation runs in the frame falling with the cloud
and co-chirped with the lattice, so gravity, tilt and the sweep rate alpha
enter only through the residual ramp r = 2*pi*(alpha - alpha_0) (rad/s^2),
alpha_0 = k_eff*g*cos(tilt)/(2*pi): the runs take ``sweep_rate_offset``
alpha - alpha_0 (Hz/s; 0, the default, is resonant), not gravity.
The ramp detunes each pulse by r*t_center, chirps it by r within its window,
and advances the lattice beat phase between pulses by
theta(t) = delta_res*t + r*t^2/2; that beat phase adds to each pulse's
commanded phase, which is how the T^2 gravity phase of the closed
Mach-Zehnder emerges here.

The schedule holds only what a run reads: order, T, one pulse width and the
pi/2 and pi amplitudes. Each pulse's detuning and chirp come from the run's
offset. Pulse propagators are built at laser phase zero by
``ladder.pulse_propagator``, batched over the quasimomentum ensemble; beat
phases, commanded phases and mirror-phase noise enter through ladder's exact
phase conjugation, applied to the state as D(phi) U (D(phi)* psi), so a
whole scan costs a few matrix solves.

A run draws its ensemble once and builds one ``_ShotEngine`` per operating
point (final-pulse phase grid, interrogation time or sweep-rate offset).
``_shots`` is the one shot path, and a shot is a one-point scan:
``run_shot`` is ``scan_fringe`` at final-pulse phase 0. ``_shots`` numbers a
run's shots and makes one draw per noise stream for all of them. It walks
the ensemble draw in equal chunks of at most ``_SAMPLE_CHUNK`` samples, so
that a chunk takes the node path of ``pulse_propagator`` exactly when the
whole draw would, builds each distinct pulse's propagators once per chunk
for every engine and accumulates the ensemble mean over the chunks;
``_ShotEngine.populations`` evolves ``_SHOT_CHUNK`` shots of a chunk at a
time. So no array grows with the ensemble beyond a chunk, and a scan's
per-shot results (site populations, noise draws, detected ports) grow with
its shot count. A gravity series walks its shots ``_SERIES_CHUNK`` at a
time: only its four per-shot output columns grow with the shot count.
Per-shot noise has one home: ``_stream`` builds one generator per (seed,
stream) for a run, which ``sample_mirror_phases`` and ``_detect`` read in
order, chunk after chunk, so shot i takes row i of it. Momenta and
quasimomenta are in units of hbar*k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Annotated

import numpy as np

from .analysis import (FringeScan, HarmonicFit, check_count, fit_harmonics,
                       fringe_contrast)
from .bounds import Finite, NonNegative, Positive, Range, bounded, check
from .environment import (
    STREAM_DETECTION,
    STREAM_DETECTION_UPPER,
    STREAM_MIRROR,
    STREAM_QUASIMOMENTUM,
    NoiseModel,
    TideModel,
    apply_detection_noise,
    sample_mirror_phases,
    shot_rng,
    synthesize_tide,
    tilt_projection_drift,
)
from .ladder import (
    DEFAULT_CONFIG,
    EvolutionConfig,
    PulseSpec,
    calibrate_pulse_amplitude,
    check_leakage,
    kinetic_frequencies,
    pulse_propagator,
)
from .physics import AtomSpecies, BeamGeometry, bragg_resonance, revival_period


@bounded
class EnsembleSpec:
    """Quasimomentum ensemble, the config's ``ensemble`` block: ``samples``
    draws from a Gaussian of rms ``sigma_q_hk`` (hbar k) within the first
    band, reproducibly from ``seed``. At sigma_q_hk = 10 the truncated
    Gaussian is flat across the band to 0.5 %, and the redraw time grows in
    proportion, so a wider one is rejected."""

    samples: Annotated[int, Range(1)] = 200
    sigma_q_hk: Annotated[float, Range(0, 10)] = 0.42
    seed: Annotated[int, NonNegative] = 0

    def draw(self) -> np.ndarray:
        """Quasimomenta (units of hbar k), truncated to the first band by redraw."""
        if self.sigma_q_hk == 0.0:
            return np.zeros(self.samples)
        rng = shot_rng(self.seed, STREAM_QUASIMOMENTUM)
        kept = np.empty(0)
        while len(kept) < self.samples:
            draws = rng.normal(0.0, self.sigma_q_hk, size=2 * self.samples)
            kept = np.concatenate([kept, draws[np.abs(draws) <= 1.0]])
        return kept[:self.samples]


@bounded
class MZISequence:
    """Three-pulse schedule: Bragg order, interrogation time T, the Gaussian
    width sigma of all three pulses (each a 6 sigma window) and the peak Rabi
    frequencies (rad/s) of the pi/2 beamsplitters and the pi mirror. A run
    sets each pulse's detuning, chirp and phase: the sweep rate and the
    final-pulse phase are settings of a run, not of the schedule."""

    order: Annotated[int, Range(1)]
    interrogation_time: float
    pulse_sigma: Annotated[float, Positive]
    beamsplitter_rabi: Annotated[float, NonNegative]
    mirror_rabi: Annotated[float, NonNegative]

    def __post_init__(self):
        half = 6 * self.pulse_sigma   # half of each of two 6 sigma windows
        if not half < self.interrogation_time < math.inf:   # NaN fails too
            raise ValueError(f"interrogation_time {self.interrogation_time} must be "
                             f"finite and exceed the half pulse windows {half}")


def prepare_sequence(
    species: AtomSpecies,
    *,
    order: int,
    interrogation_time: float,
    pulse_sigma: float,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
) -> MZISequence:
    """Calibrate pi/2 and pi amplitudes at q = 0 and assemble the schedule;
    both pulses have width ``pulse_sigma``.

    The pi target of 1.0 resolves to the first-lobe maximum in the
    quasi-Bragg regime, where perfect transfer does not exist.
    """
    om_bs = calibrate_pulse_amplitude(species, 0.5, order, pulse_sigma, cfg=cfg)
    om_pi = calibrate_pulse_amplitude(species, 1.0, order, pulse_sigma, cfg=cfg)
    return MZISequence(order=order, interrogation_time=interrogation_time,
                       pulse_sigma=pulse_sigma, beamsplitter_rabi=om_bs,
                       mirror_rabi=om_pi)


@bounded
class GradiometerSpec:
    """Two simultaneous clouds, the config's ``gradiometer`` block: momenta
    (units hbar k), the BVS pulse separation setting the baseline, and the
    gravity gradient between them. Both clouds run at the sequence order."""

    lower_momentum_hk: int = 8     # the first-launched, faster, lower cloud
    upper_momentum_hk: int = 2
    bvs_separation_s: Annotated[float, Positive] = 50e-3
    gradient_per_s2: Annotated[float, Finite] = 3.0e-6

    def __post_init__(self):
        if (self.lower_momentum_hk - self.upper_momentum_hk) % 2 != 0:
            raise ValueError("cloud momentum difference must be a multiple of 2 hbar k")
        if self.lower_momentum_hk == self.upper_momentum_hk:
            raise ValueError("clouds must have distinct momenta")

    def baseline(self, species: AtomSpecies) -> float:
        """Vertical separation (m): faster-cloud speed times BVS delay."""
        return (abs(self.lower_momentum_hk) * species.recoil_velocity
                * self.bvs_separation_s)

    def check_resolved(self, species: AtomSpecies, pulse_sigma: float) -> None:
        """ValueError unless the Doppler gap 2k * dv between the clouds' Bragg
        resonances is at least 4/sigma (Gaussian spectral overlap below
        ~3e-4): one set of beams drives both clouds."""
        dp = abs(self.lower_momentum_hk - self.upper_momentum_hk)
        product = 4.0 * dp * species.recoil_frequency * pulse_sigma
        if not product >= 4.0:
            raise ValueError(
                f"cloud Bragg resonances overlap within the pulse Fourier width: "
                f"separation*sigma = {product:.2f} < 4"
            )


def _detect(clean_pairs, noise: NoiseModel, rng) -> tuple[np.ndarray, np.ndarray]:
    """Detected (lower, upper) port pairs (n, 2) of the next n shots of the
    detection stream ``rng`` and the normalised population lower / (lower +
    upper) per shot; a shot detecting no atoms reads 0.5."""
    measured = apply_detection_noise(clean_pairs, noise, rng)
    denom = measured[:, 0] + measured[:, 1]
    return measured, np.divide(measured[:, 0], denom, where=denom > 0,
                               out=np.full(len(denom), 0.5))


def _stream(noise: NoiseModel, seed: int, stream: int, first: int = 0):
    """The generator of one noise stream of a run, built once and then read
    in order by ``sample_mirror_phases`` or ``_detect``: the rows of shots
    0, ..., first - 1 are drawn and dropped at most ``_SERIES_CHUNK`` at a
    time, so that the next row read is shot ``first``'s."""
    check("shot_index", first, NonNegative)
    rng = shot_rng(seed, stream)
    for start in range(0, first, _SERIES_CHUNK):
        rows = min(_SERIES_CHUNK, first - start)
        if stream == STREAM_MIRROR:
            sample_mirror_phases(noise, rng, rows)
        else:
            _detect(np.zeros((rows, 2)), noise, rng)
    return rng


_SAMPLE_CHUNK, _SHOT_CHUNK = 1024, 4   # quasimomenta and shots evolved at once
_SERIES_CHUNK = 4096   # shots of a gravity series, or noise rows skipped, at once


class _ShotEngine:
    """One operating point of a run, which only evolves: the schedule
    ``seq`` at ``sweep_rate_offset`` (Hz/s) from resonance."""

    def __init__(self, species, seq, cfg, sweep_rate_offset: float = 0.0):
        check("sweep_rate_offset", sweep_rate_offset)
        delta_res = bragg_resonance(seq.order, species)
        ramp = 2.0 * math.pi * sweep_rate_offset
        d = 6 * seq.pulse_sigma   # every pulse's window
        T = seq.interrogation_time
        tc = [d / 2.0, d / 2.0 + T, d / 2.0 + 2.0 * T]
        starts = [0.0, tc[1] - d / 2.0, tc[2] - d / 2.0]
        self.species, self.cfg, self.gap = species, cfg, T - d

        reach = seq.order + cfg.guard_sites
        self.window, self.sites = (-reach, reach), np.arange(-reach, reach + 1)
        self.ports = {0: reach, seq.order: reach + seq.order}   # site: column
        rabis = [seq.beamsplitter_rabi, seq.mirror_rabi, seq.beamsplitter_rabi]
        self.pulses = [PulseSpec(rabi, seq.pulse_sigma, detuning=delta_res + ramp * t_c,
                                 chirp=ramp / (2.0 * math.pi))
                       for rabi, t_c in zip(rabis, tc)]
        # lattice beat phase theta(t) at each pulse start (phase continuity of
        # the chirped beat), absent from U(0)
        self.beat_phases = [delta_res * t + 0.5 * ramp * t * t for t in starts]

    def populations(self, phases, q, stacks) -> np.ndarray:
        """Site populations (n, W) summed over the quasimomenta ``q`` of n
        shots whose three pulses carry the phases ``phases`` (n, 3), evolved
        ``_SHOT_CHUNK`` shots at a time. Pulse k is U(0) conjugated by
        D(phi_k), phi_k that phase plus the beat phase. ``stacks`` maps a
        pulse to its U(0) at q and gains those it lacks."""
        for pulse in self.pulses:
            if pulse not in stacks:
                stacks[pulse] = pulse_propagator(self.species, pulse, self.window, q,
                                                 self.cfg)
        first, *rest = (stacks[pulse] for pulse in self.pulses)
        free_phase = np.exp(-1j * kinetic_frequencies(self.species, self.sites, q)
                            * self.gap)
        phases = phases + self.beat_phases
        out = []
        for shots in np.split(phases, range(_SHOT_CHUNK, len(phases), _SHOT_CHUNK)):
            # D(phi) per pulse and shot, (3, n, 1, W); the cloud starts in
            # site 0, where D is 1, so the first pulse leaves its column times D
            d = np.exp(-1j * self.sites * shots.T[:, :, None, None])
            psi = d[0] * first[:, :, self.ports[0]]
            for U, dk in zip(rest, d[1:]):
                psi = dk * np.einsum("sij,nsj->nsi", U, np.conj(dk) * free_phase * psi)
            out.append(np.sum(np.abs(psi) ** 2, axis=1))
        return np.concatenate(out)


def _shots(engines, q, final_phases, noise: NoiseModel, master_seed: int,
           first: int = 0, streams=(STREAM_DETECTION,)):
    """Each engine fires one shot per phase of ``final_phases`` on its final
    pulse over the run's draw ``q``. The engines fall into one equal group
    per detection stream of ``streams``, in order, and each group's shots are
    numbered engine by engine from ``first``: the groups share their mirror
    draws (a gradiometer's common mode) and each reads its own detection
    stream. Returns the detected populations of ports 0 and order of all N
    shots, {port: (N,)}, and the normalised populations (N,)."""
    final_phases = np.asarray(final_phases, dtype=float)
    per_group = len(engines) // len(streams)
    n = per_group * len(final_phases)
    if n == 0:
        raise ValueError("a run must fire at least one shot")
    mirror_rng = _stream(noise, master_seed, STREAM_MIRROR, first)
    mirror = sample_mirror_phases(noise, mirror_rng, n)
    commanded = np.zeros((n, 3))
    commanded[:, 2] = np.tile(final_phases, per_group)
    phases = np.split(np.tile(commanded + mirror, (len(streams), 1)), len(engines))
    pops = np.zeros((len(streams) * n, len(engines[0].sites)))
    for chunk in np.array_split(q, -(-len(q) // _SAMPLE_CHUNK)):
        stacks = {}   # shared by the engines, which share species, cfg and window
        pops += np.concatenate([engine.populations(p, chunk, stacks)
                                for engine, p in zip(engines, phases)])
    pops /= len(q)

    check_leakage(pops)
    if np.any(pops < -1e-12) or np.any(pops.sum(axis=1) > 1.0 + 1e-9):
        raise ValueError("site populations must be >= 0 with sum <= 1 + 1e-9")

    ports = engines[0].ports
    detected = [_detect(clean, noise, _stream(noise, master_seed, stream, first))
                for clean, stream in zip(np.split(pops[:, list(ports.values())],
                                                  len(streams)), streams)]
    measured = np.concatenate([pairs for pairs, _ in detected])
    normalized = np.concatenate([values for _, values in detected])
    return dict(zip(ports, measured.T)), normalized


def run_shot(
    species: AtomSpecies,
    ensemble: EnsembleSpec,
    sequence: MZISequence,
    noise: NoiseModel,
    master_seed: int = 0,
    shot_index: int = 0,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
    sweep_rate_offset: float = 0.0,
) -> FringeScan:
    """Shot ``shot_index`` at final-pulse phase 0: the one-point scan of
    ``scan_fringe`` at that shot index."""
    return scan_fringe(species, ensemble, sequence, noise, [0.0], master_seed, cfg,
                       shot_index, sweep_rate_offset)


def scan_fringe(
    species: AtomSpecies,
    ensemble: EnsembleSpec,
    sequence: MZISequence,
    noise: NoiseModel,
    phase_grid,
    master_seed: int = 0,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
    shot_index_offset: int = 0,
    sweep_rate_offset: float = 0.0,
) -> FringeScan:
    """Fringe scan over the final-pulse phase at ``sweep_rate_offset`` (Hz/s)
    from the resonant sweep rate; point i is shot ``shot_index_offset + i``,
    with independent noise per point."""
    grid = np.asarray(phase_grid, dtype=float)
    engine = _ShotEngine(species, sequence, cfg, sweep_rate_offset)
    return FringeScan(grid, *_shots([engine], ensemble.draw(), grid, noise,
                                    master_seed, shot_index_offset))


def scan_sweep_rate(
    species: AtomSpecies,
    ensemble: EnsembleSpec,
    sequence: MZISequence,
    noise: NoiseModel,
    offsets,
    master_seed: int = 0,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Fringe scan over the sweep rate: one shot at final-pulse phase 0 per
    offset (Hz/s) from the resonant sweep rate in ``offsets``, point i shot
    i. Returns the detected port populations {0, order} and the normalised
    populations, one per offset."""
    engines = [_ShotEngine(species, sequence, cfg, float(offset)) for offset in offsets]
    return _shots(engines, ensemble.draw(), [0.0], noise, master_seed)


def interrogation_grid(species: AtomSpecies, interrogation_times) -> np.ndarray:
    """Revival-scan times as an array: at least two, no step above dT/8."""
    times = np.asarray(interrogation_times, dtype=float)
    check_count(len(times), 2, "interrogation times")
    step, limit = np.max(np.diff(times)), revival_period(species) / 8.0
    if step > limit + 1e-12:
        raise ValueError(f"T step {step:.3g}s exceeds revival_period/8 ({limit:.3g}s)")
    return times


def scan_contrast_vs_T(
    species: AtomSpecies,
    ensemble: EnsembleSpec,
    sequence: MZISequence,
    interrogation_times,
    noise: NoiseModel,
    master_seed: int = 0,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
) -> list[tuple[float, float]]:
    """Fringe contrast versus interrogation time (the revival curve), from
    a three-harmonic fit to 24 phases over 4 pi at each T, on the grid of
    ``interrogation_grid``, T k taking shots 24k to 24k + 23. Every shot is
    resonant, so the pulse propagators carry no absolute-time dependence and
    are shared across the whole scan.
    """
    times = interrogation_grid(species, interrogation_times)
    grid = np.linspace(0.0, 4.0 * math.pi, 24, endpoint=False)
    engines = [_ShotEngine(species, replace(sequence, interrogation_time=float(T)), cfg)
               for T in times]
    ports, normalized = _shots(engines, ensemble.draw(), grid, noise, master_seed)
    n = len(grid)
    scans = (FringeScan(grid, {port: v[k:k + n] for port, v in ports.items()},
                        normalized[k:k + n]) for k in range(0, len(normalized), n))
    return [(float(T), fringe_contrast(fit_harmonics(scan, n_harmonics=3)))
            for T, scan in zip(times, scans)]


@dataclass(frozen=True)
class GradiometerResult:
    """Paired fringe scans with common mirror noise."""

    lower: FringeScan
    upper: FringeScan
    baseline: float


def run_gradiometer(
    species: AtomSpecies,
    gspec: GradiometerSpec,
    ensemble: EnsembleSpec,
    sequence: MZISequence,
    noise: NoiseModel,
    phase_grid,
    master_seed: int = 0,
    geometry: BeamGeometry | None = None,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
) -> GradiometerResult:
    """Simultaneous interferometers in two clouds sharing the mirror noise.

    The lower cloud sees G*L more gravity than the upper one, G the
    ``gspec.gradient_per_s2`` and L the baseline. One chirp, resonant at
    their midpoint, drives both, so the clouds run at the opposite sweep-rate
    offsets -/+ k_eff*cos(tilt)*G*L/(4*pi) (Hz/s) from their own resonances.
    Both clouds are driven by the same beams, so their Bragg resonances must
    be resolved (``check_resolved``).
    """
    gspec.check_resolved(species, sequence.pulse_sigma)
    baseline = gspec.baseline(species)
    geometry = geometry or BeamGeometry.vertical(species)
    offset = (geometry.k_eff * geometry.projection * gspec.gradient_per_s2
              * baseline / (4.0 * math.pi))

    # both clouds see the same mirror draws per shot (common mode) and read
    # their own detection streams; at zero gradient their pulses coincide
    # and share their propagators
    grid = np.asarray(phase_grid, dtype=float)
    engines = [_ShotEngine(species, sequence, cfg, sweep_rate_offset)
               for sweep_rate_offset in (-offset, offset)]
    ports, normalized = _shots(engines, ensemble.draw(), grid, noise, master_seed,
                               0, (STREAM_DETECTION, STREAM_DETECTION_UPPER))
    n = len(grid)
    lower, upper = (FringeScan(grid, {port: v[k:k + n] for port, v in ports.items()},
                               normalized[k:k + n]) for k in (0, n))
    return GradiometerResult(lower=lower, upper=upper, baseline=baseline)


@dataclass(frozen=True)
class GravitySeries:
    """Synthetic mid-fringe gravimeter run; recovered gravity is kept as its
    shift from ``mean_gravity``. ``saturated_shots`` readings fell outside
    the monotonic inversion segment and were recovered as its end."""

    times: np.ndarray
    true_gravity: np.ndarray
    normalized_population: np.ndarray
    recovered_shift: np.ndarray
    calibration: HarmonicFit
    bias_phase: float
    mean_gravity: float
    saturated_shots: int


def run_gravity_series(
    species: AtomSpecies,
    ensemble: EnsembleSpec,
    sequence: MZISequence,
    tide: TideModel,
    noise: NoiseModel,
    n_shots: int,
    shot_period: float,
    master_seed: int = 0,
    geometry: BeamGeometry | None = None,
    cfg: EvolutionConfig = DEFAULT_CONFIG,
) -> GravitySeries:
    """Mid-fringe gravity monitoring against a tide model.

    The fringe shape is calibrated once with the full ladder simulation
    (noiseless 48-point scan over 4 pi at the mean gravity, resonant chirp);
    each subsequent shot then enters through the linearized phase response
    of the closed Mach-Zehnder: a gravity change dg translates the fringe
    argument by -k_eff*dg*T^2*cos(tilt), mirror noise adds
    phi1 - 2*phi2 + phi3, and detection noise is applied per port. Recovery
    inverts the calibrated curve around the bias point.
    """
    geometry = geometry or BeamGeometry.vertical(species)
    g0 = tide.mean_gravity
    quiet = replace(noise, mirror_phase_rms_rad=0.0, detection_snr=None)
    grid = np.linspace(0.0, 4.0 * math.pi, 48, endpoint=False)
    cal_scan = scan_fringe(species, ensemble, sequence, quiet, grid,
                           master_seed, cfg)
    fit = fit_harmonics(cal_scan, n_harmonics=3)

    def port_fit(port):
        vals = np.clip(cal_scan.port_populations[port], 0.0, 1.0)
        return fit_harmonics(
            FringeScan(phase_grid=grid, port_populations={port: vals},
                       normalized=vals), n_harmonics=3)

    cal_lo, cal_hi = port_fit(0), port_fit(sequence.order)
    bias, seg_arg, seg_val = _inversion_segment(cal_lo, cal_hi)

    keff, T = geometry.k_eff, sequence.interrogation_time
    times = np.arange(n_shots) * shot_period
    g_true, p_meas, recovered_shift = np.empty(n_shots), np.empty(n_shots), np.empty(n_shots)
    mirror_rng = _stream(noise, master_seed, STREAM_MIRROR)
    detection_rng = _stream(noise, master_seed, STREAM_DETECTION)
    saturated = 0
    for start in range(0, n_shots, _SERIES_CHUNK):
        shots = slice(start, start + _SERIES_CHUNK)
        g_true[shots] = g = synthesize_tide(tide, times[shots])
        proj = tilt_projection_drift(noise, times[shots], base_tilt=geometry.tilt_angle)
        # fringe-argument shift per shot: residual ramp r times T^2, where
        # every shot is chirped resonant for g0 at the base tilt, so that
        # r = k_eff (g0 cos(tilt) - g(t) cos(tilt(t))); zero at the calibration point
        shift = keff * (g0 * geometry.projection - g * proj) * T * T
        mirror = sample_mirror_phases(noise, mirror_rng, len(g))
        arg = bias + shift + (mirror[:, 0] - 2.0 * mirror[:, 1] + mirror[:, 2])
        clean = np.clip(np.column_stack([cal_lo.evaluate(arg), cal_hi.evaluate(arg)]),
                        0.0, 1.0)
        p_meas[shots] = p = _detect(clean, noise, detection_rng)[1]
        # invert through the monotonic segment of the calibrated response,
        # assuming the nominal vertical alignment; np.interp clamps readings
        # outside it, and those are counted
        saturated += int(np.count_nonzero((p < seg_val[0]) | (p > seg_val[-1])))
        recovered_shift[shots] = -(np.interp(p, seg_val, seg_arg) - bias) / (keff * T * T)
    return GravitySeries(times=times, true_gravity=g_true, normalized_population=p_meas,
                         recovered_shift=recovered_shift, calibration=fit, bias_phase=bias,
                         mean_gravity=g0, saturated_shots=saturated)


def _inversion_segment(cal_lo: HarmonicFit, cal_hi: HarmonicFit):
    """The bias phase of a gravity series, the steepest point in [0, 2 pi) of
    the normalised response built on a dense grid from the calibrated port
    curves, and copies of the arguments and values of the monotonic run of
    that response around it, in increasing value. Readings are inverted
    through the same curve, so calibration truncation does not bias the
    recovery; the dense curve is freed before the first shot."""
    dense = np.linspace(-2.0 * math.pi, 4.0 * math.pi, 24576)
    lo_curve = np.clip(cal_lo.evaluate(dense), 0.0, 1.0)
    hi_curve = np.clip(cal_hi.evaluate(dense), 0.0, 1.0)
    response = lo_curve / np.clip(lo_curve + hi_curve, 1e-12, None)
    dresp = np.gradient(response, dense)
    mid = (dense >= 0.0) & (dense < 2.0 * math.pi)
    bias_idx = int(np.argmax(np.abs(dresp) * mid))
    sign = math.copysign(1.0, dresp[bias_idx])
    breaks = np.flatnonzero(sign * dresp <= 0)
    lo_idx = breaks[breaks < bias_idx].max(initial=-1) + 1
    hi_idx = breaks[breaks > bias_idx].min(initial=len(dense)) - 1
    seg_arg, seg_val = dense[lo_idx:hi_idx + 1], response[lo_idx:hi_idx + 1]
    if sign < 0:
        seg_arg, seg_val = seg_arg[::-1], seg_val[::-1]
    return float(dense[bias_idx]), seg_arg.copy(), seg_val.copy()
