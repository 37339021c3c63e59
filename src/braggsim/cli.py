"""Batch front-end: parse an experiment configuration, run one pipeline and
emit plot-ready CSV tables plus a deterministic JSON summary.

Subcommands: pulse, bvs, fringe, revivals, gradiometer, gravity-run, allan,
class-oracle, calibrate. A ``cmd_*`` returns its results and its tables,
``{name: (header, columns)}`` with each column a 1-D integer or float array,
all of one length, and writes nothing; ``main`` writes every file.
Exit codes: 0 ok, 1 configuration error (an unreadable config or unusable
out_dir too, named ``config <path>`` or ``out_dir <path>``), 2 numerical
error (a NaN or infinite result or cell too) or write error (an OSError).
A run first removes every file a run of any subcommand writes (``_FILES``);
a failed run, whatever the cause, leaves none of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, bloch, sequence
from .config import ConfigError, Run, at_key, echo_config, load_config, parse_config, resolve
from .ladder import calibrate_pulse_amplitude, plane_wave_state, apply_pulse
from .physics import revival_period
from .report import versions, write_run_meta, write_summary, write_table


def _calibrated(run: Run):
    """The run's schedule with calibrated pulse amplitudes."""
    plan = run.plan
    return sequence.prepare_sequence(
        run.species, order=plan.order, interrogation_time=plan.interrogation_time,
        pulse_sigma=plan.pulse_sigma, cfg=run.config.evolution)


def _require_scan(scan, *targets: str):
    """The scan's grid; a phase scan is one the three-harmonic fit takes."""
    if scan.target not in targets:
        raise ConfigError("scan.target", "subcommand requires target "
                          f"{' or '.join(map(repr, targets))}, "
                          f"got {scan.target!r}")
    grid = scan.grid()
    if scan.target == "phase":
        with at_key("scan"):
            analysis.check_fringe_grid(grid, 3)
    return grid


def _fit_summary(fit):
    return {
        "offset": fit.offset,
        "amplitudes": list(fit.amplitudes),
        "phases": list(fit.phases),
        "residual_rms": fit.residual_rms,
        "dominant_harmonic": fit.dominant_harmonic,
        "contrast": analysis.fringe_contrast(fit),
        "contrast_clamped": fit.extrema()[1] < 0.0,
    }


def cmd_calibrate(run: Run) -> tuple[dict, dict]:
    blk = run.config.pulse
    omega0 = calibrate_pulse_amplitude(
        run.species, blk.transfer_target, blk.order, blk.sigma_s, run.config.evolution)
    return {
        "omega0_rad_s": omega0,
        "order": blk.order,
        "sigma_s": blk.sigma_s,
        "transfer_target": blk.transfer_target,
    }, {}


def cmd_pulse(run: Run) -> tuple[dict, dict]:
    blk = run.config.pulse
    if blk.rabi_peak_rad_s == "calibrated":
        omega0 = cmd_calibrate(run)[0]["omega0_rad_s"]
    else:
        omega0 = float(blk.rabi_peak_rad_s)
    psi = plane_wave_state(run.species, quasimomentum=blk.quasimomentum_hk)
    final = apply_pulse(psi, dataclasses.replace(run.pulse, rabi_peak=omega0),
                        run.config.evolution)
    return {
        "omega0_rad_s": omega0,
        "norm": final.norm,
        "transfer": final.population(blk.order),
    }, {"pulse_populations": (["site", "population"],
                              (final.sites, np.abs(final.amplitudes) ** 2))}


def cmd_bvs(run: Run) -> tuple[dict, dict]:
    blk = run.config.bvs
    momenta_hk = np.linspace(blk.profile_min_hk, blk.profile_max_hk,
                             blk.profile_points)
    eff = bloch.selection_profile(run.species, run.ramp, momenta_hk, run.config.evolution)
    center = float(eff[np.argmin(np.abs(momenta_hk))])
    above = momenta_hk[eff >= eff.max() / 2.0]
    return {
        "center_transfer": center,
        "profile_fwhm_hk": float(above.max() - above.min()) if len(above) else 0.0,
        "sweep_duration_s": run.ramp.resolved_sweep_duration(run.species),
    }, {"bvs_profile": (["momentum_hk", "transfer"], (momenta_hk, eff))}


def cmd_fringe(run: Run) -> tuple[dict, dict]:
    cfg = run.config
    grid = _require_scan(cfg.scan, "phase", "sweep_rate")
    seq = _calibrated(run)

    args = (run.species, cfg.ensemble, seq, cfg.noise, grid, cfg.seed, cfg.evolution)
    if cfg.scan.target == "phase":
        scan = sequence.scan_fringe(*args)
        x_name, ports, normalized = "phase_rad", scan.port_populations, scan.normalized
    else:
        # offsets (Hz/s) from the resonant rate, one shot each at phase 0
        x_name = "sweep_rate_offset_hz_per_s"
        ports, normalized = sequence.scan_sweep_rate(*args)
    header = [x_name, "port0", f"port{seq.order}", "normalized"]
    summary = {"beamsplitter_omega0": seq.beamsplitter_rabi,
               "mirror_omega0": seq.mirror_rabi}
    if cfg.scan.target == "phase":
        summary["fit"] = _fit_summary(analysis.fit_harmonics(scan, n_harmonics=3))
    return summary, {"fringe": (header, (grid, ports[0], ports[seq.order], normalized))}


def cmd_revivals(run: Run) -> tuple[dict, dict]:
    cfg = run.config
    times = _require_scan(cfg.scan, "interrogation_time")
    with at_key("scan.points"):
        analysis.check_count(len(times), analysis.REVIVAL_MIN_TIMES,
                             "interrogation times")
        sequence.interrogation_grid(run.species, times)
    with at_key("scan.start"):   # the shortest T must clear the pulse windows
        dataclasses.replace(run.plan, interrogation_time=float(times[0]))
    curve = sequence.scan_contrast_vs_T(run.species, cfg.ensemble, _calibrated(run),
                                        times, cfg.noise, cfg.seed, cfg.evolution)
    dT = revival_period(run.species)
    columns = tuple(np.array(curve).T)   # interrogation times, contrasts
    period, t_peak = analysis.fit_revival_period(*columns, 0.7 * dT, 1.3 * dT)
    return {
        "revival_period_s": dT,
        "fitted_period_s": period,
        "fitted_first_maximum_s": t_peak,
        "period_ratio": period / dT,
    }, {"revivals": (["interrogation_time_s", "contrast"], columns)}


def cmd_gradiometer(run: Run) -> tuple[dict, dict]:
    cfg = run.config
    grid = _require_scan(cfg.scan, "phase")
    with at_key("gradiometer"):
        cfg.gradiometer.check_resolved(run.species, run.plan.pulse_sigma)
    res = sequence.run_gradiometer(run.species, cfg.gradiometer, cfg.ensemble,
                                   _calibrated(run), cfg.noise, grid, cfg.seed,
                                   run.geometry, cfg.evolution)
    fit_lo = analysis.fit_harmonics(res.lower, 3)
    fit_up = analysis.fit_harmonics(res.upper, 3)
    d_lo, m_lo = analysis.extract_shot_phases(res.lower, fit_lo)
    d_up, m_up = analysis.extract_shot_phases(res.upper, fit_up)
    keep = m_lo & m_up
    summary = {
        "baseline_m": res.baseline,
        # gravity_m_s2 is read only here: the clouds run at their offsets
        "gravity_lower": (cfg.gravity_m_s2
                          + cfg.gradiometer.gradient_per_s2 * res.baseline),
        "gravity_upper": cfg.gravity_m_s2,
        "fit_lower": _fit_summary(fit_lo),
        "fit_upper": _fit_summary(fit_up),
        "retained_shots": int(keep.sum()),
    }
    if keep.sum() >= analysis.CORRELATION_MIN_SHOTS:
        _, _, r = analysis.gradiometer_correlation(d_lo[keep], d_up[keep])
        summary["pearson_r"] = r
        summary["differential_phase_std"] = float(np.std(d_lo[keep] - d_up[keep]))
    return summary, {"gradiometer": (["phase_rad", "p_lower", "p_upper"],
                                     (grid, res.lower.normalized, res.upper.normalized))}


def _gravity_series(run: Run):
    cfg = run.config
    return sequence.run_gravity_series(
        run.species, cfg.ensemble, _calibrated(run), run.tide, cfg.noise,
        cfg.gravity_run.shots, cfg.gravity_run.shot_period_s, cfg.seed,
        run.geometry, cfg.evolution)


def cmd_gravity_run(run: Run) -> tuple[dict, dict]:
    shots, bin_size = run.config.gravity_run.shots, run.config.gravity_run.bin_size
    with at_key("gravity_run.bin_size"):
        analysis.check_count(shots, bin_size, "samples for one bin")
    freqs = [c.angular_frequency for c in run.tide.components]
    if freqs:   # the tide fit: an offset, two terms a component and two bins to spare
        with at_key("gravity_run.shots"):
            analysis.check_count(shots // bin_size, 2 * len(freqs) + 3, "tide-fit bins")
    series = _gravity_series(run)
    g0 = series.mean_gravity
    means, errs = analysis.bin_timeseries(series.recovered_shift, bin_size)
    t_bins, _ = analysis.bin_timeseries(series.times, bin_size)
    tables = {
        "gravity_series": (
            ["time_s", "gravity_true", "normalized_population", "gravity_recovered"],
            (series.times, series.true_gravity, series.normalized_population,
             g0 + series.recovered_shift)),
        "gravity_binned": (
            ["time_s", "gravity_mean", "gravity_stderr"], (t_bins, g0 + means, errs)),
    }
    summary = {
        "bias_phase_rad": series.bias_phase,
        "calibration": _fit_summary(series.calibration),
        "mean_gravity": g0,
        "saturated_shots": series.saturated_shots,
        "components": [],
    }
    if freqs:
        sigmas = errs if np.all(errs > 0) else None
        _, comps = analysis.fit_harmonic_components(t_bins, means, freqs,
                                                    weights=sigmas)
        for comp, (amp, phase, se) in zip(run.tide.components, comps):
            summary["components"].append({
                "angular_frequency_rad_s": comp.angular_frequency,
                "amplitude_injected": comp.amplitude,
                "amplitude_recovered": amp,
                "amplitude_stderr": se,
                "phase_recovered": phase,
            })
    return summary, tables


def cmd_allan(run: Run) -> tuple[dict, dict]:
    with at_key("gravity_run.shots"):
        analysis.check_count(run.config.gravity_run.shots,
                             analysis.ALLAN_MIN_SAMPLES, "samples")
    series = _gravity_series(run)
    frac = series.recovered_shift / series.mean_gravity
    curve = analysis.allan_deviation(frac, run.config.gravity_run.shot_period_s)
    slope = None
    if len(curve.taus) >= 3 and np.all(curve.values > 0):   # a noise-free run is all 0
        slope = float(np.polyfit(np.log(curve.taus), np.log(curve.values), 1)[0])
    return {
        "points": len(curve.taus),
        "loglog_slope": slope,
        "notices": list(curve.notices),
        "last_tau_s": float(curve.taus[-1]),
        "last_value": float(curve.values[-1]),
        "saturated_shots": series.saturated_shots,
    }, {"allan": (["tau_s", "allan_deviation"], (curve.taus, curve.values))}


def cmd_class_oracle(run: Run) -> tuple[dict, dict]:
    blk = run.config.class_oracle
    times = np.linspace(blk.time_min_s, blk.time_max_s, blk.time_points)
    proxy = np.array([analysis.class_contrast_proxy(
        blk.class_index, range(blk.a_min, blk.a_max + 1), t, run.species)
        for t in times.tolist()])
    return {
        "class_index": blk.class_index,
        "revival_period_s": revival_period(run.species),
        "trajectories": blk.a_max - blk.a_min + 1,
    }, {"class_oracle": (["interrogation_time_s", "contrast_proxy"], (times, proxy))}


# every CSV table of every subcommand, each written as <name>.csv
_TABLES = ("pulse_populations", "bvs_profile", "fringe", "revivals", "gradiometer",
           "gravity_series", "gravity_binned", "allan", "class_oracle")

# every file a run of any subcommand writes
_FILES = ("summary.json", "resolved_config.yaml", "run_meta.json",
          *(f"{table}.csv" for table in _TABLES))

_COMMANDS = {
    "pulse": cmd_pulse,
    "bvs": cmd_bvs,
    "fringe": cmd_fringe,
    "revivals": cmd_revivals,
    "gradiometer": cmd_gradiometer,
    "gravity-run": cmd_gravity_run,
    "allan": cmd_allan,
    "class-oracle": cmd_class_oracle,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="braggsim",
        description="Bragg-diffraction atom gravimeter simulator")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="experiment configuration (YAML)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--out-dir", default=None,
                        help="override the output directory")
    args = parser.parse_args(argv)

    try:
        overrides = {"seed": args.seed, "out_dir": args.out_dir}
        cfg = parse_config({**dataclasses.asdict(load_config(args.config)), **{
            key: value for key, value in overrides.items() if value is not None}})
        run = resolve(cfg)
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name in _FILES:   # an earlier run's files would read as this run's
                (out / name).unlink(missing_ok=True)
        except OSError as exc:
            raise ConfigError(f"out_dir {out}", str(exc)) from exc
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        results, tables = _COMMANDS[args.subcommand](run)
        # out_dir is execution context, not a physics input: it lives in
        # run_meta so the summary stays byte-stable across runs
        summary_config = {k: v for k, v in dataclasses.asdict(cfg).items()
                          if k != "out_dir"}
        # the summary first: a non-finite result fails before any file is written
        write_summary(out, {
            "subcommand": args.subcommand,
            "config": summary_config,
            "results": results,
            "versions": versions(),
        })
        for name, (header, columns) in tables.items():
            write_table(out, name, header, columns)
        (out / "resolved_config.yaml").write_text(echo_config(cfg))
        write_run_meta(out, time.perf_counter() - started, output_directory=str(out))
    except BaseException as exc:
        for name in _FILES:   # a failed run's files would read as a finished run
            (out / name).unlink(missing_ok=True)
        if isinstance(exc, ConfigError):
            print(f"configuration error: {exc}", file=sys.stderr)
            return 1
        if isinstance(exc, OSError):
            print(f"write error: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, Exception):
            print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
