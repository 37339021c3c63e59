"""Batch front-end: parse an experiment configuration, run one pipeline and
emit plot-ready CSV tables plus a deterministic JSON summary.

Subcommands: pulse, bvs, fringe, revivals, gradiometer, gravity-run, allan,
class-oracle, calibrate. Exit codes: 0 ok, 1 configuration error,
2 numerical error (including a NaN or infinite result, which never reaches
summary.json).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, bloch, sequence
from .config import (ConfigError, ExperimentConfig, at_key, echo_config, load_config,
                     resolved_dict)
from .ladder import calibrate_pulse_amplitude, plane_wave_state, apply_pulse
from .physics import resonant_sweep_rate, revival_period
from .report import versions, write_run_meta, write_summary, write_table


def _resolve_sequence(cfg: ExperimentConfig, species, evolution):
    plan = cfg.sequence.resolve()   # the schedule before calibration
    return sequence.prepare_sequence(
        species,
        order=plan.order,
        interrogation_time=plan.interrogation_time,
        pulse_sigma=plan.beamsplitter.sigma,
        mirror_sigma=plan.mirror.sigma,
        sweep_rate=plan.sweep_rate,
        phase_offset=plan.phase_offset,
        cfg=evolution,
    )


def _require_scan(cfg: ExperimentConfig, *targets: str):
    if cfg.scan.target not in targets:
        raise ConfigError("scan.target", "subcommand requires target "
                          f"{' or '.join(map(repr, targets))}, "
                          f"got {cfg.scan.target!r}")
    return cfg.scan.grid()


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


def cmd_calibrate(cfg: ExperimentConfig, out: Path) -> dict:
    species = cfg.species.resolve()
    evolution = cfg.evolution.resolve()
    blk = cfg.pulse
    omega0 = calibrate_pulse_amplitude(
        species, blk.transfer_target, blk.order, blk.sigma_s, cfg=evolution)
    return {
        "omega0_rad_s": omega0,
        "order": blk.order,
        "sigma_s": blk.sigma_s,
        "transfer_target": blk.transfer_target,
    }


def cmd_pulse(cfg: ExperimentConfig, out: Path) -> dict:
    species = cfg.species.resolve()
    evolution = cfg.evolution.resolve()
    blk = cfg.pulse
    if blk.rabi_peak_rad_s == "calibrated":
        omega0 = calibrate_pulse_amplitude(
            species, blk.transfer_target, blk.order, blk.sigma_s, cfg=evolution)
    else:
        omega0 = float(blk.rabi_peak_rad_s)
    pulse = dataclasses.replace(blk.resolve(), rabi_peak=omega0)
    psi = plane_wave_state(species, quasimomentum=blk.quasimomentum_hk,
                           guard=blk.order + evolution.ladder_guard_sites)
    final = apply_pulse(psi, pulse, evolution)
    rows = [(int(n), float(p)) for n, p in sorted(final.populations().items())]
    write_table(out, "pulse_populations", ["site", "population"], rows)
    return {
        "omega0_rad_s": omega0,
        "norm": final.norm,
        "transfer": final.population(blk.order),
    }


def cmd_bvs(cfg: ExperimentConfig, out: Path) -> dict:
    species = cfg.species.resolve()
    evolution = cfg.evolution.resolve()
    ramp = cfg.bvs.resolve()
    momenta_hk = np.linspace(cfg.bvs.profile_min_hk, cfg.bvs.profile_max_hk,
                             cfg.bvs.profile_points)
    eff = bloch.selection_profile(species, ramp, momenta_hk, evolution)
    write_table(out, "bvs_profile", ["momentum_hk", "transfer"],
                [(float(p), float(e)) for p, e in zip(momenta_hk, eff)])
    center = float(eff[np.argmin(np.abs(momenta_hk))])
    half = eff.max() / 2.0
    above = momenta_hk[eff >= half]
    return {
        "center_transfer": center,
        "profile_fwhm_hk": float(above.max() - above.min()) if len(above) else 0.0,
        "sweep_duration_s": ramp.resolved_sweep_duration(species),
    }


def cmd_fringe(cfg: ExperimentConfig, out: Path) -> dict:
    grid = _require_scan(cfg, "phase", "sweep_rate")
    species = cfg.species.resolve()
    evolution = cfg.evolution.resolve()
    geometry = cfg.geometry.resolve(species)
    ens = cfg.ensemble.resolve()
    noise = cfg.noise.resolve()
    seq = _resolve_sequence(cfg, species, evolution)

    if cfg.scan.target == "phase":
        scan = sequence.scan_fringe(species, ens, seq, cfg.gravity_m_s2, noise,
                                    grid, cfg.seed, geometry, evolution)
        x_name = "phase_rad"
        rows = list(zip(scan.phase_grid.tolist(),
                        scan.port_populations[0].tolist(),
                        scan.port_populations[seq.order].tolist(),
                        scan.normalized.tolist()))
    else:
        # offsets (Hz/s) from the resonant rate; point i is run_shot number i
        a0 = resonant_sweep_rate(cfg.gravity_m_s2, geometry)
        x_name = "sweep_rate_offset_hz_per_s"
        rows = []
        for i, da in enumerate(grid.tolist()):
            shot = sequence.run_shot(
                species, ens, dataclasses.replace(seq, sweep_rate=a0 + da),
                cfg.gravity_m_s2, noise, cfg.seed, i, geometry, evolution)
            rows.append((da, shot.measured_ports[0],
                         shot.measured_ports[seq.order],
                         shot.normalized_population))

    write_table(out, "fringe", [x_name, "port0", f"port{seq.order}",
                                "normalized"], rows)
    summary = {"beamsplitter_omega0": seq.beamsplitter.rabi_peak,
               "mirror_omega0": seq.mirror.rabi_peak}
    if cfg.scan.target == "phase":
        fit = analysis.fit_harmonics(scan, n_harmonics=3)
        summary["fit"] = _fit_summary(fit)
    return summary


def cmd_revivals(cfg: ExperimentConfig, out: Path) -> dict:
    times = _require_scan(cfg, "interrogation_time")
    if len(times) < 8:
        raise ConfigError("scan.points", "revivals fits a period to at least "
                          f"8 interrogation times, got {len(times)}")
    species = cfg.species.resolve()
    with at_key("scan.points"):
        sequence.interrogation_grid(species, times)
    evolution = cfg.evolution.resolve()
    geometry = cfg.geometry.resolve(species)
    ens = cfg.ensemble.resolve()
    noise = cfg.noise.resolve()
    seq = _resolve_sequence(cfg, species, evolution)
    curve = sequence.scan_contrast_vs_T(species, ens, seq, times,
                                        cfg.gravity_m_s2, noise, cfg.seed,
                                        geometry=geometry, cfg=evolution)
    write_table(out, "revivals", ["interrogation_time_s", "contrast"],
                [(float(t), float(c)) for t, c in curve])
    dT = revival_period(species)
    period, t_peak = analysis.fit_revival_period(
        [t for t, _ in curve], [c for _, c in curve], 0.7 * dT, 1.3 * dT)
    return {
        "revival_period_s": dT,
        "fitted_period_s": period,
        "fitted_first_maximum_s": t_peak,
        "period_ratio": period / dT,
    }


def cmd_gradiometer(cfg: ExperimentConfig, out: Path) -> dict:
    grid = _require_scan(cfg, "phase")
    species = cfg.species.resolve()
    evolution = cfg.evolution.resolve()
    ens = cfg.ensemble.resolve()
    noise = cfg.noise.resolve()
    gspec = cfg.gradiometer.resolve()
    seq = _resolve_sequence(cfg, species, evolution)
    res = sequence.run_gradiometer(species, gspec, ens, seq, cfg.gravity_m_s2,
                                   cfg.gradiometer.gradient_per_s2, noise,
                                   grid, cfg.seed, evolution)
    rows = list(zip(grid.tolist(), res.lower.normalized.tolist(),
                    res.upper.normalized.tolist()))
    write_table(out, "gradiometer", ["phase_rad", "p_lower", "p_upper"], rows)
    fit_lo = analysis.fit_harmonics(res.lower, 3)
    fit_up = analysis.fit_harmonics(res.upper, 3)
    d_lo, m_lo = analysis.extract_shot_phases(res.lower, fit_lo)
    d_up, m_up = analysis.extract_shot_phases(res.upper, fit_up)
    keep = m_lo & m_up
    summary = {
        "baseline_m": res.baseline,
        "gravity_lower": res.gravity_lower,
        "gravity_upper": res.gravity_upper,
        "fit_lower": _fit_summary(fit_lo),
        "fit_upper": _fit_summary(fit_up),
        "retained_shots": int(keep.sum()),
    }
    if keep.sum() >= 10:
        _, _, r = analysis.gradiometer_correlation(d_lo[keep], d_up[keep])
        summary["pearson_r"] = r
        summary["differential_phase_std"] = float(np.std(d_lo[keep] - d_up[keep]))
    return summary


def _gravity_series(cfg: ExperimentConfig):
    species = cfg.species.resolve()
    evolution = cfg.evolution.resolve()
    geometry = cfg.geometry.resolve(species)
    ens = cfg.ensemble.resolve()
    noise = cfg.noise.resolve()
    tide = cfg.tide.resolve()
    seq = _resolve_sequence(cfg, species, evolution)
    series = sequence.run_gravity_series(
        species, ens, seq, tide, noise, cfg.gravity_run.shots,
        cfg.gravity_run.shot_period_s, cfg.seed, geometry, evolution)
    return species, tide, series


def cmd_gravity_run(cfg: ExperimentConfig, out: Path) -> dict:
    bin_size = cfg.gravity_run.bin_size
    if bin_size > cfg.gravity_run.shots:
        raise ConfigError("gravity_run.bin_size", f"bin of {bin_size} shots "
                          f"exceeds the {cfg.gravity_run.shots} shots of the run")
    species, tide, series = _gravity_series(cfg)
    g0 = series.mean_gravity
    rows = list(zip(series.times.tolist(), series.true_gravity.tolist(),
                    series.normalized_population.tolist(),
                    series.recovered_gravity.tolist()))
    write_table(out, "gravity_series",
                ["time_s", "gravity_true", "normalized_population",
                 "gravity_recovered"], rows)
    means, errs = analysis.bin_timeseries(series.recovered_shift, bin_size)
    t_bins, _ = analysis.bin_timeseries(series.times, bin_size)
    write_table(out, "gravity_binned",
                ["time_s", "gravity_mean", "gravity_stderr"],
                list(zip(t_bins.tolist(), (g0 + means).tolist(), errs.tolist())))
    summary = {
        "bias_phase_rad": series.bias_phase,
        "calibration": _fit_summary(series.calibration),
        "mean_gravity": g0,
        "saturated_shots": series.saturated_shots,
        "components": [],
    }
    freqs = [c.angular_frequency for c in tide.components]
    if freqs and len(means) > 2 * len(freqs) + 2:
        sigmas = None
        if bin_size > 1 and np.all(np.isfinite(errs)) and np.all(errs > 0):
            sigmas = errs
        _, comps = analysis.fit_harmonic_components(t_bins, means, freqs,
                                                    weights=sigmas)
        for comp, (amp, phase, se) in zip(tide.components, comps):
            summary["components"].append({
                "angular_frequency_rad_s": comp.angular_frequency,
                "amplitude_injected": comp.amplitude,
                "amplitude_recovered": amp,
                "amplitude_stderr": se,
                "phase_recovered": phase,
            })
    return summary


def cmd_allan(cfg: ExperimentConfig, out: Path) -> dict:
    with at_key("gravity_run.shots"):
        analysis.check_allan_length(cfg.gravity_run.shots)
    species, tide, series = _gravity_series(cfg)
    frac = series.recovered_shift / series.mean_gravity
    curve = analysis.allan_deviation(frac, cfg.gravity_run.shot_period_s)
    write_table(out, "allan", ["tau_s", "allan_deviation"],
                list(zip(curve.taus.tolist(), curve.values.tolist())))
    slope = None
    if len(curve.taus) >= 3:
        slope = float(np.polyfit(np.log(curve.taus), np.log(curve.values), 1)[0])
    return {
        "points": len(curve.taus),
        "loglog_slope": slope,
        "notices": list(curve.notices),
        "last_tau_s": float(curve.taus[-1]),
        "last_value": float(curve.values[-1]),
        "saturated_shots": series.saturated_shots,
    }


def cmd_class_oracle(cfg: ExperimentConfig, out: Path) -> dict:
    species = cfg.species.resolve()
    blk = cfg.class_oracle
    times = np.linspace(blk.time_min_s, blk.time_max_s, blk.time_points)
    rows = []
    for t in times:
        enum = analysis.enumerate_interferometer_class(
            blk.class_index, range(blk.a_min, blk.a_max + 1), float(t), species)
        rows.append((float(t), enum.contrast_proxy))
    write_table(out, "class_oracle", ["interrogation_time_s", "contrast_proxy"],
                rows)
    return {
        "class_index": blk.class_index,
        "revival_period_s": revival_period(species),
        "trajectories": blk.a_max - blk.a_min + 1,
    }


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
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out_dir is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        results = _COMMANDS[args.subcommand](cfg, out)
        # out_dir is execution context, not a physics input: it lives in
        # run_meta so the summary stays byte-stable across runs
        summary_config = {k: v for k, v in resolved_dict(cfg).items()
                          if k != "out_dir"}
        write_summary(out, {
            "subcommand": args.subcommand,
            "config": summary_config,
            "results": results,
            "versions": versions(),
        })
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    (out / "resolved_config.yaml").write_text(echo_config(cfg))
    write_run_meta(out, time.perf_counter() - started,
                   output_directory=str(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
