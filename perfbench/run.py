"""Benchmark for braggsim: each workload is a fresh, single-process run of the
``braggsim`` command line, timed end to end, with its outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ``./src`` and
from nowhere else. ``--workload all`` runs every workload in turn. Child
processes run one at a time, with BLAS thread pools capped at ``nproc``.

With ``--trace 0`` a run warms the byte-code and file caches with one
untimed start, then repeats the full workload (at least once) for about
``--seconds``, and tops up the set-up samples to five with starts that stop
once the configuration is loaded. It reports medians:

  setup_s      process start until ``load_config`` returns (interpreter,
               ``import braggsim``, YAML parsing)
  run_s        wall time of ``braggsim.cli.main``: solve, analysis, output
  peak_rss_mb  the child process's maximum resident set size

With ``--trace 1`` it alternates two untraced and two traced runs of the
same seed, in which every layer's public functions are wrapped in spans
(see ``tracer.py``), and reports the per-layer metrics of ``PER_LAYER``. The
counts named in ``REPEATABLE`` must agree exactly between the two traced
runs.

Every run's outputs are checked: every number in ``summary.json`` and in
every CSV must be finite, the CSVs must have one row per grid point or shot,
repeated runs of one seed must write the same ``summary.json``, and the
physics must match the committed references within the tolerances below. A
run that exits non-zero or fails a check counts in ``failed``. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORKLOAD_DIR = HERE / "workloads"
RUN_TIMEOUT_S = 150.0
SETUP_SAMPLES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# name -> unit; guards are physics results kept beside the timings so that a
# speed-up which moves the physics shows (0 where a workload has no such
# result)
PER_LAYER = {
    "config.load_s": "s",
    "ladder.calibrate_s": "s",
    "ladder.calibrate_calls": "count",
    "ladder.solves_per_calibration": "count",
    "ladder.propagator_s": "s",
    "ladder.propagator_calls": "count",
    "ladder.unitarity_err": "ratio",
    "ladder.solves": "count",
    "ladder.rhs_evals": "count",
    "ladder.steps": "count",
    "bloch.accelerate_s": "s",
    "bloch.accelerate_calls": "count",
    "sequence.scan_self_s": "s",
    "sequence.shots": "count",
    "environment.rng_s": "s",
    "environment.rng_builds": "count",
    "environment.rng_builds_per_shot": "ratio",
    "environment.noise_s": "s",
    "analysis.fit_s": "s",
    "analysis.evaluate_s": "s",
    "analysis.evaluate_calls": "count",
    "analysis.series_s": "s",
    "report.write_s": "s",
    "report.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "guard.harmonic1_amp": "ratio",
    "guard.harmonic2_amp": "ratio",
    "guard.harmonic3_amp": "ratio",
    "guard.contrast": "ratio",
    "guard.tide_err_stderr": "stderr",   # |recovered - injected| / stderr
    "guard.bvs_center_transfer": "ratio",
    "guard.bvs_fwhm_hk": "hk",
    "src.lines": "count",
}

REPEATABLE = ("ladder.solves", "ladder.rhs_evals", "sequence.shots",
              "environment.rng_builds")

# shares of the traced run time printed per workload: each workload was
# chosen for the one of these it spends most of its time in
SHARES = {
    "calibration": ("ladder.calibrate_s",),
    "propagators": ("ladder.propagator_s",),
    "bloch": ("bloch.accelerate_s",),
    "shot loop": ("sequence.scan_self_s", "environment.rng_s",
                  "environment.noise_s", "analysis.evaluate_s"),
    "report": ("report.write_s",),
}


# --------------------------------------------------------------------------
# workloads and their output checks
# --------------------------------------------------------------------------

def _harmonics(fit: dict) -> dict:
    amps = list(fit["amplitudes"]) + [0.0, 0.0, 0.0]
    return {f"guard.harmonic{m}_amp": float(amps[m - 1]) for m in (1, 2, 3)}


def fringe_judge(dominant: int, amplitude: float, amplitude_tol: float,
                 contrast: float, contrast_tol: float):
    """Fringe check: the dominant harmonic, its amplitude and the contrast
    near the reference."""

    def judge(results: dict):
        fit = results["fit"]
        guards = {**_harmonics(fit), "guard.contrast": fit["contrast"]}
        problems = []
        if fit["dominant_harmonic"] != dominant:
            problems.append(f"dominant harmonic {fit['dominant_harmonic']}, "
                            f"expected {dominant}")
        amp = fit["amplitudes"][dominant - 1]
        if abs(amp - amplitude) > amplitude_tol:
            problems.append(f"harmonic {dominant} amplitude {amp:.4f}, expected "
                            f"{amplitude} +- {amplitude_tol}")
        if abs(fit["contrast"] - contrast) > contrast_tol:
            problems.append(f"contrast {fit['contrast']:.4f}, expected "
                            f"{contrast} +- {contrast_tol}")
        return problems, guards

    return judge


# over 30 noise seeds the error was 0.5 +- 0.7 stderr, at most 3.1; 5 stderr
# is about 3 % of the injected amplitude
TIDE_STDERR_LIMIT = 5.0


def tide_judge(results: dict):
    """Recovered tide amplitude within a few standard errors of the injected
    one."""
    comp = results["components"][0]
    err = ((comp["amplitude_recovered"] - comp["amplitude_injected"])
           / comp["amplitude_stderr"])
    guards = {**_harmonics(results["calibration"]),
              "guard.tide_err_stderr": abs(err)}
    problems = []
    if not abs(err) <= TIDE_STDERR_LIMIT:
        problems.append(f"tide amplitude off by {err:.2f} stderr "
                        f"(limit {TIDE_STDERR_LIMIT})")
    return problems, guards


def bvs_judge(centre: float, centre_tol: float, fwhm: float, fwhm_tol: float):
    """Selection profile: centre transfer and width near the reference."""

    def judge(results: dict):
        c, w = results["center_transfer"], results["profile_fwhm_hk"]
        guards = {"guard.bvs_center_transfer": c, "guard.bvs_fwhm_hk": w}
        problems = []
        if abs(c - centre) > centre_tol:
            problems.append(f"centre transfer {c:.5f}, expected "
                            f"{centre:.5f} +- {centre_tol}")
        if abs(w - fwhm) > fwhm_tol:
            problems.append(f"profile FWHM {w:.4f} hk, expected {fwhm:.4f}")
        return problems, guards

    return judge


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: subcommand, config, expected CSV row counts (from
    the resolved config in summary.json) and the physics check."""

    name: str
    subcommand: str
    config: Path
    rows: Callable[[dict], dict]
    judge: Callable[[dict], tuple]


WORKLOADS = {w.name: w for w in (
    # fringe references: means of the initial implementation over 400 noise
    # seeds, with tolerances of at least 4.5 standard deviations of the
    # seed-to-seed noise, which leaves room for numerics that change per-shot
    # numbers but not the physics; the BVS profile does not use the seed
    Workload("bragg_calibration", "fringe",
             WORKLOAD_DIR / "bragg_calibration.yaml",
             lambda c: {"fringe": c["scan"]["points"]},
             fringe_judge(2, 0.498, 0.03, 0.998, 0.05)),
    Workload("quasibragg_ensemble", "fringe",
             WORKLOAD_DIR / "quasibragg_ensemble.yaml",
             lambda c: {"fringe": c["scan"]["points"]},
             fringe_judge(1, 0.272, 0.05, 0.867, 0.15)),
    Workload("tide_run", "gravity-run", WORKLOAD_DIR / "tide_run.yaml",
             lambda c: {"gravity_series": c["gravity_run"]["shots"],
                        "gravity_binned": c["gravity_run"]["shots"]
                        // c["gravity_run"]["bin_size"]},
             tide_judge),
    Workload("bvs_profile", "bvs", WORKLOAD_DIR / "bvs_profile.yaml",
             lambda c: {"bvs_profile": c["bvs"]["profile_points"]},
             bvs_judge(0.992, 0.01, 1.6, 1e-6)),
)}


def _is_nonfinite(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False   # not a number


def _nonfinite(value, where: str) -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _nonfinite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _nonfinite(v, f"{where}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{where} is {value}"]
    return []


def check_outputs(workload: Workload, out: Path) -> tuple[list[str], dict, str]:
    """Problems found in one run's output directory, its guard values and
    the summary.json text."""
    try:
        text = (out / "summary.json").read_text()
        summary = json.loads(text)
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"], {}, ""
    problems = _nonfinite(summary, "summary")
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for i, row in enumerate(rows):
            bad = [v for v in row if _is_nonfinite(v)]
            if bad:
                problems.append(f"{path.name} row {i + 1}: {bad}")
                break
    try:
        expected = workload.rows(summary["config"])
        for table, count in expected.items():
            path = out / f"{table}.csv"
            if not path.is_file():
                problems.append(f"{path.name} missing")
                continue
            with open(path, newline="") as fh:
                got = sum(1 for _ in csv.reader(fh)) - 1
            if got != count:
                problems.append(f"{path.name} has {got} rows, expected {count}")
        found, guards = workload.judge(summary["results"])
    except (KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return problems + [f"summary lacks a checked result: {exc!r}"], {}, text
    return problems + found, guards, text


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

@dataclass
class Invocation:
    """One child process: exit code, timings, memory and check results."""

    code: int
    wall_s: float
    peak_rss_mb: float
    setup_s: float | None = None
    run_s: float | None = None
    trace: dict | None = None
    summary: str = ""
    guards: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in BLAS_THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def _wait(proc: subprocess.Popen, deadline: float) -> tuple[int, int]:
    """Reap ``proc``, killing it at ``deadline``; (exit code, max RSS kB)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
            deadline = math.inf
        time.sleep(0.02)


def invoke(workload: Workload, seed: int, mode: str, scratch: Path,
           root: Path) -> Invocation:
    """Start one child in ``mode`` (setup, run or trace) and check its
    outputs."""
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        out = work / "out"
        result = work / "child.json"
        cmd = [sys.executable, str(CHILD), str(root / "src"), str(result), mode,
               "--", workload.subcommand, str(workload.config),
               "--seed", str(seed), "--out-dir", str(out)]
        with open(work / "stderr.txt", "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    env=child_env())
            try:
                code, rss_kb = _wait(proc, launched + RUN_TIMEOUT_S)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        inv = Invocation(code, time.monotonic() - launched, rss_kb / 1024.0)
        try:
            data = json.loads(result.read_text())
        except (OSError, ValueError):
            data = {}
        if "loaded_at" in data:
            inv.setup_s = data["loaded_at"] - launched
        inv.run_s = data.get("run_s")
        if mode == "trace":
            inv.trace = data
        if code != 0:
            tail = (work / "stderr.txt").read_text(errors="replace").strip()
            last = tail.splitlines()[-1] if tail else ""
            inv.problems.append(f"exit code {code}: {last}")
        elif mode != "setup":
            inv.problems, inv.guards, inv.summary = check_outputs(workload, out)
        return inv
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run, from its span aggregates."""
    layers, counts = trace["layers"], trace["counts"]

    def total(*names):
        return sum(layers[n]["total_s"] for n in names if n in layers)

    def calls(name):
        return layers[name]["calls"] if name in layers else 0

    def self_time(prefix):
        return sum(v["self_s"] for n, v in layers.items() if n.startswith(prefix))

    shots = counts.get("sequence.shots", 0)
    calibrations = calls("ladder.calibrate_pulse_amplitude")
    rng_builds = calls("environment.shot_rng")
    return {
        "config.load_s": total("config.load_config"),
        "ladder.calibrate_s": total("ladder.calibrate_pulse_amplitude"),
        "ladder.calibrate_calls": calibrations,
        "ladder.solves_per_calibration": (
            counts.get("ladder.calibration_solves", 0) / calibrations
            if calibrations else 0),
        "ladder.propagator_s": total("ladder.pulse_propagator"),
        "ladder.propagator_calls": calls("ladder.pulse_propagator"),
        "ladder.unitarity_err": trace["maxima"].get("ladder.unitarity_err", 0.0),
        "ladder.solves": counts.get("ladder.solves", 0),
        "ladder.rhs_evals": counts.get("ladder.rhs_evals", 0),
        "ladder.steps": counts.get("ladder.steps", 0),
        "bloch.accelerate_s": total("bloch.bloch_accelerate"),
        "bloch.accelerate_calls": calls("bloch.bloch_accelerate"),
        "sequence.scan_self_s": self_time("sequence."),
        "sequence.shots": shots,
        "environment.rng_s": total("environment.shot_rng"),
        "environment.rng_builds": rng_builds,
        "environment.rng_builds_per_shot": rng_builds / shots if shots else 0,
        "environment.noise_s": total(
            "environment.sample_mirror_phases",
            "environment.apply_detection_noise",
            "environment.synthesize_tide",
            "environment.tilt_projection_drift"),
        "analysis.fit_s": total("analysis.fit_harmonics",
                                "analysis.fringe_contrast"),
        "analysis.evaluate_s": total("analysis.HarmonicFit.evaluate"),
        "analysis.evaluate_calls": calls("analysis.HarmonicFit.evaluate"),
        "analysis.series_s": total("analysis.bin_timeseries",
                                   "analysis.fit_harmonic_components",
                                   "analysis.allan_deviation"),
        "report.write_s": total("report.write_table", "report.write_summary",
                                "report.write_run_meta"),
        "report.bytes": counts.get("report.bytes", 0),
        "cli.self_s": self_time("cli."),
    }


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def run_context(root: Path) -> dict:
    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return None

    env = child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": ver("numpy"),
        "scipy": ver("scipy"),
        "src_lines": src_lines(root),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            scratch: Path, root: Path) -> dict:
    """One measurement of one workload; returns its result record."""
    deadline = time.monotonic() + seconds
    warmup = invoke(workload, seed, "setup", scratch, root)
    runs: list[Invocation] = []
    traced: list[Invocation] = []
    if trace:
        # alternate, so that a drift in machine speed cancels in the overhead
        for _ in range(2):
            runs.append(invoke(workload, seed, "run", scratch, root))
            traced.append(invoke(workload, seed, "trace", scratch, root))
    else:
        # start another run while it is expected to end no later than half a
        # run past the deadline, so that runs last ``seconds`` on average
        while True:
            runs.append(invoke(workload, seed, "run", scratch, root))
            half = statistics.median(r.wall_s for r in runs) / 2.0
            if time.monotonic() + half > deadline:
                break
    probes: list[Invocation] = []
    while len(runs) + len(probes) < SETUP_SAMPLES:
        probes.append(invoke(workload, seed, "setup", scratch, root))
    setups = [warmup] + probes

    full = runs + traced
    reference = next((r.summary for r in full if r.summary), "")
    for r in full:
        if r.summary and r.summary != reference:
            r.problems.append("summary.json differs between runs of one seed")
    if len(traced) == 2 and not any(t.failed for t in traced):
        first, second = (layer_metrics(t.trace) for t in traced)
        for key in REPEATABLE:
            if first[key] != second[key]:
                traced[1].problems.append(
                    f"{key} differs between traced runs: {first[key]} != {second[key]}")

    every = setups + full
    good = [r for r in runs if not r.failed]
    record = {
        "workload": workload.name,
        "attempted": len(every),
        "failed": sum(r.failed for r in every),
        "problems": [p for r in every for p in r.problems],
        "guards": next((r.guards for r in reversed(full) if r.guards), {}),
    }
    if not good:
        return record
    samples = {
        "setup_s": [r.setup_s for r in probes + good if r.setup_s is not None],
        "run_s": [r.run_s for r in good],
        "peak_rss_mb": [r.peak_rss_mb for r in good],
    }
    record["samples"] = samples
    record["metrics"] = {k: statistics.median(v) for k, v in samples.items()}
    if trace and all(t.trace and "layers" in t.trace for t in traced):
        per_run = [layer_metrics(t.trace) for t in traced]
        # times are averaged over the two traced runs; counts must repeat,
        # so the first run's are reported
        layers = {k: statistics.fmean(m[k] for m in per_run)
                  if PER_LAYER[k] == "s" else v for k, v in per_run[0].items()}
        layers["trace.overhead_s"] = (
            statistics.fmean(t.run_s for t in traced) - record["metrics"]["run_s"])
        guards = {k: 0.0 for k in PER_LAYER if k.startswith("guard.")}
        guards.update(record["guards"])
        layers.update(guards)
        layers["src.lines"] = src_lines(root)
        record["layers"] = layers
    return record


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def report(record: dict, trace: bool) -> None:
    """Human-readable lines for one workload."""
    name = record["workload"]
    print(f"workload {name}: {record['attempted']} processes, "
          f"{record['failed']} failed")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")
    metrics = record.get("metrics", {})
    # fewer than eleven samples leave no percentile with ten beyond it, so
    # the maximum stands in for the high percentile
    for key, unit in END_TO_END.items():
        if key in metrics:
            values = record["samples"][key]
            print(f"  {key:<12} {metrics[key]:12.6g} {unit:<5} (median of "
                  f"{len(values)}, max {max(values):.6g})")
    print(f"  {'failed_runs':<12} {record['failed']:12d} of {record['attempted']}")
    for key, value in sorted(record["guards"].items()):
        print(f"  {key:<30} {value:.6g}")
    if trace and "layers" in record:
        layers = record["layers"]
        run_s = metrics["run_s"]
        for key in PER_LAYER:
            print(f"  {key:<32} {layers[key]:14.6g} {PER_LAYER[key]}")
        traced_run = run_s + layers["trace.overhead_s"]
        shares = ", ".join(
            f"{group} {sum(layers[k] for k in keys) / traced_run:.0%}"
            for group, keys in SHARES.items())
        print(f"  share of traced run_s: {shares}")


def result_line(records: list[dict], trace: bool) -> dict:
    wanted = PER_LAYER if trace else END_TO_END
    source = "layers" if trace else "metrics"
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for key, unit in wanted.items():
            metrics[prefix + key] = {"value": rec[source][key], "unit": unit}
    failed = sum(rec["failed"] for rec in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "braggsim" / "cli.py").is_file():
        print(f"no braggsim sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    print("context " + json.dumps(run_context(root), sort_keys=True))
    base = root / ".perfbench-work"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=base))
    try:
        records = []
        for name in names:
            rec = measure(WORKLOADS[name], args.seed, args.seconds,
                          bool(args.trace), scratch, root)
            report(rec, bool(args.trace))
            records.append(rec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    missing = [r["workload"] for r in records
               if ("layers" if args.trace else "metrics") not in r]
    if missing:
        print(f"no successful run to measure for: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps(result_line(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
