"""Static checks on the package source, shipped configs and benchmark hooks.

No relative import of another module's private names; no scipy import, and
none at run time (``import braggsim.cli`` and a ``pulse`` run leave it out
of ``sys.modules``); ``HBAR`` only in ``constants`` and ``physics``; no
generator built per shot; only ``drive`` and ``pulse_propagator`` calling
the kernel; no block ``resolve`` call outside ``config.py``; every shipped
and benchmark config loading and resolving; the benchmark tracer finding
every name it patches; a run starting no child process; the package
``__init__.py`` binding no name but ``__version__``. Ledgers of every
settable config key path and of every default value, so that a change which
adds or removes a setting, or changes a default, shows it in its own diff.
The README names only settable keys and no private name, names every
subcommand and every top-level config field, and its example is the shipped
``configs/fringe_quasibragg.yaml``.
"""

import ast
import functools
import importlib
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
from dataclasses import asdict, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from braggsim import cli, sequence
from braggsim.analysis import (AllanCurve, FringeScan, allan_deviation, bin_timeseries,
                               check_fringe_grid, class_contrast_proxy,
                               fit_harmonic_components, phase_to_gravity)
from braggsim.bloch import LatticeRamp, selection_profile
from braggsim.bounds import Finite, NonNegative, Positive, Range, field_bounds
from braggsim.config import (ConfigError, ExperimentConfig, load_config, parse_config,
                             resolve)
from braggsim.environment import (STREAM_MIRROR, NoiseModel, TideComponent, TideModel,
                                  synthesize_tide, tilt_projection_drift)
from braggsim.ladder import (DEFAULT_CONFIG, MomentumLadderState, PulseSpec,
                             calibrate_pulse_amplitude, pulse_propagator)
from braggsim.physics import (AtomSpecies, BeamGeometry, bragg_resonance, coherence_length,
                              gravity_from_sweep, mzi_phase, path_length_increment,
                              path_phase, resonant_sweep_rate)
from braggsim.sequence import MZISequence

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "braggsim"


def settable_paths():
    """Every key path a config can set, from the defaulted config echo; a
    list of blocks counts once, as ``key[]``."""
    def paths(value, prefix):
        if isinstance(value, dict):
            return [p for k, v in value.items() for p in paths(v, f"{prefix}{k}.")]
        return [prefix[:-1] + ("[]" if isinstance(value, list) else "")]

    return paths(asdict(ExperimentConfig()), "")


def modules():
    """(file name, parsed tree) of every module of the package."""
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))]


def run_fresh(code: str, *paths: str) -> None:
    """Run ``code`` in a fresh interpreter importing from the repo ``paths``;
    fail with its stderr unless it exits 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(ROOT / p) for p in paths)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr


def test_tracer_finds_every_name_it_patches():
    # the benchmark child process drops the tracer's stderr on exit 0, so a
    # renamed function would otherwise go unmeasured silently; instrument()
    # patches the package for the rest of the process, hence the subprocess
    run_fresh("from tracer import Tracer, instrument; t = Tracer(); "
              "instrument(t); assert not t.missing, t.missing", "src", "perfbench")


def test_package_binds_only_its_version():
    # the modules are the one import surface: a name re-exported from the
    # package is a second path to it that callers can drift onto
    tree = ast.parse((SRC / "__init__.py").read_text())
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    # each statement as its source up to " =": an import keeps its whole text
    assert [ast.unparse(node).split(" =")[0] for node in body] == ["__version__"]


def test_every_shipped_and_benchmark_config_loads():
    # the benchmark workloads are parsed by the same strict loader as
    # configs/, so a stricter parser must not reject them unnoticed
    paths = sorted([*ROOT.glob("configs/*.yaml"),
                    *ROOT.glob("perfbench/workloads/*.yaml")])
    assert len(paths) >= 9, paths
    for path in paths:
        resolve(load_config(path))


def test_no_module_imports_another_modules_private_names():
    # a helper that two modules share is public API; a relative import of a
    # _name (dunders aside) couples a module to another's internals
    def private(alias):
        return alias.name.startswith("_") and not alias.name.endswith("__")

    bad = [f"{name}:{node.lineno} " + ", ".join(a.name for a in node.names
                                                 if private(a))
           for name, tree in modules() for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom) and node.level
           and any(map(private, node.names))]
    assert not bad, bad


def test_no_module_imports_scipy():
    # the package runs on numpy alone: DOP853 lives in dop853.py, and scipy
    # is a test dependency, the reference that tests/test_dop853.py checks
    # the kernel against
    bad = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found = [node.module]
            else:
                continue
            bad += [f"{name}:{node.lineno} {module}" for module in found
                    if module.split(".")[0] == "scipy"]
    assert not bad, bad


def test_cli_import_and_pulse_run_leave_scipy_unloaded(tmp_path):
    # a dynamic import would slip past the static rule above; scipy costs a
    # fresh process more set-up than the rest of the package together
    config = tmp_path / "pulse.yaml"
    config.write_text("pulse: {order: 1, sigma_s: 5.0e-6}\n")
    code = ("import sys; import braggsim.cli as cli; "
            "assert 'scipy' not in sys.modules; "
            f"code = cli.main(['pulse', {str(config)!r}, '--out-dir', "
            f"{str(tmp_path / 'out')!r}]); "
            "assert code == 0, code; "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules "
            "if m.startswith('scipy'))[:5]")
    run_fresh(code, "src")
    assert (tmp_path / "out" / "pulse_populations.csv").exists()


def test_a_run_starts_no_process(tmp_path):
    # platform.platform() runs `uname -p` in a child process, about 6 ms of
    # every run; run_meta.json keeps its platform text without it
    config = tmp_path / "pulse.yaml"
    config.write_text("pulse: {order: 1, sigma_s: 5.0e-6}\n")
    out = tmp_path / "out"
    run_fresh("import sys; import braggsim.cli as cli; "
              f"assert cli.main(['pulse', {str(config)!r}, '--out-dir', {str(out)!r}]) == 0; "
              "assert 'subprocess' not in sys.modules, 'subprocess imported'", "src")
    if sys.platform == "linux":
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["platform"] == platform.platform()


def test_only_constants_and_physics_import_hbar():
    # momenta and quasimomenta are in units of hbar*k outside physics.py, so
    # any other module that needs HBAR is converting to SI and back
    bad = [f"{name}:{node.lineno}" for name, tree in modules()
           if name not in ("constants.py", "physics.py")
           for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom)
           and any(alias.name == "HBAR" for alias in node.names)]
    assert not bad, bad


def test_no_generator_is_built_per_shot():
    # each noise stream has one generator per master seed and shot i reads
    # row i of it, so a shot_rng call inside a loop or a comprehension builds
    # one generator per shot again
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def bodies(node):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            return node.body
        return [node] if isinstance(node, comprehensions) else []

    bad = sorted({f"{name}:{call.lineno}"
                  for name, tree in modules() for node in ast.walk(tree)
                  for stmt in bodies(node) for call in ast.walk(stmt)
                  if isinstance(call, ast.Call)
                  and "shot_rng" in (getattr(call.func, "id", None),
                                     getattr(call.func, "attr", None))})
    assert not bad, bad


def test_only_drive_and_pulse_propagator_call_evolve():
    # every state solve, calibration probes and selection profiles included,
    # goes through the one driver; a third caller of the kernel is a private
    # solve path with its own window and leak check
    tree = ast.parse((SRC / "ladder.py").read_text())
    callers = sorted({getattr(node, "name", "<module>") for node in tree.body
                      for call in ast.walk(node) if isinstance(call, ast.Call)
                      and getattr(call.func, "id", None) == "_evolve"})
    assert callers == ["drive", "pulse_propagator"], callers


def test_only_config_resolves_blocks():
    # config.resolve builds the domain object of each block that resolves
    # once per run; a resolve call anywhere else builds one a second time
    bad = [f"{name}:{node.lineno}" for name, tree in modules()
           if name != "config.py" for node in ast.walk(tree)
           if isinstance(node, ast.Call)
           and getattr(node.func, "attr", None) == "resolve"]
    assert not bad, bad


def test_settable_config_values_ledger():
    # every key path a config can set, so that a change which adds or removes
    # a setting shows it in its own diff
    assert sorted(settable_paths()) == [
        "bvs.acceleration_m_s2", "bvs.depth_er", "bvs.load_duration_s",
        "bvs.profile_max_hk", "bvs.profile_min_hk", "bvs.profile_points",
        "bvs.target_momentum_hk",
        "class_oracle.a_max", "class_oracle.a_min", "class_oracle.class_index",
        "class_oracle.time_max_s", "class_oracle.time_min_s",
        "class_oracle.time_points",
        "ensemble.samples", "ensemble.seed", "ensemble.sigma_q_hk",
        "evolution.error_tolerance", "evolution.guard_sites",
        "geometry.tilt_deg",
        "gradiometer.bvs_separation_s", "gradiometer.gradient_per_s2",
        "gradiometer.lower_momentum_hk", "gradiometer.upper_momentum_hk",
        "gravity_m_s2",
        "gravity_run.bin_size", "gravity_run.shot_period_s", "gravity_run.shots",
        "noise.detection_snr", "noise.mirror_phase_rms_rad",
        "noise.tilt_drift_rad_per_hour",
        "out_dir",
        "pulse.order", "pulse.quasimomentum_hk", "pulse.rabi_peak_rad_s",
        "pulse.sigma_s", "pulse.transfer_target",
        "scan.points", "scan.start", "scan.stop", "scan.target",
        "seed",
        "sequence.interrogation_time_s", "sequence.order",
        "sequence.pulse_sigma_s",
        "species.mass_kg", "species.wavelength_m",
        "tide.components[]", "tide.mean_gravity_m_s2",
    ]


def test_config_defaults_ledger():
    # every default value of a config; the ensemble, noise, gradiometer and
    # evolution blocks are their domain objects, so a default changed there
    # changes every run that leaves it unset and must show in its own diff
    assert asdict(ExperimentConfig()) == {
        "seed": 0, "gravity_m_s2": 9.81, "out_dir": "runs/out",
        "species": {"wavelength_m": 780.24e-9, "mass_kg": None},
        "geometry": {"tilt_deg": 0.0},
        "sequence": {"order": 2, "interrogation_time_s": 60e-3,
                     "pulse_sigma_s": 15e-6},
        "ensemble": {"samples": 200, "sigma_q_hk": 0.42, "seed": 0},
        "noise": {"mirror_phase_rms_rad": 0.0, "detection_snr": 50.0,
                  "tilt_drift_rad_per_hour": 0.0},
        "tide": {"mean_gravity_m_s2": 9.81, "components": []},
        "scan": {"target": "phase", "start": 0.0, "stop": 4.0 * math.pi,
                 "points": 32},
        "bvs": {"depth_er": 4.0, "load_duration_s": 100e-6,
                "acceleration_m_s2": 30.0, "target_momentum_hk": 8,
                "profile_min_hk": -2.0, "profile_max_hk": 2.0,
                "profile_points": 21},
        "gradiometer": {"lower_momentum_hk": 8, "upper_momentum_hk": 2,
                        "bvs_separation_s": 50e-3, "gradient_per_s2": 3.0e-6},
        "gravity_run": {"shots": 2000, "shot_period_s": 1.0, "bin_size": 38},
        "pulse": {"order": 2, "sigma_s": 15e-6, "rabi_peak_rad_s": "calibrated",
                  "transfer_target": 0.5, "quasimomentum_hk": 0.0},
        "class_oracle": {"class_index": 2, "a_min": -8, "a_max": 8,
                         "time_min_s": 0.0, "time_max_s": 120e-6,
                         "time_points": 121},
        "evolution": {"error_tolerance": 1e-10, "guard_sites": 6},
    }


@functools.cache
def bounded_classes():
    """{name: class} of every dataclass of the package that declares a bound."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"braggsim.{path.stem}")
        found.update({name: obj for name, obj in vars(module).items()
                      if isinstance(obj, type) and obj.__module__ == module.__name__
                      and is_dataclass(obj) and field_bounds(obj)})
    return found


# every single-field bound of the package: (class, field, range)
BOUNDED_FIELDS = [
    ("AtomSpecies", "mass", Positive), ("AtomSpecies", "wavelength", Positive),
    ("BeamGeometry", "k_eff", Positive),
    ("BeamGeometry", "tilt_angle", Range(0.0, math.pi / 2, open_high=True)),
    ("BvsBlock", "acceleration_m_s2", Positive), ("BvsBlock", "depth_er", Positive),
    ("BvsBlock", "load_duration_s", Positive),
    ("BvsBlock", "profile_max_hk", Range(-2, 2)),
    ("BvsBlock", "profile_min_hk", Range(-2, 2)),
    ("BvsBlock", "profile_points", Range(1)),
    ("BvsBlock", "target_momentum_hk", Positive),
    ("ClassOracleBlock", "time_min_s", NonNegative),
    ("ClassOracleBlock", "time_points", Range(1)),
    ("EnsembleSpec", "samples", Range(1)), ("EnsembleSpec", "seed", NonNegative),
    ("EnsembleSpec", "sigma_q_hk", Range(0, 10)),
    ("EvolutionConfig", "error_tolerance", Range(0.0, 1e-3, open_low=True)),
    ("EvolutionConfig", "guard_sites", Range(4)),
    ("ExperimentConfig", "seed", NonNegative),
    ("GeometryBlock", "tilt_deg", Range(0, 90, open_high=True)),
    ("GradiometerSpec", "bvs_separation_s", Positive),
    ("GradiometerSpec", "gradient_per_s2", Finite),
    ("GravityRunBlock", "bin_size", Range(2)),
    ("GravityRunBlock", "shot_period_s", Positive),
    ("GravityRunBlock", "shots", Range(1)),
    ("LatticeRamp", "acceleration", Positive), ("LatticeRamp", "depth", Positive),
    ("LatticeRamp", "load_duration", Positive),
    ("LatticeRamp", "target_momentum", Positive),
    ("MZISequence", "beamsplitter_rabi", NonNegative),
    ("MZISequence", "mirror_rabi", NonNegative), ("MZISequence", "order", Range(1)),
    ("MZISequence", "pulse_sigma", Positive),
    ("MomentumLadderState", "quasimomentum", Range(-1 - 1e-12, 1 + 1e-12)),
    ("NoiseModel", "detection_snr", Positive),
    ("NoiseModel", "mirror_phase_rms_rad", NonNegative),
    ("NoiseModel", "tilt_drift_rad_per_hour", Finite),
    ("PulseBlock", "order", Range(1)),
    ("PulseBlock", "quasimomentum_hk", Range(-1, 1)),
    ("PulseBlock", "rabi_peak_rad_s", NonNegative),
    ("PulseBlock", "sigma_s", Positive),
    ("PulseBlock", "transfer_target", Range(0, 1, open_low=True)),
    ("PulseSpec", "chirp", Finite), ("PulseSpec", "detuning", Finite),
    ("PulseSpec", "laser_phase", Finite), ("PulseSpec", "rabi_peak", NonNegative),
    ("PulseSpec", "sigma", Positive),
    ("ScanBlock", "points", Range(1)),
    ("SequenceBlock", "interrogation_time_s", Positive),
    ("SequenceBlock", "order", Range(1)), ("SequenceBlock", "pulse_sigma_s", Positive),
    ("SpeciesBlock", "mass_kg", Positive), ("SpeciesBlock", "wavelength_m", Positive),
    ("TideBlock", "mean_gravity_m_s2", Positive),
    ("TideComponent", "amplitude", NonNegative),
    ("TideComponent", "angular_frequency", Finite), ("TideComponent", "phase", Finite),
    ("TideComponentBlock", "amplitude_m_s2", NonNegative),
    ("TideComponentBlock", "period_h", Positive),
    ("TideModel", "mean_gravity", Positive),
]


def test_bounded_fields_ledger():
    # every declared bound, so that a change which adds, drops or moves one
    # shows it in its own diff
    declared = sorted((name, field, rng) for name, cls in bounded_classes().items()
                      for field, rng, _ in field_bounds(cls))
    assert declared == sorted(BOUNDED_FIELDS)


@functools.cache
def block_paths(cls=ExperimentConfig, prefix=""):
    """{class: key path prefix} of the config and each of its blocks; a
    list of blocks is reached through its first element."""
    found = {cls: prefix}
    for key, hint in get_type_hints(cls).items():
        inner = get_args(hint)[0] if get_origin(hint) is list else hint
        if is_dataclass(inner):
            index = "[0]" if inner is not hint else ""
            found.update(block_paths(inner, f"{prefix}{key}{index}."))
    return found


def config_setting(path, value):
    """The raw config mapping that sets key path ``path`` alone to ``value``."""
    for part in reversed(path.split(".")):
        key, index, _ = part.partition("[")
        value = {key: [value] if index else value}
    return value


def valid_instance(cls):
    """An instance within every bound, to set one field out of range."""
    species = AtomSpecies.rubidium87()
    made = {AtomSpecies: lambda: species,
            BeamGeometry: lambda: BeamGeometry.vertical(species),
            TideComponent: lambda: TideComponent(1e-6, 1e-4),
            PulseSpec: lambda: PulseSpec(0.0, 15e-6, 0.0),
            MomentumLadderState: lambda: MomentumLadderState(species, np.ones(1), 0),
            MZISequence: lambda: MZISequence(2, 60e-3, 15e-6, 0.0, 0.0)}
    return made.get(cls, cls)()


def check_rejected(name, field, rng, value):
    """``value`` in ``field`` fails its class's constructor, naming the
    field, and a config that sets it, at its key path."""
    cls = bounded_classes()[name]
    with pytest.raises(ValueError, match=f"^{field} must "):
        replace(valid_instance(cls), **{field: value})
    prefix = block_paths().get(cls)
    if prefix is not None:
        path = prefix + field
        with pytest.raises(ConfigError) as err:
            parse_config(config_setting(path, value))
        assert err.value.path == path
        assert str(err.value) == f"{path}: {rng.complaint(value)}"


def is_int_field(name, field):
    return get_type_hints(bounded_classes()[name])[field] is int


NON_FINITE = [math.nan, math.inf, -math.inf]


def ends_past(rng, is_int):
    """The first value past each finite end of ``rng``: an open end itself,
    else the next int or float beyond it."""
    def past(end, is_open, away):
        if is_open:
            return end
        return end + away if is_int else float(np.nextafter(end, away * math.inf))

    ends = [past(rng.low, rng.open_low, -1), past(rng.high, rng.open_high, 1)]
    return [v for v in ends if math.isfinite(v)]


def first_values_past(name, field, rng):
    """The first value past each finite end of ``rng``, and for a float
    field NaN and both infinities."""
    is_int = is_int_field(name, field)
    return ends_past(rng, is_int) + ([] if is_int else NON_FINITE)


@pytest.mark.parametrize("name, field, rng", BOUNDED_FIELDS,
                         ids=[f"{name}.{field}" for name, field, _ in BOUNDED_FIELDS])
def test_first_value_past_each_end_rejected(name, field, rng):
    for value in first_values_past(name, field, rng):
        check_rejected(name, field, rng, value)


@st.composite
def outside(draw):
    """A ledger entry and a value outside its range."""
    name, field, rng = draw(st.sampled_from(BOUNDED_FIELDS))
    if is_int_field(name, field):
        below = st.integers(max_value=rng.low - (not rng.open_low))
        return name, field, rng, draw(below)
    sides = [st.sampled_from([math.nan, math.inf, -math.inf])]
    if rng.low > -math.inf:
        sides.append(st.floats(max_value=rng.low, exclude_max=not rng.open_low))
    if rng.high < math.inf:
        sides.append(st.floats(min_value=rng.high, exclude_min=not rng.open_high))
    return name, field, rng, draw(st.one_of(sides))


@settings(max_examples=200, deadline=None)
@given(outside())
def test_every_bound_rejects_what_lies_outside(case):
    check_rejected(*case)


RB = AtomSpecies.rubidium87()
VERTICAL = BeamGeometry.vertical(RB)
RESONANT = PulseSpec(1.1e5, 15e-6, detuning=bragg_resonance(2, RB))

# every argument whose bound a function checks: (function, argument, range,
# a valid call whose one default is the argument's valid value, a 3-element
# list for an array)
CHECKED_ARGUMENTS = [
    (mzi_phase, "order", Range(1), lambda order=2: mzi_phase(order, 0.1, VERTICAL)),
    (mzi_phase, "interrogation_time", Positive, lambda t=0.1: mzi_phase(2, t, VERTICAL)),
    (resonant_sweep_rate, "gravity", NonNegative,
     lambda g=9.81: resonant_sweep_rate(g, VERTICAL)),
    (gravity_from_sweep, "sweep_rate", NonNegative,
     lambda rate=2.5e7: gravity_from_sweep(rate, VERTICAL)),
    (bragg_resonance, "order", Range(1), lambda order=2: bragg_resonance(order, RB)),
    (coherence_length, "temperature", Positive, lambda kelvin=1e-6: coherence_length(RB, kelvin)),
    (path_length_increment, "interrogation_time", NonNegative,
     lambda t=1e-3: path_length_increment(RB, t)),
    (path_phase, "interrogation_time", NonNegative, lambda t=1e-3: path_phase(2, 1, t, RB)),
    (FringeScan, "normalized", Range(-1e-9, 1 + 1e-9),
     lambda p=[0.1, 0.5, 0.9]: FringeScan([0.0, 1.0, 2.0], {}, p)),
    (AllanCurve, "values", NonNegative, lambda v=[3.0, 2.0, 1.0]: AllanCurve([1.0, 2.0, 4.0], v)),
    (check_fringe_grid, "n_harmonics", Range(1, 5),
     lambda n=3: check_fringe_grid(np.linspace(0.0, 4 * math.pi, 32), n)),
    (phase_to_gravity, "delta_phi", Finite, lambda phi=0.1: phase_to_gravity(phi, 2, 1.6e7, 0.1)),
    (phase_to_gravity, "harmonic", Range(1), lambda m=2: phase_to_gravity(0.1, m, 1.6e7, 0.1)),
    (phase_to_gravity, "k_eff", Positive, lambda k=1.6e7: phase_to_gravity(0.1, 2, k, 0.1)),
    (phase_to_gravity, "interrogation_time", Positive,
     lambda t=0.1: phase_to_gravity(0.1, 2, 1.6e7, t)),
    (allan_deviation, "shot_period", Positive,
     lambda period=1.0: allan_deviation(np.arange(64.0), period)),
    (allan_deviation, "taus", Positive,
     lambda taus=[1.0, 2.0, 4.0]: allan_deviation(np.arange(64.0), 1.0, taus)),
    (class_contrast_proxy, "weights", NonNegative,
     lambda w=[1.0, 2.0, 1.0]: class_contrast_proxy(4, range(3), 1e-3, RB, w)),
    (bin_timeseries, "bin_size", Range(2), lambda n=4: bin_timeseries(np.arange(16.0), n)),
    (fit_harmonic_components, "weights", Positive,
     lambda w=[1.0, 1.0, 1.0]: fit_harmonic_components([0.0, 1.0, 2.0], [1.0, 2.0, 0.0],
                                                       [1.0], w)),
    (synthesize_tide, "t", NonNegative, lambda t=[0.0, 1.0, 2.0]: synthesize_tide(TideModel(), t)),
    (tilt_projection_drift, "t", NonNegative,
     lambda t=[0.0, 1.0, 2.0]: tilt_projection_drift(NoiseModel(), t)),
    (selection_profile, "momenta", Range(-2 - 2e-12, 2 + 2e-12),
     lambda p=[-0.5, 0.0, 0.5]: selection_profile(RB, LatticeRamp(), p)),
    (pulse_propagator, "quasimomentum", Range(-1 - 1e-12, 1 + 1e-12),
     lambda q=[-0.1, 0.0, 0.1]: pulse_propagator(RB, RESONANT, (-8, 8), q)),
    (calibrate_pulse_amplitude, "target", Range(0, 1, open_low=True),
     lambda target=0.5: calibrate_pulse_amplitude(RB, target, 1, 30e-6)),
    (sequence._stream, "shot_index", NonNegative,
     lambda first=0: sequence._stream(NoiseModel(), 4, STREAM_MIRROR, first)),
    (sequence._ShotEngine, "sweep_rate_offset", Finite,
     lambda rate=0.0: sequence._ShotEngine(RB, MZISequence(2, 60e-3, 15e-6, 0.0, 0.0),
                                           DEFAULT_CONFIG, rate)),
]


@pytest.mark.parametrize("function, argument, rng, call", CHECKED_ARGUMENTS,
                         ids=[f"{f.__name__}-{a}" for f, a, _, _ in CHECKED_ARGUMENTS])
def test_checked_argument_rejects_what_lies_outside(function, argument, rng, call):
    # NaN, both infinities and the first value past each finite end, alone
    # or as the middle element of an array, fail naming the argument
    valid, = call.__defaults__
    call()
    for bad in ends_past(rng, isinstance(valid, int)) + NON_FINITE:
        with pytest.raises(ValueError, match=f"^{argument} must "):
            call([valid[0], bad, valid[2]] if isinstance(valid, list) else bad)


def config_keys_named(text):
    """(checked, unsettable): every backticked `block.key` (or `block.key:
    value`) in ``text`` whose block is a config field, and those of them
    that no config can set."""
    blocks = set(get_type_hints(ExperimentConfig))
    named = re.findall(r"`([a-z_]+\.[a-z0-9_.]+)(?::[^`]*)?`", text)
    checked = [key for key in named if key.split(".")[0] in blocks]
    return checked, sorted(set(checked) - set(settable_paths()))


def test_readme_names_only_settable_keys():
    # the README cannot keep naming a deleted key
    checked, unsettable = config_keys_named((ROOT / "README.md").read_text())
    assert len(checked) >= 10, checked
    assert {"bvs.acceleration_m_s2", "tide.mean_gravity_m_s2"} <= set(checked)
    assert unsettable == []


def test_readme_guard_catches_a_deleted_key():
    text = "set `gradiometer.gradient_per_s3: 3.1e-6` and `bvs.depth_er`"
    assert config_keys_named(text) == (
        ["gradiometer.gradient_per_s3", "bvs.depth_er"],
        ["gradiometer.gradient_per_s3"])


def private_names(text):
    """Every backticked name or dotted path in ``text`` with a part that
    starts with one underscore: `sequence._SERIES_CHUNK`, not `__version__`
    or `*_hk`."""
    return [span for span in re.findall(r"`([^`\n]+)`", text)
            if re.search(r"(?:^|\.)_(?!_)\w", span)]


def test_readme_names_no_private_identifier():
    # the README speaks to users; a private name belongs in a docstring
    assert private_names((ROOT / "README.md").read_text()) == []


def test_private_name_guard_catches_one():
    text = ("chunks of `sequence._SERIES_CHUNK` and `_SHOT_CHUNK`, "
            "not `__version__`, `__init__.py` or `*_hk`")
    assert private_names(text) == ["sequence._SERIES_CHUNK", "_SHOT_CHUNK"]


def unnamed(text):
    """The subcommands and the top-level config fields that no backticked
    span of ``text`` starts with, as `class-oracle` or `class_oracle.a_min`."""
    heads = {re.split(r"[^\w-]", span, maxsplit=1)[0]
             for span in re.findall(r"`([^`\n]+)`", text)}
    return sorted((set(cli._COMMANDS) | set(get_type_hints(ExperimentConfig))) - heads)


def test_readme_names_every_subcommand_and_config_field():
    assert unnamed((ROOT / "README.md").read_text()) == []


def test_naming_guard_catches_a_missing_subcommand_and_block():
    names = set(cli._COMMANDS) | set(get_type_hints(ExperimentConfig))
    text = ", ".join(f"`{name}`" for name in sorted(names) if "class" not in name)
    assert unnamed(text) == ["class-oracle", "class_oracle"]
    assert unnamed(text + " `class-oracle`, `class_oracle.a_min: 2`") == []


def example_drift(text):
    """The key paths, ``out_dir`` aside, at which the ``yaml`` block of
    ``text`` parses to other values than ``configs/fringe_quasibragg.yaml``."""
    def flat(value, prefix=""):
        if isinstance(value, dict):
            return {path: v for key, sub in value.items()
                    for path, v in flat(sub, f"{prefix}{key}.").items()}
        return {prefix[:-1]: value}

    block, = re.findall(r"^```yaml\n(.*?)^```", text, re.S | re.M)
    example = flat(asdict(parse_config(yaml.safe_load(block))))
    shipped = flat(asdict(load_config(ROOT / "configs" / "fringe_quasibragg.yaml")))
    return [path for path, value in shipped.items()
            if path != "out_dir" and example[path] != value]


def test_readme_example_is_the_shipped_config():
    # so the example cannot drift, and CI's shipped-config run covers it
    assert example_drift((ROOT / "README.md").read_text()) == []


def test_example_guard_catches_a_changed_value():
    text = (ROOT / "README.md").read_text()
    assert "  samples: 200\n" in text
    assert example_drift(text.replace("  samples: 200\n", "  samples: 201\n")) == [
        "ensemble.samples"]
