"""Static checks on the package source, shipped configs and benchmark hooks."""

import ast
import functools
import importlib
import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import asdict, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braggsim.bounds import Finite, NonNegative, Positive, Range, field_bounds
from braggsim.config import (ConfigError, ExperimentConfig, load_config, parse_config,
                             resolve)
from braggsim.environment import TideComponent
from braggsim.ladder import MomentumLadderState, PulseSpec
from braggsim.physics import AtomSpecies, BeamGeometry
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


def test_tracer_finds_every_name_it_patches():
    # the benchmark child process drops the tracer's stderr on exit 0, so a
    # renamed function would otherwise go unmeasured silently; instrument()
    # patches the package for the rest of the process, hence the subprocess
    code = ("from tracer import Tracer, instrument; t = Tracer(); "
            "instrument(t); assert not t.missing, t.missing")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr


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
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "pulse_populations.csv").exists()


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


def first_values_past(name, field, rng):
    """The first value past each finite end of ``rng``, and for a float
    field NaN and both infinities."""
    if is_int_field(name, field):
        return [rng.low if rng.open_low else rng.low - 1] + (
            [rng.high if rng.open_high else rng.high + 1] if rng.high < math.inf else [])
    ends = [rng.low if rng.open_low else float(np.nextafter(rng.low, -math.inf)),
            rng.high if rng.open_high else float(np.nextafter(rng.high, math.inf))]
    return [v for v in ends if math.isfinite(v)] + [math.nan, math.inf, -math.inf]


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
