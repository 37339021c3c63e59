"""Experiment configuration: YAML with nested blocks, strict validation,
fully resolved echo.

One recursive builder, ``_build``, checks each value against its field's
annotation: a block takes a mapping (null or ``{}`` gives its defaults), a
``list[X]`` builds each element as ``X`` (null gives ``[]``), ``X | None``
takes null and ``Literal[...]`` its strings. ``float`` takes a finite float
or an int, ``int`` and ``str`` only their own type; a bool is no number. A
number meets the bound its field declares (``bounds``). YAML 1.1 reads
``2e-3`` as a string: write ``2.0e-3``. Errors name the key path, or the
block for a rule between fields; unknown and repeated keys are rejected.
Every block carries explicit defaults so the echo reproduces the run
bit-identically. Units are spelled out in the key names.

A block whose keys are a domain object's fields is that object, built as it
is parsed: ``ensemble`` (``EnsembleSpec``), ``noise`` (``NoiseModel``),
``gradiometer`` (``GradiometerSpec``) and ``evolution``
(``EvolutionConfig``). ``scan``, ``gravity_run`` and ``class_oracle`` have
no domain object. The rest, bounded on their own keys in config units,
``resolve`` once per run, after the command-line overrides and before any
solve, as their object is not their keys: ``species`` defaults to Rb87,
``geometry`` and ``tide`` convert degrees and hours, ``sequence`` and
``pulse`` leave amplitudes to calibrate, and ``bvs`` holds a profile grid
beside its lattice ramp.
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

import yaml

from .bloch import LatticeRamp
from .bounds import Finite, NonNegative, Positive, Range, bounded, field_bounds
from .constants import STANDARD_GRAVITY
from .environment import NoiseModel, TideComponent, TideModel
from .ladder import EvolutionConfig, PulseSpec
from .physics import AtomSpecies, BeamGeometry, bragg_resonance
from .sequence import EnsembleSpec, GradiometerSpec, MZISequence


class ConfigError(ValueError):
    """Malformed configuration; carries the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@contextlib.contextmanager
def at_key(path: str):
    """Report a ValueError raised inside as a ConfigError naming ``path``."""
    try:
        yield
    except ConfigError:   # already names its key
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


@bounded
class SpeciesBlock:
    wavelength_m: Annotated[float, Positive] = 780.24e-9
    mass_kg: Annotated[float, Positive] | None = None   # null means Rb87

    def resolve(self) -> AtomSpecies:
        if self.mass_kg is None:
            return AtomSpecies.rubidium87(wavelength=self.wavelength_m)
        return AtomSpecies(mass=self.mass_kg, wavelength=self.wavelength_m)


@bounded
class GeometryBlock:
    tilt_deg: Annotated[float, Range(0, 90, open_high=True)] = 0.0

    def resolve(self, species: AtomSpecies) -> BeamGeometry:
        return BeamGeometry.vertical(species, tilt_angle=math.radians(self.tilt_deg))


@bounded
class SequenceBlock:
    order: Annotated[int, Range(1)] = 2
    interrogation_time_s: Annotated[float, Positive] = 60e-3
    pulse_sigma_s: Annotated[float, Positive] = 15e-6

    def resolve(self) -> MZISequence:
        """The schedule with zero-amplitude pulses; the run calibrates them."""
        return MZISequence(order=self.order,
                           interrogation_time=self.interrogation_time_s,
                           pulse_sigma=self.pulse_sigma_s, beamsplitter_rabi=0.0,
                           mirror_rabi=0.0)


@bounded
class TideComponentBlock:
    amplitude_m_s2: Annotated[float, NonNegative] = 1.0e-6
    period_h: Annotated[float, Positive] = 12.42
    phase_rad: float = 0.0


@bounded
class TideBlock:
    mean_gravity_m_s2: Annotated[float, Positive] = STANDARD_GRAVITY
    components: list[TideComponentBlock] = field(default_factory=list)

    def resolve(self) -> TideModel:
        comps = tuple(
            TideComponent(c.amplitude_m_s2,
                          2.0 * math.pi / (c.period_h * 3600.0), c.phase_rad)
            for c in self.components)
        return TideModel(mean_gravity=self.mean_gravity_m_s2, components=comps)


@bounded
class ScanBlock:
    target: Literal["phase", "sweep_rate", "interrogation_time"] = "phase"
    start: float = 0.0
    stop: float = 4.0 * math.pi
    points: Annotated[int, Range(1)] = 32

    def __post_init__(self):
        if self.stop <= self.start and self.points > 1:
            raise ValueError("stop must exceed start")

    def grid(self):
        import numpy as np
        return np.linspace(self.start, self.stop, self.points, endpoint=False)


@bounded
class BvsBlock:
    depth_er: Annotated[float, Positive] = 4.0
    load_duration_s: Annotated[float, Positive] = 100e-6
    acceleration_m_s2: Annotated[float, Positive] = 30.0
    target_momentum_hk: Annotated[int, Positive] = 8
    profile_min_hk: Annotated[float, Range(-2, 2)] = -2.0
    profile_max_hk: Annotated[float, Range(-2, 2)] = 2.0
    profile_points: Annotated[int, Range(1)] = 21

    def resolve(self) -> LatticeRamp:
        return LatticeRamp(depth=self.depth_er,
                           load_duration=self.load_duration_s,
                           acceleration=self.acceleration_m_s2,
                           target_momentum=self.target_momentum_hk)


@bounded
class GravityRunBlock:
    shots: Annotated[int, Range(1)] = 2000
    shot_period_s: Annotated[float, Positive] = 1.0
    bin_size: Annotated[int, Range(2)] = 38   # a bin of one shot has no standard error


@bounded
class PulseBlock:
    order: Annotated[int, Range(1)] = 2
    sigma_s: Annotated[float, Positive] = 15e-6
    rabi_peak_rad_s: Annotated[float, NonNegative] | Literal["calibrated"] = "calibrated"
    transfer_target: Annotated[float, Range(0, 1, open_low=True)] = 0.5
    quasimomentum_hk: Annotated[float, Range(-1, 1)] = 0.0

    def resolve(self, species: AtomSpecies) -> PulseSpec:
        """The pulse, resonant for ``order`` and at zero amplitude until
        calibrated."""
        peak = self.rabi_peak_rad_s
        return PulseSpec(rabi_peak=0.0 if peak == "calibrated" else peak,
                         sigma=self.sigma_s,
                         detuning=bragg_resonance(self.order, species))


@bounded
class ClassOracleBlock:
    class_index: int = 2
    a_min: int = -8
    a_max: int = 8
    time_min_s: Annotated[float, NonNegative] = 0.0
    time_max_s: float = 120e-6
    time_points: Annotated[int, Range(1)] = 121

    def __post_init__(self):
        if self.a_max < self.a_min:
            raise ValueError(f"a_max {self.a_max} must be >= a_min {self.a_min}")
        if not self.time_min_s <= self.time_max_s:
            raise ValueError("time_min_s must not exceed time_max_s")


@bounded
class ExperimentConfig:
    seed: Annotated[int, NonNegative] = 0   # numpy seeds from non-negative integers only
    gravity_m_s2: float = STANDARD_GRAVITY
    out_dir: str = "runs/out"
    species: SpeciesBlock = field(default_factory=SpeciesBlock)
    geometry: GeometryBlock = field(default_factory=GeometryBlock)
    sequence: SequenceBlock = field(default_factory=SequenceBlock)
    ensemble: EnsembleSpec = field(default_factory=EnsembleSpec)
    noise: NoiseModel = field(default_factory=NoiseModel)
    tide: TideBlock = field(default_factory=TideBlock)
    scan: ScanBlock = field(default_factory=ScanBlock)
    bvs: BvsBlock = field(default_factory=BvsBlock)
    gradiometer: GradiometerSpec = field(default_factory=GradiometerSpec)
    gravity_run: GravityRunBlock = field(default_factory=GravityRunBlock)
    pulse: PulseBlock = field(default_factory=PulseBlock)
    class_oracle: ClassOracleBlock = field(default_factory=ClassOracleBlock)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)


@dataclass(frozen=True)
class Run:
    """One run: the raw ``config`` that the summary echoes, and the domain
    object of each block that resolves, built once by ``resolve``."""

    config: ExperimentConfig
    species: AtomSpecies
    geometry: BeamGeometry
    plan: MZISequence   # the schedule before calibration
    tide: TideModel
    ramp: LatticeRamp
    pulse: PulseSpec


def resolve(config: ExperimentConfig) -> Run:
    """Build the domain object of each block that resolves, whichever
    subcommand runs; a ConfigError names the block."""
    def build(key, *args):
        with at_key(key):
            return getattr(config, key).resolve(*args)

    species = build("species")
    return Run(config, species, build("geometry", species), build("sequence"),
               build("tide"), build("bvs"), build("pulse", species))


def _describe(tp) -> str:
    """How an error message names an annotation."""
    if get_origin(tp) is Literal:
        return " or ".join(map(repr, get_args(tp)))
    if get_origin(tp) in (Union, UnionType):
        return " or ".join(map(_describe, get_args(tp)))
    return "a mapping" if is_dataclass(tp) else {type(None): "null"}.get(tp, tp.__name__)


def _fits(tp, value) -> bool:
    """Whether ``value`` has the type ``tp`` asks for; a bool is no number."""
    if get_origin(tp) is Literal:
        return type(value) is str and value in get_args(tp)
    kind = dict if is_dataclass(tp) else get_origin(tp) or tp
    return type(value) in ((int, float) if kind is float else (kind,))


def _build(tp, value, path: str, bound=Finite):
    """Check ``value`` against annotation ``tp``, a number also against its
    field's ``bound``; build a block from a mapping."""
    if get_origin(tp) in (Union, UnionType):
        # float | None is a UnionType, float | Literal[...] a typing.Union
        tp = next((arm for arm in get_args(tp) if _fits(arm, value)), tp)
    elif value is None and (is_dataclass(tp) or get_origin(tp) is list):
        value = {} if is_dataclass(tp) else []
    if not _fits(tp, value):
        got = "null" if value is None else f"{type(value).__name__} {value!r}"
        if type(value) is str and re.fullmatch(r"[-+]?[\d.]+[eE][-+]?\d+", value):
            got += "; YAML 1.1 reads that as a string: write 2.0e-3, not 2e-3"
        raise ConfigError(path or "<root>", f"expected {_describe(tp)}, got {got}")
    if tp in (int, float) and not bound.admits(value):
        raise ConfigError(path, bound.complaint(value))
    if get_origin(tp) is list:
        return [_build(get_args(tp)[0], v, f"{path}[{i}]")
                for i, v in enumerate(value)]
    if not is_dataclass(tp):
        return value
    hints, kwargs = get_type_hints(tp), {}
    bounds = {name: rng for name, rng, _ in field_bounds(tp)}
    for key, item in value.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in hints:
            raise ConfigError(where, "unknown key")
        kwargs[key] = _build(hints[key], item, where, bounds.get(key, Finite))
    with at_key(path or "<root>"):   # a rule between the block's fields
        return tp(**kwargs)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw mapping into a fully defaulted ExperimentConfig."""
    return _build(ExperimentConfig, data, "")


class _UniqueKeyLoader(yaml.SafeLoader):
    """``SafeLoader`` rejecting a key repeated in one mapping (it keeps the last)."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:   # a key that is no scalar stands for itself
            text = (key.tag, key.value) if isinstance(key, yaml.ScalarNode) else key
            if text in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key.value!r}", key.start_mark)
            seen.add(text)
        return super().construct_mapping(node, deep=deep)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = Path(path).read_bytes()   # yaml decodes it: a bad byte is a YAMLError
    except OSError as exc:
        raise ConfigError(f"config {path}", str(exc)) from exc
    try:
        data = yaml.load(raw, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path}", f"invalid YAML: {exc}") from exc
    return parse_config(data)


def echo_config(config: ExperimentConfig) -> str:
    """YAML echo, stable key order, parseable back to an equal config."""
    return yaml.safe_dump(asdict(config), sort_keys=True,
                          default_flow_style=False)
