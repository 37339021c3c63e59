"""Experiment configuration: YAML with nested blocks, strict validation,
fully resolved echo.

Unknown keys are rejected with their path; every block carries explicit
defaults so the echoed configuration reproduces the run bit-identically.
Units are spelled out in the key names.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .bloch import LatticeRamp
from .constants import STANDARD_GRAVITY
from .environment import NoiseModel, TideComponent, TideModel
from .ladder import EvolutionConfig
from .physics import AtomSpecies, BeamGeometry
from .sequence import EnsembleSpec, GradiometerSpec


class ConfigError(ValueError):
    """Malformed configuration; carries the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class SpeciesBlock:
    name: str = "Rb87"
    wavelength_m: float = 780.24e-9
    mass_kg: float | None = None

    def resolve(self) -> AtomSpecies:
        if self.mass_kg is not None:
            return AtomSpecies(mass=self.mass_kg, wavelength=self.wavelength_m)
        if self.name != "Rb87":
            raise ConfigError("species.name",
                              f"unknown species {self.name!r}; give mass_kg")
        return AtomSpecies.rubidium87(wavelength=self.wavelength_m)


@dataclass(frozen=True)
class GeometryBlock:
    tilt_deg: float = 0.0

    def resolve(self, species: AtomSpecies) -> BeamGeometry:
        return BeamGeometry.vertical(species, tilt_angle=math.radians(self.tilt_deg))


@dataclass(frozen=True)
class SequenceBlock:
    order: int = 2
    interrogation_time_s: float = 60e-3
    pulse_sigma_s: float = 15e-6
    mirror_sigma_s: float | None = None
    sweep_rate_hz_per_s: float | str = "resonant"
    phase_offset_rad: float = 0.0


@dataclass(frozen=True)
class EnsembleBlock:
    samples: int = 200
    sigma_q_hk: float = 0.42
    quasimomenta_hk: list[float] | None = None
    seed: int = 0

    def resolve(self) -> EnsembleSpec:
        qs = None if self.quasimomenta_hk is None else tuple(self.quasimomenta_hk)
        return EnsembleSpec(sample_count=self.samples, sigma_q=self.sigma_q_hk,
                            quasimomenta=qs, seed=self.seed)


@dataclass(frozen=True)
class NoiseBlock:
    mirror_phase_rms_rad: float = 0.0
    detection_snr: float | None = 50.0   # null switches detection noise off
    tilt_drift_rad_per_hour: float = 0.0

    def resolve(self) -> NoiseModel:
        snr = math.inf if self.detection_snr is None else self.detection_snr
        return NoiseModel(mirror_phase_rms=self.mirror_phase_rms_rad,
                          detection_snr=snr,
                          tilt_drift=self.tilt_drift_rad_per_hour)


@dataclass(frozen=True)
class TideComponentBlock:
    amplitude_m_s2: float = 1.0e-6
    period_h: float = 12.42
    phase_rad: float = 0.0


@dataclass(frozen=True)
class TideBlock:
    mean_gravity_m_s2: float = STANDARD_GRAVITY
    components: list[TideComponentBlock] = field(default_factory=list)

    def resolve(self) -> TideModel:
        comps = tuple(
            TideComponent(c.amplitude_m_s2,
                          2.0 * math.pi / (c.period_h * 3600.0), c.phase_rad)
            for c in self.components)
        return TideModel(mean_gravity=self.mean_gravity_m_s2, components=comps)


@dataclass(frozen=True)
class ScanBlock:
    target: str = "phase"   # phase | sweep_rate | interrogation_time
    start: float = 0.0
    stop: float = 4.0 * math.pi
    points: int = 32

    def __post_init__(self):
        if self.target not in ("phase", "sweep_rate", "interrogation_time"):
            raise ConfigError("scan.target",
                              f"must be phase, sweep_rate or interrogation_time, "
                              f"got {self.target!r}")
        if self.points < 1:
            raise ConfigError("scan.points", f"must be >= 1, got {self.points}")
        if self.stop <= self.start and self.points > 1:
            raise ConfigError("scan.stop", "must exceed scan.start")

    def grid(self):
        import numpy as np
        return np.linspace(self.start, self.stop, self.points, endpoint=False)


@dataclass(frozen=True)
class BvsBlock:
    depth_er: float = 4.0
    load_duration_s: float = 100e-6
    sweep_duration_s: float | None = None
    acceleration_m_s2: float = 30.0
    target_momentum_hk: int = 8
    profile_min_hk: float = -2.0
    profile_max_hk: float = 2.0
    profile_points: int = 21

    def resolve(self) -> LatticeRamp:
        return LatticeRamp(depth=self.depth_er,
                           load_duration=self.load_duration_s,
                           sweep_duration=self.sweep_duration_s,
                           acceleration=self.acceleration_m_s2,
                           target_momentum=self.target_momentum_hk)


@dataclass(frozen=True)
class GradiometerBlock:
    lower_momentum_hk: int = 8
    upper_momentum_hk: int = 2
    order: int = 3
    bvs_separation_s: float = 50e-3
    gradient_per_s2: float = 3.0e-6

    def resolve(self) -> GradiometerSpec:
        return GradiometerSpec(lower_momentum=self.lower_momentum_hk,
                               upper_momentum=self.upper_momentum_hk,
                               order=self.order,
                               bvs_separation=self.bvs_separation_s)


@dataclass(frozen=True)
class GravityRunBlock:
    shots: int = 2000
    shot_period_s: float = 1.0
    bin_size: int = 38


@dataclass(frozen=True)
class PulseBlock:
    order: int = 2
    sigma_s: float = 15e-6
    rabi_peak_rad_s: float | str = "calibrated"
    transfer_target: float = 0.5
    quasimomentum_hk: float = 0.0


@dataclass(frozen=True)
class ClassOracleBlock:
    class_index: int = 2
    a_min: int = -8
    a_max: int = 8
    time_min_s: float = 0.0
    time_max_s: float = 120e-6
    time_points: int = 121


@dataclass(frozen=True)
class EvolutionBlock:
    error_tolerance: float = 1e-10
    guard_sites: int = 6
    max_step_s: float | None = None

    def resolve(self) -> EvolutionConfig:
        return EvolutionConfig(max_step=self.max_step_s,
                               error_tolerance=self.error_tolerance,
                               ladder_guard_sites=self.guard_sites)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    gravity_m_s2: float = STANDARD_GRAVITY
    out_dir: str = "runs/out"
    species: SpeciesBlock = field(default_factory=SpeciesBlock)
    geometry: GeometryBlock = field(default_factory=GeometryBlock)
    sequence: SequenceBlock = field(default_factory=SequenceBlock)
    ensemble: EnsembleBlock = field(default_factory=EnsembleBlock)
    noise: NoiseBlock = field(default_factory=NoiseBlock)
    tide: TideBlock = field(default_factory=TideBlock)
    scan: ScanBlock = field(default_factory=ScanBlock)
    bvs: BvsBlock = field(default_factory=BvsBlock)
    gradiometer: GradiometerBlock = field(default_factory=GradiometerBlock)
    gravity_run: GravityRunBlock = field(default_factory=GravityRunBlock)
    pulse: PulseBlock = field(default_factory=PulseBlock)
    class_oracle: ClassOracleBlock = field(default_factory=ClassOracleBlock)
    evolution: EvolutionBlock = field(default_factory=EvolutionBlock)


_BLOCK_TYPES = {
    "species": SpeciesBlock,
    "geometry": GeometryBlock,
    "sequence": SequenceBlock,
    "ensemble": EnsembleBlock,
    "noise": NoiseBlock,
    "tide": TideBlock,
    "scan": ScanBlock,
    "bvs": BvsBlock,
    "gradiometer": GradiometerBlock,
    "gravity_run": GravityRunBlock,
    "pulse": PulseBlock,
    "class_oracle": ClassOracleBlock,
    "evolution": EvolutionBlock,
}

_SCALAR_KEYS = {"seed", "gravity_m_s2", "out_dir"}


def _require_finite(value, path: str) -> None:
    """Reject a NaN or infinite number, list elements included."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {value}")


def _build_block(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(path, f"expected a mapping, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown key")
        _require_finite(value, f"{path}.{key}")
        if cls is TideBlock and key == "components":
            if value is None:
                value = []
            if not isinstance(value, list):
                raise ConfigError(f"{path}.components", "expected a list")
            value = [_build_block(TideComponentBlock, c, f"{path}.components[{i}]")
                     for i, c in enumerate(value)]
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw mapping into a fully defaulted ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "configuration must be a mapping")
    kwargs = {}
    for key, value in data.items():
        if key in _SCALAR_KEYS:
            _require_finite(value, key)
            kwargs[key] = value
        elif key in _BLOCK_TYPES:
            kwargs[key] = _build_block(_BLOCK_TYPES[key], value or {}, key)
        else:
            raise ConfigError(key, "unknown key")
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError("<root>", str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    return parse_config(data)


def resolved_dict(config: ExperimentConfig) -> dict:
    """Plain mapping with every default filled in (the config echo)."""
    return asdict(config)


def echo_config(config: ExperimentConfig) -> str:
    """YAML echo, stable key order, parseable back to an equal config."""
    return yaml.safe_dump(resolved_dict(config), sort_keys=True,
                          default_flow_style=False)
