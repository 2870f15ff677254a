"""Run configuration: schema, validation and bundled parameter profiles.

Config files are JSON with unit-suffixed keys (plain MHz/kHz/GHz, ppm); the
values keep the document's units and are converted where the physics reads
them.  Each section is held as written, one dataclass field per key, so the
document is the config's fields.  Unknown keys are rejected with their
dotted path, and the seed is mandatory so every run is reproducible.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, is_dataclass
from functools import partial
from pathlib import Path

from .cavity import CavityParams, MirrorBudget
from .pulse import DetectionModel, ImperfectionConfig, PulseConfig

MODES = ("analytic", "monte-carlo")

# Net atomic-coherence phase per reflection accumulated from the slow drift
# of the laser-cavity offset, calibrated against the reported rotated-state
# phase maxima (0.11 pi for one reflection, about twice that for two).
DRIFT_PHASE_PER_REFLECTION = 0.11 * math.pi


class ConfigError(ValueError):
    """Configuration problem, carrying the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class RunConfig:
    """Validated aggregate of every knob a protocol run needs, in the
    document's order: ``config_from_dict`` checks the keys in this order."""

    seed: int
    trials: int = 100_000
    mode: str = "analytic"
    output_dir: str = "runs"
    cavity: CavityParams = field(default_factory=CavityParams)
    imperfections: ImperfectionConfig = field(default_factory=ImperfectionConfig)
    detection: DetectionModel = field(default_factory=DetectionModel)
    pulses: PulseConfig = field(default_factory=PulseConfig)
    preselection_pass: float = 0.5
    shots_per_setting: int = 5000    # calibrated error scale (acceptance criterion 11)
    mc_replicas: int = 100

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0.0 < self.preselection_pass <= 1.0:
            raise ValueError("preselection_pass must lie in (0, 1]")
        if self.shots_per_setting < 1:
            raise ValueError("shots_per_setting must be at least 1")
        if self.mc_replicas < 2:
            raise ValueError("mc_replicas must be at least 2")
        # Below 2**53, the integers JSON holds exactly (RFC 8259), numpy
        # refuses an array it cannot allocate with a MemoryError.
        for name in ("trials", "mc_replicas"):
            if getattr(self, name) >= 2**53:
                raise ValueError(f"{name} must be below 2**53")
        for name, value in (("seed", self.seed), ("shots_per_setting", self.shots_per_setting),
                            ("detection.threshold", self.detection.threshold)):
            try:
                str(value)      # the run's JSON snapshot writes its digits
            except ValueError:
                raise ValueError(f"{name} must have at most {sys.get_int_max_str_digits()} "
                                 f"digits, got {_shown(value)}") from None

    def to_dict(self) -> dict:
        """The run's config document, fresh dicts of its fields: plain units, every key present."""
        data = {k: dict(vars(v)) if is_dataclass(v) else v for k, v in vars(self).items()}
        keys = list(data)
        keys.insert(keys.index("cavity") + 1, "mirrors")
        data["mirrors"] = dict(vars(data["cavity"].pop("mirrors")))
        return {key: data[key] for key in keys}


def _keys_checked(section, defaults: dict, path: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}" if path else unknown[0],
                          "unknown key")
    return section


_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}

# Frequencies a config sets stay within 1 PHz, a rate is at least 1e-9 MHz
# and a pulse lasts at least 1e-9 us (an rms spectral width below 2e11 kHz),
# so the reflection formula cannot overflow.  Not checked in the dataclasses:
# the spectrally widened jitter passes through them and may exceed these bounds.
_RANGES = {**dict.fromkeys(("g_mhz", "kappa_mhz", "gamma_mhz"), (1e-9, 1e9)),
           **dict.fromkeys(("delta_c_mhz", "delta_a_mhz"), (-1e9, 1e9)),
           "freq_jitter_khz": (-1e12, 1e12), "freq_bias_khz": (-1e12, 1e12),
           "fwhm_us": (1e-9, math.inf)}


def _shown(value) -> str:
    """``repr(value)``, or the size of an integer past Python's 4300-digit limit."""
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _cast(key: str, value, default):
    """``value`` as the type of ``default``; no bool converts to or from
    another type, a number key takes only a number and an integer key only
    an integral one, a string key takes only a string, no number may be NaN
    or infinite (``json`` reads ``NaN`` and ``Infinity``) nor, for a float
    key, an integer beyond the float range, an integer key's value must
    convert to digits (JSON writes them), and a key in ``_RANGES`` must lie
    in its range."""
    kind = type(default)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {_shown(value)}")
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind in (int, float) else kind) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be {_KINDS[kind]}, got {_shown(value)}")
    if key in _RANGES:
        low, high = _RANGES[key]
        if not low <= value <= high:
            raise ValueError(f"{key} must lie in [{low:g}, {high:g}], got {_shown(value)}")
    try:
        if kind is int:
            repr(value)     # the run's JSON snapshot writes its digits
        return kind(value)
    except OverflowError:
        raise ValueError(f"{key} must be finite, got {_shown(value)}") from None
    except ValueError:      # past Python's digit limit for integer strings
        raise ValueError(f"{key} must have at most {sys.get_int_max_str_digits()} digits, "
                         f"got {_shown(value)}") from None


def _build(path: str, make, section: dict, defaults: dict):
    """``make(**values)``, each value cast to its default's type; a bad
    value is reported against the section ``path``."""
    try:
        return make(**{k: _cast(k, section.get(k, d), d) for k, d in defaults.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def config_from_dict(data: dict) -> RunConfig:
    """Validate a parsed config document and build a RunConfig.

    The schema ``_SCHEMA`` is the paper profile's own document: its keys are the
    allowed keys, its values the defaults and their types the casts.
    """
    _keys_checked(data, _SCHEMA, "")
    if "seed" not in data:
        raise ConfigError("seed", "missing required field")
    sections = {name: _keys_checked(data.get(name, {}), defaults, name)
                for name, defaults in _SCHEMA.items() if isinstance(defaults, dict)}
    mirrors = _build("mirrors", MirrorBudget, sections["mirrors"], _SCHEMA["mirrors"])
    makers = {"cavity": partial(CavityParams, mirrors=mirrors),
              "imperfections": ImperfectionConfig, "detection": DetectionModel,
              "pulses": PulseConfig}
    parts = {name: _build(name, make, sections[name], _SCHEMA[name])
             for name, make in makers.items()}
    run = {k: d for k, d in _SCHEMA.items() if not isinstance(d, dict)}
    return _build("run", partial(RunConfig, **parts), data, run)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:   # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top-level config must be an object")
    return config_from_dict(data)


def paper_profile(seed: int = 20140401) -> RunConfig:
    """Calibrated operating point of the simulated setup."""
    return RunConfig(seed=seed, imperfections=ImperfectionConfig(
        drift_phase_per_reflection=DRIFT_PHASE_PER_REFLECTION))


def ideal_profile(seed: int = 20140401) -> RunConfig:
    """Every imperfection switched off; protocols then reach their targets exactly."""
    return RunConfig(seed=seed, imperfections=ImperfectionConfig.ideal(),
                     detection=DetectionModel(mean_signal_photons=50.0, dark_prob=0.0),
                     pulses=PulseConfig(assume_single_photon=True))


PROFILES = {"paper": paper_profile, "ideal": ideal_profile}
_SCHEMA = paper_profile(seed=0).to_dict()     # built once; config_from_dict only reads it
