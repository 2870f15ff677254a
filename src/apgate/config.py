"""Run configuration: schema, validation and bundled parameter profiles.

Config files are JSON with unit-suffixed keys (plain MHz/kHz/GHz, ppm); the
conversion to angular frequencies happens in one place here.  Unknown keys
are rejected with their dotted path, and the seed is mandatory so every run
is reproducible.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

from .cavity import TWO_PI, CavityParams, MirrorBudget
from .pulse import CoherentPulse, DetectionModel, ImperfectionConfig

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
    """Validated aggregate of every knob a protocol run needs."""

    seed: int
    cavity: CavityParams = field(default_factory=CavityParams)
    mirrors: MirrorBudget = field(default_factory=MirrorBudget)
    imperfections: ImperfectionConfig = field(default_factory=ImperfectionConfig)
    detection: DetectionModel = field(default_factory=DetectionModel)
    bell_pulse: CoherentPulse = CoherentPulse(0.07, 0.7)
    truth_table_pulse: CoherentPulse = CoherentPulse(0.3, 0.7)
    assume_single_photon: bool = False
    spectral_correction: bool = False
    preselection_pass: float = 0.5
    trials: int = 100_000
    mode: str = "analytic"
    output_dir: str = "runs"
    shots_per_setting: int = 5000    # calibrated error scale (acceptance criterion 11)
    mc_replicas: int = 100

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # to_dict() records one FWHM and derives kappa_in from the mirrors.
        if self.truth_table_pulse.fwhm_us != self.bell_pulse.fwhm_us:
            raise ValueError("both pulses must share one fwhm_us")
        kappa_in = self.cavity.kappa * self.mirrors.kappa_in_fraction
        if not math.isclose(self.cavity.kappa_in, kappa_in, rel_tol=1e-12):
            raise ValueError("cavity.kappa_in must be kappa times the mirrors' fraction")
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

    def to_dict(self) -> dict:
        """The config document of this run: plain units, every key present."""
        c = self.cavity
        return {
            "seed": int(self.seed),
            "trials": int(self.trials),
            "mode": self.mode,
            "output_dir": self.output_dir,
            "cavity": {
                "g_mhz": c.g / TWO_PI,
                "kappa_mhz": c.kappa / TWO_PI,
                "gamma_mhz": c.gamma / TWO_PI,
                "delta_c_mhz": c.delta_c / TWO_PI,
                "delta_a_mhz": c.delta_a / TWO_PI,
            },
            "mirrors": asdict(self.mirrors),
            "imperfections": asdict(self.imperfections),
            "detection": asdict(self.detection),
            "pulses": {
                "bell_mean_photons": self.bell_pulse.mean_photons,
                "truth_table_mean_photons": self.truth_table_pulse.mean_photons,
                "fwhm_us": self.bell_pulse.fwhm_us,
                "assume_single_photon": bool(self.assume_single_photon),
                "spectral_correction": bool(self.spectral_correction),
            },
            "preselection_pass": self.preselection_pass,
            "shots_per_setting": int(self.shots_per_setting),
            "mc_replicas": int(self.mc_replicas),
        }


def _keys_checked(section, defaults: dict, path: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}" if path else unknown[0],
                          "unknown key")
    return section


_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _cast(key: str, value, default):
    """``value`` as the type of ``default``; no bool converts to or from
    another type, an integer takes only an integral number, a string key
    takes only a string, and no number may be NaN or infinite (``json``
    reads ``NaN`` and ``Infinity``)."""
    kind = type(default)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    if isinstance(value, bool) != (kind is bool) or (
            kind is str and not isinstance(value, str)) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    return kind(value)


def _build(path: str, make, section: dict, defaults: dict):
    """``make(**values)``, each value cast to its default's type; a bad
    value is reported against the section ``path``."""
    try:
        return make(**{k: _cast(k, section.get(k, d), d) for k, d in defaults.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _pulse_fields(bell_mean_photons, truth_table_mean_photons, fwhm_us,
                  assume_single_photon, spectral_correction) -> dict:
    """RunConfig fields set by the ``pulses`` section."""
    return {"bell_pulse": CoherentPulse(bell_mean_photons, fwhm_us),
            "truth_table_pulse": CoherentPulse(truth_table_mean_photons, fwhm_us),
            "assume_single_photon": assume_single_photon,
            "spectral_correction": spectral_correction}


def config_from_dict(data: dict) -> RunConfig:
    """Validate a parsed config document and build a RunConfig.

    The schema is the paper profile's own document: its keys are the allowed
    keys, its values the defaults and their types the casts.
    """
    schema = paper_profile(seed=0).to_dict()
    _keys_checked(data, schema, "")
    if "seed" not in data:
        raise ConfigError("seed", "missing required field")
    sections = {name: _keys_checked(data.get(name, {}), defaults, name)
                for name, defaults in schema.items() if isinstance(defaults, dict)}

    mirrors = _build("mirrors", MirrorBudget, sections["mirrors"], schema["mirrors"])
    cavity = _build("cavity", partial(CavityParams.from_mhz,
                                      kappa_in_fraction=mirrors.kappa_in_fraction),
                    sections["cavity"], schema["cavity"])
    imperfections = _build("imperfections", ImperfectionConfig,
                           sections["imperfections"], schema["imperfections"])
    detection = _build("detection", DetectionModel, sections["detection"],
                       schema["detection"])
    pulses = _build("pulses", _pulse_fields, sections["pulses"], schema["pulses"])
    run = {k: d for k, d in schema.items() if not isinstance(d, dict)}
    return _build("run", partial(
        RunConfig, cavity=cavity, mirrors=mirrors, imperfections=imperfections,
        detection=detection, **pulses), data, run)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top-level config must be an object")
    return config_from_dict(data)


def paper_profile(seed: int = 20140401) -> RunConfig:
    """Calibrated operating point of the simulated setup."""
    return RunConfig(
        seed=seed,
        imperfections=ImperfectionConfig(
            drift_phase_per_reflection=DRIFT_PHASE_PER_REFLECTION),
    )


def ideal_profile(seed: int = 20140401) -> RunConfig:
    """Every imperfection switched off; protocols then reach their targets exactly."""
    return RunConfig(
        seed=seed,
        imperfections=ImperfectionConfig.ideal(),
        detection=DetectionModel(mean_signal_photons=50.0, dark_prob=0.0),
        assume_single_photon=True,
    )


PROFILES = {"paper": paper_profile, "ideal": ideal_profile}
