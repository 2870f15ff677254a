"""Faint-pulse photon statistics, the imperfection budget and detection models;
each of the config's ``pulses``, ``imperfections`` and ``detection`` sections
is held as written, one field per key."""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cavity import TWO_PI

# Gauss-Hermite nodes of the analytic detuning average.
N_JITTER_NODES = 21


@dataclass(frozen=True)
class PulseConfig:
    """The config's ``pulses`` section as written: faint Gaussian laser pulses."""

    bell_mean_photons: float = 0.07
    truth_table_mean_photons: float = 0.3
    fwhm_us: float = 0.7
    assume_single_photon: bool = False
    spectral_correction: bool = False

    def __post_init__(self):
        nbars = (self.bell_mean_photons, self.truth_table_mean_photons)
        if any(nbar < 0 for nbar in nbars):
            raise ValueError("mean photon number must be nonnegative")
        if self.fwhm_us <= 0:
            raise ValueError("pulse FWHM must be positive")
        for nbar in nbars:
            if nbar > 1:    # stacklevel 3: past the generated __init__
                warnings.warn(f"mean photon number {nbar} above 1; "
                              "protocols assume faint pulses", stacklevel=3)


def multiphoton_fraction(nbar: float) -> float:
    """P(n >= 2 | n >= 1): odds that a detected pulse carried an extra photon."""
    p0 = math.exp(-nbar)
    at_least_one = 1.0 - p0
    if at_least_one <= 0.0:     # also a mean below rounding, where exp(-nbar) == 1
        return 0.0
    return max(0.0, (at_least_one - nbar * p0) / at_least_one)


def spectral_sigma_khz(fwhm_us: float) -> float:
    """Rms spectral width of a transform-limited Gaussian pulse, in kHz.

    Gaussian time-bandwidth product: intensity FWHM_t * FWHM_f = 2 ln2 / pi.
    The 0.7 us default pulse spans about 0.63 MHz FWHM, i.e. a 270 kHz rms
    spread comparable to the cavity linewidth; the reflection model treats
    the pulse as monochromatic unless the spectral correction is enabled.
    """
    fwhm_f_mhz = (2.0 * math.log(2.0) / math.pi) / fwhm_us
    return 1e3 * fwhm_f_mhz / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class ImperfectionConfig:
    """Calibrated imperfection budget of the gate setup.

    mode_overlap         transverse overlap of photon and cavity mode
    prep_fidelity        probability the atom starts in the intended state
    freq_jitter_khz      rms laser-cavity detuning jitter (resampled per trial)
    freq_bias_khz        static detuning offset (default zero)
    drift_phase_per_reflection  net atomic-coherence phase per reflection
                         (radians) from the slow drift of the laser-cavity
                         offset over a dataset; calibrated from the reported
                         rotated-state phase maxima, default zero
    photonic_meas_error  outcome-flip probability per photon analyzer
    loss_coupled/-un     photon non-survival per reflection, by branch
    rotation_readout_fidelity  success of the whole atomic prepare-rotate-read
                         chain, as measured by two-pulse interferometry
    """

    mode_overlap: float = 0.92
    prep_fidelity: float = 0.96
    freq_jitter_khz: float = 300.0
    freq_bias_khz: float = 0.0
    drift_phase_per_reflection: float = 0.0
    photonic_meas_error: float = 0.01
    loss_coupled: float = 0.34
    loss_uncoupled: float = 0.30
    rotation_readout_fidelity: float = 0.95

    def __post_init__(self):
        # An analyzer that flips more often than not is a relabelled one.
        probs = {
            "mode_overlap": (self.mode_overlap, 1.0),
            "prep_fidelity": (self.prep_fidelity, 1.0),
            "photonic_meas_error": (self.photonic_meas_error, 0.5),
            "loss_coupled": (self.loss_coupled, 1.0),
            "loss_uncoupled": (self.loss_uncoupled, 1.0),
            "rotation_readout_fidelity": (self.rotation_readout_fidelity, 1.0),
        }
        for name, (val, high) in probs.items():
            if not 0.0 <= val <= high:
                raise ValueError(f"{name} must lie in [0, {high:g}], got {val}")
        if self.freq_jitter_khz < 0:
            raise ValueError("freq_jitter_khz must be nonnegative")

    @classmethod
    def ideal(cls) -> "ImperfectionConfig":
        return cls(mode_overlap=1.0, prep_fidelity=1.0, freq_jitter_khz=0.0,
                   freq_bias_khz=0.0, drift_phase_per_reflection=0.0,
                   photonic_meas_error=0.0, loss_coupled=0.0,
                   loss_uncoupled=0.0, rotation_readout_fidelity=1.0)

    @property
    def atomic_coherence_factor(self) -> float:
        """Dephasing factor of the atomic qubit between preparation and readout.

        The two-pulse interference calibration fixes the aggregate chain: its
        fringe has peak ``f_rr`` and contrast ``2 f_rr - 1``.  With the
        preparation error modeled separately (error atoms give a random
        outcome under rotated readout), the residual pure-dephasing factor is
        (2 f_rr - 1) / f_prep, so composing both reproduces the calibration
        exactly.
        """
        contrast = max(0.0, 2.0 * self.rotation_readout_fidelity - 1.0)
        if self.prep_fidelity <= 0.0:
            return 0.0
        return min(1.0, contrast / self.prep_fidelity)


@functools.lru_cache(maxsize=None)
def _hermgauss(n: int) -> tuple:
    return np.polynomial.hermite.hermgauss(n)


def jitter_nodes(sigma_khz: float, bias_khz: float = 0.0):
    """Gauss-Hermite nodes/weights of the jitter distribution (angular MHz).

    Used by the deterministic mode to average channels over the Gaussian
    detuning; a zero width collapses to the single bias point.  The rule is
    computed once per node count, on first use; the returned arrays are new.
    """
    if sigma_khz == 0.0:
        return np.array([TWO_PI * bias_khz * 1e-3]), np.array([1.0])
    x, w = _hermgauss(N_JITTER_NODES)
    deltas_khz = bias_khz + math.sqrt(2.0) * sigma_khz * x
    return TWO_PI * deltas_khz * 1e-3, w / math.sqrt(math.pi)


def confusion_matrix(e: float) -> np.ndarray:
    """Binary outcome confusion [[1-e, e], [e, 1-e]] applied to Born vectors."""
    if not 0.0 <= e <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    return np.array([[1.0 - e, e], [e, 1.0 - e]])


@dataclass(frozen=True)
class DetectionModel:
    """Fluorescence hyperfine-state detection with a count threshold.

    The upper hyperfine state scatters Poissonian signal photons; the lower
    one produces clicks only through the dark channel.  Calibrated defaults
    give the balanced discrimination fidelity 0.9965.
    """

    mean_signal_photons: float = -math.log(0.004)
    dark_prob: float = 0.003
    threshold: int = 1

    def __post_init__(self):
        if self.mean_signal_photons < 0:
            raise ValueError("mean signal photon number must be nonnegative")
        if self.mean_signal_photons > 700:     # exp(-700) is still a normal float
            raise ValueError("mean signal photon number must be at most 700")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError("dark probability must lie in [0, 1)")
        if self.threshold < 1:
            raise ValueError("threshold must be at least 1")

    @property
    def dark_rate(self) -> float:
        """Poisson rate reproducing P(at least one dark count) = dark_prob."""
        return -math.log(1.0 - self.dark_prob)


def _poisson_cdf(k: int, lam: float) -> float:
    term = math.exp(-lam)
    total = term
    for i in range(1, k + 1):
        term *= lam / i
        if term == 0.0:     # every later term is 0.0 too: the sum is final
            break
        total += term
    return min(1.0, total)


def detection_confusion(model: DetectionModel) -> np.ndarray:
    """Column-stochastic confusion M[measured, true] for direct hyperfine readout.

    Outcome order (F2, F1), matching the atom-outcome convention where index 0
    is the detected-F2 outcome; applied to Born vectors as p' = M @ p.
    """
    p22 = 1.0 - _poisson_cdf(model.threshold - 1, model.mean_signal_photons)
    p11 = _poisson_cdf(model.threshold - 1, model.dark_rate)
    return np.array([[p22, 1.0 - p11], [1.0 - p22, p11]])


def hyperfine_fidelity(model: DetectionModel) -> float:
    """Closed-form balanced discrimination fidelity at the configured threshold."""
    return 0.5 * float(np.trace(detection_confusion(model)))
