"""Reflection of a photon from the atom-cavity system and the gate it realizes.

The conditional-phase mechanism: a single-sided cavity reflects a resonant
photon with phase pi when it is empty (overcoupled mirror) and with phase 0
when a strongly coupled atom shifts the normal modes away from resonance.
Only one (atom state, photon polarization) combination couples, so the
reflection map is diagonal with a single positive branch, which after local
basis changes is a controlled-NOT.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MirrorBudget:
    """Coupling-mirror transmission vs. the remaining round-trip losses (ppm)."""

    t_coupling_ppm: float = 95.0
    loss_other_ppm: float = 8.0

    def __post_init__(self):
        if self.t_coupling_ppm < 0 or self.loss_other_ppm < 0:
            raise ValueError("mirror budget entries must be nonnegative")
        if self.t_coupling_ppm + self.loss_other_ppm <= 0:
            raise ValueError("mirror budget cannot be all zero")

    @property
    def kappa_in_fraction(self) -> float:
        return self.t_coupling_ppm / (self.t_coupling_ppm + self.loss_other_ppm)


@dataclass(frozen=True)
class CavityParams:
    """Atom-cavity rates and probe detunings in plain MHz, the config's
    ``cavity`` keys, and the mirror budget; the physics reads the angular
    rates (omega = 2*pi*f) and the input coupling kappa_in derived from them.

    Defaults are the operating point of the simulated setup: g = 2pi*6.7 MHz,
    kappa = 2pi*2.5 MHz, gamma = 2pi*3 MHz and kappa_in/kappa = 95/103.
    """

    g_mhz: float = 6.7
    kappa_mhz: float = 2.5
    gamma_mhz: float = 3.0
    delta_c_mhz: float = 0.0
    delta_a_mhz: float = 0.0
    mirrors: MirrorBudget = MirrorBudget()

    def __post_init__(self):
        for name in ("g", "kappa", "kappa_in", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    g = property(lambda self: TWO_PI * self.g_mhz)
    kappa = property(lambda self: TWO_PI * self.kappa_mhz)
    gamma = property(lambda self: TWO_PI * self.gamma_mhz)
    delta_c = property(lambda self: TWO_PI * self.delta_c_mhz)
    delta_a = property(lambda self: TWO_PI * self.delta_a_mhz)

    @property
    def kappa_in(self) -> float:
        return self.kappa * self.mirrors.kappa_in_fraction


def reflection_coefficient(params: CavityParams, coupled: bool, delta=0.0) -> complex:
    """Steady-state reflection amplitude of a single-sided atom-cavity system,
    probed at offset ``delta`` (angular MHz, added to both detunings).

    r = 1 - 2 kappa_in (i Delta_a + gamma) /
            [(i Delta_c + kappa)(i Delta_a + gamma) + g^2]

    with g set to zero for the uncoupled branch.  On resonance the empty
    overcoupled cavity gives r < 0 (phase pi) while strong coupling pushes r
    to 1 - (2 kappa_in/kappa)/(1 + 2C) > 0 (phase 0).
    """
    g2 = params.g ** 2 if coupled else 0.0
    atom = 1j * (params.delta_a + delta) + params.gamma
    num = 2.0 * params.kappa_in * atom
    den = (1j * (params.delta_c + delta) + params.kappa) * atom + g2
    return 1.0 - num / den


def gate_branch_amplitudes(params: CavityParams, losses, delta=0.0) -> np.ndarray:
    """Reflection amplitudes per basis pair at probe offset ``delta`` (angular MHz).

    ``delta`` may be an array of offsets; the result has shape
    ``delta.shape + (4,)``.  Pairs are ordered (up_a up_p, up_a down_p,
    down_a up_p, down_a down_p); only the first addresses the resonant
    transition and couples.  The on-resonance magnitudes are calibrated to
    the measured survival probabilities ``1 - loss`` while the detuning
    dependence (phase slope and residual amplitude change) follows the
    steady-state reflection coefficient.  With zero losses and zero offset
    this reduces exactly to the ideal conditional-phase signs.
    """
    for loss in losses:
        if not 0.0 <= loss <= 1.0:
            raise ValueError("losses must be probabilities")
    delta = np.asarray(delta, dtype=float)
    # The resonant reference rides along as offset 0, so it rounds as the
    # other offsets do and the zero-offset modulus is exactly sqrt(1 - loss).
    offsets = np.concatenate([[0.0], delta.reshape(-1)])
    amps = []
    for coupled, loss in zip((True, False), losses):
        r = reflection_coefficient(params, coupled, offsets)
        size = np.abs(r)
        # Calibrated modulus cannot exceed 1 even where the off-resonance
        # reflectivity rises above its resonant value.
        modulus = np.minimum(1.0, math.sqrt(1.0 - loss) * (size[1:] / size[0]))
        # Parts divided separately: a real r then gives a phase of exactly +-1.
        amps.append(modulus * (r.real[1:] / size[1:] + 1j * (r.imag[1:] / size[1:])))
    a_c, a_u = amps
    return np.stack([a_c, a_u, a_u, a_u], axis=-1).reshape(delta.shape + (4,))


def loss_from_first_principles(params: CavityParams):
    """Resonant photon loss 1 - |r|^2 for the coupled and uncoupled branches.

    The uncoupled value lands at the measured ~0.30.  The coupled value
    (~0.46 at the default rates) overshoots the measured 0.34; the
    steady-state model is kept as a cross-check only and the measured numbers
    remain the calibration inputs for the gate channel.
    """
    p = dataclasses.replace(params, delta_c_mhz=0.0, delta_a_mhz=0.0)
    loss_coupled = 1.0 - abs(reflection_coefficient(p, True)) ** 2
    loss_uncoupled = 1.0 - abs(reflection_coefficient(p, False)) ** 2
    return loss_coupled, loss_uncoupled
