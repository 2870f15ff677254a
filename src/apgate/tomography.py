"""Measurement simulation and density-matrix reconstruction.

Each qubit is read out in one of the three Pauli bases; a complete run covers
all 3^n basis combinations.  Counts feed either a direct linear inversion
(exact on infinite statistics, not guaranteed positive on finite counts) or
an iterative maximum-likelihood reconstruction that is always physical.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from .qlin import (DensityMatrix, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, X_MINUS,
                   X_PLUS, Y_MINUS, Y_PLUS, UP, DOWN)

PROB_FLOOR = 1e-12
MLE_TOL = 1e-10
MLE_DILUTION = 0.1

_EIGENBASES = {
    "X": np.stack([X_PLUS, X_MINUS]),
    "Y": np.stack([Y_PLUS, Y_MINUS]),
    "Z": np.stack([UP, DOWN]),
}
_PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True)
class MeasurementSetting:
    """One basis label per qubit; outcomes are ordered by (+,-) bits."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(str(l).upper() for l in self.labels)
        if not labels or any(l not in "XYZ" or len(l) != 1 for l in labels):
            raise ValueError(f"labels must each be one of X, Y, Z: {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def name(self) -> str:
        return "".join(self.labels)

    def basis_matrix(self) -> np.ndarray:
        """Rows are the outcome bras; |amp|^2 of (matrix @ psi) are Born weights."""
        rows = np.array([[1.0 + 0j]])
        for label in self.labels:
            rows = np.kron(rows, _EIGENBASES[label])
        return rows.conj()

    def projectors(self) -> np.ndarray:
        """Stack of 2^n rank-1 projectors in outcome order."""
        b = self.basis_matrix().conj()  # rows are kets again
        return np.einsum("oi,oj->oij", b, b.conj())


def all_settings(n_qubits: int) -> List[MeasurementSetting]:
    """The complete set of 3^n basis combinations, lexicographic in (X, Y, Z)."""
    return [MeasurementSetting(labels)
            for labels in itertools.product("XYZ", repeat=n_qubits)]


def born_probabilities(rho: DensityMatrix, setting: MeasurementSetting) -> np.ndarray:
    """Born weights tr(Pi_o rho) per outcome, clamped at zero."""
    if rho.dim != 2 ** setting.n_qubits:
        raise ValueError("state and setting dimensions differ")
    bras = setting.basis_matrix()
    p = np.einsum("oi,ij,oj->o", bras, rho.entries, bras.conj()).real
    return np.clip(p, 0.0, None)


@dataclass(frozen=True)
class CountsTable:
    """Observed outcome counts, one row of 2^n outcomes per measurement setting."""

    settings: tuple
    counts: np.ndarray

    def __post_init__(self):
        settings = tuple(self.settings)
        c = np.array(self.counts, dtype=float)
        if not settings or c.ndim != 2 or c.shape[0] != len(settings):
            raise ValueError("counts need one row per setting")
        if {2 ** s.n_qubits for s in settings} != {c.shape[1]}:
            raise ValueError("row width does not match the settings")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        c.setflags(write=False)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", c)

    @property
    def frequencies(self) -> np.ndarray:
        totals = self.counts.sum(axis=1, keepdims=True)
        if np.any(totals <= 0):
            raise ValueError("a setting has no counts")
        return self.counts / totals


def simulate_counts(rho: DensityMatrix, settings: Sequence[MeasurementSetting],
                    shots_per_setting: int, rng: np.random.Generator) -> CountsTable:
    """Multinomial sampling of the Born probabilities, all settings in one draw."""
    if shots_per_setting < 1:
        raise ValueError("shots_per_setting must be at least 1")
    p = np.array([born_probabilities(rho, s) for s in settings])
    return CountsTable(settings, rng.multinomial(shots_per_setting,
                                                 p / p.sum(axis=1, keepdims=True)))


def _outcome_signs(n: int) -> np.ndarray:
    """signs[q, o] = +-1 for qubit q in outcome o (bit 0 -> +1)."""
    outcomes = np.arange(2 ** n)
    signs = np.empty((n, 2 ** n))
    for q in range(n):
        bit = (outcomes >> (n - 1 - q)) & 1
        signs[q] = 1.0 - 2.0 * bit
    return signs


def linear_inversion(table: CountsTable) -> np.ndarray:
    """Direct Pauli-expectation inversion of a tomographically complete run.

    Exact on exact probabilities; finite counts can produce small negative
    eigenvalues, so the raw Hermitian matrix is returned unclamped for
    diagnostic use.
    """
    n = table.settings[0].n_qubits
    names = [s.name for s in table.settings]
    if {s.name for s in all_settings(n)} - set(names):
        raise ValueError("settings do not form a tomographically complete set")
    signs = _outcome_signs(n)
    freqs = table.frequencies
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for pauli in itertools.product("IXYZ", repeat=n):
        sign = np.ones(2 ** n)
        for q, p in enumerate(pauli):
            if p != "I":
                sign = sign * signs[q]
        estimates = [float(f @ sign) for name, f in zip(names, freqs)
                     if all(p == "I" or p == name[q] for q, p in enumerate(pauli))]
        op = np.array([[1.0 + 0j]])
        for p in pauli:
            op = np.kron(op, _PAULIS[p])
        rho += (sum(estimates) / len(estimates)) * op
    rho /= 2 ** n
    return 0.5 * (rho + rho.conj().T)


@dataclass
class ReconstructionReport:
    """Outcome of an iterative maximum-likelihood reconstruction."""

    rho: DensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool
    ll_history: list = field(default_factory=list)


def mle_reconstruct(table: CountsTable, max_iter: int = 5000) -> ReconstructionReport:
    """Diluted R-rho-R fixed-point iteration.

    Updates rho <- N[(1 - d) R rho R + d rho] with d = MLE_DILUTION and
    R = sum_i (f_i / p_i(rho)) Pi_i, which keeps the iterate physical and the
    log-likelihood non-decreasing in practice; an iteration whose likelihood
    gain falls below MLE_TOL stops the loop.  Probabilities are floored at
    1e-12 so occupied zero-probability bins cannot divide by zero.
    """
    projs = np.concatenate([s.projectors() for s in table.settings])
    counts = table.counts.reshape(-1)
    total = counts.sum()
    if total <= 0:
        raise ValueError("table contains no counts")
    dim = projs.shape[1]
    rho = np.eye(dim, dtype=complex) / dim

    def probs(m):
        return np.clip(np.einsum("rij,ji->r", projs, m).real, PROB_FLOOR, None)

    ll = float(counts @ np.log(probs(rho)))
    history = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        weights = counts / probs(rho) / total
        r_op = np.einsum("r,rij->ij", weights, projs)
        cand = (1.0 - MLE_DILUTION) * (r_op @ rho @ r_op) + MLE_DILUTION * rho
        cand = 0.5 * (cand + cand.conj().T)
        cand /= np.trace(cand).real
        ll_new = float(counts @ np.log(probs(cand)))
        gain = ll_new - ll
        if gain < -1e-9 * (1.0 + abs(ll)):
            # Numerical stall; keep the previous (better) iterate.
            converged = True
            break
        rho = cand
        ll = ll_new
        history.append(ll)
        if gain < MLE_TOL:
            converged = True
            break
    return ReconstructionReport(
        rho=DensityMatrix(rho),
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
        ll_history=history,
    )


def monte_carlo_errors(table: CountsTable,
                       metric: Callable[[DensityMatrix], float],
                       resamples: int, rng: np.random.Generator) -> Dict[str, float]:
    """Parametric-bootstrap standard error of a reconstruction metric.

    Every replica redraws every setting's counts multinomially from the
    observed frequencies (one draw for all of them), reruns the
    maximum-likelihood reconstruction and evaluates the metric; the sample
    standard deviation across replicas is the reported error, under the key
    ``"metric"``.
    """
    if resamples < 2:
        raise ValueError("need at least two resamples")
    totals = np.round(table.counts.sum(axis=1)).astype(np.int64)
    replicas = rng.multinomial(totals, table.frequencies,
                               size=(resamples, len(table.settings)))
    values = [metric(mle_reconstruct(CountsTable(table.settings, counts)).rho)
              for counts in replicas]
    return {"metric": float(np.std(values, ddof=1))}
