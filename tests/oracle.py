"""Density-matrix channel composition: an independent route to the engine's tables.

The protocol engine works on branch amplitudes and Born vectors; these
helpers build the same physics as Kraus channels on density matrices, so the
engine cross-check tests can compare the two.  ``oracle_tables`` rebuilds a
whole analytic run this way, one Kraus operator at a time.
``born_probabilities`` is the per-setting einsum over the outcome bras that
the cached Born map replaced as the sampler's weights; the map sums in another
order, so it is reproduced to rounding (1e-15).
``reference_linear_inversion`` is the Pauli-string inversion loop that the
least-squares inverse of the cached Born map replaced; that product sums in
another order, so it is reproduced to rounding (1e-14).
``reference_poisson_cdf`` is the full k-term Poisson sum that the
early-stopping one replaced, and must be reproduced bit for bit.
``reference_mle`` maximizes a table's likelihood by another algorithm than
``tomography.mle_batch``, from another start, with its own certificate, so
that the fit's certified gap can be checked against it.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from apgate.cavity import CavityParams, gate_branch_amplitudes
from apgate.protocols import ERASER_ROTATION_PHASE, StarvationError
from apgate.pulse import (confusion_matrix, detection_confusion, jitter_nodes,
                          multiphoton_fraction, spectral_sigma_khz)
from apgate.qlin import (DOWN, HERMITICITY_TOL, PAULI_I, PAULI_X, PAULI_Y,
                         PAULI_Z, UP, X_MINUS, X_PLUS, DensityMatrix, rotation)
from apgate.tomography import CountsTable, MeasurementSetting, all_settings


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Set of Kraus operators; trace-decreasing channels model post-selected loss."""

    kraus_ops: tuple
    trace_preserving: bool = True

    def __post_init__(self):
        ops = tuple(np.array(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("Kraus operators must be square")
        if any(k.shape != shape for k in ops):
            raise ValueError("Kraus operators must share one dimension")
        total = sum(k.conj().T @ k for k in ops)
        if self.trace_preserving:
            if np.max(np.abs(total - np.eye(shape[0]))) > HERMITICITY_TOL:
                raise ValueError("Kraus operators do not satisfy completeness")
        elif np.linalg.eigvalsh(total)[-1] > 1.0 + HERMITICITY_TOL:
            raise ValueError("Kraus operators exceed the trace-decreasing bound")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def apply_channel(rho: DensityMatrix, ch: KrausChannel):
    """Apply a Kraus channel; returns (normalized state, success probability)."""
    if ch.dim != rho.dim:
        raise ValueError("channel and state dimensions differ")
    out = np.zeros_like(rho.entries)
    for k in ch.kraus_ops:
        out = out + k @ rho.entries @ k.conj().T
    if ch.trace_preserving:
        return DensityMatrix(out), 1.0
    prob = float(np.trace(out).real)
    if prob < 1e-12:
        raise StarvationError("channel output has zero trace")
    return DensityMatrix(out / prob), prob


def mode_mismatch_channel(overlap: float, losses,
                          params: CavityParams = CavityParams()) -> KrausChannel:
    """Gate with probability ``overlap``; otherwise the photon reflects off the
    mirror surface with amplitude +1 (no conditional phase, no loss)."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    gate = np.diag(gate_branch_amplitudes(params, losses, delta=0.0))
    ops = []
    if overlap > 0.0:
        ops.append(math.sqrt(overlap) * gate)
    if overlap < 1.0:
        ops.append(math.sqrt(1.0 - overlap) * np.eye(4, dtype=complex))
    preserving = losses[0] == 0.0 and losses[1] == 0.0
    return KrausChannel(tuple(ops), trace_preserving=preserving)


# ---------------------------------------------------------------------------
# Full-model outcome tables

def _pair_gate(amps: np.ndarray, photon: int, n: int) -> np.ndarray:
    """Diagonal reflection map on (atom, photon ``photon``) of an n-qubit register."""
    return np.diag([amps[2 * bits[0] + bits[1 + photon]]
                    for bits in itertools.product((0, 1), repeat=n)])


def _readout(p: np.ndarray, confusions, q2: float) -> np.ndarray:
    """Classical readout of one branch's Born vectors (one row per setting):
    a confusion matrix on every qubit, then the extra-photon contamination on
    each photon in turn (with weight q2 a photon's record is an independent
    draw from its own marginal)."""
    grid = p.reshape((len(p),) + (2,) * len(confusions))
    for axis, mat in enumerate(confusions, start=1):
        grid = np.moveaxis(np.tensordot(mat, grid, axes=([1], [axis])), 0, axis)
    outcomes = tuple(range(1, grid.ndim))
    for axis in outcomes[1:]:
        total = grid.sum(axis=outcomes, keepdims=True)
        rest = tuple(a for a in outcomes if a != axis)
        mixed = grid.sum(axis=axis, keepdims=True) * grid.sum(axis=rest, keepdims=True)
        grid = (1.0 - q2) * grid + q2 * np.divide(mixed, total, out=np.zeros_like(grid),
                                                  where=total > 0.0)
    return grid.reshape(len(p), -1)


def _run_tables(cavity, imp, q2, atom_ket, photon_kets, settings, atom_phase=0.0,
                pre_measure=np.eye(2), atom_confusion=np.eye(2)):
    """Unnormalized outcome tables of one run, summed branch by branch.

    Per jitter node and in/out-of-mode pattern one Kraus operator (reflection
    maps of the in-mode photons, the drift-phase unitary, a dephasing Kraus
    operator, the optional pre-measurement rotation) acts on the initial
    density matrix; atoms prepared outside the qubit leave every photon
    uncoupled and form one more term.
    """
    k = len(photon_kets)
    n = 1 + k
    ov, f_prep = imp.mode_overlap, imp.prep_fidelity
    kets = [np.asarray(v, dtype=complex) for v in (atom_ket, *photon_kets)]
    psi = functools.reduce(np.kron, kets)
    phot = functools.reduce(np.kron, kets[1:])
    rho0, rho_phot = np.outer(psi, psi.conj()), np.outer(phot, phot.conj())
    coherence = imp.atomic_coherence_factor
    dephasing = [math.sqrt((1.0 + coherence) / 2.0) * np.eye(2),
                 math.sqrt((1.0 - coherence) / 2.0) * np.diag([1.0, -1.0])]
    drift = np.diag([1.0, np.exp(-1j * atom_phase)])
    atom_ops = [np.kron(pre_measure @ d @ drift, np.eye(2 ** k)) for d in dephasing]
    confusions = [atom_confusion] + [confusion_matrix(imp.photonic_meas_error)] * k
    projectors = np.array([s.projectors() for s in settings])
    phot_projectors = np.array([MeasurementSetting(s.labels[1:]).projectors()
                                for s in settings])
    # Wrongly prepared atoms read out as the upper hyperfine state in a Z
    # readout and at random otherwise.
    err_atom = np.array([[1.0, 0.0] if s.labels[0] == "Z" else [0.5, 0.5]
                         for s in settings])

    tables = np.zeros((len(settings), 2 ** n))
    deltas, weights = jitter_nodes(imp.freq_jitter_khz, imp.freq_bias_khz)
    for delta, w_node in zip(deltas, weights):
        amps = gate_branch_amplitudes(cavity, (imp.loss_coupled, imp.loss_uncoupled), delta)
        branches = []
        rho_err = np.zeros_like(rho_phot)
        for modes in itertools.product((True, False), repeat=k):
            p_modes = math.prod(ov if m else 1.0 - ov for m in modes)
            gate = np.eye(2 ** n, dtype=complex)
            for j in np.flatnonzero(modes):
                gate = _pair_gate(amps, j, n) @ gate
            for op in atom_ops:
                kraus = op @ gate
                branches.append(f_prep * p_modes * kraus @ rho0 @ kraus.conj().T)
            rho_err = rho_err + ((1.0 - f_prep) * p_modes
                                 * abs(amps[1]) ** (2 * sum(modes))) * rho_phot
        for rho in branches:
            p = np.einsum("soij,ji->so", projectors, rho).real
            tables += w_node * _readout(p, confusions, q2)
        p_phot = np.einsum("soij,ji->so", phot_projectors, rho_err).real
        p_err = np.einsum("sa,sp->sap", err_atom, p_phot).reshape(len(settings), -1)
        tables += w_node * _readout(p_err, confusions, q2)
    return tables


def oracle_tables(cfg, protocol: str):
    """``(tables, survival)`` of an analytic ``protocol`` run, from density matrices.

    ``protocol`` is "bell", "ghz", "eraser" or "truth-table"; the layout is
    the runner's raw one (the truth table has one row and one survival per
    input, atom-down inputs without preparation error and the drift bias
    re-centered).
    """
    truth_table = protocol == "truth-table"
    pulse = cfg.truth_table_pulse if truth_table else cfg.bell_pulse
    q2 = 0.0 if cfg.assume_single_photon else multiphoton_fraction(pulse)
    imp = cfg.imperfections
    if cfg.spectral_correction:
        imp = dataclasses.replace(imp, freq_jitter_khz=math.hypot(
            imp.freq_jitter_khz, spectral_sigma_khz(pulse)))
    if truth_table:
        imp = dataclasses.replace(imp, freq_bias_khz=0.0)
        setting = [MeasurementSetting(("Z", "X"))]
        rows = [_run_tables(cfg.cavity, dataclasses.replace(imp, prep_fidelity=f),
                            q2, atom, [photon], setting,
                            atom_confusion=detection_confusion(cfg.detection))[0]
                for atom, photon, f in ((DOWN, X_MINUS, 1.0), (DOWN, X_PLUS, 1.0),
                                        (UP, X_MINUS, imp.prep_fidelity),
                                        (UP, X_PLUS, imp.prep_fidelity))]
        survival = np.array([row.sum() for row in rows])
        return np.array(rows) / survival[:, None], survival
    k = 1 if protocol == "bell" else 2
    drift = imp.drift_phase_per_reflection * k
    if protocol == "eraser":
        settings = [MeasurementSetting(("Z",) + s.labels) for s in all_settings(2)]
        pre = rotation(math.pi / 2, ERASER_ROTATION_PHASE)
    else:
        settings, pre = all_settings(1 + k), np.eye(2)
    tables = _run_tables(cfg.cavity, imp, q2, X_MINUS, [X_MINUS] * k, settings,
                         atom_phase=drift, pre_measure=pre)
    survival = tables[0].sum()
    return tables / survival, survival


_PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def born_probabilities(rho: DensityMatrix, setting: MeasurementSetting) -> np.ndarray:
    """Born weights tr(Pi_o rho) per outcome, clamped at zero: <o| rho |o> for
    each outcome bra of the setting."""
    if rho.dim != 2 ** setting.n_qubits:
        raise ValueError("state and setting dimensions differ")
    bras = setting.basis_matrix()
    p = np.einsum("oi,ij,oj->o", bras, rho.entries, bras.conj()).real
    return np.clip(p, 0.0, None)


def reference_linear_inversion(table: CountsTable) -> np.ndarray:
    """Pauli-expectation inversion that rebuilds every sign vector, setting
    match and Kronecker operator on each call."""
    n = table.settings[0].n_qubits
    names = [s.name for s in table.settings]
    if {s.name for s in all_settings(n)} - set(names):
        raise ValueError("settings do not form a tomographically complete set")
    # signs[q, o] = +-1 for qubit q in outcome o (bit 0 -> +1).
    signs = 1.0 - 2.0 * ((np.arange(2 ** n) >> np.arange(n - 1, -1, -1)[:, None]) & 1)
    freqs = table.frequencies
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for pauli in itertools.product("IXYZ", repeat=n):
        sign = functools.reduce(np.multiply, [signs[q] for q, p in enumerate(pauli)
                                              if p != "I"], np.ones(2 ** n))
        estimates = [float(f @ sign) for name, f in zip(names, freqs)
                     if all(p == "I" or p == name[q] for q, p in enumerate(pauli))]
        op = functools.reduce(np.kron, [_PAULIS[p] for p in pauli], np.array([[1.0 + 0j]]))
        rho += (sum(estimates) / len(estimates)) * op
    rho /= 2 ** n
    return 0.5 * (rho + rho.conj().T)


def reference_poisson_cdf(k: int, lam: float) -> float:
    """P(n <= k) for a Poisson mean ``lam``, summed over all k + 1 terms."""
    if lam == 0.0:
        return 1.0
    term = math.exp(-lam)
    total = term
    for i in range(1, k + 1):
        term *= lam / i
        total += term
    return min(1.0, total)


def log_likelihood(settings, counts, rho: np.ndarray) -> float:
    """sum_i n_i log tr(Pi_i rho) over the observed outcomes of one table."""
    flat = np.concatenate([s.projectors() for s in settings]).reshape(-1, rho.size)
    n = np.asarray(counts, dtype=float).reshape(-1)
    p = (flat @ rho.reshape(-1).conj()).real        # tr(Pi rho) for Hermitian rho
    return float(n[n > 0] @ np.log(p[n > 0]))


def reference_mle(settings, counts, tol: float = 0.01):
    """``(rho, l)``: one table's likelihood maximized by diluted R-rho-R
    (Rehacek, Hradil, Knill, Lvovsky, PRA 75, 042108 (2007)) from I/d, until
    its own bound on l_max - l is at most ``tol`` nats.

    A step rho <- A rho A / tr, A = I + eps R, is kept when l rises; eps then
    doubles, else halves, and is capped at 1e4 (an uncapped step overflowed).  The
    bound is the smaller of the Frank-Wolfe gap N (lambda_max(R) - 1) and a
    Lagrange-dual value: with y = n / (N p) and R = V diag(w) V^H, the dual
    point y - delta, where sum_i delta_i Pi_i = V diag(m) V^H is solved by a
    pseudo-inverse of the projectors and m is w - 1 on rho's support (weight
    above 1e-3), max(w - 1, 0) off it; zero-count entries are clipped at 0,
    and the operator's largest eigenvalue s rescales it.  By log x <= x - 1,
    l_max <= sum_{n_i > 0} n_i log(n_i / (N y'_i)) + N log max(s, 1).
    """
    projs = np.concatenate([s.projectors() for s in settings])
    dim = projs.shape[1]
    flat = projs.reshape(len(projs), -1)
    solve = np.linalg.pinv(np.concatenate([flat.real, flat.imag], axis=1).T)
    n = np.asarray(counts, dtype=float).reshape(-1)
    obs, total = n > 0, n.sum()

    def born(rho):
        p = (flat @ rho.reshape(-1).conj()).real
        return p, float(n[obs] @ np.log(p[obs]))

    def bound(rho, y, w, v):
        weight = np.einsum("ik,ij,jk->k", v.conj(), rho, v).real
        m_op = (v * np.where(weight > 1e-3, w - 1.0, np.maximum(w - 1.0, 0.0))) @ v.conj().T
        dual = y - solve @ np.concatenate([m_op.real.reshape(-1), m_op.imag.reshape(-1)])
        dual[~obs] = np.maximum(dual[~obs], 0.0)
        frank_wolfe = total * (w[-1] - 1.0)
        if np.any(dual[obs] <= 0.0):
            return frank_wolfe
        s = max(1.0, np.linalg.eigvalsh((dual @ flat).reshape(dim, dim))[-1])
        return min(frank_wolfe, n[obs] @ np.log(y[obs] / dual[obs]) + total * math.log(s))

    rho = np.eye(dim, dtype=complex) / dim
    (p, l), eps = born(rho), 1.0
    for _ in range(100_000):
        y = n / (total * p)                 # every iterate has full rank, so p > 0
        r = (y @ flat).reshape(dim, dim)
        if bound(rho, y, *np.linalg.eigh(r)) <= tol:
            return rho, l
        a = np.eye(dim) + eps * r
        step = a @ rho @ a.conj().T
        step /= np.trace(step).real
        p_step, l_step = born(step)
        if l_step > l:
            rho, p, l, eps = step, p_step, l_step, min(2.0 * eps, 1e4)
        else:
            eps /= 2.0
    raise RuntimeError("reference maximizer did not reach its bound")
