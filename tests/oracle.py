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
``reference_state_detection`` is the per-trial Poisson sampler that the
histogram sampler replaced; the two agree in distribution, not in bits.
``reference_mle`` maximizes a table's likelihood by another algorithm than
``tomography.mle_batch``, from another start, with its own certificate, so
that the fit's certified gap can be checked against it.
``reference_certificate`` rebuilds ``mle_batch``'s certificate at a full-rank fitted
state with eigenvalues (the dual point by the projectors' pseudo-inverse), so the gap
that bounds its eigenvalue term by a matrix norm can be checked against it.
``reference_first_step`` is one table's first pass of ``mle_batch`` by halving t
from a given start, and ``reference_cauchy_step`` pass 0's start, the least power of
two at or above the table's Cauchy step (at most 1), summed setting by setting from
``born_probabilities`` and the settings' projectors, so pass 0's bits can be checked.
``reference_project`` is the Frobenius projection onto density matrices one
matrix at a time, its simplex shift found by bisection, so ``_project``'s
sorted-sum shift and its trace-shift path can be checked against it.
``fisher_std`` is the delta-method error of a fidelity from the Fisher
information, a second route to the bootstrap's ``fidelity_std``.
``reference_jitter_nodes`` averages over the Gaussian detuning on a fine
uniform grid, without ``pulse.jitter_nodes``' Gauss-Hermite rule, so the
engine's detuning average can be checked against another quadrature.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from apgate import tomography
from apgate.cavity import TWO_PI, CavityParams, gate_branch_amplitudes
from apgate.protocols import ERASER_ROTATION_PHASE, StarvationError
from apgate.pulse import (confusion_matrix, detection_confusion, jitter_nodes,
                          multiphoton_fraction, spectral_sigma_khz)
from apgate.qlin import (DOWN, HERMITICITY_TOL, PAULI_I, PAULI_X, PAULI_Y,
                         PAULI_Z, UP, X_MINUS, X_PLUS, DensityMatrix, rotation)
from apgate.tomography import CountsTable, MeasurementSetting, _born_map, all_settings


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
    pulses = cfg.pulses
    nbar = pulses.truth_table_mean_photons if truth_table else pulses.bell_mean_photons
    q2 = 0.0 if pulses.assume_single_photon else multiphoton_fraction(nbar)
    imp = cfg.imperfections
    if pulses.spectral_correction:
        imp = dataclasses.replace(imp, freq_jitter_khz=math.hypot(
            imp.freq_jitter_khz, spectral_sigma_khz(pulses.fwhm_us)))
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
    freqs = tomography._frequencies(table.counts)
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


def reference_state_detection(cfg, trials: int):
    """Count histograms of a state-detection run drawn trial by trial, as the
    driver drew them before ``protocols._poisson_histogram``: ``trials // 2``
    Poisson draws per prepared state from the run's child-0 stream, F2 first.
    Returns the integer histograms ``(f2, f1)``."""
    model = cfg.detection
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    n_each = trials // 2
    counts_f2 = rng.poisson(model.mean_signal_photons, size=n_each)
    counts_f1 = rng.poisson(model.dark_rate, size=n_each)
    return np.bincount(counts_f2), np.bincount(counts_f1)


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


def reference_certificate(settings, counts, rho: np.ndarray) -> tuple:
    """``(bound, clipped)``: ``mle_batch``'s Lagrange-dual bound on l_max - l(rho) for one
    table at a positive-definite state ``rho`` (its null-space projector K is 0), rebuilt
    with eigenvalues, and how many zero-count outcomes its dual point clips.

    With p_i = tr(Pi_i rho) from ``born_probabilities`` (floored at PROB_FLOOR), y_i =
    (n_i/N)/p_i and R = sum_i y_i Pi_i, delta solves sum_i delta_i Pi_i = R - I by the
    projectors' pseudo-inverse (the least-norm solution, as the ``_inversion_map`` duals
    give it); y' = y - delta where n_i > 0 and max(-delta_i, 0) where n_i = 0 (clipped
    where delta_i > 0), and the bound is -sum_{n_i>0} n_i log1p(-delta_i/y_i) +
    N log max(1, lambda_max(sum_i y'_i Pi_i)), the eigenvalue by ``eigvalsh``.
    """
    projs = np.concatenate([s.projectors() for s in settings])
    dim = projs.shape[1]
    flat = projs.reshape(len(projs), -1)
    solve = np.linalg.pinv(np.concatenate([flat.real, flat.imag], axis=1).T)
    n = np.asarray(counts, dtype=float).reshape(-1)
    obs, total = n > 0, n.sum()
    state = DensityMatrix(rho)
    assert np.linalg.eigvalsh(state.entries)[0] > 0.0, "the bound is rebuilt at full rank"
    p = np.maximum(np.concatenate([born_probabilities(state, s) for s in settings]),
                   tomography.PROB_FLOOR)
    y = n / total / p
    m = (y @ flat).reshape(dim, dim) - np.eye(dim)
    delta = solve @ np.concatenate([m.real.reshape(-1), m.imag.reshape(-1)])
    y_dual = np.where(obs, y - delta, np.maximum(-delta, 0.0))
    s = np.linalg.eigvalsh((y_dual @ flat).reshape(dim, dim))[-1]
    bound = -n[obs] @ np.log1p(-delta[obs] / y[obs]) + total * math.log(max(s, 1.0))
    return float(bound), int(np.sum(~obs & (delta > 0.0)))


def reference_cauchy_step(settings, counts) -> float:
    """One table's pass-0 start t0 = min(1, 2^ceil(log2 t_c)) >= 2^-63 at its projected
    linear inversion x0 (t0 = 1 where t_c is not finite and positive).  With f_i the
    table's frequencies over its total and p_i = tr(Pi_i x0) floored at PROB_FLOOR,
    t_c = ||G||^2 / sum_i f_i (tr(Pi_i G)/p_i)^2 minimizes the quadratic model of
    -sum_i f_i log p_i along G, the traceless part of R = sum_i (f_i/p_i) Pi_i.
    """
    c = tomography._counts(settings, [counts])
    dim = c.shape[2]
    lin = tomography.linear_inversions(settings, c).reshape(1, -1).view(float)
    x0, _, _ = tomography._project(lin, dim, np.ones(1, bool))    # as mle_batch flags it
    rho = DensityMatrix(x0.view(complex).reshape(dim, dim))
    f, projs = c[0] / c.sum(), [s.projectors() for s in settings]
    p = [np.maximum(born_probabilities(rho, s), tomography.PROB_FLOOR) for s in settings]
    r = sum(np.einsum("o,oij->ij", fs / ps, pr) for fs, ps, pr in zip(f, p, projs))
    g = r - np.trace(r).real / dim * np.eye(dim)
    curv = sum(float(fs @ (np.einsum("oij,ji->o", pr, g).real / ps) ** 2)
               for fs, ps, pr in zip(f, p, projs))
    tc = float(np.sum(np.abs(g) ** 2)) / curv if curv > 0.0 else math.inf
    if not 0.0 < tc < math.inf:
        return 1.0
    return 2.0 ** min(0, math.ceil(math.log2(max(tc, 2.0 ** -63))))


def reference_first_step(settings, counts, start: float = 1.0):
    """``(x, ll_history, t)``: one table's first projected-gradient step from its
    projected linear inversion x0, by t = start, start/2, ... (64 trials) until
    l/N obeys its quadratic upper bound around x0; x (real rows of (re, im) pairs)
    is x0 where no t passes.  ``start=1`` is the search ``mle_batch`` first ran, and
    ``reference_cauchy_step`` the start of its pass 0.

    It uses the package's ``_project``, flagged as ``mle_batch`` flags it (the start
    for its trace shift, the trials by the start's full rank), and the bound's test,
    written as the batch of one it is (stacked (1, k) @ (k, m) products), so from
    ``reference_cauchy_step``'s start it matches ``mle_batch(..., 1)`` bit for bit on
    a table not certified at its start.
    """
    c = tomography._counts(settings, [counts])
    to_op, dim = _born_map(tuple(s.name for s in settings)), c.shape[2]
    n = c.reshape(1, -1)
    total = n.sum(axis=1)

    def dot(a, b):
        return (a[:, None, :] @ b[:, :, None])[:, 0, 0]

    def probs(m):
        return (m[:, None, :] @ to_op.T)[:, 0, :]

    lin = tomography.linear_inversions(settings, c).reshape(1, -1).view(float)
    x, _, full = tomography._project(lin, dim, np.ones(1, bool))    # as mle_batch flags it
    p = np.maximum(probs(x), tomography.PROB_FLOOR)
    ll = dot(n, np.log(p))
    grad = ((n / total[:, None] / p)[:, None, :] @ to_op)[:, 0, :]
    for k in range(64):
        t = start * 0.5 ** k
        cand, _, _ = tomography._project(x + t * grad, dim, full)
        d = cand - x
        gain = dot(n, np.log1p(np.maximum(probs(d), tomography.PROB_FLOOR - p) / p))
        if gain / total >= dot(grad - 0.5 * d / t, d):
            return cand[0], [float(ll[0]), float((ll + gain)[0])], t
    return x[0], [float(ll[0]), float(ll[0])], 0.0


def reference_project(matrices):
    """``(rhos, clipped)``: the nearest density matrix (Frobenius norm) to each
    Hermitian matrix of the stack, and how many of its eigenvalues project to
    weight 0 (Smolin, Gambetta, Smith, PRL 108, 070502 (2012)).

    Per matrix: eigenvalues l_k, then the shift tau with sum_k max(l_k - tau, 0)
    = 1, bisected on [l_max - 1, l_max] (the sum is 1 or more at the left end, 0 at
    the right) until the bracket stops shrinking; weights max(l_k - tau, 0).
    """
    rhos, clipped = [], []
    for m in np.asarray(matrices, dtype=complex):
        values, vectors = np.linalg.eigh(m)
        lo, hi = values[-1] - 1.0, values[-1]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if np.maximum(values - mid, 0.0).sum() > 1.0 else (lo, mid)
        weights = np.maximum(values - 0.5 * (lo + hi), 0.0)
        rhos.append((vectors * weights) @ vectors.conj().T)
        clipped.append(int((weights == 0.0).sum()))
    return np.array(rhos), np.array(clipped)


def fisher_std(settings, counts, rho: np.ndarray, target: np.ndarray) -> float:
    """Delta-method standard error of the fidelity <psi|rho|psi> of the state
    ``rho`` fitted to one count table (settings x 2^n).

    With rho = I/d + sum_a theta_a P_a / d over the d^2 - 1 Pauli strings P_a
    other than I, the Born weights move by dp_i/dtheta_a = tr(Pi_i P_a) / d and
    the fidelity by g_a = <psi|P_a|psi> / d.  The multinomial Fisher
    information of the table is I_ab = sum_i N_s(i) (dp_i/dtheta_a)
    (dp_i/dtheta_b) / p_i, N_s the shots of outcome i's setting, and
    var F = g^T I^-1 g (Hradil et al., Lect. Notes Phys. 649 (2004)).
    Matrices are real rows of (re, im) pairs, the coordinates of
    ``tomography._born_map``, in which tr(A B) of Hermitian A, B is a dot
    product.
    """
    n = len(settings[0].labels)
    paulis = [functools.reduce(np.kron, ops, np.array([[1.0 + 0j]]))
              for ops in itertools.product(_PAULIS.values(), repeat=n)][1:]
    directions = np.array(paulis).reshape(len(paulis), -1).view(float) / 2 ** n
    born = _born_map(tuple(s.name for s in settings))
    counts = np.asarray(counts, dtype=float)
    shots = np.repeat(counts.sum(axis=1), counts.shape[1])
    p = born @ np.ascontiguousarray(rho, dtype=complex).reshape(-1).view(float)
    dp = born @ directions.T
    info = dp.T @ (dp * (shots / p)[:, None])
    psi = np.asarray(target, dtype=complex)
    g = directions @ np.outer(psi, psi.conj()).reshape(-1).view(float)
    return float(np.sqrt(g @ np.linalg.solve(info, g)))


def reference_jitter_nodes(sigma_khz: float, bias_khz: float = 0.0):
    """``pulse.jitter_nodes``' contract (angular MHz nodes, weights summing to 1)
    from the trapezoid rule on 4801 evenly spaced points over +-12 sigma, a
    spacing of sigma / 200: it resolves features far narrower than the
    Gaussian and converges geometrically for smooth integrands (Trefethen and
    Weideman, SIAM Review 56, 385 (2014)); the tails beyond carry e^-72."""
    if sigma_khz == 0.0:
        return np.array([TWO_PI * bias_khz * 1e-3]), np.array([1.0])
    x = np.linspace(-12.0, 12.0, 4801)
    w = np.exp(-0.5 * x ** 2) * (x[1] - x[0]) / math.sqrt(2.0 * math.pi)
    w[[0, -1]] *= 0.5
    return TWO_PI * (bias_khz + sigma_khz * x) * 1e-3, w
