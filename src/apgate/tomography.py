"""Measurement simulation and density-matrix reconstruction.

Each qubit is read out in one of the three Pauli bases; a complete run covers all 3^n
basis combinations, whose Born map, built once per process and tuple of setting names,
is the one route from density matrices to Born weights: a stack of states is sampled
with one product (``simulate_batch``).  Count tables travel as one float stack
(B x settings x 2^n) checked by ``_counts`` alone (a ``CountsTable`` is a stack of one)
and feed linear inversion, one stacked product with the map's least-squares inverse.
``mle_batch``, the batched maximum-likelihood core, starts its fits there and its first
searches at their Cauchy steps, projects a start or a full-rank trial by a trace shift where
a Cholesky factorization finds no weight clips, and iterates each fit until a Lagrange-dual
bound on its null space certifies it within MLE_TOL nats of the maximum, the bound's
eigenvalue term bounded by a matrix norm at full rank and solved only where needed; row-wise
arithmetic keeps each fit the same bit for bit in any batch.  Monte-Carlo tables and their
bootstrap replicas share one batch, the replicas' fidelities one product (``fit_with_errors``).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .qlin import (DensityMatrix, PureState, X_MINUS, X_PLUS, Y_MINUS, Y_PLUS, UP, DOWN,
                   _frozen, fidelities)

PROB_FLOOR = 1e-12
MLE_TOL = 0.1

_EIGENBASES = {"X": np.stack([X_PLUS, X_MINUS]), "Y": np.stack([Y_PLUS, Y_MINUS]),
               "Z": np.stack([UP, DOWN])}


@functools.lru_cache(maxsize=None)
def _basis_matrix(labels: tuple) -> np.ndarray:
    rows = [_EIGENBASES[label] for label in labels]
    return _frozen(functools.reduce(np.kron, rows, np.array([[1.0 + 0j]])).conj())


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
        """Rows are the outcome bras; |amp|^2 of (matrix @ psi) are Born
        weights.  One shared, read-only array per label tuple."""
        return _basis_matrix(self.labels)

    def projectors(self) -> np.ndarray:
        """Stack of 2^n rank-1 projectors in outcome order."""
        b = self.basis_matrix().conj()  # rows are kets again
        return np.einsum("oi,oj->oij", b, b.conj())


def all_settings(n_qubits: int) -> List[MeasurementSetting]:
    """The complete set of 3^n basis combinations, lexicographic in (X, Y, Z), built once."""
    return list(_all_settings(n_qubits))


@functools.lru_cache(maxsize=None)
def _all_settings(n_qubits: int) -> tuple:
    return tuple(MeasurementSetting(labels) for labels in itertools.product("XYZ", repeat=n_qubits))


@dataclass(frozen=True)
class CountsTable:
    """Observed outcome counts, one row of 2^n outcomes per measurement setting."""

    settings: tuple
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "counts", _frozen(_counts(self.settings, [self.counts])[0]))


def _counts(settings: Sequence[MeasurementSetting], counts) -> np.ndarray:
    """``counts`` (B x settings x 2^n) as a float stack, after every counts check."""
    c = np.array(counts, dtype=float)
    if not settings or c.ndim != 3 or c.shape[1] != len(settings):
        raise ValueError("counts need one row per setting")
    if {2 ** s.n_qubits for s in settings} != {c.shape[2]}:
        raise ValueError("row width does not match the settings")
    if not np.all(np.isfinite(c)) or np.any(c < 0):
        raise ValueError("counts must be finite and nonnegative")
    if np.any(c.sum(axis=2) <= 0):
        raise ValueError("a setting has no counts")
    return c


def _frequencies(counts: np.ndarray) -> np.ndarray:
    """Each setting's counts (the last axis) over their total."""
    return counts / counts.sum(axis=-1, keepdims=True)


def simulate_counts(rho: DensityMatrix, settings: Sequence[MeasurementSetting],
                    shots_per_setting: int, rng: np.random.Generator) -> CountsTable:
    """Counts of ``rho`` in every setting, in one multinomial draw: a stack of one."""
    return CountsTable(settings, simulate_batch(rho.entries[None], settings,
                                                shots_per_setting, [rng])[0])


def simulate_batch(rhos: np.ndarray, settings: Sequence[MeasurementSetting], shots: int,
                   rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Counts (B x settings x 2^n) of the checked matrices ``rhos`` (B x d x d), b's in one
    draw from ``rngs[b]``; one stacked (1, d^2) @ map product gives b its own Born weights."""
    if not settings or {2 ** s.n_qubits for s in settings} != {rhos.shape[-1]}:
        raise ValueError("need settings of the states' dimension")
    if not (1 <= shots < 2**53 and shots == int(shots)):     # so float64 counts stay exact
        raise ValueError("shots must be a whole number from 1 to below 2**53")
    to_op = _born_map(tuple(s.name for s in settings))
    p = np.maximum(rhos.reshape(len(rhos), 1, -1).view(float) @ to_op.T, 0.0)
    return np.array([rng.multinomial(shots, q / q.sum(axis=1, keepdims=True))
                     for q, rng in zip(p.reshape(len(p), len(settings), -1), rngs, strict=True)])


@functools.lru_cache(maxsize=None)
def _born_map(names: tuple) -> np.ndarray:
    """Born map of the settings ``names`` on matrices as real rows of (re, im)
    pairs: p = rows @ map.T, one row per outcome.  Shared and read-only."""
    projs = np.concatenate([MeasurementSetting(tuple(name)).projectors() for name in names])
    return _frozen(projs.reshape(len(projs), -1).view(float))


@functools.lru_cache(maxsize=None)
def _inversion_map(names: tuple) -> np.ndarray:
    """Least-squares inverse of ``_born_map(names)``: row i is the dual F^-1(Pi_i)
    of projector Pi_i; F is invertible on a complete set, and others raise each call."""
    if {s.name for s in all_settings(len(names[0]))} - set(names):
        raise ValueError("settings do not form a tomographically complete set")
    ops = _born_map(names).view(complex)    # rows vec(Pi_i); F = ops.T @ ops.conj()
    return _frozen((ops @ np.linalg.inv(ops.T @ ops.conj()).T).view(float))


def linear_inversion(table: CountsTable) -> np.ndarray:
    """Direct inversion of a tomographically complete run: its frequencies times the
    least-squares inverse of the Born map, cached per setting tuple.

    That is the Pauli-expectation estimator: the frame operator F = sum |Pi><Pi| of the
    outcome projectors is diagonal in the Pauli basis, each string weighted by its
    number of compatible settings, so F^-1 averages each Pauli expectation over those
    settings, reordered and repeated ones included.  Exact on exact probabilities;
    finite counts can give small negative eigenvalues, left unclamped for diagnostic use.
    """
    return linear_inversions(table.settings, table.counts[None])[0]


def linear_inversions(settings: Sequence[MeasurementSetting], counts) -> np.ndarray:
    """``linear_inversion`` of B count tables (B x settings x 2^n), each its own bit for bit."""
    return _inverted(_counts(settings, counts), _inversion_map(tuple(s.name for s in settings)))


def _inverted(c: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """Inversions of the checked stack ``c``: one stacked (1, k) @ (k, m) product with ``duals``."""
    rho = _frequencies(c).reshape(len(c), 1, -1) @ duals
    rho = rho.view(complex).reshape(len(c), c.shape[2], -1)
    return 0.5 * (rho + rho.conj().swapaxes(1, 2))


class FitError(RuntimeError):
    """A maximum-likelihood fit ended at its iteration cap uncertified."""


@dataclass
class ReconstructionReport:
    """Outcome of a maximum-likelihood fit: ``gap`` bounds in nats how far
    ``log_likelihood`` lies below the maximum, certified if <= ``MLE_TOL``."""

    rho: DensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool
    ll_history: list
    gap: float

    def certified(self, name: str) -> "ReconstructionReport":
        """This report, or a ``FitError`` naming the fit if it is uncertified."""
        if not self.converged:
            raise FitError(f"{name}: gap {self.gap:.3g} nats > {MLE_TOL} "
                           f"after {self.iterations} iterations")
        return self


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, as stacked (1, k) @ (k, 1) products."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _project(x: np.ndarray, dim: int, full=None) -> tuple:
    """Nearest density matrices (Frobenius norm) to the Hermitian rows ``x``, their null
    spaces (B x d x d) and which have full rank.  A row flagged in ``full`` whose x - s I,
    s = (tr x - 1)/d, has a Cholesky factor (one stacked call, decided row by row) is x - s I;
    others take ``_simplex``, all rows at once where none factors."""
    if full is None or not full.any():
        return _simplex(x, dim)
    rho, shifted, rows = x.copy(), full.copy(), slice(None) if full.all() else full
    rho[rows, ::2 * dim + 2] -= ((x[rows][:, ::2 * dim + 2].sum(axis=1) - 1.0) / dim)[:, None]
    with np.errstate(invalid="ignore"):   # np.linalg.cholesky's gufunc: NaN where a row fails
        shifted[rows] = ~np.isnan(_umath_linalg.cholesky_lo(
            rho[rows].view(complex).reshape(-1, dim, dim))[:, 0, 0])
    if not shifted.any():
        return _simplex(x, dim)
    ker, rest = np.zeros((len(x), dim, dim), complex), ~shifted
    if rest.any():
        rho[rest], ker[rest], shifted[rest] = _simplex(x[rest], dim)
    return rho, ker, shifted


def _simplex(x: np.ndarray, dim: int) -> tuple:
    """``_project`` by ``eigh``: eigenvalues onto the simplex, null eigenvectors of weight 0."""
    values, vectors = np.linalg.eigh(x.view(complex).reshape(-1, dim, dim))
    excess = values[:, ::-1].cumsum(axis=1) - 1.0
    support = (values[:, ::-1] - excess / np.arange(1, dim + 1) > 0).sum(axis=1)
    shift = excess[np.arange(len(x)), support - 1] / support
    weights = np.maximum(values - shift[:, None], 0.0)
    rho = ((vectors * weights[:, None, :]) @ vectors.conj().swapaxes(1, 2)).reshape(len(x), -1)
    return rho.view(float), vectors * (weights == 0.0)[:, None, :], support == dim


def mle_batch(settings: Sequence[MeasurementSetting], counts,
              max_iter: int = 5000) -> List[ReconstructionReport]:
    """Maximum-likelihood states of B count tables (B x settings x 2^n) that
    ``linear_inversions`` accepts (complete, with counts in every setting).

    Accelerated projected gradient (Shang, Zhang, Ng, PRA 95, 062336 (2017)) on
    f = -sum_i (n_i/N) log p_i, whose gradient is -R, R = sum_i y_i Pi_i, y_i = (n_i/N)/p_i.
    Each fit starts at its table's linear inversion projected onto density matrices (Smolin,
    Gambetta, Smith, PRL 108, 070502 (2012)), flagged for ``_project``'s trace shift: a
    positive-definite start takes no eigenvalues.  It steps from the momentum point sigma to
    P(sigma + t R(sigma)), P that projection, flagged (``full``) while its state has full
    rank; t halves until f obeys its quadratic upper bound around sigma, then grows by 1.1.
    Pass 0 starts at t = min(1, 2^ceil(log2 t_c)) >= 2^-63, t_c = ||G||^2 / sum_i f_i
    (tr(Pi_i G)/p_i)^2 the Cauchy step along R's traceless part G (t = 1 where t_c is not
    finite and positive), and halves like any pass: it accepts the first passing power of
    two <= that start, most fits at the first or second trial.
    Likelihood changes are summed from the step's own probabilities, so gains below the
    rounding of l still count; the history records each accepted step's signed change.
    Momentum restarts (sigma <- rho, theta <- 1) when a step would lower the likelihood
    (rho and its history stay).  A plain step (sigma = rho) that passed the bound cannot
    lower l, so a measured drop is rounding: the step and its drop stay.
    Certificate: as log x <= x - 1, every state's l is at most
    sum_{n_i>0} n_i log(n_i / (N y'_i)) + N log s for any y' >= 0, positive where
    n_i > 0, with lambda_max(sum_i y'_i Pi_i) <= s (Lagrange duality; Boyd and
    Vandenberghe, Convex Optimization (2004), ch. 5); at y' = y, s = 1 the sum is l(rho).
    The dual point: with K the projector onto rho's null space (``_project``'s; K = 0 at
    full rank, its products skipped where every live fit has it), M = (R - I) - K (R - I) K
    and y' = y - delta, delta_i = tr(D_i M) (D_i the ``_inversion_map`` duals, so sum_i
    y'_i Pi_i = I + K (R - I) K), zero-count entries clipped at 0; s = max(1, lambda_max(
    sum_i y'_i Pi_i)) absorbs that block, clipping and rounding: the bound holds for any M.  So
    l_max - l(rho) <= -sum_{n_i>0} n_i log1p(-delta_i/y_i) + N log s, whose first-order
    term N tr(rho M) = N (sum_i p_i y_i - 1) is 0 as rho K = 0.  Where some y'_i <= 0
    with n_i > 0, an observed p_i sits at PROB_FLOOR or the dual value is not finite,
    the certificate is instead the Frank-Wolfe gap N (lambda_max(R) - 1) (Glancy, Knill,
    Girard, NJP 14, 095017 (2012)), its eigenvalues taken for those fits only.
    Two stages: the eigen-free log1p term T1 for every fit, N log s only where T1 <= MLE_TOL
    or the gaps are reported (the pass before the cap; the start if max_iter <= 0), as
    N log s >= 0 and fl(a - b) >= -b.  At full rank s is first ||A||_inf = max_j sum_k |A_jk|
    >= lambda_max(A), A = sum_i y'_i Pi_i (rounded to about d eps: 1e-10 nats at N = 1e5, like
    ``eigvalsh``); ``eigvalsh`` takes other rows and those it cannot certify: no result moves.
    A fit certified at MLE_TOL = 0.1 nats (the one-sigma likelihood scale is 0.5) leaves the
    batch: only live fits iterate, compacted in every per-fit array.  All per-fit arithmetic
    is row-wise or stacked (1, k) @ (k, m) products, the starts and the fitted states' checks
    (one stack each) included, so a fit's result does not depend, bit for bit, on its batch or
    on the row it moves to; a fit that did not move recomputes its own p(x) and gap.
    """
    # Matrices travel as real rows of (re, im) pairs: p = rows @ to_op.T, R = y @ to_op.
    c, names = _counts(settings, counts), tuple(s.name for s in settings)
    to_op, dim, eye, n = _born_map(names), c.shape[2], np.eye(c.shape[2]), c.reshape(len(c), -1)
    total, duals = n.sum(axis=1), _inversion_map(names)    # sum_i tr(D_i M) Pi_i = M
    freq, obs, fits = n / total[:, None], n > 0, np.arange(len(n))    # of the live fits below

    def probs(x):
        return (x[:, None, :] @ to_op.T)[:, 0, :]

    def adjoint(y):                           # sum_i y_i Pi_i
        return (y[:, None, :] @ to_op)[:, 0, :]

    def gap(p, ker, full, report):            # of the live fits: p = p(x), ker x's null space
        y = freq / p
        rm = adjoint(y).view(complex).reshape(-1, dim, dim) - eye     # R - I; K = 0 at full rank
        m = rm if full.all() else rm - (k := ker @ ker.conj().swapaxes(1, 2)) @ rm @ k
        delta = (m.reshape(-1, 1, dim * dim).view(float) @ duals.T)[:, 0, :]
        ratio = np.where(obs, delta / np.where(obs, y, 1.0), 0.0)     # < 1 means y' > 0
        ok = (~obs | ((ratio < 1.0) & (p > PROB_FLOOR))).all(axis=1)
        dual = -_dot(n, np.log1p(-np.where(ok[:, None], ratio, 0.0)))     # first term
        solve = ok & ((dual <= MLE_TOL) | report)    # N log s >= 0: no other row can certify
        if solve.any():                           # A = sum_i y'_i Pi_i; ||A||_inf >= lambda_max
            a = adjoint(np.where(obs, y - delta, np.maximum(-delta, 0.0))[solve]).view(complex)
            a, tot = a.reshape(-1, dim, dim), total[solve]
            term = tot * np.log(np.maximum(np.abs(a).sum(axis=2).max(axis=1), 1.0))
            if (eig := ~full[solve] | (dual[solve] + term > MLE_TOL)).any():
                term[eig] = tot[eig] * np.log(np.maximum(np.linalg.eigvalsh(a[eig])[:, -1], 1.0))
            dual[solve] += term
        fw = ~(ok & np.isfinite(dual))                # Frank-Wolfe gap where the dual fails
        if fw.any():
            dual[fw] = total[fw] * np.linalg.eigvalsh(rm[fw])[:, -1]
        return dual

    def gain(d, p, n):                        # l(rho + d) - l(rho), p = p(rho), n its counts
        return _dot(n, np.log1p(np.maximum(probs(d), PROB_FLOOR - p) / p))

    def trial(rows, t):                       # P(sigma + t grad) of the rows; did f obey its bound?
        xs = sigma[rows]
        c, ck, cf = _project(xs + t[:, None] * grad[rows], dim, full[rows])
        d = c - xs
        return c, ck, cf, (gain(d, ps[rows], n[rows]) / total[rows]
                       >= _dot(grad[rows] - 0.5 * d / t[:, None], d))

    def moved_to(new, old):                   # per fit, new where it moved; no copy if all did
        return new if every else np.where(moved.reshape((-1,) + (1,) * (new.ndim - 1)), new, old)

    x, ker, full = _project(_inverted(c, duals).reshape(len(n), -1).view(float), dim, fits >= 0)
    px = np.maximum(probs(x), PROB_FLOOR)     # p(x), and p(sigma), floored as every use reads them
    ll = _dot(n, np.log(px))
    gaps = gap(px, ker, full, max_iter <= 0)        # reported as they are when max_iter <= 0
    sigma, theta, step = x.copy(), np.ones(len(n)), np.ones(len(n))
    history, rho, gap_out = [[v] for v in ll.tolist()], x.copy(), gaps.copy()
    for it in range(max_iter + 1):
        live = (gaps > MLE_TOL) & (it < max_iter)     # at the cap every fit leaves
        if not live.all():                            # results out, the rest compacted
            rho[fits], gap_out[fits] = x, gaps
            x, sigma, theta, step, ker, full, px, ll, gaps, n, total, freq, obs, fits = (
                a[live] for a in (x, sigma, theta, step, ker, full, px, ll, gaps, n, total, freq,
                                  obs, fits))
            if not fits.size:
                break
        ps = np.maximum(probs(sigma), PROB_FLOOR)
        grad = adjoint(freq / ps)
        if it == 0:                               # pass 0 starts at the Cauchy step (docstring)
            tr = grad[:, ::2 * dim + 2].sum(axis=1)                 # G = grad - (tr / d) I
            curv = _dot(freq, ((probs(grad) - tr[:, None] / dim) / ps) ** 2)    # tr Pi_i = 1
            tc = (_dot(grad, grad) - tr ** 2 / dim) / np.where(curv > 0.0, curv, np.inf)
            step = np.where(tc > 0.0, np.exp2(np.ceil(np.log2(np.clip(tc, 2.0 ** -63, 1.0)))), 1.0)
        cand, cker, cfull, rows = x.copy(), ker.copy(), full.copy(), slice(None)
        for _ in range(64):                       # backtracking: every row, then those that failed
            t = step[rows]
            cand[rows], cker[rows], cfull[rows], ok = trial(rows, t)
            step[rows], rows = np.where(ok, 1.1 * t, 0.5 * t), np.arange(len(x))[rows][~ok]
            if not rows.size:
                break
        cand[rows], cker[rows], cfull[rows] = x[rows], ker[rows], full[rows]     # stay
        rise = gain(cand - x, px, n)
        moved = (rise >= 0.0) | (theta == 1.0)
        th, every = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta ** 2)), moved.all()
        prev, x = x, moved_to(cand, x)
        sigma = moved_to(x + ((theta - 1.0) / th)[:, None] * (x - prev), x)
        ker, full, ll = moved_to(cker, ker), moved_to(cfull, full), moved_to(ll + rise, ll)
        theta, px = moved_to(th, 1.0), np.maximum(probs(x), PROB_FLOOR)
        gaps = gap(px, ker, full, it == max_iter - 1)     # the gaps reported at the cap
        for i, v in zip(fits.tolist(), ll.tolist()):
            history[i].append(v)
    return [ReconstructionReport(r, history[b][-1], len(history[b]) - 1,
                                 bool(gap_out[b] <= MLE_TOL), history[b], float(gap_out[b]))
            for b, r in enumerate(DensityMatrix.stack(rho.view(complex).reshape(-1, dim, dim)))]


def mle_reconstruct(table: CountsTable, max_iter: int = 5000) -> ReconstructionReport:
    """Maximum-likelihood state of one table: a batch of one (``mle_batch``)."""
    return mle_batch(table.settings, table.counts[None], max_iter)[0]


def _replicas(counts: np.ndarray, resamples: int, rng: np.random.Generator) -> np.ndarray:
    """Bootstrap replicas of one checked table ``counts``: every setting's counts
    redrawn multinomially from the observed frequencies, all in one draw."""
    if resamples < 2:
        raise ValueError("need at least two resamples")
    totals = np.round(counts.sum(axis=1)).astype(np.int64)
    return rng.multinomial(totals, _frequencies(counts), size=(resamples, len(counts)))


def _replica_std(reports: List[ReconstructionReport], values: Callable) -> float:
    """Sample std of ``values`` of the replicas' states, each certified (else ``FitError``)."""
    return float(np.std(values([r.certified(f"bootstrap replica {i} of {len(reports)}").rho
                                for i, r in enumerate(reports)]), ddof=1))


def monte_carlo_errors(table: CountsTable,
                       metric: Callable[[DensityMatrix], float],
                       resamples: int, rng: np.random.Generator) -> Dict[str, float]:
    """Parametric-bootstrap standard error of a reconstruction metric, under
    ``"metric"``, from the replicas alone (``fit_with_errors`` fits the
    observed table in the same batch as its replicas)."""
    reports = mle_batch(table.settings, _replicas(table.counts, resamples, rng))
    return {"metric": _replica_std(reports, lambda rhos: [metric(r) for r in rhos])}


def fit_with_errors(settings: Sequence[MeasurementSetting], counts: Sequence,
                    targets: Sequence[PureState], resamples: int,
                    rng: np.random.Generator) -> List[tuple]:
    """(certified MLE state, bootstrap error of its fidelity to ``targets[j]``) per
    table j: the tables and all their replicas, drawn table by table, share one
    ``mle_batch`` call, table j's fit is certified before its replicas, and their
    fidelities are one ``fidelities`` product.  By batch invariance each pair equals,
    bit for bit, ``mle_reconstruct`` followed by ``monte_carlo_errors`` with
    ``fidelity_pure`` on the same generator."""
    observed = _counts(settings, counts)
    k, replicas = len(observed), [_replicas(c, resamples, rng) for c in observed]
    reports = mle_batch(settings, np.concatenate([observed] + replicas))
    return [(reports[j].certified("top-level fit").rho,
             _replica_std(reports[k + j * resamples:k + (j + 1) * resamples],
                          lambda rhos: fidelities(np.array([r.entries for r in rhos]), target)))
            for j, target in enumerate(targets)]
