"""Measurement simulation and density-matrix reconstruction.

Each qubit is read out in one of the three Pauli bases; a complete run covers
all 3^n basis combinations, whose Born map, built once per process and tuple of
setting names, is the one route from density matrices to Born weights: a stack
of states is sampled with one product (``simulate_batch``).  Count tables travel
as one float stack (B x settings x 2^n) checked by ``_counts`` alone (a
``CountsTable`` is a stack of one) and feed linear inversion, one stacked
product with the map's least-squares inverse.  ``mle_batch``, the batched
maximum-likelihood core, starts all its fits there and checks them as one
stack; they are physical and certified within MLE_TOL nats of the maximum by a
Lagrange-dual bound, second order near the optimum.  Monte-Carlo tables and
their bootstrap replicas share one batch (``fit_with_errors``).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from .qlin import DensityMatrix, X_MINUS, X_PLUS, Y_MINUS, Y_PLUS, UP, DOWN, _frozen

PROB_FLOOR = 1e-12
MLE_TOL = 0.1

_EIGENBASES = {
    "X": np.stack([X_PLUS, X_MINUS]),
    "Y": np.stack([Y_PLUS, Y_MINUS]),
    "Z": np.stack([UP, DOWN]),
}


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
    """The complete set of 3^n basis combinations, lexicographic in (X, Y, Z)."""
    return [MeasurementSetting(labels)
            for labels in itertools.product("XYZ", repeat=n_qubits)]


@dataclass(frozen=True)
class CountsTable:
    """Observed outcome counts, one row of 2^n outcomes per measurement setting."""

    settings: tuple
    counts: np.ndarray

    def __post_init__(self):
        settings = tuple(self.settings)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", _frozen(_counts(settings, [self.counts])[0]))

    @property
    def frequencies(self) -> np.ndarray:
        return _frequencies(self.counts)


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
    """Direct inversion of a tomographically complete run: its frequencies
    times the least-squares inverse of the Born map, cached per setting tuple.

    That is the Pauli-expectation estimator: the frame operator F = sum
    |Pi><Pi| of the outcome projectors is diagonal in the Pauli basis, each
    string weighted by its number of compatible settings, so F^-1 averages each
    Pauli expectation over those settings, reordered and repeated ones
    included.  Exact on exact probabilities; finite counts can give small
    negative eigenvalues, left unclamped for diagnostic use.
    """
    return linear_inversions(table.settings, table.counts[None])[0]


def linear_inversions(settings: Sequence[MeasurementSetting], counts) -> np.ndarray:
    """``linear_inversion`` of B count tables (B x settings x 2^n) at once: one
    stacked (1, k) @ (k, m) product, so each is its own table's bit for bit."""
    c = _counts(settings, counts)
    rho = _frequencies(c).reshape(len(c), 1, -1) @ _inversion_map(tuple(s.name for s in settings))
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


def _project(x: np.ndarray, dim: int) -> np.ndarray:
    """Nearest density matrices (Frobenius norm) to the Hermitian rows ``x``:
    the eigenvalues are projected onto the probability simplex."""
    values, vectors = np.linalg.eigh(x.view(complex).reshape(-1, dim, dim))
    excess = np.cumsum(values[:, ::-1], axis=1) - 1.0
    support = np.sum(values[:, ::-1] - excess / np.arange(1, dim + 1) > 0, axis=1)
    shift = excess[np.arange(len(x)), support - 1] / support
    weights = np.maximum(values - shift[:, None], 0.0)
    rho = (vectors * weights[:, None, :]) @ vectors.conj().swapaxes(1, 2)
    return rho.reshape(len(x), -1).view(float)


def mle_batch(settings: Sequence[MeasurementSetting], counts,
              max_iter: int = 5000) -> List[ReconstructionReport]:
    """Maximum-likelihood states of B count tables (B x settings x 2^n) that
    ``linear_inversions`` accepts (complete, with counts in every setting).

    Accelerated projected gradient (Shang, Zhang, Ng, PRA 95, 062336 (2017))
    on f = -sum_i (n_i/N) log p_i, whose gradient is -R, R = sum_i y_i Pi_i
    with y_i = (n_i/N)/p_i.  From its table's projected linear inversion
    (Smolin, Gambetta, Smith, PRL 108, 070502 (2012)), each fit steps from the
    momentum point sigma to P(sigma + t R(sigma)), P the projection onto
    density matrices; t halves until f obeys its quadratic upper bound
    around sigma, then grows by 1.1.  Likelihood changes are summed from the
    step's own probabilities, so gains below the rounding of l still count;
    the history records each accepted step's signed change.  Momentum
    restarts (sigma <- rho, theta <- 1) when a step would lower the
    likelihood (rho and its history stay).  A plain step (sigma = rho) that
    passed the bound cannot lower l, so a measured drop is rounding: the
    step is kept, and so is its drop in the history.
    Certificate: as log x <= x - 1, every state's l is at most
    sum_{n_i>0} n_i log(n_i / (N y'_i)) + N log s for any y' >= 0, positive
    where n_i > 0, with lambda_max(sum_i y'_i Pi_i) <= s (Lagrange duality;
    Boyd and Vandenberghe, Convex Optimization (2004), ch. 5); at y' = y,
    s = 1 the sum is l(rho).  The dual point: with R = V diag(w) V^H and
    M = V diag(m) V^H, m_k = w_k - 1 where <v_k|rho|v_k> > 1e-3, else
    max(w_k - 1, 0), R - M has no eigenvalue above 1; y' = y - delta with
    delta_i = tr(D_i M) (D_i the ``_inversion_map`` duals, so sum_i delta_i
    Pi_i = M), zero-count entries clipped at 0, and the rounding guard
    s = max(1, lambda_max(sum_i y'_i Pi_i)) absorbs clipping and rounding.
    So l_max - l(rho) <= -sum_{n_i>0} n_i log1p(-delta_i/y_i) + N log s, whose
    first-order term N tr(rho M) vanishes on rho's support.  The certificate
    is the smaller of this and the Frank-Wolfe gap N (lambda_max(R) - 1)
    (Glancy, Knill, Girard, NJP 14, 095017 (2012)), used alone where some
    y'_i <= 0 with n_i > 0, an observed p_i sits at PROB_FLOOR or the dual
    value is not finite.  A fit leaves the batch certified at MLE_TOL = 0.1
    nats, well below the 0.5-nat one-sigma likelihood scale.
    All per-fit arithmetic is row-wise or stacked (1, k) @ (k, m) products, the
    starts (one stacked product) and the fitted states' checks (one stack)
    included, so a fit's result does not depend, bit for bit, on its batch.
    """
    # Matrices travel as real rows of (re, im) pairs: p = rows @ to_op.T, R = y @ to_op.
    c, names = _counts(settings, counts), tuple(s.name for s in settings)
    to_op, dim, n = _born_map(names), c.shape[2], c.reshape(len(c), -1)
    total, duals = n.sum(axis=1), _inversion_map(names)    # sum_i tr(D_i M) Pi_i = M
    freq, fits = n / total[:, None], np.arange(len(n))

    def probs(x):
        return (x[:, None, :] @ to_op.T)[:, 0, :]

    def adjoint(y):                           # sum_i y_i Pi_i
        return (y[:, None, :] @ to_op)[:, 0, :]

    def gap(p, x, idx):                       # p = p(x) for the states x of fits idx
        b, obs, y = len(idx), n[idx] > 0, freq[idx] / np.maximum(p, PROB_FLOOR)
        w, v = np.linalg.eigh(adjoint(y).view(complex).reshape(b, dim, dim))
        occ = (v.conj() * (x.view(complex).reshape(b, dim, dim) @ v)).sum(axis=1).real
        m = np.where(occ > 1e-3, w - 1.0, np.maximum(w - 1.0, 0.0))
        m_op = ((v * m[:, None, :]) @ v.conj().swapaxes(1, 2)).reshape(b, dim * dim)
        delta = (m_op.view(float)[:, None, :] @ duals.T)[:, 0, :]
        ratio = np.where(obs, delta / np.where(obs, y, 1.0), 0.0)     # < 1 means y' > 0
        y_dual = adjoint(np.where(obs, y - delta, np.maximum(-delta, 0.0)))
        s = np.linalg.eigvalsh(y_dual.view(complex).reshape(b, dim, dim))[:, -1]
        ok = np.all(~obs | ((ratio < 1.0) & (p > PROB_FLOOR)), axis=1)
        dual = total[idx] * np.log(np.maximum(s, 1.0)) - _dot(
            n[idx], np.log1p(-np.where(ok[:, None], ratio, 0.0)))
        frank_wolfe = total[idx] * (w[:, -1] - 1.0)
        return np.where(ok & np.isfinite(dual), np.minimum(frank_wolfe, dual), frank_wolfe)

    def gain(d, p, idx):                      # l(rho + d) - l(rho), p = p(rho)
        p = np.maximum(p, PROB_FLOOR)
        return _dot(n[idx], np.log1p(np.maximum(probs(d), PROB_FLOOR - p) / p))

    x = _project(linear_inversions(settings, c).reshape(len(n), -1).view(float), dim)
    px = probs(x)                                 # p(x), refreshed where x moves
    ll = _dot(n, np.log(np.maximum(px, PROB_FLOOR)))
    gaps, sigma, theta, step = gap(px, x, fits), x.copy(), np.ones(len(n)), np.ones(len(n))
    history = [[v] for v in ll.tolist()]
    for _ in range(max_iter):
        active = fits[gaps > MLE_TOL]
        if not active.size:
            break
        xs, ps = sigma[active], probs(sigma[active])
        grad, cand = adjoint(freq[active] / np.maximum(ps, PROB_FLOOR)), np.empty_like(xs)
        todo = np.arange(len(active))
        for _ in range(64):                       # backtracking
            idx, t = active[todo], step[active[todo]]
            cand[todo] = _project(xs[todo] + t[:, None] * grad[todo], dim)
            d = cand[todo] - xs[todo]
            ok = gain(d, ps[todo], idx) / total[idx] >= _dot(grad[todo] - 0.5 * d / t[:, None], d)
            step[idx] = np.where(ok, 1.1 * t, 0.5 * t)
            todo = todo[~ok]
            if not todo.size:
                break
        cand[todo] = x[active[todo]]              # no step passed: stay
        rise = gain(cand - x[active], px[active], active)
        moved = (rise >= 0.0) | (theta[active] == 1.0)
        up, stay = active[moved], active[~moved]
        prev, x[up], ll[up] = x[up], cand[moved], ll[up] + rise[moved]
        th = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta[up] ** 2))
        sigma[up] = x[up] + ((theta[up] - 1.0) / th)[:, None] * (x[up] - prev)
        theta[up], sigma[stay], theta[stay] = th, x[stay], 1.0
        px[up] = probs(x[up])
        gaps[up] = gap(px[up], x[up], up)
        for i, v in zip(active.tolist(), ll[active].tolist()):
            history[i].append(v)
    return [ReconstructionReport(rho, float(ll[b]), len(history[b]) - 1,
                                 bool(gaps[b] <= MLE_TOL), history[b], float(gaps[b]))
            for b, rho in enumerate(DensityMatrix.stack(x.view(complex).reshape(-1, dim, dim)))]


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


def _replica_std(reports: List[ReconstructionReport], metric: Callable) -> float:
    """Sample standard deviation of ``metric`` over the replica fits, each of
    which must be certified (else ``FitError``)."""
    values = [metric(r.certified(f"bootstrap replica {i} of {len(reports)}").rho)
              for i, r in enumerate(reports)]
    return float(np.std(values, ddof=1))


def monte_carlo_errors(table: CountsTable,
                       metric: Callable[[DensityMatrix], float],
                       resamples: int, rng: np.random.Generator) -> Dict[str, float]:
    """Parametric-bootstrap standard error of a reconstruction metric, under
    ``"metric"``, from the replicas alone (``fit_with_errors`` fits the
    observed table in the same batch as its replicas)."""
    replicas = _replicas(table.counts, resamples, rng)
    return {"metric": _replica_std(mle_batch(table.settings, replicas), metric)}


def fit_with_errors(settings: Sequence[MeasurementSetting], counts: Sequence,
                    metrics: Sequence[Callable], resamples: int,
                    rng: np.random.Generator) -> List[tuple]:
    """(certified MLE state, bootstrap error of ``metrics[j]``) per table j:
    the tables and all their replicas, drawn table by table, share one
    ``mle_batch`` call, and table j's fit is certified before its replicas.
    By batch invariance each pair equals, bit for bit, ``mle_reconstruct``
    followed by ``monte_carlo_errors`` on the same generator."""
    observed = _counts(settings, counts)
    k, replicas = len(observed), [_replicas(c, resamples, rng) for c in observed]
    reports = mle_batch(settings, np.concatenate([observed] + replicas))
    return [(reports[j].certified("top-level fit").rho,
             _replica_std(reports[k + j * resamples:k + (j + 1) * resamples], metric))
            for j, metric in enumerate(metrics)]
