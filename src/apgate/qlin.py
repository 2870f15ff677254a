"""Dense complex linear algebra for small multi-qubit systems.

States and density matrices for at most three qubits, with the
fixed tensor ordering (atom, photon 1, photon 2) used throughout the
package.  All containers are immutable values and every
operation is a pure function, so everything here is safe to call from
concurrent workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 3
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8


def _num_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceed the supported {MAX_QUBITS}-qubit scope")
    return n


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over 1..3 qubits, atom-first ordering."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=complex).reshape(-1)
        _num_qubits(vec.size)
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero state vector")
        object.__setattr__(self, "amplitudes", _frozen(vec / norm))

    def density(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()))


def _checked(m: np.ndarray) -> np.ndarray:
    """The stack ``m`` (B x d x d), each matrix checked finite, Hermitian and unit-trace,
    symmetrized and divided by its trace, then PSD to EIGENVALUE_FLOOR by one Cholesky
    factorization of m - EIGENVALUE_FLOOR I; row-wise, so independent of the stack."""
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError("density matrix must be square")
    _num_qubits(m.shape[1])
    if not np.isfinite(m).all():     # NaN passes every comparison below
        raise ValueError("matrix has a non-finite entry")
    h = m.conj().swapaxes(1, 2)
    if (np.abs(m - h).max(axis=(1, 2)) > HERMITICITY_TOL).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    tr = np.trace(m, axis1=1, axis2=2).real
    off = tr[np.abs(tr - 1.0) > TRACE_TOL]
    if off.size:
        raise ValueError(f"trace {off[0]} differs from 1 beyond tolerance")
    m = 0.5 * (m + h)
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    try:                             # m - floor I positive definite: no eigenvalue below it
        np.linalg.cholesky(m - EIGENVALUE_FLOOR * np.eye(m.shape[1]))
    except np.linalg.LinAlgError:
        raise ValueError("matrix has a negative eigenvalue beyond the floor") from None
    return _frozen(m)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over 1..3 qubits."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked(np.array(self.entries, dtype=complex)[None])[0])

    @classmethod
    def stack(cls, entries) -> list:
        """``cls(entries[i])`` for each matrix of the stack, bit for bit, checked in one pass."""
        rhos = []
        for m in _checked(np.array(entries, dtype=complex)):
            rhos.append(object.__new__(cls))
            object.__setattr__(rhos[-1], "entries", m)
        return rhos

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DensityMatrix":
        dim = data["dim"]
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        # Only an int declares a dimension: no bool, float or string.
        if type(dim) is not int or re.shape != (dim, dim) or im.shape != (dim, dim):
            raise ValueError("matrix payload does not match declared dimension")
        # np.asarray parses "1" and reads False as 0: only numbers are entries.
        if any(isinstance(x, bool) or not isinstance(x, (int, float))
               for part in (data["re"], data["im"]) for row in part for x in row):
            raise ValueError("matrix entries must be numbers")
        return cls(re + 1j * im)


# Pauli matrices and frequently used single-qubit kets.
PAULI_I = _frozen(np.eye(2, dtype=complex))
PAULI_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))

UP = _frozen(np.array([1, 0], dtype=complex))
DOWN = _frozen(np.array([0, 1], dtype=complex))
X_PLUS = _frozen(np.array([1, 1], dtype=complex) / math.sqrt(2))
X_MINUS = _frozen(np.array([1, -1], dtype=complex) / math.sqrt(2))
Y_PLUS = _frozen(np.array([1, 1j], dtype=complex) / math.sqrt(2))
Y_MINUS = _frozen(np.array([1, -1j], dtype=complex) / math.sqrt(2))


def kron(a, b) -> np.ndarray:
    """``np.kron`` of 1-D or 2-D arrays: its broadcast product, so its bits, minus its overhead."""
    a, b = np.asarray(a), np.asarray(b)
    a, b = (a, b) if a.ndim == b.ndim else np.atleast_2d(a, b)   # 1-D beside 2-D: a row
    out = a[(slice(None), None) * a.ndim] * b[(None, slice(None)) * b.ndim]    # a0 b0 a1 b1
    return out.reshape([s * t for s, t in zip(a.shape, b.shape)])


def rotation(theta: float, phi: float) -> np.ndarray:
    """Single-qubit rotation exp(-i theta/2 (cos(phi) X + sin(phi) Y)), a
    read-only 2x2 array."""
    axis = math.cos(phi) * PAULI_X + math.sin(phi) * PAULI_Y
    return _frozen(math.cos(theta / 2) * PAULI_I - 1j * math.sin(theta / 2) * axis)


def fidelities(rhos: np.ndarray, target: PureState) -> np.ndarray:
    """Overlaps <psi| rho |psi> of the stack ``rhos`` (B x d x d) in [0, 1], each its own bits."""
    v = target.amplitudes
    if rhos.shape[1:] != (v.size, v.size):
        raise ValueError("dimension mismatch between state and target")
    f = ((v.conj() @ rhos)[:, None, :] @ v[:, None])[:, 0, 0].real    # stacked: row-wise
    return np.clip(f, 0.0, 1.0) + 0.0         # + 0.0: clamped -0.0 reads 0.0


def fidelity_pure(rho: DensityMatrix, target: PureState) -> float:
    """Overlap <psi| rho |psi>, clamped to [0, 1]: ``fidelities`` of a stack of one."""
    return float(fidelities(rho.entries[None], target)[0])


def optimal_phase_fidelity(rho: DensityMatrix, u: PureState, v: PureState):
    """Best fidelity against (|u> + e^{-i phi}|v>)/sqrt(2) over the phase phi.

    Closed form: f_max = (rho_uu + rho_vv)/2 + |rho_uv| at phi* = arg(rho_uv).
    phi* lies in (-pi, pi]: a coherence on the negative real axis reads pi
    whatever the sign of a rounding-level imaginary part.  When the u-v
    coherence vanishes the phase is undetermined and 0 is reported.
    """
    m = rho.entries
    au, av = u.amplitudes, v.amplitudes
    if m.shape != (au.size, au.size) or au.size != av.size:
        raise ValueError("dimension mismatch")
    if abs(np.vdot(au, av)) > 1e-10:
        raise ValueError("u and v must be orthonormal")
    ruu = float(np.real(au.conj() @ m @ au))
    rvv = float(np.real(av.conj() @ m @ av))
    ruv = complex(au.conj() @ m @ av)
    base = 0.5 * (ruu + rvv)
    if abs(ruv) < 1e-12:
        return 0.0, min(1.0, max(0.0, base))
    phi = float(np.angle(ruv))
    return (math.pi if phi == -math.pi else phi), min(1.0, max(0.0, base + abs(ruv)))
