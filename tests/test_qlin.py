import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apgate.qlin import (DensityMatrix, PAULI_X, PureState,
                         UP, X_PLUS, fidelity_pure,
                         optimal_phase_fidelity, rotation)
from apgate.config import ideal_profile
from apgate.protocols import StarvationError, run_bell, run_eraser
from oracle import KrausChannel, apply_channel


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_state(rng, dim):
    return PureState(rng.normal(size=dim) + 1j * rng.normal(size=dim))


# --- projection onto an atom outcome ---------------------------------------------

def test_project_bell_onto_atom_up():
    # Atom up heralds the photon in |+x>: in the ZX setting of the ideal Bell
    # run the outcome pairs (up, +x) and (down, -x) each carry one half.
    raw = run_bell(ideal_profile()).raw_counts
    zx = np.asarray(raw["probabilities"])[raw["settings"].index("ZX")]
    assert np.allclose(zx, [0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_project_eraser_state_onto_atom_down():
    # (1/2)[|up>(AA - BB) - |down>(AA + BB)] with AA = |+x +x>, BB = |-x -x>:
    # each atom outcome has probability 1/2, and the lower hyperfine state
    # (F1) heralds Phi+.
    derived = run_eraser(ideal_profile()).derived
    assert derived["p_atom_f1"] == pytest.approx(0.5, abs=1e-12)
    assert derived["fidelity_phi_plus"] == pytest.approx(1.0, abs=1e-12)


# --- rotation ---------------------------------------------------------------

def test_rotation_zero_is_identity():
    assert np.allclose(rotation(0.0, 1.3), np.eye(2), atol=1e-15)


def test_rotation_two_pi_flips_return():
    r = rotation(math.pi, 0.0)
    back = r @ (r @ UP)
    assert abs(abs(np.vdot(UP, back)) - 1.0) <= 1e-10


def test_rotation_half_pi_hand_value():
    # R(pi/2, 0)|up> = (|up> - i|down>)/sqrt2, from the matrix exponential
    out = rotation(math.pi / 2, 0.0) @ UP
    assert np.allclose(out, np.array([1, -1j]) / math.sqrt(2), atol=1e-14)


# --- fidelity ---------------------------------------------------------------

BELL_Z = PureState(np.array([1, 0, 0, 1]) / math.sqrt(2))


def test_fidelity_pure_on_itself():
    assert fidelity_pure(BELL_Z.density(), BELL_Z) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_maximally_mixed():
    rho = DensityMatrix(np.eye(4) / 4)
    assert fidelity_pure(rho, BELL_Z) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_rank_two_mixture():
    bell_minus = PureState(np.array([1, 0, 0, -1]) / math.sqrt(2))
    rho = DensityMatrix(0.75 * BELL_Z.density().entries
                        + 0.25 * bell_minus.density().entries)
    assert fidelity_pure(rho, BELL_Z) == pytest.approx(0.75, abs=1e-12)


def test_fidelity_global_phase_invariant():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 4)
    psi = random_state(rng, 4)
    rotated = PureState(np.exp(0.7j) * psi.amplitudes)
    assert fidelity_pure(rho, psi) == pytest.approx(fidelity_pure(rho, rotated),
                                                    abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity_pure(random_density(np.random.default_rng(1), 4), PureState(UP))


# --- optimal phase fidelity ---------------------------------------------------

U2 = PureState(np.array([1, 0, 0, 0], dtype=complex))
V2 = PureState(np.array([0, 0, 0, 1], dtype=complex))


def _phase_state(phi):
    return PureState((U2.amplitudes + np.exp(-1j * phi) * V2.amplitudes)
                     / math.sqrt(2))


def test_optimal_phase_on_aligned_bell():
    phi, f = optimal_phase_fidelity(_phase_state(0.0).density(), U2, V2)
    assert phi == pytest.approx(0.0, abs=1e-12)
    assert f == pytest.approx(1.0, abs=1e-12)


def test_optimal_phase_tie_break():
    rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]))
    phi, f = optimal_phase_fidelity(rho, U2, V2)
    assert phi == 0.0
    assert f == pytest.approx(0.5, abs=1e-12)


def test_optimal_phase_constructed_target():
    phi, f = optimal_phase_fidelity(_phase_state(0.3).density(), U2, V2)
    assert phi == pytest.approx(0.3, abs=1e-10)
    assert f == pytest.approx(1.0, abs=1e-12)


def test_optimal_phase_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        optimal_phase_fidelity(random_density(np.random.default_rng(2), 4), U2, U2)


@pytest.mark.parametrize("imag", [-1e-17, 1e-17])
def test_optimal_phase_folds_minus_pi_onto_pi(imag):
    # A coherence on the negative real axis reads +pi whatever the sign of a
    # rounding-level imaginary part.
    coherence = -0.5 + imag * 1j
    rho = DensityMatrix(np.array([[0.5, 0, 0, coherence], [0, 0, 0, 0], [0, 0, 0, 0],
                                  [np.conj(coherence), 0, 0, 0.5]]))
    phi, f = optimal_phase_fidelity(rho, U2, V2)
    assert phi == math.pi
    assert f == pytest.approx(1.0, abs=1e-12)


def test_optimal_phase_matches_grid_scan():
    # Independent oracle: dense scan plus one refinement pass around the peak.
    rng = np.random.default_rng(42)
    coarse = np.linspace(-math.pi, math.pi, 10_000, endpoint=False)
    for _ in range(100):
        rho = random_density(rng, 4)
        u = random_state(rng, 4)
        v_raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        v_raw -= (u.amplitudes.conj() @ v_raw) * u.amplitudes
        v = PureState(v_raw)
        phi_star, f_star = optimal_phase_fidelity(rho, u, v)

        def f_of(phis):
            targets = (u.amplitudes[None, :]
                       + np.exp(-1j * phis)[:, None] * v.amplitudes[None, :])
            targets /= math.sqrt(2)
            return np.einsum("pi,ij,pj->p", targets.conj(), rho.entries,
                             targets).real

        vals = f_of(coarse)
        best = coarse[np.argmax(vals)]
        step = coarse[1] - coarse[0]
        fine = np.linspace(best - step, best + step, 10_000)
        grid_max = max(vals.max(), f_of(fine).max())
        assert f_star >= grid_max - 1e-12
        assert abs(f_star - grid_max) < 1e-9


# --- channels (the engine cross-check oracle) -------------------------------

def test_apply_channel_identity():
    rho = random_density(np.random.default_rng(4), 2)
    out, p = apply_channel(rho, KrausChannel((np.eye(2),)))
    assert p == 1.0
    assert np.allclose(out.entries, rho.entries, atol=1e-14)


def test_apply_channel_full_dephasing():
    dephase = KrausChannel((np.diag([1.0, 0.0]).astype(complex),
                            np.diag([0.0, 1.0]).astype(complex)))
    out, p = apply_channel(PureState(X_PLUS).density(), dephase)
    assert p == 1.0
    assert np.allclose(out.entries, np.eye(2) / 2, atol=1e-14)


def test_apply_channel_scalar_attenuation():
    rho = random_density(np.random.default_rng(6), 2)
    ch = KrausChannel((math.sqrt(0.7) * np.eye(2),), trace_preserving=False)
    out, p = apply_channel(rho, ch)
    assert p == pytest.approx(0.7, abs=1e-12)
    assert np.allclose(out.entries, rho.entries, atol=1e-12)


def test_apply_channel_zero_trace_raises():
    ch = KrausChannel((np.array([[0, 1], [0, 0]], dtype=complex),),
                      trace_preserving=False)
    with pytest.raises(StarvationError):
        apply_channel(PureState(UP).density(), ch)


def test_apply_channel_trace_preserving_keeps_trace():
    rng = np.random.default_rng(8)
    ch = KrausChannel((math.sqrt(0.6) * np.eye(2), math.sqrt(0.4) * PAULI_X))
    for _ in range(5):
        out, p = apply_channel(random_density(rng, 2), ch)
        assert p == 1.0
        assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-12)


def test_kraus_completeness_validated():
    with pytest.raises(ValueError):
        KrausChannel((math.sqrt(0.5) * np.eye(2),), trace_preserving=True)
    with pytest.raises(ValueError):
        KrausChannel((1.2 * np.eye(2),), trace_preserving=False)


# --- type invariants ---------------------------------------------------------

@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False),
                min_size=4, max_size=4))
@settings(deadline=None, max_examples=50)
def test_pure_state_normalizing_constructor(amps):
    vec = np.asarray(amps)
    if np.linalg.norm(vec) < 1e-6:
        return
    state = PureState(vec)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def _rough_densities(rng, dim, count):
    # Trace and Hermiticity off by rounding-sized amounts, so that the
    # symmetrization and the division by the trace both change bits.
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    m = g @ g.conj().swapaxes(1, 2)
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    return m * (1.0 + 1e-12 * rng.normal(size=(count, 1, 1))) + 1e-12 * rng.normal(size=m.shape)


@pytest.mark.parametrize("count", [1, 5, 101])
@pytest.mark.parametrize("dim", [2, 4, 8])
def test_density_stack_matches_single_constructor(dim, count):
    ms = _rough_densities(np.random.default_rng(dim * 1000 + count), dim, count)
    stacked = DensityMatrix.stack(ms)
    assert len(stacked) == count
    for m, rho in zip(ms, stacked):
        assert type(rho) is DensityMatrix
        assert np.array_equal(rho.entries, DensityMatrix(m).entries)
        assert not rho.entries.flags.writeable


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.5], [0.0, 0.0]]), np.eye(2) / 2 * (1 + 3e-10), np.diag([1.5, -0.5]),
    np.full((2, 2), np.nan),
], ids=["not-hermitian", "off-trace", "negative-eigenvalue", "nan"])
def test_density_stack_keeps_every_message(bad):
    with pytest.raises(ValueError) as single:
        DensityMatrix(bad)
    ms = _rough_densities(np.random.default_rng(19), 2, 5)
    ms[3] = bad
    with pytest.raises(ValueError) as stacked:
        DensityMatrix.stack(ms)
    assert str(stacked.value) == str(single.value)


def test_operations_preserve_physicality():
    rng = np.random.default_rng(12)
    rho = random_density(rng, 4)
    for _ in range(20):
        theta, phi = rng.uniform(0, math.pi, size=2)
        u = np.kron(rotation(theta, phi), rotation(phi, theta))
        rho = DensityMatrix(u @ rho.entries @ u.conj().T)
        evals = np.linalg.eigvalsh(rho.entries)
        assert evals[0] >= -1e-8
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)


# --- serialization ----------------------------------------------------------

def test_density_json_round_trip():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 4)
    again = DensityMatrix.from_json_dict(json.loads(json.dumps(rho.to_json_dict())))
    assert np.allclose(again.entries, rho.entries, atol=1e-12)


def test_density_json_validates_on_load():
    bad = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ValueError):
        DensityMatrix.from_json_dict(bad)


@pytest.mark.parametrize("build,message", [
    (lambda: PureState(np.ones(3)), "dimension 3 is not a power of two"),
    (lambda: PureState(np.ones(16)), "4 qubits exceed the supported 3-qubit scope"),
    (lambda: PureState(np.zeros(2)), "cannot normalize a zero state vector"),
    (lambda: DensityMatrix(np.full((2, 4), 0.25)), "density matrix must be square"),
    (lambda: DensityMatrix.from_json_dict({"dim": 4, "re": [[1.0, 0.0], [0.0, 0.0]],
                                           "im": [[0.0, 0.0], [0.0, 0.0]]}),
     "payload does not match declared dimension"),
    (lambda: DensityMatrix.from_json_dict(json.loads(
        '{"dim": 2, "re": [[0.5, NaN], [NaN, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}')),
     "matrix has a non-finite entry"),
    (lambda: optimal_phase_fidelity(DensityMatrix(np.eye(2) / 2), U2, V2),
     "dimension mismatch"),
], ids=["not-power-of-two", "four-qubits", "zero-vector", "not-square", "payload-shape",
        "payload-nan", "phase-dimension"])
def test_qlin_guards(build, message):
    with pytest.raises(ValueError, match=message):
        build()
