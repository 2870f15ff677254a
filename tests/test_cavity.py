import dataclasses
import math

import numpy as np
import pytest

from apgate.cavity import (CavityParams, MirrorBudget, gate_branch_amplitudes,
                           loss_from_first_principles, reflection_coefficient)
from apgate.config import ideal_profile
from apgate.protocols import run_bell
from apgate.qlin import DOWN, UP, X_MINUS, X_PLUS

KAPPA_IN_FRACTION = 95.0 / 103.0


def test_lossless_overcoupled_mirror():
    p = CavityParams(mirrors=MirrorBudget(95.0, 0.0))
    r = reflection_coefficient(p, coupled=False)
    assert r == pytest.approx(-1.0, abs=1e-12)


def test_far_detuned_mirror_like():
    p = CavityParams(delta_c_mhz=1e6)
    assert abs(reflection_coefficient(p, coupled=False) - 1.0) < 1e-3


def test_uncoupled_resonant_reflection_matches_arithmetic():
    # Independent oracle: r = 1 - 2*kappa_in/kappa on resonance with g = 0.
    p = CavityParams()
    r = reflection_coefficient(p, coupled=False)
    expected = 1.0 - 2.0 * KAPPA_IN_FRACTION
    assert r.real == pytest.approx(expected, abs=1e-12)
    assert r.imag == 0.0
    assert r.real == pytest.approx(-0.845, abs=5e-4)
    assert 1.0 - abs(r) ** 2 == pytest.approx(0.287, abs=1e-3)


def test_coupled_resonant_reflection_matches_arithmetic():
    # Independent oracle: r = 1 - (2*kappa_in/kappa)/(1 + 2C), C = g^2/(2 kr gm)
    p = CavityParams()
    coop = 6.7 ** 2 / (2.0 * 2.5 * 3.0)
    expected = 1.0 - 2.0 * KAPPA_IN_FRACTION / (1.0 + 2.0 * coop)
    r = reflection_coefficient(p, coupled=True)
    assert r.real == pytest.approx(expected, abs=1e-12)
    assert r.imag == 0.0


def test_reflection_bounded_on_grid():
    p0 = CavityParams()
    deltas = np.linspace(-2 * math.pi * 50, 2 * math.pi * 50, 10_000)
    for coupled in (True, False):
        mags = [abs(reflection_coefficient(p0, coupled, d))
                for d in deltas[::37]]
        assert max(mags) <= 1.0 + 1e-12
    # dense scan on the uncoupled branch where the dip is sharpest
    mags = np.array([abs(reflection_coefficient(p0, False, d))
                     for d in deltas])
    assert mags.max() <= 1.0 + 1e-12


def test_phase_contrast_is_pi():
    p = CavityParams()
    contrast = np.angle(reflection_coefficient(p, True)) - np.angle(
        reflection_coefficient(p, False))
    assert abs(abs(contrast) - math.pi) < 0.01


@pytest.mark.parametrize("atom,photon,expected", [
    ("up", "up", True),
    ("down", "up", False),
    ("up", "down", False),
    ("down", "down", False),
])
def test_coupling_predicate(atom, photon, expected):
    # Only the (up-atom, up-photon) pair sees the resonant transition: its
    # reflection keeps phase 0, every other pair reflects with phase pi.
    amps = gate_branch_amplitudes(CavityParams(), (0.34, 0.30)).reshape(2, 2)
    amp = amps[("up", "down").index(atom), ("up", "down").index(photon)]
    assert bool(abs(np.angle(amp)) < 0.1) is expected
    assert abs(amp) == pytest.approx(math.sqrt(1 - (0.34 if expected else 0.30)),
                                     abs=1e-12)


def ideal_gate():
    """The lossless conditional-phase map at zero probe offset."""
    return np.diag(gate_branch_amplitudes(CavityParams(), (0.0, 0.0)))


def test_ideal_gate_signs():
    amps = gate_branch_amplitudes(CavityParams(), (0.0, 0.0))
    assert np.array_equal(amps, [1, -1, -1, -1])
    g = ideal_gate()
    psi_up = g @ np.kron(UP, UP)
    assert np.allclose(psi_up, np.kron(UP, UP), atol=1e-15)
    psi_down = g @ np.kron(DOWN, DOWN)
    assert np.allclose(psi_down, -np.kron(DOWN, DOWN), atol=1e-15)


def test_ideal_gate_creates_bell_state():
    # |down_ax down_px> -> (|up_a up_px> + |down_a down_px>)/sqrt2, by expansion
    out = ideal_gate() @ np.kron(X_MINUS, X_MINUS)
    bell = (np.kron(UP, X_PLUS) + np.kron(DOWN, X_MINUS)) / math.sqrt(2)
    assert np.allclose(out, bell, atol=1e-14)


def test_ideal_gate_self_inverse():
    g = ideal_gate()
    assert np.allclose(g @ g, np.eye(4), atol=1e-15)


def test_two_sequential_gates_build_three_particle_state():
    # Photon 1 then photon 2 against the same atom, elementwise diagonals.
    signs = np.diag(ideal_gate()).real
    state = np.kron(X_MINUS, np.kron(X_MINUS, X_MINUS)).reshape(2, 2, 2)
    for photon_axis in (1, 2):
        shape = [1, 1, 1]
        shape[0] = 2
        shape[photon_axis] = 2
        state = state * signs.reshape(2, 2).reshape(shape)
    expected = (np.kron(UP, np.kron(X_PLUS, X_PLUS))
                - np.kron(DOWN, np.kron(X_MINUS, X_MINUS))) / math.sqrt(2)
    assert np.allclose(state.reshape(-1), expected, atol=1e-14)


def test_cnot_truth_table_and_involution():
    # Dressing identity: (Z_a x H) G (I x H) is the CNOT permutation.
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    z = np.diag([1.0, -1.0]).astype(complex)
    c = np.kron(z, h) @ ideal_gate() @ np.kron(np.eye(2), h)
    perm = np.array([[0, 1, 0, 0],
                     [1, 0, 0, 0],
                     [0, 0, 1, 0],
                     [0, 0, 0, 1]], dtype=complex)
    assert np.allclose(c, perm, atol=1e-14)
    assert np.allclose(c @ c, np.eye(4), atol=1e-14)


def test_conditional_phase_flips_photon_in_x_basis():
    # The reflection itself, with the atom-local Z removed, is the CNOT in
    # the photonic x basis: control down leaves the target, control up flips.
    gate_x = np.kron(np.diag([1.0, -1.0]), np.eye(2)) @ ideal_gate()
    down_in = np.kron(DOWN, X_MINUS)
    assert np.allclose(gate_x @ down_in, down_in, atol=1e-14)
    up_out = gate_x @ np.kron(UP, X_MINUS)
    assert abs(abs(np.vdot(np.kron(UP, X_PLUS), up_out)) - 1.0) < 1e-12


def _bell_with_losses(loss_coupled, loss_uncoupled):
    cfg = ideal_profile()
    return run_bell(dataclasses.replace(cfg, imperfections=dataclasses.replace(
        cfg.imperfections, loss_coupled=loss_coupled, loss_uncoupled=loss_uncoupled)))


def test_lossy_channel_zero_losses_is_ideal_gate():
    result = _bell_with_losses(0.0, 0.0)
    assert result.metadata["survival"] == pytest.approx(1.0, abs=1e-12)
    assert result.derived["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_lossy_channel_measured_losses_keep_bell_fidelity():
    # Closed form: F = (a_c + 3 a_u)^2 / (4 (a_c^2 + 3 a_u^2)) for the
    # post-selected state, with a = sqrt(1 - loss).
    a_c, a_u = math.sqrt(1 - 0.34), math.sqrt(1 - 0.30)
    expected = (a_c + 3 * a_u) ** 2 / (4 * (a_c ** 2 + 3 * a_u ** 2))
    result = _bell_with_losses(0.34, 0.30)
    f = result.derived["fidelity"]
    assert f == pytest.approx(expected, abs=1e-12)
    assert f >= 0.999
    assert result.metadata["survival"] == pytest.approx(
        (a_c ** 2 + 3 * a_u ** 2) / 4, abs=1e-12)


def test_lossy_channel_annihilating_limits():
    # Coupled branch annihilated: no population survives in |up_a up_p>.
    populations = _bell_with_losses(1.0, 0.0).derived["populations"]
    assert populations[0] == pytest.approx(0.0, abs=1e-12)
    # Uncoupled branches annihilated: only |up_a up_p> survives.
    populations = _bell_with_losses(0.0, 1.0).derived["populations"]
    assert populations[0] == pytest.approx(1.0, abs=1e-12)


def test_branch_amplitudes_detuned_phases():
    amps = gate_branch_amplitudes(CavityParams(), (0.34, 0.30),
                                  delta=2 * math.pi * 0.3)
    assert np.all(np.abs(amps) <= 1.0)
    # uncoupled branch keeps a phase near pi, coupled branch near 0
    assert abs(np.angle(amps[1])) > math.pi / 2
    assert abs(np.angle(amps[0])) < 0.1


def test_gate_branch_validation():
    with pytest.raises(ValueError):
        gate_branch_amplitudes(CavityParams(), (1.5, 0.3))
    # Off resonance the calibrated modulus is clamped at one.
    deltas = np.linspace(-2 * math.pi * 5, 2 * math.pi * 5, 41)
    for delta in deltas:
        amps = gate_branch_amplitudes(CavityParams(), (0.0, 0.0), delta)
        assert np.all(np.abs(amps) <= 1.0 + 1e-12)
    # One call over an array of offsets equals the per-offset calls.
    params, losses = CavityParams(delta_c_mhz=0.05, delta_a_mhz=-0.03), (0.34, 0.30)
    grid = gate_branch_amplitudes(params, losses, deltas.reshape(1, -1))
    assert grid.shape == (1, 41, 4)
    assert np.array_equal(grid[0], [gate_branch_amplitudes(params, losses, d)
                                    for d in deltas])
    # At zero offset the general formula is the calibrated resonant amplitude.
    amps = gate_branch_amplitudes(params, losses, 0.0)
    for branch, coupled, loss in ((0, True, 0.34), (1, False, 0.30)):
        r0 = reflection_coefficient(params, coupled)
        assert amps[branch] == pytest.approx(math.sqrt(1.0 - loss) * r0 / abs(r0),
                                             abs=1e-15)


def test_mirror_budget_fraction():
    assert MirrorBudget().kappa_in_fraction == pytest.approx(95 / 103, abs=1e-12)
    with pytest.raises(ValueError):
        MirrorBudget(t_coupling_ppm=-1.0)
    with pytest.raises(ValueError, match="cannot be all zero"):
        MirrorBudget(0.0, 0.0)


def test_loss_from_first_principles():
    p = CavityParams()
    lc, lu = loss_from_first_principles(p)
    assert lu == pytest.approx(0.287, abs=1e-3)
    assert abs(lu - 0.30) <= 0.04
    assert lc == pytest.approx(0.458, abs=1e-3)
    # Lossless mirror budget: kappa_in = kappa, zero uncoupled loss.
    _, lu0 = loss_from_first_principles(CavityParams(mirrors=MirrorBudget(95.0, 0.0)))
    assert lu0 == pytest.approx(0.0, abs=1e-12)


def test_cavity_params_validation():
    with pytest.raises(ValueError, match="g must be positive"):
        CavityParams(g_mhz=-1.0)
