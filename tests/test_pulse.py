import dataclasses
import math

import numpy as np
import pytest

from apgate.config import ideal_profile
from apgate.protocols import bell_target, run_bell, run_truth_table
from apgate.pulse import (DetectionModel, ImperfectionConfig, PulseConfig,
                          _poisson_cdf, confusion_matrix, detection_confusion,
                          hyperfine_fidelity, jitter_nodes,
                          multiphoton_fraction)
from apgate.qlin import DensityMatrix, PureState, X_PLUS
from oracle import apply_channel, mode_mismatch_channel, reference_poisson_cdf

IDEAL_GATE = np.diag([1.0, -1.0, -1.0, -1.0])


def _poisson(nbar, k):
    return math.exp(-nbar) * nbar ** k / math.factorial(k)


def test_multiphoton_fraction_matches_ratio():
    nbar = 0.07
    p0, p1 = _poisson(nbar, 0), _poisson(nbar, 1)
    expected = (1 - p0 - p1) / (1 - p0)
    assert multiphoton_fraction(nbar) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.034, abs=1e-3)
    assert multiphoton_fraction(0.0) == 0.0


def test_pulse_warns_above_one_photon():
    with pytest.warns(UserWarning, match=r"^mean photon number 1\.5 above 1; ") as caught:
        PulseConfig(bell_mean_photons=1.5)
    # Attributed to the caller, not to the dataclass-generated __init__.
    assert [w.filename for w in caught] == [__file__]


# --- preparation errors -------------------------------------------------------

def _with_imperfections(cfg, **kw):
    return dataclasses.replace(cfg, imperfections=dataclasses.replace(
        cfg.imperfections, **kw))


def test_prep_error_identity_at_unit_fidelity():
    derived = run_truth_table(_with_imperfections(ideal_profile(),
                                                  prep_fidelity=1.0)).derived
    assert np.allclose(derived["correct_output_probability"], 1.0, atol=1e-12)


def test_prep_error_diagonal_mixture():
    # A wrongly prepared atom behaves as uncoupled and reads out as the upper
    # hyperfine state: the up-input rows keep the photon unflipped with
    # probability 1 - f, the down-input rows are unaffected.
    derived = run_truth_table(_with_imperfections(ideal_profile(),
                                                  prep_fidelity=0.96)).derived
    assert np.allclose(derived["correct_output_probability"],
                       [1.0, 1.0, 0.96, 0.96], atol=1e-12)


def test_prep_error_total_failure():
    derived = run_truth_table(_with_imperfections(ideal_profile(),
                                                  prep_fidelity=0.0)).derived
    assert np.allclose(derived["correct_output_probability"],
                       [1.0, 1.0, 0.0, 0.0], atol=1e-12)


# --- mode mismatch (the engine cross-check oracle) -----------------------------

def test_mode_mismatch_full_overlap_equals_gate():
    ch = mode_mismatch_channel(1.0, (0.0, 0.0))
    assert len(ch.kraus_ops) == 1
    assert np.allclose(ch.kraus_ops[0], IDEAL_GATE, atol=1e-12)


def test_mode_mismatch_zero_overlap_is_identity():
    ch = mode_mismatch_channel(0.0, (0.34, 0.30))
    rho = PureState(np.kron(X_PLUS, X_PLUS)).density()
    out, p = apply_channel(rho, ch)
    assert np.allclose(out.entries, rho.entries, atol=1e-13)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_mode_mismatch_blends_gate_and_mirror():
    ch = mode_mismatch_channel(0.92, (0.0, 0.0))
    rho = PureState(np.kron(X_PLUS, X_PLUS)).density()
    out, _ = apply_channel(rho, ch)
    gate = IDEAL_GATE
    expected = 0.92 * gate @ rho.entries @ gate.conj().T + 0.08 * rho.entries
    assert np.allclose(out.entries, expected, atol=1e-12)


# --- jitter --------------------------------------------------------------------

def test_jitter_nodes_integrate_gaussian_moments():
    deltas, weights = jitter_nodes(300.0, bias_khz=50.0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    mean = (weights * deltas).sum()
    var = (weights * deltas ** 2).sum() - mean ** 2
    assert mean == pytest.approx(2 * math.pi * 0.05, abs=1e-12)
    assert var == pytest.approx((2 * math.pi * 0.3) ** 2, rel=1e-10)
    d0, w0 = jitter_nodes(0.0, bias_khz=20.0)
    assert len(d0) == 1 and w0[0] == 1.0


def test_jitter_nodes_are_fresh_arrays():
    deltas, weights = jitter_nodes(300.0, 50.0)
    expected = deltas.copy(), weights.copy()
    deltas[:] = 0.0
    weights *= 2.0
    again = jitter_nodes(300.0, 50.0)
    assert again[0].tobytes() == expected[0].tobytes()
    assert again[1].tobytes() == expected[1].tobytes()


# --- analyzer errors -----------------------------------------------------------

def _bell_with_analyzer_error(e):
    return run_bell(_with_imperfections(ideal_profile(), photonic_meas_error=e))


def test_analyzer_channel_identity_and_uniform():
    assert _bell_with_analyzer_error(0.0).derived["fidelity"] == pytest.approx(
        1.0, abs=1e-12)
    # A flip probability of one half makes the photon outcome uniform in
    # every basis, whatever the atom outcome.
    tables = np.asarray(_bell_with_analyzer_error(0.5).raw_counts["probabilities"])
    assert np.allclose(tables.reshape(9, 2, 2).sum(axis=1), 0.5, atol=1e-12)


@pytest.mark.parametrize("e", [0.0, 0.05, 0.3, 0.5])
def test_analyzer_channel_equals_classical_confusion(e):
    # A flip with probability e in every basis is the photon's depolarizing
    # channel with parameter 3e/2: rho -> (1 - 2e) rho + 2e rho_atom x I/2.
    # The engine applies the flip as a classical confusion of Born vectors;
    # the reconstructed state must equal the channel's output.
    derived = _bell_with_analyzer_error(e).derived
    rho = DensityMatrix.from_json_dict(derived["density_matrix"]).entries
    bell = bell_target().density().entries
    expected = (1 - 2 * e) * bell + 2 * e * np.eye(4) / 4
    assert np.allclose(rho, expected, atol=1e-12)
    assert derived["fidelity"] == pytest.approx(1 - 1.5 * e, abs=1e-12)
    assert np.allclose(confusion_matrix(e).sum(axis=0), 1.0)


# --- atomic chain calibration ---------------------------------------------------

def test_atomic_coherence_factor_composition():
    imp = ImperfectionConfig()
    # prep * coherence reproduces the calibrated fringe: peak f_rr, contrast
    # 2 f_rr - 1.
    chain = imp.prep_fidelity * imp.atomic_coherence_factor
    assert 0.5 * (1 + chain) == pytest.approx(imp.rotation_readout_fidelity,
                                              abs=1e-12)
    ideal = ImperfectionConfig.ideal()
    assert ideal.atomic_coherence_factor == 1.0


def test_imperfection_validation():
    with pytest.raises(ValueError):
        ImperfectionConfig(mode_overlap=1.3)
    with pytest.raises(ValueError):
        ImperfectionConfig(freq_jitter_khz=-1.0)


@pytest.mark.parametrize("build,message", [
    (lambda: PulseConfig(bell_mean_photons=-0.1), "mean photon number must be nonnegative"),
    (lambda: PulseConfig(fwhm_us=0.0), "FWHM must be positive"),
    (lambda: confusion_matrix(1.5), r"flip probability must lie in \[0, 1\]"),
    (lambda: DetectionModel(mean_signal_photons=-1.0), "signal photon number must be nonnegative"),
    (lambda: DetectionModel(dark_prob=1.0), r"dark probability must lie in \[0, 1\)"),
    (lambda: DetectionModel(threshold=0), "threshold must be at least 1"),
    # exp(-800) underflows: the Poisson readout read as perfect at threshold 1000.
    (lambda: DetectionModel(mean_signal_photons=800.0, threshold=1000),
     "mean signal photon number must be at most 700"),
    (lambda: ImperfectionConfig(photonic_meas_error=0.6),
     r"photonic_meas_error must lie in \[0, 0.5\], got 0.6"),
], ids=["negative-mean", "zero-fwhm", "flip-range", "negative-signal", "dark-range",
        "zero-threshold", "underflowing-signal", "analyzer-flip-range"])
def test_pulse_and_detection_guards(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# --- hyperfine detection ---------------------------------------------------------

def test_detection_model_calibration():
    d = DetectionModel()
    # mean signal inverts the Poisson zero term: P(>=1 | F2) = 0.996
    assert 1.0 - math.exp(-d.mean_signal_photons) == pytest.approx(0.996,
                                                                   abs=1e-12)
    assert 1.0 - math.exp(-d.dark_rate) == pytest.approx(0.003, abs=1e-12)
    assert hyperfine_fidelity(d) == pytest.approx(0.9965, abs=1e-6)


def test_detection_threshold_three_is_worse():
    base = DetectionModel()
    worse = DetectionModel(threshold=3)
    assert hyperfine_fidelity(worse) < hyperfine_fidelity(base)


def test_detection_confusion_columns():
    m = detection_confusion(DetectionModel())
    assert np.allclose(m.sum(axis=0), [1.0, 1.0], atol=1e-12)
    assert m[0, 0] == pytest.approx(0.996, abs=1e-12)
    assert m[1, 1] == pytest.approx(0.997, abs=1e-12)


def test_poisson_cdf_matches_full_sum_bit_for_bit():
    # The sum stops at the first term that underflows to 0.0; every later
    # term is 0.0 as well, so the result must equal the full k-term sum,
    # including at a zero mean, a mean below rounding and means whose first
    # term exp(-lam) already underflows.
    lams = [0.0, 5e-324, 1e-300, 1e-5, 0.3, 1.0, 5.52, 30.0, 700.0, 745.2, 800.0, 1e5]
    ks = [0, 1, 2, 5, 17, 100, 1000, 5000, 120_000]
    for lam in lams:
        for k in ks:
            assert _poisson_cdf(k, lam) == reference_poisson_cdf(k, lam), (k, lam)
