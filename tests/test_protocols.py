import copy
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apgate import protocols, tomography
from apgate.cavity import CavityParams
from apgate.config import ConfigError, RunConfig, ideal_profile, paper_profile
from apgate.protocols import (StarvationError, bell_target, ghz_target,
                              loss_budget, phi_minus_photons, phi_plus_photons,
                              run_bell, run_eraser, run_ghz, run_ramsey,
                              run_state_detection, run_truth_table,
                              tomo_roundtrip)
from apgate.pulse import DetectionModel, ImperfectionConfig, PulseConfig
from apgate.qlin import UP, DensityMatrix, fidelity_pure, rotation
from apgate.tomography import (CountsTable, MeasurementSetting, all_settings,
                               linear_inversion, mle_reconstruct,
                               monte_carlo_errors)

CNOT_PERMUTATION = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=float)


def with_imperfections(cfg, **kw):
    return dataclasses.replace(cfg, imperfections=dataclasses.replace(
        cfg.imperfections, **kw))


# --- ideal configuration -------------------------------------------------------

def test_ideal_truth_table_is_cnot_permutation():
    result = run_truth_table(ideal_profile())
    assert np.max(np.abs(np.asarray(result.derived["matrix"])
                         - CNOT_PERMUTATION)) < 1e-10


def test_ideal_bell_ghz_eraser_reach_targets():
    cfg = ideal_profile()
    assert run_bell(cfg).derived["fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert run_ghz(cfg).derived["fidelity"] == pytest.approx(1.0, abs=1e-10)
    eraser = run_eraser(cfg)
    assert eraser.derived["fidelity_phi_plus"] == pytest.approx(1.0, abs=1e-10)
    assert eraser.derived["fidelity_phi_minus"] == pytest.approx(1.0, abs=1e-10)


def test_equal_losses_only_still_exact_cnot():
    cfg = with_imperfections(ideal_profile(), loss_coupled=0.3,
                             loss_uncoupled=0.3)
    result = run_truth_table(cfg)
    assert np.max(np.abs(np.asarray(result.derived["matrix"])
                         - CNOT_PERMUTATION)) < 1e-10


# --- calibrated configuration ----------------------------------------------------

def test_truth_table_rows_are_probability_vectors():
    for cfg in (ideal_profile(), paper_profile()):
        matrix = np.asarray(run_truth_table(cfg).derived["matrix"])
        assert np.all(matrix >= 0)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)


def test_paper_truth_table_bands():
    result = run_truth_table(paper_profile())
    assert result.derived["control_down_identity"] == pytest.approx(0.99, abs=0.03)
    assert result.derived["control_up_flip"] == pytest.approx(0.86, abs=0.04)


def test_paper_bell_reports_drifted_phase():
    derived = run_bell(paper_profile()).derived
    assert derived["f_max"] > derived["fidelity"]
    assert derived["phi_star"] == pytest.approx(0.11 * math.pi, abs=0.02)


def test_protocol_outputs_are_physical():
    for runner in (run_bell, run_ghz):
        derived = runner(paper_profile()).derived
        dm = DensityMatrix.from_json_dict(derived["density_matrix"])
        assert np.linalg.eigvalsh(dm.entries)[0] >= -1e-8


def test_bell_fidelity_monotone_in_each_imperfection():
    knobs = {
        "mode_overlap": [1.0, 0.92, 0.85],
        "prep_fidelity": [1.0, 0.96, 0.90],
        "freq_jitter_khz": [0.0, 300.0, 600.0],
        "photonic_meas_error": [0.0, 0.01, 0.05],
    }
    base = paper_profile()
    for name, grid in knobs.items():
        fids = [run_bell(with_imperfections(base, **{name: v})).derived["fidelity"]
                for v in grid]
        assert fids[0] >= fids[1] >= fids[2], (name, fids)
    # multi-photon weight grows with the pulse strength
    fids = []
    for nbar in (0.01, 0.07, 0.30):
        cfg = dataclasses.replace(base, pulses=PulseConfig(bell_mean_photons=nbar))
        fids.append(run_bell(cfg).derived["fidelity"])
    assert fids[0] >= fids[1] >= fids[2]


def test_eraser_asymmetry_from_preparation_error():
    cfg = paper_profile()
    derived = run_eraser(cfg).derived
    assert derived["fidelity_phi_plus"] > derived["fidelity_phi_minus"]
    # With perfect preparation the selection advantage disappears.
    perfect = run_eraser(with_imperfections(cfg, prep_fidelity=1.0)).derived
    gap = derived["fidelity_phi_plus"] - derived["fidelity_phi_minus"]
    gap_perfect = (perfect["fidelity_phi_plus"]
                   - perfect["fidelity_phi_minus"])
    assert gap > gap_perfect


def test_eraser_outcome_mixture_matches_photon_marginal():
    result = run_eraser(paper_profile())
    tables = np.asarray(result.raw_counts["probabilities"]).reshape(9, 2, 4)
    p_f2 = tables[:, 0, :].sum(axis=1)[0]
    p_f1 = tables[:, 1, :].sum(axis=1)[0]
    photon_settings = [MeasurementSetting(tuple(name[1:]))
                       for name in result.raw_counts["settings"]]
    marginal = tables.sum(axis=1)
    rho_marg = linear_inversion(CountsTable(photon_settings, marginal))
    rho_f1 = DensityMatrix.from_json_dict(
        result.derived["density_matrix_phi_plus"]).entries
    rho_f2 = DensityMatrix.from_json_dict(
        result.derived["density_matrix_phi_minus"]).entries
    mix = p_f1 * rho_f1 + p_f2 * rho_f2
    assert np.max(np.abs(mix - rho_marg)) < 1e-9


def test_spectral_correction_flag_lowers_fidelity():
    base = paper_profile()
    widened = dataclasses.replace(base, pulses=PulseConfig(spectral_correction=True))
    assert (run_bell(widened).derived["fidelity"]
            < run_bell(base).derived["fidelity"])


def test_bias_knob_shifts_bell_phase():
    cfg = with_imperfections(paper_profile(), drift_phase_per_reflection=0.0,
                             freq_bias_khz=300.0)
    derived = run_bell(cfg).derived
    assert derived["phi_star"] > 0.01
    assert derived["f_max"] > derived["fidelity"]


def test_analytic_reconstruction_rejects_unphysical_table():
    # Born rows of I/4 + (XX+YY+ZZ)/8: every row is >= 0.125, yet the
    # inverted matrix has eigenvalue -0.125.  Analytic mode fits nothing.
    from apgate.protocols import _reconstruct
    from apgate.qlin import PAULI_X, PAULI_Y, PAULI_Z
    m = np.eye(4) / 4 + sum(np.kron(p, p) for p in (PAULI_X, PAULI_Y, PAULI_Z)) / 8
    settings = all_settings(2)
    bras = [s.basis_matrix() for s in settings]
    rows = np.array([np.einsum("oi,ij,oj->o", b, m, b.conj()).real for b in bras])
    assert rows.min() >= 0.125 - 1e-12
    with pytest.raises(ValueError):
        _reconstruct(settings, rows)


# --- Ramsey ----------------------------------------------------------------------

def test_ramsey_ideal_zero_detuning_full_transfer():
    result = run_ramsey(ideal_profile(), detuning_grid_khz=[0.0])
    assert result.raw_counts["transfer"][0] == pytest.approx(1.0, abs=1e-12)


def test_ramsey_quarter_period_shift():
    cfg = paper_profile()
    fit0 = run_ramsey(cfg).derived
    fit90 = run_ramsey(cfg, phase2=math.pi / 2).derived
    shift = abs(fit90["fitted_phase"] - fit0["fitted_phase"])
    assert shift == pytest.approx(math.pi / 2, abs=0.05)


def test_ramsey_peak_and_contrast():
    derived = run_ramsey(paper_profile()).derived
    assert derived["peak_transfer"] == pytest.approx(0.95, abs=0.01)
    assert derived["contrast"] == pytest.approx(0.90, abs=0.02)
    assert derived["fit_converged"]


def test_ramsey_rejects_empty_grid():
    with pytest.raises(ValueError):
        run_ramsey(paper_profile(), detuning_grid_khz=[])


@pytest.mark.parametrize("kwargs,message", [
    ({"phase2": math.nan}, "phase2: must be finite"),
    ({"phase2": math.inf}, "phase2: must be finite"),
    ({"detuning_grid_khz": [0.0, math.nan]}, "grid-khz: must be finite"),
    ({"detuning_grid_khz": [0.0, 1e308]}, "grid-khz: must hold at least one point"),
    ({"detuning_grid_khz": []}, "grid-khz: must hold at least one point"),
])
def test_ramsey_argument_guards(kwargs, message):
    # The Python API checks its arguments as the CLI does: a NaN phase or an
    # overflowing grid used to reach the least-squares fit (LinAlgError).
    with pytest.raises(ConfigError, match=message):
        run_ramsey(paper_profile(), **kwargs)


def test_ramsey_reports_degenerate_fit():
    derived = run_ramsey(paper_profile(), detuning_grid_khz=[0.0]).derived
    assert derived["fit_converged"] is False


@pytest.mark.parametrize("profile", [paper_profile, ideal_profile])
@pytest.mark.parametrize("phase2", [0.0, 0.7, -math.pi / 2, math.pi, 2.9])
@pytest.mark.parametrize("start,stop,points", [(-60.0, 60.0, 1001), (-300.0, 17.0, 23),
                                               (5.0, 5.0, 1)])
def test_ramsey_fringe_matches_pulse_sequence(profile, phase2, start, stop, points):
    # Independent route for the closed-form fringe: apply the pi/2 pulse, the
    # free precession and the phase2 pulse to |up> and read |down>, then damp
    # the fringe about 1/2 by the prepare-rotate-read chain factor.
    cfg = profile()
    grid = np.linspace(start, stop, points)
    imp = cfg.imperfections
    chain = imp.prep_fidelity * imp.atomic_coherence_factor
    expected = []
    for phi in 2.0 * math.pi * grid * 1e-3 * protocols.RAMSEY_PULSE_SEPARATION_US:
        free = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
        amp = (rotation(math.pi / 2, phase2) @ free @ rotation(math.pi / 2, 0.0) @ UP)[1]
        expected.append(0.5 + chain * (abs(amp) ** 2 - 0.5))
    transfer = run_ramsey(cfg, detuning_grid_khz=grid, phase2=phase2).raw_counts["transfer"]
    assert np.max(np.abs(transfer - np.array(expected))) < 1e-12


# --- state detection ----------------------------------------------------------------

def test_state_detection_ideal_limit():
    result = run_state_detection(ideal_profile(), trials=10_000)
    assert result.derived["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_state_detection_rejects_zero_trials():
    # An explicit 0 is a trial count, not a request for the config's default.
    with pytest.raises(ConfigError, match="state detection needs at least two trials"):
        run_state_detection(paper_profile(), trials=0)


def test_state_detection_calibrated_sampling():
    result = run_state_detection(paper_profile(), trials=200_000)
    assert result.derived["fidelity"] == pytest.approx(0.9965, abs=0.002)
    assert result.derived["fidelity_closed_form"] == pytest.approx(0.9965,
                                                                   abs=1e-6)


@pytest.mark.parametrize("detection", [
    DetectionModel(),                                          # paper rate and dark rate
    DetectionModel(mean_signal_photons=700.0, threshold=700),  # the rate ceiling
    DetectionModel(dark_prob=0.0, threshold=3),                # no dark counts: rate 0
], ids=["paper", "ceiling", "no-dark"])
def test_state_detection_histograms_match_the_per_trial_reference(detection):
    # The whole-histogram sampler against the per-trial draws it replaced,
    # pooled over 30 seeds of 100,000 trials: per count, the two-sample z of the
    # pooled frequencies stays within 5.  Every run's histograms hold integer
    # counts summing to trials // 2, and its rates read off them.
    from oracle import reference_state_detection

    trials, n_each = 100_000, 50_000
    pooled = np.zeros((2, 2, 2000))     # route, prepared state (F2, F1), count
    for seed in range(30):
        cfg = dataclasses.replace(paper_profile(seed=seed), detection=detection)
        result = run_state_detection(cfg, trials=trials)
        derived, raw = result.derived, result.raw_counts
        for state, key in enumerate(("histogram_f2", "histogram_f1")):
            counts = np.rint(raw[key] * n_each)
            assert np.allclose(raw[key] * n_each, counts, rtol=0, atol=1e-6)
            assert counts.sum() == n_each
            pooled[0, state, :len(counts)] += counts
        threshold = detection.threshold
        assert derived["correct_f2"] == pytest.approx(
            1.0 - raw["histogram_f2"][:threshold].sum(), rel=0, abs=1e-12)
        assert derived["correct_f1"] == pytest.approx(
            raw["histogram_f1"][:threshold].sum(), rel=0, abs=1e-12)
        for state, counts in enumerate(reference_state_detection(cfg, trials)):
            pooled[1, state, :len(counts)] += counts
    total = pooled.sum(axis=2, keepdims=True)
    p = pooled.sum(axis=0) / total.sum(axis=0)
    spread = np.sqrt(p * (1.0 - p) * (1.0 / total[0] + 1.0 / total[1]))
    shown = spread > 0
    z = (pooled[0] / total[0] - pooled[1] / total[1])[shown] / spread[shown]
    assert np.abs(z).max() < 5.0


# --- loss budget and round trip -------------------------------------------------------

def test_loss_budget_report():
    derived = loss_budget(paper_profile()).derived
    assert derived["model_loss_uncoupled"] == pytest.approx(0.287, abs=1e-3)
    assert derived["model_loss_coupled"] == pytest.approx(0.458, abs=1e-3)
    assert derived["coupled_model_discrepancy"] is True
    assert derived["uncoupled_model_consistent"] is True


def test_tomo_roundtrip_summary_fields():
    derived = tomo_roundtrip(paper_profile(seed=3), n_states=4,
                             shots=2000).derived
    assert derived["min_fidelity"] > 0.9
    assert derived["all_monotone"]


# --- engine cross-check against direct channel composition ---------------------

def test_engine_matches_kraus_channel_composition():
    # Independent route: compose the mode-mismatch channel on the joint state
    # with qlin and evaluate Born probabilities, then compare against the
    # protocol engine's tables for the same restricted configuration.
    from apgate.protocols import _protocol_tables
    from apgate.pulse import ImperfectionConfig
    from apgate.qlin import PureState, X_MINUS
    from oracle import apply_channel, born_probabilities, mode_mismatch_channel
    import numpy as _np

    overlap, losses = 0.92, (0.34, 0.30)
    imp = dataclasses.replace(ImperfectionConfig.ideal(), mode_overlap=overlap,
                              loss_coupled=losses[0], loss_uncoupled=losses[1])
    cfg = ideal_profile()
    settings = all_settings(2)
    (tables,), (survival,) = _protocol_tables(
        cfg.cavity, imp, 0.0, [(X_MINUS, [X_MINUS], imp.prep_fidelity)], settings)

    rho0 = PureState(_np.kron(X_MINUS, X_MINUS)).density()
    rho1, success = apply_channel(rho0, mode_mismatch_channel(overlap, losses))
    assert survival == pytest.approx(success, abs=1e-12)
    for setting, row in zip(settings, tables):
        direct = born_probabilities(rho1, setting)
        assert np.allclose(row, direct, atol=1e-12)


def test_engine_matches_dephased_channel_composition():
    # Same dual route with the atomic dephasing sub-branches switched on:
    # the engine must reproduce (1+C)/2 rho + (1-C)/2 Z_a rho Z_a.
    from apgate.protocols import _protocol_tables
    from apgate.pulse import ImperfectionConfig
    from apgate.qlin import DensityMatrix, PureState, X_MINUS
    from oracle import apply_channel, born_probabilities, mode_mismatch_channel
    import numpy as _np

    imp = dataclasses.replace(ImperfectionConfig.ideal(), mode_overlap=0.92,
                              loss_coupled=0.34, loss_uncoupled=0.30,
                              rotation_readout_fidelity=0.95)
    coherence = imp.atomic_coherence_factor
    cfg = ideal_profile()
    settings = all_settings(2)
    (tables,), _ = _protocol_tables(
        cfg.cavity, imp, 0.0, [(X_MINUS, [X_MINUS], imp.prep_fidelity)], settings)

    rho0 = PureState(_np.kron(X_MINUS, X_MINUS)).density()
    rho1, _ = apply_channel(rho0, mode_mismatch_channel(0.92, (0.34, 0.30)))
    z_atom = _np.kron(_np.diag([1.0, -1.0]), _np.eye(2))
    dephased = DensityMatrix(0.5 * (1 + coherence) * rho1.entries
                             + 0.5 * (1 - coherence)
                             * (z_atom @ rho1.entries @ z_atom))
    for setting, row in zip(settings, tables):
        assert np.allclose(row, born_probabilities(dephased, setting),
                           atol=1e-12)


def test_truth_table_is_one_engine_pass(monkeypatch):
    # The four inputs share one call, and each input's tables and survival are
    # bit for bit those of a stack holding it alone.
    engine, calls = protocols._protocol_tables, []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return engine(*args, **kwargs)

    monkeypatch.setattr(protocols, "_protocol_tables", counted)
    run_truth_table(paper_profile())
    [(args, kwargs)] = calls
    cavity, imp, q2, inputs, *rest = args
    assert len(inputs) == 4 and q2 > 0
    tables, survivals = engine(*args, **kwargs)
    for i, one in enumerate(inputs):
        (alone,), (survival,) = engine(cavity, imp, q2, [one], *rest, **kwargs)
        assert np.array_equal(alone, tables[i]) and survival == survivals[i]


# --- engine against the full-model density-matrix oracle ---------------------

TABLE_RUNNERS = {"truth-table": run_truth_table, "bell": run_bell,
                 "ghz": run_ghz, "eraser": run_eraser}


def _either_zero(upper):
    return st.one_of(st.just(0.0), st.floats(1.0, upper))


@st.composite
def operating_points(draw):
    """Random analytic configs with every model knob of the table engine."""
    imperfections = ImperfectionConfig(
        mode_overlap=draw(st.floats(0.5, 1.0)),
        prep_fidelity=draw(st.floats(0.5, 1.0)),
        freq_jitter_khz=draw(_either_zero(800.0)),
        freq_bias_khz=draw(_either_zero(400.0)),
        drift_phase_per_reflection=draw(st.floats(-1.0, 1.0)),
        photonic_meas_error=draw(st.floats(0.0, 0.2)),
        loss_coupled=draw(st.floats(0.0, 0.8)),
        loss_uncoupled=draw(st.floats(0.0, 0.8)),
        rotation_readout_fidelity=draw(st.floats(0.5, 1.0)))
    cavity = CavityParams(
        g_mhz=draw(st.floats(2.0, 12.0)), kappa_mhz=draw(st.floats(1.0, 5.0)),
        gamma_mhz=draw(st.floats(1.0, 5.0)),
        delta_c_mhz=draw(st.floats(-0.5, 0.5)), delta_a_mhz=draw(st.floats(-0.5, 0.5)))
    detection = DetectionModel(mean_signal_photons=draw(st.floats(1.0, 20.0)),
                               dark_prob=draw(st.floats(0.0, 0.1)),
                               threshold=draw(st.integers(1, 3)))
    return RunConfig(
        seed=1, cavity=cavity, imperfections=imperfections, detection=detection,
        pulses=PulseConfig(bell_mean_photons=draw(st.floats(0.0, 0.5)),
                           truth_table_mean_photons=draw(st.floats(0.0, 0.5)),
                           assume_single_photon=draw(st.booleans()),
                           spectral_correction=draw(st.booleans())))


def _max_contamination(cfg):
    """``cfg`` with both pulses at the top of the drawn mean (0.5), extra
    photons on, spectral correction on and a nonzero detuning bias."""
    return dataclasses.replace(
        with_imperfections(cfg, freq_bias_khz=200.0),
        pulses=PulseConfig(bell_mean_photons=0.5, truth_table_mean_photons=0.5,
                           spectral_correction=True))


@pytest.mark.parametrize("protocol", sorted(TABLE_RUNNERS))
@settings(max_examples=25, deadline=None)
@given(cfg=operating_points())
@example(cfg=paper_profile())
@example(cfg=ideal_profile())
# Not derandomized: the one- and two-photon contamination products are
# checked at full weight on every run only through these two.
@example(cfg=_max_contamination(paper_profile()))
@example(cfg=_max_contamination(ideal_profile()))
def test_engine_matches_full_model_oracle(protocol, cfg):
    # Independent route: every branch as a Kraus operator on the density
    # matrix, Born vectors from projectors, classical readout per branch.
    from oracle import oracle_tables
    result = TABLE_RUNNERS[protocol](cfg)
    tables, survival = oracle_tables(cfg, protocol)
    assert np.max(np.abs(np.asarray(result.raw_counts["probabilities"]) - tables)) < 1e-12
    assert np.max(np.abs(np.asarray(result.metadata["survival"]) - survival)) < 1e-12


@pytest.mark.parametrize("protocol", sorted(TABLE_RUNNERS))
@pytest.mark.parametrize("jitter_khz,bias_khz", [(300.0, 0.0), (600.0, 20.0)])
def test_jitter_average_matches_a_fine_grid_reference(protocol, jitter_khz, bias_khz,
                                                      monkeypatch):
    # The engine and the full-model oracle share jitter_nodes' 21-node rule;
    # this checks it against a 4801-point grid that does not call it.  They
    # part by 5e-15 per entry at the paper profile's 300 kHz and by 1.7e-12 at
    # 600 kHz, about the widest total jitter of any golden config or benchmark
    # point, but by 4e-8 at 1 MHz and 1.5e-4 at 2 MHz.
    from oracle import reference_jitter_nodes
    cfg = with_imperfections(paper_profile(), freq_jitter_khz=jitter_khz,
                             freq_bias_khz=bias_khz)
    engine = np.asarray(TABLE_RUNNERS[protocol](cfg).raw_counts["probabilities"])
    monkeypatch.setattr(protocols, "jitter_nodes", reference_jitter_nodes)
    reference = np.asarray(TABLE_RUNNERS[protocol](cfg).raw_counts["probabilities"])
    assert np.max(np.abs(engine - reference)) < 1e-10


# --- single-imperfection budget decomposition ---------------------------------

def single_imperfection_config(**kw):
    cfg = ideal_profile()
    return dataclasses.replace(
        cfg, imperfections=dataclasses.replace(cfg.imperfections, **kw))


def test_mode_mismatch_costs_several_percent_on_bell():
    cfg = single_imperfection_config(mode_overlap=0.92, loss_coupled=0.34,
                                     loss_uncoupled=0.30)
    reduction = 1.0 - run_bell(cfg).derived["fidelity"]
    assert 0.05 <= reduction <= 0.12


def test_jitter_costs_about_one_percent_on_bell():
    cfg = single_imperfection_config(freq_jitter_khz=300.0)
    reduction = 1.0 - run_bell(cfg).derived["fidelity"]
    assert 0.003 <= reduction <= 0.03


def test_jitter_accumulates_coherently_over_two_reflections():
    cfg = single_imperfection_config(freq_jitter_khz=300.0)
    bell_cost = 1.0 - run_bell(cfg).derived["fidelity"]
    ghz_cost = 1.0 - run_ghz(cfg).derived["fidelity"]
    assert ghz_cost > 2.0 * bell_cost


def test_analyzer_error_costs_about_two_percent_on_two_photons():
    cfg = single_imperfection_config(photonic_meas_error=0.01)
    reduction = 1.0 - run_ghz(cfg).derived["fidelity"]
    assert 0.01 <= reduction <= 0.05


def test_multiphoton_costs_about_two_percent_on_bell():
    cfg = dataclasses.replace(ideal_profile(), pulses=PulseConfig())
    reduction = 1.0 - run_bell(cfg).derived["fidelity"]
    assert 0.01 <= reduction <= 0.04


# --- Monte-Carlo mode ------------------------------------------------------------------

def test_monte_carlo_agrees_with_analytic():
    base = paper_profile()
    analytic = run_bell(base)
    mc = run_bell(dataclasses.replace(base, mode="monte-carlo",
                                      trials=100_000))
    probs = np.asarray(analytic.raw_counts["probabilities"])
    counts = np.asarray(mc.raw_counts["counts"], dtype=float)
    for p_row, c_row in zip(probs, counts):
        n = c_row.sum()
        freq = c_row / n
        tol = 5.0 * np.sqrt(np.maximum(p_row * (1 - p_row), 1e-12) / n) + 10.0 / n
        assert np.all(np.abs(freq - p_row) <= tol)
    assert abs(mc.derived["fidelity"] - analytic.derived["fidelity"]) \
        <= 6 * mc.derived["fidelity_std"]


def test_monte_carlo_reports_error_bars():
    cfg = dataclasses.replace(paper_profile(), mode="monte-carlo",
                              trials=20_000, mc_replicas=30)
    derived = run_bell(cfg).derived
    assert 0.0 < derived["fidelity_std"] < 0.05


def test_monte_carlo_deterministic_given_seed():
    cfg = dataclasses.replace(paper_profile(seed=77), mode="monte-carlo",
                              trials=10_000, mc_replicas=10)
    assert run_bell(cfg).to_json() == run_bell(cfg).to_json()


def test_monte_carlo_ghz_and_eraser():
    cfg = dataclasses.replace(paper_profile(seed=31), mode="monte-carlo",
                              trials=20_000, mc_replicas=15)
    ghz = run_ghz(cfg).derived
    assert 0.5 < ghz["fidelity"] < 0.75
    assert ghz["fidelity_std"] > 0.0
    eraser = run_eraser(cfg).derived
    for key in ("fidelity_phi_plus", "fidelity_phi_minus"):
        assert 0.5 < eraser[key] < 0.8
    assert eraser["fidelity_phi_plus_std"] > 0.0
    assert eraser["fidelity_phi_minus_std"] > 0.0
    # conditioned outcome split carries through from the analytic tables
    assert eraser["p_atom_f1"] + eraser["p_atom_f2"] == pytest.approx(1.0,
                                                                      abs=1e-9)


MC_SMALL = dataclasses.replace(paper_profile(seed=31), mode="monte-carlo",
                               trials=20_000, mc_replicas=6)


def test_monte_carlo_run_is_one_fit_batch(monkeypatch):
    # The observed tables (two for the eraser) ride in the replicas' batch.
    core, batches = tomography.mle_batch, []
    def counted(settings, counts, max_iter=5000):
        batches.append(len(counts))
        return core(settings, counts, max_iter)
    monkeypatch.setattr(tomography, "mle_batch", counted)
    monkeypatch.setattr(protocols, "mle_batch", counted)
    for runner, tables in ((run_bell, 1), (run_ghz, 1), (run_eraser, 2)):
        batches.clear()
        runner(MC_SMALL)
        assert batches == [tables * (1 + MC_SMALL.mc_replicas)], runner.__name__


@pytest.mark.parametrize("runner", [run_bell, run_ghz, run_eraser])
def test_one_batch_matches_separate_fits(runner, monkeypatch):
    # Bit for bit: each observed fit as mle_reconstruct, each error as
    # monte_carlo_errors with fidelity_pure against the same target on the
    # same generator stream, herald after herald.
    merged, calls = protocols.fit_with_errors, []
    def spy(settings, counts, targets, resamples, rng):
        start = copy.deepcopy(rng)
        fits = merged(settings, counts, targets, resamples, rng)
        calls.append((settings, counts, targets, resamples, start, fits))
        return fits
    monkeypatch.setattr(protocols, "fit_with_errors", spy)
    runner(MC_SMALL)
    (settings, counts, targets, resamples, rng, fits), = calls
    assert len(fits) == len(counts) == (2 if runner is run_eraser else 1)
    for c, target, (rho, std) in zip(counts, targets, fits, strict=True):
        table = CountsTable(settings, c)
        metric = functools.partial(fidelity_pure, target=target)
        assert np.array_equal(rho.entries, mle_reconstruct(table).rho.entries)
        assert std == monte_carlo_errors(table, metric, resamples, rng)["metric"]


TARGETS = {run_bell: [bell_target()], run_ghz: [ghz_target()],
           run_eraser: [phi_plus_photons(), phi_minus_photons()]}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("runner", [run_bell, run_ghz, run_eraser])
@pytest.mark.parametrize("profile", [paper_profile, ideal_profile])
def test_fidelity_std_matches_fisher_information(profile, runner, seed, monkeypatch):
    # A second route to each fit's bootstrap fidelity_std: the delta-method
    # std from the Fisher information at the fitted state.  With 100 replicas
    # the bootstrap std has a relative sampling error of 1/sqrt(2 * 99), 7 %,
    # so their ratio lies within about 4 sigma of 1, in [0.72, 1.28].  At the
    # ideal profile the fit is pure to rounding: positivity keeps every
    # replica's state physical and narrows the bootstrap below the
    # unconstrained Fisher bound (ratios 0.62-0.97 at seeds 1-4), so only
    # the upper side holds there.
    from oracle import fisher_std
    merged, calls = protocols.fit_with_errors, []
    def spy(settings, counts, metrics, resamples, rng):
        calls.append((settings, counts, merged(settings, counts, metrics, resamples, rng)))
        return calls[-1][2]
    monkeypatch.setattr(protocols, "fit_with_errors", spy)
    runner(dataclasses.replace(profile(seed=seed), mode="monte-carlo"))
    (settings, counts, fits), = calls
    ratios = [std / fisher_std(settings, c, rho.entries, target.amplitudes)
              for c, (rho, std), target in zip(counts, fits, TARGETS[runner], strict=True)]
    low = 0.72 if profile is paper_profile else 0.0
    assert all(low <= r <= 1.28 for r in ratios), ratios


def test_fidelity_std_matches_the_spread_over_seeds():
    # A third route to fidelity_std: over 30 seeds, the Monte-Carlo bell
    # fidelity's offset from the analytic value, in units of its reported
    # std, has sd and mean near 1 and 0.  Their sampling errors at 30 seeds
    # are 1/sqrt(58) = 0.13 and 1/sqrt(30) = 0.18; the bands are 2 sigma
    # (seeds 1-30 give sd 0.95 and mean -0.17).
    exact = run_bell(paper_profile()).derived["fidelity"]
    z = []
    for seed in range(1, 31):
        derived = run_bell(dataclasses.replace(paper_profile(seed=seed),
                                               mode="monte-carlo")).derived
        z.append((derived["fidelity"] - exact) / derived["fidelity_std"])
    assert 0.74 <= np.std(z, ddof=1) <= 1.26, z
    assert abs(np.mean(z)) <= 0.37, z


@pytest.mark.parametrize("profile", [paper_profile, ideal_profile])
def test_stacked_analytic_inversion_matches_each_table(profile, monkeypatch):
    # Bit for bit: a run's exact tables are inverted in one stacked call, and
    # each state equals its own table's single inversion.
    stacked, calls = protocols._reconstruct, []
    def spy(settings, tables):
        calls.append((settings, tables, stacked(settings, tables)))
        return calls[-1][2]
    monkeypatch.setattr(protocols, "_reconstruct", spy)
    for runner in (run_bell, run_ghz, run_eraser):
        runner(profile())
    assert [len(tables) for _, tables, _ in calls] == [1, 1, 2]
    for settings, tables, (rhos, method) in calls:
        assert method == "linear-inversion" and len(rhos) == len(tables)
        for t, rho in zip(tables, rhos):
            single = DensityMatrix(linear_inversion(CountsTable(settings, t)))
            assert np.array_equal(rho.entries, single.entries)


def test_monte_carlo_truth_table_and_ramsey():
    cfg = dataclasses.replace(paper_profile(seed=13), mode="monte-carlo",
                              trials=50_000)
    tt = run_truth_table(cfg).derived
    matrix = np.asarray(tt["matrix"])
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
    assert tt["control_up_flip"] == pytest.approx(0.83, abs=0.03)
    ramsey = run_ramsey(dataclasses.replace(cfg, trials=20_000)).derived
    assert ramsey["peak_transfer"] == pytest.approx(0.95, abs=0.02)
    assert ramsey["contrast"] == pytest.approx(0.90, abs=0.04)


def test_starvation_reported():
    cfg = with_imperfections(
        dataclasses.replace(ideal_profile(), mode="monte-carlo", trials=100),
        loss_coupled=1.0, loss_uncoupled=1.0)
    with pytest.raises(StarvationError):
        run_bell(cfg)


# --- targets ---------------------------------------------------------------------------

def test_targets_are_normalized_and_orthogonal():
    assert abs(np.vdot(bell_target().amplitudes, bell_target().amplitudes)
               - 1) < 1e-12
    assert abs(np.vdot(phi_plus_photons().amplitudes,
                       phi_minus_photons().amplitudes)) < 1e-12
    assert ghz_target().amplitudes.size == 8
