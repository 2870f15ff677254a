"""End-to-end experiment drivers.

Each driver composes the reflection gate with the calibrated imperfection
model, simulates the measurement chain and reports reconstructed states and
figures of merit.  Every protocol runs in one of two modes:

* ``analytic``: channels and imperfections are composed exactly (Gaussian
  detuning jitter is integrated by quadrature), giving deterministic
  per-setting outcome probabilities.  Reconstruction is linear inversion
  alone: exact tables give a physical matrix (see ``_reconstruct``).
* ``monte-carlo``: trial-level sampling.  Per-trial latent variables
  (detuning draw, preparation error, mode-matching branch, extra-photon
  contamination) are independent across trials, so sampling outcome counts
  from the per-setting mixture distribution is statistically identical to
  looping over trials; retention is binomial in the survival probability.

Every random draw comes from one child of the run's seed sequence, handed
out by ``_streams``: a sampled protocol run draws setting ``s``'s counts from
child ``s`` and its bootstrap from the next child, ``S`` for ``S`` settings;
Ramsey and state detection draw from child 0; the reconstruction round trip
draws state ``i`` and its counts from child ``i``.  Results therefore do not
depend on any worker fan-out.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cavity import CavityParams, gate_branch_amplitudes, loss_from_first_principles
from .config import ConfigError, RunConfig
from .pulse import (ImperfectionConfig, confusion_matrix, detection_confusion,
                    hyperfine_fidelity, jitter_nodes, multiphoton_fraction,
                    spectral_sigma_khz)
from .qlin import (DOWN, DensityMatrix, PureState, UP, X_MINUS, X_PLUS, _checked,
                   fidelity_pure, kron, optimal_phase_fidelity, rotation)
# linear_inversion, mle_reconstruct, monte_carlo_errors and simulate_counts are
# unused here but stay importable: perfbench's tracer patches them at this module.
from .tomography import (MeasurementSetting, all_settings, fit_with_errors,
                         linear_inversion, linear_inversions, mle_batch, mle_reconstruct,
                         monte_carlo_errors, simulate_batch, simulate_counts)

RAMSEY_PULSE_SEPARATION_US = 7.5


class StarvationError(RuntimeError):
    """No events survived post-selection for at least one setting."""


# ---------------------------------------------------------------------------
# Targets (atom first, photons in reflection order)

def bell_target() -> PureState:
    """(|up_a up_px> + |down_a down_px>)/sqrt(2)."""
    return PureState((kron(UP, X_PLUS) + kron(DOWN, X_MINUS)) / math.sqrt(2))


def ghz_target() -> PureState:
    """(|up_a up_px up_px> - |down_a down_px down_px>)/sqrt(2)."""
    plus = kron(UP, kron(X_PLUS, X_PLUS))
    minus = kron(DOWN, kron(X_MINUS, X_MINUS))
    return PureState((plus - minus) / math.sqrt(2))


def phi_plus_photons() -> PureState:
    return PureState((kron(X_PLUS, X_PLUS) + kron(X_MINUS, X_MINUS)) / math.sqrt(2))


def phi_minus_photons() -> PureState:
    return PureState((kron(X_PLUS, X_PLUS) - kron(X_MINUS, X_MINUS)) / math.sqrt(2))


# ---------------------------------------------------------------------------
# Result container

@dataclass
class ProtocolResult:
    """Raw per-setting data plus derived figures of merit and run metadata."""

    label: str
    raw_counts: dict
    derived: dict
    metadata: dict
    tables: tuple = ()      # CSVs, (stem, header, [(column, format spec)]); not in to_json

    def to_json(self) -> str:
        payload = {"label": self.label, "raw_counts": self.raw_counts,
                   "derived": self.derived, "metadata": self.metadata}
        # np.float64 is a float and dumps as one; arrays and other numpy
        # scalars go through tolist().
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                          default=lambda o: o.tolist()) + "\n"


# ---------------------------------------------------------------------------
# Outcome-probability engine

def _model_for(cfg: RunConfig, nbar: float) -> tuple[ImperfectionConfig, float]:
    """Imperfections and extra-photon contamination q2 of pulses of mean ``nbar``."""
    q2 = 0.0 if cfg.pulses.assume_single_photon else multiphoton_fraction(nbar)
    imp = cfg.imperfections
    if cfg.pulses.spectral_correction:
        # Optional correction: fold the pulse's spectral spread into the
        # detuning average instead of treating the carrier as monochromatic.
        widened = math.hypot(imp.freq_jitter_khz, spectral_sigma_khz(cfg.pulses.fwhm_us))
        imp = dataclasses.replace(imp, freq_jitter_khz=widened)
    return imp, q2


def _protocol_tables(cavity: CavityParams, imp: ImperfectionConfig, q2: float,
                     inputs: Sequence[tuple], settings: Sequence[MeasurementSetting],
                     atom_phase: float = 0.0,
                     atom_pre_measure: Optional[np.ndarray] = None,
                     atom_confusion: Optional[np.ndarray] = None):
    """Per-setting outcome probabilities of one gate protocol for a stack of ``inputs``,
    each ``(atom ket, photon kets, prep fidelity)`` with one photon count and run as if
    its prep fidelity were ``imp.prep_fidelity``.

    Returns ``(tables, survivals)`` where ``tables[i, s]`` is the normalized outcome
    distribution of input ``i`` in setting ``s`` (C-order over the atom bit followed by
    the photon bits, bit 0 the + outcome) and ``survivals[i]`` its photon-survival
    weight of one attempt: the total before normalization, common to all settings.

    The reflection map is diagonal, so the model is one branch tensor of shape (input,
    jitter node, branch, 2^n): per in/out-of-mode photon pattern and per dephasing
    sub-branch, the initial ket times the in-mode photons' reflection factors, the
    drift phase ``atom_phase`` and the dephasing phase flip, scaled by the square root
    of the branch prior, then rotated by ``atom_pre_measure`` on the atom.  Atoms
    prepared in the wrong state add one more branch: every photon uncoupled, no
    rotation, and the atom read as |up> since it always fluoresces (the upper hyperfine
    outcome in a Z readout, an even split in X or Y).  Then each step is one product on
    the flat outcome index, one row per (input, node, branch, setting): Born weights
    with the stacked bras, readout with one Kronecker matrix (``atom_confusion``, the
    identity if None, times the analyzer flips).

    Extra-photon contamination (with weight q2 a photon's record is an independent
    draw from its own marginal) acts on each branch before the quadrature weights
    average the nodes.  Photon j's marginal sums outcomes sharing its bit, the rest
    those agreeing on every other bit; the extra photon meets the same detuning, mode
    pattern and atom as the first, and the map is nonlinear, so the marginal is the
    branch's, not the mixture's.
    """
    atom_kets, photon_kets, f_prep = zip(*inputs)
    k = len(photon_kets[0])
    n = 1 + k
    ov = imp.mode_overlap
    deltas, weights = jitter_nodes(imp.freq_jitter_khz, imp.freq_bias_khz)
    amps = gate_branch_amplitudes(cavity, (imp.loss_coupled, imp.loss_uncoupled), deltas)
    bits = np.array(list(np.ndindex((2,) * n)))                  # (2^n, n), 0 = up/+
    out_of_mode = np.array(list(np.ndindex((2,) * k)), dtype=bool)   # (2^k, k)

    # Branch tensor (input, node, mode pattern, dephasing sign, 2^n).
    pair = amps[:, 2 * bits[:, :1] + bits[:, 1:]]                 # (node, 2^n, k)
    factors = np.where(out_of_mode[:, None], 1.0, pair[:, None]).prod(axis=-1)
    coherence = np.array([dataclasses.replace(imp, prep_fidelity=f).atomic_coherence_factor
                          for f in f_prep])
    f_prep = np.array(f_prep)
    priors = (f_prep[:, None, None] * np.where(out_of_mode, 1.0 - ov, ov).prod(axis=1)[:, None]
              * np.stack([1.0 + coherence, 1.0 - coherence], axis=1)[:, None] / 2.0)
    phot0 = np.array([functools.reduce(kron, np.asarray(p, dtype=complex)) for p in photon_kets])
    psi0 = np.array([kron(a, p) for a, p in zip(np.asarray(atom_kets, dtype=complex), phot0)])
    atom_bit = bits[:, 0]
    signs = np.array([np.ones(2 ** n), (-1.0) ** atom_bit])
    vec = (factors[:, :, None] * np.sqrt(priors)[:, None, ..., None] * signs
           * psi0[:, None, None, None] * np.exp(-1j * atom_phase * atom_bit))
    pre = np.eye(2) if atom_pre_measure is None else atom_pre_measure
    vec = vec.reshape(-1, 2 ** (k + 1), 2 ** n) @ kron(pre, np.eye(2 ** k)).T
    err_prior = (1.0 - f_prep[:, None]) * (ov * np.abs(amps[:, 1]) ** 2 + 1.0 - ov) ** k
    err = np.sqrt(err_prior)[..., None, None] * kron([1.0, 0.0], phot0)[:, None, None]
    vec = np.concatenate([vec, err.reshape(-1, 1, 2 ** n)], axis=1)

    basis = np.concatenate([s.basis_matrix() for s in settings])    # (S 2^n, 2^n) bras
    grid = np.abs(vec.reshape(-1, 2 ** n) @ basis.T) ** 2     # rows (input, node, branch)
    readout = [np.eye(2) if atom_confusion is None else atom_confusion]
    confusion = functools.reduce(kron, readout + [confusion_matrix(imp.photonic_meas_error)] * k)
    grid = grid.reshape(-1, 2 ** n) @ confusion.T     # rows (input, node, branch, setting)
    if q2:      # without extra photons this would leave every entry as it is
        total = grid.sum(axis=1, keepdims=True)
        # A subnormal total would overflow; its branch is below 1e-308 anyway.
        scale = q2 / np.where(total >= np.finfo(float).tiny, total, np.inf)
        agree = (bits.T[:, :, None] == bits.T[:, None]).astype(float)   # [j, o, o']: same bit j
        for j in range(1, n):     # in place: the grids are the engine's largest arrays
            marginal = grid @ agree[j]                                 # outcomes sharing bit j
            rest = grid @ np.delete(agree, j, axis=0).prod(axis=0)     # ... every other bit
            grid *= 1.0 - q2
            grid += rest * (scale * marginal)
    node_weights = np.repeat(weights, vec.shape[1])
    tables = (node_weights @ grid.reshape(len(inputs), len(node_weights), -1)).reshape(
        len(inputs), len(settings), -1)

    sums = tables.sum(axis=2)
    if np.max(np.abs(sums - sums[:, :1])) > 1e-9:
        raise RuntimeError("survival weight leaked a setting dependence")
    survivals = sums[:, 0]
    if survivals.min() <= 1e-12:
        raise StarvationError("post-selection removed all weight")
    return tables / survivals[:, None, None], survivals


# ---------------------------------------------------------------------------
# Sampling and estimation, shared by both modes

def _reconstruct(settings: Sequence[MeasurementSetting], tables):
    """One stacked linear inversion of a run's exact tables: ``(states, label)``,
    the label read by perfbench's ``protocols.reconstruct`` span.

    The tables are Born vectors of a physical state passed through per-qubit
    outcome flips of probability at most 1/2, convex mixtures over branches and
    per-branch contamination, each of which keeps the state physical, so only
    rounding can push an eigenvalue below zero.  ``DensityMatrix``'s eigenvalue
    floor is the guard: a table that fails it raises ``ValueError``.
    """
    return DensityMatrix.stack(linear_inversions(settings, tables)), "linear-inversion"


def _streams(cfg: RunConfig, n: int) -> list:
    """Generators of children 0..n-1 of the run's seed sequence, the only
    source of randomness of every driver."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(cfg.seed).spawn(n)]


def _sample_records(settings: Sequence[MeasurementSetting], tables: np.ndarray,
                    trials: int, keep_prob, rngs) -> np.ndarray:
    """Binomial retention of ``trials`` attempts, then multinomial outcome
    counts, per setting, as an integer array of one row per setting.
    ``keep_prob`` is one probability for every setting or one per setting;
    setting ``s`` draws from ``rngs[s]``."""
    rows = []
    keep = np.broadcast_to(keep_prob, len(settings))
    for s, p, k, rng in zip(settings, tables, keep, rngs):
        retained = int(rng.binomial(trials, min(1.0, k)))
        if retained == 0:
            raise StarvationError(f"no surviving events for setting {s.name}")
        rows.append(rng.multinomial(retained, p / p.sum()))
    return np.array(rows)


def _observe(cfg: RunConfig, settings: Sequence[MeasurementSetting],
             tables: np.ndarray, keep_prob):
    """Rows the estimator sees, and the bootstrap generator.

    Analytic mode sees the exact tables and needs no generator.  Monte-Carlo
    mode sees counts sampled from one stream per setting; the bootstrap
    draws from the stream after them.
    """
    if cfg.mode != "monte-carlo":
        return tables, None
    *rngs, bootstrap = _streams(cfg, len(settings) + 1)
    return _sample_records(settings, tables, cfg.trials, keep_prob, rngs), bootstrap


def _estimate(cfg: RunConfig, settings: Sequence[MeasurementSetting], tables,
              targets: Sequence[PureState], rng):
    """Reconstructed states, method and bootstrap fidelity errors (or None)
    of one run's tables, table j against ``targets[j]``.

    Analytic tables are exact outcome weights: one stacked linear inversion.
    Monte-Carlo tables are counts: they and all their parametric bootstrap
    replicas, drawn from ``rng``, share one certified MLE batch.
    """
    if cfg.mode != "monte-carlo":
        return (*_reconstruct(settings, tables), None)
    rhos, stds = zip(*fit_with_errors(settings, tables, targets, cfg.mc_replicas, rng))
    return rhos, "mle", stds


def _metadata(cfg: RunConfig, trials: int, extra: Optional[dict] = None) -> dict:
    return {"config": cfg.to_dict(), "seed": cfg.seed, "trials": trials,
            "mode": cfg.mode, **(extra or {})}


# ---------------------------------------------------------------------------
# Protocol drivers

TRUTH_TABLE_LABELS = ("down_a down_px", "down_a up_px", "up_a down_px", "up_a up_px")
# Column holding the correct output for each input row.  Outcomes are
# ordered (atom bit, photon bit) from up_a up_px, the reverse of the labels.
_TT_CORRECT_COLUMN = (0, 1, 3, 2)


def run_truth_table(cfg: RunConfig) -> ProtocolResult:
    """Classical truth table of the gate in the (atom z, photon x) bases.

    Rows are the four basis inputs, columns the measured outputs in the same
    order; hyperfine detection and analyzer errors are part of the readout.
    The truth table is a short calibration run taken at a re-centered
    laser-cavity offset, so the slow drift bias configured for the
    entanglement protocols is not applied here.
    """
    imp, q2 = _model_for(cfg, cfg.pulses.truth_table_mean_photons)
    imp = dataclasses.replace(imp, freq_bias_khz=0.0)
    setting = MeasurementSetting(("Z", "X"))
    # Atom-down inputs carry no preparation error.
    inputs = [(DOWN, [X_MINUS], 1.0), (DOWN, [X_PLUS], 1.0),
              (UP, [X_MINUS], imp.prep_fidelity), (UP, [X_PLUS], imp.prep_fidelity)]
    tables, survivals = _protocol_tables(cfg.cavity, imp, q2, inputs, [setting],
                                         atom_confusion=detection_confusion(cfg.detection))
    rows, _ = _observe(cfg, [setting] * 4, tables[:, 0], survivals)
    raw = {"counts" if cfg.mode == "monte-carlo" else "probabilities": rows}
    matrix = (rows / rows.sum(axis=1, keepdims=True))[:, ::-1]
    correct = [float(matrix[i, _TT_CORRECT_COLUMN[i]]) for i in range(4)]
    derived = {
        "input_labels": list(TRUTH_TABLE_LABELS),
        "output_labels": list(TRUTH_TABLE_LABELS),
        "matrix": matrix,
        "correct_output_probability": correct,
        "control_down_identity": 0.5 * (correct[0] + correct[1]),
        "control_up_flip": 0.5 * (correct[2] + correct[3]),
    }
    raw.update(setting=setting.name, rows=list(TRUTH_TABLE_LABELS))
    csv = ("truth_table", ["input", *TRUTH_TABLE_LABELS],
           [(TRUTH_TABLE_LABELS, ""), *((col, ".6f") for col in matrix.T)])
    return ProtocolResult("truth-table", raw, derived,
                          _metadata(cfg, cfg.trials, {"survival": survivals}), (csv,))


def _entanglement(cfg: RunConfig, label: str, settings: Sequence[MeasurementSetting],
                  states, u: PureState, v: PureState, herald=None,
                  atom_pre_measure: Optional[np.ndarray] = None) -> ProtocolResult:
    """Reflect, observe, report: the pipeline every entanglement protocol runs.

    One faint pulse per photon qubit of ``settings`` reflects off |down_ax down_px ...>,
    the atom (rotated by ``atom_pre_measure``) and the photons are read in every
    setting, and each reconstructed state is reported against its target and the
    (``u``, ``v``) phase family.  ``states`` holds one (target, fidelity key suffix,
    phase key suffix) per state.  Without ``herald`` the rows are one joint tomography;
    ``herald(settings, tables, rows)`` splits them instead into the tomography
    settings, one block of joint rows per state and its own derived keys.
    """
    n_photons = settings[0].n_qubits - 1
    drift = cfg.imperfections.drift_phase_per_reflection * n_photons
    imp, q2 = _model_for(cfg, cfg.pulses.bell_mean_photons)
    (tables,), (survival,) = _protocol_tables(
        cfg.cavity, imp, q2, [(X_MINUS, [X_MINUS] * n_photons, imp.prep_fidelity)], settings,
        atom_phase=drift, atom_pre_measure=atom_pre_measure)
    keep_prob = survival * cfg.preselection_pass
    rows, rng = _observe(cfg, settings, tables, keep_prob)
    fit_settings, fitted, derived = ((settings, [rows], {}) if herald is None
                                     else herald(settings, tables, rows))
    rhos, method, stds = _estimate(cfg, fit_settings, fitted, [t for t, _, _ in states], rng)
    csvs = []
    for (target, key, phase_key), rho, std in zip(states, rhos, stds or [None] * len(rhos)):
        phi_star, f_max = optimal_phase_fidelity(rho, u, v)
        derived.update({f"fidelity{key}": fidelity_pure(rho, target),
                        f"phi_star{phase_key}": phi_star, f"f_max{phase_key}": f_max,
                        f"density_matrix{key}": rho.to_json_dict()})
        if std is not None:
            derived[f"fidelity{key}_std"] = std
        csvs.append((f"{label}{key or '_density'}_abs", ["row", *map(str, range(rho.dim))],
                     [(range(rho.dim), ""), *((col, ".6f") for col in np.abs(rho.entries).T)]))
    if herald is None:
        derived["populations"] = np.real(np.diag(rhos[0].entries))
    derived["reconstruction"] = method
    row_key = "counts" if cfg.mode == "monte-carlo" else "probabilities"
    raw = {"settings": [s.name for s in settings], row_key: rows}
    header = ["setting", *(f"{row_key}_{i}" for i in range(rows.shape[1]))]
    csvs.append((f"{label}_settings", header, [(raw["settings"], ""), *((c, "") for c in rows.T)]))
    meta = _metadata(cfg, cfg.trials, {"survival": survival, "keep_prob": keep_prob})
    return ProtocolResult(label, raw, derived, meta, tuple(csvs))


def run_bell(cfg: RunConfig) -> ProtocolResult:
    """Atom-photon entanglement: reflect one faint pulse off |down_ax down_px>
    and tomograph the post-selected joint state."""
    return _entanglement(
        cfg, "bell", all_settings(2), [(bell_target(), "", "")],
        PureState(kron(UP, X_PLUS)), PureState(kron(DOWN, X_MINUS)))


def run_ghz(cfg: RunConfig) -> ProtocolResult:
    """Atom-photon-photon entanglement from two sequential reflections.

    ``phi_star`` is reported in the (|u> + e^{-i phi}|v>)/sqrt(2) convention
    shared by all protocols; the three-particle target itself sits at
    phi = pi, so the rotation relative to it is phi_star - pi.
    """
    return _entanglement(
        cfg, "ghz", all_settings(3), [(ghz_target(), "", "")],
        PureState(kron(UP, kron(X_PLUS, X_PLUS))),
        PureState(kron(DOWN, kron(X_MINUS, X_MINUS))))


# Atom rotation that maps the three-particle state onto
# |up_a>(Phi-) - |down_a>(Phi+) so the hyperfine outcome heralds the
# photon-photon Bell state with the conventional signs.
ERASER_ROTATION_PHASE = -math.pi / 2


def _split_heralds(settings: Sequence[MeasurementSetting], tables: np.ndarray,
                   rows: np.ndarray):
    """The eraser's rows split by the atom outcome: the photon settings, the
    F1 (Phi+) and F2 (Phi-) blocks of joint rows, which the estimator's row
    normalization conditions on each herald, and the herald probabilities."""
    # Axis 1 is the atom outcome: 0 is the upper hyperfine state F2, which
    # heralds Phi-; 1 is F1, which heralds Phi+.
    p_atom = tables.reshape(len(settings), 2, 4).sum(axis=2)
    if np.max(np.abs(p_atom[:, 1] - p_atom[0, 1])) > 1e-9:
        raise RuntimeError("atom outcome probability leaked a setting dependence")
    heralded = rows.reshape(len(settings), 2, 4)
    empty = np.argwhere(heralded.sum(axis=2) == 0)
    if empty.size:
        s, atom = empty[0]
        raise StarvationError(f"no {('f2', 'f1')[atom]}-conditioned events "
                              f"for setting {settings[s].name}")
    return (all_settings(2), [heralded[:, 1], heralded[:, 0]],
            {"p_atom_f1": float(p_atom[0, 1]), "p_atom_f2": float(p_atom[0, 0])})


def run_eraser(cfg: RunConfig) -> ProtocolResult:
    """Photon-photon entanglement heralded by a rotated atom measurement.

    The three-particle pipeline runs first; a pi/2 rotation then maps the
    atomic superposition onto the hyperfine basis and the detected state
    selects which photon-photon Bell state remains.
    """
    return _entanglement(
        cfg, "eraser", [MeasurementSetting(("Z",) + s.labels) for s in all_settings(2)],
        [(phi_plus_photons(), "_phi_plus", "_plus"),
         (phi_minus_photons(), "_phi_minus", "_minus")],
        PureState(kron(X_PLUS, X_PLUS)), PureState(kron(X_MINUS, X_MINUS)),
        herald=_split_heralds, atom_pre_measure=rotation(math.pi / 2, ERASER_ROTATION_PHASE))


def run_ramsey(cfg: RunConfig, detuning_grid_khz: Optional[Sequence[float]] = None,
               phase2: float = 0.0) -> ProtocolResult:
    """Two-pulse interference of the atomic qubit versus drive detuning.

    The ideal transfer is (1 + cos(delta T - phase2))/2, in closed form.
    Dephasing between the pulses (the atomic coherence factor) and wrongly
    prepared atoms (an even background) scale its cosine by f_prep times
    that factor, 2 f_rr - 1 unless clamped: peak f_rr, contrast 2 f_rr - 1.
    A sinusoid is fitted by linear least squares and reported as amplitude,
    offset and phase.
    """
    if detuning_grid_khz is None:
        detuning_grid_khz = np.linspace(-60.0, 60.0, 41)
    grid = np.asarray(detuning_grid_khz, dtype=float)
    for flag, values in (("phase2", [phase2]), ("grid-khz", grid)):
        if not np.isfinite(values).all():
            raise ConfigError(flag, "must be finite")
    if grid.size == 0 or np.abs(grid).max() > 1e12:
        raise ConfigError("grid-khz", "must hold at least one point, each within 1e12 kHz")
    imp = cfg.imperfections
    chain = imp.prep_fidelity * imp.atomic_coherence_factor
    phases = 2.0 * math.pi * grid * 1e-3 * RAMSEY_PULSE_SEPARATION_US
    transfer = 0.5 + 0.5 * chain * np.cos(phases - phase2)
    raw = {"detuning_khz": grid}
    if cfg.mode == "monte-carlo":
        raw["counts"] = _streams(cfg, 1)[0].binomial(cfg.trials, transfer)
        transfer = raw["counts"] / cfg.trials
    raw["transfer"] = transfer

    design = np.column_stack([np.cos(phases), np.sin(phases), np.ones_like(phases)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, transfer, rcond=None)
    a, b, offset = (float(c) for c in coeffs)
    amplitude = math.hypot(a, b)
    fitted_phase = math.atan2(-b, a)
    derived = {
        "peak_transfer": offset + amplitude,
        "contrast": 2.0 * amplitude,
        "fitted_phase": fitted_phase,
        "fit_offset": offset,
        "fit_amplitude": amplitude,
        "fit_converged": bool(rank == 3),
        "phase2": phase2,
    }
    csv = ("ramsey_curve", ["detuning_khz", "transfer"], [(grid, ".6f"), (transfer, ".8f")])
    return ProtocolResult("ramsey", raw, derived, _metadata(cfg, cfg.trials), (csv,))


def _poisson_histogram(rng: np.random.Generator, lam: float, n: int) -> np.ndarray:
    """Counts of ``n`` Poisson(``lam``) draws at each value 0, 1, ... up to the
    largest, exact in distribution at a cost set by the support, not by ``n``:
    value k takes a binomial share of the draws left at the hazard P(X = k | X >= k)
    (sequential conditional binomials; Devroye 1986, ch. XI).  A pass weighs 2 span
    values relative to its first (at most e^lam, finite up to DetectionModel's 700)
    and uses the first span hazards: as the Poisson hazard rises, the mass past the
    pass is below P(X >= span) < e^-88 of what is left at each, far below rounding."""
    counts = []
    while n:
        span = int(lam + 40.0 * math.sqrt(lam)) + 60
        w = np.cumprod(np.r_[1.0, lam / (len(counts) + np.arange(1, 2 * span))])
        tail = np.cumsum(w[::-1])[::-1]
        for h in np.divide(w, tail, out=np.ones_like(w), where=tail > 0)[:span]:
            counts.append(int(rng.binomial(n, h)))
            n -= counts[-1]
            if not n:
                break
    return np.array(counts)


def run_state_detection(cfg: RunConfig, trials: Optional[int] = None) -> ProtocolResult:
    """Photon-count histograms of the hyperfine readout and its threshold fidelity.

    This driver always samples (half the trials per prepared state); the
    closed-form balanced fidelity is reported alongside for reference.
    """
    trials = cfg.trials if trials is None else trials
    if trials < 2:
        raise ConfigError("trials", "state detection needs at least two trials")
    model = cfg.detection
    rng = _streams(cfg, 1)[0]
    n_each = trials // 2
    counts_f2, counts_f1 = (_poisson_histogram(rng, lam, n_each)
                            for lam in (model.mean_signal_photons, model.dark_rate))
    correct_f2 = float(counts_f2[model.threshold:].sum() / n_each)
    correct_f1 = float(counts_f1[:model.threshold].sum() / n_each)
    top = max(len(counts_f2), len(counts_f1))
    hist_f2, hist_f1 = (np.pad(c, (0, top - len(c))) / n_each for c in (counts_f2, counts_f1))
    derived = {
        "fidelity": 0.5 * (correct_f2 + correct_f1),
        "fidelity_closed_form": hyperfine_fidelity(model),
        "correct_f2": correct_f2,
        "correct_f1": correct_f1,
        "threshold": model.threshold,
    }
    raw = {"histogram_f2": hist_f2, "histogram_f1": hist_f1}
    csv = ("state_detection_hist", ["count", "p_f1", "p_f2"],
           [(range(top), ""), (hist_f1, ".8f"), (hist_f2, ".8f")])
    return ProtocolResult("state-detection", raw, derived, _metadata(cfg, trials), (csv,))


def loss_budget(cfg: RunConfig) -> ProtocolResult:
    """First-principles reflection losses next to the measured calibration.

    The uncoupled model value agrees with the measured number; the coupled
    steady-state value overshoots it, so a discrepancy flag is raised and the
    measured calibration stays authoritative for the gate channel.
    """
    model_c, model_u = loss_from_first_principles(cfg.cavity)
    measured_c = cfg.imperfections.loss_coupled
    measured_u = cfg.imperfections.loss_uncoupled
    derived = {
        "model_loss_coupled": model_c,
        "model_loss_uncoupled": model_u,
        "measured_loss_coupled": measured_c,
        "measured_loss_uncoupled": measured_u,
        "coupled_model_discrepancy": bool(abs(model_c - measured_c) > 0.04),
        "uncoupled_model_consistent": bool(abs(model_u - measured_u) <= 0.04),
    }
    return ProtocolResult("loss-budget", {}, derived, _metadata(cfg, 0))


def tomo_roundtrip(cfg: RunConfig, n_states: int = 50,
                   shots: int = 10_000) -> ProtocolResult:
    """Reconstruction round-trip over random two-qubit pure states.

    Draws every state, then its counts for all nine settings, from its own
    generator stream (one stacked check and draw), fits all tables in one
    certified maximum-likelihood batch (an uncertified fit raises ``FitError``)
    and summarizes the fidelities and the monotonicity of every likelihood trace.
    """
    for name, value in (("states", n_states), ("shots", shots)):
        if value < 1:
            raise ConfigError(name, "must be at least 1")
    if shots >= 2**53:     # float64 count stacks are exact below it, as for RunConfig's trials
        raise ConfigError("shots", "must be below 2**53")
    if n_states > 10_000:     # one generator stream per state, all spawned up front
        raise ConfigError("states", "must be at most 10000")
    settings, rngs = all_settings(2), _streams(cfg, n_states)
    states = [PureState(rng.normal(size=4) + 1j * rng.normal(size=4)) for rng in rngs]
    rhos = _checked(np.array([np.outer(s.amplitudes, s.amplitudes.conj()) for s in states]))
    tables = simulate_batch(rhos, settings, shots, rngs)
    reports = [r.certified(f"round-trip state {i} of {n_states}")
               for i, r in enumerate(mle_batch(settings, tables))]
    # Histories hold each accepted step's signed change; a drop within 1e-12 |l| is rounding.
    monotone = all(np.diff(r.ll_history).min(initial=0.0) >= -1e-12 * abs(r.log_likelihood)
                   for r in reports)
    fidelities = np.array([fidelity_pure(r.rho, s) for r, s in zip(reports, states)])
    derived = {
        "median_fidelity": float(np.median(fidelities)),
        "min_fidelity": float(fidelities.min()),
        "all_monotone": bool(monotone),
        "mean_iterations": float(np.mean([r.iterations for r in reports])),
        "n_states": n_states,
        "shots": shots,
    }
    raw = {"fidelities": fidelities}
    return ProtocolResult("tomo-roundtrip", raw, derived, _metadata(cfg, n_states * shots))
