"""Output checks of one CLI run.

``check_run`` reads what a run wrote and returns a list of problems (empty
when the output is correct).  The cross-run checks (Monte-Carlo against
analytic, same-seed reruns) live in ``run.py`` because they need several
runs.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator, List

import numpy as np

DM_TOL = 1e-8
UNIT_TOL = 1e-9

# Derived keys (and raw keys) whose every number is a fidelity or a probability.
_UNIT_DERIVED = ("fidelity", "fidelity_closed_form", "f_max", "populations",
                 "fidelity_phi_plus", "fidelity_phi_minus", "f_max_plus",
                 "f_max_minus", "p_atom_f1", "p_atom_f2", "matrix",
                 "correct_output_probability", "control_down_identity",
                 "control_up_flip", "correct_f1", "correct_f2",
                 "model_loss_coupled", "model_loss_uncoupled",
                 "measured_loss_coupled", "measured_loss_uncoupled",
                 "median_fidelity", "min_fidelity")
_UNIT_RAW = ("probabilities", "transfer", "histogram_f1", "histogram_f2",
             "fidelities")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def load_json(path: Path):
    """Strict JSON: NaN and Infinity literals are errors."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _numbers(obj) -> Iterator:
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    else:
        yield obj


def _density_matrices(obj, path="derived") -> Iterator:
    if isinstance(obj, dict):
        if {"dim", "re", "im"} <= set(obj):
            yield path, obj
            return
        for k, v in obj.items():
            yield from _density_matrices(v, f"{path}.{k}")


def _check_density(path: str, dm: dict) -> List[str]:
    m = np.asarray(dm["re"], dtype=float) + 1j * np.asarray(dm["im"], dtype=float)
    if m.shape != (dm["dim"], dm["dim"]):
        return [f"{path}: shape {m.shape} does not match dim {dm['dim']}"]
    problems = []
    if np.max(np.abs(m - m.conj().T)) > DM_TOL:
        problems.append(f"{path}: not Hermitian")
    if abs(np.trace(m).real - 1.0) > DM_TOL:
        problems.append(f"{path}: trace {np.trace(m).real!r}")
    low = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    if low < -DM_TOL:
        problems.append(f"{path}: eigenvalue {low!r}")
    return problems


def _check_unit(path: str, value) -> List[str]:
    for x in _numbers(value):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            return [f"{path}: non-numeric entry {x!r}"]
        if not -UNIT_TOL <= x <= 1.0 + UNIT_TOL:
            return [f"{path}: {x!r} outside [0, 1]"]
    return []


def check_run(command: str, stdout: str, out_dir: Path) -> List[str]:
    """Problems with the summary line and result JSON of a run that exited 0."""
    try:
        summary = json.loads(stdout.strip().splitlines()[-1],
                             parse_constant=_reject_constant)
    except (ValueError, IndexError) as exc:
        return [f"summary line is not JSON: {exc}"]
    if summary.get("protocol") != command:
        return [f"summary names protocol {summary.get('protocol')!r}"]
    try:
        result = load_json(out_dir / f"{command}.json")
    except (OSError, ValueError) as exc:
        return [f"result JSON unreadable: {exc}"]
    derived = result.get("derived")
    if not isinstance(derived, dict) or not derived:
        return ["result has no derived figures"]
    problems = []
    for x in _numbers(derived):
        if x is None or (isinstance(x, float) and not math.isfinite(x)):
            problems.append("null or non-finite number in derived")
            break
    for path, dm in _density_matrices(derived):
        problems += _check_density(path, dm)
    for key in _UNIT_DERIVED:
        if key in derived:
            problems += _check_unit(f"derived.{key}", derived[key])
    raw = result.get("raw_counts", {})
    for key in _UNIT_RAW:
        if key in raw:
            problems += _check_unit(f"raw_counts.{key}", raw[key])
    if command == "tomo-roundtrip" and derived.get("all_monotone") is not True:
        problems.append("likelihood trace not monotone")
    return problems


def output_bytes(out_dir: Path) -> dict:
    """File name -> contents of everything a run wrote."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}
