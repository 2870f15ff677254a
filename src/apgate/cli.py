"""Command-line entry point: run a protocol, write JSON results and CSV tables.

Exit codes: 0 success, 2 configuration error (a non-finite number included),
3 runtime, post-selection starvation, uncertified maximum-likelihood fit or
internal error (a NaN in a result included, which writes no result file).
Failures emit a machine-readable error JSON on stderr.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .config import PROFILES, ConfigError, RunConfig, load_config
from .protocols import (ProtocolResult, StarvationError, loss_budget, run_bell,
                        run_eraser, run_ghz, run_ramsey, run_state_detection,
                        run_truth_table, tomo_roundtrip)
from .tomography import FitError

ENV_OUTPUT_DIR = "APGATE_OUT"


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _truth_table_csv(result: ProtocolResult, out_dir: Path):
    derived = result.derived
    matrix = np.asarray(derived["matrix"])
    header = ["input"] + list(derived["output_labels"])
    rows = [[label] + [f"{matrix[i, j]:.6f}" for j in range(4)]
            for i, label in enumerate(derived["input_labels"])]
    _write_csv(out_dir / "truth_table.csv", header, rows)


def _tomography_csvs(**files):
    """Writer of the |rho| tables (file stem -> derived density-matrix key)
    and of the per-setting table of the raw rows."""
    def write(result: ProtocolResult, out_dir: Path):
        for stem, key in files.items():
            dm = result.derived[key]
            dim = dm["dim"]
            mat = np.abs(np.asarray(dm["re"]) + 1j * np.asarray(dm["im"]))
            rows = [[i] + [f"{mat[i, j]:.6f}" for j in range(dim)] for i in range(dim)]
            _write_csv(out_dir / f"{stem}.csv", ["row"] + [str(j) for j in range(dim)], rows)
        raw = result.raw_counts
        key = "counts" if "counts" in raw else "probabilities"
        rows = [[s] + [repr(float(x)) for x in np.asarray(row).ravel()]
                for s, row in zip(raw["settings"], raw[key])]
        header = ["setting"] + [f"{key}_{i}" for i in range(len(rows[0]) - 1)]
        _write_csv(out_dir / f"{result.label}_settings.csv", header, rows)
    return write


def _ramsey_csv(result: ProtocolResult, out_dir: Path):
    grid = np.asarray(result.raw_counts["detuning_khz"])
    transfer = np.asarray(result.raw_counts["transfer"])
    rows = [[f"{g:.6f}", f"{t:.8f}"] for g, t in zip(grid, transfer)]
    _write_csv(out_dir / "ramsey_curve.csv", ["detuning_khz", "transfer"], rows)


def _state_detection_csv(result: ProtocolResult, out_dir: Path):
    h2 = np.asarray(result.raw_counts["histogram_f2"])
    h1 = np.asarray(result.raw_counts["histogram_f1"])
    rows = [[k, f"{h1[k]:.8f}", f"{h2[k]:.8f}"] for k in range(len(h2))]
    _write_csv(out_dir / "state_detection_hist.csv", ["count", "p_f1", "p_f2"], rows)


def _run_ramsey(cfg: RunConfig, args) -> ProtocolResult:
    for flag, values in (("phase2", [args.phase2]), ("grid-khz", args.grid_khz or [])):
        if not all(map(math.isfinite, values)):
            raise ConfigError(flag, "must be finite")
    grid = None
    if args.grid_khz:
        start, stop, points = args.grid_khz
        if int(points) < 1:
            raise ConfigError("grid-khz", "POINTS must be at least 1")
        grid = np.linspace(start, stop, int(points))
    return run_ramsey(cfg, detuning_grid_khz=grid, phase2=args.phase2)


class Subcommand(NamedTuple):
    run: Callable[..., ProtocolResult]      # run(cfg, args)
    write_csv: Optional[Callable] = None    # write_csv(result, out_dir)
    options: tuple = ()                     # extra (flag, argparse kwargs)


SUBCOMMANDS = {
    "truth-table": Subcommand(lambda cfg, args: run_truth_table(cfg), _truth_table_csv),
    "bell": Subcommand(lambda cfg, args: run_bell(cfg),
                       _tomography_csvs(bell_density_abs="density_matrix")),
    "ghz": Subcommand(lambda cfg, args: run_ghz(cfg),
                      _tomography_csvs(ghz_density_abs="density_matrix")),
    "eraser": Subcommand(lambda cfg, args: run_eraser(cfg), _tomography_csvs(
        eraser_phi_plus_abs="density_matrix_phi_plus",
        eraser_phi_minus_abs="density_matrix_phi_minus")),
    "ramsey": Subcommand(_run_ramsey, _ramsey_csv, (
        ("--phase2", dict(type=float, default=0.0,
                          help="phase of the second pulse (radians)")),
        ("--grid-khz", dict(type=float, nargs=3, metavar=("START", "STOP", "POINTS"),
                            help="detuning grid: start stop points")))),
    "state-detection": Subcommand(lambda cfg, args: run_state_detection(cfg),
                                  _state_detection_csv),
    "tomo-roundtrip": Subcommand(
        lambda cfg, args: tomo_roundtrip(cfg, n_states=args.states, shots=args.shots),
        options=(("--states", dict(type=int, default=50)),
                 ("--shots", dict(type=int, default=10_000)))),
    "loss-budget": Subcommand(lambda cfg, args: loss_budget(cfg)),
}


class _Parser(argparse.ArgumentParser):
    """Parser whose errors are config errors (exit 2, error JSON), not a
    usage text; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError("argv", message)


@functools.lru_cache(maxsize=None)      # built once: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apgate",
        description="Simulate the cavity-mediated atom-photon gate protocols.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, subcommand in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--profile", choices=sorted(PROFILES),
                       help="bundled parameter profile (default: paper)")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--mode", choices=("analytic", "monte-carlo"),
                       help="override the run mode")
        p.add_argument("--out", help="output directory")
        for flag, kwargs in subcommand.options:
            p.add_argument(flag, **kwargs)
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else PROFILES[args.profile or "paper"]()
    overrides = {key: getattr(args, key) for key in ("seed", "trials", "mode")
                 if getattr(args, key) is not None}
    try:
        return dataclasses.replace(cfg, **overrides)
    except ValueError as exc:
        raise ConfigError("overrides", str(exc)) from exc


def _resolve_out_dir(args, cfg: RunConfig) -> Path:
    path = Path(args.out or os.environ.get(ENV_OUTPUT_DIR) or cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(result: ProtocolResult, out_dir: Path):
    (out_dir / f"{result.label}.json").write_text(result.to_json())
    write_csv = SUBCOMMANDS[result.label].write_csv
    if write_csv is not None:
        write_csv(result, out_dir)


def _dispatch(args, cfg: RunConfig) -> ProtocolResult:
    return SUBCOMMANDS[args.subcommand].run(cfg, args)


def _fail(kind: str, exc: Exception | str, code: int) -> int:
    print(json.dumps({"error": kind, "message": str(exc)}, sort_keys=True),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        out_dir = _resolve_out_dir(args, cfg)
        result = _dispatch(args, cfg)
        _emit(result, out_dir)
        summary = {k: v for k, v in result.derived.items()
                   if isinstance(v, (int, float, bool))}
        print(json.dumps({"protocol": result.label, "out": str(out_dir), **summary},
                         sort_keys=True, allow_nan=False, default=float))
    except ConfigError as exc:
        return _fail("config", exc, 2)
    except StarvationError as exc:
        return _fail("starvation", exc, 3)
    except FitError as exc:
        return _fail("fit", exc, 3)
    except OSError as exc:
        return _fail("io", exc, 3)
    except Exception as exc:    # last resort: an error JSON, not a traceback
        return _fail("internal", f"{type(exc).__name__}: {exc}", 3)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
