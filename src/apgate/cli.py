"""Command-line entry point: run a protocol, write JSON results and CSV tables.

Exit codes: 0 success, 2 configuration error (a non-finite number included),
3 runtime, post-selection starvation, uncertified fit, memory or internal
error (a NaN in a result included, which writes no result file).
Failures emit a machine-readable error JSON on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .config import MODES, PROFILES, ConfigError, RunConfig, load_config
from .protocols import (ProtocolResult, StarvationError, loss_budget, run_bell,
                        run_eraser, run_ghz, run_ramsey, run_state_detection,
                        run_truth_table, tomo_roundtrip)
from .tomography import FitError

ENV_OUTPUT_DIR = "APGATE_OUT"

# (exception type, error kind, exit code), first match wins; else "internal", 3.
FAILURES = ((ConfigError, "config", 2), (StarvationError, "starvation", 3),
            (FitError, "fit", 3), (OSError, "io", 3), (MemoryError, "memory", 3))


def _run_ramsey(cfg: RunConfig, args) -> ProtocolResult:
    grid = None
    if args.grid_khz:
        start, stop, points = args.grid_khz
        if not (points.is_integer() and 1 <= points < 2**53):
            raise ConfigError("grid-khz", "POINTS must be an integer in [1, 2**53)")
        with np.errstate(over="ignore", invalid="ignore"):  # run_ramsey rejects inf, nan
            grid = np.linspace(start, stop, int(points))
    return run_ramsey(cfg, detuning_grid_khz=grid, phase2=args.phase2)


class Subcommand(NamedTuple):
    run: Callable[..., ProtocolResult]      # run(cfg, args)
    options: tuple = ()                     # extra (flag, argparse kwargs)


SUBCOMMANDS = {
    "truth-table": Subcommand(lambda cfg, args: run_truth_table(cfg)),
    "bell": Subcommand(lambda cfg, args: run_bell(cfg)),
    "ghz": Subcommand(lambda cfg, args: run_ghz(cfg)),
    "eraser": Subcommand(lambda cfg, args: run_eraser(cfg)),
    "ramsey": Subcommand(_run_ramsey, (
        ("--phase2", dict(type=float, default=0.0,
                          help="phase of the second pulse (radians)")),
        ("--grid-khz", dict(type=float, nargs=3, metavar=("START", "STOP", "POINTS"),
                            help="detuning grid: start stop points")))),
    "state-detection": Subcommand(lambda cfg, args: run_state_detection(cfg)),
    "tomo-roundtrip": Subcommand(
        lambda cfg, args: tomo_roundtrip(cfg, n_states=args.states, shots=args.shots),
        options=(("--states", dict(type=int, default=50)),
                 ("--shots", dict(type=int, default=10_000)))),
    "loss-budget": Subcommand(lambda cfg, args: loss_budget(cfg)),
}


class _Parser(argparse.ArgumentParser):
    """Parser whose errors are config errors (exit 2, error JSON), not a
    usage text, and that reads -6e1 as a number; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

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
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="JSON config file")
        source.add_argument("--profile", choices=sorted(PROFILES),
                            help="bundled parameter profile (default: paper)")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--mode", choices=MODES, help="override the run mode")
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
    for stem, header, columns in result.tables:
        cells = [[format(x, spec) for x in np.asarray(col).tolist()]
                 for col, spec in columns]
        # csv's default dialect: CRLF line ends; no label needs quoting.
        text = "".join(",".join(row) + "\r\n" for row in [header, *zip(*cells)])
        (out_dir / f"{stem}.csv").write_text(text, newline="")


def _dispatch(args, cfg: RunConfig) -> ProtocolResult:
    return SUBCOMMANDS[args.subcommand].run(cfg, args)


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
    except Exception as exc:    # every failure: an error JSON, not a traceback
        kind, code = next(((kind, code) for cls, kind, code in FAILURES
                           if isinstance(exc, cls)), ("internal", 3))
        message = f"{type(exc).__name__}: {exc}" if kind == "internal" else str(exc)
        print(json.dumps({"error": kind, "message": message}, sort_keys=True),
              file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
