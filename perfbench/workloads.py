"""Seeded workload generator for the apgate benchmark.

A workload is an endless sequence of *passes*.  Pass ``i`` of a workload is a
fixed-composition list of CLI jobs whose free values (operating points, RNG
seeds, shot counts, Ramsey grids) are drawn from ``random.Random`` seeded by
(workload, seed, i), so the same seed always gives the same inputs.  Each job
is a config document (or a bundled profile) plus the argv that runs it; the
program sees nothing else.

The structure of a pass (which switches are on, how many runs of each
subcommand) is the same for every seed, and only continuous values and RNG
seeds are drawn.  That keeps the work per pass comparable across seeds while
the inputs still change.

Only legal values are drawn.  Known crash paths are avoided on purpose:
``--states 0``, ``--trials 1``, an empty Ramsey grid and ``prep_fidelity 0``
all end in a traceback today.

Run as a script to write one seed's configs and argv lists to a directory::

    python3 perfbench/workloads.py --workload analytic-scan --seed 3 --out wl-out
"""
from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

# Seed of the bundled paper profile; the plain ``apgate ghz --mode
# monte-carlo`` run uses it, and its top-level fit stops at the iteration cap.
PAPER_DEFAULT_SEED = 20140401

# The table commands run at every analytic point; the three light commands,
# which read only a few fields of the config, at the two profiles and the
# first two drawn points.
TABLE_COMMANDS = ("truth-table", "bell", "eraser", "ghz")
LIGHT_COMMANDS = ("ramsey", "state-detection", "loss-budget")
LIGHT_POINTS = ("paper", "ideal", "draw0", "draw1")

# Structural switches of the drawn analytic operating points:
# (jitter on, multi-photon contamination on, prep error on, spectral correction on).
# Zero jitter integrates one quadrature node, nonzero jitter 21; the spectral
# correction widens the jitter, so it is only switched on next to jitter.
ANALYTIC_DESIGN = (
    (False, False, False, False),
    (False, True, True, False),
    (True, False, True, False),
    (True, True, False, False),
    (True, False, False, True),
    (True, True, True, True),
    (True, False, True, True),
    (True, True, False, True),
)

# ``bootstrap``: bell and eraser keep the default of 100 Monte-Carlo replicas
# and run at drawn seeds.  ghz runs at the profile's default seed only, with
# its replicas cut so that a pass takes about six seconds (2-core x86, Python
# 3.11, numpy 2.4): its top-level fit alone takes from under 1k iterations to
# the 5000 cap depending on the seed, which moved a 30 s run's throughput by
# +-10 % between workload seeds.
BOOTSTRAP_BELL_RUNS = 2
GHZ_MC_REPLICAS = 4

# ``roundtrip`` shot counts: one log-uniform draw per stratum of [1e3, 1e5].
ROUNDTRIP_STRATA = 7
ROUNDTRIP_STATES = 5


@dataclass
class Job:
    """One CLI run: ``apgate <argv> [--config <file>] --out <dir>``."""

    name: str
    command: str
    argv: List[str]
    config: Optional[dict] = None
    # Analytic run at the same operating point, for Monte-Carlo runs whose
    # fidelities are checked against it.
    analytic_argv: Optional[List[str]] = None

    def full_argv(self, config_path: Optional[Path], out_dir: Path) -> List[str]:
        argv = list(self.argv)
        if self.config is not None:
            argv += ["--config", str(config_path)]
        return argv + ["--out", str(out_dir)]


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2 ** 31)


def _ramsey_args(rng: random.Random) -> List[str]:
    start = rng.uniform(-80.0, -40.0)
    stop = rng.uniform(40.0, 80.0)
    return ["--phase2", repr(rng.uniform(0.0, 2.0 * math.pi)),
            "--grid-khz", repr(start), repr(stop), "41"]


def draw_operating_point(rng: random.Random, jitter: bool, multiphoton: bool,
                         prep_error: bool, spectral: bool) -> dict:
    """A legal config over the imperfection space with the given switches."""
    return {
        "seed": _seed(rng),
        "mode": "analytic",
        "cavity": {"g_mhz": rng.uniform(5.5, 7.5),
                   "kappa_mhz": rng.uniform(2.0, 3.0),
                   "gamma_mhz": rng.uniform(2.5, 3.5)},
        "mirrors": {"t_coupling_ppm": rng.uniform(80.0, 110.0),
                    "loss_other_ppm": rng.uniform(5.0, 12.0)},
        "imperfections": {
            "mode_overlap": rng.uniform(0.85, 0.97),
            "prep_fidelity": rng.uniform(0.90, 0.99) if prep_error else 1.0,
            "freq_jitter_khz": rng.uniform(150.0, 450.0) if jitter else 0.0,
            "freq_bias_khz": rng.uniform(-40.0, 40.0),
            "drift_phase_per_reflection": rng.uniform(0.0, 0.5),
            "photonic_meas_error": rng.uniform(0.005, 0.03),
            "loss_coupled": rng.uniform(0.25, 0.45),
            "loss_uncoupled": rng.uniform(0.20, 0.40),
            "rotation_readout_fidelity": rng.uniform(0.90, 0.98),
        },
        "detection": {"mean_signal_photons": rng.uniform(4.0, 7.0),
                      "dark_prob": rng.uniform(0.001, 0.006),
                      "threshold": 1},
        "pulses": {"bell_mean_photons": rng.uniform(0.03, 0.12),
                   "truth_table_mean_photons": rng.uniform(0.15, 0.45),
                   "fwhm_us": rng.uniform(0.5, 1.0),
                   "assume_single_photon": not multiphoton,
                   "spectral_correction": spectral},
    }


def _analytic_scan(rng: random.Random, tag: str) -> List[Job]:
    points = [("paper", None), ("ideal", None)]
    points += [(f"draw{k}", draw_operating_point(rng, *switches))
               for k, switches in enumerate(ANALYTIC_DESIGN)]
    rng.shuffle(points)
    jobs = []
    for point, config in points:
        ramsey = _ramsey_args(rng)
        commands = TABLE_COMMANDS + (LIGHT_COMMANDS if point in LIGHT_POINTS else ())
        for cmd in commands:
            argv = [cmd] if config is not None else [cmd, "--profile", point]
            if cmd == "ramsey":
                argv += ramsey
            jobs.append(Job(f"{tag}-{point}-{cmd}", cmd, argv, config))
    return jobs


def _mc_config(seed: int, replicas: Optional[int] = None) -> dict:
    config = {"seed": seed, "mode": "monte-carlo"}
    if replicas is not None:
        config["mc_replicas"] = replicas
    return config


def _paper_mc(name: str, cmd: str, seed: int, replicas: Optional[int] = None) -> Job:
    return Job(name, cmd, [cmd], _mc_config(seed, replicas),
               analytic_argv=[cmd, "--profile", "paper"])


def _bootstrap(rng: random.Random, tag: str) -> List[Job]:
    jobs = [Job(f"{tag}-tt", "truth-table", ["truth-table"], _mc_config(_seed(rng))),
            Job(f"{tag}-ramsey", "ramsey",
                ["ramsey", "--phase2", repr(rng.uniform(0.0, 2.0 * math.pi))],
                _mc_config(_seed(rng)))]
    jobs += [_paper_mc(f"{tag}-bell{k}", "bell", _seed(rng))
             for k in range(BOOTSTRAP_BELL_RUNS)]
    jobs.append(_paper_mc(f"{tag}-eraser", "eraser", _seed(rng)))
    jobs.append(_paper_mc(f"{tag}-ghz-default", "ghz", PAPER_DEFAULT_SEED, GHZ_MC_REPLICAS))
    rng.shuffle(jobs)
    return jobs


def _roundtrip(rng: random.Random, tag: str) -> List[Job]:
    jobs = []
    for k in range(ROUNDTRIP_STRATA):
        lo = 3.0 + 2.0 * k / ROUNDTRIP_STRATA
        hi = 3.0 + 2.0 * (k + 1) / ROUNDTRIP_STRATA
        shots = int(round(10.0 ** rng.uniform(lo, hi)))
        jobs.append(Job(f"{tag}-s{k}", "tomo-roundtrip",
                        ["tomo-roundtrip", "--states", str(ROUNDTRIP_STATES),
                         "--shots", str(shots)],
                        {"seed": _seed(rng)}))
    rng.shuffle(jobs)
    return jobs


_MAKE_PASS = {"analytic-scan": _analytic_scan, "bootstrap": _bootstrap,
              "roundtrip": _roundtrip}


def pass_jobs(workload: str, seed: int, index: int) -> List[Job]:
    """Jobs of pass ``index`` of ``workload`` under ``seed``."""
    if workload not in _MAKE_PASS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _MAKE_PASS[workload](rng, f"p{index}")


def write_pass(jobs: List[Job], config_dir: Path, out_root: Path) -> List[List[str]]:
    """Write each job's config file and return the argv lists that run them."""
    config_dir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for job in jobs:
        path = None
        if job.config is not None:
            path = config_dir / f"{job.name}.json"
            path.write_text(json.dumps(job.config, indent=1, sort_keys=True))
        argvs.append(job.full_argv(path, out_root / job.name))
    return argvs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(_MAKE_PASS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--out", required=True, help="directory for configs and argv.json")
    args = parser.parse_args(argv)
    out = Path(args.out)
    runs = []
    for i in range(args.passes):
        jobs = pass_jobs(args.workload, args.seed, i)
        runs += write_pass(jobs, out / "configs", out / "runs")
    (out / "argv.json").write_text(json.dumps(runs, indent=1))
    print(f"wrote {len(runs)} runs to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
