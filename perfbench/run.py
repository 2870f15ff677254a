#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the apgate command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytic-scan --seed 1 --seconds 30 --trace 0

Every run goes in-process through ``apgate.cli.main(argv)`` in a closed loop
with one client: the next run starts when the previous one has returned.
Inputs are the config files and argv that ``workloads.py`` draws from
``--seed``.  The package is imported from ``src/`` next to this directory and
nowhere else, so the benchmark fails when the sources are absent.

``--trace 0`` times whole passes of the workload until at least ``--seconds``
seconds of runs are timed and reports the end-to-end metrics.  Between runs
it times a fixed reference loop (``calibrate.py``) and scales every time it
reports to the loop's nominal speed, so that the host's own drift in speed
cancels; the unscaled times are in the report line under ``detail.raw``.
``--trace 1`` replays a fixed number of passes twice, once plain and once
with every layer entry point wrapped (``tracing.py``), and reports per-layer
counts and times; the counts are exact and repeat for the same seed.

Every run's output is checked (``checks.py``), Monte-Carlo fidelities are
compared with the analytic value at the same point, and sampled runs are
rerun with the same seed and must write byte-identical files.  The line
before the last holds the full report with provenance; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Pinned to one thread unless the caller chose otherwise: the matrices are at
# most 8x8 and the loop runs one client.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 11
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import apgate; "
              "apgate.load_config(sys.argv[2])")

# Passes replayed by the traced run; fixed, so its counts repeat exactly.
TRACE_PASSES = {"analytic-scan": 2, "bootstrap": 1, "roundtrip": 2}

# A Monte-Carlo fidelity must lie within this many pooled bootstrap standard
# deviations of the analytic value at the same operating point.
AGREEMENT_SIGMAS = 5.0
MC_FIDELITY_KEYS = {
    "bell": ("fidelity",),
    "ghz": ("fidelity",),
    "eraser": ("fidelity_phi_plus", "fidelity_phi_minus"),
}

TAIL_BEYOND = 10
PER_COMMAND_MS = ("bell", "eraser", "ghz")

# Timed runs take a reference sample (calibrate.py) whenever this many seconds
# of runs have passed since the last one.
CALIBRATE_EVERY_S = 0.5


@dataclass
class RunRecord:
    job: object
    out_dir: Path
    rc: Optional[int]
    stdout: str
    stderr: str
    seconds: float
    # ``seconds`` scaled to the nominal host speed of ``calibrate.py``.
    scaled: float = 0.0


def run_job(cli_main, job, argv: List[str], out_dir: Path, tracer=None,
            run_id: int = 0) -> RunRecord:
    """One CLI run, timed around ``main(argv)`` only."""
    out_buf, err_buf = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli_main(argv)
            else:
                rc = tracer.run(run_id, cli_main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed run, not a benchmark failure
            rc = None
            err_buf.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return RunRecord(job, out_dir, rc, out_buf.getvalue(), err_buf.getvalue(), seconds)


def median_setup_seconds(config: dict, work: Path, calibrate) -> tuple:
    """Median wall time of a fresh interpreter importing apgate and loading a
    config, raw and scaled like the runs (by the samples before and after)."""
    path = work / "setup.json"
    path.write_text(json.dumps(config))
    times, refs = [], [calibrate.reference_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(path)],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        refs.append(calibrate.reference_seconds())
    scaled = [2.0 * calibrate.NOMINAL_S * t / (before + after)
              for t, before, after in zip(times, refs, refs[1:])]
    return statistics.median(times), statistics.median(scaled)


def git_revision() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load_threads": 1,
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "workload_seed": seed,
    }


class Bench:
    def __init__(self, args, work: Path):
        import apgate.cli
        import apgate.protocols
        import apgate.tomography
        import calibrate
        import checks
        import workloads
        self.args = args
        self.work = work
        self.cli_main = apgate.cli.main
        self.modules = {"apgate.cli": apgate.cli, "apgate.protocols": apgate.protocols,
                        "apgate.tomography": apgate.tomography}
        self.checks = checks
        self.calibrate = calibrate
        self.workloads = workloads
        self.problems = {}      # job name -> list of problems
        self.failed = set()     # job names that exited nonzero or raised
        self.run_times = []     # (job name, seconds) of every timed run

    def jobs(self, index: int):
        return self.workloads.pass_jobs(self.args.workload, self.args.seed, index)

    def materialize(self, jobs, out_root: Path):
        return self.workloads.write_pass(jobs, self.work / "configs", out_root)

    def warm_up(self):
        for _ in range(3):
            self.calibrate.reference_seconds()
        config = self.work / "warmup.json"
        config.write_text(json.dumps({"seed": 1, "mode": "monte-carlo", "mc_replicas": 2}))
        argvs = [["truth-table"], ["bell"], ["eraser", "--profile", "ideal"],
                 ["ghz", "--profile", "ideal"], ["ramsey"], ["state-detection"],
                 ["loss-budget"], ["tomo-roundtrip", "--states", "1", "--shots", "1000"],
                 ["bell", "--config", str(config)], ["ghz", "--config", str(config)]]
        for k, argv in enumerate(argvs):
            run_job(self.cli_main, None, argv + ["--out", str(self.work / "warmup" / str(k))],
                    self.work / "warmup")

    # -- checks -------------------------------------------------------------

    def note(self, record: RunRecord, problems: List[str]):
        if problems:
            self.problems.setdefault(record.job.name, []).extend(problems)

    def check_records(self, records: List[RunRecord]):
        for r in records:
            if r.rc != 0:
                self.failed.add(r.job.name)
                self.note(r, [f"exit code {r.rc!r}: {r.stderr.strip()[-300:]}"])
            else:
                self.note(r, self.checks.check_run(r.job.command, r.stdout, r.out_dir))

    def check_agreement(self, records: List[RunRecord]):
        """Monte-Carlo fidelities against the analytic value at the same point."""
        analytic = {}
        for argv in {tuple(r.job.analytic_argv) for r in records if r.job.analytic_argv}:
            out = self.work / "reference" / "-".join(argv)
            ref = run_job(self.cli_main, None, list(argv) + ["--out", str(out)], out)
            if ref.rc == 0:
                analytic[argv] = self.checks.load_json(out / f"{argv[0]}.json")["derived"]
        derived = {}
        for r in records:
            if not r.job.analytic_argv or r.job.name in self.problems:
                continue    # failures and unreadable output are already reported
            if tuple(r.job.analytic_argv) not in analytic:
                self.note(r, ["analytic reference run failed"])
                continue
            derived[id(r)] = self.checks.load_json(r.out_dir / f"{r.job.command}.json")["derived"]
        for command, keys in MC_FIDELITY_KEYS.items():
            runs = [r for r in records if r.job.command == command and id(r) in derived]
            for key in keys:
                stds = [derived[id(r)][f"{key}_std"] for r in runs]
                if not stds:
                    continue
                pooled = statistics.fmean(s * s for s in stds) ** 0.5
                for r in runs:
                    value = derived[id(r)][key]
                    expected = analytic[tuple(r.job.analytic_argv)][key]
                    if abs(value - expected) > AGREEMENT_SIGMAS * pooled:
                        self.note(r, [f"{key} {value:.6f} vs analytic {expected:.6f}: "
                                      f"more than {AGREEMENT_SIGMAS} x {pooled:.2e}"])

    def check_same_bytes(self, first: RunRecord, second: RunRecord):
        a = self.checks.output_bytes(first.out_dir)
        b = self.checks.output_bytes(second.out_dir)
        if a != b:
            differing = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            self.note(first, [f"same-seed rerun differs in {differing}"])

    def check_reruns(self, records: List[RunRecord]):
        """Rerun the quickest good run of each subcommand; outputs must match."""
        quickest = {}
        for r in records:
            if r.job.name in self.failed or r.job.name in self.problems:
                continue
            best = quickest.get(r.job.command)
            if best is None or r.seconds < best.seconds:
                quickest[r.job.command] = r
        for command, r in sorted(quickest.items()):
            argv = self.materialize([r.job], self.work / "rerun")[0]
            self.check_same_bytes(r, run_job(self.cli_main, r.job, argv, Path(argv[-1])))

    # -- measurement --------------------------------------------------------

    def measure(self):
        """Whole passes until at least ``--seconds`` of runs have been timed.

        Reference samples (``calibrate.py``) split the runs into windows of at
        least ``CALIBRATE_EVERY_S`` seconds; each run's time is also scaled by
        ``NOMINAL_S`` over the mean of the two samples around its window.
        """
        records, refs = [], [self.calibrate.reference_seconds()]
        window = []

        def close_window():
            refs.append(self.calibrate.reference_seconds())
            scale = 2.0 * self.calibrate.NOMINAL_S / (refs[-2] + refs[-1])
            for r in window:
                r.scaled = r.seconds * scale
            window.clear()

        index, timed = 0, 0.0
        while timed < self.args.seconds:
            jobs = self.jobs(index)
            argvs = self.materialize(jobs, self.work / "out")
            for job, argv in zip(jobs, argvs):
                window.append(run_job(self.cli_main, job, argv, Path(argv[-1])))
                records.append(window[-1])
                timed += window[-1].seconds
                if sum(r.seconds for r in window) >= CALIBRATE_EVERY_S:
                    close_window()
            index += 1
        if window:
            close_window()
        return records, refs, index

    def end_to_end(self, setup_raw_s: float, setup_s: float):
        records, refs, passes = self.measure()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Every pass runs the same slots (job name without its pass prefix);
        # summing each slot's median over passes gives a pass time that one
        # slow pass cannot move.
        slots = {}
        for r in records:
            slots.setdefault(r.job.name.split("-", 1)[1], []).append(r)
        pass_s = sum(statistics.median(r.scaled for r in rs) for rs in slots.values())
        raw_pass_s = sum(statistics.median(r.seconds for r in rs) for rs in slots.values())
        times = sorted(r.scaled for r in records)
        n = len(times)
        beyond = min(TAIL_BEYOND, n - 1)
        metrics = {
            "setup_s": setup_s,
            "runs_per_s": len(slots) / pass_s,
            "run_p50_ms": 1e3 * statistics.median(times),
            "run_tail_ms": 1e3 * times[n - 1 - beyond],
            "peak_rss_mb": peak_rss_mb,
        }
        detail = {
            "runs": n,
            "passes": passes,
            "wall_s": sum(r.seconds for r in records),
            "run_tail_percentile": 100.0 * (n - beyond) / n,
            "run_tail_runs_beyond": beyond,
            "reference_samples": len(refs),
            "reference_median_s": statistics.median(refs),
            "reference_nominal_s": self.calibrate.NOMINAL_S,
            "raw": {"setup_s": setup_raw_s,
                    "runs_per_s": len(slots) / raw_pass_s,
                    "run_p50_ms": 1e3 * statistics.median(r.seconds for r in records)},
        }
        for command in sorted({r.job.command for r in records}):
            samples = [r for r in records if r.job.command == command]
            if command in PER_COMMAND_MS:
                metrics[f"{command}_ms"] = 1e3 * statistics.median(r.scaled for r in samples)
                detail["raw"][f"{command}_ms"] = 1e3 * statistics.median(
                    r.seconds for r in samples)
            detail[f"{command}_runs"] = len(samples)
        self.run_times = [(r.job.name, r.seconds, r.scaled) for r in records]
        self.check_records(records)
        self.check_agreement(records)
        self.check_reruns(records)
        return records, metrics, detail

    def traced(self):
        import tracing
        tracer = tracing.Tracer()
        records, plain_s, traced_s = [], 0.0, 0.0
        run_id = 0
        for index in range(TRACE_PASSES[self.args.workload]):
            jobs = self.jobs(index)
            plain_argvs = self.materialize(jobs, self.work / "out")
            traced_argvs = self.materialize(jobs, self.work / "traced")
            for k, job in enumerate(jobs):
                pair = {}
                # Alternate which side goes first so drift hits both alike.
                for side in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
                    if side == "plain":
                        argv = plain_argvs[k]
                        pair[side] = run_job(self.cli_main, job, argv, Path(argv[-1]))
                    else:
                        argv = traced_argvs[k]
                        saved = tracing.install(tracer, self.modules)
                        try:
                            pair[side] = run_job(self.cli_main, job, argv, Path(argv[-1]),
                                                 tracer, run_id)
                        finally:
                            tracing.uninstall(saved)
                        run_id += 1
                plain_s += pair["plain"].seconds
                traced_s += pair["traced"].seconds
                records.append(pair["traced"])
                self.check_records([pair["plain"]])
                if pair["plain"].rc == 0 and pair["traced"].rc == 0:
                    self.check_same_bytes(pair["plain"], pair["traced"])
        self.check_records(records)
        self.check_agreement(records)
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
        detail = {"self_s": tracing.self_time_by_layer(tracer.spans),
                  "plain_wall_s": plain_s}
        (self.work / "spans.json").write_text(json.dumps(tracer.to_json()))
        return records, metrics, detail


def result_metrics(spec: list, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="apgate end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "apgate" / "__init__.py").is_file():
        print(f"perfbench: no apgate sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    # numpy (through checks, workloads' callers and apgate) is imported only
    # after the thread settings are in place.
    sys.path.insert(0, str(SRC))
    import apgate
    if Path(apgate.__file__).resolve().parent != (SRC / "apgate").resolve():
        print(f"perfbench: apgate imported from {apgate.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args, work)
    if args.trace:
        bench.warm_up()
        records, values, detail = bench.traced()
        listed = spec["per_layer"]
    else:
        first_config = next(j.config for j in bench.jobs(0) if j.config is not None)
        bench.warm_up()
        setup = median_setup_seconds(first_config, work, bench.calibrate)
        records, values, detail = bench.end_to_end(*setup)
        listed = spec["end_to_end"]

    attempted = len(records)
    failed = len(bench.failed)
    wrong = len(set(bench.problems) - bench.failed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "values": values,
        "detail": detail,
        "attempted": attempted,
        "failed_frac": failed / attempted,
        "wrong_frac": wrong / attempted,
        "problems": dict(list(bench.problems.items())[:20]),
    }
    (work / "report.json").write_text(json.dumps(
        {**report, "run_seconds": bench.run_times}, indent=1, sort_keys=True))
    for sub in ("out", "traced", "rerun", "reference", "warmup", "configs"):
        shutil.rmtree(work / sub, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not bench.problems, "attempted": attempted,
                      "failed": len(bench.problems),
                      "metrics": result_metrics(listed, values)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
