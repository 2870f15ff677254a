"""Golden outputs: every byte each CLI run writes, against a frozen manifest.

``golden/manifest.json`` holds, per run, the exit code, the warnings raised,
the sha256 of stdout (output directory replaced by ``<out>``) and stderr, and
the sha256 of every file written.  It was captured before the estimation
path, the subcommand table and the config schema were folded into one each,
recaptured when the outcome-table engine became one array contraction
(rounding-level changes), and recaptured when the maximum-likelihood fit
became one certified accelerated-gradient batch (the 15 Monte-Carlo
bell/eraser/ghz and tomo-roundtrip runs, each fidelity within 0.14
bootstrap std), and recaptured when the analytic eraser stopped dividing
by the herald probabilities and the Ramsey fringe became one closed form
(five analytic runs, each value within 2.3e-16); each recapture is
compared run by run in CHANGES.md.  Refactors must reproduce it byte for
byte.  The runs are every subcommand of
``apgate.cli.SUBCOMMANDS`` (a new one fails the coverage test until it is
captured) x {analytic, monte-carlo} x {paper, ideal}, one full-schema
config with a non-default value in every section (both modes), and a few
odd documents.

Regenerate only for an intended output change, and say so::

    PYTHONPATH=src python tests/test_golden.py --capture
"""
import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from apgate.cli import SUBCOMMANDS, main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
EXTRA_ARGS = {"ramsey": ["--grid-khz", "-60", "60", "7"],
              "tomo-roundtrip": ["--states", "2", "--shots", "1000"]}
ODD_DOCUMENTS = ("int-floats", "missing-seed", "unknown-key", "bad-type",
                 "bad-value", "bad-seed")


def golden_runs() -> dict:
    """Run name -> argv (without ``--out``)."""
    runs = {}
    for cmd in SUBCOMMANDS:
        extra = EXTRA_ARGS.get(cmd, [])
        for profile in ("paper", "ideal"):
            runs[f"{profile}/analytic/{cmd}"] = [
                cmd, "--profile", profile, "--trials", "20000", *extra]
            # mc_replicas has no flag, so Monte-Carlo runs read a config file.
            runs[f"{profile}/monte-carlo/{cmd}"] = [
                cmd, "--config", str(GOLDEN / f"{profile}.json"),
                "--mode", "monte-carlo", *extra]
        full = [cmd, "--config", str(GOLDEN / "full-schema.json"), *extra]
        runs[f"full-schema/analytic/{cmd}"] = full
        runs[f"full-schema/monte-carlo/{cmd}"] = full + [
            "--mode", "monte-carlo", "--seed", "6"]
    for doc in ODD_DOCUMENTS:
        runs[f"{doc}/bell"] = ["bell", "--config", str(GOLDEN / f"{doc}.json")]
    return runs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_once(argv, out_dir: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(list(argv) + ["--out", str(out_dir)])
    files = {}
    if out_dir.is_dir():
        files = {p.name: _sha(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    return {
        "exit": code,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "stdout": _sha(stdout.getvalue().replace(str(out_dir), "<out>").encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "files": files,
    }


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("name", sorted(golden_runs()))
def test_golden_run(name, tmp_path):
    manifest = _manifest()
    if manifest["numpy"] != np.__version__:
        pytest.skip(f"manifest captured with numpy {manifest['numpy']}")
    expected = manifest["runs"][name]
    got = run_once(golden_runs()[name], tmp_path / "out")
    differing = sorted(k for k in set(expected["files"]) | set(got["files"])
                       if expected["files"].get(k) != got["files"].get(k))
    assert not differing, f"{name}: files differ from the manifest: {differing}"
    for key in ("exit", "warnings", "stdout", "stderr"):
        assert got[key] == expected[key], f"{name}: {key} differs from the manifest"


def test_manifest_covers_every_run():
    assert sorted(_manifest()["runs"]) == sorted(golden_runs())


def capture(scratch: Path):
    runs = {name: run_once(argv, scratch / name.replace("/", "_"))
            for name, argv in sorted(golden_runs().items())}
    payload = {"numpy": np.__version__,
               "python": sys.version.split()[0], "runs": runs}
    MANIFEST.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {MANIFEST}")


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: python tests/test_golden.py --capture")
    with tempfile.TemporaryDirectory() as tmp:
        capture(Path(tmp))
