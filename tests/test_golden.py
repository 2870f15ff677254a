"""Golden outputs: every byte each CLI run writes, against a frozen manifest.

``golden/manifest.json`` holds, per run, the exit code, the warnings raised,
the sha256 of stdout (output directory replaced by ``<out>``) and stderr, and
the sha256 of every file written, beside the numpy version and the OpenBLAS
kernel it was captured under; a run that differs names that kernel and this
host's, as float bits depend on it.  Each recapture, the intended output
change behind it and its run-by-run comparison are recorded in CHANGES.md.
Refactors must reproduce it byte for byte.  The runs are every subcommand
of ``apgate.cli.SUBCOMMANDS`` (a new one fails the coverage test until it
is captured) x {analytic, monte-carlo} x {paper, ideal}, one full-schema
config with a non-default value in every section (both modes), and a few
odd documents.

Regenerate only for an intended output change, and say so::

    PYTHONPATH=src python tests/test_golden.py --capture

To compare a recapture run by run, dump every run's files with each
checkout's sources (the manifest is left alone) and compare the dumps; a
fidelity move is stated in units of its ``*_std`` and, for a Monte-Carlo
fit, of the old fit's Fisher-information std (``fisher_stds``)::

    PYTHONPATH=<old checkout>/src python tests/test_golden.py --dump OLD
    PYTHONPATH=src python tests/test_golden.py --dump NEW
    PYTHONPATH=src python tests/test_golden.py --compare OLD NEW
"""
import contextlib
import ctypes
import dataclasses
import functools
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


def run_streams(argv, out_dir: Path) -> dict:
    """Exit code, warnings, stdout (output directory replaced by ``<out>``)
    and stderr of one run; its files stay in ``out_dir``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(list(argv) + ["--out", str(out_dir)])
    return {
        "exit": code,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "stdout": stdout.getvalue().replace(str(out_dir), "<out>"),
        "stderr": stderr.getvalue(),
    }


def run_once(argv, out_dir: Path) -> dict:
    record = run_streams(argv, out_dir)
    files = {}
    if out_dir.is_dir():
        files = {p.name: _sha(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    return {**record, "stdout": _sha(record["stdout"].encode()),
            "stderr": _sha(record["stderr"].encode()), "files": files}


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


@functools.lru_cache(maxsize=None)
def openblas_kernel():
    """The kernel numpy's bundled OpenBLAS picked for this CPU, read through
    ``scipy_openblas_get_corename64_``; None where that cannot be read.  Float
    bits of the golden runs depend on it."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


@pytest.mark.parametrize("name", sorted(golden_runs()))
def test_golden_run(name, tmp_path):
    manifest = _manifest()
    if manifest["numpy"] != np.__version__:
        pytest.skip(f"manifest captured with numpy {manifest['numpy']}")
    expected = manifest["runs"][name]
    got = run_once(golden_runs()[name], tmp_path / "out")
    kernels = (f"OpenBLAS kernel {manifest.get('openblas_kernel')} in the manifest, "
               f"{openblas_kernel()} on this host")
    differing = sorted(k for k in set(expected["files"]) | set(got["files"])
                       if expected["files"].get(k) != got["files"].get(k))
    assert not differing, f"{name}: files differ from the manifest: {differing} ({kernels})"
    for key in ("exit", "warnings", "stdout", "stderr"):
        assert got[key] == expected[key], f"{name}: {key} differs from the manifest ({kernels})"


def test_manifest_covers_every_run():
    assert sorted(_manifest()["runs"]) == sorted(golden_runs())


@pytest.mark.parametrize("runner", ["bell", "ghz", "eraser"])
def test_fisher_stds_read_each_fit_from_the_result(runner, monkeypatch):
    # fisher_stds rebuilds every fit's table (the eraser's herald blocks) and
    # state from the result JSON alone; they must be the ones the run fitted.
    from oracle import fisher_std
    from apgate import protocols
    from apgate.config import paper_profile
    merged, calls = protocols.fit_with_errors, []

    def spy(settings, counts, *rest):
        calls.append((settings, counts, merged(settings, counts, *rest)))
        return calls[-1][2]

    monkeypatch.setattr(protocols, "fit_with_errors", spy)
    cfg = dataclasses.replace(paper_profile(), mode="monte-carlo", mc_replicas=3)
    result = getattr(protocols, f"run_{runner}")(cfg)
    (settings, counts, fits), = calls
    targets = {"bell": [protocols.bell_target()], "ghz": [protocols.ghz_target()],
               "eraser": [protocols.phi_plus_photons(), protocols.phi_minus_photons()]}
    expected = [fisher_std(settings, c, rho.entries, t.amplitudes)
                for c, (rho, _), t in zip(counts, fits, targets[runner], strict=True)]
    got = fisher_stds(json.loads(result.to_json()))
    assert list(got.values()) == pytest.approx(expected, rel=1e-12)
    assert sorted(got) == sorted(k[:-4] for k in result.derived if k.endswith("_std"))


def test_compare_states_fidelity_shifts_in_fisher_std(tmp_path, monkeypatch, capsys):
    name = "paper/monte-carlo/bell"
    monkeypatch.setattr(sys.modules[__name__], "golden_runs",
                        lambda: {name: ["bell", "--config", str(GOLDEN / "paper.json"),
                                        "--mode", "monte-carlo"]})
    for side in ("old", "new"):
        dump(tmp_path / side)
    moved = tmp_path / "new" / name / "bell.json"
    result = json.loads(moved.read_text())
    result["derived"]["fidelity"] += 1e-3
    moved.write_text(json.dumps(result))
    capsys.readouterr()
    compare(tmp_path / "old", tmp_path / "new")
    line = capsys.readouterr().out
    std = fisher_stds(json.loads((tmp_path / "old" / name / "bell.json").read_text()))["fidelity"]
    assert line.startswith(f"{name}: bell.json;")
    assert f"= {1e-3 / std:+.3f} fisher std" in line, line


def capture(scratch: Path):
    runs = {name: run_once(argv, scratch / name.replace("/", "_"))
            for name, argv in sorted(golden_runs().items())}
    payload = {"numpy": np.__version__, "openblas_kernel": openblas_kernel(),
               "python": sys.version.split()[0], "runs": runs}
    MANIFEST.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs)} runs to {MANIFEST}")


def dump(root: Path):
    """Every run's files in ``root/<run>/``, its streams in ``root/<run>.streams.json``."""
    runs = golden_runs()
    for name, argv in sorted(runs.items()):
        record = run_streams(argv, root / name)
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / f"{name}.streams.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"dumped {len(runs)} runs to {root}")


def _leaves(tree, path=""):
    """Dotted path -> number, for every numeric leaf of a JSON tree."""
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        return {k: v for key, sub in items for k, v in _leaves(sub, f"{path}{key}.").items()}
    if isinstance(tree, (int, float)) and not isinstance(tree, bool):
        return {path.rstrip("."): tree}
    return {}


def _run_bytes(root: Path, name: str) -> dict:
    run_dir = root / name
    files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())} if run_dir.is_dir() else {}
    return {**files, "<streams>": (root / f"{name}.streams.json").read_bytes()}


def fisher_stds(result: dict) -> dict:
    """``fidelity*`` key -> ``oracle.fisher_std`` of a Monte-Carlo bell, ghz or
    eraser result, from its raw counts and fitted density matrix: the golden
    configs' ``*_std`` rest on 3 bootstrap replicas, far too few to judge a
    shift by.  The eraser's fits are its herald blocks of joint rows."""
    from oracle import fisher_std
    from apgate.protocols import (bell_target, ghz_target, phi_minus_photons,
                                  phi_plus_photons)
    from apgate.qlin import DensityMatrix
    from apgate.tomography import MeasurementSetting, all_settings
    label, raw = result.get("label"), result.get("raw_counts", {})
    if label not in ("bell", "ghz", "eraser") or "counts" not in raw:
        return {}
    counts = np.array(raw["counts"], dtype=float)
    if label == "eraser":      # atom outcome F2 heralds Phi-, F1 Phi+
        blocks = counts.reshape(len(counts), 2, -1)
        fits = {"_phi_plus": (blocks[:, 1], phi_plus_photons()),
                "_phi_minus": (blocks[:, 0], phi_minus_photons())}
        settings = all_settings(2)
    else:
        fits = {"": (counts, bell_target() if label == "bell" else ghz_target())}
        settings = [MeasurementSetting(tuple(name)) for name in raw["settings"]]
    return {f"fidelity{key}": fisher_std(
                settings, table, DensityMatrix.from_json_dict(
                    result["derived"][f"density_matrix{key}"]).entries, target.amplitudes)
            for key, (table, target) in fits.items()}


def compare(old: Path, new: Path):
    """One line per run whose bytes differ between two dumps: the files that
    differ, how many numeric leaves of the result JSON moved and the largest
    move, and each ``fidelity*`` shift in units of the old ``*_std`` and, for
    Monte-Carlo fits, of the old fit's ``fisher_stds``."""
    for name in sorted(golden_runs()):
        before, after = _run_bytes(old, name), _run_bytes(new, name)
        differing = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
        if not differing:
            continue
        line = f"{name}: {', '.join(differing)}"
        results = [k for k in differing if k.endswith(".json") and k in before and k in after]
        if results:
            a, b = (json.loads(side[results[0]]) for side in (before, after))
            la, lb = _leaves(a), _leaves(b)
            moved = {k: lb[k] - la[k] for k in sorted(la.keys() & lb.keys()) if lb[k] != la[k]}
            if la.keys() != lb.keys():
                line += "; numeric leaves differ in structure"
            if moved:
                top = max(moved, key=lambda k: abs(moved[k]))
                line += f"; {len(moved)} moved, largest {abs(moved[top]):.2g} ({top})"
            derived, fisher = a.get("derived", {}), fisher_stds(a)
            for key in sorted(derived):
                std = derived.get(f"{key}_std")
                if key.startswith("fidelity") and std and f"derived.{key}" in moved:
                    shift = moved[f"derived.{key}"]
                    line += f"; {key} {shift:+.2g} = {shift / std:+.3f} std"
                    if key in fisher:
                        line += f" = {shift / fisher[key]:+.3f} fisher std"
        print(line)


if __name__ == "__main__":
    import tempfile
    args = sys.argv[1:]
    if args == ["--capture"]:
        with tempfile.TemporaryDirectory() as tmp:
            capture(Path(tmp))
    elif len(args) == 2 and args[0] == "--dump":
        dump(Path(args[1]))
    elif len(args) == 3 and args[0] == "--compare":
        compare(Path(args[1]), Path(args[2]))
    else:
        raise SystemExit("usage: python tests/test_golden.py "
                         "--capture | --dump DIR | --compare OLD NEW")
