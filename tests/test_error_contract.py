"""Error-contract fuzz: any config document or argv either runs to a physical
result or fails with a documented error kind.

Each example runs one subcommand in one mode on a small document (2000
trials, 2 bootstrap replicas) with one or two schema keys set to a legal or
an extreme value, plus extreme Ramsey and round-trip arguments.  A run must
exit 0, 2 or 3.  A failure prints nothing on stdout and exactly one error
JSON on stderr, of a documented kind (never ``internal``), with no traceback
and no usage text.  A success writes only physical density matrices and
probabilities and fidelities in [0, 1].  Tier-1 makes every
``RuntimeWarning`` an error, and ``main`` reports it as ``internal``.  The
only other warning a run may raise is the documented faint-pulse
``UserWarning``; the test records warnings itself, so any new one fails it.

Counts are drawn small, at 1e12, or at 1e300 or 10**400, past the 2**53
ceiling (a config error), and never in between.  Every driver's cost is
independent of ``trials`` (state detection draws each histogram whole), but
``mc_replicas`` allocates one table per replica: at 1e12 numpy refuses the
allocation at once (a ``memory`` error), while values in between are legal and
can allocate gigabytes and run for minutes.  Round-trip shots past that ceiling (2**63, 1e19) are
rejected before any draw, and round-trip states above 10,000 (10,001 and
2**63) before any stream is spawned; no larger legal state count is drawn.
"""
import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from apgate.cli import FAILURES, SUBCOMMANDS, main
from apgate.config import MODES, paper_profile
from apgate.qlin import DensityMatrix

SCHEMA = paper_profile(seed=0).to_dict()
KEYS = sorted([(None, key) for key, d in SCHEMA.items() if not isinstance(d, dict)]
              + [(s, key) for s, d in SCHEMA.items() if isinstance(d, dict) for key in d],
              key=str)
COUNTS = {"trials", "mc_replicas"}
EXTREMES = [0, 1, -1, 5e-324, 1e-310, 1e9, -1e9, 1e12, -1e12, 1e300, 10**400,
            math.nan, math.inf, -math.inf, "1", "6.7", True, None, [], {}]
# Argv numbers, negatives in plain and exponent form included: the parser reads
# both as numbers, not flags.
ARGV_NUMBERS = ["0", "1", "-60", "60", "-1000000000000", "1e12", "1e13", "1e308",
                f"{-1e308:f}", "nan", "inf", "2.5", "-6e1", "-1e-1", "-1e308"]
FAINT_PULSE = re.compile(r"mean photon number .+ above 1; protocols assume faint pulses")
KINDS = {kind for _, kind, _ in FAILURES}
PROBABILITY = re.compile(r"fidelit|probabilit|^p_atom|^correct|^f_max|^populations$|"
                         r"^control_|^matrix$|^transfer$|^histogram_|^survival$|^keep_prob$")


@st.composite
def overrides(draw):
    section, key = draw(st.sampled_from(KEYS))
    legal = SCHEMA[section][key] if section else SCHEMA[key]
    values = [v for v in EXTREMES if key not in COUNTS or v != 1e9]
    return section, key, draw(st.sampled_from([legal] + values))


@st.composite
def runs(draw):
    subcommand = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    document = {"seed": 1, "mode": draw(st.sampled_from(MODES)), "trials": 2000,
                "mc_replicas": 2}
    for section, key, value in draw(st.lists(overrides(), min_size=1, max_size=2)):
        (document.setdefault(section, {}) if section else document)[key] = value
    argv = [subcommand]
    if subcommand == "ramsey":
        if draw(st.booleans()):
            argv += ["--phase2", draw(st.sampled_from(ARGV_NUMBERS))]
        if draw(st.booleans()):
            points = draw(st.sampled_from(["1", "3", "0", "2.5", "nan", "1e12", "1e300"]))
            argv += ["--grid-khz", *draw(st.lists(st.sampled_from(ARGV_NUMBERS),
                                                  min_size=2, max_size=2)), points]
    if subcommand == "tomo-roundtrip":
        argv += ["--states", str(draw(st.sampled_from([1, 2, 3, 10_001, 2**63]))),
                 "--shots", str(draw(st.sampled_from([0, 1, 10, 1000, 2**63, 10**19])))]
    return argv, document


def _assert_physical(payload: dict):
    for key, value in payload["derived"].items():
        if key.startswith("density_matrix"):
            rho = DensityMatrix.from_json_dict(value).entries
            assert np.allclose(rho, rho.conj().T, atol=1e-12), key
            assert abs(np.trace(rho) - 1.0) < 1e-9, key
            assert np.linalg.eigvalsh(rho).min() >= -1e-8, key
    for part in ("derived", "raw_counts", "metadata"):
        for key, value in payload[part].items():
            if PROBABILITY.search(key) and not isinstance(value, (str, bool)):
                numbers = np.asarray(value, dtype=float)
                assert np.all((numbers >= -1e-9) & (numbers <= 1.0 + 1e-9)), (part, key)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(runs())
def test_every_run_honours_the_error_contract(run):
    argv, document = run
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(document))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)    # RuntimeWarning stays an error
            code = main(argv + ["--config", str(path), "--out", str(out)])
        assert all(w.category is UserWarning and FAINT_PULSE.fullmatch(str(w.message))
                   for w in caught), (argv, document, [str(w.message) for w in caught])
        err = stderr.getvalue()
        assert code in (0, 2, 3), (argv, document, err)
        if code:
            error = json.loads(err)
            assert error["error"] in KINDS, (argv, document, err)
            assert stdout.getvalue() == "" and err.count("\n") == 1
            assert "Traceback" not in err and "usage:" not in err
            return
        label = json.loads(stdout.getvalue())["protocol"]
        _assert_physical(json.loads((out / f"{label}.json").read_text()))
