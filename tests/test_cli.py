import csv
import dataclasses
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from apgate import cli, protocols, tomography
from apgate.cli import main
from apgate.config import (ConfigError, RunConfig, config_from_dict, ideal_profile,
                           load_config, paper_profile)
from apgate.pulse import DetectionModel
from apgate.protocols import ProtocolResult
from apgate.qlin import DensityMatrix

MIN_CONFIG = {"seed": 42}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# --- config loading -----------------------------------------------------------

def test_paper_profile_encodes_rates():
    cfg = paper_profile()
    assert cfg.cavity.g == pytest.approx(2 * math.pi * 6.7, abs=1e-12)
    assert cfg.cavity.kappa == pytest.approx(2 * math.pi * 2.5, abs=1e-12)
    assert cfg.cavity.kappa_in / cfg.cavity.kappa == pytest.approx(95 / 103,
                                                                   abs=1e-12)
    assert cfg.imperfections.mode_overlap == 0.92
    assert cfg.imperfections.drift_phase_per_reflection == pytest.approx(
        0.11 * math.pi, abs=1e-12)
    assert cfg.pulses.bell_mean_photons == 0.07
    assert cfg.pulses.truth_table_mean_photons == 0.3


def test_missing_seed_names_field(tmp_path):
    path = write_config(tmp_path, {"trials": 10})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "seed" in str(err.value)


def test_out_of_range_value_names_section(tmp_path):
    path = write_config(tmp_path, {"seed": 1,
                                   "imperfections": {"mode_overlap": 1.3}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "imperfections" in str(err.value)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, {"seed": 1, "cavity": {"g_mhz": 6.7,
                                                         "bogus": 1}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "bogus" in str(err.value)


def test_config_round_trip_equality():
    cfg = paper_profile(seed=9)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()
    # The snapshot records the document's MHz, not a value taken to angular
    # rates and back (5.5 came back as 5.499999999999999).
    cavity = {"g_mhz": 5.5, "kappa_mhz": 11.0, "gamma_mhz": 0.17, "delta_c_mhz": 6.5,
              "delta_a_mhz": 0.0}
    assert config_from_dict({"seed": 9, "cavity": cavity}).to_dict()["cavity"] == cavity


def _asdict_document(cfg):
    # The document as dataclasses.asdict builds it, the mirrors lifted out of the cavity.
    data = dataclasses.asdict(cfg)
    keys = list(data)
    keys.insert(keys.index("cavity") + 1, "mirrors")
    data["mirrors"] = data["cavity"].pop("mirrors")
    return {key: data[key] for key in keys}


@pytest.mark.parametrize("make", [paper_profile, ideal_profile, lambda: load_config(
    Path(__file__).parent / "golden" / "full-schema.json")], ids=["paper", "ideal", "full-schema"])
def test_to_dict_is_the_asdict_document(make):
    cfg = make()
    # json.dumps keeps key order, nested sections included, and tells 1 from 1.0 and True.
    assert json.dumps(cfg.to_dict()) == json.dumps(_asdict_document(cfg))
    assert cfg.to_dict() == _asdict_document(cfg)


def test_config_documents_share_no_state():
    # Every to_dict call builds fresh dicts, and the schema config_from_dict
    # caches is none of them: spoiling a returned document changes nothing a
    # later config_from_dict accepts.
    document = {"seed": 1, "trials": 7, "cavity": {"g_mhz": 6.0}, "detection": {"threshold": 3},
                "mirrors": {"loss_other_ppm": 9.0}}
    before = config_from_dict(document)
    for doc in (paper_profile(seed=0).to_dict(), before.to_dict()):
        doc["cavity"]["bogus"] = 1
        del doc["cavity"]["g_mhz"], doc["seed"]
        doc["trials"], doc["detection"]["threshold"], doc["mirrors"] = "many", 2.5, {}
    assert config_from_dict(document) == before and before.to_dict()["trials"] == 7
    assert config_from_dict({"seed": 1}) == paper_profile(seed=1)
    with pytest.raises(ConfigError, match=r"^cavity\.bogus: unknown key$"):
        config_from_dict({"seed": 1, "cavity": {"bogus": 1}})


@pytest.mark.parametrize("document,message", [
    # Python holds integers that no JSON file can (past the 4300-digit limit).
    ({"seed": 1, "pulses": {"fwhm_us": 10**5000}},
     "pulses: fwhm_us must be finite, got an integer of 16610 bits"),
    ({"seed": 1, "imperfections": {"mode_overlap": 10**5000}},
     "imperfections: mode_overlap must be finite, got an integer of 16610 bits"),
    # An integer key holds such an integer, but the run's JSON snapshot cannot.
    ({"seed": 10**5000}, "run: seed must have at most 4300 digits, got an integer of 16610 bits"),
    ({"seed": 1, "detection": {"threshold": 10**5000}},
     "detection: threshold must have at most 4300 digits, got an integer of 16610 bits"),
    ({"seed": 1, "shots_per_setting": 10**5000},
     "run: shots_per_setting must have at most 4300 digits, got an integer of 16610 bits"),
], ids=["pulses-fwhm_us", "imperfections-mode_overlap", "seed", "detection-threshold",
        "shots_per_setting"])
def test_config_from_dict_names_the_faulty_key(document, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict(document)
    assert str(err.value) == message


HUGE = 10**5000     # past Python's 4300-digit limit for integer strings


@pytest.mark.parametrize("field,build", [
    ("seed", lambda: RunConfig(seed=HUGE)),
    ("seed", lambda: dataclasses.replace(paper_profile(), seed=HUGE)),
    ("shots_per_setting", lambda: RunConfig(seed=1, shots_per_setting=HUGE)),
    ("shots_per_setting", lambda: dataclasses.replace(paper_profile(), shots_per_setting=HUGE)),
    ("detection.threshold", lambda: RunConfig(seed=1, detection=DetectionModel(threshold=HUGE))),
    ("detection.threshold", lambda: dataclasses.replace(
        paper_profile(), detection=dataclasses.replace(paper_profile().detection, threshold=HUGE))),
], ids=["seed", "seed-replace", "shots_per_setting", "shots_per_setting-replace",
        "detection-threshold", "detection-threshold-replace"])
def test_run_config_rejects_integers_past_the_digit_limit(field, build):
    # Built in Python, not from a document: the run's JSON snapshot could
    # not write the integer, so the config itself refuses it.
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == (f"{field} must have at most {sys.get_int_max_str_digits()} "
                              f"digits, got an integer of 16610 bits")


def test_readme_config_examples_load():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    blocks = section.split("```json\n")[1:]
    assert blocks
    for block in blocks:
        config_from_dict(json.loads(block.split("```")[0]))


def test_config_from_minimal_dict():
    cfg = config_from_dict(MIN_CONFIG)
    assert cfg.seed == 42
    assert cfg.mode == "analytic"


def test_invalid_mode_rejected(tmp_path):
    path = write_config(tmp_path, {"seed": 1, "mode": "quantum"})
    with pytest.raises(ConfigError):
        load_config(path)


# --- CLI ------------------------------------------------------------------------

def test_cli_loss_budget(tmp_path):
    out = tmp_path / "out"
    code = main(["loss-budget", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "loss-budget.json").read_text())
    assert payload["derived"]["model_loss_uncoupled"] == pytest.approx(0.287,
                                                                       abs=1e-3)
    assert payload["derived"]["coupled_model_discrepancy"] is True
    assert payload["derived"]["measured_loss_coupled"] == 0.34


def test_cli_bell_analytic_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["bell", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "bell.json").read_text())
    fid = payload["derived"]["fidelity"]
    assert 0.75 < fid < 0.86
    dm = DensityMatrix.from_json_dict(payload["derived"]["density_matrix"])
    assert np.linalg.eigvalsh(dm.entries)[0] >= -1e-8
    assert (out / "bell_density_abs.csv").exists()
    assert (out / "bell_settings.csv").exists()


def test_cli_truth_table_csv(tmp_path):
    out = tmp_path / "out"
    assert main(["truth-table", "--out", str(out)]) == 0
    lines = (out / "truth_table.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 rows


def _abs_table(dim):
    return ["row", *map(str, range(dim))], dim


def _settings_table(outcomes, settings):
    return ["setting", *(f"probabilities_{i}" for i in range(outcomes))], settings


TRUTH_LABELS = ["down_a down_px", "down_a up_px", "up_a down_px", "up_a up_px"]
CSV_TABLES = {      # subcommand -> {file: (header, data rows)}, analytic paper profile
    "truth-table": {"truth_table.csv": (["input", *TRUTH_LABELS], 4)},
    "bell": {"bell_density_abs.csv": _abs_table(4),
             "bell_settings.csv": _settings_table(4, 9)},
    "ghz": {"ghz_density_abs.csv": _abs_table(8),
            "ghz_settings.csv": _settings_table(8, 27)},
    "eraser": {"eraser_phi_plus_abs.csv": _abs_table(4),
               "eraser_phi_minus_abs.csv": _abs_table(4),
               "eraser_settings.csv": _settings_table(8, 9)},
    "ramsey": {"ramsey_curve.csv": (["detuning_khz", "transfer"], 41)},
    "state-detection": {"state_detection_hist.csv": (["count", "p_f1", "p_f2"], 19)},
}


@pytest.mark.parametrize("subcommand", sorted(CSV_TABLES))
def test_cli_csv_dialect(subcommand, tmp_path):
    # Pins the CSV bytes under any numpy: every table is csv's default
    # dialect (CRLF line ends, minimal quoting) with its header and row count.
    out = tmp_path / "out"
    assert main([subcommand, "--profile", "paper", "--mode", "analytic",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(CSV_TABLES[subcommand])
    for name, (header, n_rows) in CSV_TABLES[subcommand].items():
        data = (out / name).read_bytes()
        rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
        assert rows[0] == header, name
        assert len(rows) == 1 + n_rows and all(len(r) == len(header) for r in rows), name
        rendered = io.StringIO(newline="")
        csv.writer(rendered).writerows(rows)
        assert rendered.getvalue().encode() == data, name


def test_cli_eraser_and_ghz_artifacts(tmp_path):
    out = tmp_path / "out"
    assert main(["eraser", "--out", str(out)]) == 0
    assert (out / "eraser_phi_plus_abs.csv").exists()
    assert (out / "eraser_phi_minus_abs.csv").exists()
    assert main(["ghz", "--out", str(out)]) == 0
    payload = json.loads((out / "ghz.json").read_text())
    assert 0.55 <= payload["derived"]["fidelity"] <= 0.67


def test_cli_tomo_roundtrip(tmp_path):
    out = tmp_path / "out"
    assert main(["tomo-roundtrip", "--states", "3", "--shots", "1500",
                 "--seed", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "tomo-roundtrip.json").read_text())
    assert payload["derived"]["all_monotone"] is True


def test_cli_full_schema_config_file(tmp_path):
    cfg = paper_profile(seed=11).to_dict()
    path = write_config(tmp_path, cfg, name="full.json")
    loaded = load_config(path)
    assert loaded == paper_profile(seed=11)


def test_cli_ramsey_grid_override(tmp_path):
    out = tmp_path / "out"
    code = main(["ramsey", "--out", str(out), "--grid-khz", "-30", "30", "21",
                 "--phase2", "0.0"])
    assert code == 0
    lines = (out / "ramsey_curve.csv").read_text().strip().splitlines()
    assert len(lines) == 22


def test_cli_reads_exponent_form_negatives_as_numbers(tmp_path):
    # argparse read "-6e1" as a flag ("expected 3 arguments") and "-1e-1"
    # likewise; they are the numbers -60 and -0.1.
    written = []
    for start, phase in (("-60", "-0.1"), ("-6e1", "-1e-1")):
        out = tmp_path / start
        assert main(["ramsey", "--grid-khz", start, "60", "7", "--phase2", phase,
                     "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert written[0] == written[1]


def test_cli_byte_identical_reruns(tmp_path):
    args = ["bell", "--mode", "monte-carlo", "--trials", "5000", "--seed", "5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "bell.json").read_bytes() == (out2 / "bell.json").read_bytes()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bell", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = write_config(tmp_path, {"trials": 5}, name="missing.json")
    assert main(["bell", "--config", missing, "--out", str(tmp_path)]) == 2


def test_cli_starvation_exit_code(tmp_path):
    cfg = {
        "seed": 1,
        "mode": "monte-carlo",
        "trials": 50,
        "imperfections": {"loss_coupled": 1.0, "loss_uncoupled": 1.0,
                          "mode_overlap": 1.0, "prep_fidelity": 1.0},
    }
    path = write_config(tmp_path, cfg)
    assert main(["bell", "--config", path, "--out", str(tmp_path)]) == 3


def test_cli_env_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("APGATE_OUT", str(target))
    assert main(["loss-budget"]) == 0
    assert (target / "loss-budget.json").exists()


def test_cli_seed_override_changes_montecarlo(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    base = ["state-detection", "--mode", "monte-carlo", "--trials", "10000"]
    assert main(base + ["--seed", "1", "--out", str(out1)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out2)]) == 0
    a = json.loads((out1 / "state-detection.json").read_text())
    b = json.loads((out2 / "state-detection.json").read_text())
    assert a["derived"]["fidelity"] != b["derived"]["fidelity"]


@pytest.mark.parametrize("argv", [
    ["state-detection", "--trials", "1"],
    ["ramsey", "--grid-khz", "0", "1", "0"],
    ["ramsey", "--grid-khz", "0", "1", "-3"],
    ["tomo-roundtrip", "--states", "0"],
    ["tomo-roundtrip", "--shots", "0"],
    ["ramsey", "--phase2", "nan"],
    ["ramsey", "--grid-khz", "nan", "1", "3"],
    ["bell", "--trials", "abc"],
    ["ramsey", "--phase2", "-inf"],
    ["no-such-protocol"],
    ["bell", "--bogus", "1"],
    ["ramsey", "--grid-khz", "0", "1", "7.5"],
    ["bell", "--seed", "-1"],
    ["ramsey", "--grid-khz", "0", "1e308", "3"],
    ["ramsey", "--grid-khz", f"{-1e308:f}", "1e308", "3"],
    ["ramsey", "--grid-khz", "0", "1", "1e300"],
    ["state-detection", "--trials", str(2 ** 53)],
    ["tomo-roundtrip", "--states", "1", "--shots", str(2 ** 53)],
    ["tomo-roundtrip", "--states", "1", "--shots", str(2 ** 63)],
    ["tomo-roundtrip", "--states", "1", "--shots", str(10 ** 19)],
    ["tomo-roundtrip", "--states", "10001"],
    ["tomo-roundtrip", "--states", str(2 ** 63)],
])
def test_cli_invalid_argument_exit_code(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bell", "--help"])
    assert exc.value.code == 0
    assert "usage: apgate bell" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["analytic", "monte-carlo"])
def test_cli_eraser_without_herald_exit_code(mode, tmp_path, capsys):
    # Every atom is wrongly prepared and reads out as F2: nothing heralds F1.
    path = write_config(tmp_path, {"seed": 1, "mode": mode,
                                   "imperfections": {"prep_fidelity": 0.0}})
    assert main(["eraser", "--config", path, "--out", str(tmp_path)]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "starvation",
                     "message": "no f1-conditioned events for setting ZXX"}


@pytest.mark.parametrize("section,value", [
    ("imperfections", []), ("cavity", "fast"), ("pulses", 3),
    ("mirrors", None), ("detection", [1, 2]),
])
def test_cli_non_object_section_exit_code(section, value, tmp_path, capsys):
    path = write_config(tmp_path, {"seed": 1, section: value})
    assert main(["bell", "--config", path, "--out", str(tmp_path)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "config", "message": f"{section}: expected an object"}


@pytest.mark.parametrize("section,key,value,kind", [
    ("pulses", "assume_single_photon", "false", "a boolean"),
    ("cavity", "g_mhz", True, "a number"),
    ("detection", "threshold", 2.5, "an integer"),
    (None, "trials", True, "an integer"),
    ("cavity", "g_mhz", math.nan, "finite"),
    ("imperfections", "mode_overlap", math.inf, "finite"),
    (None, "output_dir", 5, "a string"),
    # A number key takes only a JSON number, never a numeric string.
    (None, "seed", "5", "an integer"),
    (None, "trials", "2000", "an integer"),
    ("cavity", "g_mhz", "6.7", "a number"),
    ("imperfections", "drift_phase_per_reflection", "nan", "a number"),
    # Integers that JSON holds but a float cannot: keys with no finite ceiling.
    *(pytest.param(section, key, value, "finite", id=f"{section}-{key}-past-float-range")
      for section, key, value in ((None, "preselection_pass", 10**400),
                                  ("imperfections", "mode_overlap", 10**400),
                                  ("mirrors", "t_coupling_ppm", 10**400),
                                  ("pulses", "fwhm_us", 10**400),
                                  ("detection", "mean_signal_photons", -10**400))),
])
def test_cli_ill_typed_value_exit_code(section, key, value, kind, tmp_path, capsys):
    data = {"seed": 1, **({section: {key: value}} if section else {key: value})}
    path = write_config(tmp_path, data)
    assert main(["bell", "--config", path, "--out", str(tmp_path)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "config", "message":
                     f"{section or 'run'}: {key} must be {kind}, got {value!r}"}


@pytest.mark.parametrize("document,message", [
    ({"seed": 1, "preselection_pass": 0}, "run: preselection_pass must lie in (0, 1]"),
    ({"seed": 1, "preselection_pass": 1.5}, "run: preselection_pass must lie in (0, 1]"),
    ({"seed": 1, "shots_per_setting": 0}, "run: shots_per_setting must be at least 1"),
    ({"seed": 1, "mc_replicas": 1}, "run: mc_replicas must be at least 2"),
    ([], "{path}: top-level config must be an object"),
    (None, "{path}: cannot read config: "),     # --config names a directory
    ({"seed": -1}, "run: seed must be nonnegative"),
    # Counts this large could fail inside numpy, an internal exit.
    ({"seed": 1, "trials": 1e300}, "run: trials must be below 2**53"),
    ({"seed": 1, "mc_replicas": 2 ** 53}, "run: mc_replicas must be below 2**53"),
    # An integer past Python's 4300-digit limit, written as text: json.dumps
    # hits the same limit.
    pytest.param('{"seed": 1, "trials": 1' + "0" * 4400 + "}", "{path}: invalid JSON: ",
                 id="integer-past-digit-limit"),
    # Of two faults, the one earlier in the document's order is reported.
    pytest.param({"seed": 1, "mirrors": 5, "imperfections": {"bogus": 1}},
                 "mirrors: expected an object", id="two-faults-sections"),
    pytest.param({"seed": 1, "preselection_pass": "x", "mode": 3},
                 "run: mode must be a string, got 3", id="two-faults-run-keys"),
])
def test_cli_rejected_config_document_exit_code(document, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if document is None:
        path.mkdir()
    elif isinstance(document, str):
        path.write_text(document)
    else:
        path = write_config(tmp_path, document)
    out = tmp_path / "out"
    assert main(["bell", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.err)
    assert error["error"] == "config"
    assert error["message"].startswith(message.format(path=path))
    assert captured.out == "" and not out.exists()


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(cfg, args):
        raise RuntimeError("survival weight leaked a setting dependence")
    monkeypatch.setitem(cli.SUBCOMMANDS, "bell", cli.SUBCOMMANDS["bell"]._replace(run=broken))
    assert main(["bell", "--out", str(tmp_path)]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "internal",
                     "message": "RuntimeError: survival weight leaked a setting dependence"}


def test_cli_sampling_starvation_exit_code(tmp_path, capsys):
    # One attempt keeps no event for the first setting: sampling starves.
    assert main(["bell", "--mode", "monte-carlo", "--trials", "1",
                 "--out", str(tmp_path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "starvation",
                                   "message": "no surviving events for setting XX"}
    assert not (tmp_path / "bell.json").exists()


def _assert_internal_error(argv, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "internal", "message": f"RuntimeError: {message}"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["analytic", "monte-carlo"])
def test_cli_survival_guard_exit_code(mode, tmp_path, capsys, monkeypatch):
    # Unequal column sums make the kept weight depend on the setting.
    monkeypatch.setattr(protocols, "confusion_matrix",
                        lambda e: np.array([[1.0, 0.0], [0.5, 1.0]]))
    _assert_internal_error(["bell", "--mode", mode],
                           "survival weight leaked a setting dependence", tmp_path, capsys)


def test_cli_eraser_atom_marginal_guard_exit_code(tmp_path, capsys, monkeypatch):
    # Every setting keeps the same total, but the first one's atom marginal differs.
    tables = np.full((9, 8), 1.0 / 8)
    tables[0] = [0.15] * 4 + [0.1] * 4
    monkeypatch.setattr(protocols, "_protocol_tables", lambda *a, **k: ([tables], [0.5]))
    _assert_internal_error(["eraser"], "atom outcome probability leaked a setting dependence",
                           tmp_path, capsys)


def test_cli_nan_result_exit_code(tmp_path, capsys, monkeypatch):
    # A NaN is not JSON: the run fails instead of writing NaN or null.
    def nan_result(cfg, args):
        return ProtocolResult("bell", {}, {"fidelity": math.nan}, {})
    monkeypatch.setitem(cli.SUBCOMMANDS, "bell", cli.SUBCOMMANDS["bell"]._replace(run=nan_result))
    assert main(["bell", "--out", str(tmp_path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "internal"
    assert not (tmp_path / "bell.json").exists()


@pytest.mark.parametrize("argv,fit", [
    (["bell", "--mode", "monte-carlo"], "top-level fit"),
    (["tomo-roundtrip", "--states", "3", "--shots", "1000"], "round-trip state 0 of 3"),
])
def test_cli_uncertified_fit_exit_code(argv, fit, tmp_path, capsys, monkeypatch):
    # A fit stopped at its iteration cap is an error, not a silent result.
    core = tomography.mle_batch
    capped = lambda settings, counts, max_iter=5000: core(settings, counts, 2)
    monkeypatch.setattr(tomography, "mle_batch", capped)
    monkeypatch.setattr("apgate.protocols.mle_batch", capped)
    assert main(argv + ["--out", str(tmp_path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    error = json.loads(out.err)
    assert error["error"] == "fit"
    assert error["message"].startswith(f"{fit}: gap ")
    assert error["message"].endswith(f"nats > {tomography.MLE_TOL} after 2 iterations")
    assert list(tmp_path.iterdir()) == []


def test_cli_eraser_uncertified_fit_exit_code(tmp_path, capsys, monkeypatch):
    # The Phi+ herald's observed fit is certified first.  It certifies after
    # one iteration, so only a cap of 0 leaves it uncertified.
    core = tomography.mle_batch
    capped = lambda settings, counts, max_iter=5000: core(settings, counts, 0)
    monkeypatch.setattr(tomography, "mle_batch", capped)
    monkeypatch.setattr("apgate.protocols.mle_batch", capped)
    argv = ["eraser", "--mode", "monte-carlo", "--out", str(tmp_path)]
    assert main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    error = json.loads(out.err)
    assert error["error"] == "fit"
    assert error["message"].startswith("top-level fit: gap ")
    assert error["message"].endswith("after 0 iterations")
    assert list(tmp_path.iterdir()) == []


def test_cli_zero_trials_override_exit_code(tmp_path, capsys):
    assert main(["bell", "--trials", "0", "--out", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {"error": "config",
                                   "message": "overrides: trials must be at least 1"}


def test_cli_out_under_regular_file_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["bell", "--out", str(blocker / "sub")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err)["error"] == "io"


def test_cli_cached_parser_survives_a_bad_argv(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    assert main(["bell", "--trials", "abc", "--out", str(tmp_path)]) == 2
    assert main(["bell", "--trials", "2000", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["protocol"] == "bell"


def test_perfbench_patch_points_resolve(monkeypatch):
    # The benchmark's tracer patches these names at lookup time; a rename in
    # apgate must fail here rather than in a traced benchmark run.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.PATCH_POINTS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    # perfbench/run.py's setup timing calls the package-level load_config.
    assert importlib.import_module("apgate").load_config is load_config
    for module in ("apgate.protocols", "apgate.tomography"):
        fit = importlib.import_module(module).mle_reconstruct
        default = inspect.signature(fit).parameters["max_iter"].default
        assert default is not inspect.Parameter.empty


@pytest.mark.parametrize("subcommand", sorted(CSV_TABLES))
def test_result_tables_are_the_written_csvs(subcommand, tmp_path, monkeypatch):
    # The driver returns its CSV tables with the result; main writes exactly
    # those files, and the tables stay out of the result JSON.
    results = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda result, out: (results.append(result),
                                                           emit(result, out)))
    out = tmp_path / "out"
    assert main([subcommand, "--profile", "paper", "--mode", "analytic",
                 "--out", str(out)]) == 0
    [result] = results
    assert sorted(f"{stem}.csv" for stem, _, _ in result.tables) == sorted(
        p.name for p in out.glob("*.csv"))
    assert "tables" not in json.loads(result.to_json())


@pytest.mark.parametrize("section,key,value", [
    ("imperfections", "freq_jitter_khz", 1e160),
    ("imperfections", "freq_bias_khz", 1e160),
    ("cavity", "delta_c_mhz", 1e160),
    ("cavity", "delta_a_mhz", 1e160),
    ("cavity", "g_mhz", 1e160),
    ("cavity", "kappa_mhz", 1e300),
    ("cavity", "gamma_mhz", 1e300),
    ("pulses", "fwhm_us", 1e-320),
    ("imperfections", "freq_jitter_khz", 1e308),
    ("cavity", "kappa_mhz", 5e-324),
    ("cavity", "gamma_mhz", 5e-324),
    ("cavity", "g_mhz", 1e-10),
])
def test_cli_frequency_beyond_ceiling_exit_code(section, key, value, tmp_path, capsys):
    # Each value overflowed the reflection formula (an overflow warning, a
    # wrong fidelity or an internal exit); it is now a config error.  A rate
    # also has a floor, at 1e-9 MHz.
    document = {"seed": 1, section: {key: value}}
    if key == "fwhm_us":    # only the spectral correction reads the pulse's width
        document["pulses"]["spectral_correction"] = True
    path = write_config(tmp_path, document)
    assert main(["bell", "--config", path, "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config"
    assert error["message"].startswith(f"{section}: {key} must lie in ")
    assert error["message"].endswith(f"got {value!r}")


@pytest.mark.parametrize("subcommand", ["truth-table", "bell", "ghz", "eraser",
                                        "loss-budget"])
def test_cli_runs_at_every_frequency_ceiling(subcommand, tmp_path, capsys):
    # Jitter nodes and the spectrally widened jitter go past the ceilings a
    # config obeys; the run must still finish without an overflow warning.
    path = write_config(tmp_path, {
        "seed": 1,
        "cavity": {"g_mhz": 1e9, "kappa_mhz": 1e9, "gamma_mhz": 1e9,
                   "delta_c_mhz": -1e9, "delta_a_mhz": 1e9},
        "imperfections": {"freq_jitter_khz": 1e12, "freq_bias_khz": -1e12},
        "pulses": {"fwhm_us": 1e-9, "spectral_correction": True}})
    assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) == 0, \
        capsys.readouterr().err


def _subprocess_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def test_cli_huge_detection_threshold_finishes(tmp_path):
    # The Poisson sum used to run threshold terms: 10**12 would take days.
    path = write_config(tmp_path, {"seed": 1, "detection": {"threshold": 10 ** 12}})
    done = subprocess.run([sys.executable, "-m", "apgate", "truth-table", "--config", path,
                           "--out", str(tmp_path / "out")],
                          env=_subprocess_env(), capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("subcommand", ["truth-table", "bell", "ghz", "eraser",
                                        "loss-budget"])
def test_cli_runs_at_the_rate_floors(subcommand, tmp_path, capsys):
    # The smallest rates a config may set, with the widest jitter and
    # detunings: the reflection formula must not overflow.
    path = write_config(tmp_path, {
        "seed": 1,
        "cavity": {"g_mhz": 1e-9, "kappa_mhz": 1e-9, "gamma_mhz": 1e-9,
                   "delta_c_mhz": 1e9, "delta_a_mhz": -1e9},
        "imperfections": {"freq_jitter_khz": 1e12, "freq_bias_khz": 1e12},
        "pulses": {"fwhm_us": 1e-9, "spectral_correction": True}})
    assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) == 0, \
        capsys.readouterr().err


@pytest.mark.parametrize("subcommand,document", [
    ("bell", {"imperfections": {"photonic_meas_error": 0.9}}),
    ("ghz", {"imperfections": {"photonic_meas_error": 1.0}}),
    ("truth-table", {"detection": {"mean_signal_photons": 800.0, "threshold": 1000}}),
])
def test_cli_value_beyond_model_bound_exit_code(subcommand, document, tmp_path, capsys):
    # Analyzer flips above 1/2 made linear inversion unphysical (an internal
    # exit); a signal mean above 700 underflowed the Poisson readout into a
    # perfect one (exit 0).  Both are now config errors.
    path = write_config(tmp_path, {"seed": 1, **document})
    assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr()
    [(section, _)] = document.items()
    assert out.out == "" and json.loads(out.err)["message"].startswith(f"{section}: ")


@pytest.mark.parametrize("subcommand", ["bell", "ghz"])
@pytest.mark.parametrize("key", ["mode_overlap", "prep_fidelity"])
def test_cli_subnormal_branch_weight_runs(key, subcommand, tmp_path, capsys):
    # A branch total below the smallest normal float overflowed the
    # contamination scale (an internal exit); such a branch adds none.
    path = write_config(tmp_path, {"seed": 1, "imperfections": {key: 1e-310}})
    assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) == 0, \
        capsys.readouterr().err


def test_cli_state_detection_runs_at_the_trial_ceiling(tmp_path, capsys):
    # Each histogram is drawn whole, so the largest legal trial count costs no
    # more than the default: 2**53 - 1 trials, 2**52 - 1 per prepared state.
    path = write_config(tmp_path, {"seed": 1, "trials": 2**53 - 1})
    assert main(["state-detection", "--config", path, "--out", str(tmp_path / "out")]) == 0, \
        capsys.readouterr().err
    result = json.loads((tmp_path / "out" / "state-detection.json").read_text())
    assert result["metadata"]["trials"] == 2**53 - 1
    derived = result["derived"]
    assert derived["fidelity"] == pytest.approx(derived["fidelity_closed_form"], abs=1e-7)


@pytest.mark.parametrize("argv,document", [
    (["bell", "--mode", "monte-carlo"], {"trials": 2000, "mc_replicas": 10 ** 12}),
    (["ramsey", "--grid-khz", "0", "1", "1e12"], {}),
])
def test_cli_count_beyond_memory_exit_code(argv, document, tmp_path, capsys):
    # numpy refuses the allocation at once: a documented kind, not "internal".
    path = write_config(tmp_path, {"seed": 1, **document})
    assert main(argv + ["--config", path, "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    error = json.loads(out.err)
    assert error["error"] == "memory" and error["message"].startswith("Unable to allocate")


def test_cli_config_with_profile_exit_code(tmp_path, capsys):
    # The profile used to be dropped silently in favour of the document.
    path = write_config(tmp_path, MIN_CONFIG)
    assert main(["bell", "--config", path, "--profile", "ideal",
                 "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "config", "message": "argv: argument --profile: not allowed with argument --config"}
    assert not (tmp_path / "out").exists()


def test_runtime_imports_only_numpy_and_the_stdlib():
    # The runtime depends on numpy alone: importing the CLI in a fresh
    # interpreter loads no other third-party top-level module.
    code = ("import sys; before = set(sys.modules); import apgate.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    done = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["['apgate',", "'numpy']"]
