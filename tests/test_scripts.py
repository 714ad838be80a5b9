"""Smoke runs of the survey scripts, loaded by path from scripts/."""

import importlib.util
import json
import pathlib

import mpmath

from orbitzeta import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pole_survey_small_sizes(tmp_path, capsys):
    out = tmp_path / "survey.json"
    assert load_script("pole_survey").main(["--max-n", "3", "--out", str(out)]) == 0
    rows = {
        row["partition"]: row
        for size in json.loads(out.read_text())["sizes"].values()
        for row in size["orbits"]
    }
    assert all(row["pole_order"] == 1 and row["formal_deep_vanish"] for row in rows.values())
    anchored = {name for name, row in rows.items() if "anchor" in row}
    assert anchored == {"1", "1,1", "1,1,1", "2,1"}
    for name in anchored:
        assert float(rows[name]["anchor_diff"]) <= cli.ANCHOR_TOLERANCE
    # pole orders and 12-digit residues equal the archived survey's
    archive = json.loads((ROOT / "reports" / "pole_survey.json").read_text())["sizes"]
    archived = {row["partition"]: row for n in ("1", "2", "3") for row in archive[n]["orbits"]}
    assert archived.keys() == rows.keys()

    def twelve(text):
        return mpmath.nstr(mpmath.mpf(text), 12)

    for name, row in rows.items():
        assert row["pole_order"] == archived[name]["pole_order"], name
        assert twelve(row["residue"]) == twelve(archived[name]["residue"]), name


def test_survey_and_residues_share_one_gate(tmp_path, capsys, monkeypatch):
    """With no anchor tolerance both the survey and `residues --n 3` exit 1
    and list the same (2,1) anchor failure."""
    monkeypatch.setattr(cli, "ANCHOR_TOLERANCE", mpmath.mpf(0))

    def anchor_failures(code):
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        return [line for line in lines if line.startswith("GATE FAIL: 2,1: residue off anchor")]

    residues = anchor_failures(cli.main(["residues", "--n", "3"]))
    out = tmp_path / "survey.json"
    survey = anchor_failures(load_script("pole_survey").main(["--max-n", "3", "--out", str(out)]))
    assert len(residues) == 1 and survey == residues
    assert json.loads(out.read_text())["sizes"]["3"]["gated"] is True


def test_pole_survey_refuses_too_few_digits(tmp_path, capsys):
    """A bad --digits is a usage error, exit 2 with the CLI's message; exit
    1 means a gated orbit failed."""
    out = tmp_path / "survey.json"
    assert load_script("pole_survey").main(["--digits", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: working_digits must be >= 5\n"
    assert cli.main(["residues", "--n", "2", "--digits", "3"]) == 2
    assert capsys.readouterr().err == "error: working_digits must be >= 5\n"
    assert not out.exists()


def test_truncation_suite_fast(tmp_path, capsys):
    out = tmp_path / "suite.json"
    assert load_script("truncation_suite").main(["--fast", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 30


def test_truncation_suite_refuses_a_negative_seed(tmp_path, capsys):
    """A negative --seed is a usage error, exit 2 with one error line and no
    report; exit 1 means a check failed."""
    out = tmp_path / "suite.json"
    assert load_script("truncation_suite").main(["--seed", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: seed must be non-negative, got -1\n")
    assert not out.exists()
