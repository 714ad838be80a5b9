"""Command-line entry points: payload shape, determinism, exit codes."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import orbitzeta
from orbitzeta import __version__
from orbitzeta.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def test_orbits_table_lists_all_partitions(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "3")
    assert code == 0
    assert "xi(1+s)*xi(1+2s)*xi(1+3s)" in out
    assert "xi(1+s)^2*xi(2+3s)" in out
    assert "xi(1+s)*xi(2+2s)*xi(3+3s)" in out


def test_orbits_json_payload(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "orbits"
    assert payload["version"] == __version__
    names = [row["partition"] for row in payload["orbits"]]
    assert names == ["2", "1,1"]
    for row in payload["orbits"]:
        for cell in row["cells"]:
            assert cell["hook"] == 1 + cell["arm"] + cell["leg"]


def test_orbits_rejects_out_of_range(capsys):
    code, _, err = run(capsys, "orbits", "--n", "99")
    assert code == 2
    assert "between 1 and 12" in err


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


def test_residues_size_one_anchor(capsys):
    code, out, _ = run(capsys, "residues", "--n", "1")
    assert code == 0
    assert "pole=1" in out
    assert "diff=0.000e+00" in out


def test_residues_size_two_json_gate(capsys):
    code, out, _ = run(capsys, "residues", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gated"] is True
    assert payload["gate_failures"] == []
    assert {row["pole_order"] for row in payload["orbits"]} == {1}


def test_residues_size_four_reports_without_gating(capsys):
    code, out, _ = run(capsys, "residues", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gated"] is False
    assert len(payload["orbits"]) == 5


def test_residues_gate_fires_on_a_residue_just_off_its_anchor(capsys, monkeypatch):
    """Every anchor moved by 1e-6, far above ANCHOR_TOLERANCE (1e-8) and far
    below any loose tolerance such as 1e-2: `residues --n 3` exits 1 and
    names both anchored orbits."""
    import mpmath

    from orbitzeta import cli

    real = cli.residue_anchor

    def shifted(parts, digits):
        anchor = real(parts, digits)
        return None if anchor is None else anchor + mpmath.mpf("1e-6")

    monkeypatch.setattr(cli, "residue_anchor", shifted)
    code, out, _ = run(capsys, "residues", "--n", "3")
    assert code == 1
    failed = sorted(line.split(":")[1].strip() for line in out.splitlines()
                    if "residue off anchor" in line)
    assert failed == ["1,1,1", "2,1"]


@pytest.mark.parametrize("broken", ["pole order", "formal"])
def test_residues_gate_fires_on_a_pole_order_or_a_deep_coefficient(capsys, monkeypatch, broken):
    """A numeric pole order of 2, or a formal report with a deep coefficient
    that does not vanish, for every orbit of a gated size: `residues --n 2`
    exits 1, prints one GATE FAIL line per orbit and lists the same
    failures in the JSON gate_failures."""
    import dataclasses

    from orbitzeta import cli
    from orbitzeta.xinumeric import FormalPoly

    if broken == "pole order":
        real, name = cli.residue_at_zero, "residue_at_zero"

        def change(report):
            return dataclasses.replace(report, pole_order=2)

        messages = ["2: pole order 2", "1,1: pole order 2"]
    else:
        real, name = cli.formal_cancellation_check, "formal_cancellation_check"

        def change(report):
            # a nonzero polynomial at a new degree -pole_bound, deep even
            # where the true pole bound is 1
            planted = (FormalPoly.constant(1),) + report.coefficients
            return dataclasses.replace(report, pole_bound=report.pole_bound + 1,
                                       coefficients=planted)

        messages = ["%s: deep coefficient not formally zero" % p for p in ("2", "1,1")]
    monkeypatch.setattr(cli, name, lambda x: change(real(x)))
    code, out, _ = run(capsys, "residues", "--n", "2")
    assert code == 1
    assert [line for line in out.splitlines() if "GATE FAIL" in line] == [
        "GATE FAIL: %s" % m for m in messages
    ]
    code, out, _ = run(capsys, "residues", "--n", "2", "--format", "json")
    assert code == 1
    assert json.loads(out)["gate_failures"] == messages


def test_residues_requires_n(capsys):
    code, _, err = run(capsys, "residues")
    assert code == 2
    assert "residues" in err


def test_residues_run_leaves_the_truncation_layer_unloaded():
    """Only the cone commands import the truncation layer, and with it
    numpy; a residues run in a fresh interpreter loads neither."""
    script = (
        "import contextlib, io, sys\n"
        "import orbitzeta.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = orbitzeta.cli.main(['residues', '--n', '3', '--format', 'json'])\n"
        "assert code == 0, code\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'orbitzeta.truncation' not in sys.modules\n"
    )
    src = str(pathlib.Path(orbitzeta.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# verify commands
# ---------------------------------------------------------------------------


def test_verify_identity_small(capsys):
    code, out, _ = run(capsys, "verify-identity", "--max-n", "3")
    assert code == 0
    assert "pass" in out


def test_verify_identity_json(capsys):
    code, out, _ = run(capsys, "verify-identity", "--max-n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    # 5 + 3 + 2 + 1 orbit coefficients plus the vanishing constant term
    assert payload["coefficients_checked"] == 12


def test_verify_cones_json(capsys):
    code, out, _ = run(
        capsys, "verify-cones", "--n", "2", "--samples", "40", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["failures"] == []


def test_verify_cones_csv_chamber_audit(capsys):
    code, out, _ = run(capsys, "verify-cones", "--n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["blocks", "representative", "accepted", "membership_match"]
    assert len(rows) == 1 + 3  # G, {0}|{1}, {1}|{0}
    assert all(row[2] == "True" and row[3] == "True" for row in rows[1:])


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_cones_rejects_negative_samples_and_seed(capsys, flag, fmt):
    code, out, err = run(capsys, "verify-cones", "--n", "3", flag, "-5", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "error: verify-cones needs --samples and --seed of at least 0" in err


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def test_expand_subregular(capsys):
    code, out, _ = run(capsys, "expand", "--partition", "2,1")
    assert code == 0
    assert "pole order: 1" in out


def test_expand_plain_product_double_pole(capsys):
    code, out, _ = run(capsys, "expand", "--partition", "2", "--what", "z")
    assert code == 0
    assert "s^-2  0.5  +/- 0.000e+00" in out
    assert "pole order: 2" in out


def test_expand_json_includes_symbolic_form(capsys):
    code, out, _ = run(
        capsys, "expand", "--partition", "2,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["symbolic"] == "-xi(1+s)^2*xi(2+2s) + xi(1+s)^2*xi(2+3s)"
    assert payload["residue"]["pole_order"] == 1


def test_expand_computes_the_residue_report_once(capsys, monkeypatch):
    from orbitzeta import cli
    from orbitzeta.xinumeric import laurent

    calls = []
    real = laurent.residue_at_zero

    def counted(series):
        calls.append(series)
        return real(series)

    monkeypatch.setattr(cli, "residue_at_zero", counted)
    monkeypatch.setattr(laurent, "residue_at_zero", counted)
    code, _, _ = run(capsys, "expand", "--partition", "2,1", "--format", "json")
    assert code == 0
    assert len(calls) == 1


def test_expand_requires_partition(capsys):
    code, _, err = run(capsys, "expand")
    assert code == 2


def test_expand_rejects_malformed_partition(capsys):
    code, _, err = run(capsys, "expand", "--partition", "2,x")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# determinism and config plumbing
# ---------------------------------------------------------------------------


def test_json_output_is_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "orbits", "--n", "4", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_verify_cones_deterministic_under_fixed_seed(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "verify-cones", "--n", "3", "--samples", "30",
            "--seed", "11", "--format", "json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_digits_flag_reaches_report(capsys):
    code, out, _ = run(
        capsys, "expand", "--partition", "2", "--digits", "20", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["precision"]["working_digits"] == 20


@pytest.mark.parametrize(
    "argv, code, needle",
    [
        ("residues --n 2 --digits 400", 2, "precision error: errors at 415 digits underflow"),
        ("expand --partition 2,1 --format csv", 2, "error: no CSV layout for this command"),
        ("verify-identity --max-n 7", 2, "needs --max-n between 1 and 6"),
        ("verify-cones --n 6", 2, "needs --n between 1 and 5"),
        ("residues --n 2 --order 12 --format json", 0, '"expansion_order": 12,'),
    ],
    ids=["digits-underflow", "no-csv-layout", "identity-size", "cones-size", "order"],
)
def test_cli_paths_exit_with_their_codes(capsys, argv, code, needle):
    """A PrecisionError from the Euler-Maclaurin plan, a format with no CSV
    layout and sizes out of range for the verify commands exit 2 with
    their message on stderr; --order sets the expansion order the report
    records."""
    got, out, err = run(capsys, *argv.split())
    assert got == code
    assert needle in (out if code == 0 else err)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
