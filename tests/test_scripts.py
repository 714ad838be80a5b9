"""Smoke runs of the survey scripts, loaded by path from scripts/."""

import importlib.util
import io
import json
import pathlib
import subprocess
import tokenize

import mpmath
import pytest

from orbitzeta import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
DATA = ROOT / "tests" / "data"


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


def test_pole_survey_reproduces_the_archive(tmp_path, capsys):
    """--max-n 6 rewrites reports/pole_survey.json field for field but the
    timings: residues, residue errors, anchors and their differences, and
    every deep-audit magnitude and noise floor."""
    out = tmp_path / "survey.json"
    assert load_script("pole_survey").main(["--max-n", "6", "--out", str(out)]) == 0

    def untimed(path):
        payload = json.loads(path.read_text())
        for size in payload["sizes"].values():
            del size["seconds"]
        return payload

    assert untimed(out) == untimed(ROOT / "reports" / "pole_survey.json")


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


def test_bench_reads_a_saved_pair_of_runs(tmp_path, monkeypatch):
    """scripts/bench.py makes a workload record from the saved output of one
    untraced and one traced series-warm run, without running the
    benchmark, and writes it to BENCH_<label>.json; runs that disagree, or
    output without its two last lines, are refused.  The file names the
    checkout's HEAD and the tree hashes its src/ and perfbench/ get once
    the measured edits are committed."""
    bench = load_script("bench")
    untraced, traced = (
        bench.parse_run((DATA / ("series_warm_trace%d.out" % t)).read_text()) for t in (0, 1)
    )
    entry = bench.workload_entry(untraced, traced)
    assert entry["digest"].startswith("a83417b8")
    assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] > 0
    assert set(entry["end_to_end"]) == {"setup_s", "wall_s", "items_per_s", "peak_rss_mb"}
    assert entry["end_to_end"]["wall_s"]["unit"] == "s"
    layers = {"laurent.laurent_expand.self_s", "formal.formal_cancellation_check.busy_s"}
    assert layers <= set(entry["per_layer"]) and "trace.overhead" in entry["per_layer"]
    with pytest.raises(bench.BenchError, match="an untraced and a traced run"):
        bench.workload_entry(traced, untraced)
    with pytest.raises(bench.BenchError, match="digest differs"):
        bench.workload_entry(untraced, (dict(traced[0], digest="0"), traced[1]))
    with pytest.raises(bench.BenchError, match="fewer than two lines"):
        bench.parse_run("one line\n")

    def saved(tree, workload, seconds, trace):
        return (untraced, traced)[trace]

    def git(*args):
        cmd = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org", *args]
        return subprocess.run(cmd, cwd=tmp_path, check=True, capture_output=True, text=True).stdout

    # a checkout with one workload and one uncommitted edit under src/
    spec = {"run_seconds": 20, "workloads": [{"name": "series-warm"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    for name in ("src/a.py", "perfbench/run.py"):
        (tmp_path / name).parent.mkdir()
        (tmp_path / name).write_text("x = 1\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    base = git("rev-parse", "HEAD").strip()
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    monkeypatch.setattr(bench, "run_workload", saved)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    assert bench.main(["--label", "saved"]) == 0
    payload = json.loads((tmp_path / "BENCH_saved.json").read_text())
    assert payload["fingerprint"] == untraced[0]["fingerprint"]
    del entry["fingerprint"]
    assert payload["workloads"] == {"series-warm": entry}
    assert payload["commit"] == base and payload["seed"] == 1
    git("commit", "-q", "-am", "edit")
    for d in ("src", "perfbench"):
        assert payload["source"][d] == git("rev-parse", "HEAD:" + d).strip()
    assert git("status", "--porcelain") == "?? BENCH_saved.json\n"
    assert bench.main(["--label", "no/label"]) == 2


def test_bench_records_leftover_bytecode_caches(tmp_path, monkeypatch, capsys):
    """scripts/bench.py records whether src/ or perfbench/ of the measured
    checkout held __pycache__ files before the runs, and warns on stderr
    when they did; caches elsewhere, or empty cache directories, do not
    count."""
    bench = load_script("bench")
    untraced, traced = (
        bench.parse_run((DATA / ("series_warm_trace%d.out" % t)).read_text()) for t in (0, 1)
    )
    monkeypatch.setattr(bench, "run_workload", lambda tree, w, s, trace: (untraced, traced)[trace])
    monkeypatch.setattr(bench, "revision", lambda tree: ("0" * 40, {}))
    for name in ("src/pkg/a.py", "perfbench/run.py", "scripts/__pycache__/x.cpython-311.pyc"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("x = 1\n")
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir()
    assert not bench.held_pycache(tmp_path)
    payload = bench.bench("clean", tmp_path, ["series-warm"], 20)
    assert payload["pycache"] is False
    assert "warning" not in capsys.readouterr().err
    for name in ("src/pkg/__pycache__/a.cpython-311.pyc", "perfbench/__pycache__/run.pyc"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(b"")
        assert bench.held_pycache(tmp_path)
        payload = bench.bench("cached", tmp_path, ["series-warm"], 20)
        assert payload["pycache"] is True
        assert "warning: %s holds __pycache__ files" % tmp_path in capsys.readouterr().err
        (tmp_path / name).unlink()


def test_bench_records_parser_tokens_per_module(tmp_path, monkeypatch, capsys):
    """scripts/bench.py records the parser tokens of every module under
    src/, as many as tokenize gives less comments and non-logical line
    breaks, and warns on stderr for a module at or above 4,096 tokens, the
    step at which CPython 3.11's parser doubles its token records."""
    bench = load_script("bench")

    def independent(text):
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)

    counts = bench.parser_tokens(ROOT)
    sources = sorted((ROOT / "src").glob("**/*.py"))
    assert sorted(counts) == [p.relative_to(ROOT).as_posix() for p in sources]
    for path in sources:
        assert counts[path.relative_to(ROOT).as_posix()] == independent(path.read_text()), path

    # a comment, a blank line, a line of six tokens around a bracketed line
    # break, 1,022 of four, the end marker: 4,095; one minus sign more: 4,096
    below = "# a comment\n\nx = (\n    1)\n" + "x = 1\n" * 1022
    at = below.replace("x = 1\n", "x = -1\n", 1)
    for name, text in (("below.py", below), ("at.py", at)):
        (tmp_path / "src" / name).parent.mkdir(exist_ok=True)
        (tmp_path / "src" / name).write_text(text)
    assert bench.parser_tokens(tmp_path) == {"src/at.py": 4096, "src/below.py": 4095}
    assert (independent(below), independent(at)) == (4095, 4096)
    untraced, traced = (
        bench.parse_run((DATA / ("series_warm_trace%d.out" % t)).read_text()) for t in (0, 1)
    )
    monkeypatch.setattr(bench, "run_workload", lambda tree, w, s, trace: (untraced, traced)[trace])
    monkeypatch.setattr(bench, "revision", lambda tree: ("0" * 40, {}))
    payload = bench.bench("tokens", tmp_path, ["series-warm"], 20)
    assert payload["tokens"] == {"src/at.py": 4096, "src/below.py": 4095}
    err = capsys.readouterr().err
    assert "warning: src/at.py holds 4096 parser tokens" in err and "below.py" not in err


def test_every_src_module_stays_below_the_token_step():
    """No module under src/ holds TOKEN_STEP (4,096) parser tokens or more,
    as scripts/bench.py counts them: past that step CPython 3.11's parser
    doubles its token records, and compiling the module raises peak RSS."""
    bench = load_script("bench")
    over = {path: count for path, count in bench.parser_tokens(ROOT).items()
            if count >= bench.TOKEN_STEP}
    assert over == {}, over
