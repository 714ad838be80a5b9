"""Run the benchmark's workloads and write BENCH_<label>.json.

For each workload, runs perfbench/run.py twice at seed 1, untraced
(--trace 0) and traced (--trace 1), for BENCHMARK.json's run_seconds
each, and keeps the last two lines of each run's standard output: the
detail line (digest, environment fingerprint, units) and the result line
(check counts and metrics).  The file holds the checkout's HEAD commit,
the git tree hashes of its src/ and perfbench/ as measured, the
fingerprint, the seed and the run length, whether src/ or perfbench/
held compiled __pycache__ files before the runs (they change import times
and peak RSS; a warning goes to stderr when they did), the parser tokens
of each module under src/ (the tokenize tokens but comments, blank lines
and line breaks inside brackets; a warning goes to stderr for a module at
or above TOKEN_STEP, past which CPython 3.11's parser allocates twice the
token records and the compile's peak memory, and so peak RSS, jumps), and
per workload
the digest, the check counts, the end-to-end medians of the untraced run
and the per-layer medians of the traced run.  Compare two files only when
their fingerprints match.

Usage: python3 scripts/bench.py --label L [--tree PATH]

--tree benchmarks another checkout, a clone of an earlier commit say, with
its own perfbench/ and BENCHMARK.json; the file goes to this repository's
root.  Exit code 0: every check passed; 1: a check failed (the file is
still written) or a run could not be read; 2: usage.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1
MEASURED = ("src", "perfbench")
TOKEN_STEP = 4096
# tokenize's tokens that CPython's parser never sees
UNPARSED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)


class BenchError(RuntimeError):
    pass


def parse_run(stdout):
    """(detail, result) from the last two lines of one run's output."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise BenchError("a run printed fewer than two lines")
    return json.loads(lines[-2]), json.loads(lines[-1])


def workload_entry(untraced, traced):
    """One workload's record from its untraced and traced (detail, result)
    pairs, which must share digest and fingerprint."""
    (plain, plain_result), (trace, trace_result) = untraced, traced
    if (plain["trace"], trace["trace"]) != (0, 1):
        raise BenchError("expected an untraced and a traced run")
    for key in ("workload", "digest", "fingerprint"):
        if plain[key] != trace[key]:
            raise BenchError("%s differs between the untraced and traced runs" % key)
    return {
        "digest": plain["digest"],
        "fingerprint": plain["fingerprint"],
        "correct": plain_result["correct"] and trace_result["correct"],
        "attempted": plain_result["attempted"] + trace_result["attempted"],
        "failed": plain_result["failed"] + trace_result["failed"],
        "end_to_end": plain_result["metrics"],
        "per_layer": trace_result["metrics"],
    }


def run_workload(tree, workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        raise BenchError("%s --trace %d exited %d:\n%s"
                         % (workload, trace, proc.returncode, proc.stderr[-2000:]))
    return parse_run(proc.stdout)


def revision(tree):
    """The checkout's HEAD commit and the git tree hash of each MEASURED
    directory as it is on disk, uncommitted edits included: once they are
    committed, `git rev-parse <commit>:src` gives the same hash, whatever
    the commit's own hash becomes."""

    def git(*args, env=None):
        proc = subprocess.run(["git", *args], cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode:
            raise BenchError("git %s: %s" % (args[0], proc.stderr.strip()))
        return proc.stdout.strip()

    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "--all", "--", *MEASURED, env=env)
        source = {d: git("write-tree", "--prefix=%s/" % d, env=env) for d in MEASURED}
    return git("rev-parse", "HEAD"), source


def held_pycache(tree):
    """Whether any MEASURED directory of the checkout holds a file under
    a __pycache__ directory."""
    return any(p.is_file() for d in MEASURED for p in (tree / d).glob("**/__pycache__/*"))


def parser_tokens(tree):
    """{path under the checkout: parser tokens} for each module under src/."""
    counts = {}
    for path in sorted((tree / "src").glob("**/*.py")):
        with path.open("rb") as fh:
            tokens = tokenize.tokenize(fh.readline)
            counts[path.relative_to(tree).as_posix()] = sum(t.type not in UNPARSED for t in tokens)
    return counts


def bench(label, tree, workloads, seconds):
    commit, source = revision(tree)
    pycache = held_pycache(tree)
    if pycache:
        print("warning: %s holds __pycache__ files under %s; results may differ from a "
              "fresh checkout's" % (tree, " or ".join(MEASURED)), file=sys.stderr)
    tokens = parser_tokens(tree)
    for path, count in tokens.items():
        if count >= TOKEN_STEP:
            print("warning: %s holds %d parser tokens, at or above CPython 3.11's %d-token "
                  "step; its compile raises peak RSS" % (path, count, TOKEN_STEP), file=sys.stderr)
    entries = {}
    for workload in workloads:
        runs = [run_workload(tree, workload, seconds, trace) for trace in (0, 1)]
        entries[workload] = workload_entry(*runs)
        print("%s: wall_s %.4f, digest %s" % (
            workload, entries[workload]["end_to_end"]["wall_s"]["value"],
            entries[workload]["digest"][:12]), file=sys.stderr)
    fingerprints = [e.pop("fingerprint") for e in entries.values()]
    if any(f != fingerprints[0] for f in fingerprints):
        raise BenchError("fingerprints differ between workloads")
    return {"label": label, "commit": commit, "source": source, "fingerprint": fingerprints[0],
            "pycache": pycache, "tokens": tokens, "seed": SEED, "seconds": seconds,
            "workloads": entries}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--tree", type=pathlib.Path, default=ROOT)
    args = ap.parse_args(argv)
    if not args.label.replace("-", "").replace("_", "").isalnum():
        print("error: --label takes letters, digits, - and _", file=sys.stderr)
        return 2
    try:
        spec = json.loads((args.tree / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        payload = bench(args.label, args.tree, workloads, spec["run_seconds"])
    except (BenchError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0 if all(e["correct"] for e in payload["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
