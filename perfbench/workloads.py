"""The four benchmark workloads.

Each workload has a set-up step, a timed step and a check step.  Set-up and
the timed step run in a fresh interpreter (see unit.py); the check step runs
after the clock stops.  The timed step calls the package only through module
attributes looked up at call time, so wrappers installed by tracing.py see
every call.

A timed step returns a dict with
    results  JSON-able outputs, no time fields (hashed into the digest);
    items    orbits given both a formal verdict and a numeric pole order,
             or verifier samples;
    orbit_s  per-orbit seconds where the workload times orbits singly.
A check step returns (attempted, failures).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction

# truncation-suite runs full_suite's eight verifier calls with every sample
# count divided by this factor
SUITE_DIVISOR = 50
# truncation-batch sample counts
LEVI_SAMPLES = 10000
E_SAMPLES = 25000
# series-warm covers every orbit up to this size
WARM_MAX_N = 8
# residues-cold: CLI sizes, then the library survey at one more size
CLI_SIZES = tuple(range(1, 7))
SURVEY_N = 7
# the CLI prints residues to this many significant digits
CLI_DIGITS = 12


def _residue_text(value, digits):
    import mpmath

    if isinstance(value, Fraction):
        value = mpmath.mpf(value.numerator) / value.denominator
    return mpmath.nstr(mpmath.re(value), digits)


def _orbit_key(p):
    return (p.n, p.parts)


# ---------------------------------------------------------------------------
# residues-cold
# ---------------------------------------------------------------------------


def residues_cold_setup(seed, root, survey_n=SURVEY_N):
    import orbitzeta.cli  # noqa: F401  (import cost belongs to set-up)
    from orbitzeta.partitions import partitions_of

    with open(root / "reports" / "pole_survey.json") as fh:
        survey = json.load(fh)
    order = list(partitions_of(survey_n))
    random.Random(seed).shuffle(order)
    return {"survey": survey, "order": order, "survey_n": survey_n}


def residues_cold_run(state, tracer, cli_sizes=CLI_SIZES):
    from orbitzeta import cli, xi_algebra
    from orbitzeta.xinumeric import config, formal, laurent

    runs = []
    for k in cli_sizes:
        buf = io.StringIO()
        with tracer.span("bench.cli", n=k), contextlib.redirect_stdout(buf):
            code = cli.main(["residues", "--n", str(k), "--format", "json"])
        report = json.loads(buf.getvalue()) if code == 0 else None
        runs.append({"n": k, "exit": code, "report": report})

    cfg = config.PrecisionConfig.default().for_orbit_size(state["survey_n"])
    rows = []
    orbit_s = []
    for p in state["order"]:
        started = time.perf_counter()
        with tracer.span("bench.orbit", n=p.n):
            h = xi_algebra.h_orbit(p)
            rr = laurent.residue_at_zero(laurent.laurent_expand(h, cfg))
            verdict = formal.formal_cancellation_check(h)
        orbit_s.append(time.perf_counter() - started)
        rows.append({
            "partition": str(p),
            "key": _orbit_key(p),
            "pole_order": rr.pole_order,
            "residue": _residue_text(rr.residue, 15),
            "residue_error": "%.3e" % rr.residue_error,
            "deep_vanish": verdict.all_deep_vanish,
        })
    rows.sort(key=lambda r: r.pop("key"))
    items = sum(len(r["report"]["orbits"]) for r in runs if r["report"]) + len(rows)
    return {"results": {"cli": runs, "survey": rows}, "items": items, "orbit_s": orbit_s}


def residues_cold_check(state, out):
    import mpmath

    surveyed = state["survey"]["sizes"]
    attempted = 0
    failures = []
    for run in out["results"]["cli"]:
        attempted += 1
        if run["exit"] != 0:
            failures.append("residues --n %d exited %d" % (run["n"], run["exit"]))
            continue
        expected = {o["partition"]: o for o in surveyed[str(run["n"])]["orbits"]}
        for row in run["report"]["orbits"]:
            attempted += 2
            want = expected.get(row["partition"])
            if want is None or row["pole_order"] != want["pole_order"]:
                failures.append("n=%d %s: pole order %r" % (run["n"], row["partition"],
                                                            row["pole_order"]))
            if want is None or row["residue"] != mpmath.nstr(mpmath.mpf(want["residue"]),
                                                             CLI_DIGITS):
                failures.append("n=%d %s: residue %s off the survey" % (
                    run["n"], row["partition"], row["residue"]))
    for row in out["results"]["survey"]:
        attempted += 2
        if row["pole_order"] != 1:
            failures.append("%s: pole order %r" % (row["partition"], row["pole_order"]))
        if not row["deep_vanish"]:
            failures.append("%s: deep coefficient not formally zero" % row["partition"])
    return attempted, failures


# ---------------------------------------------------------------------------
# series-warm
# ---------------------------------------------------------------------------


def series_warm_setup(seed, root, max_n=WARM_MAX_N):
    from orbitzeta.partitions import partitions_of
    from orbitzeta.xinumeric import config, kernel

    cfg = config.PrecisionConfig.default().for_orbit_size(max_n)
    # every factor of an orbit of size <= max_n sits at a point 1..max_n
    for point in range(1, max_n + 1):
        kernel.expansion_at(point, cfg)
    order = [p for n in range(1, max_n + 1) for p in partitions_of(n)]
    random.Random(seed).shuffle(order)
    return {"cfg": cfg, "order": order, "max_n": max_n}


def series_warm_run(state, tracer):
    from orbitzeta import xi_algebra
    from orbitzeta.xinumeric import formal, laurent

    cfg = state["cfg"]
    rows = []
    sums = {}
    orbit_s = []
    for p in state["order"]:
        started = time.perf_counter()
        with tracer.span("bench.orbit", n=p.n):
            h = xi_algebra.h_orbit(p)
            rr = laurent.residue_at_zero(laurent.laurent_expand(h, cfg))
            rz = laurent.residue_at_zero(laurent.laurent_expand(xi_algebra.z_orbit(p), cfg))
            verdict = formal.formal_cancellation_check(h)
        orbit_s.append(time.perf_counter() - started)
        sums[p] = h
        rows.append({
            "partition": str(p),
            "key": _orbit_key(p),
            "pole_order": rr.pole_order,
            "residue": _residue_text(rr.residue, 15),
            "residue_error": "%.3e" % rr.residue_error,
            "z_pole_order": rz.pole_order,
            "z_residue": _residue_text(rz.residue, 15),
            "deep_vanish": verdict.all_deep_vanish,
        })
    rows.sort(key=lambda r: r.pop("key"))

    bound = min(6, state["max_n"])
    log = xi_algebra.orbit_series_log(bound)
    identity = [str(p) for p in sorted(sums, key=_orbit_key)
                if p.n <= bound and log.coefficient(p) != sums[p]]
    if not log.coefficient(()).is_zero:
        identity.append("()")
    results = {"orbits": rows, "identity_bound": bound, "identity_mismatches": identity}
    return {"results": results, "items": len(rows), "orbit_s": orbit_s}


def series_warm_check(state, out):
    attempted = 1
    failures = ["orbit_series_log differs at %s" % p
                for p in out["results"]["identity_mismatches"]]
    for row in out["results"]["orbits"]:
        attempted += 2
        if row["pole_order"] != 1:
            failures.append("%s: pole order %r" % (row["partition"], row["pole_order"]))
        if not row["deep_vanish"]:
            failures.append("%s: deep coefficient not formally zero" % row["partition"])
    return attempted, failures


# ---------------------------------------------------------------------------
# truncation workloads
# ---------------------------------------------------------------------------


def truncation_setup(seed, root):
    import orbitzeta.truncation.sampling  # noqa: F401

    return {"seed": seed}


def _reports_outcome(reports):
    return {
        "results": [r.to_json() for r in reports],
        "items": sum(r.samples for r in reports),
        "orbit_s": [],
    }


def truncation_suite_run(state, tracer, divisor=SUITE_DIVISOR):
    """full_suite's eight verifier calls, in order, at 1/divisor of the budgets."""
    from orbitzeta.truncation import sampling

    seed = state["seed"]
    d = divisor
    plan = tuple((n, c // d) for n, c in ((2, 1000), (3, 2000), (4, 3000), (5, 4000)))
    reports = []
    reports += sampling.verify_langlands(samples=10000 // d, seed=seed)
    reports += sampling.verify_levi_sum(samples=10000 // d, seed=seed)
    reports += sampling.verify_canonical(sample_plan=plan, seed=seed)
    reports.append(sampling.verify_cones(n=3, samples=1000 // d, seed=seed))
    reports.append(sampling.verify_cones(n=4, samples=1000 // d, seed=seed))
    reports += sampling.verify_E(samples=10000 // d, sandwich_samples=2000 // d, seed=seed)
    reports += sampling.verify_sigma(samples=1000 // d, focus_samples=10000 // d, seed=seed)
    reports += sampling.verify_partition(samples=1000 // d, seed=seed)
    return _reports_outcome(reports)


def truncation_batch_run(state, tracer, levi_samples=LEVI_SAMPLES, e_samples=E_SAMPLES):
    from orbitzeta.truncation import sampling

    seed = state["seed"]
    reports = []
    reports += sampling.verify_levi_sum(max_n=6, samples=levi_samples, seed=seed)
    reports += sampling.verify_E(max_n=5, samples=e_samples, sandwich_samples=0, seed=seed)
    return _reports_outcome(reports)


def truncation_check(state, out):
    failures = ["%s n=%d: %d failures, first %s" % (
        r["identity"], r["n"], len(r["failures"]), r["failures"][0])
        for r in out["results"] if not r["pass"]]
    return len(out["results"]), failures


# name -> (setup, timed step, check)
WORKLOADS = {
    "residues-cold": (residues_cold_setup, residues_cold_run, residues_cold_check),
    "series-warm": (series_warm_setup, series_warm_run, series_warm_check),
    "truncation-suite": (truncation_setup, truncation_suite_run, truncation_check),
    "truncation-batch": (truncation_setup, truncation_batch_run, truncation_check),
}
