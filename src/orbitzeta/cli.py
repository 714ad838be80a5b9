"""Command-line surface: orbit tables, residue reports, identity checks.

Subcommands
    orbits           symbolic per-orbit table for one matrix size
    residues         pole/residue report for every orbit of a size
    verify-identity  exact logarithm identity up to a size bound
    verify-cones     randomized cone-partition sweep with exact oracles
    expand           Laurent data for a single orbit product

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
precision trouble.  JSON output is deterministic: identical configuration
(including seed) gives byte-identical bytes; every numeric report embeds
the package version and the precision settings it used.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import mpmath

from . import __version__
from .partitions import Partition, enumerate_classes, partitions_of, young_stats
from .xi_algebra import h_orbit, orbit_series_log, xi_expr_equal, z_orbit
from .xinumeric import (
    ExpansionOrderError,
    PrecisionConfig,
    PrecisionError,
    formal_cancellation_check,
    laurent_expand,
    residue_anchor,
    residue_at_zero,
)

ANCHOR_TOLERANCE = mpmath.mpf("1e-8")
# residues and the pole survey gate pole orders and anchors up to this size
GATED_MAX_N = 3
RESIDUES_MAX_N = 6


def _precision(args):
    """Default precision with the --digits and --order overrides applied."""
    overrides = {}
    if args.digits is not None:
        overrides["working_digits"] = args.digits
    if args.order is not None:
        overrides["expansion_order"] = args.order
    return PrecisionConfig.default(**overrides)


def _emit(payload, fmt, table_lines, csv_rows=None):
    """Render one report dict: JSON is canonical, table is for reading."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        if csv_rows is None:
            raise ValueError("no CSV layout for this command")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        return buf.getvalue()
    return "\n".join(table_lines) + "\n"


def cmd_orbits(args):
    """Symbolic orbit table: diagram cells, zeta-product factors, class
    counts.  No numerics, so sizes up to 12 stay instant."""
    n = args.n
    if n is None or not 1 <= n <= 12:
        raise UsageError("orbits needs --n between 1 and 12")
    rows = []
    for p in partitions_of(n):
        cells = [
            {"row": c.row, "col": c.col, "arm": c.arm, "leg": c.leg, "hook": c.hook}
            for c in young_stats(p)
        ]
        rows.append(
            {
                "partition": str(p),
                "cells": cells,
                "product": str(z_orbit(p)),
                "class_count": len(enumerate_classes(p)),
            }
        )
    payload = {"command": "orbits", "version": __version__, "n": n, "orbits": rows}
    lines = ["orbits of size %d" % n]
    for r in rows:
        lines.append(
            "%-12s classes=%-3d %s" % (r["partition"], r["class_count"], r["product"])
        )
        hooks = ",".join(str(c["hook"]) for c in r["cells"])
        lines.append("             hooks: %s" % hooks)
    csv_rows = [["partition", "class_count", "product", "hooks"]]
    for r in rows:
        csv_rows.append(
            [
                r["partition"],
                r["class_count"],
                r["product"],
                " ".join(str(c["hook"]) for c in r["cells"]),
            ]
        )
    return 0, _emit(payload, args.fmt, lines, csv_rows)


def orbit_residue(p, config):
    """The per-orbit step of `residues` and scripts/pole_survey.py, at the
    caller's mpmath precision: (h, formal, report, anchor, anchor_diff,
    failures).  anchor and anchor_diff are None where no closed form is
    known; failures lists, for sizes up to GATED_MAX_N, a pole order other
    than 1, a deep coefficient not formally zero, or a residue further than
    ANCHOR_TOLERANCE from its anchor."""
    h = h_orbit(p)
    formal = formal_cancellation_check(h)
    rr = residue_at_zero(laurent_expand(h, config))
    anchor = residue_anchor(p.parts, config.working_digits)
    diff = None if anchor is None else abs(rr.residue - anchor)
    failures = []
    if p.n <= GATED_MAX_N:
        if rr.pole_order != 1:
            failures.append("%s: pole order %r" % (p, rr.pole_order))
        if not formal.all_deep_vanish:
            failures.append("%s: deep coefficient not formally zero" % (p,))
        if diff is not None and diff > ANCHOR_TOLERANCE:
            failures.append("%s: residue off anchor by %s" % (p, mpmath.nstr(diff, 3)))
    return h, formal, rr, anchor, diff, failures


def cmd_residues(args):
    """Per-orbit pole data for one size: symbolic sum, formal cancellation
    verdicts, numeric pole order, residue with propagated error.

    Sizes up to GATED_MAX_N are gated by orbit_residue; the command exits 1
    when any gated value or pole order deviates.
    """
    n = args.n
    if n is None or not 1 <= n <= RESIDUES_MAX_N:
        raise UsageError("residues needs --n between 1 and %d" % RESIDUES_MAX_N)
    pcfg = _precision(args).for_orbit_size(n)
    gate_failures = []
    rows = []
    for p in partitions_of(n):
        h, formal, rr, anchor, diff, failures = orbit_residue(p, pcfg)
        row = {
            "partition": str(p),
            "symbolic": str(h),
            "formal": formal.to_json(),
            "pole_order": rr.pole_order,
            "residue": mpmath.nstr(rr.residue, 12),
            "residue_error": "%.3e" % rr.residue_error,
        }
        if anchor is not None and n <= GATED_MAX_N:
            row["anchor"] = mpmath.nstr(anchor, 12)
            row["anchor_diff"] = "%.3e" % diff
        gate_failures += failures
        rows.append(row)
    payload = {
        "command": "residues",
        "version": __version__,
        "n": n,
        "precision": pcfg.to_json(),
        "gated": n <= GATED_MAX_N,
        "gate_failures": gate_failures,
        "orbits": rows,
    }
    lines = ["residues at size %d (digits=%d)" % (n, pcfg.working_digits)]
    for r in rows:
        lines.append(
            "%-12s pole=%-4s residue=%s +/- %s"
            % (r["partition"], r["pole_order"], r["residue"], r["residue_error"])
        )
        if "anchor" in r:
            lines.append("             anchor=%s diff=%s" % (r["anchor"], r["anchor_diff"]))
    for msg in gate_failures:
        lines.append("GATE FAIL: %s" % msg)
    csv_rows = [["partition", "pole_order", "residue", "residue_error"]]
    for r in rows:
        csv_rows.append([r["partition"], r["pole_order"], r["residue"], r["residue_error"]])
    return (1 if gate_failures else 0), _emit(payload, args.fmt, lines, csv_rows)


def cmd_verify_identity(args):
    """Exact check that the orbit-series logarithm reproduces every
    alternating orbit sum up to the bound; no tolerances involved."""
    bound = args.max_n
    if not 1 <= bound <= 6:
        raise UsageError("verify-identity needs --max-n between 1 and 6")
    series = orbit_series_log(bound)
    mismatches = []
    # constant term of the log vanishes: the empty orbit carries sum zero
    checked = 1
    if not series.coefficient(Partition(())).is_zero:
        mismatches.append("()")
    for n in range(1, bound + 1):
        for p in partitions_of(n):
            checked += 1
            if not xi_expr_equal(series.coefficient(p), h_orbit(p)):
                mismatches.append(str(p))
    payload = {
        "command": "verify-identity",
        "version": __version__,
        "identity": "log-of-orbit-series",
        "max_n": bound,
        "coefficients_checked": checked,
        "failures": mismatches,
        "pass": not mismatches,
    }
    lines = [
        "identity check through size %d: %d coefficients, %s"
        % (bound, checked, "pass" if not mismatches else "FAIL %s" % mismatches)
    ]
    return (0 if not mismatches else 1), _emit(payload, args.fmt, lines)


def _chamber_rows(n):
    """One row per ordered index partition with a representative point:
    block j gets value (r - j), descending, so the representative must be
    accepted by exactly its own cone."""
    from .truncation import cone_accepts, cone_membership, semistandard_all

    rows = [["blocks", "representative", "accepted", "membership_match"]]
    for prime in semistandard_all(n):
        H = [0] * n
        r = len(prime.blocks)
        for j, blk in enumerate(prime.blocks):
            for i in blk:
                H[i] = r - j
        accepted = cone_accepts(prime, H)
        match = cone_membership(H) == prime
        rows.append([str(prime), " ".join(str(v) for v in H), accepted, match])
    return rows


def cmd_verify_cones(args):
    """Randomized cone-partition sweep (JSON/table) or exhaustive chamber
    audit (CSV).  The truncation layer (and numpy) loads only here."""
    from .truncation.sampling import verify_cones

    n = args.n if args.n is not None else 3
    if not 1 <= n <= 5:
        raise UsageError("verify-cones needs --n between 1 and 5")
    if args.samples < 0 or args.seed < 0:
        raise UsageError("verify-cones needs --samples and --seed of at least 0")
    if args.fmt == "csv":
        rows = _chamber_rows(n)
        bad = [r for r in rows[1:] if not (r[2] and r[3])]
        return (0 if not bad else 1), _emit(None, "csv", [], rows)
    report = verify_cones(n=n, samples=args.samples, seed=args.seed)
    payload = dict(report.to_json(), command="verify-cones", version=__version__,
                   seed=args.seed)
    lines = [
        "cone partition n=%d: %d points, %d failures"
        % (n, report.samples, len(report.failures))
    ]
    return (0 if report.ok else 1), _emit(payload, args.fmt, lines)


def cmd_expand(args):
    """Laurent data for one orbit: the alternating sum by default, the
    plain product with --what z."""
    if args.partition is None:
        raise UsageError("expand needs --partition")
    p = Partition.parse(args.partition)
    pcfg = _precision(args).for_orbit_size(p.n)
    expr = h_orbit(p) if args.what == "h" else z_orbit(p)
    series = laurent_expand(expr, pcfg)
    rr = residue_at_zero(series)
    residue = rr.to_json()
    payload = {
        "command": "expand",
        "version": __version__,
        "partition": str(p),
        "what": args.what,
        "precision": pcfg.to_json(),
        "symbolic": str(expr),
        "series": dict(
            series.to_json(), pole_order=rr.pole_order, residue=residue["residue"]
        ),
        "residue": residue,
    }
    lines = ["%s for %s" % ("sum" if args.what == "h" else "product", p)]
    for d in series.degrees():
        c, err = series.coefficient(d)
        lines.append("  s^%-3d %s  +/- %s" % (d, mpmath.nstr(c, 12), "%.3e" % err))
    lines.append("pole order: %s" % rr.pole_order)
    return 0, _emit(payload, args.fmt, lines)


class UsageError(ValueError):
    pass


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orbitzeta",
        description="orbit zeta products, residues, and exact identity checks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, n=False, partition=False, max_n=False, numeric=False,
               sampled=False, what=False):
        if n:
            sp.add_argument("--n", type=int, default=None, help="matrix size")
        if partition:
            sp.add_argument("--partition", type=str, default=None,
                            help="orbit partition, e.g. 2,1")
        if max_n:
            sp.add_argument("--max-n", type=int, default=6, dest="max_n",
                            help="size bound for exhaustive checks")
        if numeric:
            sp.add_argument("--digits", type=int, default=None, help="working digits")
            sp.add_argument("--order", type=int, default=None,
                            help="series expansion order")
        if sampled:
            sp.add_argument("--samples", type=int, default=1000)
            sp.add_argument("--seed", type=int, default=20260816)
        sp.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", dest="fmt")
        if what:
            sp.add_argument("--what", choices=("h", "z"), default="h",
                            help="expand the alternating sum or the product")

    common(sub.add_parser("orbits", help="symbolic orbit table"), n=True)
    common(sub.add_parser("residues", help="pole and residue report"),
           n=True, numeric=True)
    common(sub.add_parser("verify-identity", help="exact series identity"),
           max_n=True)
    common(sub.add_parser("verify-cones", help="cone partition sweep"),
           n=True, sampled=True)
    common(sub.add_parser("expand", help="Laurent data for one orbit"),
           partition=True, numeric=True, what=True)
    return parser


DISPATCH = {
    "orbits": cmd_orbits,
    "residues": cmd_residues,
    "verify-identity": cmd_verify_identity,
    "verify-cones": cmd_verify_cones,
    "expand": cmd_expand,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = DISPATCH[args.command](args)
    except (PrecisionError, ExpansionOrderError) as exc:
        print("precision error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
