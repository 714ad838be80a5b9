"""Survey pole orders and residues of the alternating orbit sums.

Writes one JSON report covering every orbit of size 1 through --max-n, with
an anchor column wherever a closed form is known.  Each orbit goes through
orbitzeta.cli.orbit_residue, so sizes up to GATED_MAX_N are gated as in
`orbitzeta residues`: a failure is listed and the exit code is 1.  Larger
sizes are exploratory output (archived in reports/pole_survey.json).

Usage: python3 scripts/pole_survey.py [--max-n 6] [--digits 30] [--out PATH]
"""

import argparse
import json
import pathlib
import sys
import time

import mpmath
from mpmath import mp

from orbitzeta import __version__
from orbitzeta.cli import GATED_MAX_N, RESIDUES_MAX_N, orbit_residue
from orbitzeta.partitions import enumerate_classes, partitions_of
from orbitzeta.xinumeric import PrecisionConfig
from orbitzeta.xinumeric.laurent import as_mpf


def survey(max_n, base):
    """Per-size report for sizes 1..max_n at the precision base and the
    gate failures."""
    sizes = {}
    gate_failures = []
    with mp.workdps(base.working_digits + 15):
        for n in range(1, max_n + 1):
            cfg = base.for_orbit_size(n)
            rows = []
            started = time.perf_counter()
            for p in partitions_of(n):
                _, formal, rr, anchor, diff, failures = orbit_residue(p, cfg)
                gate_failures += failures
                row = {
                    "partition": str(p),
                    "classes": len(enumerate_classes(p)),
                    "pole_order": rr.pole_order,
                    "residue": mpmath.nstr(as_mpf(rr.residue), 15),
                    "residue_error": "%.3e" % rr.residue_error,
                    "formal_deep_vanish": formal.all_deep_vanish,
                    "deep_audit": rr.to_json()["audit"],
                }
                if anchor is not None:
                    row["anchor"] = mpmath.nstr(anchor, 15)
                    row["anchor_diff"] = "%.3e" % diff
                rows.append(row)
            sizes[str(n)] = {
                "gated": n <= GATED_MAX_N,
                "seconds": round(time.perf_counter() - started, 3),
                "orbits": rows,
            }
    return sizes, gate_failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--digits", type=int, default=30)
    ap.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "reports" / "pole_survey.json"),
    )
    args = ap.parse_args(argv)
    if not 1 <= args.max_n <= RESIDUES_MAX_N:
        ap.error("--max-n must be between 1 and %d" % RESIDUES_MAX_N)
    try:
        base = PrecisionConfig.default(working_digits=args.digits)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sizes, gate_failures = survey(args.max_n, base)

    payload = {
        "report": "pole-survey",
        "version": __version__,
        "working_digits": args.digits,
        "max_n": args.max_n,
        "sizes": sizes,
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")

    total = sum(len(v["orbits"]) for v in payload["sizes"].values())
    simple = sum(
        row["pole_order"] == 1
        for v in payload["sizes"].values()
        for row in v["orbits"]
    )
    print("wrote %s: %d orbits, %d with a simple pole" % (out, total, simple))
    for msg in gate_failures:
        print("GATE FAIL: %s" % msg)
    return 1 if gate_failures else 0


if __name__ == "__main__":
    sys.exit(main())
