"""Survey pole orders and residues of the alternating orbit sums.

Writes one JSON report covering every orbit of size 1 through --max-n.
Sizes up to 3 carry independently-computed anchor values and an agreement
column; larger sizes are exploratory output (the archived copy of this
report lives in reports/pole_survey.json).

Usage: python3 scripts/pole_survey.py [--max-n 6] [--digits 30] [--out PATH]
"""

import argparse
import json
import pathlib
import sys
import time
from fractions import Fraction

import mpmath
from mpmath import mp

from orbitzeta import __version__
from orbitzeta.partitions import enumerate_classes, partitions_of
from orbitzeta.xi_algebra import h_orbit
from orbitzeta.xinumeric import (
    PrecisionConfig,
    formal_cancellation_check,
    laurent_expand,
    residue_anchor,
    residue_at_zero,
)


def as_mpf(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.re(mpmath.mpc(x))


def survey(max_n, digits):
    base = PrecisionConfig.default(working_digits=digits)
    sizes = {}
    with mp.workdps(digits + 15):
        for n in range(1, max_n + 1):
            cfg = base.for_orbit_size(n)
            rows = []
            started = time.perf_counter()
            for p in partitions_of(n):
                expr = h_orbit(p)
                series = laurent_expand(expr, cfg)
                rr = residue_at_zero(series)
                formal = formal_cancellation_check(expr)
                row = {
                    "partition": str(p),
                    "classes": len(enumerate_classes(p)),
                    "pole_order": rr.pole_order,
                    "residue": mpmath.nstr(as_mpf(rr.residue), 15),
                    "residue_error": "%.3e" % rr.residue_error,
                    "formal_deep_vanish": formal.all_deep_vanish,
                    "deep_audit": [
                        {
                            "degree": d,
                            "magnitude": "%.3e" % m,
                            "noise_floor": "%.3e" % f,
                        }
                        for d, m, f in rr.audit
                    ],
                }
                target = residue_anchor(p.parts, digits)
                if target is not None:
                    row["anchor"] = mpmath.nstr(target, 15)
                    row["anchor_diff"] = "%.3e" % abs(as_mpf(rr.residue) - target)
                rows.append(row)
            sizes[str(n)] = {
                "gated": n <= 3,
                "seconds": round(time.perf_counter() - started, 3),
                "orbits": rows,
            }
    return sizes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--digits", type=int, default=30)
    ap.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "reports" / "pole_survey.json"),
    )
    args = ap.parse_args(argv)
    if not 1 <= args.max_n <= 6:
        ap.error("--max-n must be between 1 and 6")

    payload = {
        "report": "pole-survey",
        "version": __version__,
        "working_digits": args.digits,
        "max_n": args.max_n,
        "sizes": survey(args.max_n, args.digits),
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    total = sum(len(v["orbits"]) for v in payload["sizes"].values())
    simple = sum(
        row["pole_order"] == 1
        for v in payload["sizes"].values()
        for row in v["orbits"]
    )
    print("wrote %s: %d orbits, %d with a simple pole" % (out, total, simple))
    return 0


if __name__ == "__main__":
    sys.exit(main())
