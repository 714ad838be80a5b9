"""Run the randomized truncation-identity suite and archive the reports.

Full budgets take 0.5 to 0.7 seconds on one core of a 2-vCPU Linux
host with Python 3.11; --fast divides every sample count by ten for a
quick look.  The archived copy lives in reports/truncation_suite.json.

Usage: python3 scripts/truncation_suite.py [--fast] [--seed N] [--out PATH]
"""

import argparse
import json
import pathlib
import sys
import time

from orbitzeta import __version__
from orbitzeta.truncation.sampling import full_suite


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fast", action="store_true")
    ap.add_argument("--seed", type=int, default=20260816)
    ap.add_argument(
        "--out",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "reports"
            / "truncation_suite.json"
        ),
    )
    args = ap.parse_args(argv)

    started = time.perf_counter()
    reports = full_suite(seed=args.seed, fast=args.fast)
    elapsed = time.perf_counter() - started

    payload = {
        "report": "truncation-suite",
        "version": __version__,
        "seed": args.seed,
        "fast": args.fast,
        "seconds": round(elapsed, 1),
        "all_pass": all(r.ok for r in reports),
        "checks": [r.to_json() for r in reports],
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")

    bad = [r for r in reports if not r.ok]
    print(
        "wrote %s: %d checks, %d failures, %.1fs"
        % (out, len(reports), len(bad), elapsed)
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
