"""orbitzeta benchmark: command-line entry point.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs units of one workload, each in a fresh interpreter and one at a time,
until S seconds have passed.  With --trace 1 untraced and traced units
alternate, starting untraced, until S seconds have passed and both kinds
ran.  An untraced run then starts set-up-only interpreters until it holds
MIN_SETUPS set-ups or has spent SETUP_EXTRA_S seconds on them, so setup_s
is a median of several.

Every time reported is a unit's measured time multiplied by its speed
factor (see stats.SpeedProbe): seconds at the reference speed, so that the
host's changes of speed cancel.  The detail line keeps the unscaled times
and the factors.  Per-layer times are not scaled.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end medians over the untraced
units; with --trace 1 they are the per-layer medians over the traced units
plus trace.overhead.  The line before it holds the details: every unit, the
output digest and the environment fingerprint.  Results whose fingerprints
differ are not comparable.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import stats
import tracing
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
MIN_SETUPS = 7
SETUP_EXTRA_S = 3.0
# a run stops starting units once the next one might end past this
RUN_BUDGET_S = 150
UNIT_TIMEOUT_S = 160


class UnitFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in stats.THREAD_VARS})
    # the package reads its working digits from here; inputs come from the seed only
    env.pop("ORBITZETA_DIGITS", None)
    return env


def spawn_unit(workload, seed, mode):
    """Run one unit; mode is "0" (untraced), "1" (traced) or "setup"."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "unit.py"), workload, str(seed), mode, repr(spawned_at)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=UNIT_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise UnitFailed("unit exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    unit = json.loads(proc.stdout.strip().splitlines()[-1])
    unit["elapsed_s"] = time.monotonic() - spawned_at
    return unit


def run_units(workload, seed, seconds, trace):
    units = []
    started = time.monotonic()
    while True:
        traced = trace and len(units) % 2 == 1
        units.append(spawn_unit(workload, seed, "1" if traced else "0"))
        elapsed = time.monotonic() - started
        done = elapsed >= seconds and (not trace or len(units) >= 2)
        longest = max(u["elapsed_s"] for u in units)
        if done or elapsed + longest > RUN_BUDGET_S:
            return units


def extra_setups(workload, seed, units):
    """Set-up-only units, within the extra-set-up budget."""
    extra = []
    typical = statistics.median(u["setup_s"] for u in units)
    while (len(units) + len(extra) < MIN_SETUPS
           and sum(u["setup_s"] for u in extra) + typical <= SETUP_EXTRA_S):
        extra.append(spawn_unit(workload, seed, "setup"))
    return extra


def orbit_times(untraced):
    """Median over units of the per-orbit median and tail, in scaled ms."""
    p50s, tails = [], []
    tail = None
    for u in untraced:
        if not u["orbit_s"]:
            return {}
        ms = [t * u["speed"] * 1e3 for t in u["orbit_s"]]
        p50s.append(statistics.median(ms))
        tail = stats.tail_percentile(ms)
        if tail is not None:
            tails.append(tail[1])
    out = {"orbit_p50_ms": statistics.median(p50s)}
    if tail is not None and tail[0] >= 50:
        out.update({"orbit_tail_ms": statistics.median(tails),
                    "orbit_tail_percentile": tail[0], "orbit_count": tail[2]})
    return out


def scaled(unit, key):
    return unit[key] * unit["speed"]


def summarize(workload, seed, trace, units, setups=()):
    untraced = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    digests = sorted({u["digest"] for u in units})
    failures = [f for u in units for f in u["failures"]]
    failed = sum(u["failed"] for u in units)
    if len(digests) > 1:
        failed += 1
        failures.append("outputs differ between units of one seed")
    attempted = sum(u["attempted"] for u in units) + 1

    def med(key, among):
        return statistics.median(scaled(u, key) for u in among)

    if trace:
        layer_names = tracing.layer_units()
        values = {name: statistics.median(u["layers"][name] for u in traced)
                  for name in layer_names if name != "trace.overhead"}
        values["trace.overhead"] = med("wall_s", traced) / med("wall_s", untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer_names.items()}
    else:
        values = {
            "setup_s": med("setup_s", untraced + list(setups)),
            "wall_s": med("wall_s", untraced),
            "items_per_s": statistics.median(u["items"] / scaled(u, "wall_s") for u in untraced),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}

    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "digest": digests[0] if len(digests) == 1 else digests,
        "fingerprint": stats.fingerprint(child_env()),
        "failures": failures[:10],
        "units": [{k: u[k] for k in ("traced", "speed", "setup_s", "wall_s", "items",
                                     "peak_rss_mb")}
                  for u in units],
        "setup_only": [{k: u[k] for k in ("speed", "setup_s")} for u in setups],
    }
    detail.update(orbit_times(untraced))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(description="orbitzeta benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "orbitzeta" / "__init__.py").is_file():
        print("error: no orbitzeta sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    try:
        units = run_units(args.workload, args.seed, args.seconds, bool(args.trace))
        setups = [] if args.trace else extra_setups(args.workload, args.seed, units)
    except (UnitFailed, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    detail, result = summarize(args.workload, args.seed, bool(args.trace), units, setups)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
