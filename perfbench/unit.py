"""One unit of a workload in a fresh interpreter: set-up, timed step, check.

Usage: python3 perfbench/unit.py WORKLOAD SEED MODE SPAWNED_AT

MODE is 0 (untraced), 1 (traced) or setup (set-up only, nothing timed).
SPAWNED_AT is the parent's time.monotonic() reading just before it started
this interpreter, so set-up time includes interpreter start and imports.
The unit runs on one CPU with a stats.SpeedProbe beside it, and reports its
speed factor with its unscaled times.  Prints one JSON line describing the
unit.  A traced unit wraps the package's public functions before set-up and
carries per-layer metrics.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_unit(workload, seed, traced, spawned_at):
    setup, timed, check = WORKLOADS[workload]
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    with stats.SpeedProbe() as probe, \
            tracing.installed(tracer) if traced else contextlib.nullcontext():
        state = setup(seed, ROOT)
        started = time.monotonic()
        out = timed(state, tracer)
        wall_s = time.monotonic() - started
    attempted, failures = check(state, out)
    unit = {
        "speed": probe.factor(),
        "setup_s": started - spawned_at,
        "wall_s": wall_s,
        "items": out["items"],
        "orbit_s": out["orbit_s"],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "digest": stats.digest(out["results"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traced": traced,
    }
    if traced:
        unit["layers"] = tracing.layer_metrics(tracer.spans)
    return unit


def setup_only(workload, seed, spawned_at):
    with stats.SpeedProbe() as probe:
        WORKLOADS[workload][0](seed, ROOT)
        setup_s = time.monotonic() - spawned_at
    return {"speed": probe.factor(), "setup_s": setup_s}


def main(argv):
    workload, seed, mode, spawned_at = argv
    stats.pin_to_one_cpu()
    if mode == "setup":
        unit = setup_only(workload, int(seed), float(spawned_at))
    else:
        unit = run_unit(workload, int(seed), mode == "1", float(spawned_at))
    sys.stdout.write(json.dumps(unit) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
