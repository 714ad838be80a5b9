"""Small helpers shared by the benchmark entry point and its units."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import sys
import threading
import time
from fractions import Fraction

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def tail_percentile(values, beyond=TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples above it.

    Returns (percentile, value, count): the value at sorted rank
    len(values) - beyond, its percentile 100 * rank / count, and the sample
    count.  None when there are not more than `beyond` samples.
    """
    count = len(values)
    if count <= beyond:
        return None
    rank = count - beyond
    return 100.0 * rank / count, sorted(values)[rank - 1], count


# probe samples: one every PROBE_PERIOD_S; REFERENCE_S is the median sample
# on the 2-vCPU Intel Xeon host (Python 3.11.7) the benchmark was tuned on
PROBE_PERIOD_S = 0.25
REFERENCE_S = 0.004
# a unit too short for this many samples tops them up when it ends
PROBE_MIN_SAMPLES = 5


def reference_loop():
    """A few milliseconds of fixed standard-library work in the mix the
    package runs: Fraction arithmetic, tuple keys in a dict, big integers.
    It never calls the package, so no change to the package changes it."""
    rng = random.Random(1)
    acc = Fraction(0)
    counts = {}
    for _ in range(300):
        q = Fraction(rng.randint(-100, 100), rng.randint(1, 20))
        acc += q * q
        key = tuple(sorted(rng.randint(0, 9) for _ in range(4)))
        counts[key] = counts.get(key, 0) + 1
    x = 1
    for _ in range(20):
        x = x * 3**50 % (2**521 - 1)
    return acc, len(counts), x


def reference_sample():
    """CPU seconds this thread spends on one reference loop."""
    started = time.thread_time()
    reference_loop()
    return time.thread_time() - started


class SpeedProbe:
    """Samples the reference loop on a side thread while a unit runs.

    Shared hosts change speed by 20% and more within seconds to minutes, and
    the change slows all Python code alike.  Sampled on the same CPU as the
    unit and interleaved with it, the reference loop measures that speed:
    factor() is REFERENCE_S over the median sample, and a time multiplied
    by it is in seconds at the reference speed.  The side thread takes the
    interpreter lock for about 2% of the time.
    """

    def __init__(self, period=PROBE_PERIOD_S):
        self.period = period
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.period):
            self.samples.append(reference_sample())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def factor(self):
        while len(self.samples) < PROBE_MIN_SAMPLES:
            self.samples.append(reference_sample())
        return REFERENCE_S / statistics.median(self.samples)


def pin_to_one_cpu():
    """Keep this process and its threads on one CPU, so the probe shares it."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def digest(results):
    """sha256 of the canonical JSON of a unit's outputs (no time fields)."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def fingerprint(env):
    """What must match before two results may be compared; env is the
    environment the units ran in."""
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {v: env.get(v) for v in THREAD_VARS},
    }
