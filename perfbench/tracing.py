"""Per-layer tracing from outside the package.

Each traced function is wrapped at every module attribute through which
callers reach it (its home module, the modules that imported it by name, the
package re-exports), so the package itself is never edited.  A wrapper
records one span per call: name, start, end, parent and a few tags or
observations taken from the arguments and the result.  Spans stay in memory
until the unit ends; `layer_metrics` then derives the per-layer numbers.

Self time is a span's duration minus the time its child spans cover.  Busy
time of a name is the summed duration of its outermost spans, so a function
reached through two wrapped routes is never counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time

# orbit sizes that get their own self-time metrics (series-warm reaches 8)
SIZES = tuple(range(1, 9))

VERIFIERS = (
    "verify_langlands",
    "verify_levi_sum",
    "verify_canonical",
    "verify_cones",
    "verify_E",
    "verify_sigma",
    "verify_partition",
)
INSTABILITY = ("canonical_pair", "canonical_pair_brute", "extremal_max_pair", "cone_accepts")
INDICATORS = ("langlands_sum", "arthur_partition_report", "indicator_E", "indicator_sigma")


class Span:
    __slots__ = ("name", "start", "end", "parent", "tags", "info")

    def __init__(self, name, start, parent, tags):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.tags = tags
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.seen_tables = set()

    def open(self, name, tags=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, tags or {})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span %s closed out of order" % span.name)

    @contextlib.contextmanager
    def span(self, name, **tags):
        s = self.open(name, tags)
        try:
            yield s
        finally:
            self.close(s)


class NullTracer:
    """Stands in for a Tracer in untraced units: records nothing."""

    @contextlib.contextmanager
    def span(self, name, **tags):
        yield None


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans):
    """Map id(span) -> duration minus the part covered by its child spans."""
    covered = {}
    for s in spans:
        if s.parent is not None:
            p = s.parent
            lo = max(s.start, p.start)
            hi = min(s.end, p.end)
            if hi > lo:
                covered[id(p)] = covered.get(id(p), 0.0) + (hi - lo)
    return {id(s): s.duration - covered.get(id(s), 0.0) for s in spans}


def _has_ancestor_named(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def outermost(spans, name):
    """Spans of one name that are not nested inside another of that name."""
    return [s for s in spans if s.name == name and not _has_ancestor_named(s, name)]


def size_of(span):
    """Orbit size of the span's own tag or of its nearest tagged ancestor."""
    p = span
    while p is not None:
        if "n" in p.tags:
            return p.tags["n"]
        p = p.parent
    return None


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _partition_size(tracer, args, kwargs):
    p = args[0] if args else kwargs["partition"]
    return {"n": sum(p)}


def _table_key(tracer, args, kwargs):
    from orbitzeta.xinumeric.config import PrecisionConfig

    point = args[0] if args else kwargs["point"]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    key = (config or PrecisionConfig.default(), point)
    miss = key not in tracer.seen_tables
    tracer.seen_tables.add(key)
    return {"miss": miss}


def _residue_info(result):
    margins = [f / m for _, m, f in result.audit if m > 0]
    rel = None
    if result.residue is not None and result.residue != 0:
        rel = float(result.residue_error) / abs(float(result.residue))
    return {
        "indeterminate": len(result.indeterminate_degrees) + (result.pole_order is None),
        "min_margin": min(margins) if margins else None,
        "rel_error": rel,
    }


def _verify_info(result):
    reports = result if isinstance(result, list) else [result]
    return {
        "samples": sum(r.samples for r in reports),
        "failures": sum(len(r.failures) for r in reports),
        "walls": sum(r.stats.get("wall_samples_skipped", 0) for r in reports),
    }


# (home module, function, span name, tags(tracer, args, kwargs) or None,
#  observe(result) or None)
TARGETS = (
    ("orbitzeta.partitions", "enumerate_classes", "partitions.enumerate_classes",
     None, lambda r: {"classes": len(r)}),
    ("orbitzeta.xi_algebra", "h_orbit", "xi_algebra.h_orbit",
     _partition_size, lambda r: {"monomials": len(r.terms)}),
    ("orbitzeta.xi_algebra", "orbit_series_log", "xi_algebra.orbit_series_log", None, None),
    ("orbitzeta.xinumeric.kernel", "expansion_at", "kernel.expansion_at", _table_key, None),
    ("orbitzeta.xinumeric.kernel", "xi_point", "kernel.xi_point", None, None),
    ("orbitzeta.xinumeric.kernel", "zeta_euler_maclaurin", "kernel.zeta_euler_maclaurin",
     None, None),
    ("orbitzeta.xinumeric.kernel", "xi_value_fd", "kernel.xi_value_fd", None, None),
    ("orbitzeta.xinumeric.laurent", "laurent_expand", "laurent.laurent_expand", None, None),
    ("orbitzeta.xinumeric.laurent", "residue_at_zero", "laurent.residue_at_zero",
     None, _residue_info),
    ("orbitzeta.xinumeric.formal", "formal_cancellation_check",
     "formal.formal_cancellation_check", None, lambda r: {"deep_vanish": r.all_deep_vanish}),
    ("orbitzeta.cli", "main", "cli.main", None, None),
) + tuple(
    ("orbitzeta.truncation.sampling", v, "sampling." + v, None, _verify_info)
    for v in VERIFIERS
) + tuple(
    ("orbitzeta.truncation.instability", f, "instability." + f, None, None)
    for f in INSTABILITY
) + tuple(
    ("orbitzeta.truncation.indicators", f, "indicators." + f, None, None)
    for f in INDICATORS
)


def _make_wrapper(tracer, fn, name, tags, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, tags(tracer, args, kwargs) if tags else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            span.info = observe(result)
        return result

    return wrapper


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "orbitzeta" or name.startswith("orbitzeta."))]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target at every package attribute bound to it; on exit put
    the originals back."""
    for home, _, _, _, _ in TARGETS:
        importlib.import_module(home)
    modules = _package_modules()
    replaced = []
    try:
        for home, fname, name, tags, observe in TARGETS:
            original = getattr(sys.modules[home], fname)
            wrapper = _make_wrapper(tracer, original, name, tags, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "partitions.enumerate_classes.calls": "count",
        "partitions.enumerate_classes.busy_s": "s",
        "partitions.enumerate_classes.classes": "count",
        "xi_algebra.h_orbit.self_s": "s",
        "xi_algebra.h_orbit.monomials": "count",
    }
    units.update({"xi_algebra.h_orbit.self_s.n%d" % k: "s" for k in SIZES})
    units.update({
        "xi_algebra.orbit_series_log.busy_s": "s",
        "kernel.expansion_at.calls": "count",
        "kernel.expansion_at.misses": "count",
        "kernel.expansion_at.hit_ratio": "ratio",
        "kernel.expansion_at.miss_busy_s": "s",
        "kernel.table_s": "s",
        "kernel.xi_point.calls": "count",
        "kernel.zeta_euler_maclaurin.calls": "count",
        "kernel.zeta_euler_maclaurin.busy_s": "s",
        "kernel.xi_value_fd.busy_s": "s",
        "laurent.laurent_expand.self_s": "s",
    })
    units.update({"laurent.laurent_expand.self_s.n%d" % k: "s" for k in SIZES})
    units.update({
        "laurent.residue_at_zero.busy_s": "s",
        "laurent.min_floor_margin": "ratio",
        "laurent.indeterminate": "count",
        "laurent.max_residue_rel_error": "ratio",
        "formal.formal_cancellation_check.busy_s": "s",
    })
    units.update({"formal.formal_cancellation_check.busy_s.n%d" % k: "s" for k in SIZES})
    units.update({
        "formal.formal_cancellation_check.deep_vanish": "count",
        "cli.main.self_s": "s",
    })
    for v in VERIFIERS:
        units.update({
            "sampling.%s.busy_s" % v: "s",
            "sampling.%s.samples" % v: "count",
            "sampling.%s.samples_per_s" % v: "1/s",
            "sampling.%s.failures" % v: "count",
        })
    units["sampling.verify_levi_sum.useful_ratio"] = "ratio"
    for f in INSTABILITY:
        units["instability.%s.calls" % f] = "count"
        units["instability.%s.busy_s" % f] = "s"
    for f in INDICATORS:
        units["indicators.%s.calls" % f] = "count"
        units["indicators.%s.busy_s" % f] = "s"
    units["trace.overhead"] = "ratio"
    return units


def layer_metrics(spans):
    """Per-layer metrics of one traced unit (all but trace.overhead).

    Layers the workload never reaches report zero calls and zero time.
    """
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name, n=None):
        return sum(s.duration for s in outermost(by_name.get(name, ()), name)
                   if n is None or size_of(s) == n)

    def self_s(name, n=None):
        return sum(selfs[id(s)] for s in by_name.get(name, ())
                   if n is None or size_of(s) == n)

    def info_sum(name, key):
        return sum(s.info[key] for s in by_name.get(name, ()) if s.info is not None)

    out = {
        "partitions.enumerate_classes.calls": calls("partitions.enumerate_classes"),
        "partitions.enumerate_classes.busy_s": busy("partitions.enumerate_classes"),
        "partitions.enumerate_classes.classes":
            info_sum("partitions.enumerate_classes", "classes"),
        "xi_algebra.h_orbit.self_s": self_s("xi_algebra.h_orbit"),
        "xi_algebra.h_orbit.monomials": info_sum("xi_algebra.h_orbit", "monomials"),
    }
    for k in SIZES:
        out["xi_algebra.h_orbit.self_s.n%d" % k] = self_s("xi_algebra.h_orbit", k)
    out["xi_algebra.orbit_series_log.busy_s"] = busy("xi_algebra.orbit_series_log")

    tables = by_name.get("kernel.expansion_at", [])
    misses = [s.duration for s in tables if s.tags["miss"]]
    out.update({
        "kernel.expansion_at.calls": len(tables),
        "kernel.expansion_at.misses": len(misses),
        "kernel.expansion_at.hit_ratio": 1 - len(misses) / len(tables) if tables else 0.0,
        "kernel.expansion_at.miss_busy_s": sum(misses),
        "kernel.table_s": statistics.median(misses) if misses else 0.0,
        "kernel.xi_point.calls": calls("kernel.xi_point"),
        "kernel.zeta_euler_maclaurin.calls": calls("kernel.zeta_euler_maclaurin"),
        "kernel.zeta_euler_maclaurin.busy_s": busy("kernel.zeta_euler_maclaurin"),
        "kernel.xi_value_fd.busy_s": busy("kernel.xi_value_fd"),
        "laurent.laurent_expand.self_s": self_s("laurent.laurent_expand"),
    })
    for k in SIZES:
        out["laurent.laurent_expand.self_s.n%d" % k] = self_s("laurent.laurent_expand", k)

    residues = [s.info for s in by_name.get("laurent.residue_at_zero", [])
                if s.info is not None]
    margins = [r["min_margin"] for r in residues if r["min_margin"] is not None]
    rels = [r["rel_error"] for r in residues if r["rel_error"] is not None]
    out.update({
        "laurent.residue_at_zero.busy_s": busy("laurent.residue_at_zero"),
        "laurent.min_floor_margin": min(margins) if margins else 0.0,
        "laurent.indeterminate": sum(r["indeterminate"] for r in residues),
        "laurent.max_residue_rel_error": max(rels) if rels else 0.0,
        "formal.formal_cancellation_check.busy_s": busy("formal.formal_cancellation_check"),
    })
    for k in SIZES:
        out["formal.formal_cancellation_check.busy_s.n%d" % k] = busy(
            "formal.formal_cancellation_check", k)
    out["formal.formal_cancellation_check.deep_vanish"] = info_sum(
        "formal.formal_cancellation_check", "deep_vanish")
    out["cli.main.self_s"] = self_s("cli.main")

    for v in VERIFIERS:
        name = "sampling." + v
        b = busy(name)
        samples = info_sum(name, "samples")
        out.update({
            name + ".busy_s": b,
            name + ".samples": samples,
            name + ".samples_per_s": samples / b if b else 0.0,
            name + ".failures": info_sum(name, "failures"),
        })
    levi = out["sampling.verify_levi_sum.samples"]
    walls = info_sum("sampling.verify_levi_sum", "walls")
    out["sampling.verify_levi_sum.useful_ratio"] = 1 - walls / levi if levi else 0.0
    for prefix, names in (("instability.", INSTABILITY), ("indicators.", INDICATORS)):
        for f in names:
            out[prefix + f + ".calls"] = calls(prefix + f)
            out[prefix + f + ".busy_s"] = busy(prefix + f)
    return out
