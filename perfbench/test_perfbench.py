"""Tests of the benchmark's own helpers.

Run with: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import itertools
import json
import sys

import pytest

import unit  # puts the package sources on sys.path
import run
import stats
import tracing
import workloads

from orbitzeta.xinumeric import config as xconfig
from orbitzeta.xinumeric import kernel, laurent


def fake_clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_tail_percentile_leaves_ten_beyond():
    values = list(range(66, 0, -1))
    pct, value, count = stats.tail_percentile(values)
    assert count == 66
    assert value == 56
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 56 / 66)


def test_tail_percentile_needs_more_than_ten_samples():
    assert stats.tail_percentile([1.0] * 10) is None
    assert stats.tail_percentile(list(range(11))) == (100 / 11, 0, 11)


def test_speed_probe_samples_at_least_the_minimum():
    with stats.SpeedProbe(period=3600) as probe:
        pass
    factor = probe.factor()
    assert len(probe.samples) == stats.PROBE_MIN_SAMPLES
    assert factor == stats.REFERENCE_S / sorted(probe.samples)[len(probe.samples) // 2]


def test_self_time_subtracts_children_only():
    tracer = tracing.Tracer(clock=fake_clock(0, 1, 1.5, 2.5, 3, 4, 5, 10))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("d"):
                pass
        with tracer.span("c"):
            pass
    a, b, d, c = tracer.spans
    assert b.parent is a and d.parent is b and c.parent is a
    selfs = tracing.self_times(tracer.spans)
    assert selfs[id(a)] == 10 - 2 - 1
    assert selfs[id(b)] == 2 - 1
    assert selfs[id(d)] == 1
    assert selfs[id(c)] == 1


def test_size_comes_from_nearest_tagged_ancestor():
    tracer = tracing.Tracer(clock=fake_clock(*range(6)))
    with tracer.span("orbit", n=4):
        with tracer.span("inner"):
            with tracer.span("h", n=2):
                pass
    orbit, inner, h = tracer.spans
    assert tracing.size_of(inner) == 4
    assert tracing.size_of(h) == 2


def test_busy_time_counts_nested_same_name_once():
    tracer = tracing.Tracer(clock=fake_clock(0, 1, 2, 5))
    with tracer.span("f"):
        with tracer.span("f"):
            pass
    assert [s.duration for s in tracing.outermost(tracer.spans, "f")] == [5]


def _attribute_ids():
    return {(name, attr): id(value)
            for name, module in sorted(sys.modules.items())
            if module is not None and name.split(".")[0] == "orbitzeta"
            for attr, value in vars(module).items()}


def test_install_wraps_every_alias_and_restore_puts_back_originals():
    import orbitzeta
    from orbitzeta import cli, xi_algebra

    before = _attribute_ids()
    original = xi_algebra.h_orbit
    with tracing.installed(tracing.Tracer()):
        wrapped = xi_algebra.h_orbit
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert orbitzeta.h_orbit is wrapped and cli.h_orbit is wrapped
        assert laurent.expansion_at is kernel.expansion_at
        assert kernel.expansion_at.__wrapped__ is not None
    assert xi_algebra.h_orbit is original
    assert _attribute_ids() == before


def test_table_miss_is_first_sight_of_config_and_point():
    small = xconfig.PrecisionConfig(working_digits=5, expansion_order=2, contour_nodes=16)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        kernel.expansion_at(2, small)
        laurent.expansion_at(2, small)  # same key through another attribute
        kernel.expansion_at(3, small)
        kernel.expansion_at(3, config=small)
    spans = [s for s in tracer.spans if s.name == "kernel.expansion_at"]
    assert [s.tags["miss"] for s in spans] == [True, False, True, False]
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["kernel.expansion_at.calls"] == 4
    assert metrics["kernel.expansion_at.misses"] == 2
    assert metrics["kernel.expansion_at.hit_ratio"] == 0.5


SMALL = {
    "residues-cold": (
        functools.partial(workloads.residues_cold_setup, survey_n=3),
        functools.partial(workloads.residues_cold_run, cli_sizes=(1, 2)),
    ),
    "series-warm": (
        functools.partial(workloads.series_warm_setup, max_n=4),
        workloads.series_warm_run,
    ),
    "truncation-suite": (
        workloads.truncation_setup,
        functools.partial(workloads.truncation_suite_run, divisor=500),
    ),
    "truncation-batch": (
        workloads.truncation_setup,
        functools.partial(workloads.truncation_batch_run, levi_samples=50, e_samples=100),
    ),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_digest_equals_untraced_digest(name, monkeypatch):
    setup, timed = SMALL[name]
    check = workloads.WORKLOADS[name][2]
    monkeypatch.setitem(workloads.WORKLOADS, name, (setup, timed, check))
    plain = unit.run_unit(name, 11, False, 0.0)
    traced = unit.run_unit(name, 11, True, 0.0)
    assert plain["failed"] == 0 and traced["failed"] == 0, plain["failures"]
    assert traced["digest"] == plain["digest"]
    assert traced["items"] == plain["items"] > 0
    assert set(traced["layers"]) == set(tracing.layer_units()) - {"trace.overhead"}


def test_benchmark_json_names_match_the_code():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.layer_units()
    for m in itertools.chain(spec["end_to_end"], spec["per_layer"]):
        assert m["better"] in ("lower", "higher")
