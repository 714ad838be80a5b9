"""Acceptance suite: one test per criterion, each printing its own verdict.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion
pass/fail lines.  Tolerances and runtime bounds appear inline next to each
assertion; nothing here loosens what the unit suites already enforce.
"""

import json
import pathlib
import time

import mpmath
from mpmath import mp

from orbitzeta import __version__
from orbitzeta.cli import main
from orbitzeta.partitions import Partition, partitions_of
from orbitzeta.xi_algebra import XiExpression, XiFactor, h_orbit, z_orbit
from orbitzeta.xinumeric import (
    PrecisionConfig,
    formal_cancellation_check,
    laurent_expand,
    residue_at_zero,
    xi_value,
    xi_value_fd,
)
from orbitzeta.truncation.sampling import full_suite

SEED = 20260816
ROOT = pathlib.Path(__file__).resolve().parent.parent


def announce(number, name, detail=""):
    suffix = " (%s)" % detail if detail else ""
    print("criterion %d [%s]: PASS%s" % (number, name, suffix))


def mono(*pairs):
    return XiExpression.monomial([XiFactor(a, b) for a, b in pairs])


def as_mpf(x):
    return mpmath.re(mpmath.mpc(x))


def library_xi(k):
    """Completed value at an integer from library functions only."""
    return mpmath.power(mpmath.pi, -mpmath.mpf(k) / 2) * mpmath.gamma(
        mpmath.mpf(k) / 2
    ) * mpmath.zeta(k)


def test_criterion_1_symbolic_exactness():
    """Three product families exact for n <= 8; subregular sum formula."""
    start = time.perf_counter()
    for n in range(1, 9):
        zero = mono(*[(k, k) for k in range(1, n + 1)])
        assert z_orbit(Partition((1,) * n)) == zero
        regular = mono(*[(1, k) for k in range(1, n + 1)])
        assert z_orbit(Partition((n,))) == regular
        if n >= 3:
            subregular = mono(
                (1, 1), (1, 1), *[(k, k) for k in range(2, n - 1)], (n - 1, n)
            )
            assert z_orbit(Partition((2,) + (1,) * (n - 2))) == subregular
    expected = mono((1, 1), (1, 1), (2, 3)) - mono((1, 1), (1, 1), (2, 2))
    assert h_orbit(Partition((2, 1))) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    announce(1, "symbolic exactness", "%.3fs" % elapsed)


def test_criterion_2_residue_reproduction():
    """Subregular residue vs the log-derivative oracle; zero-orbit residues
    vs the library product, n = 2..5; both at 1e-8 absolute."""
    cfg = PrecisionConfig.default(working_digits=30)
    with mp.workdps(45):
        ratio = (
            -mpmath.log(mpmath.pi) / 2
            + mpmath.digamma(1) / 2
            + mpmath.zeta(2, derivative=1) / mpmath.zeta(2)
        )
        oracle = (mpmath.pi / 6) * ratio
        rr = residue_at_zero(
            laurent_expand(h_orbit(Partition((2, 1))), cfg.for_orbit_size(3))
        )
        assert rr.pole_order == 1
        sub_diff = abs(as_mpf(rr.residue) - oracle)
        assert sub_diff < mpmath.mpf(10) ** (-8), sub_diff

        worst = mpmath.mpf(0)
        for n in range(2, 6):
            target = mpmath.mpf(1)
            for k in range(2, n + 1):
                target *= library_xi(k)
            rz = residue_at_zero(
                laurent_expand(h_orbit(Partition((1,) * n)), cfg.for_orbit_size(n))
            )
            assert rz.pole_order == 1
            diff = abs(as_mpf(rz.residue) - target)
            worst = max(worst, diff)
            assert diff < mpmath.mpf(10) ** (-8), (n, diff)
    announce(
        2,
        "residue reproduction",
        "subregular diff %.1e, zero-orbit worst %.1e" % (sub_diff, worst),
    )


def test_criterion_3_pole_order_audit():
    """n <= 3 gated: simple pole, deep coefficients formally zero or under
    1000x the propagated error; n = 4..6 report generated, not gated."""
    cfg = PrecisionConfig.default(working_digits=30)
    for n in range(1, 4):
        for p in partitions_of(n):
            series = laurent_expand(h_orbit(p), cfg.for_orbit_size(n))
            rr = residue_at_zero(series)
            assert rr.pole_order == 1, (p, rr.pole_order)
            formal = formal_cancellation_check(h_orbit(p))
            for degree, magnitude, floor in rr.audit:
                formally_zero, _ = formal.verdict(degree)
                assert formally_zero or magnitude < floor, (p, degree)

    start = time.perf_counter()
    survey = {}
    for n in range(4, 7):
        pcfg = cfg.for_orbit_size(n)
        rows = []
        for p in partitions_of(n):
            rr = residue_at_zero(laurent_expand(h_orbit(p), pcfg))
            rows.append(
                {
                    "partition": str(p),
                    "pole_order": rr.pole_order,
                    "residue": mpmath.nstr(as_mpf(rr.residue), 12),
                    "residue_error": "%.3e" % rr.residue_error,
                }
            )
        survey[n] = rows
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, elapsed
    assert [len(survey[n]) for n in (4, 5, 6)] == [5, 7, 11]
    simple = sum(row["pole_order"] == 1 for n in survey for row in survey[n])
    announce(
        3,
        "pole-order audit",
        "n<=3 gated simple; n=4..6 report %d rows (%d simple, ungated) in %.1fs"
        % (sum(map(len, survey.values())), simple, elapsed),
    )


def test_criterion_4_generating_identity(capsys):
    """Exhaustive exact identity through size 6 via the CLI surface."""
    start = time.perf_counter()
    code = main(["verify-identity", "--max-n", "6", "--format", "json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, out
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["coefficients_checked"] == 30  # 29 orbits plus empty term
    assert elapsed < 60.0, elapsed
    with capsys.disabled():
        announce(4, "generating identity", "30 exact coefficients in %.2fs" % elapsed)


def test_criterion_5_truncation_suite():
    """Every sampled identity of the truncation layer at full budgets."""
    start = time.perf_counter()
    reports = full_suite(seed=SEED)
    elapsed = time.perf_counter() - start
    failures = [r for r in reports if not r.ok]
    assert not failures, [r.to_json() for r in failures]
    assert elapsed < 300.0, elapsed
    # the same seed and budgets reproduce the archived reports exactly
    archive = json.loads((ROOT / "reports" / "truncation_suite.json").read_text())
    assert [r.to_json() for r in reports] == archive["checks"]
    announce(
        5,
        "truncation suite",
        "%d reports, 0 failures, %.1fs" % (len(reports), elapsed),
    )


def test_criterion_6_numeric_kernel():
    """Closed forms at 1e-10; derivative routes agree; doubling both
    precision knobs never degrades the closed-form agreement."""
    cfg = PrecisionConfig.default(working_digits=30)
    with mp.workdps(45):
        anchors = {2: mpmath.pi / 6, 4: mpmath.pi**2 / 90}
        for k, target in anchors.items():
            got = xi_value(k, 0, cfg)
            assert abs(as_mpf(got.value) - target) < mpmath.mpf(10) ** (-10)

        for a in (2, 3):
            contour = xi_value(a, 1, cfg)
            fd = xi_value_fd(a, 1, cfg)
            loose = max(contour.error, fd.error, 1e-25)
            assert abs(as_mpf(contour.value) - as_mpf(fd.value)) <= loose

        base = PrecisionConfig.default(working_digits=20, contour_nodes=64)
        doubled = PrecisionConfig.default(working_digits=40, contour_nodes=128)
        for k, target in anchors.items():
            coarse = abs(as_mpf(xi_value(k, 0, base).value) - target)
            fine = abs(as_mpf(xi_value(k, 0, doubled).value) - target)
            assert fine <= coarse
    announce(6, "numeric kernel", "closed forms, dual derivative routes, doubling")
