"""Acceptance suite: the eleven headline checks, one printed pass/fail line each.

Each test evaluates its criterion in full, prints a single summary line, and
asserts.  Grid and spot checks run the registered verification suites, which
hold their tolerances; the others state theirs inline.
"""

import math
import time

import numpy as np

from cvsquash.bounds import (
    channel_esq,
    classical_esq,
    esq_bounds_channel_state,
    secret_key_capacity,
)
from cvsquash.cli import main
from cvsquash.entropics import ChannelParam, g_inverse, h
from cvsquash.verify import LN_E_OVER_2, run_suite


def _report(criterion, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def _check_suites(criterion, name, suites, seconds=math.inf):
    """Run each suite of suites, a map from its name to (tolerance, expected
    check count), and print one line for all of them."""
    start = time.time()
    reports = [run_suite(suite, tolerance=tolerance) for suite, (tolerance, _) in suites.items()]
    elapsed = time.time() - start
    ok = elapsed < seconds and all(
        report.passed and report.checks_run == suites[report.suite][1] for report in reports
    )
    detail = "".join(
        f"{report.suite} {report.checks_run} checks, worst violation "
        f"{report.max_violation:.2e} (tol {report.tolerance:.0e}); "
        for report in reports
    )
    _report(criterion, name, ok, f"{detail}{elapsed:.2f} s")


def test_criterion_01_gap_bound():
    _check_suites(1, "gap bound", {"gap": (1e-12, 250001)}, seconds=5.0)


def test_criterion_02_extension_family_consistency():
    _check_suites(2, "extension-family consistency", {"jensen": (1e-10, 2680)}, seconds=5.0)


def test_criterion_03_epi_chain():
    _check_suites(3, "conditional EPI chain", {"epi-chain": (1e-9, 2794)})


def test_criterion_04_corollary_mapping():
    report = run_suite("corollary-map")
    _report(4, "corollary mapping", report.passed and report.checks_run == 2000,
            f"{report.checks_run} random points, "
            f"max covariance dev {report.max_violation:.2e} (tol 1e-12)")


def test_criterion_05_channel_values():
    worst = 0.0
    strict = True
    channels = [ChannelParam.attenuator(e) for e in np.arange(0.1, 0.95, 0.1)]
    channels += [ChannelParam.amplifier(k) for k in (1.1, 1.5, 2.0, 3.0, 5.0)]
    for channel in channels:
        target = channel_esq(channel)
        report = esq_bounds_channel_state(channel, 1e6)
        worst = max(worst, abs(report.lower - target), abs(report.upper - target))
        strict = strict and channel_esq(channel) > secret_key_capacity(channel)
    ok = worst <= 1e-4 and strict
    _report(5, "channel values at large energy", ok,
            f"max deviation {worst:.2e} (tol 1e-4), "
            f"exact > secret-key capacity everywhere: {strict}")


def test_criterion_06_classical_structure():
    # endpoint slopes of psi(s) = (1/2) h(g_inverse(s)), the objective of
    # classical_esq in the entropy variable.  By the chain rule, with
    # g'(E) = ln(1 + 1/E) and x = g_inverse(s),
    #   psi'(s) + 1/2 = N(x) / (2 ln(1 + 1/x)),
    #   N(x) = kappa g'(kappa x + kappa - 1) + (kappa - 1) g'((kappa - 1)(x + 1)),
    # so psi' -> +1/2 as s grows and psi' -> -1/2 at s = 0, but only like
    # 1/ln(1/s): no difference quotient at s = 0 gets within 1e-6 of -1/2.
    # The s = 0 limit is checked instead by (a) secants over the decades
    # 1e-1 .. 1e-12 decreasing strictly while staying above -1/2 (convexity
    # with limit -1/2) and (b) the rate of approach, N(0) = (2 kappa - 1)
    # ln(kappa / (kappa - 1)), measured at s = 1e-6.
    decades = [10.0 ** -k for k in range(1, 13)]
    d_inf, last_secant, secants_ok, worst_rate = 0.5, math.inf, True, 0.0
    for kappa in (1.2, 2.0, 3.0, 5.0):
        psi = lambda s: 0.5 * h(kappa, g_inverse(s))
        slope = (psi(50.0 + 1e-6) - psi(50.0 - 1e-6)) / 2e-6
        d_inf = max(d_inf, slope, key=lambda d: abs(d - 0.5))
        secants = [(psi(a) - psi(b)) / (a - b) for a, b in zip(decades, decades[1:])]
        secants_ok = secants_ok and secants[-1] > -0.5 and all(
            a > b for a, b in zip(secants, secants[1:]))
        last_secant = min(last_secant, secants[-1])
        s, step = 1e-6, 1e-9
        slope = (psi(s + step) - psi(s - step)) / (2.0 * step)
        rate = (slope + 0.5) * 2.0 * math.log1p(1.0 / g_inverse(s))
        n0 = (2.0 * kappa - 1.0) * math.log(kappa / (kappa - 1.0))
        worst_rate = max(worst_rate, abs(rate / n0 - 1.0))
    endpoint_ok = abs(d_inf - 0.5) <= 1e-3 and secants_ok and worst_rate <= 1e-5
    # classical_esq vs an independent dense scan at resolution 1e-4
    worst_scan = 0.0
    for kappa in (1.2, 2.0, 3.0, 5.0):
        for E in (0.1, 0.5, 1.0, 5.0):
            value, res = classical_esq(kappa, E)
            xs = np.arange(0.0, E + 1e-4, 1e-4)
            worst_scan = max(worst_scan, abs(value - 0.5 * float(np.min(h(kappa, xs)))))
            assert res.clipped == (E < res.E_kappa)
    scan_ok = worst_scan <= 1e-8
    ok = endpoint_ok and scan_ok
    _report(6, "classical-minimizer structure", ok,
            f"slope at s=50: {d_inf:.6f} (target 0.5 +- 1e-3), "
            f"secant on [1e-12, 1e-11]: {last_secant:.6f} "
            f"(decreasing over decades and > -0.5: {secants_ok}), "
            f"rate dev at s=1e-6: {worst_rate:.2e} (tol 1e-5), "
            f"scan agreement {worst_scan:.2e} (tol 1e-8)")


def test_criterion_07_separation():
    report = run_suite("separation")
    _report(7, "classical-quantum separation", report.passed,
            f"strict positivity on the grid, edge values within "
            f"{report.max_violation:.2e} of zero (tol 1e-12)")


def test_criterion_08_convexity():
    report = run_suite("convexity")
    _report(8, "psi convexity", report.passed,
            f"{report.checks_run} grid points, worst relative FD dev "
            f"{report.max_violation:.2e} (tol 1e-6)")


def test_criterion_09_fock_oracle():
    _check_suites(9, "Fock-oracle cross-validation", {"oracle": (1e-5, 48)}, seconds=600.0)


def test_criterion_10_spot_checks():
    _check_suites(10, "MOE and conditional-EPI spot checks",
                  {"moe-spot": (1e-6, 800), "epi-spot": (1e-6, 100)}, seconds=5.0)


def test_criterion_11_figure1(capsys, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figure1", "--output", str(first)]) == 0
    assert main(["figure1", "--output", str(second)]) == 0
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in first.read_text().splitlines()[1:]
    ]
    ordering = all(lo <= hi <= cl + 1e-12 for _, _, lo, hi, cl in rows)
    gap_ok = all(hi - lo <= LN_E_OVER_2 + 1e-12 for _, _, lo, hi, _ in rows)
    improves = True
    for kappa in (1.5, 2.0, 3.0):
        curve = [r for r in rows if r[0] == kappa]
        gap0 = curve[0][3] - curve[0][2]
        gap1 = curve[-1][3] - curve[-1][2]
        improves = improves and gap1 < gap0
    ok = identical and ordering and gap_ok and improves and len(rows) == 600
    _report(11, "figure-1 reproduction", ok,
            f"600 rows, byte-identical reruns: {identical}, ordering: {ordering}, "
            f"gap bound: {gap_ok}, gap shrinks from E=0 to E=1: {improves}")
