"""Acceptance suite: the eleven headline checks, one printed pass/fail line each.

Each test evaluates its criterion in full, prints a single summary line, and
asserts.  Grid-based checks reuse the deterministic verification suites where
one exists; tolerances are stated inline.
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
from cvsquash.entropics import (
    ChannelParam,
    cmi_cosh_lower,
    cond_epi_rhs,
    g,
    g_inverse,
    gap_f,
    h,
)
from cvsquash.states import (
    attenuated_tmsv_cov,
    extension_family,
    gaussian_cmi,
)
from cvsquash.symplectic import gaussian_entropy, marginal
from cvsquash.verify import (
    LN_E_OVER_2,
    epi_spot_check,
    moe_spot_check,
    oracle_channel_deviations,
    oracle_cmi_deviations,
    oracle_cmi_grid,
    run_suite,
)


def _report(criterion, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:02d}] {status} {name}: {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def test_criterion_01_gap_bound():
    start = time.time()
    kappa = np.linspace(1.0, 10.0, 500)[:, None]
    E = np.linspace(0.0, 100.0, 500)[None, :]
    worst = float(gap_f(kappa, E).max())
    decay = gap_f(2.0, 1e3)
    elapsed = time.time() - start
    ok = worst <= LN_E_OVER_2 + 1e-12 and decay < 1e-3 and elapsed < 5.0
    _report(1, "gap bound", ok,
            f"max gap {worst:.6f} vs ln(e/2) {LN_E_OVER_2:.6f}, "
            f"gap(2, 1e3) = {decay:.2e}, {elapsed:.2f} s")


def test_criterion_02_extension_family_consistency():
    start = time.time()
    worst_closed = 0.0
    for kappa in np.linspace(1.0, 10.0, 50):
        for E in np.linspace(0.0, 50.0, 50):
            cmi = gaussian_cmi(extension_family(kappa, E, 0.5), "A", "B", "R")
            closed = g((kappa - 0.5) * E + kappa - 1.0) - g(0.5 * E)
            worst_closed = max(worst_closed, abs(0.5 * cmi - closed))
    worst_sym = 0.0
    worst_min = 0.0
    for kappa in (1.0, 1.5, 2.0, 3.0, 5.0):
        for E in (0.0, 0.1, 0.5, 1.0, 5.0, 20.0):
            half = gaussian_cmi(extension_family(kappa, E, 0.5), "A", "B", "R")
            for eta in (0.0, 0.1, 0.25, 0.4, 0.5, 0.75):
                lo = gaussian_cmi(extension_family(kappa, E, eta), "A", "B", "R")
                hi = gaussian_cmi(extension_family(kappa, E, 1.0 - eta), "A", "B", "R")
                worst_sym = max(worst_sym, abs(lo - hi))
                worst_min = max(worst_min, half - lo)
    elapsed = time.time() - start
    ok = worst_closed <= 1e-10 and worst_sym <= 1e-12 and worst_min <= 1e-10 and elapsed < 5.0
    _report(2, "extension-family consistency", ok,
            f"closed-form dev {worst_closed:.2e} (tol 1e-10), "
            f"eta-symmetry {worst_sym:.2e} (tol 1e-12), "
            f"min-at-half slack {worst_min:.2e}, {elapsed:.2f} s")


def test_criterion_03_epi_chain():
    worst_chain = -math.inf
    worst_identity = 0.0
    for kappa in np.linspace(1.0, 10.0, 50):
        floor = 2.0 * math.log(2.0 * kappa - 1.0)
        for E in np.linspace(0.0, 50.0, 50):
            ar = attenuated_tmsv_cov(0.5, E)
            s = gaussian_entropy(ar) - gaussian_entropy(marginal(ar, [1]))
            cmi = gaussian_cmi(extension_family(kappa, E, 0.5), "A", "B", "R")
            cosh_bound = cmi_cosh_lower(kappa, s)
            epi_a, epi_b = cond_epi_rhs(kappa, s)
            worst_chain = max(worst_chain, cosh_bound - cmi, floor - cosh_bound)
            worst_identity = max(worst_identity, abs(cosh_bound - (epi_a + epi_b - s)))
    ok = worst_chain <= 1e-9 and worst_identity <= 1e-12
    _report(3, "conditional EPI chain", ok,
            f"chain violation {worst_chain:.2e} (tol 1e-9), "
            f"cosh identity dev {worst_identity:.2e} (tol 1e-12)")


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
    start = time.time()
    channel_devs = oracle_channel_deviations()
    cmi_devs = oracle_cmi_deviations()
    elapsed = time.time() - start
    ok = (
        max(channel_devs) <= 1e-6
        and len(cmi_devs) == len(oracle_cmi_grid())
        and max(cmi_devs) <= 1e-5
        and elapsed < 600.0
    )
    _report(9, "Fock-oracle cross-validation", ok,
            f"channel entropy dev {max(channel_devs):.2e} (tol 1e-6), "
            f"cmi dev {max(cmi_devs):.2e} (tol 1e-5) on {len(cmi_devs)} of "
            f"{len(oracle_cmi_grid())} grid points, {elapsed:.1f} s")


def test_criterion_10_spot_checks():
    moe = moe_spot_check()
    epi = epi_spot_check()
    ok = moe.passed and epi.passed
    _report(10, "MOE and conditional-EPI spot checks", ok,
            f"output-entropy violation {moe.max_violation:.2e}, "
            f"conditional violation {epi.max_violation:.2e} (tol 1e-6)")


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
