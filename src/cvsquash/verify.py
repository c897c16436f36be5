"""Named verification suites: grid and spot checks behind `cvsquash verify`.

Each suite returns a VerifyReport whose max_violation is the largest amount by
which any checked inequality or identity was broken (0 when everything holds
with slack).  Suites are deterministic given their seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import entropics as se
from . import fock
from .states import (
    extension_family,
    gamma_amplified,
    gamma_attenuated,
    gaussian_cmi,
    tms_thermal_state,
)

LN_E_OVER_2 = 1.0 - math.log(2.0)


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    checks_run: int
    max_violation: float
    tolerance: float
    passed: bool
    seed: int = 0

    @classmethod
    def build(cls, suite, checks_run, max_violation, tolerance, seed=0):
        return cls(
            suite=suite,
            checks_run=checks_run,
            max_violation=float(max_violation) + 0.0,  # -0.0 reads as 0
            tolerance=float(tolerance),
            passed=bool(max_violation <= tolerance),
            seed=seed,
        )


SUITES = {}


def _suite(fn):
    SUITES[fn.__name__.replace("verify_", "").replace("_", "-")] = fn
    return fn


@_suite
def verify_gap(tolerance=1e-12, seed=0):
    """Theorem-1 gap: 0 <= f <= ln(e/2), decreasing in E, vanishing at large E."""
    kappa = np.linspace(1.0, 10.0, 500)[:, None]
    E = np.linspace(0.0, 100.0, 500)[None, :]
    f = se.gap_f(kappa, E)
    violations = [
        float((f - LN_E_OVER_2).max()),
        float((-f).max()),
        float(np.diff(f, axis=1).max()),  # monotone decreasing in E
        se.gap_f(2.0, 1e3) - 1e-3,
    ]
    return VerifyReport.build("gap", f.size + 1, max(violations), tolerance, seed)


@_suite
def verify_convexity(tolerance=1e-6, seed=0):
    """psi'' >= 0 and agreement with central finite differences of psi.

    The five-point stencil keeps the truncation error below tolerance near the
    eta = 1 singularity; the step shrinks proportionally to (1 - eta) there.
    The finite-difference comparison skips kappa = 1, where psi vanishes
    identically and the quotient is pure roundoff noise.
    """
    # axes (eta, kappa, E)
    etas = np.linspace(0.05, 0.999, 30)[:, None, None]
    kappas = np.linspace(1.0, 10.0, 30)[None, :, None]
    energies = np.linspace(0.0, 10.0, 30)
    delta = np.minimum(np.maximum(0.02 * (1.0 - etas), 4e-5), 0.5 * etas)
    closed = se.psi_second_derivative(kappas, energies, etas)
    k = kappas[:, 1:]  # no finite difference at kappa = 1
    fd = (
        -se.psi(k, energies, etas + 2.0 * delta)
        + 16.0 * se.psi(k, energies, etas + delta)
        - 30.0 * se.psi(k, energies, etas)
        + 16.0 * se.psi(k, energies, etas - delta)
        - se.psi(k, energies, etas - 2.0 * delta)
    ) / (12.0 * delta**2)
    rel = np.abs(fd - closed[:, 1:]) / np.maximum(np.abs(closed[:, 1:]), 1.0)
    # psi'' >= 0 is held to 1e-6 of the tolerance: -1e-12 by default
    worst = max(1e6 * float((-closed).max()), float(rel.max()))
    return VerifyReport.build("convexity", closed.size, worst, tolerance, seed)


@_suite
def verify_jensen(tolerance=1e-10, seed=0):
    """Extension-family CMI: closed form at eta = 1/2, eta-symmetry, minimum at 1/2."""
    kappa, E = np.meshgrid(np.linspace(1.0, 10.0, 50), np.linspace(0.0, 50.0, 50),
                           indexing="ij")
    half = gaussian_cmi(extension_family(kappa, E, 0.5), "A", "B", "R")
    closed = se.psi(kappa, E, 0.5)
    kappa, E, eta = np.meshgrid((1.0, 1.5, 2.0, 3.0, 5.0), (0.0, 0.1, 0.5, 1.0, 5.0, 20.0),
                                (0.0, 0.1, 0.25, 0.4, 0.5, 0.75), indexing="ij")
    mid, lo, hi = gaussian_cmi(
        extension_family(kappa, E, np.stack((np.full_like(eta, 0.5), eta, 1.0 - eta))),
        "A", "B", "R")
    # eta-symmetry is held to 1e-2 of the tolerance: 1e-12 by default
    worst = max(np.abs(0.5 * half - closed).max(), (1e2 * np.abs(lo - hi)).max(),
                (mid - lo).max())
    return VerifyReport.build("jensen", half.size + lo.size, worst, tolerance, seed)


@_suite
def verify_corollary_map(tolerance=1e-12, seed=7):
    """gamma states coincide entrywise with the mapped squeezed thermal-vacuum states."""
    # the columns of E ~ U[0, 10), eta ~ U[0, 1) and kappa ~ U[1, 5), drawn as
    # rng.uniform would draw them one point at a time
    E, eta, kappa = (np.random.default_rng(seed).random((1000, 3)) * (10.0, 1.0, 4.0)
                     + (0.0, 0.0, 1.0)).T
    worst = 0.0
    for kind, params, gamma in (("attenuator", eta, gamma_attenuated),
                                ("amplifier", kappa, gamma_amplified)):
        kp, ep = np.transpose([bd.tms_equivalent_params(se.ChannelParam(kind, p), e)
                               for p, e in zip(params.tolist(), E.tolist())])
        worst = max(worst, np.abs(gamma(params, E).cov - tms_thermal_state(kp, ep).cov).max())
    return VerifyReport.build("corollary-map", 2000, worst, tolerance, seed)


@_suite
def verify_separation(tolerance=1e-12, seed=0):
    """Classical squashed entanglement strictly dominates the upper bound at
    kappa > 1 and E > 0, and equals it at E = 0 and at kappa = 1."""
    energies = np.array([0.0, 0.1, 0.5, 1.0, 5.0, 50.0])
    sep = np.array([bd.separation_check(kappa, energies) for kappa in (1.1, 1.5, 2.0, 3.0, 5.0)])
    edge = bd.separation_check(1.0, np.array([0.0, 0.5, 2.0, 50.0]))
    inside = sep[:, 1:]
    # a point that fails to separate counts as a violation of 1 plus its deficit
    worst = max(np.where(inside <= 0.0, 1.0 - inside, 0.0).max(),
                np.abs(sep[:, 0]).max(), np.abs(edge).max())
    return VerifyReport.build("separation", sep.size + edge.size, worst, tolerance, seed)


@_suite
def verify_epi_chain(tolerance=1e-9, seed=0):
    """Conditional-EPI chain on the Gaussian extension family, with the eta = 1/2
    plane, where s = 0 and the chain reduces to CMI >= 2 ln(2 kappa - 1)."""
    grid = np.meshgrid((1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0), (0.0, 0.1, 0.5, 1.0, 5.0, 20.0),
                       (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0), indexing="ij")
    plane = np.meshgrid(np.linspace(1.0, 10.0, 50), np.linspace(0.0, 50.0, 50), 0.5,
                        indexing="ij")
    kappa, E, eta = (np.concatenate((a.ravel(), b.ravel())) for a, b in zip(grid, plane))
    # s = S(AR) - S(R) of the attenuated TMSV, with S(AR) = S(C) for the pure ARC state
    s = se.g((1.0 - eta) * E) - se.g(eta * E)
    cmi = gaussian_cmi(extension_family(kappa, E, eta), "A", "B", "R")
    cosh_bound = se.cmi_cosh_lower(kappa, s)
    epi_a, epi_b = se.cond_epi_rhs(kappa, s)
    worst = max(
        (cosh_bound - cmi).max(),
        (2.0 * np.log(2.0 * kappa - 1.0) - cosh_bound).max(),
        # the cosh identity is held to 1e-3 of the tolerance: 1e-12 by default
        (1e3 * np.abs(cosh_bound - (epi_a + epi_b - s))).max(),
    )
    return VerifyReport.build("epi-chain", kappa.size, worst, tolerance, seed)


def oracle_cmi_grid():
    return [
        (kappa, E, eta)
        for kappa in (1.5, 2.0)
        for E in (0.5, 1.0, 2.0)
        for eta in (0.0, 0.5, 1.0)
    ]


@_suite
def verify_oracle(tolerance=1e-5, seed=7):
    """Cross-formalism agreement between the Fock oracle and the covariance route,
    each point at its rule-selected cutoff.  Channel output entropies on thermal
    inputs are held to their closed forms within a tenth of the tolerance."""
    deviations = []
    attenuators = [(se.ChannelParam.attenuator(eta), False) for eta in (0.0, 0.5, 1.0)]
    for amp in map(se.ChannelParam.amplifier, (1.5, 2.0)):
        for E in (0.5, 1.0, 2.0):
            state = fock.thermal_fock(E, fock.required_cutoff(amp.output_energy(E)))
            for channel, complement in [(amp, False), (amp, True), *attenuators]:
                out = fock.apply_channel_fock(state, channel, complement=complement)
                deviations.append(10.0 * abs(fock.spectral_entropy(out)
                                             - se.g(channel.output_energy(E, complement))))
    grid = oracle_cmi_grid()
    references = gaussian_cmi(extension_family(*np.transpose(grid)), "A", "B", "R")
    for (kappa, E, eta), reference in zip(grid, references):
        N = fock.required_cutoff(fock.oracle_energy(kappa, E, eta))
        deviations.append(abs(fock.oracle_cmi(kappa, E, eta, N) - reference))
    return VerifyReport.build("oracle", len(deviations), max(deviations), tolerance, seed)


@_suite
def verify_moe_spot(tolerance=1e-6, seed=7):
    """Theorem 4/5 spot check: no random state beats the thermal output-entropy bound."""
    samples, N, kappas = 200, 40, (1.2, 2.0)
    rng = np.random.default_rng(seed)
    states = fock.TruncatedState(
        np.stack([fock.random_one_mode_state(rng, N).matrix for _ in range(samples)]),
        tail_bound=0.0)
    s_in = fock.spectral_entropy(states)
    # output entropies of the amplifier and of its complement, per gain; each
    # channel takes all the states as one stack
    out = np.empty((len(kappas), 2, samples))
    for k, kappa in enumerate(kappas):
        for c, complement in enumerate((False, True)):
            out[k, c] = fock.spectral_entropy(fock.apply_channel_fock(
                states, se.ChannelParam.amplifier(kappa), complement=complement,
                enforce_cutoff=False))
    bound = np.array(
        [(se.moe_amplifier(kappa, s_in), se.moe_complement(kappa, s_in)) for kappa in kappas]
    )
    worst = float(np.max(bound - out))
    return VerifyReport.build("moe-spot", out.size, worst, tolerance, seed)


@_suite
def verify_epi_spot(tolerance=1e-6, seed=7):
    """Theorem 6 spot check: conditional output entropies after the squeezer
    dominate the conditional-EPI right-hand sides for random two-mode inputs.

    Each input omega_AR mixes the levels n_A, n_R < L.  The squeezer with a
    vacuum B sends |n>_A to sum_b sigma[n, b] |n + b>_A |b>_B, cut at N output
    levels, so every output marginal is a Kraus sum on omega with R a spectator:
    omega needs no purification, and no eigenvectors.
    """
    samples, N, L, kappa = 50, 12, 4, 1.5
    rng = np.random.default_rng(seed)
    levels = np.arange(L * L)  # index n_A L + n_R
    omega = np.stack([fock._random_mixture(rng, L * L, levels, levels, rotations=8)
                      for _ in range(samples)]).reshape(samples, L, L, L, L)
    sigma = fock._vacuum_ancilla_amplitudes("squeezer", kappa, N)
    a, b, n = np.ogrid[:N, :N, :L]
    kraus = np.where(a == n + b, sigma[n, b], 0.0)  # [a, b, n]: <a|_A <b|_B U |n>_A |0>_B
    rho_ar = np.einsum("abn,xbm,snrmq->sarxq", kraus, kraus, omega, optimize=True)
    rho_br = np.einsum("abn,aym,snrmq->sbryq", kraus, kraus, omega, optimize=True)
    s_r = fock.spectral_entropy(np.einsum("saraq->srq", rho_ar))
    s_in = (fock.spectral_entropy(omega.reshape(samples, L * L, L * L))
            - fock.spectral_entropy(np.einsum("snrnq->srq", omega)))
    s_a = fock.spectral_entropy(rho_ar.reshape(samples, N * L, N * L)) - s_r
    s_b = fock.spectral_entropy(rho_br.reshape(samples, N * L, N * L)) - s_r
    epi_a, epi_b = se.cond_epi_rhs(kappa, s_in)
    worst = max((epi_a - s_a).max(), (epi_b - s_b).max())
    return VerifyReport.build("epi-spot", samples * 2, worst, tolerance, seed)


def run_suite(name, tolerance=None, seed=None):
    if name not in SUITES:
        raise KeyError(f"unknown verification suite {name!r}; choose from {sorted(SUITES)}")
    kwargs = {}
    if tolerance is not None:
        kwargs["tolerance"] = tolerance
    if seed is not None:
        kwargs["seed"] = seed
    return SUITES[name](**kwargs)
