"""Closed-form scalar entropic functions for thermal bosonic states.

Everything here is a pure function of real parameters, in nats.  All
functions accept scalars or numpy arrays (elementwise) except
``g_inverse`` and the functions built on it, which are scalar.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ENERGY, FINITE, GAIN, TRANSMISSIVITY, DomainError, SingularPointError, in_domain

# Below this energy the direct formula for g loses digits to cancellation;
# the series g(E) = E(1 - ln E) + E^2/2 + O(E^3 ln E) is exact to 1e-16 there.
_G_SERIES_CUTOFF = 1e-8

#: relative tolerance (in energy) for the bracketed inversion of g, the floor
#: brentq accepts (4 machine epsilons).  No absolute tolerance is used: the root
#: x ~ s / ln(1/s) falls below any fixed one as s -> 0.
TOL_ROOT = 8.9e-16
# brentq needs a positive absolute tolerance; the smallest normal double leaves
# the relative one in charge for every root above ~1e-292
_TINY = np.finfo(float).tiny
_MAX = np.finfo(float).max
_LOG_MAX = math.log(_MAX)


@dataclass(frozen=True)
class ChannelParam:
    """A one-mode Gaussian channel: attenuator (eta) or amplifier (kappa)."""

    kind: str  # "attenuator" | "amplifier"
    value: float

    def __post_init__(self):
        if self.kind == "attenuator":
            in_domain("attenuator transmissivity", self.value, TRANSMISSIVITY)
        elif self.kind == "amplifier":
            in_domain("amplifier gain", self.value, GAIN)
        else:
            raise DomainError(f"unknown channel kind {self.kind!r}")

    @classmethod
    def attenuator(cls, eta):
        return cls("attenuator", float(eta))

    @classmethod
    def amplifier(cls, kappa):
        return cls("amplifier", float(kappa))


def g(E):
    """Entropy g(E) = (E+1) ln(E+1) - E ln E of a thermal state with mean energy E."""
    arr = np.asarray(in_domain("mean energy", E, ENERGY))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # E*log1p(1/E) + log1p(E) is cancellation-free for all E > 0
        direct = arr * np.log1p(1.0 / arr) + np.log1p(arr)
        series = arr * (1.0 - np.log(arr)) + 0.5 * arr * arr
    out = np.where(arr >= _G_SERIES_CUTOFF, direct, series)
    out = np.where(arr == 0.0, 0.0, out)
    return out if out.ndim else float(out)


#: g of the largest double, ~710.78: the largest entropy g_inverse can invert
G_MAX = g(_MAX)
ENTROPY = (0.0, G_MAX, f"in [0, g(largest double) = {G_MAX:.17g}]")


def g_inverse(s):
    """The unique E >= 0 with g(E) = s.  Scalar, bracketed root-finding.

    The root is found to relative accuracy TOL_ROOT in E.  Since g is concave
    with g(0) = 0, E g'(E) <= g(E), so g(g_inverse(s)) = s holds to the same
    relative accuracy, about 1e-15, for every s in [1e-290, G_MAX]; below that
    the root nears the smallest normal double and the accuracy degrades.
    Entropies above G_MAX = g(largest double) ~ 710.78 have no finite root.
    """
    s = in_domain("entropy", s, ENTROPY)
    if s == 0.0:
        return 0.0
    # g(E) >= ln(E+1), so g(e^s) > s and [0, e^s] brackets the root; past the
    # overflow of e^s the largest double brackets it, since s <= G_MAX.
    hi = np.exp(s) if s < _LOG_MAX else _MAX
    # The residual is taken relative to s: for tiny s the products of residuals
    # in Brent's interpolation step would otherwise underflow and stall it.
    return brentq(lambda E: g(E) / s - 1.0, 0.0, hi, xtol=_TINY, rtol=TOL_ROOT)


def psi(kappa, E, eta):
    """psi_{E,kappa}(eta) = g(kappa E + kappa - eta E - 1) - g((1-eta) E)."""
    kappa = in_domain("squeezing gain", kappa, GAIN)
    E = in_domain("mean energy", E, ENERGY)
    eta = in_domain("transmissivity", eta, TRANSMISSIVITY)
    return _sub(g(kappa * E + kappa - eta * E - 1.0), g((1.0 - eta) * E))


def psi_second_derivative(kappa, E, eta):
    """Closed form of the second eta-derivative of psi; nonnegative on its domain."""
    kappa = in_domain("squeezing gain", kappa, GAIN)
    E = in_domain("mean energy", E, ENERGY)
    eta = in_domain("transmissivity", eta, TRANSMISSIVITY)
    if np.any(np.asarray(eta) >= 1.0):
        raise SingularPointError("psi'' is singular at eta = 1; use psi directly there")
    num = E * (E + 1.0) * (kappa - 1.0) * ((kappa + 1.0 - 2.0 * eta) * E + kappa)
    den = (
        (1.0 - eta)
        * ((kappa - eta) * E + kappa - 1.0)
        * ((kappa - eta) * E + kappa)
        * ((1.0 - eta) * E + 1.0)
    )
    with np.errstate(invalid="ignore"):
        out = np.divide(num, den)
    # kappa = 1 with E = 0 hits 0/0; the value is 0 by the vanishing numerator factors
    out = np.where(np.asarray(num) == 0.0, 0.0, out)
    return out if out.ndim else float(out)


def gap_f(kappa, E):
    """Difference between the closed-form upper and lower squashed-entanglement bounds."""
    kappa = in_domain("squeezing gain", kappa, GAIN)
    E = in_domain("mean energy", E, ENERGY)
    return _sub(g((kappa - 0.5) * E + kappa - 1.0) - g(0.5 * E), np.log(2.0 * kappa - 1.0))


def h(kappa, x):
    """h_kappa(x) = g(kappa x + kappa - 1) + g((kappa-1)(x+1)) - g(x)."""
    kappa = in_domain("squeezing gain", kappa, GAIN)
    x = in_domain("mean energy", x, ENERGY)
    return _sub(g(kappa * x + kappa - 1.0) + g((kappa - 1.0) * (x + 1.0)), g(x))


def moe_amplifier(kappa, s):
    """Minimum output entropy of the amplifier at input entropy s (thermal minimizer)."""
    kappa = in_domain("amplifier gain", kappa, GAIN)
    return g(kappa * g_inverse(s) + kappa - 1.0)


def moe_complement(kappa, s):
    """Minimum output entropy of the amplifier's complementary channel at input entropy s."""
    kappa = in_domain("amplifier gain", kappa, GAIN)
    return g((kappa - 1.0) * (g_inverse(s) + 1.0))


def cond_epi_rhs(kappa, s):
    """Conditional-EPI lower bounds on the two output conditional entropies.

    Returns (ln(kappa e^s + kappa - 1), ln((kappa-1) e^s + kappa)) for conditional
    input entropy s (which may be negative).
    """
    kappa = in_domain("amplifier gain", kappa, GAIN)
    s = in_domain("conditional entropy", s, FINITE)
    with np.errstate(divide="ignore"):
        first = np.logaddexp(s + np.log(kappa), np.log(kappa - 1.0))
        second = np.logaddexp(s + np.log(kappa - 1.0), np.log(kappa))
    if first.ndim == 0:
        return float(first), float(second)
    return first, second


def cmi_cosh_lower(kappa, s):
    """EPI-derived lower bound ln(2k(k-1) cosh s + k^2 + (k-1)^2) on the conditional
    mutual information of any extension; minimized at s = 0 with value 2 ln(2k-1)."""
    kappa = in_domain("amplifier gain", kappa, GAIN)
    s = in_domain("conditional entropy", s, FINITE)
    out = np.log(2.0 * kappa * (kappa - 1.0) * np.cosh(s) + kappa**2 + (kappa - 1.0) ** 2)
    return out if out.ndim else float(out)


def _sub(a, b):
    out = np.asarray(a) - np.asarray(b)
    return out if out.ndim else float(out)
