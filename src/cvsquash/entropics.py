"""Closed-form entropic functions for thermal bosonic states.

Everything here is a pure function of real parameters, in nats, and accepts
scalars or numpy arrays (elementwise): a scalar in gives a float out.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ENERGY, FINITE, GAIN, TRANSMISSIVITY, DomainError, SingularPointError,
                     finite, in_domain, scalar_in_domain)

# Below this energy the direct formula for g loses digits to cancellation;
# the series g(E) = E(1 - ln E) + E^2/2 + O(E^3 ln E) is exact to 1e-16 there.
_G_SERIES_CUTOFF = 1e-8

_MAX = np.finfo(float).max
_SMALLEST = np.nextafter(0.0, 1.0)  # the smallest subnormal double


#: each channel kind's one parameter: its name in messages and its domain
_CHANNEL_PARAMETERS = {"attenuator": ("attenuator transmissivity", TRANSMISSIVITY),
                       "amplifier": ("amplifier gain", GAIN)}


@dataclass(frozen=True)
class ChannelParam:
    """A one-mode Gaussian channel: the attenuator of transmissivity eta or the
    amplifier of gain kappa, whose parameter ``value`` is one float in its domain."""

    kind: str  # "attenuator" | "amplifier"
    value: float

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _CHANNEL_PARAMETERS):
            raise DomainError(f"unknown channel kind {self.kind!r}")
        name, domain = _CHANNEL_PARAMETERS[self.kind]
        object.__setattr__(self, "value", scalar_in_domain(name, self.value, domain))

    @classmethod
    def attenuator(cls, eta):
        return cls("attenuator", eta)

    @classmethod
    def amplifier(cls, kappa):
        return cls("amplifier", kappa)

    def output_energy(self, E, complement=False):
        """Mean energy of the channel's output on a thermal input of mean energy E,
        or with ``complement`` of its complement's: eta E or (1 - eta) E for the
        attenuator, kappa E + kappa - 1 or (kappa - 1)(E + 1) for the amplifier.
        E, a float or an array, is validated by the caller; DomainError "<formula>
        overflows at kappa = ..., E = ..." if an amplifier's energy overflows."""
        p = self.value
        if self.kind == "attenuator":  # cannot overflow
            return (1.0 - p) * E if complement else p * E
        with np.errstate(over="ignore"):
            if complement:
                return finite("(kappa - 1)(E + 1)", (p - 1.0) * (E + 1.0), kappa=p, E=E)
            return finite("kappa E + kappa - 1", p * E + (p - 1.0), kappa=p, E=E)


def g(E):
    """Entropy g(E) = (E+1) ln(E+1) - E ln E of a thermal state with mean energy E.

    Every entry takes the cancellation-free direct form E ln(1 + 1/E) + ln(1 + E);
    only the entries below _G_SERIES_CUTOFF are then overwritten, by the series
    E(1 - ln E) + E^2/2, or by the exact g(0) = 0.
    """
    out = _g(np.asarray(in_domain("mean energy", E, ENERGY)))
    return out if out.ndim else float(out)


def _g(arr):
    """g of a float array whose every entry is finite and >= 0, unvalidated: g's body,
    for callers whose arguments are already known to be in its domain."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # 1/E overflows for subnormal E and is inf at 0; both are overwritten
        out = np.asarray(arr * np.log1p(1.0 / arr) + np.log1p(arr))  # 0-d stays assignable
        small = arr < _G_SERIES_CUTOFF
        if small.any():
            tiny = arr[small]
            out[small] = np.where(tiny == 0.0, 0.0, tiny * (1.0 - np.log(tiny)) + 0.5 * tiny * tiny)
    return out


#: g of the largest double, ~710.78: the largest entropy g_inverse can invert
G_MAX = g(_MAX)
ENTROPY = (0.0, G_MAX, f"in [0, g(largest double) = {G_MAX:.17g}]")


def g_inverse(s):
    """The unique E >= 0 with g(E) = s, elementwise.

    Newton's method in t = ln E on the residual ln g(e^t) - ln s, whose
    t-derivative is E g'(E) / g(E) with g'(E) = ln(1 + 1/E), from the start
    E_0 = max(s / (2 (1 + ln(1 + 1/s))), e^(s - 1) - 1) in the positive doubles.
    E_0 lies at or below the root, since g(E) <= E (1 + ln(1 + 1/E)) and
    g(E) <= 1 + ln(1 + E).  The residual is increasing and concave in t, so each
    step lands at or below the root too and the iterates rise to it
    quadratically; an element stops once its step no longer raises E.  With E
    updated as E e^(-step), not through t, g(g_inverse(s)) = s holds to about
    1e-15 relative for every s in [1e-290, G_MAX]; below that the root nears the
    subnormal doubles and the accuracy degrades.  Entropies above
    G_MAX = g(largest double) ~ 710.78 have no finite root.
    """
    s = np.asarray(in_domain("entropy", s, ENTROPY))
    with np.errstate(divide="ignore", over="ignore"):  # s = 0 steps to E = 0 and stops
        E, new = 0.0, np.clip(np.maximum(s / (2.0 * (1.0 + np.log1p(1.0 / s))),
                                         np.expm1(s - 1.0)), _SMALLEST, _MAX)
        while (new > E).any():
            E = np.maximum(E, new)
            gE = g(E)
            # g'(E) as log1p(E) - ln E below 1, where 1/E may overflow
            g_prime = np.where(E >= 1.0, np.log1p(1.0 / np.maximum(E, 1.0)),
                               np.log1p(E) - np.log(E))
            new = E * np.exp(-np.log(gE / s) * gE / (E * g_prime))
    out = np.where(s > 0.0, E, 0.0)
    return out if out.ndim else float(out)


def psi(kappa, E, eta):
    """psi_{E,kappa}(eta) = g((kappa - eta) E + kappa - 1) - g((1-eta) E); at eta = 1/2
    the upper bound of bounds.esq_bounds_tms, bit for bit, and exactly 0 at kappa = 1."""
    kappa = in_domain("squeezing gain", kappa, GAIN)
    E = in_domain("mean energy", E, ENERGY)
    eta = in_domain("transmissivity", eta, TRANSMISSIVITY)
    with np.errstate(over="ignore"):
        upper = (kappa - eta) * E + (kappa - 1.0)
    upper = finite("(kappa - eta) E + kappa - 1", upper, kappa=kappa, E=E, eta=eta)
    return _sub(g(upper), g((1.0 - eta) * E))


def psi_second_derivative(kappa, E, eta):
    """Closed form of the second eta-derivative of psi; nonnegative on its domain."""
    kappa = in_domain("squeezing gain", kappa, GAIN)
    E = in_domain("mean energy", E, ENERGY)
    eta = in_domain("transmissivity", eta, TRANSMISSIVITY)
    if np.any(np.asarray(eta) >= 1.0):
        raise SingularPointError("psi'' is singular at eta = 1; use psi directly there")
    params = {"kappa": kappa, "E": E, "eta": eta}
    with np.errstate(over="ignore", invalid="ignore"):  # finite refuses an overflow
        num = E * (E + 1.0) * (kappa - 1.0) * ((kappa + 1.0 - 2.0 * eta) * E + kappa)
        den = ((1.0 - eta) * ((kappa - eta) * E + kappa - 1.0) * ((kappa - eta) * E + kappa)
               * ((1.0 - eta) * E + 1.0))
        num = finite("E (E + 1)(kappa - 1)((kappa + 1 - 2 eta) E + kappa)", num, **params)
        den = finite("(1 - eta)((kappa - eta) E + kappa - 1)((kappa - eta) E + kappa)"
                     "((1 - eta) E + 1)", den, **params)
        out = np.divide(num, den)
    # kappa = 1 with E = 0 hits 0/0; the value is 0 by the vanishing numerator factors
    out = np.where(np.asarray(num) == 0.0, 0.0, out)
    return out if out.ndim else float(out)


def gap_f(kappa, E):
    """Difference between the closed-form upper and lower squashed-entanglement bounds."""
    kappa = in_domain("squeezing gain", kappa, GAIN)
    upper = psi(kappa, E, 0.5)
    with np.errstate(over="ignore"):
        lower = finite("2 kappa - 1", 2.0 * kappa - 1.0, kappa=kappa)
    return _sub(upper, np.log(lower))


def h(kappa, x):
    """h_kappa(x) = g(kappa x + kappa - 1) + g((kappa-1)(x+1)) - g(x)."""
    kappa = in_domain("squeezing gain", kappa, GAIN)
    x = in_domain("mean energy", x, ENERGY)
    with np.errstate(over="ignore"):
        args = _h_args(kappa, x)
    # the largest of the three: when it is finite, so are the others
    finite("kappa x + kappa - 1", args[0], kappa=kappa, x=x)
    # one g call on the three stacked arguments
    return _h_of(g(np.stack(np.broadcast_arrays(*args))))


def _h_args(kappa, x):
    """The three g arguments of h_kappa(x), with kappa - 1 formed first."""
    return kappa * x + (kappa - 1.0), (kappa - 1.0) * (x + 1.0), x


def _h_of(values):
    """h_kappa from the g values of _h_args' three arguments, stacked on the first axis."""
    return _sub(values[0] + values[1], values[2])


def moe_amplifier(kappa, s):
    """Minimum output entropy of the amplifier at input entropy s (thermal minimizer)."""
    return g(ChannelParam.amplifier(kappa).output_energy(g_inverse(s)))


def moe_complement(kappa, s):
    """Minimum output entropy of the amplifier's complementary channel at input entropy s."""
    return g(ChannelParam.amplifier(kappa).output_energy(g_inverse(s), complement=True))


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
    with np.errstate(over="ignore"):
        arg = (2.0 * kappa * (kappa - 1.0) * np.cosh(s)
               + kappa * kappa + (kappa - 1.0) * (kappa - 1.0))
    out = np.log(finite("2 kappa (kappa - 1) cosh s + kappa^2 + (kappa - 1)^2", arg,
                        kappa=kappa, s=s))
    return out if out.ndim else float(out)


def _sub(a, b):
    out = np.asarray(a) - np.asarray(b)
    return out if out.ndim else float(out)
