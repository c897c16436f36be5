"""Theorem-level bound computations: squashed and classical squashed entanglement."""

import math
from dataclasses import dataclass, field

import numpy as np

from .entropics import _g, _h_args, _h_of, _sub, g, h
from .errors import ENERGY, GAIN, DomainError, finite, in_domain, scalar_in_domain


@dataclass(frozen=True)
class BoundReport:
    lower: float
    upper: float
    exact: float = None
    provenance: tuple = ()
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        # elementwise when upper is an array of bounds over an energy sweep
        if np.any(self.lower > self.upper + 1e-12):
            raise AssertionError(f"bound ordering violated: {self.lower} > {self.upper}")
        if self.exact is not None and not (
            self.lower - 1e-12 <= self.exact <= self.upper + 1e-12
        ):
            raise AssertionError(f"exact value {self.exact} outside bounds")


@dataclass(frozen=True)
class MinimizerResult:
    argmin_x: float
    min_value: float
    clipped: bool
    E_kappa: float


def esq_bounds_tms(kappa, E):
    """Squashed-entanglement bounds for the squeezed thermal-vacuum state.

    lower = ln(2 kappa - 1); upper = g((kappa - 1/2) E + kappa - 1) - g(E/2),
    the halved conditional mutual information of the optimal (eta = 1/2)
    Gaussian extension.  E may be an array; upper is then elementwise.  At a
    scalar E = 0 the state is pure and upper is also the exact value g(kappa - 1).
    """
    kappa = scalar_in_domain("squeezing gain", kappa, GAIN)
    E = in_domain("mean energy", E, ENERGY)
    lower, *arguments = _tms_bounds_args(kappa, E)
    # one g call on both stacked arguments
    upper = _sub(*g(np.stack(np.broadcast_arrays(*arguments))))
    return BoundReport(
        lower=lower,
        upper=upper,
        exact=upper if isinstance(E, float) and E == 0.0 else None,
        provenance=("theorem-1",),
        parameters={"kappa": kappa, "E": E},
    )


def _tms_bounds_args(kappa, E):
    """esq_bounds_tms' lower bound and the two g arguments of its upper bound, at a
    validated kappa and E; DomainError if either bound's formula overflows."""
    with np.errstate(over="ignore"):
        energy = (kappa - 0.5) * E + (kappa - 1.0)  # exactly E / 2 at kappa = 1
    energy = finite("(kappa - 1/2) E + kappa - 1", energy, kappa=kappa, E=E)
    lower = math.log(finite("2 kappa - 1", 2.0 * kappa - 1.0, kappa=kappa))
    return lower, energy, 0.5 * E


def tms_equivalent_params(channel, E):
    """Map (channel, TMSV energy E) to the (kappa', E') of the equivalent squeezed
    thermal-vacuum state, where E' is the mean energy of the channel's complement
    (Corollary 1); DomainError if the amplifier's E' overflows."""
    E = in_domain("mean energy", E, ENERGY)
    E_mapped = channel.output_energy(E, complement=True)
    if channel.kind == "attenuator":
        return (E + 1.0) / (E_mapped + 1.0), E_mapped
    kappa = channel.value
    # kappa (E + 1) / ((kappa - 1) E + kappa) as 1 plus a ratio, never below 1
    return 1.0 + E / ((kappa - 1.0) * E + kappa), E_mapped


def esq_bounds_channel_state(channel, E):
    """Squashed-entanglement bounds for a channel applied to half a TMSV of energy E:
    Corollary 1, the bounds of esq_bounds_tms at tms_equivalent_params(channel, E)."""
    E = scalar_in_domain("mean energy", E, ENERGY)
    # the largest intermediate: when it is finite, so is every other one
    if channel.kind == "attenuator":
        eta = channel.value
        top = finite("(1 + eta) E + 1", (1.0 + eta) * E + 1.0, eta=eta, E=E)
        lower = math.log(top / ((1.0 - eta) * E + 1.0))
        upper = g(0.5 * (1.0 + eta) * E) - g(0.5 * (1.0 - eta) * E)
        provenance = ("corollary-1", "attenuator")
    else:
        kappa = channel.value
        top = finite("(kappa + 1) E + kappa", (kappa + 1.0) * E + kappa, kappa=kappa, E=E)
        lower = math.log(top / ((kappa - 1.0) * E + kappa))
        upper = g(0.5 * ((kappa + 1.0) * E + (kappa - 1.0))) - g(0.5 * (kappa - 1.0) * (E + 1.0))
        provenance = ("corollary-1", "amplifier")
    return BoundReport(
        lower=lower,
        upper=upper,
        provenance=provenance,
        parameters={"channel": channel.kind, "param": channel.value, "E": E},
    )


def channel_esq(channel):
    """Exact squashed entanglement of the channel; +inf at the divergent edge."""
    if channel.kind == "attenuator":
        eta = channel.value
        return math.inf if eta == 1.0 else math.log((1.0 + eta) / (1.0 - eta))
    kappa = channel.value
    return math.inf if kappa == 1.0 else math.log((kappa + 1.0) / (kappa - 1.0))


def secret_key_capacity(channel):
    """Secret-key capacity of the channel, as a comparison constant."""
    if channel.kind == "attenuator":
        eta = channel.value
        return math.inf if eta == 1.0 else math.log(1.0 / (1.0 - eta))
    kappa = channel.value
    return math.inf if kappa == 1.0 else math.log(kappa / (kappa - 1.0))


def _h_prime(kappa, x):
    """h_kappa'(x) = kappa g'(kappa x + kappa - 1) + (kappa - 1) g'((kappa - 1)(x + 1)) - g'(x),
    with g'(E) = ln(1 + 1/E); scalar."""
    return (kappa * math.log1p(1.0 / (kappa * x + kappa - 1.0))
            + (kappa - 1.0) * math.log1p(1.0 / ((kappa - 1.0) * (x + 1.0)))
            - math.log1p(1.0 / x))


#: h_kappa' < 0 at the left end and > 0 at the right end for every finite
#: kappa > 1: E_kappa rises from 0 at kappa -> 1 to about 0.255 as kappa grows
_E_KAPPA_BRACKET = (1e-300, 10.0)


def find_E_kappa(kappa):
    """Unconstrained minimizer E_kappa of h_kappa: the root of h_kappa'(x) = 0.

    h_kappa' changes sign once on (0, inf), from -inf at 0 to positive values,
    so bisection in ln x brackets the root down to adjacent doubles.
    """
    kappa = scalar_in_domain("squeezing gain", kappa,
                             (math.nextafter(1, 2), GAIN[1], "finite and > 1"))
    lo, hi = _E_KAPPA_BRACKET
    if not _h_prime(kappa, lo) < 0.0 < _h_prime(kappa, hi):
        raise DomainError(f"failed to bracket the minimizer of h at kappa = {kappa}")
    while True:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            return hi
        if _h_prime(kappa, mid) < 0.0:
            lo = mid
        else:
            hi = mid


def classical_esq(kappa, E):
    """Classical squashed entanglement (1/2) min_{x in [0, E]} h_kappa(x).

    Returns the value together with the minimizer structure.  E may be an
    array; the value and the minimizer fields are then elementwise.  At
    kappa = 1, h vanishes identically and E_kappa is reported as 0.
    """
    kappa = scalar_in_domain("squeezing gain", kappa, GAIN)
    E = in_domain("mean energy", E, ENERGY)
    e_kappa, argmin = _classical_argmin(kappa, E)
    value = 0.5 * h(kappa, argmin)
    return value, MinimizerResult(argmin_x=argmin, min_value=value, clipped=E < e_kappa,
                                  E_kappa=e_kappa)


def _classical_argmin(kappa, E):
    """E_kappa, or 0 at kappa = 1, and the minimizer min(E, E_kappa), at a validated kappa and E."""
    e_kappa = find_E_kappa(kappa) if kappa > 1.0 else 0.0
    return e_kappa, np.minimum(E, e_kappa)


def _tms_sweep_block(kappa, E):
    """figure1's block at one kappa over the grid E, both validated: esq_lower and the
    (len(E), 3) table of E, esq_upper and esq_classical, as esq_bounds_tms and
    classical_esq give them bit for bit, refusals included.  The five g arguments
    go through g's body in one unvalidated pass.  Each is finite and >= 0: the
    upper bound's are checked, and find_E_kappa refuses any kappa at which h's
    overflow at x = 10 >= E_kappa."""
    lower, *arguments = _tms_bounds_args(kappa, E)
    _, argmin = _classical_argmin(kappa, E)
    values = _g(np.array((*arguments, *_h_args(kappa, argmin))))
    table = np.empty((len(E), 3))
    table[:, 0] = E
    np.subtract(values[0], values[1], out=table[:, 1])
    np.multiply(0.5, _h_of(values[2:]), out=table[:, 2])
    return lower, table


def separation_check(kappa, E):
    """Classical squashed entanglement minus the squashed-entanglement upper bound.

    Strictly positive for kappa > 1 and E > 0 in exact arithmetic, and zero at
    kappa = 1 or E = 0.  In floating point the difference rounds to <= 0 at tiny
    E: it is exactly 0.0 at (1.5, 1e-16) and at (1.0001, 1e-300).
    """
    value, _ = classical_esq(kappa, E)
    return value - esq_bounds_tms(kappa, E).upper
