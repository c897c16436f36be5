"""The benchmark's own closed forms, written apart from ``cvsquash``.

Every value a check compares against comes from here or from a property the
paper proves, never from the package under test.  The formulas are written
in the textbook form, not copied from ``cvsquash.entropics``.
"""

import math

import numpy as np

#: golden-section shrink factor
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def g(E):
    """Thermal entropy (E+1) ln(E+1) - E ln E, in nats; scalar."""
    if E < 0.0:
        raise ValueError(f"mean energy must be >= 0, got {E}")
    if E == 0.0:
        return 0.0
    return (E + 1.0) * math.log1p(E) - E * math.log(E)


def g_array(E):
    """Elementwise ``g`` over a numpy array of energies."""
    E = np.asarray(E, dtype=float)
    safe = np.where(E > 0.0, E, 1.0)
    return np.where(E > 0.0, (safe + 1.0) * np.log1p(safe) - safe * np.log(safe), 0.0)


def g_inverse(s):
    """The E >= 0 with g(E) = s, by bisection down to adjacent doubles.

    g(E) >= ln(E + 1), so [0, e^s - 1] brackets the root.
    """
    if not s >= 0.0:
        raise ValueError(f"entropy must be >= 0, got {s}")
    lo, hi = 0.0, math.expm1(s)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if g(mid) < s:
            lo = mid
        else:
            hi = mid


def h(kappa, x):
    """h_kappa(x) = g(kappa x + kappa - 1) + g((kappa-1)(x+1)) - g(x)."""
    return g(kappa * x + kappa - 1.0) + g((kappa - 1.0) * (x + 1.0)) - g(x)


def h_array(kappa, x):
    x = np.asarray(x, dtype=float)
    return g_array(kappa * x + kappa - 1.0) + g_array((kappa - 1.0) * (x + 1.0)) - g_array(x)


def esq_lower(kappa):
    """Theorem 1 lower bound ln(2 kappa - 1) on the squeezed thermal-vacuum state."""
    return math.log(2.0 * kappa - 1.0)


def esq_upper(kappa, E):
    """Theorem 1 upper bound g((kappa - 1/2) E + kappa - 1) - g(E/2)."""
    return g((kappa - 0.5) * E + kappa - 1.0) - g(0.5 * E)


#: the paper's bound on the gap between the two bounds, ln(e/2)
GAP_LIMIT = 1.0 - math.log(2.0)


def cosh_lower(kappa, s):
    """EPI lower bound ln(2k(k-1) cosh s + k^2 + (k-1)^2) on the CMI of any extension."""
    return math.log(
        2.0 * kappa * (kappa - 1.0) * math.cosh(s) + kappa**2 + (kappa - 1.0) ** 2
    )


def extension_conditional_entropy(E, eta):
    """Conditional entropy s = g((1-eta) E) - g(eta E) entering the cosh bound."""
    return g((1.0 - eta) * E) - g(eta * E)


def classical_by_scan(kappa, E, points=4001, tol=1e-13):
    """(1/2) min of h_kappa over [0, E]: a dense grid, then golden-section
    refinement inside the grid cell pair around the best point."""
    if E == 0.0:
        return 0.5 * h(kappa, 0.0)
    xs = np.linspace(0.0, E, points)
    i = int(np.argmin(h_array(kappa, xs)))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = h(kappa, c), h(kappa, d)
    while b - a > tol * max(1.0, b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = h(kappa, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = h(kappa, d)
    return 0.5 * min(fc, fd, h(kappa, xs[0]), h(kappa, xs[-1]))


def moe_amplifier(kappa, s):
    """Minimum output entropy g(kappa g^-1(s) + kappa - 1) of the amplifier at input entropy s."""
    return g(kappa * g_inverse(s) + kappa - 1.0)


def moe_complement(kappa, s):
    """Minimum output entropy g((kappa-1)(g^-1(s) + 1)) of the amplifier's complement."""
    return g((kappa - 1.0) * (g_inverse(s) + 1.0))


def von_neumann(matrix):
    """-sum lambda ln lambda over the positive spectrum of a Hermitian matrix."""
    lam = np.linalg.eigvalsh(matrix)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def required_cutoff(e_max, tail=1e-10):
    """Smallest N with (e/(e+1))^N <= tail: the package's documented cutoff rule."""
    if e_max <= 0.0:
        return 2
    return max(2, math.ceil(math.log(tail) / math.log(e_max / (e_max + 1.0))))
