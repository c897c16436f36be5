"""Exception types shared across the package, the parameter validator, the overflow
refusal and the memory limit."""

import sys

import numpy as np


class DomainError(ValueError):
    """A parameter is outside its mathematical domain (e.g. negative energy)."""


class InvalidStateError(ValueError):
    """A covariance matrix or density matrix fails a physicality check."""


class SingularPointError(ValueError):
    """A closed-form expression was evaluated at a point where it is singular."""


class CutoffError(RuntimeError):
    """A Fock-space computation was refused because the cutoff is inadequate.

    ``required`` carries the per-mode cutoff that the selection rule asks for.
    """

    def __init__(self, message, required):
        super().__init__(message)
        self.required = required


_MAX = sys.float_info.max

#: parameter domains (lo, hi, wording) of the closed interval [lo, hi]; an
#: unbounded end is the largest double, so that one chained comparison also
#: fails NaN and +-inf.  An int lo makes it a domain of integers.
GAIN = (1.0, _MAX, "finite and >= 1")
ENERGY = (0.0, _MAX, "finite and >= 0")
TRANSMISSIVITY = (0.0, 1.0, "in [0, 1]")
FINITE = (-_MAX, _MAX, "finite")  # a conditional entropy, which may be negative
CUTOFF = (2, sys.maxsize, "an integer >= 2")

#: working memory a computation may use (a Fock cutoff, a stack of covariance
#: matrices, a figure1 sweep); more is refused up front, by ``memory_refusal``
MEMORY_LIMIT = 2**30


def in_domain(name, value, domain):
    """``value`` as a float, a float array or, for integers, an int; DomainError
    naming ``name`` if any entry is outside ``domain``, NaN or infinite."""
    lo, hi, text = domain
    if isinstance(lo, int):
        if isinstance(value, (int, np.integer)) and lo <= value <= hi:
            return int(value)
    elif isinstance(value, (float, int)):
        if lo <= value <= hi:  # fails on NaN
            return float(value)
    else:
        try:
            arr = np.asarray(value, dtype=float)
            if ((arr >= lo) & (arr <= hi)).all():
                return arr if arr.ndim else float(arr)
        except (TypeError, ValueError):  # not numbers, as "abc"
            pass
    # formatted only on failure: printing an array costs more than the check
    raise DomainError(f"{name} must be {text}, got {value}")


def scalar_in_domain(name, value, domain):
    """``in_domain`` for a parameter that takes one number: a float, or DomainError
    naming ``name`` for an array of one or more dimensions."""
    value = in_domain(name, value, domain)
    if isinstance(value, float):
        return value
    raise DomainError(f"{name} must be one number, got an array of shape {value.shape}")


def finite(text, value, **params):
    """``value`` if every entry is finite, else DomainError "``text`` overflows at k = v, ...",
    with each of ``params``, broadcast against ``value``, at the first entry that is not."""
    # a float takes one chained comparison, which fails on NaN, not a numpy call
    if (isinstance(value, float) and -_MAX <= value <= _MAX) or np.isfinite(value).all():
        return value
    shape = np.broadcast_shapes(np.shape(value), *map(np.shape, params.values()))
    first = np.flatnonzero(~np.isfinite(np.broadcast_to(value, shape)))[0]
    at = ", ".join(f"{k} = {np.broadcast_to(v, shape).flat[first]:g}" for k, v in params.items())
    raise DomainError(f"{text} overflows at {at}")


def memory_refusal(nbytes, needs, *args):
    """The refusal of a working set of ``nbytes`` above ``MEMORY_LIMIT``, read at
    call time, ``needs`` formatted with ``args`` and the size; None if it fits."""
    if nbytes > MEMORY_LIMIT:
        return (needs.format(*args, f"{nbytes / 2**20:.4g} MiB")
                + f", above the limit of {MEMORY_LIMIT / 2**20:.4g} MiB")
