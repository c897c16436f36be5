"""Exception types shared across the package, and the one parameter validator."""

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
        arr = np.asarray(value, dtype=float)
        if ((arr >= lo) & (arr <= hi)).all():
            return arr if arr.ndim else float(arr)
    # formatted only on failure: printing an array costs more than the check
    raise DomainError(f"{name} must be {text}, got {value}")
