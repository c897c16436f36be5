#!/usr/bin/env python3
"""Seeded scan of the extension family against the covariance validation floor.

Draws (kappa, E, eta) uniformly over [1, 10] x [0, 50] x [0, 1] with
``numpy.random.default_rng(seed)``, as three arrays in that order, and builds
``extension_family(kappa, E, eta)`` for each draw.  It prints two counts:

- rejected: construction raises ``InvalidStateError``;
- within half the floor: the state is built, but the whole state or one of
  its marginals has nu_min - 1/2 < -floor / 2, where floor is the
  validator's max(_NU_TOL, 1e-13 * max(1, max |sigma|)).

The margins are read with ``symplectic_eigenvalues`` on each marginal
covariance; a marginal that it rejects counts as within half the floor.
The draws within half the floor are listed, worst margin first, in units of
the floor (below -1 is rejected).  This is the regression data for the
kernel's error model: see ROADMAP item 5.

    PYTHONPATH=src python3 scripts/validation_scan.py [--draws 40000] [--seed 0]
"""

import argparse
import itertools
import math
import sys

import numpy as np

from cvsquash import symplectic
from cvsquash.errors import InvalidStateError
from cvsquash.states import extension_family


def margin(cov):
    """nu_min - 1/2 in units of the validation floor; -inf if it is rejected."""
    floor = max(symplectic._NU_TOL, 1e-13 * max(1.0, float(np.abs(cov).max())))
    try:
        nu_min = symplectic.symplectic_eigenvalues(cov)[-1]
    except InvalidStateError:
        return -math.inf
    return (nu_min - 0.5) / floor


def scan(draws, seed):
    """Rejected count and (margin, kappa, E, eta, marginal) of each draw within
    half the floor."""
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(1.0, 10.0, draws)
    energy = rng.uniform(0.0, 50.0, draws)
    eta = rng.uniform(0.0, 1.0, draws)
    rejected, near = 0, []
    for point in zip(kappa.tolist(), energy.tolist(), eta.tolist()):
        try:
            state = extension_family(*point)
        except InvalidStateError:
            rejected += 1
            continue
        subsets = [s for size in (3, 2, 1) for s in itertools.combinations(state.labels, size)]
        worst, where = min((margin(state.marginal_cov(s)), s) for s in subsets)
        if worst < -0.5:
            near.append((worst, *point, "".join(where)))
    return rejected, sorted(near)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=40000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rejected, near = scan(args.draws, args.seed)
    print(f"draws: {args.draws}")
    print(f"seed: {args.seed}")
    print(f"rejected: {rejected}")
    print(f"within half the floor: {len(near)}")
    for worst, kappa, E, eta, where in near:
        print(f"  margin {worst:.3g} floor on {where} at kappa = {kappa!r}, E = {E!r}, eta = {eta!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
