#!/usr/bin/env python3
"""Cutoff-doubling convergence study for the Fock-space oracle.

For a set of parameter points, evaluates the oracle conditional mutual
information and the channel output entropies at a doubling sequence of
cutoffs and records the deviation from the covariance-route reference.
The resulting table documents what truncation error the tail-selection
rule actually delivers, which is where the oracle's agreement tolerances
(1e-5 for the three-mode CMI, 1e-6 for channel entropies) come from.  For
the CMI it prints the measured lost norm next to the rule's tail estimate.
"""

import argparse
import sys

from cvsquash import fock
from cvsquash.entropics import ChannelParam, g
from cvsquash.states import extension_family, gaussian_cmi


def channel_study(kappa, E, cutoffs):
    reference = g(kappa * E + kappa - 1.0)
    rows = []
    for N in cutoffs:
        state = fock.thermal_fock(E, N)
        out = fock.apply_channel_fock(
            state, ChannelParam.amplifier(kappa), enforce_cutoff=False
        )
        rows.append((N, fock.geometric_tail(kappa * (E + 1.0) - 1.0, N),
                     abs(fock.spectral_entropy(out) - reference)))
    return rows


def cmi_study(kappa, E, eta, cutoffs):
    reference = gaussian_cmi(extension_family(kappa, E, eta), "A", "B", "R")
    e_max = fock.oracle_energy(kappa, E, eta)
    rows = []
    for N in cutoffs:
        value = fock.oracle_cmi(kappa, E, eta, N, enforce_cutoff=False)
        rule_ok = fock.required_cutoff(e_max) <= N
        rows.append((N, fock.geometric_tail(e_max, N), fock.oracle_lost_norm(kappa, E, eta, N),
                     abs(value - reference), rule_ok))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-cutoff", type=int, default=128)
    args = parser.parse_args()
    cutoffs = [c for c in (4, 8, 16, 32, 64, 128) if c <= args.max_cutoff]

    print("amplifier output entropy on a thermal input")
    print(f"{'kappa':>6} {'E':>5} {'N':>5} {'tail':>10} {'deviation':>12}")
    for kappa, E in ((1.5, 0.5), (2.0, 1.0)):
        for N, tail, dev in channel_study(kappa, E, cutoffs):
            print(f"{kappa:>6} {E:>5} {N:>5} {tail:>10.2e} {dev:>12.2e}")

    print()
    print("three-mode conditional mutual information")
    print(f"{'kappa':>6} {'E':>5} {'eta':>5} {'N':>5} {'tail':>10} {'lost norm':>10}"
          f" {'deviation':>12} rule")
    for kappa, E, eta in ((1.5, 0.5, 0.5), (2.0, 0.5, 0.5)):
        for N, tail, lost, dev, rule_ok in cmi_study(kappa, E, eta, cutoffs):
            flag = "ok" if rule_ok else "below"
            print(f"{kappa:>6} {E:>5} {eta:>5} {N:>5} {tail:>10.2e} {lost:>10.2e}"
                  f" {dev:>12.2e} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
