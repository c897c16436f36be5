"""Independent references for the tests, written apart from ``cvsquash`` so
that a cross-check never leans on the code it checks.

Quadrature ordering is (Q1, P1, Q2, P2, ...), as in the package.  The
covariance-route references are the textbook symplectic matrices of the
Gaussian unitaries behind the package's closed forms, with no parameter
validation.  The Fock-route reference is the per-term Kraus sum, which takes
its amplitude table as an argument.  The figure1 reference renders sweep rows
one at a time, as the command line once did.
"""

import json

import numpy as np

_Z = np.diag([1.0, -1.0])


def symplectic_form(n_modes):
    """Block-diagonal [[0, 1], [-1, 0]] form on n modes."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def is_symplectic(S, tol=1e-10):
    """Whether S Delta S^T equals Delta to within tol, entrywise."""
    delta = symplectic_form(len(S) // 2)
    return np.abs(S @ delta @ S.T - delta).max() <= tol


def beam_splitter_symplectic(eta):
    """4x4 quadrature action of the beam splitter a -> sqrt(eta) a + sqrt(1-eta) b."""
    c, s = np.sqrt(eta), np.sqrt(1.0 - eta)
    i2 = np.eye(2)
    return np.block([[c * i2, s * i2], [-s * i2, c * i2]])


def two_mode_squeezer_symplectic(kappa):
    """4x4 quadrature action of the two-mode squeezer a -> sqrt(k) a + sqrt(k-1) b^dag.

    The b^dag conjugation mixes Q with Q and P with -P of the partner mode.
    """
    c, s = np.sqrt(kappa), np.sqrt(kappa - 1.0)
    return np.block([[c * np.eye(2), s * _Z], [s * _Z, c * np.eye(2)]])


def embed_symplectic(S_pair, n_modes, modes):
    """Embed a 4x4 two-mode symplectic into 2n x 2n, acting on the given mode pair."""
    m0, m1 = modes
    out = np.eye(2 * n_modes)
    idx = np.array([2 * m0, 2 * m0 + 1, 2 * m1, 2 * m1 + 1])
    out[np.ix_(idx, idx)] = S_pair
    return out


def apply_symplectic(S, sigma):
    """Congruence action sigma -> S sigma S^T, symmetrized against roundoff."""
    out = S @ sigma @ S.T
    return 0.5 * (out + out.T)


def kraus_sum_loop(rho, table, attenuator, complement=False):
    """Per-term reference for the Fock route's channel action sum_K K rho K^dag:
    one outer product and slice update per Kraus term, read from the
    vacuum-ancilla amplitude table (the beam splitter's for the attenuator, the
    squeezer's for the amplifier and its complement)."""
    N = len(rho)
    if attenuator:  # K_j |m + j> = beta[m + j, j] |m>
        terms = [(slice(0, N - j), slice(j, N), table[j:, j]) for j in range(N)]
    elif complement:  # K_t |t - j> = sigma[t - j, j] |j>, for output t of the amplifier
        terms = [(slice(0, t + 1), slice(t, None, -1), np.diagonal(table[t::-1]))
                 for t in range(N)]
    else:  # K_j |n> = sigma[n, j] |n + j>
        terms = [(slice(j, N), slice(0, N - j), table[: N - j, j]) for j in range(N)]
    out = np.zeros_like(rho, dtype=np.result_type(rho, float))
    for dest, src, amp in terms:
        out[dest, dest] += np.outer(amp, amp) * rho[src, src]
    return out


FIGURE1_HEADER = "kappa,E,esq_lower,esq_upper,esq_classical"


def figure1_text(rows, precision, fmt):
    """Row-by-row reference for the ``figure1`` output of finite 5-tuples
    (kappa, E, esq_lower, esq_upper, esq_classical): one ``str.format`` per CSV
    row, or one dict per JSON row with each value rounded to ``precision``
    significant digits."""
    names = FIGURE1_HEADER.split(",")
    if fmt == "json":
        payload = [{name: float(format(float(value), f".{precision}g"))
                    for name, value in zip(names, row)} for row in rows]
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    template = ",".join([f"{{:.{precision}g}}"] * len(names))
    return "\n".join([FIGURE1_HEADER] + [template.format(*row) for row in rows]) + "\n"
