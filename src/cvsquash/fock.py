"""Truncated Fock-space oracle: dense states and exact channel actions.

This is the independent verification route for the covariance-matrix
formalism.  A state is a dense density matrix on a cutoff Fock space, or a
stack of them, with a recorded tail bound per matrix.  Every channel action is
built from one table of closed-form vacuum-ancilla amplitudes, kept read-only
in a cache of the last four: the attenuator, the amplifier and the amplifier's
complement are exact Kraus sums on it, with no eigendecomposition of the input.  ``oracle_cmi`` uses the conserved
photon-number charge of its pure four-mode state, whose squared amplitudes are
multinomial, (1 - q) / kappa (r + b + c)! / (r! b! c!) alpha^r y^b gamma^c: every
charge block of its two reduced states is rank one, and the cutoff, which zeroes
whole columns of a block, keeps it so.  Each entropy is then that of a
photon-number distribution, a thermal law cut by one binomial survival, in O(N)
time and memory, with no eigensolve.  What the truncation loses is reported, not
renormalized away; only a fixed memory limit bounds the cutoff.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CUTOFF, ENERGY, GAIN, TRANSMISSIVITY, CutoffError, DomainError,
                     InvalidStateError, finite, in_domain, memory_refusal, scalar_in_domain)

#: geometric tail mass a computation is sized for
TAIL_TARGET = 1e-10

#: refuse when the actual tail at the requested cutoff exceeds this multiple
#: of the target (the selection rule is marginal by design at round cutoffs)
_TAIL_SLACK = 10.0

#: eigenvalues below this are dropped when computing spectral entropies
_EIG_FLOOR = 1e-14


def _value(x):
    """A float for one matrix, the array itself for a stack."""
    return x if np.ndim(x) else float(x)


@dataclass(frozen=True)
class TruncatedState:
    """Dense density matrix on a cutoff Fock space, or a (..., N, N) stack of
    them, with the norm the truncation lost per matrix as ``tail_bound``.

    Like ``GaussianState``, ``trace``, ``mean_photon_number()`` and
    ``tail_bound`` are floats for one matrix and arrays for a stack."""

    matrix: np.ndarray
    tail_bound: float

    def __post_init__(self):
        m = self.matrix
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.size == 0:
            raise InvalidStateError(f"matrix shape {m.shape} is not a stack of square matrices")
        # a NaN or infinite entry makes its difference NaN or infinite, so one
        # comparison refuses both; only the message has to tell them apart
        with np.errstate(invalid="ignore"):
            hermitian = (np.abs(m - m.swapaxes(-1, -2).conj()) <= 1e-12).all()
        if not hermitian:
            raise InvalidStateError("density matrix " + (
                "is not Hermitian" if np.isfinite(m).all() else "has NaN or infinite entries"))
        tr = m.trace(axis1=-2, axis2=-1).real
        tail = np.full(tr.shape, self.tail_bound, dtype=float)
        object.__setattr__(self, "tail_bound", _value(tail))
        inside = (0.0 <= tail) & (tail <= 1.0) & (1.0 - tail - 1e-10 <= tr) & (tr <= 1.0 + 1e-10)
        if not inside.all():
            t, b = tr[~inside][0], tail[~inside][0]
            raise InvalidStateError(f"tail_bound {b} outside [0, 1]" if not 0.0 <= b <= 1.0
                                    else f"trace {t} outside [1 - tail_bound, 1]")

    @property
    def cutoff(self):
        return self.matrix.shape[-1]

    @property
    def trace(self):
        return _value(self.matrix.trace(axis1=-2, axis2=-1).real)

    def mean_photon_number(self):
        diag = self.matrix.diagonal(axis1=-2, axis2=-1).real
        return _value(diag @ np.arange(self.cutoff, dtype=float))


def geometric_tail(E, N):
    """Probability mass of a thermal state with mean energy E above cutoff N."""
    E = in_domain("mean energy", E, ENERGY)
    N = in_domain("cutoff", N, CUTOFF)
    return (E / (E + 1.0)) ** N


def required_cutoff(E_max):
    """Smallest cutoff whose geometric tail at energy E_max is below TAIL_TARGET."""
    if scalar_in_domain("mean energy", E_max, ENERGY) == 0.0:
        return 2
    # ln(E/(E+1)) as -log1p(1/E), which stays nonzero when E/(E+1) rounds to 1
    N = math.log(TAIL_TARGET) / -math.log1p(1.0 / E_max)
    if N == math.inf:  # N ~ E_max ln(1/tail) exceeds the largest double
        raise DomainError(f"no cutoff reaches a tail of {TAIL_TARGET:g} at mean energy {E_max:g}")
    return max(2, math.ceil(N))


def check_cutoff(N, E_max):
    """Refuse (with a required-N hint) cutoffs whose tail is far above TAIL_TARGET."""
    E_max = scalar_in_domain("mean energy", E_max, ENERGY)
    if geometric_tail(E_max, N) > _TAIL_SLACK * TAIL_TARGET:
        hint = required_cutoff(E_max)
        raise CutoffError(
            f"cutoff {N} is inadequate for per-mode energy {E_max:.4g};"
            f" the selection rule asks for N >= {hint}",
            required=hint,
        )


def _check_memory(N, nbytes, E_max):
    """Refuse, before anything is allocated, a working set of ``nbytes`` above
    ``errors.MEMORY_LIMIT``; the error carries the cutoff the rule asks for at E_max."""
    refusal = memory_refusal(nbytes, "cutoff {} needs {} of working memory", N)
    if refusal:
        raise CutoffError(refusal, required=required_cutoff(E_max))


def _thermal_probabilities(E, N, out=None):
    """Photon-number distribution of a thermal state of mean E, to level N - 1,
    written into ``out`` if it is given."""
    q1 = E + 1.0
    p = np.power(E / q1, np.arange(N), out=out)  # 0^0 = 1 at E = 0
    return np.divide(p, q1, out=p)


def thermal_fock(E, N):
    """Diagonal geometric thermal state, left sub-normalized by its tail."""
    E = scalar_in_domain("mean energy", E, ENERGY)
    N = in_domain("cutoff", N, CUTOFF)
    # the matrix and the Hermiticity check's temporaries
    _check_memory(N, 4 * 8 * N**2, E)
    return TruncatedState(np.diag(_thermal_probabilities(E, N)),
                          tail_bound=geometric_tail(E, N))


def entropy_of_spectrum(eigs):
    """-sum lambda ln lambda over the last axis of ``eigs``, one entropy per spectrum."""
    lam = np.asarray(eigs).real
    lam = np.where(lam > _EIG_FLOOR, lam, 1.0)  # a dropped eigenvalue adds 1 ln 1 = 0
    s = 0.0 - np.multiply(lam, np.log(lam), out=lam).sum(axis=-1)  # +0.0, not -0.0, if pure
    return float(s) if s.ndim == 0 else s


def spectral_entropy(state):
    """Von Neumann entropy -sum lambda ln lambda of a truncated state, or of each
    matrix of a (..., dim, dim) stack."""
    matrix = state.matrix if isinstance(state, TruncatedState) else np.asarray(state)
    return entropy_of_spectrum(np.linalg.eigvalsh(matrix))


def _check_channel_memory(N, K, count, E_out):
    """Refuse the working set of ``apply_channel_fock`` on ``count`` matrices of
    cutoff N and band K, whose largest channel energy is E_out."""
    # the transfer tensor (8 K N (N + 1) B); per state the padded input, the upper
    # triangle, the output and the buffer of out += upper (16 N (5 N + 1) B when
    # complex); per call the padded table, the table when it is built and the scan's
    # flags (below 32 N^2 B); and 8 KiB of fixed temporaries
    _check_memory(N, 8 * K * N * (N + 1) + 16 * N * (5 * N + 1) * count + 32 * N**2 + 2**13,
                  E_out)


def _kraus_sum(rho, channel, complement, K):
    """Kraus sum of the channel on a vacuum ancilla over a (..., N, N) stack of
    matrices, as a stack of the same shape, given the stack's band K: no matrix
    has a nonzero entry on a diagonal j - i >= K.

    All three channels conserve a - b, so diagonal k of the output depends only
    on diagonal k of the input, out[a, a + k] = sum_i T[k, a, i] rho[i, i + k], with
        amplifier    T[k, a, i] = sigma[i, a - i] sigma[i + k, a - i]
        attenuator   T[k, a, i] = beta[a, i - a] beta[a + k, i - a]
        complement   T[k, a, i] = sigma[i + k, a] sigma[i, a + k],  on conj(rho)
    and the amplitude tables 0 outside them.  T[k, a, i] = 0 once a + k or
    i + k reaches N, and by hermiticity only k >= 0 is needed; only k < K, as
    every term of a diagonal from K on is 0.  Time and the transfer's memory are
    O(K N^2): a thermal or Fock-state input has K = 1, and only an input on
    every diagonal pays the O(N^3) of K = N.

    The table is laid out in rows of N + 1, zero-padded to 2N rows and
    flattened; the attenuator's entry [m, j] goes to row m + j, its input, and
    column N - 1 - j, reversed so that a steps forward.  Each factor of T[k] is
    that flat table moved by 0, 1 or N + 1 places per k, so one product of two
    strided views makes P[k, x] for every k < K, and T[k] is a strided view of
    P[k] in which a steps by 1 and i by N (N + 1 for the complement).  Where a
    column index leaves the table's row, it reads the pad column or a
    neighbouring row, and the product is still T[k, a, i]: one of its factors
    then lies where the table is 0.  Every strided view here is an ndarray on
    its base's buffer, which numpy refuses if the view would leave it.

    The states are stacked state-last and zero-padded to (N, 2N, states), so
    the k-th diagonals of every state are one strided view D[k, i] of
    interleaved floats.  One real batched matmul T @ D writes diagonal k < K
    into the upper triangle of a zeroed (N + 1, N, states) stack, which keeps 0
    on the diagonals from K on; a + k >= N lands below the diagonal or in the
    spare row, as 0.  With T[0] halved, out + out^H fills the lower triangle, so
    every output equals its conjugate transpose exactly.  BLAS fixes no order
    for the terms of a sum, so the outputs agree with a per-term loop to
    rounding, not bit for bit.  Each diagonal is its own matmul of the batch,
    so a larger K than the band, as a stack's K is for its lower-band members,
    changes no output bit.
    """
    shape, N = rho.shape, rho.shape[-1]
    rho = rho.reshape(-1, N, N)
    S, R = len(rho), N + 1
    attenuator = channel.kind == "attenuator"
    table = _vacuum_ancilla_amplitudes("beam-splitter" if attenuator else "squeezer",
                                       channel.value, N)
    pad = np.zeros((2 * N, R))
    e = pad.itemsize
    if attenuator:  # [m, j] to row m + j, column N - 1 - j: one to one
        np.ndarray((N, N), float, buffer=pad, offset=(N - 1) * e,
                   strides=(R * e, N * e))[...] = table
    else:
        pad[:N, :N] = table
    # each factor's shift per k; then in P[k], the place of a = i = 0 and i's step
    if complement:  # x = i R + a
        shifts, start, step = (R, 1), 0, R
    elif attenuator:  # x = i N + a + N - 1, in the reversed columns
        shifts, start, step = (0, R), N - 1, N
    else:  # x = i N + a
        shifts, start, step = (0, R), 0, N
    # einsum, unlike the multiply ufunc, copies no strided operand into a buffer
    factors = [np.ndarray((K, N * R), float, buffer=pad, strides=(shift * e, e))
               for shift in shifts]
    P = np.einsum("kx,kx->kx", *factors)
    P[0] *= 0.5  # the main diagonal, which out + out^H counts twice
    T = np.ndarray((K, N, N), float, buffer=P, offset=start * e,
                   strides=(P.strides[0], e, step * e))

    dtype = np.result_type(float, rho.dtype)
    f = 2 if dtype.kind == "c" else 1  # floats per entry
    padded = np.zeros((N, 2 * N, S), dtype)
    padded[:, :N] = rho.transpose(1, 2, 0)
    upper = np.zeros((R, N, S), dtype)
    # [k, i or a, (state, float)], the last axis at unit stride in both
    row = f * S * e
    D = np.ndarray((K, N, f * S), float, buffer=padded, strides=(row, (2 * N + 1) * row, e))
    U = np.ndarray((K, N, f * S), float, buffer=upper, strides=(row, R * row, e))
    np.matmul(T, D, out=U)
    if complement:  # T @ conj(D) = conj(T @ D), as T is real
        np.conjugate(upper, out=upper)
    upper = upper[:N].transpose(2, 0, 1)
    # copyto reads the transposed view without a buffer; out += upper then reads
    # upper through numpy's ufunc buffer (up to 8192 entries), which the charge counts
    out = np.empty((S, N, N), dtype)
    np.copyto(out, upper.transpose(0, 2, 1))
    np.conjugate(out, out=out)
    out += upper
    return out.reshape(shape)


def apply_channel_fock(state, channel, complement=False, enforce_cutoff=True):
    """Stinespring action of the attenuator/amplifier on a one-mode state, or on
    each matrix of a stack of them; the output has the input's shape.

    The output is the exact Kraus sum sum_K K rho K^dag over the closed-form
    vacuum-ancilla amplitudes, truncated to the input's cutoff;
    ``complement=True`` keeps the ancilla instead of the output.  What the
    truncation loses, 1 - tr(out), is the output's ``tail_bound``.
    ``enforce_cutoff=False`` skips the thermal-tail refusals; appropriate for
    states with bounded support, where the mean-energy heuristic is far too
    pessimistic.  When the cutoff is enforced, an input whose recorded
    ``tail_bound`` is above what the cutoff rule allows is refused as well:
    its mean photon number, taken within the cutoff, understates its energy.
    On a stack, the checks apply to its largest energy and tail.

    The transfer covers only the input's band: the diagonals below K = 1 + the
    highest diagonal j - i on which any matrix of the stack has a nonzero entry
    (1 for an all-zero stack), so time and memory are O(K N^2).  One pass finds
    K before the working set is checked against ``errors.MEMORY_LIMIT``; its
    temporaries, N^2 bytes of flags, 2 N - 1 integers and numpy's buffer, lie
    within that charge.
    """
    if complement and channel.kind != "amplifier":
        raise DomainError("only the amplifier complement is supported")
    N, matrix = state.cutoff, state.matrix
    E_in = float(np.max(state.mean_photon_number()))
    # the amplifier's output energy exceeds its complement's by E_in, and falls
    # below E_in only where it rounds to 0, at kappa = 1 and a subnormal E_in
    E_out = max(E_in, channel.output_energy(E_in))
    # K = 1 + the highest diagonal j - i that a matrix of the stack occupies, in one
    # pass: N^2 flags, and j - i as a Toeplitz view of 2 N - 1 integers
    occupied = matrix.reshape(-1, N, N).any(axis=0)
    offsets = np.arange(1 - N, N)
    j_minus_i = np.ndarray((N, N), offsets.dtype, buffer=offsets,
                           offset=(N - 1) * offsets.itemsize,
                           strides=(-offsets.itemsize, offsets.itemsize))
    K = int(j_minus_i.max(where=occupied, initial=0)) + 1
    _check_channel_memory(N, K, matrix.size // N**2, E_out)
    if enforce_cutoff:
        check_cutoff(N, E_out)
        tail = float(np.max(state.tail_bound))
        if tail > _TAIL_SLACK * TAIL_TARGET:
            # a geometric tail q^N reaches the target at N ln(target) / ln(q^N);
            # a tail that rounds to 1 counts as the largest double below 1
            ln_tail = math.log(min(tail, 1.0 - 2.0**-53))
            hint = math.ceil(N * math.log(TAIL_TARGET) / ln_tail)
            raise CutoffError(
                f"the input state records a tail bound of {tail:.6g} at cutoff"
                f" {N}; the selection rule asks for N >= {hint}",
                required=hint,
            )
    out = _kraus_sum(matrix, channel, complement, K)
    lost = 1.0 - out.trace(axis1=-2, axis2=-1).real
    return TruncatedState(out, tail_bound=np.maximum(lost, 0.0))


def _log_factorials(N):
    """ln k! for k < N, summed in order, so a shorter table is a prefix of a longer."""
    out = np.arange(float(N))
    out[0] = 1.0  # ln 1 = 0.0, and 0.0 + ln 1 = ln 1: the sums of ln 1, ln 2, ...
    return np.add.accumulate(np.log(out, out=out), out=out)


def _log_powers(x, N):
    """m ln x for m < N along a new last axis, for every entry of the array x,
    with 0 ln 0 = 0."""
    out = np.empty(x.shape + (N,))
    # whole contiguous rows, which numpy multiplies without buffering; column 0,
    # 0 ln x (NaN at x = 0, -0.0 below 1), is then set to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(np.log(x)[..., None], np.arange(float(N)), out=out)
    out[..., 0] = 0.0
    return out


@functools.lru_cache(maxsize=4)
def _vacuum_ancilla_amplitudes(kind, value, N):
    """Beam-splitter or two-mode-squeezer amplitudes with a vacuum ancilla, as an
    (N, N) table: entry [m, j] is the amplitude of ancilla j with m photons in
    the output (beam splitter, input m + j) or in the input (squeezer, output
    m + j), 0 from m + j = N on.

    beam splitter:  sqrt(C(m+j, j)) eta^(m/2) (1-eta)^(j/2)
    squeezer:       sqrt(C(m+j, j)) kappa^(-(m+1)/2) (1-1/kappa)^(j/2)

    These are the vacuum-ancilla Kraus amplitudes (Ivan, Sabapathy and Simon,
    PRA 84, 042311, 2011), with the beam splitter's signs (-1)^j dropped: a local
    unitary on the ancilla, which changes no entropy.  They are the exact
    amplitudes, not those of the truncated unitary, which are renormalized within
    the cutoff.  Both are sqrt(C(m+j, j) x^m y^j), up to the squeezer's one more
    power of 1/kappa, summed in log space in the order
    ln (m + j)! - ln j! - ln m! + m ln x + j ln y, with 0^0 = 1.

    The table is a pure function of its arguments, so the last four are kept,
    read-only, and handed to every caller: 8 N^2 B each, up to 4 x 8 N^2 B in
    all, about 286 MB at N = 2991, the largest cutoff that the charge of
    ``apply_channel_fock`` allows one thermal state.  The transfer tensor built
    from it, 8 K N (N + 1) B on the input's band K, is not kept.
    """
    # ln k! and its Hankel view [m, j] = ln (m + j)!, -inf from m + j = N on, the cut
    log_fact = _log_factorials(2 * N - 1)
    log_fact[N:] = -np.inf
    hankel = np.ndarray((N, N), float, buffer=log_fact, strides=(log_fact.itemsize,) * 2)
    if kind == "squeezer":
        # m ln kappa for m <= N gives the row term -(m + 1) ln kappa
        powers = _log_powers(np.array([value, (value - 1.0) / value]), N + 1)
        row, col = -powers[0, 1:], powers[1, :N]
    else:
        row, col = _log_powers(np.array([value, 1.0 - value]), N)
    log_amp = hankel - log_fact[:N]
    log_amp -= log_fact[:N, None]
    log_amp += row[:, None]
    log_amp += col
    log_amp *= 0.5
    np.exp(log_amp, out=log_amp)
    log_amp.flags.writeable = False  # one array is handed to every caller
    return log_amp


def oracle_energy(kappa, E, eta):
    """The energy that the cutoff rule of ``oracle_cmi`` is applied to:
    max(kappa (E + 1) - min(eta, 1 - eta) E - 1, E); DomainError if it overflows.

    This is not the largest mean photon number of a mode of the purification:
    mode A has mean kappa (E + 1) - 1 at every eta, so at 0 < eta < 1 the rule
    sizes the cutoff for a smaller energy than the truncation of n_A loses norm
    to (ROADMAP item 12).
    """
    return finite("kappa (E + 1) - min(eta, 1 - eta) E - 1",
                  max(kappa * (E + 1.0) - min(eta, 1.0 - eta) * E - 1.0, E),
                  kappa=kappa, E=E, eta=eta)


def _oracle_distributions(kappa, E, eta, N, enforce_cutoff):
    """Photon-number distributions of n_R, n_C, n_B + n_R and n_B + n_C in the
    truncated purification behind ``oracle_cmi``, as the rows of one (4, N) array,
    after the domain, memory and cutoff checks: thermal laws, each cut by one
    binomial survival.  The binomial's probabilities, 1 + mu_X and mu_Xbar over
    1 + mode A's mean, are ratios with no difference, as X's partner Xbar (n_R and
    n_B + n_C, n_C and n_B + n_R) makes up the rest of n_A.  Each survival is
    summed from its smaller side, in one pass over one preallocated buffer."""
    kappa = scalar_in_domain("squeezing gain", kappa, GAIN)
    E = scalar_in_domain("mean energy", E, ENERGY)
    eta = scalar_in_domain("transmissivity", eta, TRANSMISSIVITY)
    N = in_domain("cutoff", N, CUTOFF)
    e_max = oracle_energy(kappa, E, eta)
    # the (2, 4, N + 1) buffer, which the returned view keeps, and the two (4, N) arrays
    # of entropy_of_spectrum; and 130 KiB for ufunc buffers and the interpreter, up to
    # 81 KiB near N = 1000 (tracemalloc: 0.81 of the charge there, 16.001 x 8 N B at
    # N = 10^5).  The limit allows N up to 8 387 568.
    _check_memory(N, 16 * 8 * N + 130 * 2**10, e_max)
    if enforce_cutoff:
        check_cutoff(N, e_max)

    # the means of n_R, n_C, n_B + n_R and n_B + n_C; partners are in reverse order
    grown = (kappa - 1.0) * (E + 1.0)
    mu = np.array([eta * E, (1.0 - eta) * E, grown + eta * E, grown + (1.0 - eta) * E])
    log_fact = _log_factorials(N + 1)
    # ln of the binomial's probabilities at k = 0..N: ln C(N, k) + k ln p + (N - k) ln (1 - p)
    powers = _log_powers(np.array([1.0 + mu, mu[::-1]]) / (kappa * (E + 1.0)), N + 1)
    pmf = np.add(powers[0], powers[1, :, ::-1], out=powers[0])
    binomial = np.subtract(log_fact[N], log_fact, out=powers[1, 0])  # powers[1] is free
    pmf += np.subtract(binomial, log_fact[::-1], out=binomial)
    np.exp(pmf, out=pmf)
    # whole rows of N + 1 from here; the last column, whose survival is 0, is dropped
    upper = powers[1]
    upper[:, N] = 0.0
    np.add.accumulate(pmf[:, :0:-1], axis=1, out=upper[:, -2::-1])  # [m]: the sum over k > m
    survival = np.subtract(1.0, np.add.accumulate(pmf, axis=1, out=pmf), out=pmf)  # over k <= m
    np.copyto(survival, upper, where=upper < 0.5)
    survival *= _thermal_probabilities(mu[:, None], N + 1, out=upper)
    return survival[:, :N]


def _cmi_of(p):
    """I(A;B|R) from the distributions of ``_oracle_distributions``."""
    s_r, s_c, s_br, s_bc = entropy_of_spectrum(p)
    return float(s_bc + s_br - s_r - s_c)


def _lost_norm_of(p):
    """1 - <psi|psi>, the mass n_R's distribution lacks, from ``_oracle_distributions``."""
    return 1.0 - float(p[0].sum())


def oracle_lost_norm(kappa, E, eta, N):
    """1 - <psi|psi> for the truncated four-mode purification behind ``oracle_cmi``;
    reported at any cutoff, since it measures what the tail rule estimates."""
    return _lost_norm_of(_oracle_distributions(kappa, E, eta, N, enforce_cutoff=False))


def oracle_cmi(kappa, E, eta, N, enforce_cutoff=True):
    """Conditional mutual information I(A;B|R) of the Gaussian extension family,
    computed entirely in Fock space.

    The three-mode state is handled through its exact four-mode purification
    (A, B, R and the attenuator environment C), which conserves the charge
    n_A - n_B - n_R - n_C.  So rho_AR is block-diagonal in d = n_B + n_C and
    rho_BR in e = n_B + n_R, rho_R and rho_C are diagonal, and S(ABR) = S(C).

    With q = E / (E + 1), y = 1 - 1/kappa, alpha = q eta / kappa and
    gamma = q (1 - eta) / kappa, the squared amplitude of (n_R, n_B, n_C) =
    (r, b, c) is multinomial,
        (1 - q) / kappa (r + b + c)! / (r! b! c!) alpha^r y^b gamma^c,
    kept where r + b + c < N.  Every charge block is rank one: at b + c = d the
    multinomial is C(r + d, r) C(d, b), so every entry of block d of rho_AR
    (rows b, columns r) is u_d(b) v_d(r), and likewise for rho_BR at b + r = e
    (rows b, columns c).  The truncation keeps it so, as r + d < N zeroes whole
    columns of block d.  A rank-one block's one eigenvalue is its trace, so
    S(AR), S(BR), S(R) and S(C) are the Shannon entropies of n_B + n_C,
    n_B + n_R, n_R and n_C, with no eigensolve.  Each, X, is thermal of mean mu,
    and given X the rest of n_A = r + b + c is negative binomial, so the cut keeps
    p_X(m) = t_mu(m) P[Bin(N, (1 + mu) / (kappa (E + 1))) > m], t_mu thermal, with mu
        n_R: eta E                 n_B + n_R: (kappa - 1)(E + 1) + eta E
        n_C: (1 - eta) E           n_B + n_C: (kappa - 1)(E + 1) + (1 - eta) E
    The four entropies come from one pass of ``entropy_of_spectrum`` over the
    four distributions stacked as rows, each row summed as a call on that row
    alone sums it.  Time and memory are O(N).  Cutoffs whose working set exceeds
    ``errors.MEMORY_LIMIT`` are refused before anything is allocated.  The
    truncated state is left sub-normalized by ``oracle_lost_norm``.
    """
    return _cmi_of(_oracle_distributions(kappa, E, eta, N, enforce_cutoff))


def random_one_mode_state(rng, N, support=10):
    """Seeded random state: Dirichlet-weighted diagonal mixture on the lowest
    ``support`` levels, stirred by six Haar-random rotations of random level
    pairs among the lowest support + 2 (at most N)."""
    N = in_domain("cutoff", N, CUTOFF)
    support = in_domain("support", support, (1, N, f"an integer in [1, N = {N}]"))
    rho = _random_mixture(rng, N, np.arange(support), np.arange(min(support + 2, N)), 6)
    return TruncatedState(rho, tail_bound=0.0)


def _random_mixture(rng, dim, weighted, stirred, rotations):
    """(dim, dim) density matrix: Dirichlet weights on the basis states
    ``weighted``, then ``rotations`` Haar-random rotations, each of two distinct
    basis states drawn from ``stirred``."""
    p = rng.dirichlet(np.ones(len(weighted)))
    rho = np.zeros((dim, dim), dtype=complex)
    rho[weighted, weighted] = p
    for _ in range(rotations):
        i, j = stirred[rng.choice(len(stirred), size=2, replace=False)]
        _rotate_pair(rho, i, j, rng)
    return 0.5 * (rho + rho.conj().T)


def _rotate_pair(rho, i, j, rng):
    """Conjugate rho, in place, by a Haar-random U(2) block on basis states i, j."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    # U = q on (i, j) and the identity elsewhere: only rows i, j and then
    # columns i, j of U rho U^dag change
    pair = [i, j]
    rho[pair] = q @ rho[pair]
    rho[:, pair] = rho[:, pair] @ q.conj().T
