"""Unit tests for the truncated Fock-space oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from cvsquash import errors, fock
from cvsquash.entropics import ChannelParam, cond_epi_rhs, g
from cvsquash.errors import CutoffError, DomainError, InvalidStateError
from cvsquash.states import extension_family, gaussian_cmi
from cvsquash.verify import oracle_cmi_grid, run_suite

from .reference import kraus_sum_loop


def expm_column(kind, value, n, size):
    """Reference for the closed-form amplitude table: column 0 of exp(G), where G
    is the truncated two-mode generator on the charge block that input n with a
    vacuum ancilla occupies, kept to ancilla levels j < size."""
    j = np.arange(1.0, size)
    if kind == "squeezer":
        c = math.acosh(math.sqrt(value)) * np.sqrt((n + j) * j)
    else:
        c = -math.acos(math.sqrt(value)) * np.sqrt((n - j + 1.0) * j)
    # the generator G is real antisymmetric, so iG = V diag(w) V^H is Hermitian and
    # exp(G) = V diag(e^(-iw)) V^H, whose column 0 is real
    w, v = np.linalg.eigh(1j * (np.diag(c, -1) - np.diag(c, 1)))
    return (v @ (np.exp(-1j * w) * v[0].conj())).real


def beam_splitter_by_input(eta, N):
    """The beam-splitter table re-laid from [output m, ancilla j] to [input n, j],
    with n = m + j, 0 where j > n: the layout of the references below."""
    table = fock._vacuum_ancilla_amplitudes("beam-splitter", eta, N)
    n, j = np.ogrid[:N, :N]
    return np.where(j <= n, table[(n - j) % N, j], 0.0)


def stinespring_reference(rho, channel, complement):
    """Dense Stinespring action built from the expm block columns: the isometry
    V[output, ancilla, input] applied to rho, with one side traced out."""
    N = len(rho)
    V = np.zeros((N, N, N))
    for n in range(N):
        if channel.kind == "amplifier":
            col = expm_column("squeezer", channel.value, n, N - n)
            j = np.arange(N - n)
            V[n + j, j, n] = col
        else:
            col = expm_column("beam-splitter", channel.value, n, n + 1)
            j = np.arange(n + 1)
            V[n - j, j, n] = col
    if complement:
        V = V.transpose(1, 0, 2)  # keep the ancilla, trace out the output
    joint = V @ rho
    return joint.reshape(N, -1) @ V.reshape(N, -1).T


def oracle_wavefunction(kappa, E, eta, N):
    """Reference for the truncated pure state of modes (A, B, R, C) behind
    fock.oracle_cmi, as X[r, c, b] = sigma[n, b] lam[n] beta[r, c] with n = r + c.
    The axes r and c carry one extra all-zero index N, where gathers of blocks
    land when they fall outside the state."""
    lam = np.zeros(2 * N + 1)
    lam[:N] = np.sqrt(fock._thermal_probabilities(E, N))  # the TMSV Schmidt coefficients
    beta = np.zeros((N + 1, N))
    beta[:N] = fock._vacuum_ancilla_amplitudes("beam-splitter", eta, N)
    sigma = np.zeros((2 * N + 1, N))
    sigma[:N] = fock._vacuum_ancilla_amplitudes("squeezer", kappa, N)
    k = np.arange(N + 1)
    n = k[:, None] + k[None, :]  # n = r + c
    c = np.minimum(k, N - 1)[None, :]  # c = N only meets n >= N, where lam is 0
    X = sigma[n]
    X *= (lam[n] * beta[k[:, None], c])[:, :, None]
    return X


def charge_blocks(X):
    """The charge blocks of rho_AR and rho_BR from the reference wavefunction, as
    two padded (N, N, N + 1) stacks: block d of rho_AR is X[r, d - b, b] (rows b,
    columns r) and block e of rho_BR is X[e - b, c, b] (rows b, columns c), with
    the all-zero index N where d - b or e - b is negative."""
    N = len(X) - 1
    k = np.arange(N)
    rest = np.where(k[:, None] >= k[None, :], k[:, None] - k[None, :], N)
    return X.transpose(1, 2, 0)[rest, k], X.transpose(0, 2, 1)[rest, k]


def unfolded_blocked_entropy(blocks):
    """Entropy of a block-diagonal state, every block eigensolved through its
    full N x N Gram matrix."""
    gram = blocks @ blocks.transpose(0, 2, 1)
    return fock.entropy_of_spectrum(np.linalg.eigvalsh(gram).ravel())


def eigensolve_oracle_cmi(kappa, E, eta, N):
    """Reference for fock.oracle_cmi: S(AR) + S(BR) - S(R) - S(C) with the charge
    blocks of rho_AR and rho_BR eigensolved, as if of any rank."""
    X = oracle_wavefunction(kappa, E, eta, N)
    s_ar, s_br = (unfolded_blocked_entropy(blocks) for blocks in charge_blocks(X))
    prob = X**2
    s_r = fock.entropy_of_spectrum(prob.sum(axis=(1, 2)))
    s_c = fock.entropy_of_spectrum(prob.sum(axis=(0, 2)))
    return s_ar + s_br - s_r - s_c


def einsum_distributions(kappa, E, eta, N):
    """Reference for fock._oracle_distributions: the distributions of n_R, n_C,
    n_B + n_R and n_B + n_C contracted from the amplitude tables.  With n = r + c,
    the squared amplitude is w[r, c] H[r, c, b]: w = lam^2 beta^2 and H[r, c, b] =
    sigma^2[r + c, b], a Hankel view of the zero-padded squeezer table.  The two
    sums run to 2N - 1, past the cut, where they are 0."""
    w = fock._vacuum_ancilla_amplitudes("beam-splitter", eta, N) ** 2  # beta^2[r, c]
    sigma2 = np.zeros((2 * N, N))
    sigma2[:N] = fock._vacuum_ancilla_amplitudes("squeezer", kappa, N)
    sigma2 **= 2
    k = np.arange(N)
    n = k[:, None] + k[None, :]  # n = r + c, and in the joint tables r + b or c + b
    lam2 = np.zeros(2 * N)
    lam2[:N] = fock._thermal_probabilities(E, N)
    w *= lam2[n]
    H = as_strided(sigma2, (N, N, N), (sigma2.strides[0],) * 2 + (sigma2.strides[1],))
    rb = np.einsum("rc,rcb->rb", w, H)
    cb = np.einsum("rc,rcb->cb", w, H)
    return (rb.sum(axis=1), cb.sum(axis=1),
            np.bincount(n.ravel(), weights=rb.ravel()), np.bincount(n.ravel(), weights=cb.ravel()))


def four_pass_oracle(kappa, E, eta, N):
    """Reference for fock.oracle_cmi and fock.oracle_lost_norm, bit for bit: the
    same distributions, with ln k! cut from a table of length 2N + 1, and one
    entropy call per distribution, combined in the same order.  Returns
    (cmi, lost norm)."""
    grown = (kappa - 1.0) * (E + 1.0)
    mu = np.array([eta * E, (1.0 - eta) * E, grown + eta * E, grown + (1.0 - eta) * E])
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, 2 * N + 1)))))[:N + 1]
    powers = np.zeros((2, 4, N + 1))
    with np.errstate(divide="ignore"):
        ratios = np.array([1.0 + mu, mu[::-1]]) / (kappa * (E + 1.0))
        powers[..., 1:] = np.log(ratios)[..., None] * np.arange(1, N + 1)
    pmf = np.add(powers[0], powers[1, :, ::-1], out=powers[0])
    pmf += log_fact[N] - log_fact - log_fact[::-1]
    np.exp(pmf, out=pmf)
    upper = np.cumsum(pmf[:, :0:-1], axis=1)[:, ::-1]
    survival = 1.0 - np.cumsum(pmf[:, :N], axis=1)
    np.copyto(survival, upper, where=upper < 0.5)
    q = mu[:, None]
    survival *= (q / (q + 1.0)) ** np.arange(N) / (q + 1.0)
    p_r, p_c, p_br, p_bc = tuple(survival)
    cmi = (fock.entropy_of_spectrum(p_bc) + fock.entropy_of_spectrum(p_br)
           - fock.entropy_of_spectrum(p_r) - fock.entropy_of_spectrum(p_c))
    return cmi, 1.0 - float(np.sum(p_r))


def gather_amplitudes(kind, value, N):
    """Reference for fock._vacuum_ancilla_amplitudes: the same log-space sum, in
    the same order, over gathered (N, N) tables of log-factorials and masks;
    the beam splitter's laid out by input, as beam_splitter_by_input."""
    n = np.arange(N)[:, None]
    j = np.arange(N)[None, :]
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, 2 * N)))))
    if kind == "squeezer":
        top, power, x, y = n + j, -(n + 1), value, (value - 1.0) / value
        valid = top < N
    else:
        top, power, x, y = n, n - j, value, 1.0 - value
        valid = j <= n
    top = np.where(valid, top, j)  # keeps the factorial indices in range
    with np.errstate(divide="ignore", invalid="ignore"):
        log_amp = (
            log_fact[top] - log_fact[j] - log_fact[top - j]
            + np.where(power == 0, 0.0, power * np.log(x))
            + np.where(j == 0, 0.0, j * np.log(y))
        )
    return np.where(valid, np.exp(0.5 * log_amp), 0.0)


def dense_rotation(rho, i, j, rng):
    """Reference for fock._rotate_pair: the same Haar-random U(2) block, drawn
    from the same generator, embedded in a dense unitary and applied as U rho U^dag."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    u = np.eye(len(rho), dtype=complex)
    u[np.ix_([i, j], [i, j])] = q
    return u @ rho @ u.conj().T


class TestCutoffRule:
    def test_geometric_tail(self):
        assert fock.geometric_tail(0.0, 10) == 0.0
        assert fock.geometric_tail(1.0, 10) == pytest.approx(2.0**-10)

    def test_required_cutoff(self):
        N = fock.required_cutoff(1.0)
        assert fock.geometric_tail(1.0, N) < 1e-10
        assert fock.geometric_tail(1.0, N - 1) >= 1e-10

    def test_vacuum_needs_minimum(self):
        assert fock.required_cutoff(0.0) == 2

    @pytest.mark.parametrize("E", [2.0**53, 1e20, 1e300])
    def test_required_cutoff_past_unit_ratio(self, E):
        # E/(E+1) rounds to 1 here; the rule's N ~ E ln(1/tail) must still come out
        N = fock.required_cutoff(E)
        assert N == pytest.approx(E * math.log(1e10), rel=1e-12)
        with pytest.raises(CutoffError) as err:
            fock.check_cutoff(10, E)
        assert err.value.required == N

    def test_required_cutoff_beyond_any_double(self):
        with pytest.raises(DomainError, match="no cutoff"):
            fock.required_cutoff(1e308)

    def test_check_cutoff_slack(self):
        # the rule tolerates a small overshoot of the tail target
        N = fock.required_cutoff(3.0)
        fock.check_cutoff(N - 1, 3.0)
        with pytest.raises(CutoffError) as err:
            fock.check_cutoff(N // 2, 3.0)
        assert err.value.required == N


def stack_of(states):
    """One TruncatedState holding the matrices and tail bounds of ``states``."""
    return fock.TruncatedState(np.stack([s.matrix for s in states]),
                               tail_bound=np.array([s.tail_bound for s in states]))


class TestTruncatedState:
    def test_one_matrix_gives_floats(self):
        state = fock.thermal_fock(1.0, 8)
        assert state.cutoff == 8
        for value in (state.trace, state.mean_photon_number(), state.tail_bound):
            assert type(value) is float

    def test_stack_gives_arrays(self):
        states = [fock.thermal_fock(E, 12) for E in (0.0, 0.5, 1.0)]
        stack = stack_of(states)
        assert stack.cutoff == 12
        assert stack.trace.tolist() == [s.trace for s in states]
        # a stacked matmul may sum in another order than one vector product
        np.testing.assert_allclose(stack.mean_photon_number(),
                                   [s.mean_photon_number() for s in states], rtol=1e-15)
        assert stack.tail_bound.tolist() == [s.tail_bound for s in states]

    def test_scalar_tail_bound_covers_the_stack(self):
        matrices = np.stack([np.eye(4) / 4] * 6).reshape(2, 3, 4, 4)
        state = fock.TruncatedState(matrices, tail_bound=0.0)
        assert state.tail_bound.shape == state.trace.shape == (2, 3)
        assert not state.tail_bound.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_refused(self, bad):
        matrix = np.full((2, 2), bad)
        matrix[0, 0] = matrix[1, 1] = 0.5
        with pytest.raises(InvalidStateError, match="NaN or infinite"):
            fock.TruncatedState(matrix, tail_bound=0.0)

    def test_one_non_finite_matrix_refuses_the_stack(self):
        matrices = np.stack([np.eye(3, dtype=complex) / 3] * 3)
        matrices[1, 0, 2] = matrices[1, 2, 0] = np.nan
        with pytest.raises(InvalidStateError, match="NaN or infinite"):
            fock.TruncatedState(matrices, tail_bound=0.0)

    @pytest.mark.parametrize("shape", [(0, 8, 8), (0, 0), (8,), (3, 8, 7)])
    def test_empty_or_non_square_refused(self, shape):
        with pytest.raises(InvalidStateError, match="not a stack of square matrices"):
            fock.TruncatedState(np.zeros(shape), tail_bound=0.0)

    def test_non_hermitian_refused(self):
        matrices = np.stack([np.eye(2) / 2] * 3)
        matrices[2, 0, 1] = 1e-6
        with pytest.raises(InvalidStateError, match="not Hermitian"):
            fock.TruncatedState(matrices, tail_bound=0.0)

    def test_trace_against_each_tail_bound(self):
        matrices = np.stack([np.diag([0.5, 0.25])] * 2)
        fock.TruncatedState(matrices, tail_bound=[0.25, 0.3])
        with pytest.raises(InvalidStateError, match=r"trace 0.75 outside"):
            fock.TruncatedState(matrices, tail_bound=[0.25, 0.2])

    @pytest.mark.parametrize("matrix, tail", [
        (np.eye(2) / 4, 5.0), (np.eye(2) / 2, np.inf), (np.eye(2) / 2, -0.5),
        (np.stack([np.eye(2) / 2] * 3), [0.0, 2.0, 0.0]),
    ], ids=["five", "inf", "negative", "one-in-a-stack"])
    def test_tail_bound_outside_unit_interval_refused(self, matrix, tail):
        with pytest.raises(InvalidStateError, match=r"tail_bound \S+ outside \[0, 1\]"):
            fock.TruncatedState(matrix, tail_bound=tail)


class TestThermal:
    def test_trace_and_energy(self):
        state = fock.thermal_fock(1.0, 64)
        assert state.trace == pytest.approx(1.0, abs=1e-10)
        assert state.mean_photon_number() == pytest.approx(1.0, abs=1e-8)

    def test_entropy(self):
        state = fock.thermal_fock(2.0, fock.required_cutoff(2.0))
        assert fock.spectral_entropy(state) == pytest.approx(g(2.0), abs=1e-8)

    def test_vacuum(self):
        state = fock.thermal_fock(0.0, 8)
        assert state.matrix[0, 0] == 1.0
        assert fock.spectral_entropy(state) == 0.0

    def test_memory_refusal(self):
        with pytest.raises(CutoffError, match="limit of 1024 MiB") as err:
            fock.thermal_fock(1.0, 100_000)
        assert err.value.required == fock.required_cutoff(1.0)

    def test_tmsv_normalization(self):
        # at kappa = 1 and eta = 1 the oracle's purification is the TMSV of (A, R),
        # built on the square roots of the thermal probabilities, with B and C vacuum
        assert fock.oracle_lost_norm(1.0, 1.0, 1.0, 64) == pytest.approx(0.0, abs=1e-10)


def band(matrix):
    """1 + the highest diagonal j - i on which any matrix of the stack has a
    nonzero entry, and 1 when none has."""
    N = matrix.shape[-1]
    i, j = np.ogrid[:N, :N]
    return int(np.where(matrix != 0, j - i, 0).max()) + 1


def channel_charge(N, count, K):
    """The working set ``apply_channel_fock`` charges for ``count`` states of
    band K at cutoff N: the transfer tensor on K diagonals, 16 N (5 N + 1) B per
    state, 32 N^2 B per call and 8 KiB."""
    return 8 * K * N * (N + 1) + 16 * N * (5 * N + 1) * count + 32 * N**2 + 2**13


def pure_state(rng, N):
    """A random pure state on all N levels: every entry nonzero, so K = N."""
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi /= np.linalg.norm(psi)
    return fock.TruncatedState(np.outer(psi, psi.conj()), tail_bound=0.0)


class TestChannels:
    def test_attenuator_output_entropy(self):
        state = fock.thermal_fock(1.0, fock.required_cutoff(1.0))
        out = fock.apply_channel_fock(state, ChannelParam.attenuator(0.5))
        assert fock.spectral_entropy(out) == pytest.approx(g(0.5), abs=1e-8)

    def test_amplifier_output_entropy(self):
        kappa, E = 2.0, 1.0
        state = fock.thermal_fock(E, fock.required_cutoff(kappa * (E + 1.0) - 1.0))
        out = fock.apply_channel_fock(state, ChannelParam.amplifier(kappa))
        assert fock.spectral_entropy(out) == pytest.approx(g(3.0), abs=1e-6)

    def test_complement_output_entropy(self):
        kappa, E = 2.0, 1.0
        state = fock.thermal_fock(E, fock.required_cutoff(kappa * (E + 1.0) - 1.0))
        out = fock.apply_channel_fock(state, ChannelParam.amplifier(kappa), complement=True)
        assert fock.spectral_entropy(out) == pytest.approx(g(2.0), abs=1e-6)

    def test_identity_channels(self):
        state = fock.thermal_fock(1.0, fock.required_cutoff(1.0))
        for channel in (ChannelParam.attenuator(1.0), ChannelParam.amplifier(1.0)):
            out = fock.apply_channel_fock(state, channel)
            assert np.abs(out.matrix - state.matrix).max() < 1e-12

    def test_refusal(self):
        state = fock.thermal_fock(2.0, 16)
        with pytest.raises(CutoffError):
            fock.apply_channel_fock(state, ChannelParam.amplifier(2.0))

    @pytest.mark.parametrize("channel, complement", [
        (ChannelParam.amplifier(2.0), False),
        (ChannelParam.amplifier(1.2), True),
        (ChannelParam.attenuator(0.37), False),
    ], ids=["amplifier", "complement", "attenuator"])
    def test_matches_stinespring_reference(self, channel, complement):
        # far below the cutoff, where truncating the reference's blocks is negligible
        state = fock.random_one_mode_state(np.random.default_rng(5), 120, support=12)
        out = fock.apply_channel_fock(state, channel, complement=complement,
                                      enforce_cutoff=False)
        reference = stinespring_reference(state.matrix, channel, complement)
        assert np.abs(out.matrix - reference)[:40, :40].max() < 1e-12
        assert out.tail_bound == pytest.approx(1.0 - out.trace, abs=1e-15)

    def test_memory_refusal(self, monkeypatch):
        # a limit that admits the input but not the channel's working set
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 2**16)
        state = fock.thermal_fock(1.0, 40)
        with pytest.raises(CutoffError, match="limit of 0.0625 MiB"):
            fock.apply_channel_fock(state, ChannelParam.amplifier(2.0), enforce_cutoff=False)

    @pytest.mark.parametrize("count", [1, 3])
    def test_memory_estimate_is_the_refusal_boundary(self, monkeypatch, count):
        # thermal states occupy diagonal 0 alone (K = 1); random states a band K > 1
        N, rng = 40, np.random.default_rng(count)
        thermal = stack_of([fock.thermal_fock(1.0, N) for _ in range(count)])
        random = stack_of([fock.random_one_mode_state(rng, N) for _ in range(count)])
        assert band(thermal.matrix) == 1 and band(random.matrix) > 1
        channel = ChannelParam.amplifier(2.0)
        for state in (thermal, random):
            estimate = channel_charge(N, count, band(state.matrix))
            monkeypatch.setattr(errors, "MEMORY_LIMIT", estimate - 1)
            with pytest.raises(CutoffError, match="limit"):
                fock.apply_channel_fock(state, channel, enforce_cutoff=False)
            monkeypatch.setattr(errors, "MEMORY_LIMIT", estimate)
            fock.apply_channel_fock(state, channel, enforce_cutoff=False)

    @pytest.mark.parametrize("N, count", [(2, 1), (3, 1), (5, 1), (8, 1),
                                          (40, 1), (40, 200), (120, 1)])
    def test_working_memory_within_the_charge(self, N, count):
        rng = np.random.default_rng(3)
        state = stack_of([fock.random_one_mode_state(rng, N, support=min(N, 10))
                          for _ in range(count)])
        for channel, complement in ((ChannelParam.amplifier(1.2), False),
                                    (ChannelParam.amplifier(1.2), True),
                                    (ChannelParam.attenuator(0.37), False)):
            # with the amplitude table built in the call, then taken from the cache
            fock._vacuum_ancilla_amplitudes.cache_clear()
            for _ in range(2):
                tracemalloc.start()
                try:
                    fock.apply_channel_fock(state, channel, complement=complement,
                                            enforce_cutoff=False)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # within the charge, which from N = 40 on is not so far above it that
                # cutoffs that fit are refused; below, its fixed 8 KiB dominates
                charge = channel_charge(N, count, band(state.matrix))
                assert peak <= charge
                assert N < 40 or 0.7 * charge < peak

    @pytest.mark.parametrize("channel", [ChannelParam.amplifier(2.0),
                                         ChannelParam.attenuator(0.5)], ids=["amp", "att"])
    def test_truncated_input_refused(self, channel):
        # the truncated mean photon number (8e-4) passes the output check; the
        # input's own tail (E/(E+1))^40 does not, and names the rule's cutoff at E
        state = fock.thermal_fock(1e6, 40)
        with pytest.raises(CutoffError, match="tail bound of 0.99996 at cutoff 40") as err:
            fock.apply_channel_fock(state, channel)
        assert err.value.required == fock.required_cutoff(1e6)
        fock.apply_channel_fock(state, channel, enforce_cutoff=False)

    @pytest.mark.parametrize("tail, refused", [(2e-9, True), (5e-10, False)])
    def test_input_tail_against_the_slack(self, tail, refused):
        # a vacuum with a recorded tail: only the input's own tail can refuse it
        matrix = np.zeros((8, 8))
        matrix[0, 0] = 1.0 - tail
        state = fock.TruncatedState(matrix, tail_bound=tail)
        channel = ChannelParam.attenuator(0.5)
        if not refused:
            fock.apply_channel_fock(state, channel)
            return
        with pytest.raises(CutoffError) as err:
            fock.apply_channel_fock(state, channel)
        # a geometric tail 2e-9 at N = 8 reaches 1e-10 at N = 8 ln(1e-10) / ln(2e-9)
        assert err.value.required == 10

    def test_input_tail_that_rounds_to_one_refused(self):
        state = fock.thermal_fock(1e20, 40)
        assert state.tail_bound == 1.0
        with pytest.raises(CutoffError):
            fock.apply_channel_fock(state, ChannelParam.amplifier(2.0))

    def test_output_energy_overflow_named(self):
        state = fock.thermal_fock(1.0, 40)
        with pytest.raises(DomainError, match=r"kappa \(E \+ 1\) - 1 overflows at kappa = 1e\+308"):
            fock.apply_channel_fock(state, ChannelParam.amplifier(1e308), enforce_cutoff=False)

    def test_attenuator_complement_unsupported(self):
        state = fock.thermal_fock(1.0, 40)
        with pytest.raises(DomainError):
            fock.apply_channel_fock(state, ChannelParam.attenuator(0.5), complement=True)


EXACT_CHANNELS = [
    (ChannelParam.amplifier(1.2), False),
    (ChannelParam.amplifier(2.0), False),
    (ChannelParam.amplifier(1.2), True),
    (ChannelParam.amplifier(2.0), True),
    (ChannelParam.attenuator(0.0), False),
    (ChannelParam.attenuator(0.37), False),
    (ChannelParam.attenuator(1.0), False),
]
EXACT_IDS = ["amp-1.2", "amp-2", "comp-1.2", "comp-2", "att-0", "att-0.37", "att-1"]


def loop_reference(matrix, channel, complement):
    attenuator = channel.kind == "attenuator"
    N = len(matrix)
    table = (beam_splitter_by_input(channel.value, N) if attenuator
             else fock._vacuum_ancilla_amplitudes("squeezer", channel.value, N))
    return kraus_sum_loop(matrix, table, attenuator, complement)


def rounding_bound(state, channel, complement):
    """Per-entry bound on how far two summation orders of one Kraus sum can
    differ: 2 N eps times the same sum over |rho|, which bounds the sum of the
    terms' moduli since every amplitude is >= 0."""
    loop = loop_reference(np.abs(state.matrix), channel, complement)
    return 2 * state.cutoff * np.finfo(float).eps * loop


def exact_input(kind, N):
    if kind == "thermal":
        return fock.thermal_fock(0.5, N)
    if kind == "pure":
        return pure_state(np.random.default_rng(N), N)
    return fock.random_one_mode_state(np.random.default_rng(N), N, support=min(10, N))


class TestKrausSum:
    """The diagonal kernel against the per-term loop it replaced.  A batched
    matmul does not keep the loop's summation order, so the outputs agree to
    the rounding of the sum (``rounding_bound``), not bit for bit; each output
    is still exactly Hermitian."""

    @pytest.mark.parametrize("channel, complement", EXACT_CHANNELS, ids=EXACT_IDS)
    @pytest.mark.parametrize("N", [2, 3, 5, 12, 40, 81])
    @pytest.mark.parametrize("kind", ["thermal", "random", "pure"])
    def test_equals_the_per_term_loop(self, channel, complement, N, kind):
        state = exact_input(kind, N)
        out = fock.apply_channel_fock(state, channel, complement=complement,
                                      enforce_cutoff=False)
        expected = loop_reference(state.matrix, channel, complement)
        assert out.matrix.dtype == expected.dtype
        assert (np.abs(out.matrix - expected) <= rounding_bound(state, channel, complement)).all()
        assert (out.matrix == out.matrix.conj().T).all()

    @pytest.mark.parametrize("channel, complement", EXACT_CHANNELS, ids=EXACT_IDS)
    def test_stack_equals_single_calls(self, channel, complement):
        rng = np.random.default_rng(8)
        states = [fock.random_one_mode_state(rng, 40) for _ in range(5)]
        stacked = fock.apply_channel_fock(stack_of(states), channel, complement=complement,
                                          enforce_cutoff=False)
        assert stacked.matrix.shape == (5, 40, 40)
        for state, out, tail in zip(states, stacked.matrix, stacked.tail_bound):
            single = fock.apply_channel_fock(state, channel, complement=complement,
                                             enforce_cutoff=False)
            bound = rounding_bound(state, channel, complement)
            assert (np.abs(out - single.matrix) <= bound).all()
            assert (out == out.conj().T).all()
            assert tail == single.tail_bound

    @pytest.mark.parametrize("channel, complement", EXACT_CHANNELS, ids=EXACT_IDS)
    @pytest.mark.parametrize("N", [2, 3, 40, 128])
    def test_cached_table_is_invisible(self, channel, complement, N):
        # the same call with the amplitude table taken from the cache and built anew
        state = exact_input("random", N)
        fock.apply_channel_fock(state, channel, complement=complement, enforce_cutoff=False)
        hits = fock._vacuum_ancilla_amplitudes.cache_info().hits
        warm = fock.apply_channel_fock(state, channel, complement=complement,
                                       enforce_cutoff=False)
        assert fock._vacuum_ancilla_amplitudes.cache_info().hits == hits + 1
        fock._vacuum_ancilla_amplitudes.cache_clear()
        cold = fock.apply_channel_fock(state, channel, complement=complement,
                                       enforce_cutoff=False)
        assert (warm.matrix == cold.matrix).all()
        assert warm.tail_bound == cold.tail_bound

    @pytest.mark.parametrize("channel, complement", EXACT_CHANNELS, ids=EXACT_IDS)
    def test_low_band_member_equals_its_single_call(self, channel, complement):
        # a pure member on all 40 levels sets the stack's K to 40; the other two
        # occupy 4 to 12 diagonals, and the ones above change none of their bits
        rng = np.random.default_rng(6)
        low = [fock.random_one_mode_state(rng, 40, support=s) for s in (3, 10)]
        full = pure_state(rng, 40)
        states = stack_of([*low, full])
        assert band(states.matrix) == 40 and all(band(s.matrix) <= 12 for s in low)
        stacked = fock.apply_channel_fock(states, channel, complement=complement,
                                          enforce_cutoff=False)
        for state, out, tail in zip(low, stacked.matrix, stacked.tail_bound):
            single = fock.apply_channel_fock(state, channel, complement=complement,
                                             enforce_cutoff=False)
            assert np.array_equal(out, single.matrix)
            assert tail == single.tail_bound
        expected = loop_reference(full.matrix, channel, complement)
        bound = rounding_bound(full, channel, complement)
        assert (np.abs(stacked.matrix[-1] - expected) <= bound).all()

    @pytest.mark.parametrize("channel, complement", EXACT_CHANNELS, ids=EXACT_IDS)
    def test_band_one_is_the_full_transfer(self, channel, complement):
        # a thermal input (K = 1) gets the output of the transfer on all N diagonals
        state = fock.thermal_fock(0.5, 40)
        out = fock.apply_channel_fock(state, channel, complement=complement,
                                      enforce_cutoff=False)
        assert np.array_equal(out.matrix, fock._kraus_sum(state.matrix, channel, complement, 40))

    @pytest.mark.parametrize("channel, complement", EXACT_CHANNELS, ids=EXACT_IDS)
    @pytest.mark.parametrize("kind", ["thermal", "fock"])
    def test_band_one_matches_the_loop(self, channel, complement, kind):
        N = 200
        if kind == "thermal":
            state = fock.thermal_fock(1.0, N)
        else:  # |7><7|
            matrix = np.zeros((N, N))
            matrix[7, 7] = 1.0
            state = fock.TruncatedState(matrix, tail_bound=0.0)
        assert band(state.matrix) == 1
        out = fock.apply_channel_fock(state, channel, complement=complement,
                                      enforce_cutoff=False)
        expected = loop_reference(state.matrix, channel, complement)
        assert (np.abs(out.matrix - expected) <= rounding_bound(state, channel, complement)).all()

    @pytest.mark.parametrize("channel, complement", EXACT_CHANNELS, ids=EXACT_IDS)
    def test_all_zero_input(self, channel, complement):
        # no diagonal is occupied, so K = 1, and the whole norm is lost
        state = fock.TruncatedState(np.zeros((8, 8)), tail_bound=1.0)
        out = fock.apply_channel_fock(state, channel, complement=complement,
                                      enforce_cutoff=False)
        assert not out.matrix.any()
        assert out.tail_bound == 1.0

    def test_stack_keeps_its_shape(self):
        rng = np.random.default_rng(4)
        states = stack_of([fock.random_one_mode_state(rng, 12) for _ in range(6)])
        channel = ChannelParam.amplifier(1.2)
        flat = fock.apply_channel_fock(states, channel, enforce_cutoff=False)
        grid = fock.TruncatedState(states.matrix.reshape(2, 3, 12, 12), tail_bound=0.0)
        out = fock.apply_channel_fock(grid, channel, enforce_cutoff=False)
        assert out.matrix.shape == (2, 3, 12, 12)
        assert out.tail_bound.shape == (2, 3)
        bound = 2 * 12 * np.finfo(float).eps * np.abs(flat.matrix).max()
        assert np.abs(out.matrix.reshape(6, 12, 12) - flat.matrix).max() <= bound

    def test_stack_checks_its_largest_tail(self):
        clean = fock.thermal_fock(0.5, 40)
        truncated = fock.thermal_fock(1e6, 40)
        with pytest.raises(CutoffError, match="tail bound of 0.99996"):
            fock.apply_channel_fock(stack_of([clean, truncated]), ChannelParam.attenuator(0.5))


class TestStackedEntropy:
    def test_stack_equals_single_spectra(self):
        rng = np.random.default_rng(9)
        matrices = [fock.random_one_mode_state(rng, 40).matrix for _ in range(5)]
        stacked = fock.spectral_entropy(np.stack(matrices))
        assert stacked.shape == (5,)
        assert stacked.tolist() == [fock.spectral_entropy(m) for m in matrices]

    @pytest.mark.parametrize("N", [2, 28, 44, 1000, 10**5])
    def test_rows_equal_single_calls(self, N):
        # a contiguous row is summed as the 1-D call sums it: oracle_cmi relies on it
        rng = np.random.default_rng(N)
        spectra = rng.dirichlet(np.ones(N), size=4)
        spectra[:, ::3] *= 1e-15  # some below the floor
        entropies = fock.entropy_of_spectrum(spectra)
        assert entropies.shape == (4,)
        assert entropies.tolist() == [fock.entropy_of_spectrum(row) for row in spectra]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_compressed_sum(self, seed):
        # reference: the floor's survivors alone, summed; zeros in their place
        # change only the summation order, so the gap is a few ulps of the sum
        rng = np.random.default_rng(seed)
        eigs = rng.dirichlet(np.ones(40), size=6)
        eigs[:, :25] *= 10.0 ** rng.integers(-18, -12, size=(6, 25))
        entropies = fock.entropy_of_spectrum(eigs)
        for lam, value in zip(eigs, entropies):
            kept = lam[lam > 1e-14]
            terms = kept * np.log(kept)
            expected = -np.sum(terms)
            assert abs(value - expected) <= 40 * np.finfo(float).eps * np.sum(np.abs(terms))


class TestOracleCmi:
    def test_trivial_at_kappa_one(self):
        assert fock.oracle_cmi(1.0, 1.0, 0.5, 30) == pytest.approx(0.0, abs=1e-10)

    def test_agrees_with_covariance_route(self):
        kappa, E, eta = 1.5, 0.5, 0.5
        N = fock.required_cutoff(kappa * (E + 1.0) - 0.5 * E - 1.0)
        reference = gaussian_cmi(extension_family(kappa, E, eta), "A", "B", "R")
        assert fock.oracle_cmi(kappa, E, eta, N) == pytest.approx(reference, abs=1e-5)

    def test_refusal(self):
        with pytest.raises(CutoffError):
            fock.oracle_cmi(2.0, 2.0, 0.5, 20)

    def test_eta_zero_equals_eta_one(self):
        # at eta = 0 R is vacuum, at eta = 1 ABR is pure: both give I(A;B)
        for kappa, E in ((1.5, 0.5), (2.0, 2.0)):
            N = fock.required_cutoff(kappa * (E + 1.0) - 1.0)
            assert fock.oracle_cmi(kappa, E, 0.0, N) == pytest.approx(
                fock.oracle_cmi(kappa, E, 1.0, N), abs=1e-12
            )

    def test_working_memory_is_linear(self, monkeypatch):
        limit = errors.MEMORY_LIMIT
        for N in (1000, 10**5):
            monkeypatch.setattr(errors, "MEMORY_LIMIT", limit)
            tracemalloc.start()
            try:
                fock.oracle_cmi(2.0, 2.0, 0.5, N, enforce_cutoff=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 8 * N + 130 * 2**10  # the charge checked against the limit
            assert peak < 8 * N**2 / 4  # a quarter of one N^2 array of doubles
            # the refusal boundary lies between the peak and 1.25 times it: what
            # does not fit is refused, and what fits with that margin is not
            monkeypatch.setattr(errors, "MEMORY_LIMIT", peak - 1)
            with pytest.raises(CutoffError, match="limit"):
                fock.oracle_cmi(2.0, 2.0, 0.5, N, enforce_cutoff=False)
            monkeypatch.setattr(errors, "MEMORY_LIMIT", int(1.25 * peak))
            fock.oracle_cmi(2.0, 2.0, 0.5, N, enforce_cutoff=False)

    @pytest.mark.parametrize("N", [1000, 2037, 10**5])
    @pytest.mark.parametrize("entry", ["oracle_cmi", "oracle_lost_norm"])
    def test_peak_within_its_charge(self, monkeypatch, entry, N):
        # the charge is read from the call, as _check_memory receives it; near
        # N = 1000 the peak comes closest to it (0.81), as numpy's ufunc buffers
        # take the most of its fixed 130 KiB; every point is one the cutoff rule
        # accepts at N = 1000
        charges = []
        check = fock._check_memory

        def recording_check(N, nbytes, E_max):
            charges.append(nbytes)
            check(N, nbytes, E_max)

        monkeypatch.setattr(fock, "_check_memory", recording_check)
        for point in ((2.0, 2.0, 0.5), (1.5, 0.5, 0.0), (4.0, 8.0, 1.0)):
            charges.clear()
            tracemalloc.start()
            try:
                getattr(fock, entry)(*point, N)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(charges) == 1
            assert peak < charges[0]

    @staticmethod
    def rule_points(seed, draws):
        """Seeded (kappa, E, eta) draws of the benchmark's box whose rule-selected
        cutoff lies in [28, 44], with that cutoff."""
        rng = np.random.default_rng(seed)
        points = []
        while len(points) < draws:
            kappa, E, eta = (float(x) for x in rng.uniform((1.0, 0.0, 0.0), (2.5, 1.5, 1.0)))
            N = fock.required_cutoff(fock.oracle_energy(kappa, E, eta))
            if 28 <= N <= 44:
                points.append((kappa, E, eta, N))
        return points

    # a 0 * -inf inside the pass warns, though no output need show it
    @pytest.mark.filterwarnings("error")
    def test_bitwise_equal_to_four_pass_reference(self):
        points = self.rule_points(28, 60)
        points += [(*p, fock.required_cutoff(fock.oracle_energy(*p))) for p in oracle_cmi_grid()]
        points += [(2.0, 2.0, 0.5, N) for N in (1000, 10**5)]
        points += [(9.5, 45.0, 0.3, 10**5), (1.0, 0.0, 1.0, 1000), (1.2, 0.1, 0.0, 1000)]
        # the smallest cutoffs, where every mean is 0 and every ratio of the second
        # row is 0, whose log is -inf; and kappa = 1 with energy at the edges of eta
        points += [(1.0, 0.0, eta, N) for eta in (0.0, 0.5, 1.0) for N in (2, 3)]
        points += [(1.0, 0.7, eta, fock.required_cutoff(0.7)) for eta in (0.0, 1.0)]
        for kappa, E, eta, N in points:
            cmi, lost = four_pass_oracle(kappa, E, eta, N)
            value = fock.oracle_cmi(kappa, E, eta, N)
            assert type(value) is float and value == cmi
            assert fock.oracle_lost_norm(kappa, E, eta, N) == lost

    #: odd and even cutoffs, down to the smallest
    FOLD_CUTOFFS = (2, 3, 4, 5, 17, 44, 45)

    @staticmethod
    def fold_points():
        """Seeded (kappa, E, eta), with the edges eta = 0 and 1 and the optimum 1/2."""
        rng = np.random.default_rng(11)
        draws = [(float(rng.uniform(1.0, 2.5)), float(rng.uniform(0.0, 1.5)), eta)
                 for eta in (0.0, 0.5, 1.0)]
        draws += [tuple(float(x) for x in rng.uniform((1.0, 0.0, 0.0), (2.5, 1.5, 1.0)))
                  for _ in range(3)]
        return draws

    @pytest.mark.parametrize("N", FOLD_CUTOFFS)
    def test_fold_matches_unfolded_reference(self, N):
        # the photon-number entropies against every charge block eigensolved
        points = self.fold_points()
        fock_route = [fock.oracle_cmi(*p, N, enforce_cutoff=False) for p in points]
        reference = [eigensolve_oracle_cmi(*p, N) for p in points]
        assert np.abs(np.subtract(fock_route, reference)).max() <= 1e-13

    @pytest.mark.parametrize("N", FOLD_CUTOFFS)
    def test_blocks_vanish_outside_the_fold(self, N):
        # block d lives in rows b <= d and columns r < N - d: the truncation zeroes
        # whole columns, which keeps every block rank one, as oracle_cmi relies on
        d, b, r = np.ogrid[:N, :N, :N + 1]
        outside = (b > d) | (r >= N - d)
        for point in self.fold_points():
            for blocks in charge_blocks(oracle_wavefunction(*point, N)):
                assert blocks.shape == (N, N, N + 1)
                assert not blocks[np.broadcast_to(outside, blocks.shape)].any()
                assert blocks[~np.broadcast_to(outside, blocks.shape)].any()
                s = np.linalg.svd(blocks, compute_uv=False)
                assert (s[:, 1] <= 1e-12 * s[:, 0]).all()

    @staticmethod
    def assert_distributions_match_einsum(point, N):
        closed = fock._oracle_distributions(*point, N, enforce_cutoff=False)
        for p, reference in zip(closed, einsum_distributions(*point, N)):
            assert p.shape == (N,)
            assert np.abs(p - reference[:N]).max() <= 1e-14
            assert not reference[N:].any()

    @pytest.mark.parametrize("N", FOLD_CUTOFFS)
    def test_distributions_match_einsum_reference(self, N):
        # the closed negative-binomial sums against the contracted amplitude tables
        for point in self.fold_points():
            self.assert_distributions_match_einsum(point, N)

    def test_grid_distributions_match_einsum_reference(self):
        for point in oracle_cmi_grid():
            self.assert_distributions_match_einsum(
                point, fock.required_cutoff(fock.oracle_energy(*point)))

    def test_grid_matches_unfolded_reference(self):
        for point in oracle_cmi_grid():
            N = fock.required_cutoff(fock.oracle_energy(*point))
            assert abs(fock.oracle_cmi(*point, N) - eigensolve_oracle_cmi(*point, N)) <= 1e-13

    @pytest.mark.parametrize("N", FOLD_CUTOFFS)
    def test_lost_norm_matches_reference(self, N):
        for point in self.fold_points():
            X = oracle_wavefunction(*point, N)
            assert abs(fock.oracle_lost_norm(*point, N) - (1.0 - np.sum(X**2))) <= 1e-15

    @pytest.mark.parametrize("N", FOLD_CUTOFFS)
    def test_lost_norm_is_mode_a_thermal_tail(self, N):
        # the cut falls on n_A, thermal with mean kappa (E + 1) - 1, and all four
        # distributions are marginals of the one truncated state
        for kappa, E, eta in self.fold_points():
            tail = fock.geometric_tail(kappa * (E + 1.0) - 1.0, N)
            assert abs(fock.oracle_lost_norm(kappa, E, eta, N) - tail) <= 1e-15
            sums = [np.sum(p) for p in fock._oracle_distributions(kappa, E, eta, N, False)]
            assert np.ptp(sums) <= 1e-15

    @pytest.mark.parametrize("N", FOLD_CUTOFFS)
    def test_top_level_in_closed_form(self, N):
        # at m = N - 1 the cut leaves only n_A = m, so p_X(m) = (1 - q) / kappa a^m
        # with a = alpha, gamma, y + alpha and y + gamma.  Its survival there,
        # P[Bin(N, p) = N], is far below the rounding of 1 minus a lower sum, so
        # this holds only if the tail is summed from above
        for kappa, E, eta in self.fold_points():
            q, y = E / (E + 1.0), 1.0 - 1.0 / kappa
            alpha, gamma = q * eta / kappa, q * (1.0 - eta) / kappa
            for p, a in zip(fock._oracle_distributions(kappa, E, eta, N, False),
                            (alpha, gamma, y + alpha, y + gamma)):
                expected = (1.0 - q) / kappa * a ** (N - 1)
                assert p[-1] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_overflow_names_the_combination(self):
        with pytest.raises(DomainError, match="overflows at kappa = 2, E = 1e"):
            fock.oracle_cmi(2.0, 1e308, 0.5, 10)
        with pytest.raises(DomainError, match="overflows"):
            fock.oracle_lost_norm(1e308, 1.0, 0.5, 10)

    def test_grid_cutoffs_follow_the_refusal_rule(self):
        # verify oracle takes each cutoff from the energy that oracle_cmi refuses by
        for kappa, E, eta in oracle_cmi_grid():
            N = fock.required_cutoff(fock.oracle_energy(kappa, E, eta))
            with pytest.raises(CutoffError) as err:
                fock.oracle_cmi(kappa, E, eta, N // 2)
            assert err.value.required == N

    def test_memory_refusal(self):
        with pytest.raises(CutoffError, match="limit of 1024 MiB") as err:
            fock.oracle_cmi(1.5, 0.5, 0.5, 10**7)
        assert err.value.required == fock.required_cutoff(1.5 * 1.5 - 0.25 - 1.0)

    def test_lost_norm(self):
        # the exact amplitudes leave the truncated state short by its lost norm,
        # which at eta = 1/2 exceeds the geometric estimate TAIL_TARGET
        kappa, E, eta = 1.5, 0.5, 0.5
        N = fock.required_cutoff(kappa * (E + 1.0) - 0.5 * E - 1.0)
        lost = fock.oracle_lost_norm(kappa, E, eta, N)
        assert fock.TAIL_TARGET < lost < 1e-7
        assert fock.oracle_lost_norm(kappa, E, eta, 2 * N) < 1e-15
        assert fock.oracle_lost_norm(1.0, 0.0, eta, 2) == 0.0


class TestVacuumAncillaAmplitudes:
    N = 30

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_beam_splitter_matches_expm_column(self, eta):
        table = beam_splitter_by_input(eta, self.N)
        for n in range(self.N):
            # block n is indexed by the ancilla occupation j = 0 .. n
            np.testing.assert_allclose(
                table[n, : n + 1], np.abs(expm_column("beam-splitter", eta, n, n + 1)),
                rtol=0, atol=1e-13)
            assert not table[n, n + 1 :].any()

    @pytest.mark.parametrize("N", [2, 3, 17, 40, 81])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_beam_splitter_inputs_are_normalized(self, eta, N):
        # input n goes to the entries [m, j] with m + j = n, whose squares sum to 1
        table = fock._vacuum_ancilla_amplitudes("beam-splitter", eta, N)
        m, j = np.indices((N, N))
        norms = np.bincount((m + j).ravel(), weights=(table**2).ravel())
        assert np.abs(norms[:N] - 1.0).max() <= 1e-13
        assert not norms[N:].any()

    @pytest.mark.parametrize("kappa", [1.0, 1.2, 2.0, 5.0])
    def test_squeezer_matches_expm_column(self, kappa):
        N = self.N
        table = fock._vacuum_ancilla_amplitudes("squeezer", kappa, N)
        for n in range(N):
            # the reference block is cut at 4N, where its renormalization is negligible
            column = expm_column("squeezer", kappa, n, 4 * N - n)
            np.testing.assert_allclose(table[n, : N - n], column[: N - n], rtol=0, atol=1e-13)
            assert not table[n, N - n :].any()
        # the vacuum input gives the two-mode squeezed vacuum with E = kappa - 1
        tmsv = np.sqrt(np.diagonal(fock.thermal_fock(kappa - 1.0, N).matrix))
        np.testing.assert_allclose(table[0], tmsv, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("kappa", [1.0, 1.2, 2.0, 5.0])
    def test_squeezer_closed_form(self, kappa):
        table = fock._vacuum_ancilla_amplitudes("squeezer", kappa, self.N)
        expected = np.zeros((self.N, self.N))
        for n in range(self.N):
            for j in range(self.N - n):
                expected[n, j] = (math.sqrt(math.comb(n + j, j)) * kappa ** (-(n + 1) / 2)
                                  * (1.0 - 1.0 / kappa) ** (j / 2))
        np.testing.assert_allclose(table, expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("N", [2, 3, 17, 40, 128, 300])
    def test_equals_the_gathered_tables(self, N):
        # the same terms summed in the same order, from 1-D views instead of gathers;
        # each table is built on a cleared cache, and a second lookup returns the
        # same read-only array
        amplitudes = fock._vacuum_ancilla_amplitudes
        for kind, values in (("squeezer", (1.0, 1.2, 2.0, 5.0, 37.5)),
                             ("beam-splitter", (0.0, 0.3, 0.5, 0.9, 1.0))):
            for value in values:
                amplitudes.cache_clear()
                table = amplitudes(kind, value, N)
                assert amplitudes(kind, value, N) is table
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 0.5
                if kind == "beam-splitter":
                    table = beam_splitter_by_input(value, N)
                assert np.array_equal(table, gather_amplitudes(kind, value, N))

    def test_edges_exact(self):
        N = self.N
        ones_first = np.zeros((N, N))
        ones_first[:, 0] = 1.0
        assert np.array_equal(fock._vacuum_ancilla_amplitudes("squeezer", 1.0, N), ones_first)
        assert np.array_equal(fock._vacuum_ancilla_amplitudes("beam-splitter", 1.0, N),
                              ones_first)
        # at eta = 0 every photon leaves in the ancilla; -0.0 is the same key of the
        # cache, so it must build the same table
        for eta in (0.0, -0.0):
            fock._vacuum_ancilla_amplitudes.cache_clear()
            assert np.array_equal(fock._vacuum_ancilla_amplitudes("beam-splitter", eta, N),
                                  ones_first.T)
        # E = 0 and kappa = 1 leave the four-mode vacuum, with nothing lost
        assert fock.oracle_cmi(1.0, 0.0, 0.5, N) == 0.0
        assert fock.oracle_lost_norm(1.0, 0.0, 0.5, N) == 0.0


def purified_epi_spot(seed):
    """Reference for the epi-spot suite's worst violation, by the suite's first
    path: each omega_AR drawn on all 144 levels of two modes at N = 12, purified
    through its eigendecomposition, sent through the squeezer with a vacuum B as
    a gather of input level a - b, and its output marginals taken as Gram
    matrices of the purification."""
    samples, N, kappa = 50, 12, 1.5
    rng = np.random.default_rng(seed)
    sigma = fock._vacuum_ancilla_amplitudes("squeezer", kappa, N)
    a, b = np.ogrid[:N, :N]
    src = (a - b) % N
    gain = np.where(a >= b, sigma[src, b], 0.0)
    levels = (N * np.arange(4)[:, None] + np.arange(4)).ravel()  # index n_A N + n_R
    worst = -math.inf
    for _ in range(samples):
        omega = fock._random_mixture(rng, N * N, levels, levels, rotations=8)
        omega_r = np.trace(omega.reshape(N, N, N, N), axis1=0, axis2=2)
        s_cond_in = fock.spectral_entropy(omega) - fock.spectral_entropy(omega_r)
        w, V = np.linalg.eigh(omega)
        keep = w >= 1e-15
        vecs = (V[:, keep] * np.sqrt(w[keep])).reshape(N, N, -1)  # (A, R, k)
        psi = gain[:, :, None, None] * vecs[src]  # (A, B, R, k)
        m_ar = psi.transpose(0, 2, 1, 3).reshape(N * N, -1)
        m_br = psi.transpose(1, 2, 0, 3).reshape(N * N, -1)
        m_r = psi.transpose(2, 0, 1, 3).reshape(N, -1)
        s_r = fock.spectral_entropy(m_r @ m_r.conj().T)
        s_a_cond = fock.spectral_entropy(m_ar @ m_ar.conj().T) - s_r
        s_b_cond = fock.spectral_entropy(m_br @ m_br.conj().T) - s_r
        epi_a, epi_b = cond_epi_rhs(kappa, s_cond_in)
        worst = max(worst, epi_a - s_a_cond, epi_b - s_b_cond)
    return worst


class TestSpotSuites:
    """The Fock-route spot suites, pinned to their worst violations: a change of
    how the states are drawn, stacked or sent through a channel shows here."""

    @pytest.mark.parametrize("suite, checks, worst", [
        ("moe-spot", 800, -0.16858827289678002),
        ("epi-spot", 100, -0.2057187068336852),
    ])
    def test_pinned(self, suite, checks, worst):
        report = run_suite(suite)
        assert report.checks_run == checks
        assert report.max_violation == pytest.approx(worst, rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_epi_spot_matches_purified_reference(self, seed):
        worst = run_suite("epi-spot", seed=seed).max_violation
        assert worst == pytest.approx(purified_epi_spot(seed), rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_epi_spot_draws_are_the_support_block(self, seed):
        # epi-spot draws omega_AR on the 16 levels n_A, n_R < 4 alone; the same
        # generator calls on all 144 levels of two modes at N = 12 give that block,
        # bit for bit, and 0 everywhere else
        full_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        levels = (12 * np.arange(4)[:, None] + np.arange(4)).ravel()
        block = np.ix_(levels, levels)
        for _ in range(50):
            full = fock._random_mixture(full_rng, 144, levels, levels, rotations=8)
            assert np.array_equal(full[block], fock._random_mixture(
                block_rng, 16, np.arange(16), np.arange(16), rotations=8))
            full[block] = 0.0
            assert not full.any()


class TestRandomStates:
    def test_one_mode_valid(self):
        rng = np.random.default_rng(3)
        state = fock.random_one_mode_state(rng, 40)
        assert state.trace == pytest.approx(1.0, abs=1e-10)
        eigs = np.linalg.eigvalsh(state.matrix)
        assert eigs.min() > -1e-12

    def test_two_mode_valid(self):
        # a draw the size of two modes at N = 12; test_pinned[epi-spot] covers
        # the suite's own level layout
        rho = fock._random_mixture(np.random.default_rng(3), 144, np.arange(0, 144, 9),
                                   np.arange(5, 60), rotations=8)
        state = fock.TruncatedState(rho, tail_bound=0.0)
        assert state.trace == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    @pytest.mark.parametrize("dim, i, j", [(40, 0, 11), (40, 7, 3), (144, 5, 100)])
    def test_rotate_pair_matches_dense_conjugation(self, dim, i, j):
        start = np.random.default_rng(2)
        rho = np.diag(start.dirichlet(np.ones(dim))).astype(complex)
        rho[i, j] = rho[j, i] = 0.01
        expected = dense_rotation(rho, i, j, np.random.default_rng(5))
        fock._rotate_pair(rho, i, j, np.random.default_rng(5))
        assert np.abs(rho - expected).max() < 1e-15

    @pytest.mark.parametrize("support", [9, 10])
    def test_support_up_to_the_cutoff(self, support):
        # the rotations draw from the lowest support + 2 levels, capped at N
        state = fock.random_one_mode_state(np.random.default_rng(0), 10, support=support)
        assert state.trace == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(state.matrix).min() > -1e-12

    @pytest.mark.parametrize("draw, support, text", [
        (fock.random_one_mode_state, 0, "[1, N = 10]"),
        (fock.random_one_mode_state, -1, "[1, N = 10]"),
        (fock.random_one_mode_state, 11, "[1, N = 10]"),
        (fock.random_one_mode_state, 2.0, "[1, N = 10]"),
    ])
    def test_support_outside_range_named(self, draw, support, text):
        with pytest.raises(DomainError) as err:
            draw(np.random.default_rng(0), 10, support=support)
        assert str(err.value) == f"support must be an integer in {text}, got {support}"

    def test_seeded_reproducibility(self):
        a = fock.random_one_mode_state(np.random.default_rng(11), 20)
        b = fock.random_one_mode_state(np.random.default_rng(11), 20)
        assert np.array_equal(a.matrix, b.matrix)
