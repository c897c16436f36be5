"""Unit tests for the covariance-matrix formalism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsquash import symplectic
from cvsquash.entropics import g
from cvsquash.errors import DomainError, InvalidStateError
from cvsquash.states import (
    GaussianState,
    _construction_subsets,
    _padded,
    extension_family,
    tms_thermal_state,
)
from cvsquash.symplectic import (
    gaussian_entropy,
    marginal,
    symplectic_eigenvalues,
    validate_covariance,
)
from tests.reference import (
    apply_symplectic,
    beam_splitter_symplectic,
    embed_symplectic,
    is_symplectic,
    symplectic_form,
    two_mode_squeezer_symplectic,
)
from tests.test_states import stack_points


def thermal_cov(E):
    return (E + 0.5) * np.eye(2)


def random_symplectic(h):
    """The Cayley transform (I - K/2)^-1 (I + K/2) of the Hamiltonian matrix
    K = Delta H, with H = h + h^T symmetric: a symplectic matrix."""
    h = np.asarray(h, dtype=float)
    K = symplectic_form(h.shape[0] // 2) @ (h + h.T)
    I = np.eye(len(K))
    S = np.linalg.solve(I - 0.5 * K, I + 0.5 * K)
    assert is_symplectic(S, tol=1e-9)
    return S


def random_physical_stack(rng, n_modes, count):
    """Covariances S diag(nu) S^T with random symplectic S and nu in [1/2, 5]."""
    stack = []
    for _ in range(count):
        nu = np.repeat(rng.uniform(0.5, 5.0, n_modes), 2)
        S = random_symplectic(rng.normal(scale=0.2, size=(2 * n_modes, 2 * n_modes)))
        stack.append(apply_symplectic(S, np.diag(nu)))
    return np.array(stack)


def reference_spectrum(sigma):
    """A plain reference for the kernel: separate finite and symmetry refusals,
    Delta L by slices and the Hermitian matrix by two products.  The package's
    kernel takes shortcuts that change no bit, so it must equal this exactly."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[-1] // 2
    transpose = np.swapaxes(sigma, -1, -2)
    scale = np.maximum(1.0, np.abs(sigma).max(axis=(-2, -1)))
    if not np.isfinite(scale).all():
        raise InvalidStateError("covariance matrix has a non-finite entry")
    if (np.abs(sigma - transpose).max(axis=(-2, -1)) > 1e-12 * scale).any():
        raise InvalidStateError("covariance matrix is not symmetric")
    L = np.linalg.cholesky(0.5 * (sigma + transpose))
    delta_L = np.empty_like(L)
    delta_L[..., 0::2, :] = L[..., 1::2, :]
    delta_L[..., 1::2, :] = -L[..., 0::2, :]
    A = np.swapaxes(L, -1, -2) @ delta_L
    nu = np.linalg.eigvalsh(1j * (0.5 * (A - np.swapaxes(A, -1, -2))))
    paired = nu[..., :n - 1:-1]
    assert (np.abs(paired + nu[..., :n]).max(axis=-1)
            <= 1e-9 * np.maximum(1.0, paired[..., 0])).all()
    assert (paired[..., -1] >= 0.5 - np.maximum(1e-10, 1e-13 * scale)).all()
    return paired


def reference_entropy(sigma):
    """g on every symplectic eigenvalue's excess, with those within
    1e-11 * max(1, nu_0) of 1/2 set to exactly 0 first."""
    nu = reference_spectrum(sigma)
    excess = np.maximum(nu - 0.5, 0.0)
    excess[excess < 1e-11 * np.maximum(1.0, nu[..., :1])] = 0.0
    out = np.sum(g(excess), axis=-1)
    return out if out.ndim else float(out)


def partly_pure_stack(rng, n_modes, count):
    """Like random_physical_stack, with about a third of the modes pure (nu = 1/2),
    which roundoff in S diag(nu) S^T puts on either side of 1/2."""
    stack = []
    for _ in range(count):
        nu = rng.uniform(0.5, 5.0, n_modes)
        nu[rng.random(n_modes) < 0.35] = 0.5
        S = random_symplectic(rng.normal(scale=0.2, size=(2 * n_modes, 2 * n_modes)))
        stack.append(apply_symplectic(S, np.diag(np.repeat(nu, 2))))
    return np.array(stack)


def wide_scale_stack(rng, n_modes, count):
    """Like random_physical_stack, with nu log-uniform in [1/2, 10^6], so that
    the reference's pairing assertion, the only check that the spectrum pairs
    up, runs at large scales too."""
    stack = []
    for _ in range(count):
        nu = np.repeat(0.5 * 10.0 ** rng.uniform(0.0, math.log10(2e6), n_modes), 2)
        S = random_symplectic(rng.normal(scale=0.2, size=(2 * n_modes, 2 * n_modes)))
        stack.append(apply_symplectic(S, np.diag(nu)))
    return np.array(stack)


def construction_stacks():
    """The padded stacks that GaussianState builds for the extension family at
    the seeded draws and corners of stack_points: (7, 66, 6, 6)."""
    cov = extension_family(*stack_points()).cov
    return _padded(cov, _construction_subsets(3))


class TestForm:
    def test_one_mode(self):
        delta = symplectic_form(1)
        assert np.array_equal(delta, [[0.0, 1.0], [-1.0, 0.0]])

    def test_block_structure(self):
        delta = symplectic_form(3)
        assert delta.shape == (6, 6)
        assert np.array_equal(delta, -delta.T)
        assert np.array_equal(delta @ delta, -np.eye(6))


class TestSpectrum:
    def test_vacuum(self):
        nu = symplectic_eigenvalues(0.5 * np.eye(4))
        assert nu == pytest.approx([0.5, 0.5])

    def test_thermal(self):
        nu = symplectic_eigenvalues(thermal_cov(2.0))
        assert nu == pytest.approx([2.5])

    def test_descending_order(self):
        sigma = np.diag([3.5, 3.5, 1.5, 1.5])
        nu = symplectic_eigenvalues(sigma)
        assert nu[0] >= nu[1]
        assert nu == pytest.approx([3.5, 1.5])

    def test_unphysical_rejected(self):
        with pytest.raises(InvalidStateError):
            validate_covariance(0.3 * np.eye(2))

    def test_asymmetric_rejected(self):
        sigma = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(InvalidStateError):
            symplectic_eigenvalues(sigma)

    @pytest.mark.parametrize("compute", [
        symplectic_eigenvalues,
        gaussian_entropy,
        validate_covariance,
        lambda cov: GaussianState(cov=cov, labels=()),
    ], ids=["symplectic_eigenvalues", "gaussian_entropy", "validate_covariance", "GaussianState"])
    def test_no_modes_rejected(self, compute):
        with pytest.raises(InvalidStateError, match="need at least one mode"):
            compute(np.zeros((0, 0)))

    @given(E=st.floats(min_value=0.0, max_value=100.0), r=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=100)
    def test_invariant_under_squeezer_conjugation(self, E, r):
        # symplectic congruence preserves the symplectic spectrum
        kappa = math.cosh(r) ** 2
        sigma = np.kron(np.diag([E + 0.5, 0.5]), np.eye(2))
        S = two_mode_squeezer_symplectic(kappa)
        nu_before = symplectic_eigenvalues(sigma)
        nu_after = symplectic_eigenvalues(apply_symplectic(S, sigma))
        assert nu_after == pytest.approx(nu_before, rel=1e-9, abs=1e-9)

    @given(eta=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_invariant_under_beam_splitter(self, eta):
        sigma = np.diag([1.5, 1.5, 3.0, 3.0])
        S = beam_splitter_symplectic(eta)
        assert symplectic_eigenvalues(apply_symplectic(S, sigma)) == pytest.approx(
            symplectic_eigenvalues(sigma), rel=1e-12
        )


class TestStackedKernel:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_stack_equals_per_matrix_calls(self, n_modes):
        stack = random_physical_stack(np.random.default_rng(n_modes), n_modes, 16)
        stacked = symplectic_eigenvalues(stack)
        assert stacked.shape == (16, n_modes)
        for sigma, nu in zip(stack, stacked):
            np.testing.assert_allclose(nu, symplectic_eigenvalues(sigma), rtol=1e-12, atol=0)

    def test_non_positive_definite_stack_is_invalid_state(self):
        stack = np.array([0.5 * np.eye(4), np.diag([1.0, 1.0, -1.0, 1.0])])
        with pytest.raises(InvalidStateError, match="not positive definite"):
            symplectic_eigenvalues(stack)
        with pytest.raises(InvalidStateError, match="not positive definite"):
            validate_covariance(stack[1])

    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    def test_non_finite_stack_is_invalid_state(self, inf):
        # Cholesky does not raise on NaN, and every comparison with NaN is False
        stack = np.array([0.5 * np.eye(2), np.full((2, 2), math.nan), np.diag([inf, 0.5])])
        with pytest.raises(InvalidStateError, match="non-finite"):
            symplectic_eigenvalues(stack)
        for sigma in stack[1:]:
            with pytest.raises(InvalidStateError, match="non-finite"):
                symplectic_eigenvalues(sigma)
            with pytest.raises(InvalidStateError, match="non-finite"):
                validate_covariance(sigma)

    @pytest.mark.parametrize("slots", [(0,), (1,), (2,), (0, 3)])
    def test_vacuum_padding_keeps_entropy(self, slots):
        sigma = random_physical_stack(np.random.default_rng(7), 2, 1)[0]
        n = 2 + len(slots)
        kept = np.repeat([m not in slots for m in range(n)], 2)
        padded = 0.5 * np.eye(2 * n)
        padded[np.ix_(kept, kept)] = sigma
        assert gaussian_entropy(padded) == pytest.approx(gaussian_entropy(sigma), rel=1e-12)

    @given(h=st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=36, max_size=36),
           nu=st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_random_symplectic_congruence(self, h, nu):
        sigma = np.diag(np.repeat(nu, 2))
        S = random_symplectic(np.reshape(h, (6, 6)))
        assert symplectic_eigenvalues(apply_symplectic(S, sigma)) == pytest.approx(
            sorted(nu, reverse=True), rel=1e-9, abs=1e-9
        )


def extension_stack():
    """Extension-family covariances at the seeded draws and corners of stack_points."""
    return extension_family(*stack_points()).cov


class TestStackedFunctions:
    """Each public function takes a stack and equals its per-matrix calls."""

    @pytest.mark.parametrize("source", ["extension", "random"])
    def test_stack_equals_per_matrix_calls(self, source):
        if source == "extension":
            stack = extension_stack()
        else:
            stack = random_physical_stack(np.random.default_rng(5), 3, 24).reshape(4, 6, 6, 6)
        flat = stack.reshape(-1, 6, 6)
        entropy, nu = gaussian_entropy(stack), symplectic_eigenvalues(stack)
        assert entropy.shape == stack.shape[:-2] and nu.shape == stack.shape[:-2] + (3,)
        assert np.array_equal(entropy.ravel(), [gaussian_entropy(sigma) for sigma in flat])
        assert np.array_equal(nu.reshape(-1, 3), [symplectic_eigenvalues(sigma) for sigma in flat])
        for modes in ([0], [2, 0], [1, 2]):
            sub = marginal(stack, modes).reshape(-1, 2 * len(modes), 2 * len(modes))
            assert np.array_equal(sub, [marginal(sigma, modes) for sigma in flat])
            assert np.array_equal(gaussian_entropy(marginal(stack, modes)).ravel(),
                                  [gaussian_entropy(sigma) for sigma in sub])
        assert np.array_equal(validate_covariance(stack), stack)

    def test_one_matrix_gives_a_float(self):
        assert type(gaussian_entropy(extension_stack()[0])) is float

    @pytest.mark.parametrize("bad", [
        0.3 * np.eye(4),
        np.diag([1.0, 1.0, -1.0, 1.0]),
        np.diag([1.0, np.nan, 1.0, 1.0]),
    ], ids=["uncertainty", "indefinite", "nan"])
    @pytest.mark.parametrize("compute", [symplectic_eigenvalues, gaussian_entropy,
                                         validate_covariance],
                             ids=["symplectic_eigenvalues", "gaussian_entropy",
                                  "validate_covariance"])
    def test_one_unphysical_member_raises_as_alone(self, bad, compute):
        with pytest.raises(InvalidStateError) as alone:
            compute(bad)
        with pytest.raises(InvalidStateError) as stacked:
            compute(np.stack([0.5 * np.eye(4), bad, np.diag([1.5, 1.5, 0.5, 0.5])]))
        assert str(stacked.value) == str(alone.value)

    def test_marginal_of_a_stack_checks_modes(self):
        with pytest.raises(DomainError):
            marginal(extension_stack(), [3])


class TestAgainstReference:
    """The kernel equals reference_spectrum and reference_entropy bit for bit."""

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("draw", [random_physical_stack, partly_pure_stack,
                                      wide_scale_stack],
                             ids=["mixed", "partly-pure", "wide-scale"])
    def test_seeded_stacks(self, n_modes, draw):
        dim = 2 * n_modes
        stack = draw(np.random.default_rng(40 + n_modes), n_modes, 48).reshape(6, 8, dim, dim)
        assert np.array_equal(symplectic_eigenvalues(stack), reference_spectrum(stack))
        assert np.array_equal(gaussian_entropy(stack), reference_entropy(stack))
        for sigma in stack[0]:
            assert gaussian_entropy(sigma) == reference_entropy(sigma)

    def test_construction_stacks(self):
        stacks = construction_stacks()
        assert np.array_equal(symplectic_eigenvalues(stacks), reference_spectrum(stacks))
        assert np.array_equal(gaussian_entropy(stacks), reference_entropy(stacks))
        for point in np.moveaxis(stacks, 1, 0):  # the (7, 6, 6) stack of one state
            assert np.array_equal(gaussian_entropy(point), reference_entropy(point))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("inf", [math.inf, -math.inf])
    @pytest.mark.parametrize("compute", [symplectic_eigenvalues, gaussian_entropy,
                                         validate_covariance, reference_spectrum],
                             ids=["symplectic_eigenvalues", "gaussian_entropy",
                                  "validate_covariance", "reference"])
    def test_one_sided_infinite_entry_is_non_finite(self, inf, compute):
        # |inf - x| is no larger than 1e-12 times an infinite scale: the symmetry
        # test alone would pass it
        sigma = 0.5 * np.eye(4)
        sigma[0, 3] = inf
        for bad in (sigma, np.stack([0.5 * np.eye(4), sigma.T, np.diag([1.5, 1.5, 0.5, 0.5])])):
            with pytest.raises(InvalidStateError, match="has a non-finite entry"):
                compute(bad)


class TestPureEntries:
    @staticmethod
    def spy_on_g(monkeypatch):
        """The arrays the kernel hands to g's unvalidated body, which g still
        computes the entropy of."""
        received = []

        def spy(E):
            received.append(np.copy(E))
            return g(E)

        monkeypatch.setattr(symplectic, "_g", spy)
        return received

    def test_pure_states_add_exactly_zero(self, monkeypatch):
        stack = np.stack([0.5 * np.eye(4), tms_thermal_state(7.0, 0.0).cov])
        received = self.spy_on_g(monkeypatch)
        out = gaussian_entropy(stack)
        assert out.tolist() == [0.0, 0.0]
        assert np.copysign(1.0, out).tolist() == [1.0, 1.0]
        assert sum(E.size for E in received) == 0

    def test_g_receives_only_mixed_entries(self, monkeypatch):
        stacks = construction_stacks()
        nu = symplectic_eigenvalues(stacks)
        mixed = nu - 0.5 >= 1e-11 * np.maximum(1.0, nu[..., :1])
        assert 0 < mixed.sum() < mixed.size  # the padded vacuum modes are pure
        received = self.spy_on_g(monkeypatch)
        gaussian_entropy(stacks)
        assert len(received) == 1
        assert np.array_equal(received[0], (nu - 0.5)[mixed])

    @pytest.mark.parametrize("others, excess", [((), 2e-11), ((), 5e-9), ((100.5,), 2e-9)])
    def test_small_excess_takes_the_series(self, others, excess):
        # above the pure threshold 1e-11 max(1, nu_0), below g's series cutoff 1e-8
        sigma = np.diag(np.repeat([*others, 0.5 + excess], 2))
        nu = symplectic_eigenvalues(sigma)
        E = nu[-1] - 0.5
        assert 1e-11 * max(1.0, nu[0]) <= E < 1e-8
        series = E * (1.0 - math.log(E)) + 0.5 * E * E
        expected = sum(g(x - 0.5) for x in nu[:-1]) + series
        assert gaussian_entropy(sigma) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_excess_below_the_threshold_adds_zero(self):
        sigma = np.diag(np.repeat([100.5, 0.5 + 5e-10], 2))  # 5e-10 < 1e-11 * 100.5
        nu = symplectic_eigenvalues(sigma)
        assert nu[-1] > 0.5
        assert gaussian_entropy(sigma) == g(nu[0] - 0.5)


class TestEntropy:
    def test_vacuum_zero(self):
        assert gaussian_entropy(0.5 * np.eye(2)) == 0.0

    def test_thermal(self):
        assert gaussian_entropy(thermal_cov(3.0)) == pytest.approx(g(3.0), rel=1e-12)

    def test_additive_over_modes(self):
        sigma = np.diag([1.5, 1.5, 4.5, 4.5])
        assert gaussian_entropy(sigma) == pytest.approx(g(1.0) + g(4.0), rel=1e-12)


class TestGenerators:
    def test_beam_splitter_is_symplectic(self):
        for eta in (0.0, 0.3, 1.0):
            assert is_symplectic(beam_splitter_symplectic(eta))

    def test_squeezer_is_symplectic(self):
        for kappa in (1.0, 2.0, 10.0):
            assert is_symplectic(two_mode_squeezer_symplectic(kappa))

    def test_squeezer_identity_at_one(self):
        assert np.allclose(two_mode_squeezer_symplectic(1.0), np.eye(4))

    def test_beam_splitter_swap_at_zero(self):
        S = beam_splitter_symplectic(0.0)
        # full reflection exchanges the modes (up to sign)
        assert abs(S[0, 2]) == pytest.approx(1.0)
        assert S[0, 0] == pytest.approx(0.0)

    def test_embed(self):
        S = embed_symplectic(two_mode_squeezer_symplectic(2.0), 3, (0, 2))
        assert is_symplectic(S)
        assert np.array_equal(S[2:4, 2:4], np.eye(2))

    def test_squeezer_on_thermal_vacuum(self):
        # closed-form covariance of the squeezed thermal-vacuum state
        kappa, E = 2.0, 1.0
        sigma = np.kron(np.diag([E + 0.5, 0.5]), np.eye(2))
        out = apply_symplectic(two_mode_squeezer_symplectic(kappa), sigma)
        assert out[0, 0] == pytest.approx(kappa * (E + 1.0) - 0.5)
        assert out[2, 2] == pytest.approx((kappa - 1.0) * (E + 1.0) + 0.5)
        assert out[0, 2] == pytest.approx((E + 1.0) * math.sqrt(kappa * (kappa - 1.0)))
        assert out[1, 3] == pytest.approx(-(E + 1.0) * math.sqrt(kappa * (kappa - 1.0)))


class TestMarginal:
    def test_order_preserved(self):
        sigma = np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        sub = marginal(sigma, [2, 0])
        assert np.array_equal(np.diagonal(sub), [3.0, 3.0, 1.0, 1.0])

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            marginal(np.eye(4), [2])

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            marginal(np.eye(4), [0, 0])

