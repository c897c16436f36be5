"""Unit tests for the named Gaussian states and conditional mutual information."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from cvsquash import fock, states, symplectic
from cvsquash.entropics import g, psi
from cvsquash.errors import DomainError, InvalidStateError
from cvsquash.states import (
    GaussianState,
    attenuated_tmsv_cov,
    extension_family,
    gamma_amplified,
    gamma_attenuated,
    gaussian_cmi,
    thermal_state,
    tms_thermal_state,
)
from cvsquash.symplectic import gaussian_entropy, validate_covariance
from tests.reference import apply_symplectic, embed_symplectic, two_mode_squeezer_symplectic


def two_call_cmi(state, part_a, part_b, part_r=()):
    """The CMI as computed before construction kept its entropies: the four
    marginals padded with vacuum in a stack of their own, in a second kernel
    call, independent of the state's memo."""
    kept = np.zeros((4, state.n_modes), dtype=bool)
    parts = part_a + part_b + part_r
    for row, subset in enumerate((part_a + part_r, part_b + part_r, part_r, parts)):
        kept[row, state.mode_indices(subset)] = True
    kept = np.repeat(kept, 2, axis=1)
    vacuum = 0.5 * np.eye(2 * state.n_modes)
    stack = np.where(kept[:, :, None] & kept[:, None, :], state.cov, vacuum)
    s_ar, s_br, s_r, s_abr = gaussian_entropy(stack)
    return float(s_ar + s_br - s_r - s_abr)


def random_state(rng, n_modes):
    """A seeded physical state: 1/2 I plus a random positive matrix, so that
    sigma + i Delta / 2 >= 0."""
    a = rng.normal(size=(2 * n_modes, 2 * n_modes))
    return GaussianState(cov=0.5 * np.eye(2 * n_modes) + a @ a.T,
                         labels=tuple("ABCD"[:n_modes]))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Shapes of the stacks passed to the symplectic kernel."""
    calls = []
    spectra = symplectic.symplectic_eigenvalues

    def counted(stack):
        calls.append(stack.shape)
        return spectra(stack)

    monkeypatch.setattr(symplectic, "symplectic_eigenvalues", counted)
    return calls


class TestGaussianState:
    def test_label_bookkeeping(self):
        state = tms_thermal_state(2.0, 1.0, labels=("X", "Y"))
        assert state.n_modes == 2
        assert state.mode_indices(("Y",)) == [1]

    def test_unknown_label(self):
        state = thermal_state(1.0)
        with pytest.raises(DomainError):
            state.marginal_cov(("B",))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError):
            GaussianState(cov=0.5 * np.eye(4), labels=("A", "A"))

    def test_entropy_by_label(self):
        state = tms_thermal_state(2.0, 1.0)
        assert state.entropy(("B",)) == pytest.approx(g(2.0 * (1.0 + 1.0) - 2.0), rel=1e-10)


class TestConstructors:
    def test_thermal(self):
        state = thermal_state(3.0)
        assert state.entropy() == pytest.approx(g(3.0), rel=1e-12)

    def test_tms_closed_form_matches_squeezer(self):
        kappa, E = 2.5, 1.5
        joint = np.kron(np.diag([E + 0.5, 0.5]), np.eye(2))
        expected = apply_symplectic(two_mode_squeezer_symplectic(kappa), joint)
        assert np.allclose(tms_thermal_state(kappa, E).cov, expected, atol=1e-12)

    def test_tms_pure_at_zero_energy(self):
        state = tms_thermal_state(3.0, 0.0)
        assert state.entropy() == pytest.approx(0.0, abs=1e-10)
        # each half is thermal with the squeezer photon number
        assert state.entropy(("A",)) == pytest.approx(g(2.0), rel=1e-10)
        assert state.entropy(("B",)) == pytest.approx(g(2.0), rel=1e-10)

    def test_gamma_attenuated_marginals(self):
        eta, E = 0.3, 2.0
        state = gamma_attenuated(eta, E)
        assert state.entropy(("A",)) == pytest.approx(g(E), rel=1e-10)
        assert state.entropy(("B",)) == pytest.approx(g(eta * E), rel=1e-10)

    def test_gamma_amplified_marginals(self):
        kappa, E = 2.0, 1.0
        state = gamma_amplified(kappa, E)
        assert state.entropy(("A",)) == pytest.approx(g(kappa * E + kappa - 1.0), rel=1e-10)
        assert state.entropy(("B",)) == pytest.approx(g(E), rel=1e-10)

    def test_gamma_attenuated_edge_cases(self):
        # eta = 1 leaves the two-mode squeezed vacuum intact (pure)
        state = gamma_attenuated(1.0, 2.0)
        assert state.entropy() == pytest.approx(0.0, abs=1e-10)
        # eta = 0 gives a product with the vacuum
        state = gamma_attenuated(0.0, 2.0)
        assert gaussian_cmi(state, "A", "B") == pytest.approx(0.0, abs=1e-10)


class TestExtensionFamily:
    def test_ab_marginal_is_tms_state(self):
        # tracing out R must leave exactly the squeezed thermal-vacuum state
        kappa, E = 2.0, 1.5
        for eta in (0.0, 0.5, 1.0):
            fam = extension_family(kappa, E, eta)
            ab = fam.marginal_cov(("A", "B"))
            assert np.array_equal(ab, tms_thermal_state(kappa, E).cov)

    def test_assembly_from_parts(self):
        # the closed form equals the squeezer congruence of attenuated TMSV (x) vacuum
        rng = np.random.default_rng(11)
        sample = np.column_stack([
            rng.uniform(1.0, 10.0, 40), rng.uniform(0.0, 50.0, 40), rng.uniform(0.0, 1.0, 40)
        ]).tolist()
        edges = [(1.0, 2.0, 0.3), (3.0, 0.0, 0.7)] + [(2.5, 4.0, eta) for eta in (0.0, 0.5, 1.0)]
        for kappa, E, eta in sample + edges:
            cov = 0.5 * np.eye(6)
            idx = np.ix_([0, 1, 4, 5], [0, 1, 4, 5])
            cov[idx] = attenuated_tmsv_cov(eta, E)
            S = embed_symplectic(two_mode_squeezer_symplectic(kappa), 3, (0, 1))
            np.testing.assert_allclose(
                extension_family(kappa, E, eta).cov, apply_symplectic(S, cov), rtol=1e-15, atol=0
            )

    def test_accepts_state_near_the_validation_floor(self):
        # a physical state that an eigh-and-square-root spectrum of the
        # congruence-built covariance rejected (nu_min - 1/2 = -1.06e-10)
        assert symplectic._NU_TOL == 1e-10
        kappa, E, eta = 7.431522040847808, 46.06778512697446, 0.9950608628339832
        at_eta = gaussian_cmi(extension_family(kappa, E, eta), "A", "B", "R")
        at_mirror = gaussian_cmi(extension_family(kappa, E, 1.0 - eta), "A", "B", "R")
        assert at_eta == pytest.approx(at_mirror, abs=1e-8)

    def test_r_marginal_thermal(self):
        fam = extension_family(2.0, 1.0, 0.25)
        assert np.allclose(fam.marginal_cov(("R",)), (0.25 + 0.5) * np.eye(2))

    def test_cmi_closed_form_at_half(self):
        kappa, E = 2.0, 1.0
        fam = extension_family(kappa, E, 0.5)
        cmi = gaussian_cmi(fam, "A", "B", "R")
        closed = 2.0 * (g((kappa - 0.5) * E + kappa - 1.0) - g(0.5 * E))
        assert cmi == pytest.approx(closed, abs=1e-11)

    def test_cmi_closed_form_pointwise(self):
        # S(AR) - S(R) = psi(eta) and S(BR) - S(ABR) = psi(1 - eta), so each draw
        # has its own exact value; the kernel's error grows with E (ROADMAP item 5)
        rng = np.random.default_rng(0)
        kappa = rng.uniform(1.0, 10.0, 2000)
        E = rng.uniform(0.0, 50.0, 2000)
        eta = rng.uniform(0.0, 1.0, 2000)
        cmi = gaussian_cmi(extension_family(kappa, E, eta), "A", "B", "R")
        error = np.abs(cmi - (psi(kappa, E, eta) + psi(kappa, E, 1.0 - eta)))
        assert error.max() <= 1e-8
        assert error[E <= 20.0].max() <= 1e-10

    def test_conditional_entropy_closed_form(self):
        # S(AR) - S(R) = g((1 - eta) E) - g(eta E), since S(AR) = S(C) for the pure
        # ARC state; verify epi-chain takes s in this closed form at these (E, eta)
        E, eta = (np.concatenate((a.ravel(), b)) for a, b in zip(
            np.meshgrid((0.0, 0.1, 0.5, 1.0, 5.0, 20.0), (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)),
            (np.linspace(0.0, 50.0, 50), np.full(50, 0.5))))
        ar = attenuated_tmsv_cov(eta, E)
        s = gaussian_entropy(ar) - gaussian_entropy(symplectic.marginal(ar, [1]))
        np.testing.assert_allclose(s, g((1.0 - eta) * E) - g(eta * E), rtol=0, atol=1e-12)


class TestCmi:
    def test_product_state_zero(self):
        state = GaussianState(cov=np.diag([1.5, 1.5, 2.5, 2.5]), labels=("A", "B"))
        assert gaussian_cmi(state, "A", "B") == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_double_entropy(self):
        state = tms_thermal_state(3.0, 0.0)
        cmi = gaussian_cmi(state, "A", "B")
        assert cmi == pytest.approx(2.0 * g(2.0), rel=1e-9)

    def test_overlapping_parts_rejected(self):
        state = tms_thermal_state(2.0, 1.0)
        with pytest.raises(DomainError):
            gaussian_cmi(state, "A", "A")

    def test_without_conditioning_is_mutual_information(self):
        state = gamma_attenuated(0.5, 1.0)
        mi = state.entropy(("A",)) + state.entropy(("B",)) - state.entropy()
        assert gaussian_cmi(state, "A", "B") == pytest.approx(mi, abs=1e-12)


class TestEntropyMemo:
    def test_one_kernel_call_per_extension_cmi(self, kernel_calls):
        gaussian_cmi(extension_family(3.0, 2.0, 0.4), "A", "B", "R")
        # the whole state, three one-mode and three two-mode marginals
        assert kernel_calls == [(7, 6, 6)]

    def test_cmi_bit_identical_to_two_call_path(self):
        rng = np.random.default_rng(12)
        draws = np.column_stack([
            rng.uniform(1.0, 10.0, 300), rng.uniform(0.0, 50.0, 300), rng.uniform(0.0, 1.0, 300)
        ]).tolist()
        edges = [(kappa, E, eta) for kappa in (1.0, 10.0) for E in (0.0, 50.0)
                 for eta in (0.0, 0.5, 1.0)]
        for kappa, E, eta in draws + edges:
            state = extension_family(kappa, E, eta)
            assert gaussian_cmi(state, "A", "B", "R") == two_call_cmi(state, "A", "B", "R")

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_every_marginal_from_construction(self, n_modes, kernel_calls):
        rng = np.random.default_rng(20 + n_modes)
        subsets = [subset for size in range(1, n_modes + 1)
                   for subset in itertools.combinations("ABC"[:n_modes], size)]
        for _ in range(5):
            state = random_state(rng, n_modes)
            expected = [gaussian_entropy(state.marginal_cov(subset)) for subset in subsets]
            del kernel_calls[:]
            for subset, value in zip(subsets, expected):
                assert state.entropy(subset) == pytest.approx(value, rel=1e-13, abs=1e-14)
                assert state.entropy(subset[::-1]) == state.entropy(subset)
            assert kernel_calls == []  # every one read from the memo

    def test_group_on_four_modes_is_lazy_and_kept(self, kernel_calls):
        state = random_state(np.random.default_rng(31), 4)
        assert kernel_calls == [(9, 8, 8)]  # whole, four of one mode, four of three
        s_ab = state.entropy(("A", "B"))
        assert state.entropy(("B", "A")) == s_ab
        assert kernel_calls[1:] == [(1, 8, 8)]
        # the two groups one CMI lacks share one more call
        cmi = gaussian_cmi(state, "A", "C", "D")
        assert kernel_calls[2:] == [(2, 8, 8)]
        assert cmi == two_call_cmi(state, ("A",), ("C",), ("D",))
        assert s_ab == pytest.approx(gaussian_entropy(state.marginal_cov(("A", "B"))), rel=1e-13)

    @pytest.mark.parametrize("make", [
        lambda: gamma_attenuated(0.3, 2.0),
        lambda: tms_thermal_state(2.5, 0.7),
        lambda: extension_family(4.0, 3.0, 0.2),
    ], ids=["attenuated", "tms", "extension"])
    def test_mutual_information_with_empty_r(self, make):
        state = make()
        mi = state.entropy(("A",)) + state.entropy(("B",)) - state.entropy(("A", "B"))
        assert gaussian_cmi(state, "A", "B") == mi
        assert gaussian_cmi(state, "A", "B") == two_call_cmi(state, ("A",), ("B",))

    @pytest.mark.parametrize("cov", [
        0.3 * np.eye(4),
        np.diag([1.0, 1.0, -1.0, 1.0]),
        np.array([[1.0, 0.2], [0.0, 1.0]]),
        np.diag([1.0, np.nan]),
        np.diag([0.2, 1.0, 1.0, 1.0, 1.0, 1.0]),
        # each mode alone is thermal; the pair has nu = 1 - 0.95 < 1/2
        np.block([[np.eye(2), 0.95 * np.diag([1.0, -1.0])],
                  [0.95 * np.diag([1.0, -1.0]), np.eye(2)]]),
    ], ids=["uncertainty", "indefinite", "asymmetric", "nan", "squeezed-too-far",
            "correlated-too-far"])
    def test_unphysical_covariance_raises_at_construction(self, cov):
        with pytest.raises(InvalidStateError) as expected:
            validate_covariance(cov)
        with pytest.raises(InvalidStateError) as raised:
            GaussianState(cov=cov, labels=tuple("ABC"[:len(cov) // 2]))
        assert str(raised.value) == str(expected.value)

    def test_covariance_is_a_read_only_copy(self):
        cov = np.diag([1.5, 1.5, 2.5, 2.5])
        state = GaussianState(cov=cov, labels=("A", "B"))
        cov[0, 0] = 0.1  # the caller's array, not the state's
        assert state.entropy(("A",)) == pytest.approx(g(1.0), rel=1e-12)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 0.1

    def test_memo_not_in_repr_or_equality(self):
        state = thermal_state(1.0)
        assert "_memo" not in repr(state)
        assert [f.name for f in dataclasses.fields(state) if f.compare] == ["cov", "labels"]

    @pytest.mark.parametrize("labels", [(), ("A", "A")])
    def test_empty_or_repeated_subset_rejected(self, labels):
        with pytest.raises(DomainError):
            tms_thermal_state(2.0, 1.0).entropy(labels)


def stack_points():
    """Seeded draws and the corners of kappa in [1, 10], E in [0, 50], eta in [0, 1],
    as three arrays."""
    rng = np.random.default_rng(18)
    draws = np.column_stack([
        rng.uniform(1.0, 10.0, 60), rng.uniform(0.0, 50.0, 60), rng.uniform(0.0, 1.0, 60)
    ])
    corners = list(itertools.product((1.0, 10.0), (0.0, 50.0), (0.0, 0.5, 1.0)))
    return np.concatenate([draws, corners]).T


#: each constructor as a function of (kappa, E, eta)
CONSTRUCTORS = {
    "thermal": lambda kappa, E, eta: thermal_state(E),
    "tms": lambda kappa, E, eta: tms_thermal_state(kappa, E),
    "attenuated": lambda kappa, E, eta: gamma_attenuated(eta, E),
    "amplified": lambda kappa, E, eta: gamma_amplified(kappa, E),
    "extension": lambda kappa, E, eta: extension_family(kappa, E, eta),
}


class TestStacks:
    """A stack of parameters takes the path of a scalar call, element by element."""

    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_stack_equals_scalar_calls(self, name):
        make = CONSTRUCTORS[name]
        points = stack_points()
        stacked = make(*points)
        labels = stacked.labels
        subsets = [subset for size in range(1, len(labels) + 1)
                   for subset in itertools.combinations(labels, size)]
        entropies = [stacked.entropy(subset) for subset in subsets]
        cmi = gaussian_cmi(stacked, labels[0], labels[-1], labels[1:-1]) if len(labels) > 1 else None
        for i, point in enumerate(points.T.tolist()):
            scalar = make(*point)
            assert np.array_equal(stacked.cov[i], scalar.cov)
            for subset, values in zip(subsets, entropies):
                assert values[i] == scalar.entropy(subset)
            if cmi is not None:
                assert cmi[i] == gaussian_cmi(scalar, labels[0], labels[-1], labels[1:-1])

    def test_attenuated_tmsv_cov(self):
        kappa, E, eta = stack_points()
        stacked = attenuated_tmsv_cov(eta, E)
        assert stacked.shape == (len(E), 4, 4)
        for i in range(len(E)):
            assert np.array_equal(stacked[i], attenuated_tmsv_cov(float(eta[i]), float(E[i])))

    def test_parameters_broadcast(self):
        kappa, E = np.linspace(1.0, 10.0, 4), np.linspace(0.0, 50.0, 5)
        state = extension_family(kappa[:, None], E, 0.5)
        assert state.cov.shape == (4, 5, 6, 6)
        cmi = gaussian_cmi(state, "A", "B", "R")
        assert cmi.shape == (4, 5)
        for i, j in itertools.product(range(4), range(5)):
            scalar = extension_family(float(kappa[i]), float(E[j]), 0.5)
            assert np.array_equal(state.cov[i, j], scalar.cov)
            assert cmi[i, j] == gaussian_cmi(scalar, "A", "B", "R")

    def test_scalar_call_gives_floats(self):
        state = extension_family(2.0, 1.0, 0.5)
        assert state.cov.shape == (6, 6)
        assert type(state.entropy()) is float
        assert type(gaussian_cmi(state, "A", "B", "R")) is float
        assert type(gaussian_cmi(state, "A", "B")) is float

    def test_one_kernel_call_per_stacked_cmi(self, kernel_calls):
        kappa, E, eta = stack_points()
        gaussian_cmi(extension_family(kappa, E, eta), "A", "B", "R")
        assert kernel_calls == [(7, len(E), 6, 6)]

    @pytest.mark.parametrize("make", [
        lambda a, b: tms_thermal_state(a, b),
        lambda a, b: gamma_attenuated(b, a),
        lambda a, b: gamma_amplified(a, b),
        lambda a, b: attenuated_tmsv_cov(b, a),
        lambda a, b: extension_family(a, b, 0.5),
        lambda a, b: extension_family(2.0, a, b),
    ], ids=["tms", "attenuated", "amplified", "attenuated_tmsv_cov", "extension",
            "extension-eta"])
    def test_shapes_that_do_not_broadcast(self, make):
        with pytest.raises(DomainError, match="do not broadcast") as raised:
            make(np.full(3, 1.0), np.full(4, 0.5))
        assert "(3,)" in str(raised.value) and "(4,)" in str(raised.value)

    @pytest.mark.parametrize("bad", [
        0.3 * np.eye(4),
        np.diag([1.0, 1.0, -1.0, 1.0]),
        np.array([[1.0, 0.2, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
        np.diag([1.0, np.nan, 1.0, 1.0]),
        np.block([[np.eye(2), 0.95 * np.diag([1.0, -1.0])],
                  [0.95 * np.diag([1.0, -1.0]), np.eye(2)]]),
    ], ids=["uncertainty", "indefinite", "asymmetric", "nan", "correlated-too-far"])
    def test_one_unphysical_member_raises_as_alone(self, bad):
        with pytest.raises(InvalidStateError) as alone:
            GaussianState(cov=bad, labels=("A", "B"))
        stack = np.stack([tms_thermal_state(2.0, 1.0).cov, bad, 0.5 * np.eye(4)])
        with pytest.raises(InvalidStateError) as stacked:
            GaussianState(cov=stack, labels=("A", "B"))
        assert str(stacked.value) == str(alone.value)


def padded_charge(points, n_modes, subsets):
    """Reference for the charge of states._padded: ``subsets`` padded copies of
    ``points`` covariances of n_modes modes, in the entropy kernel."""
    d = 2 * n_modes
    return subsets * points * 8 * (6 * d * d + d + 6) + 136 * 2**10


#: subsets a construction pads: the whole state, each mode and each all-but-one group
CONSTRUCTION_SUBSETS = {1: 1, 2: 3, 3: 7, 4: 9}


def covariance_stack(n_modes, points):
    """Seeded physical covariances of 1 to 4 modes: a thermal mode, a two-mode
    squeezed thermal pair, the extension family, and two such pairs side by side."""
    rng = np.random.default_rng(35)
    kappa, E, eta = rng.uniform((1.0, 0.0, 0.0), (3.0, 2.0, 1.0), (points, 3)).T
    if n_modes == 1:
        return thermal_state(E).cov
    if n_modes == 2:
        return tms_thermal_state(kappa, E).cov
    if n_modes == 3:
        return extension_family(kappa, E, eta).cov
    cov = np.zeros((points, 8, 8))
    cov[:, :4, :4] = tms_thermal_state(kappa, E).cov
    cov[:, 4:, 4:] = tms_thermal_state(kappa[::-1], eta).cov
    return cov


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """A stack is charged for the entropy kernel before it is padded."""

    @pytest.mark.parametrize("n_modes, points", [
        (1, 10**3), (2, 10**3), (3, 10**3), (4, 10**3), (1, 10**4), (2, 10**4), (3, 10**4),
    ])
    def test_construction_peak_within_its_charge(self, n_modes, points):
        cov = covariance_stack(n_modes, points)
        labels = tuple("ABCD"[:n_modes])
        peak = traced_peak(lambda: GaussianState(cov=cov, labels=labels))
        charge = padded_charge(points, n_modes, CONSTRUCTION_SUBSETS[n_modes])
        assert 0.7 * charge < peak <= charge

    def test_lazy_peak_within_its_charge(self):
        # the pairs AC and BC of a four-mode state are not in the memo
        state = GaussianState(cov=covariance_stack(4, 10**3), labels=tuple("ABCD"))
        peak = traced_peak(lambda: gaussian_cmi(state, "A", "B", "C"))
        charge = padded_charge(10**3, 4, 2)
        assert 0.7 * charge < peak <= charge

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_limit_below_the_charge_refuses_before_padding(self, monkeypatch, n_modes):
        cov = covariance_stack(n_modes, 100)
        labels = tuple("ABCD"[:n_modes])
        charge = padded_charge(100, n_modes, CONSTRUCTION_SUBSETS[n_modes])
        padded = []
        padding = states._padding
        monkeypatch.setattr(states, "_padding", lambda *args: padded.append(args) or padding(*args))
        monkeypatch.setattr(fock, "ORACLE_MEMORY_LIMIT", charge - 1)
        with pytest.raises(DomainError, match="100 points need .* MiB, above the limit"):
            GaussianState(cov=cov, labels=labels)
        assert padded == []
        monkeypatch.setattr(fock, "ORACLE_MEMORY_LIMIT", charge)
        GaussianState(cov=cov, labels=labels)
        assert len(padded) == 1

    def test_lazy_limit_below_the_charge_refuses(self, monkeypatch):
        state = GaussianState(cov=covariance_stack(4, 100), labels=tuple("ABCD"))
        charge = padded_charge(100, 4, 2)
        monkeypatch.setattr(fock, "ORACLE_MEMORY_LIMIT", charge - 1)
        with pytest.raises(DomainError, match="100 points need"):
            gaussian_cmi(state, "A", "B", "C")
        monkeypatch.setattr(fock, "ORACLE_MEMORY_LIMIT", charge)
        gaussian_cmi(state, "A", "B", "C")
