"""Unit tests for the named Gaussian states and conditional mutual information."""

import numpy as np
import pytest

from cvsquash import symplectic
from cvsquash.entropics import g
from cvsquash.errors import DomainError
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
from cvsquash.symplectic import (
    apply_symplectic,
    embed_symplectic,
    two_mode_squeezer_symplectic,
)


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
