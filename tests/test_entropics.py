"""Unit tests for the closed-form entropic functions."""

import math
import re
from fractions import Fraction
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsquash.bounds import esq_bounds_tms
from cvsquash.entropics import (
    _G_SERIES_CUTOFF,
    G_MAX,
    ChannelParam,
    cmi_cosh_lower,
    cond_epi_rhs,
    g,
    g_inverse,
    gap_f,
    h,
    moe_amplifier,
    moe_complement,
    psi,
    psi_second_derivative,
)
from cvsquash.errors import DomainError, SingularPointError

from .reference import apply_symplectic, beam_splitter_symplectic, two_mode_squeezer_symplectic

energies = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
positive_energies = st.floats(min_value=1e-6, max_value=1e6)
gains = st.floats(min_value=1.0, max_value=50.0)


class TestG:
    def test_vacuum(self):
        assert g(0.0) == 0.0

    def test_one_photon(self):
        assert g(1.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-15)

    def test_matches_textbook_formula(self):
        for E in (0.3, 1.0, 7.5, 123.0):
            expected = (E + 1.0) * math.log(E + 1.0) - E * math.log(E)
            assert g(E) == pytest.approx(expected, rel=1e-14)

    def test_small_energy_series(self):
        # the direct formula would lose all digits here
        E = 1e-12
        assert g(E) == pytest.approx(E * (1.0 - math.log(E)), rel=1e-12)

    def test_large_energy_no_cancellation(self):
        # g(E) - (ln E + 1) -> 0 from above as E grows
        E = 1e15
        assert g(E) - (math.log(E) + 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_array_input(self):
        out = g(np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3,)
        assert out[0] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            g(-0.1)

    def test_array_equals_scalar_calls_bitwise(self):
        # the series and the exact 0 apply only to the entries below the cutoff
        below, above = np.nextafter(_G_SERIES_CUTOFF, 0.0), np.nextafter(_G_SERIES_CUTOFF, 1.0)
        E = np.concatenate([[0.0, 5e-324, below, _G_SERIES_CUTOFF, above, 1.0, 1e300,
                             sys.float_info.max], np.geomspace(5e-324, 1e300, 1192)])
        assert isinstance(g(1.0), float) and isinstance(g(0.0), float)
        for shape in ((1,), (7, 3), (3, 400)):
            x = E[: math.prod(shape)].reshape(shape)
            assert g(x).shape == shape
            assert np.array_equal(g(x).ravel(), [g(float(v)) for v in x.ravel()])
        # the one-call bounds: kappa x + kappa - 1 stays finite below 1e300
        x = E[E <= 1e300]
        for kappa in (1.0, 1.2, 2.0, 9.9):
            assert np.array_equal(h(kappa, x), [h(kappa, float(v)) for v in x])
            assert np.array_equal(esq_bounds_tms(kappa, x).upper,
                                  [esq_bounds_tms(kappa, float(v)).upper for v in x])

    @given(E=positive_energies)
    def test_monotone(self, E):
        assert g(1.01 * E) > g(E)

    @given(E=positive_energies)
    def test_concave(self, E):
        # midpoint concavity on a fixed-ratio triple
        assert g(1.5 * E) >= 0.5 * (g(E) + g(2.0 * E)) - 1e-12


class TestGInverse:
    @given(E=st.floats(min_value=0.0, max_value=1e5))
    @settings(max_examples=200)
    def test_roundtrip(self, E):
        assert g_inverse(g(E)) == pytest.approx(E, rel=1e-9, abs=1e-9)

    def test_zero(self):
        assert g_inverse(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            g_inverse(-1.0)

    def test_large_entropy(self):
        s = 50.0
        assert g(g_inverse(s)) == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize("s", [702.0, 709.0, G_MAX])
    def test_entropy_near_overflow(self, s):
        # the root approaches the largest double; e^s overflows past s ~ 709.78
        assert g(g_inverse(s)) == pytest.approx(s, rel=1e-12)

    def test_entropy_beyond_largest_double(self):
        with pytest.raises(DomainError, match="largest double"):
            g_inverse(800.0)

    @pytest.mark.parametrize("s", [1e-9, 1e-12, 1e-15, 1e-100])
    def test_small_entropy_relative_accuracy(self, s):
        # the root x ~ s / ln(1/s) lies far below any fixed absolute tolerance
        x = g_inverse(s)
        assert x > 0.0
        assert g(x) == pytest.approx(s, rel=1e-12)

    def test_array_equals_scalar_calls_bitwise(self):
        s = np.concatenate([[0.0, 1e-300, G_MAX], np.geomspace(1e-290, G_MAX, 997)])
        x = g_inverse(s)
        assert isinstance(g_inverse(1.0), float)
        assert x.shape == s.shape
        assert np.array_equal(x, [g_inverse(float(v)) for v in s])
        assert g_inverse(s.reshape(2, 500)).shape == (2, 500)

    def test_array_roundtrip(self):
        s = np.geomspace(1e-200, G_MAX, 5001)
        np.testing.assert_allclose(g(g_inverse(s)), s, rtol=1e-12, atol=0.0)

    def test_documented_accuracy(self):
        # about 1e-15 relative on [1e-290, G_MAX]; an update of E through
        # t = ln E would lose up to 700 ulps of E to the rounding of t
        s = np.geomspace(1e-290, G_MAX, 20001)
        np.testing.assert_allclose(g(g_inverse(s)), s, rtol=2e-15, atol=0.0)

    def test_subnormal_roots_stay_finite_and_monotone(self):
        # below s ~ 3e-305 the root is subnormal, where g rounds coarsely and the
        # Newton steps stall; the iterates must still stay finite and in order
        s = np.geomspace(5e-324, 1e-290, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = g_inverse(s)
        assert np.isfinite(x).all() and (x >= 0.0).all()
        assert (np.diff(x) >= 0.0).all()


class TestPsi:
    def test_endpoint_eta_one(self):
        # psi(1) = g(kappa E + kappa - E - 1) - g(0)
        kappa, E = 2.0, 3.0
        assert psi(kappa, E, 1.0) == pytest.approx(g(kappa * E + kappa - E - 1.0))

    def test_kappa_one_vanishes(self):
        assert psi(1.0, 4.0, 0.3) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("kappa", [1.0, 1.2, 2.0, 3.7, 9.9, 83.9])
    def test_half_is_tms_upper_bound_bitwise(self, kappa):
        # psi(1/2) is Theorem 1's upper bound, on both sides of g's series cutoff
        E = np.concatenate([[0.0, np.nextafter(0.0, 1.0)],
                            np.geomspace(1e-300, 1e300, 601),
                            np.nextafter(2.0 * _G_SERIES_CUTOFF, [0.0, 1.0])])
        assert np.array_equal(psi(kappa, E, 0.5), esq_bounds_tms(kappa, E).upper)

    def test_exactly_zero_at_kappa_one(self):
        E = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 601)])
        for eta in (0.0, 0.3, 0.5, 1.0):
            assert (psi(1.0, E, eta) == 0.0).all()
        assert (gap_f(1.0, E) == 0.0).all()

    def test_second_derivative_nonnegative(self):
        for kappa in (1.0, 1.5, 3.0, 10.0):
            for E in (0.0, 0.5, 5.0):
                for eta in (0.0, 0.3, 0.9):
                    assert psi_second_derivative(kappa, E, eta) >= -1e-12

    def test_second_derivative_singular_at_one(self):
        with pytest.raises(SingularPointError):
            psi_second_derivative(2.0, 1.0, 1.0)

    def test_second_derivative_matches_finite_difference(self):
        kappa, E, eta, d = 2.5, 3.0, 0.4, 1e-4
        fd = (psi(kappa, E, eta + d) - 2.0 * psi(kappa, E, eta) + psi(kappa, E, eta - d)) / d**2
        assert psi_second_derivative(kappa, E, eta) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa, E, eta, named", [
        (2.0, 1e160, 0.3, "kappa = 2, E = 1e+160, eta = 0.3"),
        (10.0, 1e308, 0.5, "kappa = 10, E = 1e+308, eta = 0.5"),
        (2.0, np.array([1.0, 1e160]), 0.3, "kappa = 2, E = 1e+160, eta = 0.3"),
    ])
    def test_second_derivative_overflow_named(self, kappa, E, eta, named):
        # numerator and denominator both overflow, where their quotient was NaN
        text = "E (E + 1)(kappa - 1)((kappa + 1 - 2 eta) E + kappa) overflows at "
        with pytest.raises(DomainError) as err:
            psi_second_derivative(kappa, E, eta)
        assert str(err.value) == text + named

    def test_second_derivative_denominator_overflow_named(self):
        # the factor kappa - 1 keeps the numerator finite, about 2e299
        with pytest.raises(DomainError) as err:
            psi_second_derivative(1.0 + 1e-10, 1e103, 0.0)
        assert str(err.value) == ("(1 - eta)((kappa - eta) E + kappa - 1)((kappa - eta) E + kappa)"
                                  "((1 - eta) E + 1) overflows at kappa = 1, E = 1e+103, eta = 0")


class TestGap:
    def test_zero_at_kappa_one(self):
        assert gap_f(1.0, 5.0) == pytest.approx(0.0, abs=1e-14)

    def test_value_at_zero_energy(self):
        # f(kappa, 0) = g(kappa - 1) - ln(2 kappa - 1)
        assert gap_f(3.0, 0.0) == pytest.approx(g(2.0) - math.log(5.0), abs=1e-14)

    @given(kappa=gains, E=energies)
    @settings(max_examples=200)
    def test_bounded_by_ln_e_over_2(self, kappa, E):
        assert -1e-12 <= gap_f(kappa, E) <= 1.0 - math.log(2.0) + 1e-12


class TestH:
    def test_zero_at_kappa_one(self):
        assert h(1.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_value_at_origin(self):
        # h(0) = 2 g(kappa - 1)
        assert h(2.0, 0.0) == pytest.approx(2.0 * g(1.0), abs=1e-14)

    @given(kappa=st.floats(min_value=1.0, max_value=20.0), x=energies)
    @settings(max_examples=200)
    def test_nonnegative(self, kappa, x):
        assert h(kappa, x) >= -1e-12

    def test_kappa_minus_one_formed_first(self):
        kappa, x = 1.0 + 1.23e-12, 1.04e-12
        exact = (g(float(Fraction(kappa) * Fraction(x) + Fraction(kappa) - 1))
                 + g(float((Fraction(kappa) - 1) * (Fraction(x) + 1))) - g(x))
        assert h(kappa, x) == pytest.approx(exact, rel=1e-15, abs=0.0)


class TestOverflowNamed:
    """psi, gap_f and h refuse an argument that overflows by its formula, for a
    scalar and an array kappa, and leak no numpy warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa", [1e308, np.array([2.0, 1e308])], ids=["scalar", "array"])
    @pytest.mark.parametrize("compute, args, formula", [
        (psi, (1.0, 0.0), "(kappa - eta) E + kappa - 1 overflows at kappa = 1e+308, E = 1, eta = 0"),
        (gap_f, (0.0,), "2 kappa - 1 overflows at kappa = 1e+308"),
        (h, (1.0,), "kappa x + kappa - 1 overflows at kappa = 1e+308, x = 1"),
    ], ids=["psi", "gap_f", "h"])
    def test_overflow_named(self, kappa, compute, args, formula):
        with pytest.raises(DomainError) as err:
            compute(kappa, *args)
        assert str(err.value) == formula

    @pytest.mark.filterwarnings("error")
    def test_large_energy_overflow_named(self):
        with pytest.raises(DomainError, match=r"^\(kappa - eta\) E \+ kappa - 1 overflows at "
                                              r"kappa = 2, E = 1e\+308, eta = 0$"):
            psi(2.0, np.array([1.0, 1e308]), 0.0)
        with pytest.raises(DomainError, match=r"^kappa x \+ kappa - 1 overflows at kappa = 2, "
                                              r"x = 1e\+308$"):
            h(2.0, np.array([1.0, 1e308]))


class TestEpiForms:
    def test_cond_epi_rhs_at_zero(self):
        a, b = cond_epi_rhs(2.0, 0.0)
        assert a == pytest.approx(math.log(3.0))
        assert b == pytest.approx(math.log(3.0))

    def test_cond_epi_rhs_negative_entropy(self):
        a, b = cond_epi_rhs(2.0, -50.0)
        assert a == pytest.approx(math.log(1.0 + 2.0 * math.exp(-50.0)))
        assert b == pytest.approx(math.log(2.0 + math.exp(-50.0)))

    def test_cosh_identity(self):
        # ln(2k(k-1) cosh s + k^2 + (k-1)^2) = ln(k e^s + k - 1) + ln((k-1) e^s + k) - s
        for kappa in (1.0, 1.3, 4.0):
            for s in (-3.0, 0.0, 0.5, 10.0):
                a, b = cond_epi_rhs(kappa, s)
                assert cmi_cosh_lower(kappa, s) == pytest.approx(a + b - s, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa, s, named", [
        (1.4e154, 1.0, "kappa = 1.4e+154, s = 1"),  # kappa^2 overflows
        (2.0, 711.0, "kappa = 2, s = 711"),  # cosh s overflows
        (2.0, -711.0, "kappa = 2, s = -711"),
        (np.array([2.0, 1.4e154]), 1.0, "kappa = 1.4e+154, s = 1"),
    ])
    def test_cosh_overflow_named(self, kappa, s, named):
        text = "2 kappa (kappa - 1) cosh s + kappa^2 + (kappa - 1)^2 overflows at "
        with pytest.raises(DomainError) as err:
            cmi_cosh_lower(kappa, s)
        assert str(err.value) == text + named

    def test_cosh_minimum_at_zero(self):
        kappa = 3.0
        floor = 2.0 * math.log(2.0 * kappa - 1.0)
        assert cmi_cosh_lower(kappa, 0.0) == pytest.approx(floor)
        for s in (-2.0, -0.1, 0.1, 2.0):
            assert cmi_cosh_lower(kappa, s) > floor


class TestMoe:
    def test_amplifier_thermal_input(self):
        # the minimizer itself saturates the bound
        kappa, E = 2.0, 1.5
        assert moe_amplifier(kappa, g(E)) == pytest.approx(g(kappa * E + kappa - 1.0), rel=1e-10)

    def test_complement_thermal_input(self):
        kappa, E = 2.0, 1.5
        assert moe_complement(kappa, g(E)) == pytest.approx(
            g((kappa - 1.0) * (E + 1.0)), rel=1e-10
        )

    def test_vacuum_input(self):
        assert moe_amplifier(3.0, 0.0) == pytest.approx(g(2.0))
        assert moe_complement(3.0, 0.0) == pytest.approx(g(2.0))


class TestParameterMessages:
    @pytest.mark.parametrize("args, message", [
        ((np.array([2.0, 0.5]), 1.0, 0.5), "squeezing gain must be finite and >= 1, got [2.  0.5]"),
        ((2.0, np.array([-1.0]), 0.5), "mean energy must be finite and >= 0, got [-1.]"),
        ((2.0, 1.0, 1.5), "transmissivity must be in [0, 1], got 1.5"),
    ])
    def test_failed_check_names_argument(self, args, message):
        # messages are formatted only when a check fails
        with pytest.raises(DomainError) as err:
            psi(*args)
        assert str(err.value) == message


class TestChannelParam:
    def test_attenuator_range(self):
        with pytest.raises(DomainError):
            ChannelParam.attenuator(1.2)

    def test_amplifier_range(self):
        with pytest.raises(DomainError):
            ChannelParam.amplifier(0.9)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            ChannelParam("squeezer", 1.0)

    def test_valid(self):
        assert ChannelParam.attenuator(0.5).value == 0.5
        assert ChannelParam.amplifier(2.0).kind == "amplifier"

    @pytest.mark.parametrize("kind, name", [("attenuator", "attenuator transmissivity"),
                                            ("amplifier", "amplifier gain")])
    def test_array_refused_at_construction(self, kind, name):
        # by the constructor itself and by its classmethod
        for make in (lambda value: ChannelParam(kind, value), getattr(ChannelParam, kind)):
            with pytest.raises(DomainError, match=rf"^{name} must be one number, got an "
                                                  r"array of shape \(2,\)$"):
                make(np.array([1.0, 1.0]))

    def test_value_is_one_float(self):
        for value in (2, np.float64(2.0), np.array(2.0)):
            param = ChannelParam("amplifier", value).value
            assert type(param) is float and param == 2.0


class TestOutputEnergy:
    """ChannelParam.output_energy against the symplectic action of each channel's
    unitary on thermal(E) tensor vacuum: a mode's mean energy is its variance - 1/2."""

    @pytest.mark.parametrize("kind, value", [("attenuator", 0.0), ("attenuator", 0.3),
                                             ("attenuator", 1.0), ("amplifier", 1.0),
                                             ("amplifier", 2.5)])
    @pytest.mark.parametrize("E", [0.0, 0.7, 12.0])
    def test_matches_symplectic_output_means(self, kind, value, E):
        unitary = beam_splitter_symplectic if kind == "attenuator" else \
            two_mode_squeezer_symplectic
        cov = apply_symplectic(unitary(value), np.diag([E + 0.5, E + 0.5, 0.5, 0.5]))
        channel = ChannelParam(kind, value)
        # the output is mode 0, the complement mode 1
        for complement, variance in ((False, cov[0, 0]), (True, cov[2, 2])):
            energy = channel.output_energy(E, complement)
            assert energy == pytest.approx(variance - 0.5, rel=1e-12, abs=1e-12)
            assert channel.output_energy(np.array([E, E]), complement).tolist() == [energy] * 2

    @pytest.mark.parametrize("complement, formula", [(False, "kappa E + kappa - 1"),
                                                     (True, "(kappa - 1)(E + 1)")])
    def test_overflow_names_the_first_bad_entry(self, complement, formula):
        E = np.array([1.0, 1e308, 1.5e308])
        with pytest.raises(DomainError, match=rf"^{re.escape(formula)} overflows at "
                                              r"kappa = 3, E = 1e\+308$"):
            ChannelParam.amplifier(3.0).output_energy(E, complement)

    def test_kappa_minus_one_formed_first(self):
        # kappa E + (kappa - 1): kappa E + kappa - 1 lost kappa - 1 to rounding,
        # 7.3e-5 relative at this point
        kappa, E = 1.0 + 1e-12, 1e-13
        exact = float(Fraction(kappa) * Fraction(E) + Fraction(kappa) - 1)
        energy = ChannelParam.amplifier(kappa).output_energy(E)
        assert energy == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert g(energy) == pytest.approx(g(exact), rel=1e-15, abs=0.0)
