"""Unit tests for the bound computations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsquash.bounds import (
    BoundReport,
    _h_prime,
    channel_esq,
    classical_esq,
    esq_bounds_channel_state,
    esq_bounds_tms,
    find_E_kappa,
    secret_key_capacity,
    separation_check,
    tms_equivalent_params,
)
from cvsquash.entropics import ChannelParam, g, h
from cvsquash.errors import DomainError


class TestBoundReport:
    def test_ordering_enforced(self):
        with pytest.raises(AssertionError):
            BoundReport(lower=1.0, upper=0.5)

    def test_exact_outside_bounds_rejected(self):
        with pytest.raises(AssertionError):
            BoundReport(lower=0.0, upper=1.0, exact=2.0)

    def test_ordering_enforced_over_array(self):
        with pytest.raises(AssertionError):
            BoundReport(lower=1.0, upper=np.array([2.0, 0.5, 3.0]))


class TestTmsBounds:
    def test_trivial_at_kappa_one(self):
        report = esq_bounds_tms(1.0, 5.0)
        assert report.lower == 0.0
        assert report.upper == pytest.approx(0.0, abs=1e-14)

    def test_closed_forms(self):
        kappa, E = 2.0, 1.0
        report = esq_bounds_tms(kappa, E)
        assert report.lower == pytest.approx(math.log(3.0))
        assert report.upper == pytest.approx(g(2.5) - g(0.5), rel=1e-12)

    def test_pure_state_value(self):
        # at E = 0 the upper bound is the exact entanglement entropy g(kappa - 1)
        report = esq_bounds_tms(3.0, 0.0)
        assert report.upper == pytest.approx(g(2.0), rel=1e-12)
        assert report.exact == report.upper
        # a mixed state, or an energy sweep, has no exact value
        assert esq_bounds_tms(3.0, 5e-324).exact is None
        assert esq_bounds_tms(3.0, np.array([0.0, 1.0])).exact is None

    @given(
        kappa=st.floats(min_value=1.0, max_value=20.0),
        E=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_gap_within_ln_e_over_2(self, kappa, E):
        report = esq_bounds_tms(kappa, E)
        assert report.upper - report.lower <= 1.0 - math.log(2.0) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            esq_bounds_tms(0.5, 1.0)
        with pytest.raises(DomainError):
            esq_bounds_tms(2.0, -1.0)

    @pytest.mark.parametrize("kappa, E", [
        (math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf),
        (2.0, np.array([0.0, math.nan])),
    ])
    def test_non_finite_rejected(self, kappa, E):
        with pytest.raises(DomainError):
            esq_bounds_tms(kappa, E)
        with pytest.raises(DomainError):
            classical_esq(kappa, E)

    @pytest.mark.parametrize("kappa, E, named", [
        (1e308, 1.0, "kappa = 1e+308, E = 1"),
        (2.0, np.array([1.0, 1e308, 1.5e308]), "kappa = 2, E = 1.5e+308"),
    ])
    def test_overflow_names_kappa_and_energy(self, kappa, E, named):
        # finite inputs whose (kappa - 1/2) E + kappa - 1 overflows
        with pytest.raises(DomainError, match="overflows") as err:
            esq_bounds_tms(kappa, E)
        assert named in str(err.value)

    def test_lower_bound_overflow_named(self):
        # E = 0 keeps the upper bound's argument finite; 2 kappa - 1 still overflows
        with pytest.raises(DomainError, match="2 kappa - 1 overflows at kappa = 1e\\+308"):
            esq_bounds_tms(1e308, 0.0)


class TestEquivalentParams:
    def test_attenuator_map(self):
        eta, E = 0.5, 2.0
        kp, ep = tms_equivalent_params(ChannelParam.attenuator(eta), E)
        assert kp == pytest.approx((E + 1.0) / ((1.0 - eta) * E + 1.0))
        assert ep == pytest.approx((1.0 - eta) * E)

    def test_amplifier_map(self):
        kappa, E = 2.0, 1.0
        kp, ep = tms_equivalent_params(ChannelParam.amplifier(kappa), E)
        assert kp == pytest.approx(kappa * (E + 1.0) / ((kappa - 1.0) * E + kappa))
        assert ep == pytest.approx((kappa - 1.0) * (E + 1.0))

    def test_identity_channels_fixed_points(self):
        kp, ep = tms_equivalent_params(ChannelParam.attenuator(1.0), 3.0)
        assert (kp, ep) == (pytest.approx(4.0), pytest.approx(0.0))
        kp, ep = tms_equivalent_params(ChannelParam.amplifier(1.0), 3.0)
        assert (kp, ep) == (pytest.approx(4.0), pytest.approx(0.0))


class TestChannelStateBounds:
    def test_attenuator_closed_forms(self):
        eta, E = 0.6, 2.0
        report = esq_bounds_channel_state(ChannelParam.attenuator(eta), E)
        assert report.lower == pytest.approx(
            math.log(((1.0 + eta) * E + 1.0) / ((1.0 - eta) * E + 1.0))
        )
        assert report.upper == pytest.approx(
            g(0.5 * (1.0 + eta) * E) - g(0.5 * (1.0 - eta) * E), rel=1e-12
        )

    def test_amplifier_closed_forms(self):
        kappa, E = 2.0, 1.0
        report = esq_bounds_channel_state(ChannelParam.amplifier(kappa), E)
        assert report.lower == pytest.approx(
            math.log(((kappa + 1.0) * E + kappa) / ((kappa - 1.0) * E + kappa))
        )
        assert report.upper == pytest.approx(
            g(0.5 * ((kappa + 1.0) * E + kappa - 1.0)) - g(0.5 * (kappa - 1.0) * (E + 1.0)),
            rel=1e-12,
        )

    @pytest.mark.parametrize("channel, E, named", [
        (ChannelParam.amplifier(1e308), 1.0, "kappa overflows at kappa = 1e+308, E = 1"),
        (ChannelParam.amplifier(2.0), 1e308, "kappa overflows at kappa = 2, E = 1e+308"),
        (ChannelParam.attenuator(1.0), 1e308, "(1 + eta) E + 1 overflows at eta = 1, E = 1e+308"),
    ])
    def test_overflow_names_the_combination(self, channel, E, named):
        # finite inputs whose largest intermediate, (kappa + 1) E + kappa for the
        # amplifier or (1 + eta) E + 1 for the attenuator, overflows
        with pytest.raises(DomainError) as err:
            esq_bounds_channel_state(channel, E)
        assert named in str(err.value)

    @pytest.mark.parametrize("kappa, E", [(10.0, 1e308), (1e308, 10.0), (1e308, 1.0)])
    def test_map_overflow_names_the_combination(self, kappa, E):
        # the amplifier's E' = (kappa - 1)(E + 1) overflows, alone or in an array
        named = f"(kappa - 1)(E + 1) overflows at kappa = {kappa:g}, E = {E:g}"
        with pytest.raises(DomainError) as err:
            tms_equivalent_params(ChannelParam.amplifier(kappa), E)
        assert named in str(err.value)
        channel = ChannelParam("amplifier", np.array([2.0, kappa, 3.0]))
        with pytest.raises(DomainError) as err:
            tms_equivalent_params(channel, np.array([1.0, E, E]))
        assert named in str(err.value)

    def test_largest_finite_intermediates(self):
        # the same energies stay in range where (1 + eta) E + 1 and (kappa + 1) E + kappa do
        report = esq_bounds_channel_state(ChannelParam.attenuator(0.5), 1e308)
        assert report.lower == pytest.approx(math.log(3.0))
        report = esq_bounds_channel_state(ChannelParam.amplifier(1e308), 0.0)
        assert report.lower == report.upper == 0.0
        # and where (kappa - 1)(E + 1) does; the attenuator's map cannot overflow
        assert tms_equivalent_params(ChannelParam.attenuator(0.0), 1e308) == (1.0, 1e308)
        assert tms_equivalent_params(ChannelParam.amplifier(2.0), 1e308) == (2.0, 1e308)
        assert tms_equivalent_params(ChannelParam.amplifier(1e308), 0.0) == (1.0, 1e308)

    @pytest.mark.parametrize("kind", ["attenuator", "amplifier"])
    def test_matches_mapped_state_bounds(self, kind):
        # Corollary 1: the channel-state bounds are those of the equivalent
        # squeezed thermal-vacuum state; no draw here overflows
        rng = np.random.default_rng(27)
        params = rng.uniform(0.0, 1.0, 10_000) if kind == "attenuator" else \
            rng.uniform(1.0, 1e6, 10_000)
        energies = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 10_000))
        for value, E in zip(params.tolist(), energies.tolist()):
            channel = ChannelParam(kind, value)
            report = esq_bounds_channel_state(channel, E)
            kp, ep = tms_equivalent_params(channel, E)
            mapped = esq_bounds_tms(kp, ep)
            assert abs(report.lower - mapped.lower) <= 1e-12
            assert abs(report.upper - mapped.upper) <= 1e-12

    def test_mapped_gain_below_one_is_not_refused(self):
        # here kappa (E + 1) / ((kappa - 1) E + kappa) rounds to 1 - 2^-53, while
        # 1 + E / ((kappa - 1) E + kappa) cannot fall below 1
        channel, E = ChannelParam.amplifier(606834.2696127417), 1.0474033988414842e-16
        assert tms_equivalent_params(channel, E)[0] >= 1.0
        report = esq_bounds_channel_state(channel, E)
        # both bounds are about E / 2, under the rounding of g near 13.6
        assert report.lower == pytest.approx(0.0, abs=1e-14)
        assert report.upper == pytest.approx(0.0, abs=1e-14)

    def test_large_energy_approaches_channel_value(self):
        eta = 0.5
        report = esq_bounds_channel_state(ChannelParam.attenuator(eta), 1e6)
        target = math.log((1.0 + eta) / (1.0 - eta))
        assert report.lower == pytest.approx(target, abs=1e-4)
        assert report.upper == pytest.approx(target, abs=1e-4)


class TestChannelValues:
    def test_attenuator(self):
        assert channel_esq(ChannelParam.attenuator(0.5)) == pytest.approx(math.log(3.0))

    def test_amplifier(self):
        assert channel_esq(ChannelParam.amplifier(2.0)) == pytest.approx(math.log(3.0))

    def test_divergence(self):
        assert channel_esq(ChannelParam.attenuator(1.0)) == math.inf
        assert channel_esq(ChannelParam.amplifier(1.0)) == math.inf
        assert secret_key_capacity(ChannelParam.attenuator(1.0)) == math.inf

    def test_secret_key_comparison(self):
        for eta in (0.1, 0.5, 0.9):
            channel = ChannelParam.attenuator(eta)
            assert channel_esq(channel) > secret_key_capacity(channel)
        for kappa in (1.1, 2.0, 10.0):
            channel = ChannelParam.amplifier(kappa)
            assert channel_esq(channel) > secret_key_capacity(channel)

    def test_secret_key_values(self):
        assert secret_key_capacity(ChannelParam.attenuator(0.5)) == pytest.approx(math.log(2.0))
        assert secret_key_capacity(ChannelParam.amplifier(2.0)) == pytest.approx(math.log(2.0))


class TestClassical:
    def test_minimizer_kappa_two(self):
        # the unconstrained minimizer for gain 2 sits at x = 1/4
        assert find_E_kappa(2.0) == pytest.approx(0.25, abs=1e-6)

    def test_minimizer_kappa_two_exact(self):
        # at kappa = 2, h'(x) = 0 reduces to 4x(x + 2) = (2x + 1)^2
        assert find_E_kappa(2.0) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("kappa", [1.01, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0])
    def test_stationarity_sign_change(self, kappa):
        below, above = find_E_kappa(kappa) * (1.0 - 1e-12), find_E_kappa(kappa) * (1.0 + 1e-12)
        assert _h_prime(kappa, below) < 0.0 < _h_prime(kappa, above)

    def test_failed_bracket_is_domain_error(self):
        # kappa x overflows, so h' cannot be told from 0 at the bracket's right end
        with pytest.raises(DomainError):
            find_E_kappa(1.7e308)

    def test_kappa_one_degenerate(self):
        value, res = classical_esq(1.0, 5.0)
        assert value == 0.0
        assert res.E_kappa == 0.0
        with pytest.raises(DomainError):
            find_E_kappa(1.0)

    def test_clipped_region(self):
        kappa = 2.0
        value, res = classical_esq(kappa, 0.1)
        assert res.clipped
        assert res.argmin_x == 0.1
        assert value == pytest.approx(0.5 * h(kappa, 0.1), rel=1e-12)

    def test_unclipped_region(self):
        kappa = 2.0
        value, res = classical_esq(kappa, 5.0)
        assert not res.clipped
        assert res.argmin_x == pytest.approx(res.E_kappa)
        # constant in E above the unconstrained minimizer
        value2, _ = classical_esq(kappa, 50.0)
        assert value2 == pytest.approx(value, abs=1e-12)

    def test_agrees_with_dense_scan(self):
        kappa, E = 3.0, 2.0
        value, _ = classical_esq(kappa, E)
        xs = np.arange(0.0, E + 1e-4, 1e-4)
        assert value == pytest.approx(0.5 * float(np.min(h(kappa, xs))), abs=1e-8)

    def test_array_energies_elementwise(self):
        energies = np.array([0.0, 0.1, 0.2, 0.3, 2.0])
        value, res = classical_esq(2.0, energies)
        scalar = [classical_esq(2.0, E) for E in energies.tolist()]
        assert value.tolist() == [v for v, _ in scalar]
        assert res.clipped.tolist() == [r.clipped for _, r in scalar]
        assert res.argmin_x.tolist() == [r.argmin_x for _, r in scalar]

    def test_invariants(self):
        for kappa in (1.5, 2.0, 4.0):
            for E in (0.05, 0.5, 3.0):
                value, res = classical_esq(kappa, E)
                assert 0.0 <= res.argmin_x <= E
                assert res.clipped == (E < res.E_kappa)
                assert value == res.min_value


class TestSeparation:
    def test_strictly_positive(self):
        for kappa in (1.1, 2.0, 5.0):
            for E in (0.1, 1.0, 50.0):
                assert separation_check(kappa, E) > 0.0

    def test_zero_at_degenerate_edges(self):
        assert separation_check(1.0, 3.0) == pytest.approx(0.0, abs=1e-12)
        assert separation_check(2.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_exactly_zero_at_kappa_one(self):
        # (kappa - 1/2) E + (kappa - 1) is exactly E / 2 at kappa = 1, so the upper
        # bound g(E / 2) - g(E / 2) and the separation are 0, not a rounding off it
        E = np.concatenate(([0.1], np.linspace(0.0, 50.0, 10_001)))
        assert (esq_bounds_tms(1.0, E).upper == 0.0).all()
        assert (separation_check(1.0, E) == 0.0).all()
