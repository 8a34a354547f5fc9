import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganmc.options import (
    OptionContract,
    PricingError,
    discount_factor,
    payoff_index,
    price_option,
)

from conftest import empirical_variance, priced

DT = 1 / 252


def tracks_with_terminals(values, T=4, k=None):
    """Tracks whose day-k value (1-based, default last) is prescribed."""
    k = T if k is None else k
    mat = np.full((len(values), T), 1.0)
    mat[:, k - 1] = values
    return mat


class TestPayoffIndex:
    def test_half_year_daily(self):
        assert payoff_index(126 / 252, DT, 200) == 126

    def test_non_integral_rejected(self):
        with pytest.raises(PricingError, match="not an integral"):
            payoff_index(100.4 / 252, DT, 200)

    def test_beyond_horizon(self):
        with pytest.raises(PricingError, match="horizon exceeds"):
            payoff_index(300 / 252, DT, 200)


class TestEuropeanCall:
    def test_single_track_unit_payoff_r0(self):
        tracks = tracks_with_terminals([101.0])
        price = priced("call", "european", tracks, 100.0, 0.0, 4 * DT, DT)
        assert price.value == pytest.approx(1.0)
        assert price.lower == price.upper == price.value

    def test_all_below_strike_zero(self):
        tracks = tracks_with_terminals([90.0, 99.9, 100.0])
        assert priced("call", "european", tracks, 100.0, 0.0, 4 * DT, DT).value == 0.0

    def test_discounted_mean_of_two_payoffs(self):
        # payoffs 0 and 10, r=0.05, T0=126 days
        tracks = tracks_with_terminals([100.0, 110.0], T=130, k=126)
        price = priced("call", "european", tracks, 100.0, 0.05, 126 / 252, DT)
        expected = 5.0 * (1 + 0.05 / 252) ** (-126)
        assert price.value == pytest.approx(expected, rel=1e-12)


class TestEuropeanPut:
    def test_single_track(self):
        tracks = tracks_with_terminals([98.0])
        assert priced("put", "european", tracks, 100.0, 0.0, 4 * DT, DT).value == pytest.approx(2.0)

    def test_all_above_strike_zero(self):
        tracks = tracks_with_terminals([101.0, 150.0])
        assert priced("put", "european", tracks, 100.0, 0.0, 4 * DT, DT).value == 0.0

    def test_mean_of_mixed_payoffs_r0(self):
        tracks = tracks_with_terminals([97.0, 101.0, 102.0])
        assert priced("put", "european", tracks, 100.0, 0.0, 4 * DT, DT).value == pytest.approx(1.0)


class TestAmerican:
    def test_r0_bounds_coincide(self):
        tracks = tracks_with_terminals([105.0, 95.0])
        price = priced("call", "american", tracks, 100.0, 0.0, 4 * DT, DT)
        assert price.lower == price.value == price.upper

    def test_midpoint_formula(self):
        tracks = tracks_with_terminals([110.0] * 3, T=130, k=126)
        price = priced("call", "american", tracks, 100.0, 0.05, 0.5, DT)
        m = 10.0
        expected = m * (1 + (1 + 0.05 / 252) ** (-126)) / 2
        assert price.value == pytest.approx(expected, rel=1e-12)
        assert price.lower <= price.value <= price.upper

    def test_all_zero_payoffs(self):
        tracks = tracks_with_terminals([90.0, 80.0])
        price = priced("call", "american", tracks, 100.0, 0.05, 4 * DT, DT)
        assert price.value == price.lower == price.upper == 0.0

    @pytest.mark.parametrize("side, terminal", [("call", 110.0), ("put", 90.0)])
    def test_negative_rate_discounted_mean_is_upper_bound(self, side, terminal):
        tracks = tracks_with_terminals([terminal] * 3, T=130, k=126)
        price = priced(side, "american", tracks, 100.0, -0.01, 0.5, DT)
        discounted = 10.0 * discount_factor(-0.01, 0.5, DT)
        assert discounted > 10.0
        assert (price.lower, price.upper) == (10.0, discounted)
        assert price.value == 0.5 * (discounted + 10.0)


class TestInvariants:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_call_decreasing_put_increasing_in_strike(self, seed):
        rng = np.random.default_rng(seed)
        tracks = tracks_with_terminals(rng.uniform(50, 150, 20))
        strikes = np.sort(rng.uniform(60, 140, 5))
        calls = [priced("call", "european", tracks, x, 0.02, 4 * DT, DT).value for x in strikes]
        puts = [priced("put", "european", tracks, x, 0.02, 4 * DT, DT).value for x in strikes]
        assert all(a >= b - 1e-12 for a, b in zip(calls, calls[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(puts, puts[1:]))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_put_call_identity_at_r0(self, seed):
        rng = np.random.default_rng(seed)
        terminals = rng.uniform(50, 150, 30)
        tracks = tracks_with_terminals(terminals)
        strike = float(rng.uniform(60, 140))
        call = priced("call", "european", tracks, strike, 0.0, 4 * DT, DT).value
        put = priced("put", "european", tracks, strike, 0.0, 4 * DT, DT).value
        assert call - put == pytest.approx(terminals.mean() - strike, rel=1e-10, abs=1e-10)

    def test_discount_factor_scaling(self):
        tracks = tracks_with_terminals([120.0, 80.0, 105.0])
        base = priced("call", "european", tracks, 100.0, 0.0, 4 * DT, DT).value
        discounted = priced("call", "european", tracks, 100.0, 0.07, 4 * DT, DT).value
        assert discounted == pytest.approx(base * discount_factor(0.07, 4 * DT, DT), rel=1e-12)


class TestContractValidation:
    def test_bad_side(self):
        with pytest.raises(PricingError):
            OptionContract(side="straddle", style="european", strike=100.0, t0_years=0.5)

    def test_nonpositive_strike(self):
        with pytest.raises(PricingError):
            OptionContract(side="call", style="european", strike=0.0, t0_years=0.5)

    def test_price_option_dispatch(self):
        tracks = tracks_with_terminals([110.0])
        contract = OptionContract(side="call", style="american", strike=100.0, t0_years=4 * DT)
        price = price_option(contract, tracks, 0.05, DT)
        assert price.lower < price.upper


class TestEmpiricalVariance:
    def test_constant_generator_zero_variance(self):
        def sampler(n2, seed):
            return np.full((n2, 4), 100.0)

        def pricer(tracks):
            return priced("call", "european", tracks, 90.0, 0.0, 4 * DT, DT).value

        table = empirical_variance(sampler, pricer, np.full(4, 100.0), 0.8, 5, [8, 16])
        assert all(v == 0.0 for _, v in table)

    def test_repetitions_validated(self):
        with pytest.raises(PricingError, match="repetitions"):
            empirical_variance(lambda n, s: np.ones((n, 2)), lambda t: 0.0, np.ones(2), 0.8, 1, [8])

    def test_lognormal_stub_variance_non_increasing(self):
        # iid lognormal tracks: variance at N2=256 must not exceed
        # 1.1x the variance at N2=64 over 200 seeded repetitions
        reference = np.full(8, 100.0)

        def sampler(n2, seed):
            rng = np.random.default_rng(seed)
            return 100.0 * np.exp(0.1 * rng.standard_normal((n2, 8)))

        def pricer(tracks):
            return priced("call", "european", tracks, 100.0, 0.05, 8 / 252, 1 / 252).value

        table = dict(empirical_variance(sampler, pricer, reference, 0.8, 200, [64, 256]))
        assert table[256] <= 1.1 * table[64]
