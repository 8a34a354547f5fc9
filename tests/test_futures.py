import math

import numpy as np
import pytest

from ganmc.futures import (
    CarryEstimate,
    estimate_carry,
    fit_dividends,
    predict_dividend,
    price_commodity,
    price_equity_futures,
)
from ganmc.market_data import DividendSeries, QuoteSeries
from ganmc.options import PricingError

from conftest import iso_dates

DT = 1 / 252


def make_dividends(dps, indices=None):
    indices = indices if indices is not None else tuple(range(len(dps)))
    origin = iso_dates(1)[0]
    return DividendSeries(symbol="SYM", origin=origin, indices=tuple(indices), dps=tuple(dps))


def make_quotes(last, spot, ttd=0.25):
    n = len(last)
    return QuoteSeries(
        contract_id="FUT",
        dates=tuple(iso_dates(n)),
        last=tuple(last),
        ttd_years=(ttd,) * n,
        spot=tuple(spot),
    )


def terminal_tracks(values, T=8, k=None):
    k = T if k is None else k
    mat = np.full((len(values), T), 1.0)
    mat[:, k - 1] = values
    return mat


class TestFitDividends:
    def test_exact_linear_data(self):
        t = list(range(1, 11))
        fit = fit_dividends(make_dividends([2 * ti + 3 for ti in t], t))
        assert fit.slope == pytest.approx(2.0, rel=1e-12)
        assert fit.intercept == pytest.approx(3.0, rel=1e-12)

    def test_constant_dividend(self):
        fit = fit_dividends(make_dividends([5.0] * 6))
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(5.0)

    def test_noisy_fit_matches_normal_equations(self, rng):
        t = np.arange(100)
        d = np.clip(0.1 * t + 1.0 + rng.normal(0, 0.01, 100), 0.0, None)
        fit = fit_dividends(make_dividends(d.tolist(), t.tolist()))
        design = np.column_stack([np.ones(100), t])
        beta = np.linalg.solve(design.T @ design, design.T @ d)
        assert fit.intercept == pytest.approx(beta[0], rel=1e-9)
        assert fit.slope == pytest.approx(beta[1], rel=1e-9)
        se = 0.01 / math.sqrt(((t - t.mean()) ** 2).sum())
        assert abs(fit.slope - 0.1) < 3 * se


class TestPredictDividend:
    def test_affine_prediction(self):
        from ganmc.futures import DividendFit

        assert predict_dividend(DividendFit(2.0, 3.0), 5.0) == 13.0

    def test_negative_clamped(self):
        from ganmc.futures import DividendFit

        assert predict_dividend(DividendFit(-1.0, 2.0), 10.0) == 0.0

    def test_zero_fit(self):
        from ganmc.futures import DividendFit

        assert predict_dividend(DividendFit(0.0, 0.0), 100.0) == 0.0


class TestPriceEquityFutures:
    def test_zero_dividend_carry(self):
        tracks = terminal_tracks([100.0, 120.0], T=126, k=126)
        price = price_equity_futures(100.0, tracks, 0.0, 0.05, 0.5, 1 / 252)
        assert price == pytest.approx(100.0 * math.exp(0.05 * 0.5), rel=1e-12)

    def test_yield_equal_to_rate_gives_spot(self):
        tracks = terminal_tracks([100.0], T=8)
        # forecast/terminal = 5/100 = r
        price = price_equity_futures(100.0, tracks, 5.0, 0.05, 8 / 252, DT)
        assert price == pytest.approx(100.0)

    def test_two_track_hand_value(self):
        tracks = terminal_tracks([100.0, 200.0], T=126, k=126)
        price = price_equity_futures(100.0, tracks, 2.0, 0.05, 0.5, DT)
        exponent = (0.05 - np.mean([2 / 100, 2 / 200])) * 0.5
        assert price == pytest.approx(100.0 * math.exp(exponent), rel=1e-12)

    def test_monotone_in_spot_and_yield(self):
        tracks = terminal_tracks([100.0, 110.0], T=8)
        lo = price_equity_futures(90.0, tracks, 1.0, 0.05, 8 / 252, DT)
        hi = price_equity_futures(110.0, tracks, 1.0, 0.05, 8 / 252, DT)
        assert lo < hi
        small_div = price_equity_futures(100.0, tracks, 0.5, 0.05, 8 / 252, DT)
        big_div = price_equity_futures(100.0, tracks, 5.0, 0.05, 8 / 252, DT)
        assert big_div < small_div


class TestEstimateCarry:
    def test_zero_rate_equal_prices(self):
        quotes = make_quotes([100.0, 101.0], [100.0, 101.0])
        assert estimate_carry(quotes, 0.0, 0.25, 1).value == pytest.approx(0.0)

    def test_constant_premium(self):
        quotes = make_quotes([105.0, 106.0, 107.0], [100.0, 101.0, 102.0])
        assert estimate_carry(quotes, 0.0, 0.25, 2).value == pytest.approx(5.0)

    def test_single_row_hand_value(self):
        quotes = make_quotes([102.0], [100.0])
        carry = estimate_carry(quotes, 0.05, 0.25, 0)
        assert carry.value == pytest.approx(102.0 * math.exp(-0.0125) - 100.0, rel=1e-12)

    def test_negative_carry_allowed(self):
        quotes = make_quotes([95.0], [100.0])
        assert estimate_carry(quotes, 0.0, 0.25, 0).value == pytest.approx(-5.0)

    def test_insufficient_history(self):
        quotes = make_quotes([100.0, 101.0], [99.0, 100.0])
        with pytest.raises(PricingError, match="insufficient history"):
            estimate_carry(quotes, 0.0, 0.25, 5)


class TestPriceCommodity:
    def test_zero_carry_mean_terminal(self):
        tracks = terminal_tracks([50.0, 50.0], T=8)
        price = price_commodity(tracks, CarryEstimate(0.0, 1), 0.05, 8 / 252, DT)
        assert price == pytest.approx(50.0)

    def test_r0_additive_carry(self):
        tracks = terminal_tracks([50.0], T=8)
        price = price_commodity(tracks, CarryEstimate(5.0, 1), 0.0, 8 / 252, DT)
        assert price == pytest.approx(55.0)

    def test_compounded_carry_hand_value(self):
        tracks = terminal_tracks([80.0], T=63, k=63)
        price = price_commodity(tracks, CarryEstimate(3.0, 1), 0.05, 0.25, DT)
        assert price == pytest.approx(80.0 + 3.0 * math.exp(0.0125), rel=1e-12)

    def test_linear_in_carry_with_slope_exp_rt(self):
        tracks = terminal_tracks([80.0, 90.0], T=63, k=63)
        prices = [
            price_commodity(tracks, CarryEstimate(c, 1), 0.05, 0.25, DT) for c in (0.0, 1.0, 2.0)
        ]
        slope = prices[1] - prices[0]
        assert slope == pytest.approx(math.exp(0.05 * 0.25), rel=1e-12)
        assert prices[2] - prices[1] == pytest.approx(slope, rel=1e-12)

