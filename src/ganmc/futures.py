"""Equity futures and commodity forward/futures pricing.

Equity futures combine the spot price with a dividend-yield estimate
over the generated tracks; commodity contracts add an empirically
estimated cost of carry to the mean generated terminal price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market_data import DividendSeries, QuoteSeries
from .options import PricingError, terminal_values


@dataclass(frozen=True)
class DividendFit:
    """OLS line through (business-day ordinal, annual dividend per share)."""

    slope: float
    intercept: float

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise PricingError("dividend fit is not finite")


@dataclass(frozen=True)
class CarryEstimate:
    """Average cost of carry; may be negative under backwardation."""

    value: float
    window: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise PricingError("carry estimate is not finite")


def fit_dividends(ds: DividendSeries) -> DividendFit:
    """Least-squares line D(t) = slope*t + intercept over the dividend history.

    A single point has no spread in t and falls back to a flat line at
    its dividend.
    """
    t = np.asarray(ds.indices, dtype=float)
    d = np.asarray(ds.dps, dtype=float)
    t_bar = t.mean()
    sxx = float(((t - t_bar) ** 2).sum())
    if sxx == 0.0:
        return DividendFit(slope=0.0, intercept=float(d.mean()))
    slope = float(((t - t_bar) * (d - d.mean())).sum() / sxx)
    intercept = float(d.mean() - slope * t_bar)
    return DividendFit(slope=slope, intercept=intercept)


def predict_dividend(fit: DividendFit, t_star: float) -> float:
    """Extrapolated annual dividend per share, clamped at zero."""
    return max(fit.slope * t_star + fit.intercept, 0.0)


def price_equity_futures(
    spot: float,
    tracks,
    dividend_forecast: float,
    r: float,
    t0_years: float,
    dt: float,
) -> float:
    """spot * exp{(r - mean dividend yield over tracks) * T0}."""
    terminal = terminal_values(tracks, t0_years, dt)
    if not (spot > 0):
        raise PricingError(f"spot must be positive, got {spot}")
    if np.any(terminal <= 0):
        raise PricingError("non-positive generated price at the delivery index")
    mean_yield = float((dividend_forecast / terminal).mean())
    return float(spot * math.exp((r - mean_yield) * t0_years))


def estimate_carry(quotes: QuoteSeries, r: float, t0_years: float, n3: int) -> CarryEstimate:
    """Mean of F/exp(r*T0) - spot over the latest n3+1 quote rows."""
    if n3 < 0:
        raise PricingError(f"N3 must be >= 0, got {n3}")
    if len(quotes) < n3 + 1:
        raise PricingError(f"insufficient history: need {n3 + 1} quotes, have {len(quotes)}")
    last = np.asarray(quotes.last[-(n3 + 1) :], dtype=float)
    spot = np.asarray(quotes.spot[-(n3 + 1) :], dtype=float)
    value = float((last / math.exp(r * t0_years) - spot).mean())
    return CarryEstimate(value=value, window=n3 + 1)


def price_commodity(
    tracks,
    carry: CarryEstimate,
    r: float,
    t0_years: float,
    dt: float,
) -> float:
    """Mean generated delivery-date price plus the compounded carry."""
    terminal = terminal_values(tracks, t0_years, dt)
    return float(terminal.mean() + carry.value * math.exp(r * t0_years))
