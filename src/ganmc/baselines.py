"""Reference pricers: Black-Scholes, GBM Monte Carlo, linear regression.

The GBM simulator draws each terminal price in one exact lognormal step
over the whole horizon tau, so it is positive and has GBM's law at tau
for any tau. The Monte Carlo option baseline anchors the drift to the
strike (log(X/s)/tau) by default; `risk_neutral=True` switches to the
risk-neutral drift r. dt only sets the discrete discount.

The linear baseline is a fit plus one regime predicate: `in_regime` says
whether an option lies in the `all`, `itm` or `otm` regime,
`fit_linear_pricer` returns the OLS coefficients over the rows in one
regime, and `lr_price` is the affine price of those coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .market_data import DEFAULT_DT
from .options import PricingError, price_terminals


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erf; absolute error well below 1e-9."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_price(side: str, spot: float, strike: float, r: float, sigma: float, tau: float) -> float:
    """Closed-form European option value."""
    for name, v in (("spot", spot), ("strike", strike), ("sigma", sigma), ("tau", tau)):
        if not (v > 0):
            raise PricingError(f"{name} must be positive, got {v}")
    st = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma * sigma) * tau) / st
    d2 = d1 - st
    if side == "call":
        return spot * norm_cdf(d1) - strike * math.exp(-r * tau) * norm_cdf(d2)
    return strike * math.exp(-r * tau) * norm_cdf(-d2) - spot * norm_cdf(-d1)


def simulate_gbm_terminals(
    spot: float, mu: float, sigma: float, tau: float, n_paths: int, seed: int
) -> np.ndarray:
    """GBM prices at tau, one exact lognormal draw per path:
    spot * exp((mu - sigma^2/2) * tau + sigma * sqrt(tau) * z)."""
    z = np.random.default_rng(seed).standard_normal(n_paths)
    return spot * np.exp((mu - 0.5 * sigma * sigma) * tau + sigma * math.sqrt(tau) * z)


def gbm_mc_option(
    side: str,
    spot: float,
    strike: float,
    r: float,
    sigma: float,
    tau: float,
    n_paths: int,
    seed: int,
    dt: float = DEFAULT_DT,
    style: str = "european",
    risk_neutral: bool = False,
) -> float:
    """GBM Monte Carlo option price with strike-anchored drift by default."""
    # the simulator subtracts sigma^2/2 itself, so the risk-neutral
    # price drift is plain r
    mu = r if risk_neutral else math.log(strike / spot) / tau
    terminal = simulate_gbm_terminals(spot, mu, sigma, tau, n_paths, seed)
    return price_terminals(side, style, terminal, strike, r, tau, dt).value


def in_regime(moneyness: float, side: str, regime: str) -> bool:
    """Whether an option of moneyness s/X lies in the regime: `all`, `itm`
    (a call above s/X = 1, a put below it) or `otm` (every other option)."""
    if regime not in ("all", "itm", "otm"):
        raise PricingError(f"unknown regime {regime!r}")
    itm = moneyness > 1.0 if side == "call" else moneyness < 1.0
    return regime == "all" or itm == (regime == "itm")


def fit_linear_pricer(rows, regime: str) -> np.ndarray:
    """OLS coefficients (intercept, s/X, tau) of observed option prices.

    Rows are (spot, strike, tau, side, price); the fit keeps the rows
    `in_regime`.
    """
    features, targets = [], []
    for spot, strike, tau, side, price in rows:
        if in_regime(spot / strike, side, regime):
            features.append([1.0, spot / strike, tau])
            targets.append(price)
    if not features:
        raise PricingError(f"no rows left in regime {regime!r}")
    design = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if design.shape[0] < design.shape[1]:
        raise PricingError(
            f"underdetermined fit: {design.shape[0]} rows for {design.shape[1]} coefficients"
        )
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise PricingError("rank-deficient design matrix")
    coefficients, *_ = np.linalg.lstsq(design, y, rcond=None)
    if not np.all(np.isfinite(coefficients)):
        raise PricingError("non-finite regression coefficients")
    return coefficients


def lr_price(coefficients: np.ndarray, spot: float, strike: float, tau: float) -> float:
    """The affine price of fitted coefficients at (s/X, tau)."""
    return float(np.array([1.0, spot / strike, tau]) @ coefficients)
