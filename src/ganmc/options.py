"""Monte Carlo option pricing over similarity-filtered generated tracks.

European prices discount the mean terminal payoff with the discrete
factor (1 + r*dt)^(-T0/dt); American prices are the midpoint of the
discounted and undiscounted payoff means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PricingError(ValueError):
    pass


@dataclass(frozen=True)
class OptionContract:
    side: str  # "call" | "put"
    style: str  # "european" | "american"
    strike: float
    t0_years: float

    def __post_init__(self):
        if self.side not in ("call", "put"):
            raise PricingError(f"side must be call or put, got {self.side!r}")
        if self.style not in ("european", "american"):
            raise PricingError(f"style must be european or american, got {self.style!r}")
        if not (self.strike > 0):
            raise PricingError(f"strike must be positive, got {self.strike}")
        if not (self.t0_years > 0):
            raise PricingError(f"time to expiry must be positive, got {self.t0_years}")


@dataclass(frozen=True)
class OptionPrice:
    value: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.value <= self.upper):
            raise PricingError("price bounds out of order")
        if self.value < 0:
            raise PricingError("negative option price")


def payoff_index(t0_years: float, dt: float, horizon: int) -> int:
    """1-based day index T0/dt into a track; must be integral and within T."""
    raw = t0_years / dt
    k = round(raw)
    if abs(raw - k) > 1e-9:
        raise PricingError(f"T0/dt = {raw} is not an integral track index")
    if k < 1:
        raise PricingError(f"payoff index {k} < 1")
    if k > horizon:
        raise PricingError(f"horizon exceeds generator window: index {k} > T={horizon}")
    return int(k)


def discount_factor(r: float, t0_years: float, dt: float) -> float:
    return float((1.0 + r * dt) ** (-t0_years / dt))


def terminal_values(tracks, t0_years: float, dt: float) -> np.ndarray:
    """Every track's price on the payoff day T0/dt, the one lookup all pricers share."""
    mat = np.asarray(tracks, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise PricingError("need at least one track")
    k = payoff_index(t0_years, dt, mat.shape[1])
    return mat[:, k - 1]


def price_terminals(
    side: str, style: str, terminal: np.ndarray, strike: float, r: float, t0_years: float, dt: float
) -> OptionPrice:
    """Discounted mean payoff; for American style, the midpoint of the
    discounted and undiscounted payoff means, with the smaller mean as
    ``lower`` and the larger as ``upper``. The two means do not bound the
    American value: ``upper`` can lie below it."""
    if side == "call":
        mean_payoff = float(np.maximum(terminal - strike, 0.0).mean())
    elif side == "put":
        mean_payoff = float(np.maximum(strike - terminal, 0.0).mean())
    else:
        raise PricingError(f"side must be call or put, got {side!r}")
    discounted = discount_factor(r, t0_years, dt) * mean_payoff
    if style == "european":
        return OptionPrice(value=discounted, lower=discounted, upper=discounted)
    if style == "american":
        value = 0.5 * (discounted + mean_payoff)
        lower, upper = sorted((discounted, mean_payoff))
        return OptionPrice(value=value, lower=lower, upper=upper)
    raise PricingError(f"style must be european or american, got {style!r}")


def price_option(contract: OptionContract, tracks, r: float, dt: float) -> OptionPrice:
    terminal = terminal_values(tracks, contract.t0_years, dt)
    return price_terminals(
        contract.side, contract.style, terminal, contract.strike, r, contract.t0_years, dt
    )
