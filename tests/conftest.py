import csv
import datetime as dt

import numpy as np
import pytest

from ganmc.options import OptionContract, PricingError, price_option
from ganmc.similarity import rank_and_select


def iso_dates(n, start=dt.date(2021, 1, 4)):
    """n weekday dates starting at `start`."""
    out = []
    day = start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def write_price_csv(path, prices, dates=None):
    dates = dates or iso_dates(len(prices))
    lines = ["date,price"] + [f"{d.isoformat()},{p}" for d, p in zip(dates, prices)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_price_series(path, series):
    """Inverse of load_price_series (round-trip exact for repr-exact floats)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "price"])
        for d, p in zip(series.dates, series.prices):
            writer.writerow([d.isoformat(), repr(p)])


def write_dividend_csv(path, dps, dates=None):
    dates = dates or iso_dates(len(dps))
    lines = ["date,dps"] + [f"{d.isoformat()},{v}" for d, v in zip(dates, dps)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_quote_csv(path, rows, dates=None):
    dates = dates or iso_dates(len(rows))
    lines = ["date,last,ttd_years,spot"] + [
        f"{d.isoformat()},{last},{ttd},{spot}" for d, (last, ttd, spot) in zip(dates, rows)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def gbm_prices(n, mu=0.05, sigma=0.2, s0=100.0, dt_years=1 / 252, seed=0):
    rng = np.random.default_rng(seed)
    increments = (mu - 0.5 * sigma**2) * dt_years + sigma * np.sqrt(dt_years) * (
        rng.standard_normal(n - 1)
    )
    return s0 * np.exp(np.concatenate([[0.0], np.cumsum(increments)]))


def priced(side, style, tracks, strike, r, t0_years, dt):
    """`price_option` on a contract built from the arguments."""
    contract = OptionContract(side=side, style=style, strike=strike, t0_years=t0_years)
    return price_option(contract, tracks, r, dt)


def empirical_variance(sample_tracks, price_fn, reference, alpha, repetitions, n2_values, seed=0):
    """Sample variance of the full sample->filter->price pipeline.

    For each N2, the pipeline runs `repetitions` times with distinct
    seeds derived from `seed`; the table pairs each N2 with the sample
    variance of the resulting prices.
    """
    if repetitions < 2:
        raise PricingError(f"need at least 2 repetitions, got {repetitions}")
    table = []
    for n2 in n2_values:
        prices = np.empty(repetitions)
        for rep in range(repetitions):
            tracks = sample_tracks(n2, seed + rep)
            ranking = rank_and_select(tracks, reference, alpha)
            prices[rep] = price_fn(tracks[ranking.selected])
        table.append((int(n2), float(prices.var(ddof=1))))
    return table


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
