"""The CSV reader for every input file: the price, dividend and quote
histories here, and the contract fixture through `read_rows`.

History files use ISO-8601 dates and may list rows in any order. Prices
and quotes are indexed by their position in date order, so holidays and
weekends are simply absent rows. Dividends are indexed by business days
(Monday to Friday) from the first dividend date, so a sparse file, such
as one row a quarter, keeps its spacing.

Every value is checked here, as it is read: each number must be finite
and meet its column's sign rule, and dates must be unique. The records
built from a file rely on those checks and do not repeat them.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass

import numpy as np

TRADING_DAYS_PER_YEAR = 252
DEFAULT_DT = 1.0 / TRADING_DAYS_PER_YEAR


class MarketDataError(ValueError):
    """Malformed or invariant-violating market data file."""


@dataclass(frozen=True)
class PriceSeries:
    """Dated sequence of strictly positive prices for one underlying."""

    symbol: str
    dates: tuple[_dt.date, ...]
    prices: tuple[float, ...]

    def __post_init__(self):
        if len(self.prices) < 2:
            raise MarketDataError(f"{self.symbol}: need at least 2 observations")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class DividendSeries:
    """Trailing annual dividend per share, indexed by business days from `origin`."""

    symbol: str
    origin: _dt.date
    indices: tuple[int, ...]
    dps: tuple[float, ...]

    def __post_init__(self):
        for a, b in zip(self.indices, self.indices[1:]):
            if a >= b:
                raise MarketDataError(f"{self.symbol}: indices not strictly increasing")

    def __len__(self) -> int:
        return len(self.dps)


@dataclass(frozen=True)
class QuoteSeries:
    """Historical forward/futures quotes with matching spot prices."""

    contract_id: str
    dates: tuple[_dt.date, ...]
    last: tuple[float, ...]
    ttd_years: tuple[float, ...]
    spot: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.last)


def read_rows(path, header: list[str]) -> list[tuple[int, list[str]]]:
    """The non-blank rows of a CSV with the given header, each with its file row number.

    Every row must have one cell per header column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise MarketDataError(f"{path}: empty file") from None
        if [h.strip() for h in first] != header:
            raise MarketDataError(
                f"{path}: expected header {','.join(header)}, got {','.join(first)}"
            )
        rows = []
        for i, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise MarketDataError(f"{path}: expected {len(header)} columns at row {i}")
            rows.append((i, row))
    if not rows:
        raise MarketDataError(f"{path}: no observations")
    return rows


# column -> (must be strictly positive, else non-negative; what a bad value is called)
_COLUMN_RULES = {
    "price": (True, "non-positive price"),
    "dps": (False, "negative dps"),
    "last": (True, "non-positive last price"),
    "ttd_years": (False, "negative time-to-delivery"),
    "spot": (True, "non-positive spot"),
}


def _read_dated(path, columns: tuple[str, ...]) -> tuple[tuple, ...]:
    """Read a `date,<columns>` CSV whose rows may appear in any order.

    Returns the dates in increasing order, then one tuple of finite values per column.
    """
    values = {}
    for i, row in read_rows(path, ["date", *columns]):
        try:
            date = _dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise MarketDataError(f"{path}: bad date {row[0]!r} at row {i}") from None
        if date in values:
            raise MarketDataError(f"{path}: duplicate date {date} at row {i}")
        parsed = []
        for col, cell in zip(columns, row[1:]):
            try:
                v = float(cell)
                if not math.isfinite(v):
                    raise ValueError
            except ValueError:
                raise MarketDataError(f"{path}: bad {col} {cell!r} at row {i}") from None
            positive, what = _COLUMN_RULES[col]
            if v <= 0 if positive else v < 0:
                raise MarketDataError(f"{path}: {what} {v} at row {i}")
            parsed.append(v)
        values[date] = parsed
    dates = sorted(values)
    return (tuple(dates), *zip(*(values[d] for d in dates)))


def load_price_series(path, symbol: str) -> PriceSeries:
    """Load a `date,price` CSV; rows may appear in any order."""
    dates, prices = _read_dated(path, ("price",))
    return PriceSeries(symbol=symbol, dates=dates, prices=prices)


def load_dividends(path, symbol: str) -> DividendSeries:
    """Load a `date,dps` CSV; each index counts business days from the first date.

    A weekend date counts as the business day after it, so it may not share
    a file with that day.
    """
    dates, dps = _read_dated(path, ("dps",))
    indices = tuple(np.busday_count(dates[0], dates).tolist())
    return DividendSeries(symbol=symbol, origin=dates[0], indices=indices, dps=dps)


def load_quotes(path, contract_id: str) -> QuoteSeries:
    """Load a `date,last,ttd_years,spot` CSV of derivative quotes."""
    dates, last, ttd_years, spot = _read_dated(path, ("last", "ttd_years", "spot"))
    return QuoteSeries(
        contract_id=contract_id, dates=dates, last=last, ttd_years=ttd_years, spot=spot
    )
