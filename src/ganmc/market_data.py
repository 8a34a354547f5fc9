"""CSV loaders for price, dividend and derivative-quote histories.

Files use ISO-8601 dates; after loading, observations are indexed by
trading-day ordinal (0-based position in date order). Holidays and
weekends are simply absent rows.
"""

from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass

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
        if len(self.dates) != len(self.prices):
            raise MarketDataError("dates and prices length mismatch")
        if len(self.prices) < 2:
            raise MarketDataError(f"{self.symbol}: need at least 2 observations")
        for i, p in enumerate(self.prices):
            if not (p > 0):
                raise MarketDataError(f"{self.symbol}: non-positive price {p} at row {i}")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise MarketDataError(f"{self.symbol}: dates not strictly increasing at {b}")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class DividendSeries:
    """Trailing annual dividend per share, indexed by trading-day ordinal."""

    symbol: str
    indices: tuple[int, ...]
    dps: tuple[float, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.dps):
            raise MarketDataError("indices and dps length mismatch")
        if not self.indices:
            raise MarketDataError(f"{self.symbol}: no observations")
        for a, b in zip(self.indices, self.indices[1:]):
            if a >= b:
                raise MarketDataError(f"{self.symbol}: indices not strictly increasing")
        for i, d in enumerate(self.dps):
            if d < 0:
                raise MarketDataError(f"{self.symbol}: negative dividend {d} at row {i}")

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

    def __post_init__(self):
        n = len(self.dates)
        if not (len(self.last) == len(self.ttd_years) == len(self.spot) == n):
            raise MarketDataError("quote column length mismatch")
        if n == 0:
            raise MarketDataError(f"{self.contract_id}: no observations")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise MarketDataError(f"{self.contract_id}: dates not strictly increasing")
        for i in range(n):
            if not (self.last[i] > 0):
                raise MarketDataError(f"{self.contract_id}: non-positive last price at row {i}")
            if self.ttd_years[i] < 0:
                raise MarketDataError(f"{self.contract_id}: negative time-to-delivery at row {i}")
            if not (self.spot[i] > 0):
                raise MarketDataError(f"{self.contract_id}: non-positive spot at row {i}")

    def __len__(self) -> int:
        return len(self.last)


def _read_rows(path, expected_header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MarketDataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != expected_header:
            raise MarketDataError(
                f"{path}: expected header {','.join(expected_header)}, got {','.join(header)}"
            )
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise MarketDataError(f"{path}: no observations")
    return rows


def _parse_date(cell: str, path, row_no: int) -> _dt.date:
    try:
        return _dt.date.fromisoformat(cell.strip())
    except ValueError:
        raise MarketDataError(f"{path}: bad date {cell!r} at row {row_no}") from None


def _parse_float(cell: str, path, row_no: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise MarketDataError(f"{path}: bad {col} {cell!r} at row {row_no}") from None


def load_price_series(path, symbol: str) -> PriceSeries:
    """Load a `date,price` CSV; rows may appear in any order."""
    rows = _read_rows(path, ["date", "price"])
    parsed = []
    seen = set()
    for i, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise MarketDataError(f"{path}: expected 2 columns at row {i}")
        date = _parse_date(row[0], path, i)
        if date in seen:
            raise MarketDataError(f"{path}: duplicate date {date} at row {i}")
        seen.add(date)
        price = _parse_float(row[1], path, i, "price")
        if not (price > 0):
            raise MarketDataError(f"{path}: non-positive price {price} at row {i}")
        parsed.append((date, price))
    parsed.sort(key=lambda dp: dp[0])
    return PriceSeries(
        symbol=symbol,
        dates=tuple(d for d, _ in parsed),
        prices=tuple(p for _, p in parsed),
    )


def load_dividends(path, symbol: str) -> DividendSeries:
    """Load a `date,dps` CSV; indices become trading-day ordinals in date order."""
    rows = _read_rows(path, ["date", "dps"])
    parsed = []
    seen = set()
    for i, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise MarketDataError(f"{path}: expected 2 columns at row {i}")
        date = _parse_date(row[0], path, i)
        if date in seen:
            raise MarketDataError(f"{path}: duplicate date {date} at row {i}")
        seen.add(date)
        dps = _parse_float(row[1], path, i, "dps")
        if dps < 0:
            raise MarketDataError(f"{path}: negative dps {dps} at row {i}")
        parsed.append((date, dps))
    parsed.sort(key=lambda dp: dp[0])
    return DividendSeries(
        symbol=symbol,
        indices=tuple(range(len(parsed))),
        dps=tuple(d for _, d in parsed),
    )


def load_quotes(path, contract_id: str) -> QuoteSeries:
    """Load a `date,last,ttd_years,spot` CSV of derivative quotes."""
    rows = _read_rows(path, ["date", "last", "ttd_years", "spot"])
    parsed = []
    seen = set()
    for i, row in enumerate(rows, start=2):
        if len(row) != 4:
            raise MarketDataError(f"{path}: expected 4 columns at row {i}")
        date = _parse_date(row[0], path, i)
        if date in seen:
            raise MarketDataError(f"{path}: duplicate date {date} at row {i}")
        seen.add(date)
        last = _parse_float(row[1], path, i, "last")
        ttd = _parse_float(row[2], path, i, "ttd_years")
        spot = _parse_float(row[3], path, i, "spot")
        if not (last > 0):
            raise MarketDataError(f"{path}: non-positive last price {last} at row {i}")
        if ttd < 0:
            raise MarketDataError(f"{path}: negative time-to-delivery {ttd} at row {i}")
        if not (spot > 0):
            raise MarketDataError(f"{path}: non-positive spot {spot} at row {i}")
        parsed.append((date, last, ttd, spot))
    parsed.sort(key=lambda q: q[0])
    return QuoteSeries(
        contract_id=contract_id,
        dates=tuple(q[0] for q in parsed),
        last=tuple(q[1] for q in parsed),
        ttd_years=tuple(q[2] for q in parsed),
        spot=tuple(q[3] for q in parsed),
    )


def write_price_series(path, series: PriceSeries) -> None:
    """Inverse of load_price_series (round-trip exact for repr-exact floats)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "price"])
        for d, p in zip(series.dates, series.prices):
            writer.writerow([d.isoformat(), repr(p)])
