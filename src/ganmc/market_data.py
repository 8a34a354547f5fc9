"""The CSV reader for every input file: the price, dividend and quote
histories here, and the contract fixture through `read_rows`.

History files use ISO-8601 dates and may list rows in any order. Prices
and quotes are indexed by their position in date order, so holidays and
weekends are simply absent rows. Dividends are indexed by business days
(Monday to Friday) from the first dividend date, so a sparse file, such
as one row a quarter, keeps its spacing.

Every value is checked here, where it enters: each number must be finite
and meet its column's sign rule, and dates must be unique. A file is read
and checked a whole column at a time, and the first fault in file order is
named: within one row the date comes first, then its uniqueness, then the
columns left to right. The records built from a file rely on those checks
and do not repeat them.

A file may start with a UTF-8 byte-order mark, as spreadsheet programs
write it.
"""

from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass

import numpy as np

TRADING_DAYS_PER_YEAR = 252
DEFAULT_DT = 1.0 / TRADING_DAYS_PER_YEAR
_UNIX_EPOCH_DAY = _dt.date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


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
        if np.any(np.diff(self.indices) <= 0):
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

    Every row must have one cell per header column. A UTF-8 byte-order mark
    before the header is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            if "".join(row).strip():
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


def _parsed_prefix(parse, cells) -> list:
    """`parse` of each cell, up to the first cell it rejects with ValueError."""
    parsed = []
    try:
        parsed.extend(map(parse, cells))  # extend appends one by one, so a failure keeps the prefix
    except ValueError:
        pass
    return parsed


def _day_numbers(dates) -> np.ndarray:
    """Each date's proleptic Gregorian ordinal, as int64."""
    return np.fromiter(map(_dt.date.toordinal, dates), dtype=np.int64, count=len(dates))


def _read_dated(path, columns: tuple[str, ...]) -> tuple[tuple, ...]:
    """Read a `date,<columns>` CSV whose rows may appear in any order.

    Returns the dates in increasing order, then one tuple of finite values per column.
    """
    numbers, cells = zip(*read_rows(path, ["date", *columns]))
    date_cells, *value_cells = zip(*cells)
    n = len(numbers)
    # Each check's first fault as (position, place within its row, message); the earliest is named.
    faults = []
    dates = _parsed_prefix(_dt.date.fromisoformat, map(str.strip, date_cells))
    if len(dates) < n:
        faults.append((len(dates), 0, f"bad date {date_cells[len(dates)]!r}"))
    days = _day_numbers(dates)
    order = np.argsort(days, kind="stable")
    repeats = order[1:][np.diff(days[order]) == 0]
    if repeats.size:
        k = int(repeats.min())
        faults.append((k, 1, f"duplicate date {dates[k]}"))
    values = []
    for place, (col, col_cells) in enumerate(zip(columns, value_cells), start=2):
        parsed = _parsed_prefix(float, col_cells)
        v = np.array(parsed + [np.nan] * (n - len(parsed)))
        finite = np.isfinite(v)
        positive, what = _COLUMN_RULES[col]
        wrong = ~finite | (v <= 0 if positive else v < 0)
        if wrong.any():
            k = int(wrong.argmax())
            message = f"{what} {parsed[k]}" if finite[k] else f"bad {col} {col_cells[k]!r}"
            faults.append((k, place, message))
        values.append(v)
    if faults:
        k, _, message = min(faults)
        raise MarketDataError(f"{path}: {message} at row {numbers[k]}")
    in_order = tuple(map(dates.__getitem__, order.tolist()))
    return (in_order, *(tuple(v[order].tolist()) for v in values))


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
    days = (_day_numbers(dates) - _UNIX_EPOCH_DAY).astype("datetime64[D]")
    indices = tuple(np.busday_count(days[0], days).tolist())
    return DividendSeries(symbol=symbol, origin=dates[0], indices=indices, dps=dps)


def load_quotes(path, contract_id: str) -> QuoteSeries:
    """Load a `date,last,ttd_years,spot` CSV of derivative quotes."""
    dates, last, ttd_years, spot = _read_dated(path, ("last", "ttd_years", "spot"))
    return QuoteSeries(
        contract_id=contract_id, dates=dates, last=last, ttd_years=ttd_years, spot=spot
    )
