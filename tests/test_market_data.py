import csv
import datetime as dt
import random

import numpy as np
import pytest

from ganmc.evaluation import load_contracts
from ganmc.market_data import (
    MarketDataError,
    load_dividends,
    load_price_series,
    load_quotes,
)

from conftest import (
    iso_dates,
    write_dividend_csv,
    write_price_csv,
    write_price_series,
    write_quote_csv,
)


class TestLoadPriceSeries:
    def test_three_rows_in_date_order(self, tmp_path):
        path = write_price_csv(tmp_path / "p.csv", [100.0, 101.5, 99.25])
        series = load_price_series(path, "SYM")
        assert len(series) == 3
        assert series.prices == (100.0, 101.5, 99.25)
        assert series.dates[0] < series.dates[1] < series.dates[2]

    def test_zero_price_names_row(self, tmp_path):
        path = write_price_csv(tmp_path / "p.csv", [100.0, 0.0, 99.0])
        with pytest.raises(MarketDataError, match="row 3"):
            load_price_series(path, "SYM")

    def test_shuffled_dates_equal_sorted_input(self, tmp_path):
        dates = iso_dates(5)
        prices = [10.0, 11.0, 12.0, 13.0, 14.0]
        shuffled = sorted(zip(dates, prices), key=lambda dp: dp[1] % 3)
        path = tmp_path / "p.csv"
        path.write_text(
            "date,price\n" + "\n".join(f"{d.isoformat()},{p}" for d, p in shuffled) + "\n"
        )
        series = load_price_series(path, "SYM")
        expected = load_price_series(write_price_csv(tmp_path / "q.csv", prices), "SYM")
        assert series.prices == expected.prices
        assert series.dates == expected.dates

    def test_duplicate_date_rejected(self, tmp_path):
        d = iso_dates(1)[0].isoformat()
        path = tmp_path / "p.csv"
        path.write_text(f"date,price\n{d},100\n{d},101\n")
        with pytest.raises(MarketDataError, match="duplicate date"):
            load_price_series(path, "SYM")

    def test_malformed_row_reports_row_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,price\n2021-01-04,100\nnot-a-date,101\n")
        with pytest.raises(MarketDataError, match="row 3"):
            load_price_series(path, "SYM")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("day,close\n2021-01-04,100\n")
        with pytest.raises(MarketDataError, match="header"):
            load_price_series(path, "SYM")

    def test_single_row_too_short(self, tmp_path):
        path = write_price_csv(tmp_path / "p.csv", [100.0])
        with pytest.raises(MarketDataError, match="at least 2"):
            load_price_series(path, "SYM")

    def test_shuffled_history_with_blank_lines_equals_sorted_reference(self, tmp_path):
        dates = iso_dates(700)
        rows = [(d.isoformat(), repr(100.0 + 0.37 * i + (i % 7) / 3)) for i, d in enumerate(dates)]
        random.Random(5).shuffle(rows)
        lines = ["date,price"]
        for i, (d, p) in enumerate(rows):
            lines.append(f" {d} , {p} " if i % 50 == 0 else f"{d},{p}")
            if i % 97 == 0:
                lines.append("" if i % 2 else " , ")
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        with open(path, newline="") as fh:
            cells = [row for row in list(csv.reader(fh))[1:] if any(c.strip() for c in row)]
        reference = sorted((dt.date.fromisoformat(d.strip()), float(p)) for d, p in cells)
        series = load_price_series(path, "SYM")
        assert series.dates == tuple(d for d, _ in reference)
        assert series.prices == tuple(p for _, p in reference)

    def test_duplicate_in_long_shuffled_file_names_second_occurrence(self, tmp_path):
        rows = [f"{d.isoformat()},{100 + i}" for i, d in enumerate(iso_dates(700))]
        random.Random(7).shuffle(rows)
        rows.insert(600, rows[20].split(",")[0] + ",99")
        path = tmp_path / "p.csv"
        path.write_text("date,price\n" + "\n".join(rows) + "\n")
        date = rows[20].split(",")[0]
        with pytest.raises(MarketDataError) as exc:
            load_price_series(path, "SYM")
        assert str(exc.value) == f"{path}: duplicate date {date} at row 602"

    def test_round_trip(self, tmp_path):
        path = write_price_csv(tmp_path / "p.csv", [100.0, 101.317, 99.0001])
        series = load_price_series(path, "SYM")
        out = tmp_path / "copy.csv"
        write_price_series(out, series)
        again = load_price_series(out, "SYM")
        assert again == series


class TestLoadDividends:
    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,dps\n")
        with pytest.raises(MarketDataError, match="no observations"):
            load_dividends(path, "SYM")

    def test_constant_dps(self, tmp_path):
        path = write_dividend_csv(tmp_path / "d.csv", [1.0] * 5)
        series = load_dividends(path, "SYM")
        assert series.dps == (1.0,) * 5
        assert series.indices == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize(
        "dates",
        [
            iso_dates(63 * 8)[::63],
            [dt.date(2021, 1, 4), dt.date(2021, 1, 7), dt.date(2021, 1, 9), dt.date(2021, 1, 13)],
        ],
        ids=["quarterly", "saturday"],
    )
    def test_indices_count_business_days(self, tmp_path, dates):
        path = write_dividend_csv(tmp_path / "d.csv", [1.0] * len(dates), dates)
        series = load_dividends(path, "SYM")
        assert series.origin == dates[0]
        assert series.indices == tuple(np.busday_count(dates[0], dates).tolist())

    def test_saturday_and_following_monday_rejected(self, tmp_path):
        dates = [dt.date(2021, 1, 4), dt.date(2021, 1, 9), dt.date(2021, 1, 11)]
        path = write_dividend_csv(tmp_path / "d.csv", [1.0] * 3, dates)
        with pytest.raises(MarketDataError, match="indices not strictly increasing"):
            load_dividends(path, "SYM")

    def test_negative_dps_rejected(self, tmp_path):
        path = write_dividend_csv(tmp_path / "d.csv", [1.0, -0.5])
        with pytest.raises(MarketDataError, match="negative dps"):
            load_dividends(path, "SYM")


class TestLoadQuotes:
    def test_three_valid_rows(self, tmp_path):
        rows = [(102.0, 0.25, 100.0), (103.0, 0.25, 101.0), (101.5, 0.25, 100.5)]
        path = write_quote_csv(tmp_path / "q.csv", rows)
        quotes = load_quotes(path, "FUT1")
        assert len(quotes) == 3
        assert quotes.last == (102.0, 103.0, 101.5)

    def test_negative_ttd_rejected(self, tmp_path):
        path = write_quote_csv(tmp_path / "q.csv", [(102.0, -0.1, 100.0)])
        with pytest.raises(MarketDataError, match="negative time-to-delivery"):
            load_quotes(path, "FUT1")

    def test_zero_last_price_rejected(self, tmp_path):
        path = write_quote_csv(tmp_path / "q.csv", [(0.0, 0.25, 100.0)])
        with pytest.raises(MarketDataError, match="non-positive last"):
            load_quotes(path, "FUT1")


# loader, header, two valid rows
LOADERS = {
    "prices": (
        lambda path: load_price_series(path, "SYM"),
        "date,price",
        ["2021-01-04,100", "2021-01-05,101"],
    ),
    "dividends": (
        lambda path: load_dividends(path, "SYM"),
        "date,dps",
        ["2021-01-04,1.0", "2021-01-05,1.1"],
    ),
    "quotes": (
        lambda path: load_quotes(path, "FUT1"),
        "date,last,ttd_years,spot",
        ["2021-01-04,102,0.25,100", "2021-01-05,103,0.25,101"],
    ),
    "contracts": (
        load_contracts,
        "side,style,strike,t0_years,sigma,actual",
        ["call,european,100,0.25,0.2,5", "put,american,95,0.5,0.2,3"],
    ),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_shared_reader_rules(tmp_path, kind):
    """Every input file skips blank lines and names the file row of a bad column count."""
    load, header, (first, second) = LOADERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n\n{first}\n , \n{second}\n\n")
    assert len(load(path)) == 2
    columns = len(header.split(","))
    path.write_text(f"{header}\n{first}\n\n{second},1\n")
    with pytest.raises(MarketDataError, match=f"expected {columns} columns at row 4"):
        load(path)


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_non_finite_value_rejected(tmp_path, kind, value):
    """A non-finite number in any file's last column is a bad value of its row."""
    load, header, (first, second) = LOADERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n{first}\n{second.rsplit(',', 1)[0]},{value}\n")
    with pytest.raises(MarketDataError, match=rf"{kind}\.csv: bad .*at row 3"):
        load(path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_byte_order_mark_accepted(tmp_path, kind):
    """A UTF-8 byte-order mark before the header, as spreadsheet programs write it, is read."""
    load, header, (first, second) = LOADERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"\ufeff{header}\n{first}\n{second}\n", encoding="utf-8")
    assert len(load(path)) == 2


# loader, file body, the fault named: the first in file order, and within one
# row the date, then its uniqueness, then the columns left to right
MULTI_FAULT_FILES = {
    "zero price before bad date": (
        lambda path: load_price_series(path, "SYM"),
        "date,price\n2021-01-04,100\n2021-01-05,0\nnot-a-date,101\n",
        "non-positive price 0.0 at row 3",
    ),
    "nan before duplicate": (
        lambda path: load_price_series(path, "SYM"),
        "date,price\n2021-01-04,100\n2021-01-05,101\n2021-01-06,nan\n2021-01-06,102\n",
        "bad price 'nan' at row 4",
    ),
    "duplicate before bad date": (
        lambda path: load_price_series(path, "SYM"),
        "date,price\n2021-01-04,100\n2021-01-05,101\n2021-01-04,102\n2021-01-06,103\n"
        "2021-01-32,104\n",
        "duplicate date 2021-01-04 at row 4",
    ),
    "duplicates named in file order, not date order": (
        lambda path: load_price_series(path, "SYM"),
        "date,price\n2021-01-05,100\n2021-01-05,101\n2021-01-04,102\n2021-01-04,103\n",
        "duplicate date 2021-01-05 at row 3",
    ),
    "ttd_years before spot in one row": (
        lambda path: load_quotes(path, "FUT1"),
        "date,last,ttd_years,spot\n2021-01-04,102,0.25,100\n2021-01-05,103,-0.1,0\n",
        "negative time-to-delivery -0.1 at row 3",
    ),
}


@pytest.mark.parametrize("case", sorted(MULTI_FAULT_FILES))
def test_first_fault_in_file_order_named(tmp_path, case):
    load, body, fault = MULTI_FAULT_FILES[case]
    path = tmp_path / "data.csv"
    path.write_text(body)
    with pytest.raises(MarketDataError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: {fault}"
