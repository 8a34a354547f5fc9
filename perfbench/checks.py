"""Output checks, and a self-test showing that each check can fail.

Every check returns a list of error strings; an empty list means the
output passed. The checks recompute what they need from the retained
tracks with their own arithmetic rather than through the program's
helpers, so a broken helper cannot vouch for itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from inputs import ALPHA, DT, R, black_scholes

PARITY_RTOL = 1e-9
BS_MAPE_LIMIT_PCT = 1e-6


@dataclass(frozen=True)
class Quote:
    """One priced option: the contract and the program's value with its bounds."""

    side: str
    style: str
    strike: float
    days: int
    value: float
    lower: float
    upper: float


def parity_errors(quotes: list[Quote], kept: np.ndarray) -> list[str]:
    """European C - P = df * (mean S_k - K) on the retained set, to 1e-9 relative."""
    calls = {(q.strike, q.days): q for q in quotes if q.style == "european" and q.side == "call"}
    puts = {(q.strike, q.days): q for q in quotes if q.style == "european" and q.side == "put"}
    errors = []
    for key in sorted(calls.keys() & puts.keys()):
        strike, days = key
        df = (1.0 + R * DT) ** (-days)
        mean_s = float(np.mean(kept[:, days - 1]))
        expected = df * (mean_s - strike)
        got = calls[key].value - puts[key].value
        if not abs(got - expected) <= PARITY_RTOL * df * (abs(mean_s) + strike):
            errors.append(f"parity K={strike:.4f} k={days}: C-P={got!r} != {expected!r}")
    return errors


def american_errors(quotes: list[Quote]) -> list[str]:
    return [
        f"american {q.side} K={q.strike:.4f} k={q.days}: {q.lower!r} <= {q.value!r} <= {q.upper!r} fails"
        for q in quotes
        if q.style == "american" and not (q.lower <= q.value <= q.upper)
    ]


def retained_errors(kept_count: int, n2: int, alpha: float = ALPHA) -> list[str]:
    expected = n2 - math.ceil(alpha * n2) + 1
    if kept_count != expected:
        return [f"retained {kept_count} tracks of {n2}, expected {expected}"]
    return []


def identical_errors(label: str, first, again) -> list[str]:
    """Bit-identity of two equal-length sequences of floats or of two byte strings."""
    if isinstance(first, (bytes, str)):
        return [] if first == again else [f"{label}: repeated output differs"]
    a = np.asarray(first, dtype=float)
    b = np.asarray(again, dtype=float)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return [f"{label}: repeated prices are not bit-identical"]
    return []


def report_mape(report_text: str) -> float:
    last = report_text.rstrip("\n").rsplit("\n", 1)[-1]
    label, value = last.split(",")
    if label != "MAPE":
        raise ValueError(f"report has no trailing MAPE line: {last!r}")
    return float(value)


def bs_report_errors(report_text: str) -> list[str]:
    score = report_mape(report_text)
    if not (0.0 <= score <= BS_MAPE_LIMIT_PCT):
        return [f"bs evaluate MAPE {score!r}% exceeds {BS_MAPE_LIMIT_PCT}% against Black-Scholes actuals"]
    return []


def finite_errors(label: str, values) -> list[str]:
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        return [f"{label}: non-finite or negative price"]
    return []


def self_test(price_option, OptionContract) -> list[str]:
    """Feed perturbed outputs to every check; return the checks that did not fail.

    `price_option` and `OptionContract` are the program's, so the clean
    case also shows that each check accepts correct output.
    """
    rng = np.random.default_rng(0)
    kept = 100.0 * np.exp(0.05 * rng.standard_normal((409, 64)))
    quotes = []
    for style in ("european", "american"):
        for side in ("call", "put"):
            for strike, days in ((95.0, 20), (105.0, 63)):
                contract = OptionContract(side=side, style=style, strike=strike, t0_years=days * DT)
                p = price_option(contract, kept, R, DT)
                quotes.append(Quote(side, style, strike, days, p.value, p.lower, p.upper))
    values = [q.value for q in quotes]
    actual = black_scholes("call", 100.0, 100.0, R, 0.2, 0.25)
    clean_report = f"contract_id,predicted,actual,ape\n0,{actual!r},{actual!r},0.0\nMAPE,0.0\n"
    bad_report = f"contract_id,predicted,actual,ape\n0,{actual * 1.001!r},{actual!r},0.001\nMAPE,0.1\n"

    clean = {
        "parity": parity_errors(quotes, kept),
        "american": american_errors(quotes),
        "retained": retained_errors(410, 2048),
        "identical": identical_errors("clean", values, list(values)),
        "bs_report": bs_report_errors(clean_report),
    }
    bumped = [replace(quotes[0], value=quotes[0].value * (1 + 1e-6))] + quotes[1:]
    swapped = [replace(q, lower=q.upper, upper=q.lower) if q.style == "american" else q for q in quotes]
    one_ulp = list(values)
    one_ulp[3] = float(np.nextafter(one_ulp[3], np.inf))
    perturbed = {
        "parity (price bumped 1e-6)": parity_errors(bumped, kept),
        "parity (retained set missing a track)": parity_errors(quotes, kept[:-1]),
        "american (bounds swapped)": american_errors(swapped),
        "retained (count off by one)": retained_errors(409, 2048),
        "identical (one ulp)": identical_errors("perturbed", values, one_ulp),
        "bs_report (0.1% error)": bs_report_errors(bad_report),
    }
    problems = [f"{name} rejects correct output: {errs}" for name, errs in clean.items() if errs]
    problems += [f"{name} was not caught" for name, errs in perturbed.items() if not errs]
    return problems
