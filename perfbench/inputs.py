"""Seeded input generator for every benchmark workload.

All GAN training in the benchmark uses one fixed price history, the
acceptance fixture's 700-day GBM path (mu 0.05, sigma 0.2, path seed 308),
and one fixed GAN seed. GAN training is chaotic in its inputs: a different
path or seed moves the call MAPE between about 50% and 400%. Keeping training
fixed makes `call_mape_pct` a guard on the program's numerics instead of a
draw. Everything a user sends after training comes from the workload seed:
sampling seeds, contract books, the order of the N2 cycle, the dividend and
quote histories, and the CLI arguments.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

DT = 1.0 / 252
R = 0.05
SIGMA = 0.2
SYMBOL = "SYNTH"

# acceptance-fixture shape
T = 64
N1 = 290
BATCH = 64
ALPHA = 0.8
HISTORY_DAYS = 700
HISTORY_SEED = 308
GAN_SEED = 4

# `train` workload: stride probe plus full training, then the 10-call strip
TRAIN_PROBE_EPOCHS = 100
TRAIN_EPOCHS = 300
STRIP_N2 = 2048
STRIP_REQUESTS = 8
STRIP_T0 = 0.25

# short schedule for the model that `price` and `cli` load
SERVE_PROBE_EPOCHS = 10
SERVE_EPOCHS = 30

# `price` workload: 2048 is the acceptance fixture; 20480 x 64 x 8 B = 10.5 MB
# of tracks is larger than a 4 MiB L2. An odd number of sizes puts the
# request median inside one size instead of between two.
PRICE_N2 = (2048, 4096, 8192, 12288, 20480)

# option grid of the `price` book and the `cli` contract fixture
MONEYNESS = (0.9, 0.95, 1.0, 1.05, 1.1)
GRID_DAYS = (16, 32, 48, 63)

# `cli` workload
CLI_N2 = 5120
CLI_LR_TRAIN_ROWS = 40
CLI_MODELS = ("bs", "mc", "lr", "lr-itm", "lr-otm", "gan-mc")


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def black_scholes(side: str, spot: float, strike: float, r: float, sigma: float, tau: float) -> float:
    """Closed-form European price, kept independent of the program's own pricer."""
    st = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma * sigma) * tau) / st
    d2 = d1 - st
    if side == "call":
        return spot * norm_cdf(d1) - strike * math.exp(-r * tau) * norm_cdf(d2)
    return strike * math.exp(-r * tau) * norm_cdf(-d2) - spot * norm_cdf(-d1)


def weekdays(n: int, start: dt.date = dt.date(2021, 1, 4)) -> list[dt.date]:
    out, day = [], start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def gbm_history(n: int = HISTORY_DAYS, seed: int = HISTORY_SEED, mu: float = 0.05,
                sigma: float = SIGMA, s0: float = 100.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    steps = (mu - 0.5 * sigma**2) * DT + sigma * math.sqrt(DT) * rng.standard_normal(n - 1)
    return s0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


def write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_prices(path, prices: np.ndarray) -> None:
    dates = weekdays(len(prices))
    write_csv(path, "date,price", ([d.isoformat(), repr(float(p))] for d, p in zip(dates, prices)))


def write_dividends(path, n: int, rng: np.random.Generator) -> None:
    """Trailing annual dividend per share on every trading day, with a trend."""
    base = rng.uniform(1.0, 3.0)
    trend = rng.uniform(-0.3, 0.6)
    dps = base + trend * np.arange(n) / n + 0.02 * rng.standard_normal(n)
    dps = np.maximum(dps, 0.0)
    write_csv(path, "date,dps", ([d.isoformat(), repr(float(v))] for d, v in zip(weekdays(n), dps)))


def write_quotes(path, prices: np.ndarray, rng: np.random.Generator, rows: int = 120) -> None:
    """Forward quotes on the last `rows` days: spot, time to delivery and a noisy carry."""
    spot = prices[-rows:]
    ttd = np.linspace(0.5, 0.5 - (rows - 1) * DT, rows)
    carry = rng.uniform(-1.0, 2.0)
    last = spot * np.exp(R * ttd) + carry + 0.1 * rng.standard_normal(rows)
    dates = weekdays(len(prices))[-rows:]
    write_csv(
        path,
        "date,last,ttd_years,spot",
        ([d.isoformat(), repr(float(a)), repr(float(b)), repr(float(c))]
         for d, a, b, c in zip(dates, last, ttd, spot)),
    )


def strip_strikes(spot: float) -> list[float]:
    """The acceptance test's strip: 10 calls from 0.9 to 1.1 times spot."""
    return [float(m * spot) for m in np.linspace(0.9, 1.1, 10)]


def strip_seeds(seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 0])
    return [int(s) for s in rng.integers(0, 2**31, STRIP_REQUESTS)]


@dataclass(frozen=True)
class OptionSpec:
    side: str
    style: str
    strike: float
    days: int

    @property
    def t0(self) -> float:
        return self.days * DT


def option_grid(spot: float) -> list[OptionSpec]:
    """Calls and puts, European and American, over 5 strikes x 4 maturities.

    The grid is the same for every seed: a call 10% out of the money has
    a Black-Scholes value near 0.1, so moving a strike or a maturity
    would move `call_mape_pct` more than any change to the program.
    European rows come first and American rows second, so a 40/40
    train/test split gives the linear baselines both regimes and every
    maturity on each side; four maturities keep their design matrices
    full rank.
    """
    return [
        OptionSpec(side, style, float(spot * m), d)
        for style in ("european", "american")
        for side in ("call", "put")
        for m in MONEYNESS
        for d in GRID_DAYS
    ]


@dataclass(frozen=True)
class PriceInputs:
    book: list[OptionSpec]
    futures_days: int
    commodity_days: int
    n2_cycle: tuple[int, ...]
    request_rng: np.random.Generator

    def next_seed(self) -> int:
        return int(self.request_rng.integers(0, 2**31))


def price_inputs(seed: int, spot: float) -> PriceInputs:
    rng = np.random.default_rng([seed, 1])
    book = option_grid(spot)
    shift = int(rng.integers(len(PRICE_N2)))
    return PriceInputs(
        book=book,
        futures_days=int(rng.integers(10, T + 1)),
        commodity_days=int(rng.integers(10, T + 1)),
        n2_cycle=PRICE_N2[shift:] + PRICE_N2[:shift],
        request_rng=np.random.default_rng([seed, 2]),
    )


def write_contracts(path, specs: list[OptionSpec], spot: float) -> None:
    write_csv(
        path,
        "side,style,strike,t0_years,sigma,actual",
        ([s.side, s.style, repr(s.strike), repr(s.t0), repr(SIGMA),
          repr(black_scholes(s.side, spot, s.strike, R, SIGMA, s.t0))] for s in specs),
    )


def write_config(path, kind: str, files: dict, seed: int) -> None:
    lines = [
        "[data]",
        f"prices = {files['prices']}",
        f"symbol = {SYMBOL}",
        f"dividends = {files['dividends']}",
        f"quotes = {files['quotes']}",
        "[contracts]",
        f"file = {files['contracts']}",
        f"lr_train_rows = {CLI_LR_TRAIN_ROWS}",
        "[model]",
        f"kind = {kind}",
        f"r = {R}",
        f"T = {T}",
        f"N1 = {N1}",
        f"N2 = {CLI_N2}",
        f"alpha = {ALPHA}",
        f"seed = {seed}",
        "[gan]",
        f"batch_size = {BATCH}",
        f"checkpoint = {files['checkpoint']}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_inputs(seed: int, workdir, prices: np.ndarray, checkpoint) -> tuple[list[list[str]], list[OptionSpec]]:
    """Write the CLI session's data and configs; return its argv list and contract fixture."""
    rng = np.random.default_rng([seed, 3])
    spot = float(prices[-1])
    files = {
        name: str(workdir / f"{name}.csv") for name in ("prices", "dividends", "quotes", "contracts")
    }
    files["checkpoint"] = str(checkpoint)
    write_prices(files["prices"], prices)
    write_dividends(files["dividends"], len(prices), rng)
    write_quotes(files["quotes"], prices, rng)
    contracts = option_grid(spot)
    write_contracts(files["contracts"], contracts, spot)
    config_seed = int(rng.integers(0, 2**31))
    configs = {}
    for kind in CLI_MODELS:
        configs[kind] = str(workdir / f"{kind}.cfg")
        write_config(configs[kind], kind, files, config_seed)

    def days() -> str:
        return repr(int(rng.integers(10, T + 1)) * DT)

    def strike() -> str:
        return repr(float(spot * rng.uniform(0.9, 1.1)))

    gan_cfg = ["--config", configs["gan-mc"]]
    argvs = [
        ["--config", configs[kind], "--out", str(workdir / f"report-{kind}.csv"), "evaluate"]
        for kind in CLI_MODELS
    ]
    argvs += [
        gan_cfg + ["price-option", "--side", str(rng.choice(["call", "put"])),
                   "--style", str(rng.choice(["european", "american"])),
                   "--strike", strike(), "--t0", days()],
        gan_cfg + ["price-equity-futures", "--t0", days()],
        gan_cfg + ["price-commodity", "--t0", days()],
        gan_cfg + ["--out", str(workdir / "tracks.csv"), "generate",
                   "--count", str(int(rng.integers(5, 51)))],
        gan_cfg + ["baseline", "--model", "mc", "--side", str(rng.choice(["call", "put"])),
                   "--style", str(rng.choice(["european", "american"])),
                   "--strike", strike(), "--t0", days(), "--sigma", repr(SIGMA)],
    ]
    return argvs, contracts
