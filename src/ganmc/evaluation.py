"""Experiment configs, the end-to-end pricing pipeline, and MAPE scoring.

Config files are plain key=value text with [section] headers, and may
start with a UTF-8 byte-order mark; unknown sections or keys, and a key
given twice, are hard errors so hyperparameter typos cannot pass silently.
Every GAN-MC command reads its tracks through `_retained`, which samples
and ranks once and gives each payoff day k the retained paths from day 1
to day k; each pricer reads day k, their last column. Reports are CSV rows
plus a trailing MAPE summary line, with run metadata (config echo,
version, wall time) in a sidecar file so the report itself is
byte-identical across reruns of the same seed.
"""

from __future__ import annotations

import csv
import io
import math
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from . import __version__
from .baselines import bs_price, fit_linear_pricer, gbm_mc_option, in_regime, lr_price
from .futures import (
    estimate_carry,
    fit_dividends,
    predict_dividend,
    price_commodity,
    price_equity_futures,
)
from .gan import GanConfig, GanModel, TrainReport, load_checkpoint, sample, train
from .market_data import (
    DEFAULT_DT,
    TRADING_DAYS_PER_YEAR,
    MarketDataError,
    PriceSeries,
    load_dividends,
    load_price_series,
    load_quotes,
    read_rows,
)
from .options import OptionContract, PricingError, payoff_index, price_option
from .similarity import rank_and_select, retained_count
from .windowing import NoViableStrideError, search_stride

MODEL_KINDS = ("gan-mc", "mc", "bs", "lr", "lr-itm", "lr-otm")


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    """Pipeline failure annotated with the stage that raised it; the failure
    itself is ``__cause__``, whether or not the raise says ``from``."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.__cause__ = cause


class CollapseError(RuntimeError):
    pass


# a number's valid range, as its error message reads it -> the range's test
_RANGES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "positive": lambda v: v > 0,
    "in (0,1)": lambda v: 0 < v < 1,
}


def _key(section: str, key: str, default, valid: str | None = None):
    """A config field, set by `key = value` under `[section]` of a config file;
    a number's `valid` range is one of `_RANGES`."""
    return field(default=default, metadata={"key": (section, key), "valid": valid})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: data files, model kind and hyperparameters.

    Each field declares its config file key through ``_key``, and a value
    is parsed with the field's type; a field that ``GanConfig`` shares by
    name is handed to the GAN (``gan_config_from``), and all of them but T
    take their default from ``GanConfig``. The GAN's architecture, optimiser
    and collapse thresholds are class constants of ``GanConfig``. Every
    number but r declares its valid range on its field, and all of them are
    checked here, whatever the command, before any file is read; a config
    with several bad numbers is rejected for the first in field order. Only
    lr_train_rows's upper end, which depends on the length of the contract
    fixture, is left to the lr models.

    The stride probe is the first min(probe_epochs, epochs) epochs of the
    full GAN training run (see ``train_gan``), so a probe_epochs above
    epochs probes the whole run.
    """

    prices_path: str = _key("data", "prices", "")
    symbol: str = _key("data", "symbol", "")
    dividends_path: str = _key("data", "dividends", "")
    quotes_path: str = _key("data", "quotes", "")
    contracts_path: str = _key("contracts", "file", "")
    lr_train_rows: int = _key("contracts", "lr_train_rows", 0, ">= 0")
    model: str = _key("model", "kind", "gan-mc")
    r: float = _key("model", "r", 0.05)
    dt: float = _key("model", "dt", DEFAULT_DT, "positive")
    T: int = _key("model", "T", 128, ">= 1")
    n1: int = _key("model", "N1", 290, ">= 1")
    n2: int = _key("model", "N2", 5120, ">= 1")
    n3: int = _key("model", "N3", 50, ">= 0")
    alpha: float = _key("model", "alpha", 0.8, "in (0,1)")
    seed: int = _key("model", "seed", GanConfig.seed, ">= 0")
    epochs: int = _key("gan", "epochs", GanConfig.epochs, "positive")
    batch_size: int = _key("gan", "batch_size", GanConfig.batch_size, "positive")
    probe_epochs: int = _key("gan", "probe_epochs", 200, "positive")
    checkpoint_path: str = _key("gan", "checkpoint", "")

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}")
        for f in fields(self):
            valid, value = f.metadata["valid"], getattr(self, f.name)
            if valid and not _RANGES[valid](value):
                raise ConfigError(f"{f.metadata['key'][1]} must be {valid}, got {value}")


_FIELD_TYPES = get_type_hints(ExperimentConfig)

# (section, key) -> (field name, parser: the field's type)
_CONFIG_SCHEMA = {
    f.metadata["key"]: (f.name, _FIELD_TYPES[f.name]) for f in fields(ExperimentConfig)
}

_SECTIONS = {section for section, _ in _CONFIG_SCHEMA}


def parse_config(path) -> ExperimentConfig:
    """Parse a key=value config file; text that is not UTF-8, unknown sections
    or keys, a key given twice and non-finite floats are errors."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}  # field name -> the line that set it
    section = None
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{path}:{line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        if section is None:
            raise ConfigError(f"{path}:{line_no}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if (section, key) not in _CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r} in [{section}]")
        name, parser = _CONFIG_SCHEMA[(section, key)]
        if name in seen:
            raise ConfigError(f"{path}:{line_no}: key {key!r} in [{section}] "
                              f"already given on line {seen[name]}")
        seen[name] = line_no
        try:
            values[name] = parser(value)
            if parser is float and not math.isfinite(values[name]):
                raise ValueError
        except ValueError:
            raise ConfigError(f"{path}:{line_no}: bad value {value!r} for {key}") from None
    return ExperimentConfig(**values)


def config_echo(cfg: ExperimentConfig) -> str:
    parts = [f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg)]
    return "\n".join(parts)


@dataclass(frozen=True)
class ContractRow:
    contract: OptionContract
    sigma: float
    actual: float


def load_contracts(path) -> list[ContractRow]:
    """Load an option-contract fixture CSV: side,style,strike,t0_years,sigma,actual.

    Every number must be finite, every sigma positive, and every actual
    price nonzero: it divides the row's percentage error.
    """
    header = ["side", "style", "strike", "t0_years", "sigma", "actual"]
    contracts = []
    for i, (side, style, *numbers) in read_rows(path, header):
        try:
            strike, t0_years, sigma, actual = map(float, numbers)
            if not all(map(math.isfinite, (strike, t0_years, sigma, actual))):
                raise ValueError
            contract = OptionContract(side.strip(), style.strip(), strike, t0_years)
        except PricingError as exc:
            raise MarketDataError(f"{path}: {exc} at row {i}") from None
        except ValueError:
            raise MarketDataError(f"{path}: bad numeric value at row {i}") from None
        if sigma <= 0.0:
            raise MarketDataError(f"{path}: non-positive sigma {sigma} at row {i}")
        if actual == 0.0:
            raise MarketDataError(f"{path}: actual value is zero at row {i}")
        contracts.append(ContractRow(contract, sigma, actual))
    return contracts


def mape(predicted, actual) -> float:
    """Mean absolute percentage error, as a percentage."""
    pred = np.asarray(predicted, dtype=float)
    act = np.asarray(actual, dtype=float)
    if pred.shape != act.shape or pred.ndim != 1:
        raise PricingError(f"length mismatch: {pred.shape} vs {act.shape}")
    zero = np.nonzero(act == 0.0)[0]
    if zero.size:
        raise PricingError(f"actual value is zero at index {int(zero[0])}")
    return float(100.0 * np.abs((pred - act) / act).mean())


@dataclass
class EvalReport:
    model: str
    rows: list[tuple[str, float, float, float]]  # (contract_id, predicted, actual, ape)
    mape_percent: float
    runtime_seconds: float
    config_text: str


def gan_config_from(cfg: ExperimentConfig, scale: float) -> GanConfig:
    """The GanConfig of every hyperparameter the two configs share by name."""
    shared = {f.name for f in fields(GanConfig)} & {f.name for f in fields(cfg)}
    return GanConfig(scale=scale, **{name: getattr(cfg, name) for name in shared})


@dataclass
class TrainedPipeline:
    model: GanModel
    report: TrainReport
    d: int
    reference: np.ndarray  # last T observed prices


def train_gan(cfg: ExperimentConfig, prices: np.ndarray) -> TrainedPipeline:
    """Stride search in which the probe is the head of the full training run.

    Each stride with at least N1 windows is trained once, with the full
    config. The first min(probe_epochs, epochs) epochs of that run are the
    probe: a collapse within them rejects the stride and the search moves
    on. At the first stride that passes, the run is the model; a collapse
    after the probe epochs raises CollapseError, and so does a search that
    trained at least one stride and found none that passes. A history too
    short for N1 windows at d = 1 raises NoViableStrideError.
    """
    prices = np.asarray(prices, dtype=float)
    probe_epochs = min(cfg.probe_epochs, cfg.epochs)
    # the model's window transform maps the generator's standardised log
    # coordinates back to prices in the history's own unit, so no
    # headroom or rescaling is needed
    full_cfg = gan_config_from(cfg, scale=1.0)
    run = None

    def probe(ws) -> bool:
        nonlocal run
        run = train(ws.windows, replace(full_cfg, batch_size=min(full_cfg.batch_size, len(ws))))
        report = run[1]
        return report.collapsed and report.epochs_run <= probe_epochs

    try:
        d, _ = search_stride(prices, cfg.T, cfg.n1, probe)
    except NoViableStrideError as exc:
        if run is None:
            raise
        raise CollapseError(str(exc)) from exc
    model, report = run
    if report.collapsed:
        raise CollapseError(f"training collapsed at stride d={d}: {report.collapse_reason}")
    return TrainedPipeline(
        model=model,
        report=report,
        d=d,
        reference=prices[-cfg.T :],
    )


def obtain_model(cfg: ExperimentConfig, prices: np.ndarray) -> GanModel:
    """Load the configured checkpoint, or train from scratch."""
    if not cfg.checkpoint_path:
        return train_gan(cfg, prices).model
    model = load_checkpoint(cfg.checkpoint_path)
    if model.T != cfg.T:
        raise ConfigError(f"{cfg.checkpoint_path}: window length {model.T} != configured T={cfg.T}")
    return model


def selected_tracks(model: GanModel, reference: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Sample N2 tracks and keep the ones most similar to the reference window."""
    tracks = sample(model, cfg.n2, cfg.seed)
    ranking = rank_and_select(tracks, reference, cfg.alpha)
    return tracks[ranking.selected]


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(name, exc) from exc


def _load_prices(cfg: ExperimentConfig) -> PriceSeries:
    return _stage("market_data", load_price_series, cfg.prices_path, cfg.symbol)


def load_history(cfg: ExperimentConfig) -> PriceSeries:
    """The staged price load of a command that trains or samples: at least T prices."""
    series = _load_prices(cfg)
    n = len(series.prices)
    if n < cfg.T:
        raise StageError(
            "market_data",
            MarketDataError(f"{cfg.prices_path}: {n} prices, fewer than the window length T={cfg.T}"),
        )
    return series


def _retained(
    cfg: ExperimentConfig, stage: str = "", t0s: Iterable[float] = ()
) -> tuple[PriceSeries, np.ndarray, dict[float, np.ndarray]]:
    """The one reading of every GAN-MC command.

    It finds the payoff day k = T0/dt of each T0 in `t0s` under `stage` (so
    a bad day fails before any training), then loads the history (a short
    one fails before any checkpoint is read or training starts), obtains
    the model, samples N2 tracks once and keeps the most similar to the last
    T prices, ranked once over all T days. It returns the history, the
    retained tracks and, for each T0, the retained paths from day 1 to day k:
    a view of the tracks whose last column is day k.
    """
    days = {t0_years: _stage(stage, payoff_index, t0_years, cfg.dt, cfg.T) for t0_years in t0s}
    series = load_history(cfg)
    prices = np.asarray(series.prices, dtype=float)
    model = _stage("gan_core", obtain_model, cfg, prices)
    kept = _stage("similarity", selected_tracks, model, prices[-cfg.T :], cfg)
    return series, kept, {t0_years: kept[:, :k] for t0_years, k in days.items()}


def baseline_price(
    model: str, contract: OptionContract, spot: float, sigma: float, cfg: ExperimentConfig,
    seed: int,
) -> float:
    """The `bs` (closed-form European, whatever the style) or `mc` price of one contract."""
    c = contract
    if model == "bs":
        return bs_price(c.side, spot, c.strike, cfg.r, sigma, c.t0_years)
    return gbm_mc_option(
        c.side, spot, c.strike, cfg.r, sigma, c.t0_years, cfg.n2, seed, cfg.dt, c.style
    )


def run_pipeline(cfg: ExperimentConfig) -> EvalReport:
    """Price every contract in the fixture with the configured model."""
    started = time.monotonic()
    contracts = _stage("market_data", load_contracts, cfg.contracts_path)
    if cfg.model == "gan-mc":
        t0s = [row.contract.t0_years for row in contracts]
        series, _, paths = _retained(cfg, "pricing_options", t0s)
    else:
        series = _load_prices(cfg)
    spot = series.prices[-1]

    split = 0
    if cfg.model.startswith("lr"):
        split = cfg.lr_train_rows
        if not (0 < split < len(contracts)):
            raise StageError(
                "baselines",
                ConfigError(f"lr_train_rows={split} must split {len(contracts)} contracts"),
            )
        regime = cfg.model.partition("-")[2] or "all"  # lr-itm fits regime itm
        train_rows = [
            (spot, row.contract.strike, row.contract.t0_years, row.contract.side, row.actual)
            for row in contracts[:split]
        ]
        coefficients = _stage("baselines", fit_linear_pricer, train_rows, regime)

    rows: list[tuple[str, float, float, float]] = []
    # ids are fixture row positions, so an lr report names the rows it tested
    for i, row in enumerate(contracts[split:], start=split):
        contract_id = str(i)
        c = row.contract
        if cfg.model in ("bs", "mc"):
            predicted = _stage(
                "baselines", baseline_price, cfg.model, c, spot, row.sigma, cfg, cfg.seed + i
            )
        elif cfg.model == "gan-mc":
            predicted = _stage(
                "pricing_options", price_option, c, paths[c.t0_years], cfg.r, cfg.dt
            ).value
        elif in_regime(spot / c.strike, c.side, regime):
            predicted = lr_price(coefficients, spot, c.strike, c.t0_years)
        else:
            continue  # outside the fitted regime
        ape = abs(predicted - row.actual) / abs(row.actual)
        rows.append((contract_id, float(predicted), row.actual, float(ape)))

    if not rows:
        raise StageError("eval", PricingError("no contracts to evaluate"))
    return EvalReport(
        model=cfg.model,
        rows=rows,
        mape_percent=100.0 * float(np.mean([r[3] for r in rows])),
        runtime_seconds=time.monotonic() - started,
        config_text=config_echo(cfg),
    )


def render_report(report: EvalReport) -> str:
    """Deterministic CSV body: per-contract rows plus a trailing MAPE line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["contract_id", "predicted", "actual", "ape"])
    for contract_id, predicted, actual, ape in report.rows:
        writer.writerow([contract_id, repr(predicted), repr(actual), repr(ape)])
    writer.writerow(["MAPE", repr(report.mape_percent)])
    return buf.getvalue()


def write_report(report: EvalReport, out_path: str) -> None:
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_report(report))
    with open(out_path + ".meta.txt", "w", encoding="utf-8") as fh:
        fh.write(f"version: {__version__}\n")
        fh.write(f"model: {report.model}\n")
        fh.write(f"wall_time_seconds: {report.runtime_seconds:.3f}\n")
        fh.write("config:\n")
        fh.write(report.config_text + "\n")


def generate_tracks_csv(cfg: ExperimentConfig, count: int, out_path: str) -> None:
    """Write `count` of the most market-like generated tracks as plot-ready CSV."""
    keep = retained_count(cfg.n2, cfg.alpha)
    if not 1 <= count <= keep:
        raise ConfigError(f"count must be in 1..{keep}, the retained set size, got {count}")
    _, tracks, _ = _retained(cfg)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["track_id", "day_offset", "price"])
        # the retained set ascends in similarity, so its tail is the most similar
        for track_id, track in enumerate(tracks[-count:]):
            for day, price in enumerate(track, start=1):
                writer.writerow([track_id, day, repr(float(price))])


def price_equity_futures_pipeline(cfg: ExperimentConfig, t0_years: float) -> float:
    """End-to-end equity futures price: train/sample/filter plus dividend fit.

    The dividend trend is read round(T0 * 252) business days after the last
    price date: T0 in trading days, whatever the track step dt.
    """
    if not cfg.dividends_path:
        raise ConfigError("equity futures pricing needs [data] dividends")
    dividends = _stage("market_data", load_dividends, cfg.dividends_path, cfg.symbol)
    fit = _stage("pricing_futures", fit_dividends, dividends)
    series, _, paths = _retained(cfg, "pricing_futures", [t0_years])
    tracks = paths[t0_years]
    t_star = (int(np.busday_count(dividends.origin, series.dates[-1]))
              + round(t0_years * TRADING_DAYS_PER_YEAR))
    forecast = predict_dividend(fit, t_star)
    return _stage(
        "pricing_futures",
        price_equity_futures,
        series.prices[-1],
        tracks,
        forecast,
        cfg.r,
        t0_years,
        cfg.dt,
    )


def price_commodity_pipeline(cfg: ExperimentConfig, t0_years: float) -> float:
    """End-to-end commodity forward/futures price with empirical carry."""
    if not cfg.quotes_path:
        raise ConfigError("commodity pricing needs [data] quotes")
    quotes = _stage("market_data", load_quotes, cfg.quotes_path, cfg.symbol)
    carry = _stage("pricing_futures", estimate_carry, quotes, cfg.r, t0_years, cfg.n3)
    _, _, paths = _retained(cfg, "pricing_futures", [t0_years])
    return _stage(
        "pricing_futures", price_commodity, paths[t0_years], carry, cfg.r, t0_years, cfg.dt
    )


def price_option_pipeline(cfg: ExperimentConfig, contract: OptionContract) -> float:
    """End-to-end option price from the configured price history."""
    _, _, paths = _retained(cfg, "pricing_options", [contract.t0_years])
    tracks = paths[contract.t0_years]
    return _stage("pricing_options", price_option, contract, tracks, cfg.r, cfg.dt).value
