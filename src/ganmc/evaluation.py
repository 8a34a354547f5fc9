"""Experiment configs, the end-to-end pricing pipeline, and MAPE scoring.

Config files are plain key=value text with [section] headers; unknown
sections or keys are hard errors so hyperparameter typos cannot pass
silently. Reports are CSV rows plus a trailing MAPE summary line, with
run metadata (config echo, version, wall time) in a sidecar file so
the report itself is byte-identical across reruns of the same seed.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .baselines import bs_price, fit_linear_pricer, gbm_mc_option, lr_price
from .futures import (
    estimate_carry,
    fit_dividends,
    predict_dividend,
    price_commodity,
    price_equity_futures,
)
from .gan import GanConfig, GanError, GanModel, TrainReport, load_checkpoint, sample, train
from .market_data import (
    DEFAULT_DT,
    MarketDataError,
    PriceSeries,
    load_dividends,
    load_price_series,
    load_quotes,
    read_rows,
)
from .options import OptionContract, PricingError, payoff_index, price_option
from .similarity import rank_and_select, retained_count
from .windowing import search_stride

MODEL_KINDS = ("gan-mc", "mc", "bs", "lr", "lr-itm", "lr-otm")


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    """Pipeline failure annotated with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


class CollapseError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: data files, model kind and hyperparameters.

    The stride probe is the first min(probe_epochs, epochs) epochs of the
    full GAN training run (see ``train_gan``), so a probe_epochs above
    epochs probes the whole run.
    """

    prices_path: str = ""
    symbol: str = ""
    dividends_path: str = ""
    quotes_path: str = ""
    quote_id: str = ""
    contracts_path: str = ""
    lr_train_rows: int = 0
    model: str = "gan-mc"
    r: float = 0.05
    dt: float = DEFAULT_DT
    T: int = 128
    n1: int = 290
    n2: int = 5120
    n3: int = 50
    alpha: float = 0.8
    seed: int = 0
    noise_dim: int = 32
    epochs: int = 2000
    batch_size: int = 64
    lr_generator: float = 2e-4
    lr_discriminator: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    adam_eps: float = 1e-8
    delta_loss: float = 0.05
    eps_std: float = 1e-4
    k_epochs: int = 20
    probe_epochs: int = 200
    checkpoint_path: str = ""

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")


# (section, key) -> (field name, parser)
_CONFIG_SCHEMA = {
    ("data", "prices"): ("prices_path", str),
    ("data", "symbol"): ("symbol", str),
    ("data", "dividends"): ("dividends_path", str),
    ("data", "quotes"): ("quotes_path", str),
    ("data", "quote_id"): ("quote_id", str),
    ("contracts", "file"): ("contracts_path", str),
    ("contracts", "lr_train_rows"): ("lr_train_rows", int),
    ("model", "kind"): ("model", str),
    ("model", "r"): ("r", float),
    ("model", "dt"): ("dt", float),
    ("model", "T"): ("T", int),
    ("model", "N1"): ("n1", int),
    ("model", "N2"): ("n2", int),
    ("model", "N3"): ("n3", int),
    ("model", "alpha"): ("alpha", float),
    ("model", "seed"): ("seed", int),
    ("gan", "noise_dim"): ("noise_dim", int),
    ("gan", "epochs"): ("epochs", int),
    ("gan", "batch_size"): ("batch_size", int),
    ("gan", "lr_generator"): ("lr_generator", float),
    ("gan", "lr_discriminator"): ("lr_discriminator", float),
    ("gan", "beta1"): ("beta1", float),
    ("gan", "beta2"): ("beta2", float),
    ("gan", "adam_eps"): ("adam_eps", float),
    ("gan", "delta_loss"): ("delta_loss", float),
    ("gan", "eps_std"): ("eps_std", float),
    ("gan", "k_epochs"): ("k_epochs", int),
    ("gan", "probe_epochs"): ("probe_epochs", int),
    ("gan", "checkpoint"): ("checkpoint_path", str),
}

_SECTIONS = {section for section, _ in _CONFIG_SCHEMA}


def parse_config(path) -> ExperimentConfig:
    """Parse a key=value config file; unknown sections or keys are errors."""
    values: dict[str, object] = {}
    section = None
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
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
            try:
                values[name] = parser(value)
            except ValueError:
                raise ConfigError(f"{path}:{line_no}: bad value {value!r} for {key}") from None
    try:
        return ExperimentConfig(**values)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def config_echo(cfg: ExperimentConfig) -> str:
    parts = [f"{name}={getattr(cfg, name)}" for name in cfg.__dataclass_fields__]
    return "\n".join(parts)


@dataclass
class ContractRow:
    side: str
    style: str
    strike: float
    t0_years: float
    sigma: float
    actual: float


def load_contracts(path) -> list[ContractRow]:
    """Load an option-contract fixture CSV: side,style,strike,t0_years,sigma,actual."""
    header = ["side", "style", "strike", "t0_years", "sigma", "actual"]
    contracts = []
    for i, (side, style, *numbers) in read_rows(path, header):
        try:
            strike, t0_years, sigma, actual = map(float, numbers)
        except ValueError:
            raise MarketDataError(f"{path}: bad numeric value at row {i}") from None
        contracts.append(
            ContractRow(side.strip(), style.strip(), strike, t0_years, sigma, actual)
        )
    return contracts


def mape(predicted, actual) -> float:
    """Mean absolute percentage error, as a percentage."""
    pred = np.asarray(predicted, dtype=float)
    act = np.asarray(actual, dtype=float)
    if pred.shape != act.shape or pred.ndim != 1:
        raise PricingError(f"length mismatch: {pred.shape} vs {act.shape}")
    if pred.shape[0] == 0:
        raise PricingError("empty inputs")
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
    return GanConfig(
        T=cfg.T,
        noise_dim=cfg.noise_dim,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        lr_generator=cfg.lr_generator,
        lr_discriminator=cfg.lr_discriminator,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        adam_eps=cfg.adam_eps,
        seed=cfg.seed,
        scale=scale,
        delta_loss=cfg.delta_loss,
        eps_std=cfg.eps_std,
        k_epochs=cfg.k_epochs,
    )


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
    after the probe epochs raises CollapseError.
    """
    prices = np.asarray(prices, dtype=float)
    if cfg.probe_epochs < 1:
        raise GanError(f"probe_epochs must be positive, got {cfg.probe_epochs}")
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

    d, _ = search_stride(prices, cfg.T, cfg.n1, probe)
    model, report = run
    if report.collapsed:
        raise CollapseError(f"training collapsed at stride d={d}: {report.collapse_reason}")
    return TrainedPipeline(
        model=model,
        report=report,
        d=d,
        reference=prices[-cfg.T :],
    )


def obtain_model(cfg: ExperimentConfig, prices: np.ndarray) -> TrainedPipeline:
    """Load the configured checkpoint, or train from scratch."""
    if cfg.checkpoint_path:
        model = load_checkpoint(cfg.checkpoint_path)
        if model.T != cfg.T:
            raise ConfigError(
                f"checkpoint window length {model.T} != configured T={cfg.T}"
            )
        prices = np.asarray(prices, dtype=float)
        return TrainedPipeline(
            model=model,
            report=TrainReport(),
            d=0,
            reference=prices[-cfg.T :],
        )
    return train_gan(cfg, prices)


def selected_tracks(pipe: TrainedPipeline, cfg: ExperimentConfig) -> np.ndarray:
    """Sample N2 tracks and keep the ones most similar to the last window."""
    tracks = sample(pipe.model, cfg.n2, cfg.seed)
    ranking = rank_and_select(tracks, pipe.reference, cfg.alpha)
    return tracks[ranking.selected]


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(name, exc) from exc


def _load_prices(cfg: ExperimentConfig) -> PriceSeries:
    return _stage("market_data", load_price_series, cfg.prices_path, cfg.symbol)


def _retained(cfg: ExperimentConfig) -> tuple[PriceSeries, np.ndarray]:
    """Load the history, obtain the model, and keep the most similar of N2 tracks."""
    series = _load_prices(cfg)
    prices = np.asarray(series.prices, dtype=float)
    pipe = _stage("gan_core", obtain_model, cfg, prices)
    return series, _stage("similarity", selected_tracks, pipe, cfg)


def run_pipeline(cfg: ExperimentConfig) -> EvalReport:
    """Price every contract in the fixture with the configured model."""
    started = time.monotonic()
    contracts = _stage("market_data", load_contracts, cfg.contracts_path)
    if cfg.model == "gan-mc":
        series, tracks = _retained(cfg)
    else:
        series = _load_prices(cfg)
    spot = series.prices[-1]

    if cfg.model.startswith("lr"):
        split = cfg.lr_train_rows
        if not (0 < split < len(contracts)):
            raise StageError(
                "baselines",
                ConfigError(f"lr_train_rows={split} must split {len(contracts)} contracts"),
            )
        regime = {"lr": "all", "lr-itm": "itm", "lr-otm": "otm"}[cfg.model]
        train_rows = [
            (spot, c.strike, c.t0_years, c.side, c.actual) for c in contracts[:split]
        ]
        pricer = _stage("baselines", fit_linear_pricer, train_rows, regime)
        test = contracts[split:]
    else:
        test = contracts

    rows: list[tuple[str, float, float, float]] = []
    for i, c in enumerate(test):
        contract_id = str(i)
        if cfg.model == "bs":
            predicted = _stage(
                "baselines", bs_price, c.side, spot, c.strike, cfg.r, c.sigma, c.t0_years
            )
        elif cfg.model == "mc":
            predicted = _stage(
                "baselines",
                gbm_mc_option,
                c.side,
                spot,
                c.strike,
                cfg.r,
                c.sigma,
                c.t0_years,
                cfg.n2,
                cfg.seed + i,
                cfg.dt,
                c.style,
            )
        elif cfg.model == "gan-mc":
            contract = OptionContract(
                side=c.side, style=c.style, strike=c.strike, t0_years=c.t0_years
            )
            predicted = _stage(
                "pricing_options", price_option, contract, tracks, cfg.r, cfg.dt
            ).value
        else:
            moneyness_row = (spot, c.strike, c.t0_years, c.side)
            try:
                predicted = lr_price(pricer, moneyness_row)
            except PricingError:
                continue  # outside the fitted regime
        ape = abs(predicted - c.actual) / abs(c.actual) if c.actual else float("inf")
        rows.append((contract_id, float(predicted), c.actual, float(ape)))

    if not rows:
        raise StageError("eval", PricingError("no contracts to evaluate"))
    score = _stage("eval", mape, [r[1] for r in rows], [r[2] for r in rows])
    return EvalReport(
        model=cfg.model,
        rows=rows,
        mape_percent=score,
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
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    keep = retained_count(cfg.n2, cfg.alpha)
    if count > keep:
        raise ConfigError(f"count {count} exceeds retained set size {keep}")
    _, tracks = _retained(cfg)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["track_id", "day_offset", "price"])
        # the retained set ascends in similarity, so its tail is the most similar
        for track_id, track in enumerate(tracks[-count:]):
            for day, price in enumerate(track, start=1):
                writer.writerow([track_id, day, repr(float(price))])


def price_equity_futures_pipeline(cfg: ExperimentConfig, t0_years: float) -> float:
    """End-to-end equity futures price: train/sample/filter plus dividend fit.

    The dividend trend is read T0/dt business days after the last price date.
    """
    if not cfg.dividends_path:
        raise ConfigError("equity futures pricing needs [data] dividends")
    dividends = _stage("market_data", load_dividends, cfg.dividends_path, cfg.symbol)
    fit = _stage("pricing_futures", fit_dividends, dividends)
    k = payoff_index(t0_years, cfg.dt, cfg.T)
    series, tracks = _retained(cfg)
    t_star = int(np.busday_count(dividends.origin, series.dates[-1])) + k
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
    quotes = _stage(
        "market_data", load_quotes, cfg.quotes_path, cfg.quote_id or cfg.symbol
    )
    carry = _stage("pricing_futures", estimate_carry, quotes, cfg.r, t0_years, cfg.n3)
    _, tracks = _retained(cfg)
    return _stage(
        "pricing_futures", price_commodity, tracks, carry, cfg.r, t0_years, cfg.dt
    )


def price_option_pipeline(cfg: ExperimentConfig, contract: OptionContract) -> float:
    """End-to-end option price from the configured price history."""
    _, tracks = _retained(cfg)
    return _stage("pricing_options", price_option, contract, tracks, cfg.r, cfg.dt).value
