"""The three workloads: `train`, `price` and `cli`.

Each workload is a closed loop with one client in this process. `setup`
makes the inputs (and, for `price` and `cli`, the model) in a directory
of its own and returns them as a new state; it is timed on its own. The
runner keeps the first state and repeats set-up later in the run only to
time it. `run_pass` does one fixed unit of work (`train`: one fit and the
strip requests; `price`: one request per N2 size; `cli`: one scripted
session) and returns the program time it took. Output checks run outside
the timed calls.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ganmc import cli, evaluation, futures, gan, market_data, options, similarity, windowing

import checks
import inputs as I
import layers
from checks import Quote
from spans import nullspan


@dataclass
class Op:
    """One operation of the closed loop (a request or a CLI command)."""

    seconds: float
    traced: bool
    tracks: int = 0


@dataclass
class Tally:
    ops: list[Op] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def record(self, errors: list[str]) -> None:
        """Count one checked operation, failed when any check reported an error."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def crash(self, label: str) -> None:
        print(f"{label} raised:\n{traceback.format_exc()}", file=sys.stderr)
        self.record([f"{label} raised {sys.exc_info()[1]!r}"])


class EpochCounter:
    """Counts training epochs run through `ganmc.evaluation.train`.

    `train_gan` reaches `train` for both the stride probe and the full run;
    this one wrapper per fit is the only instrumentation of an untraced run.
    """

    def __init__(self):
        self.epochs = 0
        self._original = None

    def __enter__(self):
        self._original = evaluation.train

        def counted(windows, cfg):
            model, report = self._original(windows, cfg)
            self.epochs += report.epochs_run
            return model, report

        evaluation.train = counted
        return self

    def __exit__(self, *exc):
        evaluation.train = self._original


def serve_model(prices: np.ndarray, path: Path, counter: EpochCounter) -> float:
    """Train and save the short-schedule model `price` and `cli` load; return the training time."""
    cfg = evaluation.ExperimentConfig(
        model="gan-mc", T=I.T, n1=I.N1, alpha=I.ALPHA, seed=I.GAN_SEED, r=I.R,
        batch_size=I.BATCH, epochs=I.SERVE_EPOCHS, probe_epochs=I.SERVE_PROBE_EPOCHS,
    )
    started = time.perf_counter()
    with counter:
        pipe = evaluation.train_gan(cfg, prices)
    seconds = time.perf_counter() - started
    gan.save_checkpoint(pipe.model, path)
    return seconds


def option_quotes(specs, contracts, kept: np.ndarray) -> list[Quote]:
    out = []
    for spec, contract in zip(specs, contracts):
        p = options.price_option(contract, kept, I.R, I.DT)
        out.append(Quote(spec.side, spec.style, spec.strike, spec.days, p.value, p.lower, p.upper))
    return out


def call_mape_pct(quotes: list[Quote], spot: float) -> float:
    """MAPE of the European calls against Black-Scholes at the history's volatility."""
    ape = [
        abs(q.value - ref) / ref
        for q in quotes
        if q.style == "european" and q.side == "call"
        for ref in [I.black_scholes("call", spot, q.strike, I.R, I.SIGMA, q.days * I.DT)]
    ]
    return 100.0 * float(np.mean(ape))


class Workload:
    name = ""
    setup_reps = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.tally = Tally()
        self.mapes: list[float] = []
        self.train_seconds = 0.0
        self.counter = EpochCounter()
        self.state = SimpleNamespace()

    def setup(self, workdir: Path) -> SimpleNamespace:
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed work done once before the loop, so caches fill before timing."""

    def run_pass(self, span, traced: bool) -> float:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks made once after the loop."""

    def kernels(self) -> dict:
        """Kernel timings for the traced run; only `train` has training shapes."""
        return {}

    def requests(self) -> list[Op]:
        """The untraced operations that `request_ms` and `tracks_per_s` summarise."""
        return [op for op in self.tally.ops if not op.traced]

    def end_to_end(self, pass_seconds: list[float]) -> dict:
        """End-to-end metric values from the untraced operations and passes."""
        ops = self.requests()
        latencies = sorted(op.seconds for op in ops)
        tail_pct, tail = tail_percentile(latencies)
        print(f"request_ms.tail is p{tail_pct:.1f} of {len(latencies)} requests")
        return {
            "run_s": statistics.median(pass_seconds),
            "request_ms.p50": 1e3 * statistics.median(latencies),
            "request_ms.tail": 1e3 * tail,
            "tracks_per_s": statistics.median(op.tracks / op.seconds for op in ops if op.tracks),
            "epochs_per_s": self.counter.epochs / self.train_seconds,
            "call_mape_pct": statistics.median(self.mapes),
        }


def tail_percentile(sorted_values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it; the maximum below 11 samples."""
    n = len(sorted_values)
    if n <= 10:
        return 100.0, sorted_values[-1]
    index = n - 11
    return 100.0 * (index + 1) / n, sorted_values[index]


class Train(Workload):
    """Fit-and-price operations: stride probe and full training, then strip requests.

    One operation is what `request_ms` times on this workload, so there
    it reads close to `run_s`.
    """

    name = "train"
    setup_reps = 30  # a set-up takes about 5 ms here, so take the median of many

    def setup(self, workdir: Path) -> SimpleNamespace:
        path = workdir / "prices.csv"
        I.write_prices(path, I.gbm_history())
        series = market_data.load_price_series(path, I.SYMBOL)
        prices = np.asarray(series.prices, dtype=float)
        spot = float(prices[-1])
        specs = [I.OptionSpec("call", "european", k, round(I.STRIP_T0 / I.DT)) for k in I.strip_strikes(spot)]
        return SimpleNamespace(
            prices=prices,
            spot=spot,
            cfg=evaluation.ExperimentConfig(
                model="gan-mc", T=I.T, n1=I.N1, n2=I.STRIP_N2, alpha=I.ALPHA, seed=I.GAN_SEED,
                r=I.R, batch_size=I.BATCH, epochs=I.TRAIN_EPOCHS, probe_epochs=I.TRAIN_PROBE_EPOCHS,
            ),
            specs=specs,
            contracts=[options.OptionContract("call", "european", s.strike, s.t0) for s in specs],
            seeds=I.strip_seeds(self.seed),
            first_values=None,
            model=None,
        )

    def run_pass(self, span, traced: bool) -> float:
        st = self.state
        started = time.perf_counter()
        try:
            with span("op"):
                with span("evaluation.train_gan"), self.counter:
                    pipe = evaluation.train_gan(st.cfg, st.prices)
                self.train_seconds += time.perf_counter() - started
                results = []
                for s in st.seeds:
                    with span("request"):
                        tracks = gan.sample(pipe.model, I.STRIP_N2, s)
                        ranking = similarity.rank_and_select(tracks, pipe.reference, I.ALPHA)
                        quotes = option_quotes(st.specs, st.contracts, tracks[ranking.selected])
                    results.append((len(ranking.selected), quotes))
        except Exception:  # noqa: BLE001 - a collapse or any program error is a failed op
            self.tally.crash("train op")
            return time.perf_counter() - started
        seconds = time.perf_counter() - started
        self.tally.ops.append(Op(seconds, traced, I.STRIP_N2 * len(st.seeds)))
        st.model = pipe.model
        values = [q.value for _, quotes in results for q in quotes]
        errors = checks.finite_errors("strip", values)
        for kept, quotes in results:
            errors += checks.retained_errors(kept, I.STRIP_N2)
            self.mapes.append(call_mape_pct(quotes, st.spot))
        if st.first_values is None:
            st.first_values = values
        errors += checks.identical_errors("repeated fit and strip", st.first_values, values)
        self.tally.record(errors)
        return seconds

    def kernels(self) -> dict:
        st = self.state
        if st.model is None:
            return {}
        windows = windowing.partition(st.prices, 1, I.T).windows
        return layers.kernel_metrics(st.model, windows, evaluation.gan_config_from(st.cfg, st.model.scale))


class Price(Workload):
    """A loaded model answering pricing requests over the N2 cycle."""

    name = "price"

    def setup(self, workdir: Path) -> SimpleNamespace:
        prices = I.gbm_history()
        rng = np.random.default_rng([self.seed, 4])
        paths = {name: workdir / f"{name}.csv" for name in ("prices", "dividends", "quotes")}
        I.write_prices(paths["prices"], prices)
        I.write_dividends(paths["dividends"], len(prices), rng)
        I.write_quotes(paths["quotes"], prices, rng)
        series = market_data.load_price_series(paths["prices"], I.SYMBOL)
        dividends = market_data.load_dividends(paths["dividends"], I.SYMBOL)
        quotes = market_data.load_quotes(paths["quotes"], I.SYMBOL)
        history = np.asarray(series.prices, dtype=float)
        self.train_seconds += serve_model(history, workdir / "model.gmc", self.counter)
        spot = float(history[-1])
        inputs = I.price_inputs(self.seed, spot)
        fit = futures.fit_dividends(dividends)
        return SimpleNamespace(
            model=gan.load_checkpoint(workdir / "model.gmc"),
            reference=history[-I.T:],
            spot=spot,
            inputs=inputs,
            contracts=[options.OptionContract(s.side, s.style, s.strike, s.t0) for s in inputs.book],
            dividend_forecast=futures.predict_dividend(fit, (len(history) - 1) + inputs.futures_days),
            carry=futures.estimate_carry(quotes, I.R, inputs.commodity_days * I.DT, 50),
            repeats=[],
        )

    def request(self, n2: int, seed: int, span):
        """Sample, filter and price the whole book; return prices, retained set and quotes."""
        st = self.state
        with span("request"):
            tracks = gan.sample(st.model, n2, seed)
            ranking = similarity.rank_and_select(tracks, st.reference, I.ALPHA)
            kept = tracks[ranking.selected]
            quotes = option_quotes(st.inputs.book, st.contracts, kept)
            fut = futures.price_equity_futures(
                st.spot, kept, st.dividend_forecast, I.R, st.inputs.futures_days * I.DT, I.DT)
            com = futures.price_commodity(kept, st.carry, I.R, st.inputs.commodity_days * I.DT, I.DT)
        return [q.value for q in quotes] + [fut, com], kept, quotes

    def checked_request(self, n2: int, seed: int, span, traced: bool) -> float:
        started = time.perf_counter()
        try:
            values, kept, quotes = self.request(n2, seed, span)
        except Exception:  # noqa: BLE001 - any program error is a failed request
            self.tally.crash(f"price request n2={n2}")
            return time.perf_counter() - started
        seconds = time.perf_counter() - started
        self.tally.ops.append(Op(seconds, traced, n2))
        errors = checks.retained_errors(kept.shape[0], n2)
        errors += checks.parity_errors(quotes, kept)
        errors += checks.american_errors(quotes)
        errors += checks.finite_errors("book", values)
        self.tally.record(errors)
        self.mapes.append(call_mape_pct(quotes, self.state.spot))
        return seconds

    def warmup(self) -> None:
        st = self.state
        for n2 in st.inputs.n2_cycle:
            seed = st.inputs.next_seed()
            try:
                values, _, _ = self.request(n2, seed, nullspan)
            except Exception:  # noqa: BLE001 - any program error is a failed request
                self.tally.crash(f"warm-up request n2={n2}")
                continue
            st.repeats.append((n2, seed, values))

    def run_pass(self, span, traced: bool) -> float:
        inputs = self.state.inputs
        return sum(self.checked_request(n2, inputs.next_seed(), span, traced) for n2 in inputs.n2_cycle)

    def finish(self) -> None:
        """Repeat each warm-up request and require bit-identical prices."""
        for n2, seed, values in self.state.repeats:
            try:
                again, _, _ = self.request(n2, seed, nullspan)
            except Exception:  # noqa: BLE001 - any program error is a failed request
                self.tally.crash(f"repeated request n2={n2}")
                continue
            self.tally.record(checks.identical_errors(f"request n2={n2} seed={seed}", values, again))


class Cli(Workload):
    """A scripted session of in-process `ganmc` commands on files written in set-up."""

    name = "cli"
    sampling = {"price-option", "price-equity-futures", "price-commodity", "generate"}

    def setup(self, workdir: Path) -> SimpleNamespace:
        prices = I.gbm_history()
        checkpoint = workdir / "model.gmc"
        self.train_seconds += serve_model(prices, checkpoint, self.counter)
        argvs, contracts = I.cli_inputs(self.seed, workdir, prices, checkpoint)
        kinds = list(I.CLI_MODELS) + [""] * (len(argvs) - len(I.CLI_MODELS))
        return SimpleNamespace(
            argvs=argvs,
            contracts=contracts,
            kinds=kinds,
            # commands that sample N2 tracks: gan-mc evaluate, the price-* commands and generate
            tracks=[I.CLI_N2 if kind == "gan-mc" or self.sampling & set(argv) else 0
                    for kind, argv in zip(kinds, argvs)],
            reference={},
        )

    def command(self, argv: list[str]) -> tuple[int, str, float]:
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue(), time.perf_counter() - started

    def outputs(self, argv: list[str], stdout: str) -> dict:
        """Everything a command produced that must repeat exactly."""
        produced = {"stdout": stdout}
        if "--out" in argv:
            produced["file"] = Path(argv[argv.index("--out") + 1]).read_bytes()
        return produced

    def session(self, span, traced: bool, timed: bool) -> float:
        st = self.state
        total = 0.0
        for i, (kind, argv, tracks) in enumerate(zip(st.kinds, st.argvs, st.tracks)):
            with span("cli.command") as record:
                rc, stdout, seconds = self.command(argv)
                if record is not None:
                    record.counts["failed"] = int(rc != 0)
            total += seconds
            if timed:
                self.tally.ops.append(Op(seconds, traced, tracks))
            if rc != 0:
                self.tally.record([f"`ganmc {' '.join(argv)}` exited {rc}: {stdout.strip()}"])
                continue
            produced = self.outputs(argv, stdout)
            first = st.reference.setdefault(i, produced)
            errors = []
            for key in first:
                errors += checks.identical_errors(" ".join(argv[2:]), first[key], produced[key])
            if kind == "bs":
                errors += checks.bs_report_errors(produced["file"].decode())
            elif kind == "gan-mc":
                self.mapes.append(self.gan_call_mape(produced["file"].decode()))
            self.tally.record(errors)
        return total

    def gan_call_mape(self, report: str) -> float:
        """MAPE over the fixture's European calls, from the rows of the gan-mc report."""
        contracts = self.state.contracts
        rows = [line.split(",") for line in report.splitlines()[1:-1]]
        ape = [
            abs(float(predicted) - float(actual)) / float(actual)
            for cid, predicted, actual, _ in rows
            if contracts[int(cid)].side == "call" and contracts[int(cid)].style == "european"
        ]
        return 100.0 * float(np.mean(ape))

    def requests(self) -> list[Op]:
        """The commands that sample N2 tracks from the model.

        The other six take from 5 to 400 ms and share no work. A median over
        all 11 commands would sit on the edge between the fast commands and
        the sampling ones, where a small shift in speed moves it a lot.
        """
        return [op for op in super().requests() if op.tracks]

    def warmup(self) -> None:
        self.session(nullspan, False, timed=False)

    def run_pass(self, span, traced: bool) -> float:
        return self.session(span, traced, timed=True)


WORKLOADS = {w.name: w for w in (Train, Price, Cli)}
