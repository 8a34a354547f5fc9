import math
import struct
import zlib
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ganmc
from ganmc.baselines import bs_price, gbm_mc_option
from ganmc.cli import main as cli_main
from ganmc import evaluation, gan
from ganmc.evaluation import (
    CollapseError,
    ConfigError,
    ExperimentConfig,
    StageError,
    gan_config_from,
    generate_tracks_csv,
    load_contracts,
    mape,
    obtain_model,
    parse_config,
    render_report,
    run_pipeline,
    selected_tracks,
    train_gan,
)
from ganmc.futures import (
    estimate_carry,
    fit_dividends,
    predict_dividend,
    price_commodity,
    price_equity_futures,
)
from ganmc.gan import GanConfig, TrainReport, save_checkpoint, train
from ganmc.market_data import MarketDataError, load_dividends, load_price_series, load_quotes
from ganmc.windowing import partition
from ganmc.options import OptionContract, PricingError, price_option

from conftest import gbm_prices, iso_dates, write_dividend_csv, write_price_csv, write_quote_csv


def write_contracts(path, rows):
    lines = ["side,style,strike,t0_years,sigma,actual"]
    lines += [f"{s},{st_},{k},{t},{sig},{a}" for s, st_, k, t, sig, a in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_config(path, **overrides):
    sections = {
        "data": {"prices": "", "symbol": "SYNTH"},
        "contracts": {"file": ""},
        "model": {"kind": "bs", "r": "0.05", "T": "16", "N1": "5", "N2": "64",
                  "alpha": "0.8", "seed": "0"},
        "gan": {"epochs": "50", "batch_size": "32", "probe_epochs": "10"},
    }
    for key, value in overrides.items():
        section, name = key.split("__")
        sections.setdefault(section, {})[name] = str(value)
    text = ""
    for section, entries in sections.items():
        text += f"[{section}]\n"
        for name, value in entries.items():
            if value != "":
                text += f"{name} = {value}\n"
    path.write_text(text)
    return path


@pytest.fixture
def fixture_files(tmp_path):
    prices = gbm_prices(300, seed=4)
    prices_path = write_price_csv(tmp_path / "prices.csv", prices.tolist())
    spot = prices[-1]
    contracts = [
        ("call", "european", round(0.95 * spot, 2), 63 / 252, 0.2, 10.0),
        ("put", "european", round(1.0 * spot, 2), 63 / 252, 0.2, 5.0),
        ("call", "american", round(1.05 * spot, 2), 63 / 252, 0.2, 2.0),
    ]
    contracts_path = write_contracts(tmp_path / "contracts.csv", contracts)
    return tmp_path, prices_path, contracts_path, spot, contracts


class TestMape:
    def test_exact_prediction_zero(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value_ten_percent(self):
        assert mape([11.0, 9.0], [10.0, 10.0]) == pytest.approx(10.0, abs=1e-12)

    def test_zero_actual_reports_index(self):
        with pytest.raises(PricingError, match="index 1"):
            mape([1.0, 2.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(PricingError, match="length mismatch"):
            mape([1.0], [1.0, 2.0])

    @given(st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 200)
        pred = rng.uniform(-10, 10, n)
        act = rng.uniform(0.1, 10, n)
        expected = 100.0 * sum(abs(p - a) / a for p, a in zip(pred, act)) / n
        assert mape(pred, act) == pytest.approx(expected, rel=1e-12)


# every config file key, as (section, key, ExperimentConfig field)
CONFIG_KEYS = [
    ("data", "prices", "prices_path"),
    ("data", "symbol", "symbol"),
    ("data", "dividends", "dividends_path"),
    ("data", "quotes", "quotes_path"),
    ("contracts", "file", "contracts_path"),
    ("contracts", "lr_train_rows", "lr_train_rows"),
    ("model", "kind", "model"),
    ("model", "r", "r"),
    ("model", "dt", "dt"),
    ("model", "T", "T"),
    ("model", "N1", "n1"),
    ("model", "N2", "n2"),
    ("model", "N3", "n3"),
    ("model", "alpha", "alpha"),
    ("model", "seed", "seed"),
    ("gan", "epochs", "epochs"),
    ("gan", "batch_size", "batch_size"),
    ("gan", "probe_epochs", "probe_epochs"),
    ("gan", "checkpoint", "checkpoint_path"),
]

# a value for every field that differs from its default, of the field's type
NON_DEFAULT = {
    "prices_path": "p.csv", "symbol": "XYZ", "dividends_path": "d.csv",
    "quotes_path": "q.csv", "contracts_path": "c.csv",
    "lr_train_rows": 7, "model": "lr-otm", "r": 0.03, "dt": 0.002, "T": 33,
    "n1": 11, "n2": 99, "n3": 5, "alpha": 0.6, "seed": 42,
    "epochs": 77, "batch_size": 16, "probe_epochs": 13, "checkpoint_path": "m.gmc",
}

# each number's valid range as its message reads it, then (boundary value,
# the value just outside) pairs; r declares none, since a negative rate is valid
RANGES = {
    "lr_train_rows": (">= 0", [(0, -1)]),
    "dt": ("positive", [(5e-324, 0.0)]),
    "T": (">= 1", [(1, 0)]),
    "n1": (">= 1", [(1, 0)]),
    "n2": (">= 1", [(1, 0)]),
    "n3": (">= 0", [(0, -1)]),
    "alpha": ("in (0,1)", [(5e-324, 0.0), (math.nextafter(1.0, 0.0), 1.0)]),
    "seed": (">= 0", [(0, -1)]),
    "epochs": ("positive", [(1, 0)]),
    "batch_size": ("positive", [(1, 0)]),
    "probe_epochs": ("positive", [(1, 0)]),
}

# every int or float field of the experiment config
NUMBERS = [f.name for f in fields(ExperimentConfig)
           if get_type_hints(ExperimentConfig)[f.name] in (int, float)]

# the hyperparameters the GAN takes from the experiment config
GAN_SHARED = ["T", "epochs", "batch_size", "seed"]

# keys that are GanConfig's own constants or were never read: a config naming one fails
REMOVED_KEYS = [("data", "quote_id")] + [
    ("gan", key) for key in (
        "noise_dim", "lr_generator", "lr_discriminator", "beta1", "beta2", "adam_eps",
        "delta_loss", "eps_std", "k_epochs",
    )
]


class TestConfigParsing:
    def test_schema_holds_exactly_the_reference_keys(self):
        derived = {(s, k, name) for (s, k), (name, _) in evaluation._CONFIG_SCHEMA.items()}
        assert derived == set(CONFIG_KEYS)
        assert len(evaluation._CONFIG_SCHEMA) == len(CONFIG_KEYS)

    def test_every_key_round_trips_with_its_type(self, tmp_path):
        defaults = ExperimentConfig()
        text = ""
        for section in dict.fromkeys(s for s, _, _ in CONFIG_KEYS):
            text += f"[{section}]\n"
            text += "".join(
                f"{k} = {NON_DEFAULT[name]}\n" for s, k, name in CONFIG_KEYS if s == section
            )
        (tmp_path / "cfg.txt").write_text(text)
        cfg = parse_config(tmp_path / "cfg.txt")
        for _, _, name in CONFIG_KEYS:
            value = NON_DEFAULT[name]
            assert getattr(defaults, name) != value, name
            assert getattr(cfg, name) == value, name
            assert type(getattr(cfg, name)) is type(getattr(defaults, name)), name

    def test_gan_config_carries_every_shared_hyperparameter(self):
        cfg = ExperimentConfig(**NON_DEFAULT)
        gan_cfg = gan_config_from(cfg, scale=2.5)
        gan_defaults = GanConfig(T=1)
        for name in GAN_SHARED:
            assert getattr(gan_cfg, name) == getattr(cfg, name), name
            assert getattr(gan_defaults, name) != getattr(cfg, name), name
        assert gan_cfg.scale == 2.5

    def test_gan_defaults_are_gan_configs(self):
        defaults = ExperimentConfig()
        for name in ("seed", "epochs", "batch_size"):  # T has no GanConfig default
            assert getattr(defaults, name) == getattr(GanConfig, name), name

    def test_round_trip_values(self, tmp_path):
        path = write_config(
            tmp_path / "cfg.txt",
            data__prices="p.csv", contracts__file="c.csv",
            model__kind="mc", model__alpha="0.75", gan__epochs="123",
        )
        cfg = parse_config(path)
        assert cfg.model == "mc"
        assert cfg.alpha == 0.75
        assert cfg.epochs == 123
        assert cfg.prices_path == "p.csv"

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("[model]\nkind = bs\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_key_given_twice_is_hard_error(self, tmp_path):
        # the section may open again; the key may not be set again
        path = tmp_path / "cfg.txt"
        path.write_text("[model]\nN2 = 5120\n[gan]\nepochs = 5\n[model]\nN2 = 64\n")
        with pytest.raises(ConfigError, match=r"^\S*cfg\.txt:6: key 'N2' in \[model\] "
                                              r"already given on line 2$"):
            parse_config(path)

    def test_unknown_section_is_hard_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("[misc]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("[model]\nT = not-a-number\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(path)

    @pytest.mark.parametrize(
        "line", ["r = nan", "dt = inf", "alpha = -inf"], ids=["r_nan", "dt_inf", "alpha_minus_inf"]
    )
    def test_non_finite_float_is_bad_value(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(f"[model]\n{line}\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt:2: bad value"):
            parse_config(path)

    def test_nonpositive_probe_epochs_is_config_error(self, tmp_path):
        # rejected by the parser, before the (missing) price file is read
        path = write_config(tmp_path / "cfg.txt", data__prices=tmp_path / "missing.csv",
                            model__kind="gan-mc", gan__probe_epochs="0")
        with pytest.raises(ConfigError, match="^probe_epochs must be positive, got 0$"):
            parse_config(path)

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            ExperimentConfig(seed=-1)
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            replace(ExperimentConfig(), seed=-1)

    @pytest.mark.parametrize("name", NUMBERS)
    def test_number_declares_its_range(self, name):
        declared = {f.name: f.metadata.get("valid") for f in fields(ExperimentConfig)}[name]
        if name == "r":
            assert declared is None
            assert ExperimentConfig(r=-0.5).r == -0.5
            return
        phrase, boundaries = RANGES[name]
        assert declared == phrase
        key = next(k for _, k, n in CONFIG_KEYS if n == name)
        for inside, outside in boundaries:
            assert getattr(ExperimentConfig(**{name: inside}), name) == inside
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig(**{name: outside})
            assert str(exc.value) == f"{key} must be {phrase}, got {outside}"

    def test_unknown_model_kind(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("[model]\nkind = perceptron\n")
        with pytest.raises(ConfigError, match="unknown model kind"):
            parse_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# experiment\n[model]\n\nkind = bs  # closed form\n")
        assert parse_config(path).model == "bs"

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Notepad saves UTF-8 text with a byte-order mark
        plain = write_config(tmp_path / "plain.cfg", data__prices="p.csv", model__N2="128")
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config(bom) == parse_config(plain)

    def test_text_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        # a Latin-1 byte (0xe9) where UTF-8 expects a continuation byte
        path = tmp_path / "cfg.txt"
        path.write_bytes("[data]\nsymbol = Soci\u00e9t\u00e9\n".encode("latin-1"))
        assert cli_main(["--config", str(path), "price-option", "--side", "call",
                         "--strike", "100", "--t0", "0.1"]) == 1
        message = f"{path}: not UTF-8 text (invalid continuation byte)"
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRunPipeline:
    def test_bs_rows_match_direct_calls(self, fixture_files, tmp_path):
        _, prices_path, contracts_path, spot, contracts = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path, model__kind="bs",
        )
        report = run_pipeline(parse_config(cfg_path))
        assert len(report.rows) == 3
        for row, c in zip(report.rows, contracts):
            expected = bs_price(c[0], spot, c[2], 0.05, c[4], c[3])
            assert row[1] == pytest.approx(expected, rel=1e-12)

    def test_missing_data_file_stage_error(self, fixture_files, tmp_path):
        _, _, contracts_path, _, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=tmp_path / "missing.csv", contracts__file=contracts_path,
        )
        with pytest.raises(StageError, match=r"\[market_data\]"):
            run_pipeline(parse_config(cfg_path))

    def test_mc_model_deterministic(self, fixture_files, tmp_path):
        _, prices_path, contracts_path, _, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path,
            model__kind="mc", model__N2="500",
        )
        a = run_pipeline(parse_config(cfg_path))
        b = run_pipeline(parse_config(cfg_path))
        assert render_report(a) == render_report(b)

    def test_lr_model_fits_and_scores(self, tmp_path):
        prices = gbm_prices(300, seed=4)
        prices_path = write_price_csv(tmp_path / "prices.csv", prices.tolist())
        spot = prices[-1]
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(20):
            strike = float(rng.uniform(0.8, 1.2) * spot)
            tau = float(rng.choice([21, 42, 63])) / 252
            actual = 1.0 + 4.0 * spot / strike + 2.0 * tau
            rows.append(("call", "european", round(strike, 4), tau, 0.2, round(actual, 6)))
        contracts_path = write_contracts(tmp_path / "contracts.csv", rows)
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path,
            model__kind="lr", contracts__lr_train_rows="15",
        )
        report = run_pipeline(parse_config(cfg_path))
        assert [row[0] for row in report.rows] == [str(i) for i in range(15, 20)]
        assert report.mape_percent < 0.1  # affine data is recovered

    @pytest.mark.parametrize("regime", ["itm", "otm"])
    def test_lr_regime_reports_its_test_rows_at_the_fitted_price(self, tmp_path, regime):
        # each regime's prices follow their own affine law in (1, s/X, tau), so a
        # fit on the other regime's rows, or on both, misprices the test rows
        prices = gbm_prices(300, seed=4)
        prices_path = write_price_csv(tmp_path / "prices.csv", prices.tolist())
        spot = prices[-1]
        laws = {"itm": (1.0, 4.0, 2.0), "otm": (0.5, -0.3, 1.0)}

        def regime_of(side, strike):  # at the money is out of the money
            itm = strike < spot if side == "call" else strike > spot
            return "itm" if itm else "otm"

        def law(side, strike, tau):
            a, b, c = laws[regime_of(side, strike)]
            return a + b * spot / strike + c * tau

        train = [("call", 0.8, 21), ("call", 0.9, 42), ("put", 1.1, 63), ("put", 1.25, 21),
                 ("call", 0.85, 63), ("call", 1.1, 21), ("call", 1.2, 42), ("put", 0.9, 63),
                 ("put", 0.8, 21), ("call", 1.15, 63), ("put", 0.95, 42)]
        test = [("call", 0.95, 42), ("call", 1.05, 42), ("put", 1.05, 21), ("put", 0.92, 63),
                ("call", 1.0, 21), ("put", 1.0, 42)]
        rows = []
        for side, k, days in train + test:
            strike, tau = k * spot, days / 252
            rows.append((side, "european", strike, tau, 0.2, law(side, strike, tau)))
        contracts_path = write_contracts(tmp_path / "contracts.csv", rows)
        cfg_path = write_config(
            tmp_path / "cfg.txt", data__prices=prices_path, contracts__file=contracts_path,
            model__kind=f"lr-{regime}", contracts__lr_train_rows=str(len(train)),
        )
        report = run_pipeline(parse_config(cfg_path))
        expected = [i for i, (side, _, strike, *_) in enumerate(rows)
                    if i >= len(train) and regime_of(side, strike) == regime]
        assert [row[0] for row in report.rows] == [str(i) for i in expected]
        assert len(expected) == {"itm": 2, "otm": 4}[regime]
        for _, predicted, actual, _ in report.rows:  # actual: the regime's law at the row
            assert predicted == pytest.approx(actual, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "kind, split, message, cause",
        [("lr", "0", "[baselines] lr_train_rows=0 must split 8 contracts", ConfigError),
         ("lr-itm", "4", "[eval] no contracts to evaluate", PricingError)],
        ids=["lr_train_rows_out_of_range", "no_contract_in_regime"],
    )
    def test_stage_error_keeps_its_cause(self, tmp_path, kind, split, message, cause):
        # the four training rows are calls in the money, the four test rows out of it
        prices = gbm_prices(300, seed=4)
        prices_path = write_price_csv(tmp_path / "prices.csv", prices.tolist())
        rows = [("call", "european", round(m * prices[-1], 4), 21 * (1 + i % 3) / 252, 0.2, 5.0 + i)
                for i, m in enumerate((0.8, 0.85, 0.9, 0.95, 1.05, 1.1, 1.15, 1.2))]
        contracts_path = write_contracts(tmp_path / "contracts.csv", rows)
        cfg_path = write_config(
            tmp_path / "cfg.txt", data__prices=prices_path, contracts__file=contracts_path,
            model__kind=kind, contracts__lr_train_rows=split,
        )
        with pytest.raises(StageError) as exc:
            run_pipeline(parse_config(cfg_path))
        assert str(exc.value) == message
        assert isinstance(exc.value.__cause__, cause)

    def test_zero_actual_names_fixture_row(self, tmp_path):
        # contract 7 (file row 9) lies past lr_train_rows, so it is the second
        # reported row: the loader, not mape, must name it
        prices_path = write_price_csv(tmp_path / "prices.csv", gbm_prices(300, seed=4).tolist())
        rows = [("call", "european", 90.0 + i, 21 * (1 + i % 3) / 252, 0.2, 5.0 + i)
                for i in range(10)]
        rows[7] = rows[7][:5] + (0.0,)
        contracts_path = write_contracts(tmp_path / "contracts.csv", rows)
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path,
            model__kind="lr", contracts__lr_train_rows="6",
        )
        with pytest.raises(StageError, match=r"\[market_data\] .*contracts\.csv: .* zero at row 9"):
            run_pipeline(parse_config(cfg_path))

    def test_gan_mc_small_run(self, tmp_path):
        prices = gbm_prices(260, seed=9)
        prices_path = write_price_csv(tmp_path / "prices.csv", prices.tolist())
        spot = prices[-1]
        contracts_path = write_contracts(
            tmp_path / "contracts.csv",
            [("call", "european", round(spot, 2), 16 / 252, 0.2, 3.0)],
        )
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path,
            model__kind="gan-mc", model__T="16", model__N1="5", model__N2="64",
            gan__epochs="60", gan__probe_epochs="5",
        )
        report = run_pipeline(parse_config(cfg_path))
        assert len(report.rows) == 1
        assert report.rows[0][1] >= 0.0


class TestTrainGan:
    def _cfg(self, **overrides):
        values = dict(model="gan-mc", T=16, n1=5, seed=0, epochs=40, batch_size=32, probe_epochs=5)
        values.update(overrides)
        return ExperimentConfig(**values)

    def test_model_is_the_full_run_at_the_chosen_stride(self, tmp_path):
        prices = gbm_prices(260, seed=2)
        cfg = self._cfg()
        pipe = train_gan(cfg, prices)
        ws = partition(prices, pipe.d, cfg.T)
        full_cfg = evaluation.gan_config_from(cfg, 1.0)
        model, report = train(ws.windows, full_cfg)
        save_checkpoint(pipe.model, tmp_path / "pipe.gmc")
        save_checkpoint(model, tmp_path / "full.gmc")
        assert (tmp_path / "pipe.gmc").read_bytes() == (tmp_path / "full.gmc").read_bytes()
        assert pipe.report.epochs_run == report.epochs_run == cfg.epochs

    def _scripted(self, monkeypatch, collapse_at):
        """Replace `train` by a stub that collapses at stride d after collapse_at[d] epochs."""
        calls = []

        def fake_train(windows, cfg):
            # strides are tried as 1, 2, ...; each has at least N1 windows here
            d = len(calls) + 1
            calls.append((d, cfg.epochs))
            stop = collapse_at.get(d)
            epochs = cfg.epochs if stop is None else stop
            losses = [1.0] * epochs
            reason = None if stop is None else "scripted"
            return object(), TrainReport(losses, losses, collapse_reason=reason)

        monkeypatch.setattr(evaluation, "train", fake_train)
        return calls

    def test_one_training_call_per_stride(self, monkeypatch):
        # d=1 collapses inside the probe epochs, d=2 at the last probe epoch
        calls = self._scripted(monkeypatch, {1: 3, 2: 5})
        pipe = train_gan(self._cfg(), gbm_prices(260, seed=2))
        assert pipe.d == 3
        assert calls == [(1, 40), (2, 40), (3, 40)]

    def test_collapse_after_probe_epochs_raises(self, monkeypatch):
        calls = self._scripted(monkeypatch, {1: 3, 2: 6})
        with pytest.raises(CollapseError, match="d=2"):
            train_gan(self._cfg(), gbm_prices(260, seed=2))
        assert calls == [(1, 40), (2, 40)]

    def test_probe_epochs_beyond_epochs_probe_the_whole_run(self, monkeypatch):
        # probe_epochs > epochs: the probe is min(probe_epochs, epochs) = 10
        # epochs; the run stops at epoch 10, so nothing later can reject it
        calls = self._scripted(monkeypatch, {1: 10})
        pipe = train_gan(self._cfg(epochs=10, probe_epochs=50), gbm_prices(260, seed=2))
        assert pipe.d == 2
        assert calls == [(1, 10), (2, 10)]

    def test_nonpositive_probe_epochs_rejected(self):
        with pytest.raises(ValueError, match="probe_epochs"):
            train_gan(self._cfg(probe_epochs=0), gbm_prices(260, seed=2))

    # 260 prices at T=16: 245 windows at d=1, 16 at d=16
    EVERY_STRIDE = {d: 3 for d in range(1, 17)}

    def test_collapse_at_every_stride_raises_collapse_error(self, monkeypatch):
        calls = self._scripted(monkeypatch, self.EVERY_STRIDE)
        with pytest.raises(CollapseError, match=r"^no viable stride \(d=1: probe collapsed; .*"
                                                r"d=16: probe collapsed\)$"):
            train_gan(self._cfg(), gbm_prices(260, seed=2))
        assert [d for d, _ in calls] == list(range(1, 17))

    @pytest.mark.parametrize("n1, code, trained", [(5, 2, 16), (300, 1, 0)],
                             ids=["collapse_at_every_stride", "history_too_short_for_n1"])
    def test_no_viable_stride_exit_code(self, monkeypatch, tmp_path, capsys, n1, code, trained):
        # a history too short for N1 at d=1 stays a NoViableStrideError, a ValueError
        calls = self._scripted(monkeypatch, self.EVERY_STRIDE)
        prices_path = write_price_csv(tmp_path / "prices.csv", gbm_prices(260, seed=2).tolist())
        cfg_path = write_config(tmp_path / "cfg.txt", data__prices=prices_path,
                                model__kind="gan-mc", model__N1=n1)
        argv = ["--config", str(cfg_path), "--out", str(tmp_path / "m.gmc"), "train"]
        assert cli_main(argv) == code
        assert "no viable stride (d=1: " in capsys.readouterr().err
        assert len(calls) == trained


class TestGenerateTracks:
    def _cfg(self, tmp_path, count_n2=64):
        prices = gbm_prices(260, seed=2)
        prices_path = write_price_csv(tmp_path / "prices.csv", prices.tolist())
        return ExperimentConfig(
            prices_path=str(prices_path), symbol="SYNTH", model="gan-mc",
            T=16, n1=5, n2=count_n2, alpha=0.8, seed=0, epochs=40, batch_size=32,
            probe_epochs=5,
        )

    def test_row_count_is_count_times_t(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out = tmp_path / "tracks.csv"
        generate_tracks_csv(cfg, 2, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "track_id,day_offset,price"
        assert len(lines) == 1 + 2 * 16

    def test_zero_count_rejected(self, tmp_path):
        cfg = self._cfg(tmp_path)
        with pytest.raises(ConfigError, match="count"):
            generate_tracks_csv(cfg, 0, tmp_path / "t.csv")

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = self._cfg(tmp_path)
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        generate_tracks_csv(cfg, 2, out1)
        generate_tracks_csv(cfg, 2, out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestContractsLoader:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(MarketDataError, match="expected header"):
            load_contracts(path)

    def test_loads_rows(self, tmp_path):
        path = write_contracts(
            tmp_path / "c.csv", [("call", "european", 100.0, 0.25, 0.2, 5.0)]
        )
        rows = load_contracts(path)
        assert rows[0].contract == OptionContract("call", "european", 100.0, 0.25)
        assert (rows[0].sigma, rows[0].actual) == (0.2, 5.0)

    @pytest.mark.parametrize(
        "bad_row",
        [
            ("cal", "european", 100.0, 0.25, 0.2, 5.0),
            ("call", "europe", 100.0, 0.25, 0.2, 5.0),
            ("call", "european", 100.0, -0.25, 0.2, 5.0),
            ("call", "european", 100.0, 0.25, 0.0, 5.0),
            ("call", "european", 100.0, 0.25, -0.2, 5.0),
        ],
        ids=["side", "style", "t0_years", "sigma_zero", "sigma_negative"],
    )
    def test_invalid_contract_names_file_and_row(self, tmp_path, bad_row):
        path = write_contracts(
            tmp_path / "c.csv", [("put", "american", 95.0, 0.5, 0.2, 3.0), bad_row]
        )
        with pytest.raises(MarketDataError, match=r"c\.csv: .* at row 3"):
            load_contracts(path)


class TestCli:
    def test_evaluate_bs_exit_zero_and_deterministic(self, fixture_files, tmp_path, capsys):
        _, prices_path, contracts_path, _, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path, model__kind="bs",
        )
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli_main(["--config", str(cfg_path), "--out", str(out1), "evaluate"]) == 0
        assert cli_main(["--config", str(cfg_path), "--out", str(out2), "evaluate"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "r1.csv.meta.txt").exists()

    def test_sidecar_echoes_every_config_field(self, fixture_files, tmp_path):
        _, prices_path, contracts_path, _, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path, model__kind="bs",
        )
        out = tmp_path / "r.csv"
        assert cli_main(["--config", str(cfg_path), "--out", str(out), "evaluate"]) == 0
        cfg = parse_config(cfg_path)
        meta = (tmp_path / "r.csv.meta.txt").read_text().splitlines()
        assert meta[:2] == [f"version: {ganmc.__version__}", "model: bs"]
        assert meta[2].startswith("wall_time_seconds: ")
        assert meta[3] == "config:"
        assert meta[4:] == [f"{name}={getattr(cfg, name)}" for _, _, name in CONFIG_KEYS]
        echoed = {line.partition("=")[0] for line in meta[4:]}
        assert echoed.isdisjoint(key for _, key in REMOVED_KEYS)

    @pytest.mark.parametrize("section, key", REMOVED_KEYS, ids=[k for _, k in REMOVED_KEYS])
    def test_removed_key_is_unknown_exit_one(self, tmp_path, capsys, section, key):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(f"[{section}]\n{key} = 1\n")
        assert cli_main(["--config", str(cfg_path), "evaluate"]) == 1
        assert f"unknown key {key!r} in [{section}]" in capsys.readouterr().err

    def test_evaluate_american_row_under_negative_rate(self, fixture_files, tmp_path):
        _, prices_path, contracts_path, _, contracts = fixture_files
        assert any(style == "american" for _, style, *_ in contracts)
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path, model__kind="mc",
            model__r="-0.01",
        )
        out = tmp_path / "r.csv"
        assert cli_main(["--config", str(cfg_path), "--out", str(out), "evaluate"]) == 0
        assert len(out.read_text().splitlines()) == len(contracts) + 2  # header, MAPE

    def test_checkpoint_without_layers_exit_one(self, fixture_files, tmp_path, capsys):
        _, prices_path, contracts_path, _, _ = fixture_files
        body = (gan.CHECKPOINT_MAGIC + struct.pack("<II", gan.CHECKPOINT_VERSION, 0)
                + struct.pack("<dI", 1.0, 0))  # no generator layers
        ckpt = tmp_path / "empty.gmc"
        ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path, model__kind="gan-mc",
            gan__checkpoint=ckpt,
        )
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "t.csv"),
                         "generate", "--count", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "[gan_core]" in err and "no layers" in err

    def test_missing_file_exit_two(self, fixture_files, tmp_path):
        _, _, contracts_path, _, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=tmp_path / "nope.csv", contracts__file=contracts_path,
        )
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "r.csv"), "evaluate"])
        assert code == 2  # missing file surfaces as an OS error at runtime

    def test_bad_contracts_file_exit_one_at_market_data(self, fixture_files, tmp_path, capsys):
        _, prices_path, _, _, _ = fixture_files
        contracts_path = tmp_path / "bad.csv"
        contracts_path.write_text("a,b,c\n1,2,3\n")
        cfg_path = write_config(
            tmp_path / "cfg.txt", data__prices=prices_path, contracts__file=contracts_path,
        )
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "r.csv"), "evaluate"])
        assert code == 1
        assert "[market_data]" in capsys.readouterr().err

    def test_unknown_config_key_exit_one(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("[model]\nbogus = 1\n")
        assert cli_main(["--config", str(cfg_path), "evaluate"]) == 1

    def test_baseline_bs_prints_price(self, fixture_files, tmp_path, capsys):
        _, prices_path, contracts_path, spot, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path,
        )
        code = cli_main([
            "--config", str(cfg_path), "baseline", "--model", "bs",
            "--side", "call", "--strike", "100", "--t0", "0.25", "--sigma", "0.2",
        ])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(bs_price("call", spot, 100.0, 0.05, 0.2, 0.25), abs=1e-6)

    def test_baseline_bs_rejects_american(self, fixture_files, tmp_path, capsys):
        _, prices_path, contracts_path, _, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path,
        )
        code = cli_main([
            "--config", str(cfg_path), "baseline", "--model", "bs", "--style", "american",
            "--side", "put", "--strike", "100", "--t0", "0.25", "--sigma", "0.2",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "European options only" in captured.err

    @pytest.mark.parametrize("style", ["european", "american"])
    def test_baseline_mc_prints_gbm_mc_at_config_seed(self, fixture_files, tmp_path, capsys, style):
        _, prices_path, contracts_path, spot, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt",
            data__prices=prices_path, contracts__file=contracts_path, model__seed="7",
        )
        cfg = parse_config(cfg_path)
        code = cli_main([
            "--config", str(cfg_path), "baseline", "--model", "mc", "--style", style,
            "--side", "put", "--strike", "100", "--t0", "0.25", "--sigma", "0.2",
        ])
        assert code == 0
        expected = gbm_mc_option("put", spot, 100.0, cfg.r, 0.2, 0.25, cfg.n2, 7, cfg.dt, style)
        assert capsys.readouterr().out == f"{expected:.6f}\n"

    def test_baseline_nonpositive_t0_is_a_contract_error(self, fixture_files, tmp_path, capsys):
        _, prices_path, contracts_path, _, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt", data__prices=prices_path, contracts__file=contracts_path,
        )
        code = cli_main([
            "--config", str(cfg_path), "baseline", "--model", "bs",
            "--side", "call", "--strike", "100", "--t0", "0", "--sigma", "0.2",
        ])
        assert code == 1
        assert "time to expiry must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["0", "-0.2"])
    @pytest.mark.parametrize("model", ["bs", "mc"])
    def test_baseline_nonpositive_sigma_exit_one(self, fixture_files, tmp_path, capsys, model,
                                                 sigma):
        _, prices_path, contracts_path, _, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt", data__prices=prices_path, contracts__file=contracts_path,
        )
        code = cli_main([
            "--config", str(cfg_path), "baseline", "--model", model,
            "--side", "call", "--strike", "100", "--t0", "0.25", "--sigma", sigma,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: baseline --sigma must be positive, got {float(sigma)}\n"

    def test_baseline_missing_prices_file_exit_two_at_market_data(self, tmp_path, capsys):
        prices = tmp_path / "nope.csv"
        cfg_path = write_config(tmp_path / "cfg.txt", data__prices=prices)
        code = cli_main([
            "--config", str(cfg_path), "baseline", "--model", "bs",
            "--side", "call", "--strike", "100", "--t0", "0.25", "--sigma", "0.2",
        ])
        assert code == 2  # the market_data stage's cause is an OSError
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [market_data] ")
        assert str(prices) in captured.err

    def test_train_missing_prices_file_exit_two(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "cfg.txt", data__prices=tmp_path / "nope.csv", model__kind="gan-mc",
        )
        code = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "m.gmc"), "train"])
        assert code == 2  # the market_data stage's cause is an OSError

    @pytest.mark.parametrize(
        "argv",
        [
            ["baseline", "--model", "bs", "--side", "call", "--strike", "100", "--t0", "inf",
             "--sigma", "0.2"],
            ["baseline", "--model", "bs", "--side", "call", "--strike", "100", "--t0", "0.25",
             "--sigma", "inf"],
            ["baseline", "--model", "mc", "--side", "call", "--strike", "nan", "--t0", "0.25",
             "--sigma", "0.2"],
            ["price-option", "--side", "put", "--strike", "inf", "--t0", "0.25"],
            ["price-option", "--side", "call", "--strike", "100", "--t0", "inf"],
            ["price-equity-futures", "--t0", "nan"],
            ["price-commodity", "--t0", "inf"],
            ["price-commodity", "--t0", "abc"],
        ],
        ids=["baseline_t0", "baseline_sigma", "baseline_strike_nan", "option_strike",
             "option_t0", "equity_futures_t0", "commodity_t0", "not_a_number"],
    )
    def test_non_finite_number_is_a_usage_error(self, fixture_files, tmp_path, capsys, argv):
        _, prices_path, contracts_path, _, _ = fixture_files
        cfg_path = write_config(
            tmp_path / "cfg.txt", data__prices=prices_path, contracts__file=contracts_path,
        )
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(cfg_path), *argv])
        assert exc.value.code == 2
        assert "invalid finite float value" in capsys.readouterr().err


@pytest.fixture(scope="module")
def command_files(tmp_path_factory):
    """Price history, dividends, quotes and a saved small checkpoint (T=16, N2=64)."""
    root = tmp_path_factory.mktemp("commands")
    prices = gbm_prices(260, seed=2)
    prices_path = write_price_csv(root / "prices.csv", prices.tolist())
    dividends_path = write_dividend_csv(root / "dividends.csv", np.linspace(1.0, 1.5, 260).tolist())
    quotes_path = write_quote_csv(
        root / "quotes.csv", [(p + 1.0 + 0.01 * i, 0.25, p) for i, p in enumerate(prices[-20:])]
    )
    base = dict(
        data__prices=prices_path, data__dividends=dividends_path, data__quotes=quotes_path,
        model__kind="gan-mc", model__N3="9",
    )
    pipe = train_gan(parse_config(write_config(root / "train.cfg", **base)), prices)
    checkpoint = root / "model.gmc"
    save_checkpoint(pipe.model, checkpoint)
    return root, base, checkpoint


class TestPriceCommands:
    """Each GAN-MC command prints the price of its pricer on the retained tracks."""

    T0 = 10 / 252

    @pytest.fixture
    def setup(self, command_files):
        root, base, checkpoint = command_files
        cfg_path = write_config(root / "saved.cfg", gan__checkpoint=checkpoint, **base)
        cfg = parse_config(cfg_path)
        prices = np.asarray(load_price_series(cfg.prices_path, cfg.symbol).prices)
        tracks = selected_tracks(obtain_model(cfg, prices), prices[-cfg.T :], cfg)
        return cfg_path, cfg, prices, tracks

    def _printed(self, capsys, cfg_path, *argv):
        assert cli_main(["--config", str(cfg_path), *argv]) == 0
        return capsys.readouterr().out.strip()

    @pytest.mark.parametrize("style", ["european", "american"])
    def test_price_option(self, setup, capsys, style):
        cfg_path, cfg, _, tracks = setup
        contract = OptionContract(side="call", style=style, strike=100.0, t0_years=self.T0)
        expected = price_option(contract, tracks, cfg.r, cfg.dt).value
        printed = self._printed(
            capsys, cfg_path, "price-option", "--side", "call", "--style", style,
            "--strike", "100", "--t0", repr(self.T0),
        )
        assert printed == f"{expected:.6f}"

    def test_price_equity_futures(self, setup, capsys):
        cfg_path, cfg, prices, tracks = setup
        fit = fit_dividends(load_dividends(cfg.dividends_path, cfg.symbol))
        forecast = predict_dividend(fit, (len(prices) - 1) + 10)
        expected = price_equity_futures(prices[-1], tracks, forecast, cfg.r, self.T0, cfg.dt)
        printed = self._printed(capsys, cfg_path, "price-equity-futures", "--t0", repr(self.T0))
        assert printed == f"{expected:.6f}"

    def test_quarterly_dividends_are_read_on_business_days(self, command_files, tmp_path, capsys):
        # 8 dividends on every 63rd weekday from the first price date, rising
        # 0.1 a quarter; the forecast is 499 + 10 business days after the first
        _, base, checkpoint = command_files
        days = iso_dates(500)
        prices_path = write_price_csv(tmp_path / "prices.csv", gbm_prices(500, seed=3).tolist(), days)
        dividends_path = write_dividend_csv(
            tmp_path / "dividends.csv", [1.0 + 0.1 * i for i in range(8)], days[::63][:8]
        )
        cfg_path = write_config(
            tmp_path / "cfg.txt", gan__checkpoint=checkpoint,
            **{**base, "data__prices": prices_path, "data__dividends": dividends_path},
        )
        cfg = parse_config(cfg_path)
        prices = np.asarray(load_price_series(cfg.prices_path, cfg.symbol).prices)
        tracks = selected_tracks(obtain_model(cfg, prices), prices[-cfg.T :], cfg)
        forecast = 1.0 + 0.1 * 509 / 63
        expected = price_equity_futures(prices[-1], tracks, forecast, cfg.r, self.T0, cfg.dt)
        printed = self._printed(capsys, cfg_path, "price-equity-futures", "--t0", repr(self.T0))
        assert float(printed) == pytest.approx(expected, abs=1e-6)

    def test_price_commodity(self, setup, capsys):
        cfg_path, cfg, _, tracks = setup
        carry = estimate_carry(load_quotes(cfg.quotes_path, cfg.symbol), cfg.r, self.T0, cfg.n3)
        expected = price_commodity(tracks, carry, cfg.r, self.T0, cfg.dt)
        printed = self._printed(capsys, cfg_path, "price-commodity", "--t0", repr(self.T0))
        assert printed == f"{expected:.6f}"

    def test_generate_writes_the_last_retained_tracks(self, setup, tmp_path):
        cfg_path, _, _, tracks = setup
        out = tmp_path / "tracks.csv"
        assert cli_main(["--config", str(cfg_path), "--out", str(out), "generate", "--count", "5"]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        written = np.array([float(row.split(",")[2]) for row in rows]).reshape(5, 16)
        np.testing.assert_array_equal(written, tracks[-5:])

    def test_window_length_mismatch_names_the_checkpoint(self, command_files, tmp_path, capsys):
        _, base, checkpoint = command_files
        cfg_path = write_config(tmp_path / "cfg.txt", gan__checkpoint=checkpoint,
                                **{**base, "model__T": "32"})
        code = cli_main(["--config", str(cfg_path), "price-commodity", "--t0", repr(self.T0)])
        assert code == 1
        assert f"{checkpoint}: window length 16 != configured T=32" in capsys.readouterr().err


class TestReadingSeam:
    """`_retained` samples and ranks once per command and hands each pricer
    the retained paths from day 1 to its own payoff day k."""

    # position of the paths among each pricer's arguments
    PATHS_ARG = {"price_option": 1, "price_equity_futures": 1, "price_commodity": 0}

    @pytest.fixture
    def calls(self, monkeypatch):
        """The command's calls to `sample`, `rank_and_select` and the pricers,
        in order; a pricer call is recorded with its paths' column count."""
        seen = []

        def record(name):
            original = getattr(evaluation, name)

            def recorded(*args):
                position = self.PATHS_ARG.get(name)
                seen.append(name if position is None else (name, args[position].shape[1]))
                return original(*args)

            monkeypatch.setattr(evaluation, name, recorded)

        for name in ("sample", "rank_and_select", *self.PATHS_ARG):
            record(name)
        return seen

    def _config(self, command_files, tmp_path, days=()):
        """The saved model's config, with a contract fixture maturing on `days`."""
        _, base, checkpoint = command_files
        contracts = write_contracts(
            tmp_path / "contracts.csv",
            [("call", "european", 100.0, k / 252, 0.2, 3.0) for k in days],
        )
        return write_config(tmp_path / "cfg.txt", gan__checkpoint=checkpoint,
                            contracts__file=contracts, **base)

    @pytest.mark.parametrize(
        "argv, pricer, k",
        [(["price-option", "--side", "put", "--strike", "100", "--t0", repr(10 / 252)],
          "price_option", 10),
         (["price-equity-futures", "--t0", repr(7 / 252)], "price_equity_futures", 7),
         (["price-commodity", "--t0", repr(12 / 252)], "price_commodity", 12)],
        ids=["price_option", "price_equity_futures", "price_commodity"],
    )
    def test_price_command_hands_its_pricer_k_columns(self, command_files, tmp_path, calls,
                                                      argv, pricer, k):
        cfg_path = self._config(command_files, tmp_path)
        assert cli_main(["--config", str(cfg_path), *argv]) == 0
        assert calls == ["sample", "rank_and_select", (pricer, k)]

    def test_evaluate_ranks_once_and_hands_each_contract_its_k_columns(
        self, command_files, tmp_path, calls
    ):
        days = (5, 10, 16, 10)
        cfg_path = self._config(command_files, tmp_path, days)
        out = tmp_path / "report.csv"
        assert cli_main(["--config", str(cfg_path), "--out", str(out), "evaluate"]) == 0
        assert calls == ["sample", "rank_and_select", *(("price_option", k) for k in days)]


class TestFailBeforeTraining:
    """Bad inputs exit 1 before any training starts."""

    @pytest.fixture
    def no_training(self, monkeypatch):
        calls = []

        def refuse(windows, cfg):
            calls.append(cfg)
            raise RuntimeError("training started")

        monkeypatch.setattr(evaluation, "train", refuse)
        return calls

    def _exit_code(self, command_files, tmp_path, argv, **overrides):
        _, base, _ = command_files
        cfg_path = write_config(tmp_path / "cfg.txt", **{**base, **overrides})
        return cli_main(["--config", str(cfg_path), *argv])

    def test_equity_futures_without_dividends(self, command_files, tmp_path, no_training):
        code = self._exit_code(
            command_files, tmp_path, ["price-equity-futures", "--t0", repr(10 / 252)],
            data__dividends="",
        )
        assert (code, no_training) == (1, [])

    def test_commodity_without_quotes(self, command_files, tmp_path, no_training):
        code = self._exit_code(
            command_files, tmp_path, ["price-commodity", "--t0", repr(10 / 252)],
            data__quotes="",
        )
        assert (code, no_training) == (1, [])

    def test_commodity_with_too_few_quotes(self, command_files, tmp_path, no_training):
        # 20 quotes, N3+1 = 21 needed
        code = self._exit_code(
            command_files, tmp_path, ["price-commodity", "--t0", repr(10 / 252)],
            model__N3="20",
        )
        assert (code, no_training) == (1, [])

    @pytest.mark.parametrize("t0", [0.3, 5.0], ids=["fractional_day", "beyond_T"])
    @pytest.mark.parametrize("command", ["price-option", "price-equity-futures", "price-commodity"])
    def test_bad_payoff_day(self, command_files, tmp_path, no_training, command, t0):
        # T=16 days: 0.3 years is 75.6 days, 5 years is 1260
        option = ["--side", "call", "--strike", "100"] if command == "price-option" else []
        code = self._exit_code(command_files, tmp_path, [command, *option, "--t0", repr(t0)])
        assert (code, no_training) == (1, [])

    @pytest.mark.parametrize("t0", [0.3, 5.0], ids=["fractional_day", "beyond_T"])
    def test_evaluate_contract_with_bad_payoff_day(self, command_files, tmp_path, no_training, t0):
        contracts = write_contracts(
            tmp_path / "contracts.csv",
            [("call", "european", 100.0, 10 / 252, 0.2, 3.0),
             ("put", "european", 100.0, t0, 0.2, 3.0)],
        )
        code = self._exit_code(
            command_files, tmp_path, ["--out", str(tmp_path / "report.csv"), "evaluate"],
            contracts__file=contracts,
        )
        assert (code, no_training) == (1, [])

    @pytest.mark.parametrize(
        "command, key, value",
        [("price-option", "model__N2", "0"), ("price-option", "model__N2", "-5"),
         ("price-option", "model__dt", "0"), ("generate", "model__dt", "0")],
        ids=["N2_zero", "N2_negative", "dt_zero", "generate_dt_zero"],
    )
    def test_bad_model_value(self, command_files, tmp_path, no_training, command, key, value):
        argv = {
            "price-option": ["price-option", "--side", "call", "--strike", "100",
                             "--t0", repr(10 / 252)],
            "generate": ["--out", str(tmp_path / "tracks.csv"), "generate", "--count", "5"],
        }[command]
        code = self._exit_code(command_files, tmp_path, argv, **{key: value})
        assert (code, no_training) == (1, [])

    @pytest.mark.parametrize(
        "key, value, message",
        [("model__N1", "0", "N1 must be >= 1, got 0"),
         ("model__N3", "-1", "N3 must be >= 0, got -1"),
         ("gan__epochs", "0", "epochs must be positive, got 0"),
         ("gan__batch_size", "0", "batch_size must be positive, got 0"),
         ("contracts__lr_train_rows", "-3", "lr_train_rows must be >= 0, got -3"),
         ("model__T", "0", "T must be >= 1, got 0"),
         ("model__N2", "0", "N2 must be >= 1, got 0"),
         ("model__alpha", "0", "alpha must be in (0,1), got 0.0"),
         ("model__alpha", "1", "alpha must be in (0,1), got 1.0"),
         ("model__dt", "0", "dt must be positive, got 0.0")],
        ids=["N1_zero", "N3_negative", "epochs_zero", "batch_size_zero",
             "lr_train_rows_negative", "T_zero", "N2_zero", "alpha_zero", "alpha_one", "dt_zero"],
    )
    def test_config_number_unused_by_the_command(self, command_files, tmp_path, capsys, key,
                                                 value, message):
        # a checkpoint is loaded, so price-option itself reads none of these numbers
        _, _, checkpoint = command_files
        argv = ["price-option", "--side", "call", "--strike", "100", "--t0", repr(10 / 252)]
        code = self._exit_code(command_files, tmp_path, argv,
                               gan__checkpoint=checkpoint, **{key: value})
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [["train"], ["generate", "--count", "5"], ["evaluate"]],
                             ids=["train", "generate", "evaluate"])
    def test_missing_out(self, command_files, tmp_path, no_training, command):
        code = self._exit_code(command_files, tmp_path, command)
        assert (code, no_training) == (1, [])

    @pytest.mark.parametrize(
        "command",
        [["--out", "m.gmc", "train"], ["price-option", "--side", "call", "--strike", "100",
                                       "--t0", repr(10 / 252)]],
        ids=["train", "price_option"],
    )
    def test_negative_seed_flag(self, command_files, tmp_path, no_training, capsys, command):
        code = self._exit_code(command_files, tmp_path, ["--seed", "-1", *command])
        assert (code, no_training) == (1, [])
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_generate_count_beyond_retained_set(self, command_files, tmp_path, no_training):
        # N2=64 at alpha 0.8 retains 13 tracks
        code = self._exit_code(
            command_files, tmp_path,
            ["--out", str(tmp_path / "tracks.csv"), "generate", "--count", "14"],
        )
        assert (code, no_training) == (1, [])

    @pytest.mark.parametrize(
        "argv",
        [["--out", "m.gmc", "train"],
         ["price-option", "--side", "call", "--strike", "100", "--t0", repr(10 / 252)],
         ["--out", "tracks.csv", "generate", "--count", "1"]],
        ids=["train", "price_option", "generate"],
    )
    @pytest.mark.parametrize("with_checkpoint", [True, False], ids=["checkpoint", "no_checkpoint"])
    def test_history_shorter_than_T_names_the_file(self, command_files, tmp_path, no_training,
                                                   monkeypatch, capsys, argv, with_checkpoint):
        # 10 prices at T=16: one check, right after the staged price load
        def refuse(path):
            raise RuntimeError("checkpoint read")

        monkeypatch.setattr(evaluation, "load_checkpoint", refuse)
        _, _, checkpoint = command_files
        prices = write_price_csv(tmp_path / "prices.csv", gbm_prices(10, seed=1).tolist())
        overrides = {"gan__checkpoint": checkpoint} if with_checkpoint else {}
        monkeypatch.chdir(tmp_path)
        code = self._exit_code(command_files, tmp_path, argv, data__prices=prices, **overrides)
        assert (code, no_training) == (1, [])
        assert capsys.readouterr().err == (
            f"error: [market_data] {prices}: 10 prices, fewer than the window length T=16\n"
        )
