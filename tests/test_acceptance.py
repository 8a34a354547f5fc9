"""Package-level acceptance checks.

Each test covers one release criterion and prints a single PASS line
with the measured numbers, so `pytest -v -s tests/test_acceptance.py`
doubles as a sign-off report. Tolerances are stated inline.
"""

import math
import time

import numpy as np
import pytest

from ganmc.baselines import bs_price, gbm_mc_option
from ganmc.cli import main as cli_main
from ganmc.evaluation import mape
from ganmc.futures import CarryEstimate, price_commodity, price_equity_futures
from ganmc.gan import GanModel, backward, forward, init_mlp, load_checkpoint, sample, save_checkpoint
from ganmc.similarity import tsim
from ganmc.windowing import partition

from conftest import empirical_variance, gbm_prices, priced, write_price_csv

DT = 1 / 252


def realized_vol(tracks, dt):
    """Annualised std of the daily log-returns pooled over all tracks."""
    return float(np.diff(np.log(tracks), axis=1).std() / math.sqrt(dt))


def test_partition_matches_brute_force_enumeration():
    """Window partition equals brute-force start enumeration for all small shapes."""
    checked = 0
    for n in range(2, 51):
        values = np.arange(1.0, n + 1.0)
        for T in range(1, min(n, 10) + 1):
            for d in range(1, min(T, 10) + 1):
                expected = []
                start = 0
                while start + T <= n:
                    expected.append(values[start : start + T])
                    start += d
                ws = partition(values, d, T)
                assert ws.windows.shape == (len(expected), T)
                np.testing.assert_array_equal(ws.windows, np.array(expected))
                checked += 1
    print(f"\nPASS partition oracle: {checked} (n,T,d) shapes, exact match")


def test_similarity_identities_and_hand_value():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(1, 40)
        x = rng.uniform(0.1, 100, n)
        y = rng.uniform(0.1, 100, n)
        s = tsim(x, y)
        assert abs(s - tsim(y, x)) <= 1e-12
        assert -1e-12 <= s <= 1.0 + 1e-12
        assert abs(tsim(x, x) - 1.0) <= 1e-12
        assert abs(tsim(2 * x, 2 * y) - s) <= 1e-12
    assert abs(tsim([1.0, 1.0], [3.0, 3.0]) - 0.5) <= 1e-12
    print("\nPASS tSim suite: symmetry, self-similarity, range, scale-invariance, hand value 0.5 (tol 1e-12)")


def test_gradient_check_twenty_random_nets():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        dims = [int(rng.integers(2, 7)) for _ in range(4)]
        acts = [str(rng.choice(["relu", "tanh", "sigmoid"])) for _ in range(2)] + ["sigmoid"]
        net = init_mlp(dims, acts, rng)
        x = rng.standard_normal(dims[0])
        u = rng.standard_normal(dims[-1])
        grads = backward(net, x, u)
        h = 1e-6
        for layer in range(3):
            for arr, grad in (
                (net.weights[layer], grads.weights[layer]),
                (net.biases[layer], grads.biases[layer]),
            ):
                flat = arr.reshape(-1)
                gflat = grad.reshape(-1)
                for idx in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    fp = float(forward(net, x) @ u)
                    flat[idx] = orig - h
                    fm = float(forward(net, x) @ u)
                    flat[idx] = orig
                    fd = (fp - fm) / (2 * h)
                    denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                    rel = abs(fd - gflat[idx]) / denom
                    worst = max(worst, rel)
    elapsed = time.monotonic() - started
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"\nPASS gradient check: 20 nets, worst relative error {worst:.2e} < 1e-4, {elapsed:.1f}s < 10s")


def test_black_scholes_parity_and_quadrature():
    from scipy.integrate import quad

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        spot = rng.uniform(10, 500)
        strike = rng.uniform(10, 500)
        r = rng.uniform(0.0, 0.15)
        sigma = rng.uniform(0.05, 0.8)
        tau = rng.uniform(0.02, 3.0)
        call = bs_price("call", spot, strike, r, sigma, tau)
        put = bs_price("put", spot, strike, r, sigma, tau)
        gap = abs(call - put - (spot - strike * math.exp(-r * tau)))
        worst = max(worst, gap / max(1.0, spot, strike))
    assert worst < 1e-10

    def integrand(z):
        s_t = 100.0 * math.exp((0.05 - 0.02) * 1.0 + 0.2 * z)
        return max(s_t - 100.0, 0.0) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    oracle = math.exp(-0.05) * quad(integrand, -12, 12, limit=400)[0]
    atm = bs_price("call", 100.0, 100.0, 0.05, 0.2, 1.0)
    assert abs(atm - oracle) < 1e-6
    print(f"\nPASS Black-Scholes: parity worst gap {worst:.2e} < 1e-10 on 1000 inputs; ATM vs quadrature |{atm - oracle:.2e}| < 1e-6")


def test_gbm_mc_within_one_percent_of_closed_form():
    started = time.monotonic()
    mc = gbm_mc_option(
        "call", 100.0, 100.0, 0.05, 0.2, 0.25, 10**5, seed=2024, risk_neutral=True
    )
    closed = bs_price("call", 100.0, 100.0, 0.05, 0.2, 0.25)
    elapsed = time.monotonic() - started
    rel = abs(mc - closed) / closed
    assert rel < 0.01
    assert elapsed < 30.0
    print(f"\nPASS MC vs BS: {mc:.4f} vs {closed:.4f}, rel err {rel:.4%} < 1%, {elapsed:.1f}s < 30s")


def test_variance_does_not_grow_with_sample_count():
    """Monte Carlo convergence for all four estimators with a stub generator."""
    started = time.monotonic()
    T = 16
    reference = np.full(T, 100.0)

    def sampler(n2, seed):
        rng = np.random.default_rng(seed)
        return 100.0 * np.exp(0.08 * rng.standard_normal((n2, T)))

    def call_fn(tracks):
        return priced("call", "european", tracks, 100.0, 0.05, T / 252, DT).value

    def put_fn(tracks):
        return priced("put", "european", tracks, 100.0, 0.05, T / 252, DT).value

    def eqf_fn(tracks):
        return price_equity_futures(100.0, tracks, 1.0, 0.05, T / 252, DT)

    def com_fn(tracks):
        return price_commodity(tracks, CarryEstimate(2.0, 5), 0.05, T / 252, DT)

    lines = []
    for name, fn in (("call", call_fn), ("put", put_fn), ("equity futures", eqf_fn), ("commodity", com_fn)):
        table = dict(empirical_variance(sampler, fn, reference, 0.8, 200, [64, 256]))
        assert table[256] <= 1.1 * table[64], f"{name}: var grew {table[64]} -> {table[256]}"
        lines.append(f"{name} {table[256] / table[64]:.2f}")
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"\nPASS estimator variance: var(256)/var(64) ratios [{', '.join(lines)}] all <= 1.1, {elapsed:.1f}s < 2min")


def test_american_bounds_ordered_and_tight_at_zero_rate():
    rng = np.random.default_rng(11)
    for i in range(1000):
        n_tracks = int(rng.integers(2, 30))
        T = int(rng.integers(2, 20))
        tracks = rng.uniform(20, 200, (n_tracks, T))
        strike = float(rng.uniform(40, 180))
        side = "call" if i % 2 == 0 else "put"
        r = 0.0 if i % 3 == 0 else float(rng.uniform(0.001, 0.12))
        price = priced(side, "american", tracks, strike, r, T / 252, DT)
        assert price.lower <= price.value <= price.upper
        if r == 0.0:
            assert price.lower == price.value == price.upper
    print("\nPASS American bounds: lower <= mid <= upper on 1000 instances, exact equality at r=0")


@pytest.fixture(scope="module")
def synthetic_market():
    """700-day GBM history (mu=0.05, sigma=0.2) plus its trained pipeline."""
    from ganmc.evaluation import ExperimentConfig, selected_tracks, train_gan

    prices = gbm_prices(700, mu=0.05, sigma=0.2, seed=308)
    cfg = ExperimentConfig(
        model="gan-mc", T=64, n1=290, n2=2048, alpha=0.8, seed=4,
        epochs=4500, probe_epochs=100, r=0.05,
    )
    started = time.monotonic()
    pipe = train_gan(cfg, prices)
    tracks = selected_tracks(pipe.model, pipe.reference, cfg)
    elapsed = time.monotonic() - started
    return prices, cfg, pipe, tracks, elapsed


@pytest.mark.slow
def test_end_to_end_gan_pipeline_tracks_closed_form(synthetic_market):
    from ganmc.options import OptionContract, payoff_index, price_option

    prices, cfg, pipe, tracks, train_seconds = synthetic_market
    assert not pipe.report.collapsed
    spot = float(prices[-1])
    preds, refs = [], []
    for m in np.linspace(0.9, 1.1, 10):
        strike = float(m * spot)
        contract = OptionContract(side="call", style="european", strike=strike, t0_years=0.25)
        preds.append(price_option(contract, tracks, cfg.r, cfg.dt).value)
        refs.append(bs_price("call", spot, strike, cfg.r, 0.2, 0.25))
    score = mape(preds, refs)
    terminal = tracks[:, payoff_index(0.25, cfg.dt, cfg.T) - 1]
    summary = (
        f"retained {len(tracks)} tracks: realized vol {realized_vol(tracks, cfg.dt):.3f}, "
        f"day-63 mean {terminal.mean():.2f} std/spot {terminal.std() / spot:.3f} (spot {spot:.2f})\n"
        + "\n".join(
            f"  K={k:8.3f}  gan={p:8.4f}  bs={b:8.4f}"
            for k, p, b in zip(np.linspace(0.9, 1.1, 10) * spot, preds, refs)
        )
    )
    assert score <= 15.0, f"call MAPE {score:.2f}% > 15%; {summary}"
    assert train_seconds < 900.0
    print(f"\nPASS end-to-end synthetic: MAPE {score:.2f}% <= 15% over 10 calls, no collapse, {train_seconds:.0f}s < 15min; {summary}")


@pytest.mark.slow
def test_generated_tracks_keep_history_volatility(synthetic_market):
    """Guard on the path dynamics behind the pricing criterion: the full
    N2 sample's annualised realized volatility of log-returns stays near
    the history's 0.2 (a generator without path structure gave 0.54)."""
    prices, cfg, pipe, _, _ = synthetic_market
    vol = realized_vol(sample(pipe.model, cfg.n2, cfg.seed), cfg.dt)
    history = realized_vol(prices[None, :], cfg.dt)
    assert 0.1 <= vol <= 0.4, f"realized vol {vol:.3f} of {cfg.n2} tracks outside [0.1, 0.4]"
    print(f"\nPASS track volatility: {vol:.3f} over {cfg.n2} tracks in [0.1, 0.4], history {history:.3f}")


def test_evaluate_runs_are_byte_identical(tmp_path):
    prices = gbm_prices(300, seed=4)
    prices_path = write_price_csv(tmp_path / "prices.csv", prices.tolist())
    contracts_path = tmp_path / "contracts.csv"
    contracts_path.write_text(
        "side,style,strike,t0_years,sigma,actual\n"
        "call,european,100.0,0.25,0.2,8.0\n"
        "put,european,100.0,0.25,0.2,4.0\n"
    )
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        f"[data]\nprices = {prices_path}\nsymbol = SYNTH\n"
        f"[contracts]\nfile = {contracts_path}\n"
        "[model]\nkind = mc\nr = 0.05\nN2 = 2000\nseed = 5\n"
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["--config", str(cfg_path), "--out", str(out1), "evaluate"]) == 0
    assert cli_main(["--config", str(cfg_path), "--out", str(out2), "evaluate"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    print("\nPASS determinism: two `evaluate` runs with the same config and seed are byte-identical")


def test_mape_hand_fixture():
    assert mape([11.0, 9.0], [10.0, 10.0]) == 10.0
    assert mape([10.0, 10.0, 10.0], [10.0, 10.0, 10.0]) == 0.0
    assert mape([12.0, 9.0, 10.0], [10.0, 10.0, 10.0]) == pytest.approx(10.0, abs=1e-12)
    print("\nPASS MAPE fixture: hand-computed 10% cases reproduced exactly")


def test_checkpoint_round_trip_identical_tracks(tmp_path):
    rng = np.random.default_rng(17)
    model = GanModel(
        generator=init_mlp([8, 32, 16], ["relu", "sigmoid"], rng),
        discriminator=init_mlp([16, 32, 1], ["relu", "sigmoid"], rng),
        scale=250.0,
    )
    path = tmp_path / "model.gmc"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(sample(model, 100, seed=6), sample(loaded, 100, seed=6))
    print("\nPASS checkpoint round-trip: save/load then fixed-seed sampling yields identical tracks")
