import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganmc.baselines import (
    bs_price,
    fit_linear_pricer,
    gbm_mc_option,
    in_regime,
    lr_price,
    norm_cdf,
    simulate_gbm_terminals,
)
from ganmc.options import PricingError, discount_factor

DT = 1 / 252


def quadrature_call(spot, strike, r, sigma, tau):
    """Risk-neutral expectation of the call payoff by direct integration."""
    from scipy.integrate import quad

    def integrand(z):
        s_t = spot * math.exp((r - 0.5 * sigma**2) * tau + sigma * math.sqrt(tau) * z)
        return max(s_t - strike, 0.0) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    value, _ = quad(integrand, -12, 12, limit=400)
    return math.exp(-r * tau) * value


class TestBlackScholes:
    def test_tiny_vol_call_is_intrinsic(self):
        assert bs_price("call", 120.0, 100.0, 0.0, 1e-12, 1.0) == pytest.approx(20.0, abs=1e-6)

    def test_atm_benchmark_vs_quadrature(self):
        value = bs_price("call", 100.0, 100.0, 0.05, 0.2, 1.0)
        oracle = quadrature_call(100.0, 100.0, 0.05, 0.2, 1.0)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(10.45, abs=0.01)

    @given(
        spot=st.floats(10.0, 500.0),
        strike=st.floats(10.0, 500.0),
        r=st.floats(0.0, 0.15),
        sigma=st.floats(0.01, 0.9),
        tau=st.floats(0.01, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_put_call_parity(self, spot, strike, r, sigma, tau):
        call = bs_price("call", spot, strike, r, sigma, tau)
        put = bs_price("put", spot, strike, r, sigma, tau)
        forward = spot - strike * math.exp(-r * tau)
        assert call - put == pytest.approx(forward, abs=1e-10 * max(1.0, spot, strike))

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(PricingError):
            bs_price("call", -1.0, 100.0, 0.05, 0.2, 1.0)
        with pytest.raises(PricingError):
            bs_price("put", 100.0, 100.0, 0.05, 0.2, 0.0)

    def test_norm_cdf_against_erf_identities(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert norm_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)


class TestGbmMcOption:
    def test_zero_vol_zero_drift_deterministic(self):
        # with sigma=0 and strike=spot the anchored drift is 0
        price = gbm_mc_option("call", 100.0, 100.0, 0.05, 0.0, 0.25, 100, seed=0)
        assert price == 0.0
        price = gbm_mc_option("call", 100.0, 90.0, 0.0, 0.0, 0.25, 100, seed=0)
        # drift log(90/100)/0.25 pushes the terminal to exactly 90
        assert price == pytest.approx(0.0, abs=1e-9)

    def test_zero_vol_terminal_hits_strike_off_grid(self):
        # tau = 0.3 is 75.6 days; the anchored drift must reach the strike at
        # tau itself, not at a whole number of days. With r = 0 and sigma = 0
        # one of call and put is 0 and the other is |terminal - strike|.
        call = gbm_mc_option("call", 100.0, 90.0, 0.0, 0.0, 0.3, 100, seed=0)
        put = gbm_mc_option("put", 100.0, 90.0, 0.0, 0.0, 0.3, 100, seed=0)
        assert call + put == pytest.approx(0.0, abs=1e-9)

    def test_risk_neutral_matches_black_scholes(self):
        price = gbm_mc_option(
            "call", 100.0, 100.0, 0.05, 0.2, 0.25, 10**5, seed=7, risk_neutral=True
        )
        reference = bs_price("call", 100.0, 100.0, 0.05, 0.2, 0.25)
        assert price == pytest.approx(reference, rel=0.01)

    def test_same_seed_identical(self):
        a = gbm_mc_option("put", 100.0, 105.0, 0.03, 0.25, 0.5, 1000, seed=3)
        b = gbm_mc_option("put", 100.0, 105.0, 0.03, 0.25, 0.5, 1000, seed=3)
        assert a == b

    def test_american_is_midpoint(self):
        eur = gbm_mc_option("call", 100.0, 95.0, 0.05, 0.2, 0.25, 5000, seed=1)
        amer = gbm_mc_option("call", 100.0, 95.0, 0.05, 0.2, 0.25, 5000, seed=1, style="american")
        assert eur < amer

    def test_american_is_midpoint_under_negative_rate(self):
        r, tau = -0.01, 0.25
        eur = gbm_mc_option("put", 100.0, 105.0, r, 0.2, tau, 5000, seed=1)
        amer = gbm_mc_option("put", 100.0, 105.0, r, 0.2, tau, 5000, seed=1, style="american")
        undiscounted = eur / discount_factor(r, tau, DT)
        assert amer == pytest.approx(0.5 * (eur + undiscounted), rel=1e-12)
        assert undiscounted < amer < eur

    def test_variance_shrinks_with_paths(self):
        def reprice(n, seed):
            return gbm_mc_option("call", 100.0, 100.0, 0.05, 0.2, 0.25, n, seed=seed)

        small = np.var([reprice(500, s) for s in range(60)], ddof=1)
        large = np.var([reprice(2000, 1000 + s) for s in range(60)], ddof=1)
        assert large < small


class TestLinearPricer:
    def test_exact_affine_recovered(self, rng):
        rows = []
        for _ in range(30):
            spot, strike, tau = rng.uniform(80, 120), rng.uniform(80, 120), rng.uniform(0.1, 1.0)
            price = 2.0 + 3.0 * spot / strike - 1.5 * tau
            rows.append((spot, strike, tau, "call", price))
        coefficients = fit_linear_pricer(rows, "all")
        np.testing.assert_allclose(coefficients, [2.0, 3.0, -1.5], rtol=1e-8)
        predicted = lr_price(coefficients, 100.0, 90.0, 0.5)
        assert predicted == pytest.approx(2.0 + 3.0 * 100 / 90 - 1.5 * 0.5, rel=1e-8)

    def test_itm_filter_matches_brute_force(self, rng):
        rows = [
            (rng.uniform(80, 120), 100.0, rng.uniform(0.1, 1.0), "call", rng.uniform(1, 20))
            for _ in range(50)
        ]
        expected = [r for r in rows if r[0] / r[1] > 1.0]
        coefficients = fit_linear_pricer(rows, "itm")
        design = np.array([[1.0, r[0] / r[1], r[2]] for r in expected])
        y = np.array([r[4] for r in expected])
        beta = np.linalg.solve(design.T @ design, design.T @ y)
        np.testing.assert_allclose(coefficients, beta, rtol=1e-8)

    def test_underdetermined_rejected(self):
        rows = [(100.0, 90.0, 0.5, "call", 12.0), (110.0, 90.0, 0.5, "call", 21.0)]
        with pytest.raises(PricingError, match="underdetermined"):
            fit_linear_pricer(rows, "all")

    @pytest.mark.parametrize(
        "moneyness, side, regimes",
        [
            (1.1, "call", {"all", "itm"}),
            (0.9, "call", {"all", "otm"}),
            (1.0, "call", {"all", "otm"}),
            (1.1, "put", {"all", "otm"}),
            (0.9, "put", {"all", "itm"}),
            (1.0, "put", {"all", "otm"}),
        ],
    )
    def test_regime_predicate_table(self, moneyness, side, regimes):
        for regime in ("all", "itm", "otm"):
            assert in_regime(moneyness, side, regime) == (regime in regimes)

    def test_unknown_regime_raises_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted an unknown regime")

        monkeypatch.setattr(np.linalg, "lstsq", no_fit)
        rows = [(110.0 + i * i, 100.0, 0.5 + 0.1 * i, "call", 10.0 + i) for i in range(5)]
        with pytest.raises(PricingError, match="^unknown regime 'atm'$"):
            in_regime(1.0, "call", "atm")
        with pytest.raises(PricingError, match="^unknown regime 'atm'$"):
            fit_linear_pricer(rows, "atm")

    def test_fit_matches_normal_equations_oracle(self, rng):
        rows = [
            (rng.uniform(80, 120), rng.uniform(80, 120), rng.uniform(0.1, 2.0), "put",
             rng.uniform(0.5, 30.0))
            for _ in range(1000)
        ]
        coefficients = fit_linear_pricer(rows, "all")
        design = np.array([[1.0, r[0] / r[1], r[2]] for r in rows])
        y = np.array([r[4] for r in rows])
        beta = np.linalg.solve(design.T @ design, design.T @ y)
        np.testing.assert_allclose(coefficients, beta, rtol=1e-7)


def daily_step_terminals(spot, mu, sigma, tau, n_paths, seed, dt=DT):
    """Oracle only: round(tau/dt) exact lognormal daily steps per path (at
    least one), summed in log space; the one-draw simulator must match its law."""
    steps = max(int(round(tau / dt)), 1)
    eps = np.random.default_rng(seed).standard_normal((n_paths, steps))
    log_increments = (mu - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * eps
    return spot * np.exp(log_increments.sum(axis=1))


class TestSimulator:
    def test_terminal_distribution_moments(self):
        terminals = simulate_gbm_terminals(100.0, 0.05, 0.2, 1.0, 10**5, seed=11)
        assert terminals.mean() == pytest.approx(100.0 * math.exp(0.05), rel=0.01)
        assert np.all(terminals > 0)

    def test_one_draw_matches_daily_step_law(self):
        from scipy.stats import ks_2samp

        mu, sigma = 0.05, 0.2
        for seed in (1, 2, 3):
            one = simulate_gbm_terminals(100.0, mu, sigma, 0.25, 5000, seed=seed)
            daily = daily_step_terminals(100.0, mu, sigma, 0.25, 5000, seed=100 + seed)
            assert ks_2samp(one, daily).pvalue > 1e-3

        n = 10**5
        # 0.001 years is a quarter of a day: a one-day floor doubles the std
        for tau in (0.25, 0.001):
            logs = np.log(simulate_gbm_terminals(100.0, mu, sigma, tau, n, seed=5) / 100.0)
            scale = sigma * math.sqrt(tau)
            drift = (mu - 0.5 * sigma**2) * tau
            assert logs.mean() == pytest.approx(drift, abs=5 * scale / math.sqrt(n))
            assert logs.std() == pytest.approx(scale, rel=0.01)

    def test_memory_is_linear_in_paths(self):
        # a (paths, days) matrix of normals at 63 days would take 2.6 MB
        tracemalloc.start()
        try:
            simulate_gbm_terminals(98.0, 0.01, 0.2, 0.25, 5120, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 5120 * 4
