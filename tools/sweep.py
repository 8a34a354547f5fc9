"""Seed sweep of the end-to-end acceptance fixture: call MAPE and track statistics.

Usage, from the root of a checkout:

    python3 tools/sweep.py --label NAME --out SWEEP.json [--src DIR]

Each GAN seed trains the fixture of `tests/test_acceptance.py` (700-day GBM
history, path seed 308, T=64, 4500 epochs, 100 probe epochs, N2=2048,
alpha 0.8) through `evaluation.train_gan`. The trained model then prices
the test's 10-call strip (strikes 0.9-1.1 of spot, T0 = 0.25, against
Black-Scholes at sigma 0.2) at the acceptance reading (sampling seed = GAN
seed, as in the test) and at each of SAMPLING_SEEDS. The GBM oracle puts
exact GBM paths of the history's own process, started at the history's
window start levels, through the same filter and pricer at the same
sampling seeds: what a generator that learned the true process would read.

Every row records the call MAPE and the retained tracks' day-63 mean,
day-63 std / spot, annualised realized vol and lag-1 autocorrelation of
daily log-returns. GAN seeds 0-5 are the tuning seeds and 6-9 are held out;
the summary reports both sets apart and all of them together.

The program is imported from `--src` (default: `src/` of this checkout), so
one copy of this script can sweep another checkout. Results are stored
under `--label` in the output file; other labels already in the file are
kept, so two checkouts' rows can sit side by side. WORKERS GAN seeds train
at a time, each with one BLAS thread; the training trajectory, and with it
every number, depends on the numpy/BLAS build and the thread count. A
float64-trained seed takes about 150 s and a float32-trained one about
80 s on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import multiprocessing
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HISTORY_DAYS, PATH_SEED, MU, SIGMA = 700, 308, 0.05, 0.2
TUNING_SEEDS, HELD_OUT_SEEDS = range(0, 6), range(6, 10)
WORKERS = 2
SAMPLING_SEEDS = tuple(range(1000, 1008))
STRIKE_FRACTIONS = [0.9 + 0.2 * k / 9 for k in range(10)]
T0_YEARS = 0.25


def _use_program(src: str) -> None:
    """Import ganmc from `src`, and the fixture helpers from this checkout's tests."""
    sys.path[:0] = [src, str(ROOT / "tests")]
    import ganmc

    if Path(ganmc.__file__).resolve().parent != (Path(src) / "ganmc").resolve():
        raise SystemExit(f"error: imported ganmc from {ganmc.__file__}, not from {src}")


def fixture_config(gan_seed: int):
    from ganmc.evaluation import ExperimentConfig

    return ExperimentConfig(model="gan-mc", T=64, n1=290, n2=2048, alpha=0.8, seed=gan_seed,
                            epochs=4500, probe_epochs=100, r=0.05)


def fixture_history():
    from conftest import gbm_prices

    return gbm_prices(HISTORY_DAYS, mu=MU, sigma=SIGMA, seed=PATH_SEED)


def strip_row(tracks, reference, cfg) -> dict:
    """Filter `tracks`, price the call strip and describe the retained set."""
    import numpy as np

    from ganmc.baselines import bs_price
    from ganmc.evaluation import mape
    from ganmc.options import OptionContract, payoff_index, price_option
    from ganmc.similarity import rank_and_select

    kept = tracks[rank_and_select(tracks, reference, cfg.alpha).selected]
    spot = float(reference[-1])
    preds, refs = [], []
    for fraction in STRIKE_FRACTIONS:
        contract = OptionContract("call", "european", fraction * spot, T0_YEARS)
        preds.append(price_option(contract, kept, cfg.r, cfg.dt).value)
        refs.append(bs_price("call", spot, fraction * spot, cfg.r, SIGMA, T0_YEARS))
    terminal = kept[:, payoff_index(T0_YEARS, cfg.dt, cfg.T) - 1]
    returns = np.diff(np.log(kept), axis=1)
    return {
        "call_mape_pct": mape(preds, refs),
        "day63_mean": float(terminal.mean()),
        "day63_std_over_spot": float(terminal.std() / spot),
        "realized_vol": float(returns.std() / math.sqrt(cfg.dt)),
        "return_autocorr_lag1": float(np.corrcoef(returns[:, :-1].ravel(), returns[:, 1:].ravel())[0, 1]),
        "retained": int(len(kept)),
    }


def sweep_gan_seed(gan_seed: int) -> dict:
    """Train at one GAN seed, then price at the acceptance reading and every sampling seed."""
    from ganmc.gan import sample
    from ganmc.evaluation import train_gan

    cfg, prices = fixture_config(gan_seed), fixture_history()
    started = time.perf_counter()
    pipe = train_gan(cfg, prices)
    train_s = time.perf_counter() - started
    rows = []
    for sampling_seed in (gan_seed, *SAMPLING_SEEDS):
        row = strip_row(sample(pipe.model, cfg.n2, sampling_seed), pipe.reference, cfg)
        rows.append({"gan_seed": gan_seed, "sampling_seed": sampling_seed,
                     "acceptance": sampling_seed == gan_seed, **row})
    return {"gan_seed": gan_seed, "train_s": train_s, "stride": pipe.d,
            "epochs_run": pipe.report.epochs_run, "rows": rows}


def oracle_rows() -> list[dict]:
    """Exact GBM paths of the history's process from its window start levels."""
    import numpy as np

    cfg, prices = fixture_config(0), fixture_history()
    starts = prices[: len(prices) - cfg.T + 1]
    drift, vol = (MU - 0.5 * SIGMA**2) * cfg.dt, SIGMA * math.sqrt(cfg.dt)
    rows = []
    for sampling_seed in SAMPLING_SEEDS:
        rng = np.random.default_rng(sampling_seed)
        x0 = starts[rng.integers(0, len(starts), cfg.n2)]
        steps = drift + vol * rng.standard_normal((cfg.n2, cfg.T - 1))
        log_paths = np.concatenate([np.zeros((cfg.n2, 1)), np.cumsum(steps, axis=1)], axis=1)
        tracks = x0[:, None] * np.exp(log_paths)
        rows.append({"sampling_seed": sampling_seed, **strip_row(tracks, prices[-cfg.T:], cfg)})
    return rows


def summarise(seeds: list[dict], oracle: list[dict]) -> dict:
    def stats(values):
        values = sorted(values)
        return {"median": statistics.median(values), "max": values[-1], "n": len(values)}

    def acceptance(pool):
        return [r["call_mape_pct"] for s in seeds if s["gan_seed"] in pool
                for r in s["rows"] if r["acceptance"]]

    return {
        "acceptance_all": stats(acceptance([*TUNING_SEEDS, *HELD_OUT_SEEDS])),
        "acceptance_tuning_0_5": stats(acceptance(TUNING_SEEDS)),
        "acceptance_held_out_6_9": stats(acceptance(HELD_OUT_SEEDS)),
        "sampling_median_per_gan_seed": {
            str(s["gan_seed"]): statistics.median(
                r["call_mape_pct"] for r in s["rows"] if not r["acceptance"])
            for s in seeds
        },
        "oracle": stats(r["call_mape_pct"] for r in oracle),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    _use_program(args.src)
    import numpy

    started = time.perf_counter()
    context = multiprocessing.get_context("spawn")
    with context.Pool(WORKERS, initializer=_use_program, initargs=(args.src,)) as pool:
        pending = pool.map_async(sweep_gan_seed, [*TUNING_SEEDS, *HELD_OUT_SEEDS], chunksize=1)
        oracle = oracle_rows()
        seeds = pending.get()
    result = {
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "blas_threads": 1, "jobs": WORKERS, "nproc": os.cpu_count()},
        "fixture": {"history_days": HISTORY_DAYS, "path_seed": PATH_SEED, "T": 64,
                    "epochs": 4500, "probe_epochs": 100, "n2": 2048, "alpha": 0.8,
                    "sampling_seeds": list(SAMPLING_SEEDS)},
        "wall_s": time.perf_counter() - started,
        "summary": summarise(seeds, oracle),
        "gan_seeds": seeds,
        "oracle": oracle,
    }
    out = Path(args.out)
    stored = json.loads(out.read_text()) if out.exists() else {}
    stored[args.label] = result
    out.write_text(json.dumps(stored, indent=1) + "\n")
    for s in seeds:
        reading = next(r for r in s["rows"] if r["acceptance"])
        print(f"gan seed {s['gan_seed']}: acceptance MAPE {reading['call_mape_pct']:.2f}%, "
              f"sampling median {result['summary']['sampling_median_per_gan_seed'][str(s['gan_seed'])]:.2f}%, "
              f"train {s['train_s']:.0f}s")
    print(json.dumps(result["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
