"""Command-line entry points.

Exit codes: 0 success, 1 validation error (bad config, bad inputs),
2 runtime or numeric error (training collapse, pipeline failures).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .evaluation import (
    ConfigError,
    StageError,
    generate_tracks_csv,
    parse_config,
    price_commodity_pipeline,
    price_equity_futures_pipeline,
    price_option_pipeline,
    run_pipeline,
    train_gan,
    write_report,
)
from .gan import save_checkpoint
from .market_data import load_price_series
from .options import OptionContract


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ganmc",
        description="Generative-network Monte Carlo derivatives pricing",
    )
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="output file path")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train", help="train the generator and save a checkpoint to --out")

    gen = sub.add_parser("generate", help="emit generated price tracks as CSV")
    gen.add_argument("--count", type=int, required=True, help="number of tracks")

    opt = sub.add_parser("price-option", help="price one option contract")
    opt.add_argument("--side", choices=["call", "put"], required=True)
    opt.add_argument("--style", choices=["european", "american"], default="european")
    opt.add_argument("--strike", type=float, required=True)
    opt.add_argument("--t0", type=float, required=True, help="years to expiry")

    eqf = sub.add_parser("price-equity-futures", help="price one equity futures contract")
    eqf.add_argument("--t0", type=float, required=True, help="years to delivery")

    com = sub.add_parser("price-commodity", help="price one commodity forward/futures")
    com.add_argument("--t0", type=float, required=True, help="years to delivery")

    sub.add_parser("evaluate", help="price the contract fixture and report MAPE")

    base = sub.add_parser("baseline", help="European closed-form or GBM-MC price for one option")
    base.add_argument("--model", choices=["bs", "mc"], required=True)
    base.add_argument("--side", choices=["call", "put"], required=True)
    base.add_argument("--style", choices=["european", "american"], default="european")
    base.add_argument("--strike", type=float, required=True)
    base.add_argument("--t0", type=float, required=True)
    base.add_argument("--sigma", type=float, required=True)
    return parser


def _run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.command in ("train", "generate", "evaluate") and not args.out:
        raise ConfigError(f"{args.command} requires --out")

    if args.command == "train":
        series = load_price_series(cfg.prices_path, cfg.symbol)
        pipe = train_gan(cfg, np.asarray(series.prices))
        save_checkpoint(pipe.model, args.out)
        print(f"trained at stride d={pipe.d}, checkpoint written to {args.out}")
        return 0

    if args.command == "generate":
        generate_tracks_csv(cfg, args.count, args.out)
        print(f"wrote {args.count} tracks to {args.out}")
        return 0

    if args.command == "price-option":
        contract = OptionContract(
            side=args.side, style=args.style, strike=args.strike, t0_years=args.t0
        )
        print(f"{price_option_pipeline(cfg, contract):.6f}")
        return 0

    if args.command == "price-equity-futures":
        print(f"{price_equity_futures_pipeline(cfg, args.t0):.6f}")
        return 0

    if args.command == "price-commodity":
        print(f"{price_commodity_pipeline(cfg, args.t0):.6f}")
        return 0

    if args.command == "evaluate":
        report = run_pipeline(cfg)
        write_report(report, args.out)
        print(f"{report.model} MAPE {report.mape_percent:.4f}% over {len(report.rows)} contracts")
        return 0

    if args.command == "baseline":
        if args.model == "bs" and args.style == "american":
            raise ConfigError("baseline --model bs prices European options only")
        from .baselines import bs_price, gbm_mc_option

        series = load_price_series(cfg.prices_path, cfg.symbol)
        spot = series.prices[-1]
        if args.model == "bs":
            value = bs_price(args.side, spot, args.strike, cfg.r, args.sigma, args.t0)
        else:
            value = gbm_mc_option(
                args.side, spot, args.strike, cfg.r, args.sigma, args.t0,
                cfg.n2, cfg.seed, cfg.dt, args.style,
            )
        print(f"{value:.6f}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc.cause, ValueError) else 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
