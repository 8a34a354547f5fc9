"""Command-line entry points.

Exit codes: 0 success, 1 validation error (bad config, bad inputs),
2 runtime or numeric error (training collapse, pipeline failures) or a
malformed argument, which argparse reports as a usage error. A pipeline
``StageError`` exits with the code of its ``__cause__``.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from .evaluation import (
    ConfigError,
    StageError,
    _stage,
    baseline_price,
    generate_tracks_csv,
    load_history,
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


def _finite_float(text: str) -> float:
    """A float argument; inf, nan and non-numbers are argparse usage errors."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")


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

    contract = argparse.ArgumentParser(add_help=False)
    contract.add_argument("--side", choices=["call", "put"], required=True)
    contract.add_argument("--style", choices=["european", "american"], default="european")
    contract.add_argument("--strike", type=_finite_float, required=True)
    contract.add_argument("--t0", type=_finite_float, required=True, help="years to expiry")

    sub.add_parser("price-option", parents=[contract], help="price one option contract")

    eqf = sub.add_parser("price-equity-futures", help="price one equity futures contract")
    eqf.add_argument("--t0", type=_finite_float, required=True, help="years to delivery")

    com = sub.add_parser("price-commodity", help="price one commodity forward/futures")
    com.add_argument("--t0", type=_finite_float, required=True, help="years to delivery")

    sub.add_parser("evaluate", help="price the contract fixture and report MAPE")

    base = sub.add_parser("baseline", parents=[contract],
                          help="European closed-form or GBM-MC price for one option")
    base.add_argument("--model", choices=["bs", "mc"], required=True)
    base.add_argument("--sigma", type=_finite_float, required=True)
    return parser


def _run(args) -> int:
    """Run one parsed command; every failure raises, so a return is exit 0."""
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.command in ("train", "generate", "evaluate") and not args.out:
        raise ConfigError(f"{args.command} requires --out")

    if args.command == "train":
        pipe = train_gan(cfg, np.asarray(load_history(cfg).prices))
        save_checkpoint(pipe.model, args.out)
        print(f"trained at stride d={pipe.d}, checkpoint written to {args.out}")
    elif args.command == "generate":
        generate_tracks_csv(cfg, args.count, args.out)
        print(f"wrote {args.count} tracks to {args.out}")
    elif args.command == "price-option":
        contract = OptionContract(args.side, args.style, args.strike, args.t0)
        print(f"{price_option_pipeline(cfg, contract):.6f}")
    elif args.command == "price-equity-futures":
        print(f"{price_equity_futures_pipeline(cfg, args.t0):.6f}")
    elif args.command == "price-commodity":
        print(f"{price_commodity_pipeline(cfg, args.t0):.6f}")
    elif args.command == "evaluate":
        report = run_pipeline(cfg)
        write_report(report, args.out)
        print(f"{report.model} MAPE {report.mape_percent:.4f}% over {len(report.rows)} contracts")
    else:  # baseline: argparse accepts no other command
        if args.model == "bs" and args.style == "american":
            raise ConfigError("baseline --model bs prices European options only")
        if args.sigma <= 0.0:
            raise ConfigError(f"baseline --sigma must be positive, got {args.sigma}")
        contract = OptionContract(args.side, args.style, args.strike, args.t0)
        spot = _stage("market_data", load_price_series, cfg.prices_path, cfg.symbol).prices[-1]
        print(f"{baseline_price(args.model, contract, spot, args.sigma, cfg, cfg.seed):.6f}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__ if isinstance(exc, StageError) else exc
        return 1 if isinstance(cause, ValueError) else 2


if __name__ == "__main__":
    sys.exit(main())
