"""Per-layer metrics: the call sites the tracer wraps, and what it derives from the spans.

Counts and times are per traced pass unless the name says otherwise
(`*_ms` / `*_us` per call where the layer is called several times a pass).
A layer a workload never reaches reads 0.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from ganmc import baselines, cli, evaluation, futures, gan, options, similarity


# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "gan.epoch_ms": "ms", "gan.train_ms": "ms", "gan.probe_ms": "ms", "gan.epochs": "count",
    "gan.kernel.gen_forward_us": "us", "gan.kernel.disc_forward_us": "us",
    "gan.kernel.gen_backward_us": "us", "gan.kernel.disc_backward_us": "us",
    "gan.kernel.adam_gen_us": "us", "gan.kernel.adam_disc_us": "us",
    "gan.flop_per_epoch": "flop", "gan.train_gflop_per_s": "GFLOP/s",
    "gan.sample_ms": "ms", "gan.sample_flop": "flop", "gan.sample_gflop_per_s": "GFLOP/s",
    "similarity.rank_ms": "ms", "similarity.tracks_scored": "count",
    "similarity.kept_ratio": "ratio", "similarity.track_bytes": "B",
    "options.price_us": "us", "options.contracts": "count",
    "futures.price_us": "us", "futures.contracts": "count",
    "market_data.loads": "count", "market_data.rows": "count", "market_data.load_ms": "ms",
    "gan.checkpoint_loads": "count", "gan.checkpoint_load_ms": "ms",
    "evaluation.pipeline_ms": "ms", "evaluation.self_ms": "ms",
    "cli.commands": "count", "cli.failed": "count",
    "baselines.mc_ms": "ms", "baselines.mc_paths": "count",
    "windowing.search_ms": "ms", "windowing.strides_tried": "count", "windowing.windows": "count",
    "trace.overhead_pct": "%",
}


PIPELINES = ("run_pipeline", "price_option_pipeline", "price_equity_futures_pipeline",
             "price_commodity_pipeline", "generate_tracks_csv", "write_report")


def mlp_macs(dims) -> int:
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def train_flop_per_epoch(windows: int, cfg) -> int:
    """Matmul flops of one `gan.train` epoch at the given window count.

    Per minibatch of B rows the discriminator step runs the generator
    forward (G), the discriminator forward on real and fake (2D) and both
    backwards (2 x 2D, weights plus input gradient); the generator step
    runs G and D forward, then D and G backward. With 2 flops per
    multiply-add that is B(8G + 18D). Each epoch also samples a collapse
    probe through the generator.
    """
    g = mlp_macs([cfg.noise_dim, *cfg.gen_hidden, cfg.T])
    d = mlp_macs([cfg.T, *cfg.disc_hidden, 1])
    batches = windows // cfg.batch_size
    return batches * cfg.batch_size * (8 * g + 18 * d) + 2 * cfg.probe_size * g


def _train_counts(args, kwargs, result):
    windows, cfg = args
    epochs = result[1].epochs_run
    return {"epochs": epochs, "flop": epochs * train_flop_per_epoch(len(windows), cfg)}


def _sample_counts(args, kwargs, result):
    model = args[0]
    return {"tracks": result.shape[0], "flop": 2 * result.shape[0] * mlp_macs(model.generator.layer_dims)}


def _rank_counts(args, kwargs, result):
    return {"scored": len(result.scores), "kept": len(result.selected),
            "bytes": np.asarray(args[0]).nbytes}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _paths(args, kwargs, result):
    return {"paths": args[6] if len(args) > 6 else kwargs["n_paths"]}


def _stride(args, kwargs, result):
    d, ws = result
    return {"strides": d, "windows": len(ws)}


def register_sites(tracer) -> None:
    """Every public name the workloads reach, wrapped where its caller looks it up."""
    site = tracer.site
    site(evaluation, "search_stride", "windowing.search_stride", _stride)
    site(evaluation, "train", "gan.train", _train_counts)
    for module in (gan, evaluation):
        site(module, "sample", "gan.sample", _sample_counts)
    for module in (similarity, evaluation):
        site(module, "rank_and_select", "similarity.rank", _rank_counts)
    for module in (options, evaluation):
        site(module, "price_option", "options.price")
    for module in (futures, evaluation):
        site(module, "price_equity_futures", "futures.price")
        site(module, "price_commodity", "futures.price")
    for attr in ("fit_dividends", "predict_dividend", "estimate_carry"):
        site(evaluation, attr, "futures.fit")
    for attr in ("load_price_series", "load_dividends", "load_quotes"):
        site(evaluation, attr, "market_data.load", _rows)
    site(cli, "load_price_series", "market_data.load", _rows)
    site(cli, "parse_config", "evaluation.parse_config")
    site(evaluation, "load_checkpoint", "gan.checkpoint_load")
    for module in (baselines, evaluation):
        site(module, "gbm_mc_option", "baselines.mc", _paths)
    for attr in ("bs_price", "fit_linear_pricer", "lr_price"):
        site(evaluation, attr, "baselines.closed_form")
    for attr in PIPELINES:
        site(cli, attr, "evaluation.pipeline")


def _median_call_us(fn, calls: int = 40, rounds: int = 15) -> float:
    for _ in range(calls):
        fn()
    per_call = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - started) / calls)
    return 1e6 * statistics.median(per_call)


def kernel_metrics(model, windows: np.ndarray, cfg) -> dict:
    """Public `forward`, `backward` and `Adam.step` at training shapes (batch B)."""
    rng = np.random.default_rng(0)
    b = cfg.batch_size
    gen = model.generator.copy()
    disc = model.discriminator.copy()
    z = rng.standard_normal((b, gen.layer_dims[0]))
    real = windows[:b] / model.scale
    up_gen = rng.standard_normal((b, gen.layer_dims[-1])) / b
    up_disc = rng.standard_normal((b, 1)) / b
    grads_gen = gan.backward(gen, z, up_gen)
    grads_disc = gan.backward(disc, real, up_disc)
    # tiny steps keep the copies close to the trained nets while Adam runs
    adam_gen = gan.Adam(gen, 1e-12, cfg.beta1, cfg.beta2, cfg.adam_eps)
    adam_disc = gan.Adam(disc, 1e-12, cfg.beta1, cfg.beta2, cfg.adam_eps)
    return {
        "gan.kernel.gen_forward_us": _median_call_us(lambda: gan.forward(gen, z)),
        "gan.kernel.disc_forward_us": _median_call_us(lambda: gan.forward(disc, real)),
        "gan.kernel.gen_backward_us": _median_call_us(lambda: gan.backward(gen, z, up_gen)),
        "gan.kernel.disc_backward_us": _median_call_us(lambda: gan.backward(disc, real, up_disc)),
        "gan.kernel.adam_gen_us": _median_call_us(
            lambda: adam_gen.step(gen, grads_gen.weights, grads_gen.biases)),
        "gan.kernel.adam_disc_us": _median_call_us(
            lambda: adam_disc.step(disc, grads_disc.weights, grads_disc.biases)),
    }


def layer_metrics(tracer, passes: int, kernels: dict, overhead_pct: float) -> dict:
    """Per-layer metric values from the spans of `passes` traced passes."""
    by_name = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        by_name[span.name].append((index, span))
    names = {index: span.name for index, span in enumerate(tracer.spans)}

    def spans(name):
        return [s for _, s in by_name[name]]

    def total_s(name):
        return sum(s.seconds for s in spans(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans(name))

    def per_pass(value):
        return value / passes

    def mean_ms(name):
        calls = len(by_name[name])
        return 1e3 * total_s(name) / calls if calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    trains = spans("gan.train")
    probes = [s for s in trains if names.get(s.parent) == "windowing.search_stride"]
    fulls = [s for s in trains if names.get(s.parent) != "windowing.search_stride"]
    epochs = count("gan.train", "epochs")
    train_flop = count("gan.train", "flop")
    train_s = total_s("gan.train")
    kids = tracer.children()
    pipelines = by_name["evaluation.pipeline"]
    option_calls = len(by_name["options.price"])
    futures_calls = len(by_name["futures.price"])
    searches = len(by_name["windowing.search_stride"])

    out = {
        "gan.epoch_ms": 1e3 * ratio(train_s, epochs),
        "gan.train_ms": per_pass(1e3 * sum(s.seconds for s in fulls)),
        "gan.probe_ms": per_pass(1e3 * sum(s.seconds for s in probes)),
        "gan.epochs": per_pass(epochs),
        "gan.flop_per_epoch": ratio(train_flop, epochs),
        "gan.train_gflop_per_s": 1e-9 * ratio(train_flop, train_s),
        "gan.sample_ms": mean_ms("gan.sample"),
        "gan.sample_flop": ratio(count("gan.sample", "flop"), len(by_name["gan.sample"])),
        "gan.sample_gflop_per_s": 1e-9 * ratio(count("gan.sample", "flop"), total_s("gan.sample")),
        "similarity.rank_ms": mean_ms("similarity.rank"),
        "similarity.tracks_scored": per_pass(count("similarity.rank", "scored")),
        "similarity.kept_ratio": ratio(count("similarity.rank", "kept"), count("similarity.rank", "scored")),
        "similarity.track_bytes": ratio(count("similarity.rank", "bytes"), len(by_name["similarity.rank"])),
        "options.price_us": 1e6 * ratio(total_s("options.price"), option_calls),
        "options.contracts": per_pass(option_calls),
        "futures.price_us": 1e6 * ratio(total_s("futures.price"), futures_calls),
        "futures.contracts": per_pass(futures_calls),
        "market_data.loads": per_pass(len(by_name["market_data.load"])),
        "market_data.rows": per_pass(count("market_data.load", "rows")),
        "market_data.load_ms": mean_ms("market_data.load"),
        "gan.checkpoint_loads": per_pass(len(by_name["gan.checkpoint_load"])),
        "gan.checkpoint_load_ms": mean_ms("gan.checkpoint_load"),
        "evaluation.pipeline_ms": per_pass(1e3 * total_s("evaluation.pipeline")),
        "evaluation.self_ms": per_pass(1e3 * sum(tracer.self_seconds(i, kids) for i, _ in pipelines)),
        "cli.commands": per_pass(len(by_name["cli.command"])),
        "cli.failed": per_pass(count("cli.command", "failed")),
        "baselines.mc_ms": per_pass(1e3 * total_s("baselines.mc")),
        "baselines.mc_paths": per_pass(count("baselines.mc", "paths")),
        "windowing.search_ms": per_pass(1e3 * total_s("windowing.search_stride")),
        "windowing.strides_tried": per_pass(count("windowing.search_stride", "strides")),
        "windowing.windows": ratio(count("windowing.search_stride", "windows"), searches),
        "trace.overhead_pct": overhead_pct,
    }
    out.update({name: kernels.get(name, 0.0) for name in PER_LAYER if name.startswith("gan.kernel.")})
    return out
