"""The benchmark wraps program names at the module its callers look them up in.

`perfbench/layers.py::register_sites` names each wrapped attribute; if one
is deleted or renamed, `Tracer.recording` fails on `getattr`. This runs
the registration and one empty recording, without running the benchmark.
The traced runs also time the kernels of a loaded model and count the
flops of `sample`; the second test runs those two on a small saved model.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from ganmc import evaluation, gan, windowing

from conftest import gbm_prices

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_site_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        spans = importlib.import_module("spans")
        tracer = spans.Tracer()
        layers.register_sites(tracer)
        original = evaluation.train
        with tracer.recording():
            assert evaluation.train is not original
        assert evaluation.train is original
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)


def test_traced_model_metrics_run_on_a_loaded_model(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        prices = gbm_prices(200, seed=3)
        cfg = evaluation.ExperimentConfig(model="gan-mc", T=16, n1=5, seed=0, epochs=3,
                                          batch_size=32, probe_epochs=2)
        trained = evaluation.train_gan(cfg, prices).model
        gan.save_checkpoint(trained, tmp_path / "model.gmc")
        model = gan.load_checkpoint(tmp_path / "model.gmc")
        # the kernels time the discriminator, which only the trained model holds,
        # as in the train workload
        windows = windowing.partition(prices, 1, cfg.T).windows
        kernels = layers.kernel_metrics(trained, windows,
                                        evaluation.gan_config_from(cfg, trained.scale))
        assert len(kernels) == 6 and all(np.isfinite(v) and v > 0 for v in kernels.values())
        tracks = gan.sample(model, 10, 1)
        counts = layers._sample_counts((model, 10, 1), {}, tracks)
        assert counts["tracks"] == 10 and counts["flop"] > 0
    finally:
        sys.modules.pop("layers", None)
