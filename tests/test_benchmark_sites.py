"""The benchmark wraps program names at the module its callers look them up in.

`perfbench/layers.py::register_sites` names each wrapped attribute; if one
is deleted or renamed, `Tracer.recording` fails on `getattr`. This runs
the registration and one empty recording, without running the benchmark.
"""

import importlib
import sys
from pathlib import Path

from ganmc import evaluation

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
