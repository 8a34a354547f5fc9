"""The byte-identity transcript, `tools/cli_transcript.py`, on the benchmark's CLI session."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_session_commands_pass_and_bad_payoff_days_fail(monkeypatch, tmp_path):
    # the script pins the BLAS thread count in the environment when it loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    path = ROOT / "tools" / "cli_transcript.py"
    spec = importlib.util.spec_from_file_location("cli_transcript", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        records, checkpoint = module.transcript(1, tmp_path)
    finally:
        for name in ("checks", "inputs", "layers", "spans", "workloads"):
            sys.modules.pop(name, None)
    # the benchmark's session, then a T0 beyond T and a T0 off the day grid
    assert [r["exit"] for r in records] == [0] * (len(records) - 2) + [1, 1]
    assert "index 65 > T=64" in records[-2]["stderr"]
    assert "T0/dt = 10.5 is not an integral track index" in records[-1]["stderr"]
    assert all(str(tmp_path) not in r["stdout"] + r["stderr"] + "".join(r["argv"]) for r in records)
    assert len(checkpoint) == 64
