"""The seed-sweep instrument, `tools/sweep.py`, against its stored results."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def sweep(monkeypatch):
    # the script pins the BLAS thread count in the environment when it loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_rows_match_stored_sweep(sweep):
    # the oracle trains nothing: exact GBM paths through the filter and pricer
    stored = [row for run in json.loads((ROOT / "SWEEP_13.json").read_text()).values()
              for row in run["oracle"]]
    rows = sweep.oracle_rows()
    assert [row.keys() for row in rows] == [row.keys() for row in stored]
    for row, want in zip(rows, stored):
        for key, value in want.items():
            assert row[key] == pytest.approx(value, rel=1e-9, abs=0), (row["sampling_seed"], key)
