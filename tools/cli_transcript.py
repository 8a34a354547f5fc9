"""Transcript of the benchmark's scripted `ganmc` CLI session, for byte-identity checks.

Usage, from the root of a checkout:

    python3 tools/cli_transcript.py --seed S

It trains the short-schedule model that the benchmark's `price` and `cli`
workloads load (`perfbench/workloads.py::serve_model`), writes the `cli`
workload's data files and configs for seed S (`perfbench/inputs.py::cli_inputs`)
and runs every command of that session in process. Two more commands follow,
which must fail at the payoff-day check: an equity futures price whose T0
lies beyond the T-day window, and an option price whose T0 lies off the day
grid. `perfbench/` is only imported, never written.

Each command prints one JSON line: its argv, stdout, stderr and exit code,
and the SHA-256 of its `--out` file and of that file's `.meta.txt` sidecar
without the `wall_time_seconds` line (null where there is none). The work
directory is written as `<work>` everywhere, since configs, sidecars and
`generate`'s stdout hold absolute paths. The last line is the SHA-256 of the
trained checkpoint.

BLAS runs on one thread. Two checkouts that give the same transcript at the
same seed, on the same numpy/BLAS build, produce the same bytes in every
command of the session; to compare two checkouts, run a copy of this script
from the root of each and diff the outputs. A seed takes about 1 s on a
2-vCPU Xeon VM.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLACEHOLDER = "<work>"


def _use_checkout() -> None:
    """Import ganmc from this checkout's src/, and the benchmark's modules from its perfbench/."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import ganmc

    if Path(ganmc.__file__).resolve().parent != (ROOT / "src" / "ganmc").resolve():
        raise SystemExit(f"error: imported ganmc from {ganmc.__file__}, not from {ROOT / 'src'}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    """One in-process `ganmc` command: exit code, stdout and stderr."""
    from ganmc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def transcript(seed: int, workdir: Path) -> tuple[list[dict], str]:
    """Every command's record, in session order, and the checkpoint's SHA-256.

    The session's files go to `workdir`; perfbench/ must be on `sys.path`.
    """
    import inputs as I
    import workloads

    prices, checkpoint = I.gbm_history(), workdir / "model.gmc"
    workloads.serve_model(prices, checkpoint, workloads.EpochCounter())
    argvs, _ = I.cli_inputs(seed, workdir, prices, checkpoint)
    gan_cfg = ["--config", str(workdir / "gan-mc.cfg")]
    argvs += [
        gan_cfg + ["price-equity-futures", "--t0", repr((I.T + 1) * I.DT)],
        gan_cfg + ["price-option", "--side", "call", "--strike", "100",
                   "--t0", repr(10.5 * I.DT)],
    ]

    def scrub(text: str) -> str:
        return text.replace(str(workdir), PLACEHOLDER)

    records = []
    for argv in argvs:
        rc, stdout, stderr = _run(argv)
        out = meta = None
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            out = _sha256(path.read_bytes()) if path.exists() else None
            sidecar = Path(f"{path}.meta.txt")
            if sidecar.exists():
                lines = sidecar.read_text(encoding="utf-8").splitlines(keepends=True)
                kept = "".join(line for line in lines if not line.startswith("wall_time_seconds:"))
                meta = _sha256(scrub(kept).encode())
        records.append({
            "argv": [scrub(arg) for arg in argv], "exit": rc,
            "stdout": scrub(stdout), "stderr": scrub(stderr),
            "out_sha256": out, "meta_sha256": meta,
        })
    return records, _sha256(checkpoint.read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    _use_checkout()
    with tempfile.TemporaryDirectory() as tmp:
        records, checkpoint = transcript(args.seed, Path(tmp).resolve())
    for record in records:
        print(json.dumps(record))
    print(json.dumps({"checkpoint_sha256": checkpoint}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
