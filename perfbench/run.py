"""ganmc benchmark: one workload per run, one JSON result on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,price,cli} --seed N --seconds S --trace {0,1}

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and prints the per-layer metrics from the traced ones.
The program is imported from `src/` of the same checkout; without it the
run exits 1 and prints no result. BLAS runs on one thread so that timings
and `call_mape_pct` do not depend on the machine's core count.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.dont_write_bytecode = True

# metric name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
    "request_ms.p50": "ms", "request_ms.tail": "ms", "tracks_per_s": "1/s",
    "epochs_per_s": "1/s", "call_mape_pct": "%",
}

def import_program():
    """Import ganmc from this checkout's src/, never from an installed copy."""
    if not (SRC / "ganmc" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'ganmc'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ganmc

    if Path(ganmc.__file__).resolve().parent != (SRC / "ganmc").resolve():
        raise SystemExit(f"error: imported ganmc from {ganmc.__file__}, not from {SRC}")


def blas_threads_in_use():
    """Ask the OpenBLAS bundled with numpy for its thread count; None if it cannot be found."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=["train", "price", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def measure(workload, args, workdir: Path):
    """Set up, warm up, then run passes for `args.seconds`; return the timings and the tracer."""
    import layers
    from spans import Tracer, nullspan

    setup_times = []

    def timed_setup():
        # each set-up writes to a directory of its own and returns a new state
        target = workdir / f"setup-{len(setup_times)}"
        target.mkdir(parents=True)
        started = time.perf_counter()
        state = workload.setup(target)
        setup_times.append(time.perf_counter() - started)
        return state

    workload.state = timed_setup()
    workload.warmup()

    tracer = Tracer()
    layers.register_sites(tracer)
    min_passes = 2 if args.trace else 1
    passes = []  # (seconds, traced)
    started = time.perf_counter()
    while True:
        if args.trace and len(passes) % 2 == 1:
            with tracer.recording():
                passes.append((workload.run_pass(tracer.span, True), True))
        else:
            passes.append((workload.run_pass(nullspan, False), False))
        elapsed = time.perf_counter() - started
        # the machine's speed drifts over seconds, so the set-up repeats
        # are spread over the run instead of all made at its start
        while (len(setup_times) < workload.setup_reps
               and elapsed >= len(setup_times) * args.seconds / workload.setup_reps):
            timed_setup()
        if (len(passes) >= min_passes
                and elapsed + statistics.median(s for s, _ in passes) / 2 >= args.seconds):
            break
    while len(setup_times) < workload.setup_reps:
        timed_setup()
    workload.finish()
    return passes, setup_times, tracer


def run(args) -> dict:
    import checks
    import layers
    from ganmc import options
    from workloads import WORKLOADS

    problems = checks.self_test(options.price_option, options.OptionContract)
    for problem in problems:
        print(f"self-test: {problem}")
    if not problems:
        print("self-test: every check accepts correct output and rejects its perturbed output")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed)
        passes, setup_times, tracer = measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    plain = [s for s, traced in passes if not traced]
    if args.trace:
        traced_s = [s for s, traced in passes if traced]
        overhead = 100.0 * (statistics.median(traced_s) / statistics.median(plain) - 1.0)
        values = layers.layer_metrics(tracer, len(traced_s), workload.kernels(), overhead)
        units = layers.PER_LAYER
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        values = workload.end_to_end(plain)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    tally = workload.tally
    for error in tally.errors[:20]:
        print(f"check failed: {error}")
    print(f"passes: {len(passes)} ({len(passes) - len(plain)} traced), seconds "
          + " ".join(f"{s:.3f}" for s, _ in passes))
    print(f"operations: attempted {tally.attempted}, failed {tally.failed}")
    return {
        "correct": not problems and not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }


class Terminated(BaseException):
    """SIGTERM, raised past the handlers that count program errors as failed operations."""


def _terminate(signum, frame):
    # unwinding runs the `finally` that removes the scratch directory
    raise Terminated(signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    import_program()
    print("environment: " + json.dumps(environment()))
    result = run(args)
    width = max(len(name) for name in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"correct: {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated as exc:
        sys.exit(128 + exc.args[0])
