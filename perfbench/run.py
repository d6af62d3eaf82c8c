"""Run one hipgraf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports hipgraf from ``src/`` there
and from nowhere else. Scratch files go to ``.bench_work/`` and are removed
at exit; the full result, the environment record and, for ``--trace 1``, the
span file go to ``.bench_out/``. The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the environment record and run details.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("train", "eval", "infer", "generate")

# One BLAS thread: on a shared two-core machine a second BLAS thread made
# batch-8 eval about 10% faster but its run-to-run spread twice as wide.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "accuracy_guard": "loss_or_mm",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def blas_threads_in_use() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it says."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # keeps git from searching the parent directories
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the paths and bytes of ``src/``, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads_in_use(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def finite_or_none(value):
    """JSON-safe copy: non-finite floats become null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite_or_none(v) for v in value]
    return value


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hipgraf" / "__init__.py").is_file():
        print(f"error: no hipgraf source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import hipgraf

    if Path(hipgraf.__file__).resolve().parent != SRC / "hipgraf":
        print(f"error: imported hipgraf from {hipgraf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    import_s = time.perf_counter() - START

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        (attempted, failed, values), detail, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, import_s=import_s
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(spans.PER_LAYER_METRICS) if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": finite_or_none(values[name]), "unit": unit} for name, unit in units.items()},
    }
    env = environment(args.seed, nproc)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl", {"env": env, "workload": args.workload})
    record = finite_or_none({"env": env, "detail": detail})
    (OUT / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1, allow_nan=False) + "\n")
    record["detail"].pop("op_ms_raw")
    print(json.dumps(record, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
