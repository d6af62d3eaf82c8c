"""Measure a parent tree and a change tree in one session and write ``BENCH_<pr>.json``.

    python benchmarks/collect.py --parent ../pa --change ../ch --pr 31

``--parent`` and ``--change`` are checkout roots. They must be sibling
directories whose names have equal length: the directory name alone has moved
``infer`` items/s by ~12%. The workloads and the run length are
``BENCHMARK.json``'s ``workloads`` and ``run_seconds``. For each of ``PAIRS``
rounds, every workload runs once per tree (``perfbench/run.py --trace 0`` from
that tree, with seed ``i + 1`` on both sides in round ``i``), and the side that
runs first alternates from round to round. One more pair per workload runs the
parent twice (A/A), so the file shows its own noise floor. Then the
``benchmarks/`` pytest-benchmark cases and the Tier-1 suite run once in each
tree.

The file holds every run, and per workload and metric the median and
quartiles of each side, calibrated (``perfbench``'s metrics) and raw (before
the ``Calibration`` scale), with the number of pairs in which the change did
better. It also records nproc, the BLAS library and thread count and each
tree's git SHA (or, without git, the SHA-256 of its ``src/``). Cite a pair from
one file; numbers from two sessions do not compare. pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SIDES = ("parent", "change")
RAW_METRICS = ("setup_s", "items_per_s", "op_ms_p50")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pr", required=True, type=int)
    return parser.parse_args(argv)


def check_trees(parent: Path, change: Path) -> None:
    for tree in (parent, change):
        if not (tree / "perfbench" / "run.py").is_file():
            sys.exit(f"error: {tree} has no perfbench/run.py")
    if parent.resolve().parent != change.resolve().parent or len(parent.resolve().name) != len(change.resolve().name):
        sys.exit("error: --parent and --change must be sibling directories whose names have equal length")


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its calibrated metrics, raw timings, counts and environment."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return {
        "seed": seed,
        "calibrated": {name: metric["value"] for name, metric in result["metrics"].items()},
        "raw": {name: record["detail"]["raw"][name] for name in RAW_METRICS},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "env": record["env"],
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per kind (calibrated, raw) and metric: each side's quartiles and the pairs the change won."""
    out = {}
    for kind in ("calibrated", "raw"):
        out[kind] = {}
        for metric, direction in better.items():
            if kind == "raw" and metric not in RAW_METRICS:
                continue
            values = {side: [p[side][kind][metric] for p in pairs] for side in SIDES}
            if any(v is None for side in SIDES for v in values[side]):
                continue
            sign = 1 if direction == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            out[kind][metric] = {side: quartiles(values[side]) for side in SIDES} | {"change_better_pairs": won, "pairs": len(pairs)}
    return out


def aa_difference(aa: list[dict]) -> dict:
    """(second - first) / first for each calibrated metric of an A/A pair."""
    first, second = (run["calibrated"] for run in aa)
    return {m: (second[m] - first[m]) / first[m] for m in first if first[m] and second[m] is not None}


def tier1(tree: Path) -> dict:
    """Wall time and summary line of the Tier-1 suite, run as ROADMAP's verify line runs it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - start, 1), "exit": done.returncode, "summary": lines[-1] if lines else ""}


def cases(tree: Path) -> dict:
    """Median, quartiles and ``extra_info`` of every ``benchmarks/`` case, in seconds, on one BLAS thread."""
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = {**os.environ, **one_thread, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "cases.json"
        command = [sys.executable, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider", f"--benchmark-json={report}"]
        subprocess.run(command, cwd=tree, env=env, capture_output=True, check=True)
        data = json.loads(report.read_text())
    return {
        b["fullname"]: {"q1": b["stats"]["q1"], "median": b["stats"]["median"], "q3": b["stats"]["q3"], "rounds": b["stats"]["rounds"], **b["extra_info"]}
        for b in data["benchmarks"]
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    check_trees(args.parent, args.change)
    trees = {"parent": args.parent, "change": args.change}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    runs = {w: {"pairs": [], "aa": []} for w in workloads}
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"first": order[0]}
            for side in order:
                pair[side] = perfbench(trees[side], workload, i + 1, seconds)
                print(f"round {i} {workload} {side}: {pair[side]['calibrated']}", file=sys.stderr, flush=True)
            runs[workload]["pairs"].append(pair)
    for workload in workloads:
        runs[workload]["aa"] = [perfbench(trees["parent"], workload, 1, seconds) for _ in range(2)]

    first = runs[workloads[0]]["pairs"][0]
    env = first["parent"]["env"]
    report = {
        "pr": args.pr,
        "seconds": seconds,
        "pairs": PAIRS,
        "environment": {k: env[k] for k in ("nproc", "blas", "blas_version", "blas_threads", "numpy", "python", "machine")},
        "trees": {
            side: {"dir": tree.resolve().name, "git_sha": first[side]["env"]["git_sha"], "src_sha256": first[side]["env"]["src_sha256"]}
            for side, tree in trees.items()
        },
        "workloads": {w: {"summary": summarize(r["pairs"], better), "aa_relative_difference": aa_difference(r["aa"]), **r} for w, r in runs.items()},
    }
    for r in runs.values():
        for run in [*r["aa"], *(pair[side] for pair in r["pairs"] for side in SIDES)]:
            del run["env"]
    report["cases"] = {side: cases(tree) for side, tree in trees.items()}
    report["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
