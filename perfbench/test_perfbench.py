"""Smoke tests of the benchmark at a tiny size.

Run with ``python -m pytest perfbench``; they are not part of the tier-1
``testpaths``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hipgraf import dataset, training  # noqa: E402

TINY = workloads.Sizes(
    config={
        "input_size": 32,
        "feature_size": 8,
        "channels": 8,
        "unet_depth": 2,
        "patch_size": 8,
        "token_dim": 8,
        "transformer_layers": 1,
        "heads": 2,
    },
    train_images=4,
    train_steps=2,
    eval_images=8,
    infer_images=2,
    gen_images=4,
    setup_repeats=1,
)


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    (attempted, failed, values), detail, tracer = workloads.run(name, 3, 0.5, False, tmp_path, TINY)
    assert attempted >= 1 and failed == 0 and tracer is None
    assert set(values) == set(bench.END_TO_END_UNITS)
    assert all(np.isfinite(v) and v > 0 for v in values.values()), values
    assert values["ok_frac"] == 1.0


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_traced_run_reproduces_the_untraced_outputs(name, tmp_path):
    (attempted, failed, values), detail, tracer = workloads.run(name, 3, 1.0, True, tmp_path, TINY)
    assert failed == 0 and detail["traced_units"] >= 1
    assert list(values) == [metric for metric, _ in spans.PER_LAYER_METRICS]
    assert all(np.isfinite(v) for v in values.values()), values
    path = tmp_path / "spans.jsonl"
    tracer.write(path, {"workload": name})
    rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert rows and all(0 <= row["self_ns"] <= row["end_ns"] - row["start_ns"] for row in rows)


def test_traced_train_charges_every_layer_it_runs(tmp_path):
    (_, failed, values), _, _ = workloads.run("train", 3, 1.0, True, tmp_path, TINY)
    assert failed == 0
    for metric in ("autodiff.conv2d.calls", "autodiff.matmul.gflop", "autodiff.unfold.bwd_ms", "autodiff.tape_nodes", "autodiff.retained_mb"):
        assert values[metric] > 0, metric
    for module in ("unet", "transformer", "fusion", "head", "graph"):
        assert values[f"{module}.fwd_ms"] > 0 and values[f"{module}.bwd_ms"] > 0, module
    assert values["training.backward_ms"] > values["unet.bwd_ms"]
    assert values["autodiff.backward_rest_ms"] >= 0
    assert values["checkpoint.save_ms"] > 0 and values["checkpoint.bytes"] > 0
    assert values["phantom.render_ms"] == 0.0  # training data is made in set-up


def test_non_finite_loss_counts_as_failed_steps(monkeypatch, tmp_path):
    original = training.total_loss

    def poisoned(*args, **kwargs):
        losses = original(*args, **kwargs)
        losses.total.data = np.full_like(losses.total.data, np.nan)
        return losses

    monkeypatch.setattr(training, "total_loss", poisoned)
    (attempted, failed, values), _, _ = workloads.run("train", 3, 0.5, False, tmp_path, TINY)
    assert attempted >= 1 and failed >= 1
    assert values["ok_frac"] < 1.0


def test_corrupted_read_back_counts_as_failed_images(monkeypatch, tmp_path):
    original = dataset.read_image_tensor
    monkeypatch.setattr(dataset, "read_image_tensor", lambda path: original(path) * np.float32(0.5))
    (attempted, failed, values), _, _ = workloads.run("generate", 3, 0.5, False, tmp_path, TINY)
    assert attempted >= TINY.gen_images and failed == attempted
    assert values["ok_frac"] == 0.0


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER_METRICS)


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
