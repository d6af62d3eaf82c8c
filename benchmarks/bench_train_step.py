"""Step time and traced memory of consecutive default-config training steps.

Runs ``training.train`` for three steps of the default ``full`` model at
batch 2 (128 px input, float32) on six phantom images. The benchmark's timed
call is the whole three-step run. ``extra_info`` holds each step's time (from
the start of one batch's assembly to the next; the last step ends when
``train`` returns), their median as ``median_step_ms``, and the
``tracemalloc`` peak of a second, traced three-step run as
``tracemalloc_peak_mb``. The traced run is separate so that tracing does not
slow the timed steps.

Run from the repository root (pin BLAS to one thread for numbers comparable
with ``perfbench``; the JSON file holds ``extra_info``):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/bench_train_step.py \
        -p no:cacheprovider --benchmark-json=bench_train_step.json

The file lives outside ``tests/``, so the tier-1 run never collects it.
"""

import statistics
import time
import tracemalloc

import numpy as np

from hipgraf import training
from hipgraf.config import default_run_config, model_config_from, train_config_from
from hipgraf.dataset import ImageSample
from hipgraf.nets.model import build_model
from hipgraf.phantom import render_phantom, sample_geometry

STEPS = 3
BATCH = 2


def _samples(n=6, size=128):
    samples = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([5, i]))
        geometry = sample_geometry("normal" if i % 2 == 0 else "abnormal", rng=rng, size=size)
        image = render_phantom(geometry.landmarks, rng=rng, size=size)
        landmarks, angles = geometry.landmarks.astype(np.float32), geometry.angles
        samples.append(ImageSample(f"bench_{i}", image, landmarks, geometry.label, 0.1, angles.alpha, angles.beta))
    return samples


def test_train_steps(benchmark, monkeypatch):
    values = default_run_config()
    samples = _samples()
    model = build_model(model_config_from(values), seed=0)
    initial = {name: arr.copy() for name, arr in model.state_arrays().items()}
    cfg = train_config_from({**values, "batch_size": BATCH, "max_steps": STEPS})
    starts = []
    make_batch = training.make_batch

    def marked_make_batch(*args, **kwargs):
        starts.append(time.perf_counter())
        return make_batch(*args, **kwargs)

    monkeypatch.setattr(training, "make_batch", marked_make_batch)

    def run():
        model.load_state(initial)
        starts.clear()
        training.train(samples, model, cfg)
        ends = starts[1:] + [time.perf_counter()]
        return [1000 * (b - a) for a, b in zip(starts, ends)]

    step_ms = benchmark.pedantic(run, rounds=1, iterations=1)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["step_ms"] = step_ms
    benchmark.extra_info["median_step_ms"] = statistics.median(step_ms)
    benchmark.extra_info["tracemalloc_peak_mb"] = peak / 2**20
    assert len(step_ms) == STEPS
