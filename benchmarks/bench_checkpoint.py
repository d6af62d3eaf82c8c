"""Time and traced memory of building, saving, loading and restoring the default model.

Five cases at the default run config (the ``full`` model, 2.6M float32
parameters, a 9.9 MB checkpoint): ``build_model``, ``save_checkpoint``,
``load_checkpoint``, ``restore_model`` of a loaded checkpoint, and load plus
restore, the set-up of ``hipgraf eval`` and ``hipgraf infer``. Each case runs
once under ``tracemalloc`` before it is timed and records the peak traced
memory of that call as ``peak_mb`` in the case's ``extra_info``
(``--benchmark-json`` writes it out).

Run from the repository root (pytest-benchmark prints min/median/max per
case; pin BLAS to one thread for numbers comparable with ``perfbench``):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint.py \
        -p no:cacheprovider --benchmark-columns=median,iqr,rounds

The file lives outside ``tests/``, so the tier-1 run never collects it.
"""

import pytest

from hipgraf.checkpoint import load_checkpoint, restore_model, save_checkpoint
from hipgraf.config import default_run_config, model_config_from, run_config_to_items
from hipgraf.nets.model import build_model

from bench_window import _timed_with_peak

SEED = 0


@pytest.fixture(scope="module")
def config():
    return default_run_config()


@pytest.fixture(scope="module")
def model(config):
    return build_model(model_config_from(config), seed=SEED)


@pytest.fixture(scope="module")
def path(tmp_path_factory, config, model):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, model, run_config_to_items(config))
    return path


def test_build_model(benchmark, config):
    model_config = model_config_from(config)
    _timed_with_peak(benchmark, lambda: build_model(model_config, seed=SEED))


def test_save_checkpoint(benchmark, tmp_path, config, model):
    items = run_config_to_items(config)
    out = tmp_path / "saved.ckpt"
    _timed_with_peak(benchmark, lambda: save_checkpoint(out, model, items))


def test_load_checkpoint(benchmark, path):
    _timed_with_peak(benchmark, lambda: load_checkpoint(path))


def test_restore_model(benchmark, path):
    loaded = load_checkpoint(path)
    _timed_with_peak(benchmark, lambda: restore_model(loaded))


def test_load_and_restore(benchmark, path):
    _timed_with_peak(benchmark, lambda: restore_model(load_checkpoint(path)))
