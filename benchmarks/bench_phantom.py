"""Time of the phantom generator's three stages.

- ``render_phantom`` of one 128 px image with speckle 0.3;
- ``sample_geometry`` of one 128 px layout, rejection sampling included;
- ``generate_dataset`` of 16 images at the default generator config, into
  ``tmp_path``: geometry, rendering and the ``.tgt``, PGM and manifest writes.

Each benchmark seeds one generator and keeps drawing from it, so successive
rounds draw new speckle (``render_phantom``, on one fixed layout) and new
layouts (``sample_geometry``), as a dataset does.

Run from the repository root (pytest-benchmark prints min/median/max per
case; pin BLAS to one thread for numbers comparable with ``perfbench``):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/bench_phantom.py \
        -p no:cacheprovider --benchmark-columns=median,iqr,rounds

The file lives outside ``tests/``, so the tier-1 run never collects it.
"""

import numpy as np

from hipgraf.config import GeneratorConfig
from hipgraf.phantom import generate_dataset, render_phantom, sample_geometry

SIZE = 128


def test_render_phantom(benchmark):
    rng = np.random.default_rng(0)
    landmarks = sample_geometry("any", rng=rng, size=SIZE).landmarks
    image = benchmark(render_phantom, landmarks, rng=rng, size=SIZE, speckle_gamma=0.3)
    assert image.shape == (SIZE, SIZE)


def test_sample_geometry(benchmark):
    rng = np.random.default_rng(1)
    geometry = benchmark(sample_geometry, "any", rng=rng, size=SIZE)
    assert geometry.landmarks.shape == (6, 2)


def test_generate_dataset(benchmark, tmp_path):
    config = GeneratorConfig(n_samples=16, seed=2, size=SIZE)
    manifest = benchmark(generate_dataset, tmp_path / "data", config)
    assert len(list(tmp_path.joinpath("data").glob("*.tgt"))) == 16 and manifest.is_file()
