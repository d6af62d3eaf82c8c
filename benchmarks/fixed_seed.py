"""Print the sha256 of a fixed-seed generate -> train -> eval -> infer run.

A pure refactor must leave these bytes unchanged, so comparing this script's
output before and after a change checks it. In a temporary directory it runs

    hipgraf generate --n_samples 8 --seed 4
    hipgraf train --seed 4 --max_steps 6 --lr 1e-3
    hipgraf eval
    hipgraf infer --image sample_0000.tgt --overlay
    hipgraf train --seed 4 --max_steps 6 --lr 1e-3 --variant <variant>

and prints one ``<sha256>  <name>`` line each for the checkpoint ``m.ckpt``,
its loss log, the metrics CSV ``e.csv``, the overlay, the line ``infer``
prints and the checkpoint of each other variant (``no_mmf``, ``no_tgcn`` and
``concat_baseline``). BLAS runs on one thread, since its summation order can
depend on the thread count. Run from the repository root (about 4 s):

    python benchmarks/fixed_seed.py

pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
VARIANTS = ("no_mmf", "no_tgcn", "concat_baseline")  # besides the default, full
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def hipgraf(work: Path, *args: str) -> bytes:
    """Stdout of ``python -m hipgraf`` run in ``work`` on the source tree of this checkout."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "hipgraf", *args], cwd=work, env=env, check=True, capture_output=True).stdout


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        hipgraf(work, "generate", "--out", "data", "--n_samples", "8", "--seed", "4")
        manifest = str(Path("data") / "manifest.csv")
        train = ("train", "--data", manifest, "--seed", "4", "--max_steps", "6", "--lr", "1e-3")
        hipgraf(work, *train, "--out", "m.ckpt")
        hipgraf(work, "eval", "--checkpoint", "m.ckpt", "--data", manifest, "--out", "e.csv")
        image = str(Path("data") / "sample_0000.tgt")
        infer_line = hipgraf(work, "infer", "--checkpoint", "m.ckpt", "--image", image, "--overlay", "overlay.pgm")
        for variant in VARIANTS:
            hipgraf(work, *train, "--variant", variant, "--out", f"{variant}.ckpt")
        outputs = {name: (work / name).read_bytes() for name in ("m.ckpt", "m.ckpt.losses.csv", "e.csv", "overlay.pgm")}
        outputs["infer line"] = infer_line
        outputs.update({f"{variant}.ckpt": (work / f"{variant}.ckpt").read_bytes() for variant in VARIANTS})
    for name, data in outputs.items():
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
