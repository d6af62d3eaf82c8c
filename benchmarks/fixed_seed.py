"""Print the sha256 of a fixed-seed generate -> train -> eval -> infer run.

A pure refactor must leave these bytes unchanged, so comparing this script's
output before and after a change checks it. In a temporary directory it runs

    hipgraf generate --n_samples 8 --seed 4
    hipgraf train --seed 4 --max_steps 6 --lr 1e-3
    hipgraf eval --overlay-dir overlays
    hipgraf infer --image sample_0000.tgt --overlay
    hipgraf train --seed 4 --max_steps 6 --lr 1e-3 --variant <variant>
    hipgraf ablate --seed 4 --max_steps 2 --lr 1e-3 --folds 2

and prints one ``<sha256>  <name>  ok|DIFFERS`` line each for the checkpoint
``m.ckpt``, its loss log, the metrics CSV ``e.csv``, the overlay ``infer``
writes, the line ``infer`` prints, the checkpoint of each other variant
(``no_mmf``, ``no_tgcn`` and ``concat_baseline``), the ablation table
``ablate.csv`` and the overlay ``eval --overlay-dir`` writes for
``sample_0000``. Each hash is compared with its line in ``fixed_seed.sha256``
next to this script, and the script exits 1 when any differs. A change that
moves these bits on purpose updates that file and says why. BLAS runs on one
thread, since its summation order can depend on the thread count. Run from
the repository root (about 6 s):

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
EXPECTED = Path(__file__).resolve().with_suffix(".sha256")  # "<sha256>  <name>" lines
VARIANTS = ("no_mmf", "no_tgcn", "concat_baseline")  # besides the default, full
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def hipgraf(work: Path, *args: str) -> bytes:
    """Stdout of ``python -m hipgraf`` run in ``work`` on the source tree of this checkout."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "hipgraf", *args], cwd=work, env=env, check=True, capture_output=True).stdout


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        hipgraf(work, "generate", "--out", "data", "--n_samples", "8", "--seed", "4")
        manifest = str(Path("data") / "manifest.csv")
        train = ("train", "--data", manifest, "--seed", "4", "--max_steps", "6", "--lr", "1e-3")
        hipgraf(work, *train, "--out", "m.ckpt")
        hipgraf(work, "eval", "--checkpoint", "m.ckpt", "--data", manifest, "--out", "e.csv", "--overlay-dir", "overlays")
        image = str(Path("data") / "sample_0000.tgt")
        infer_line = hipgraf(work, "infer", "--checkpoint", "m.ckpt", "--image", image, "--overlay", "overlay.pgm")
        for variant in VARIANTS:
            hipgraf(work, *train, "--variant", variant, "--out", f"{variant}.ckpt")
        hipgraf(work, "ablate", "--data", manifest, "--seed", "4", "--max_steps", "2", "--lr", "1e-3", "--folds", "2", "--out", "ablate.csv")
        outputs = {name: (work / name).read_bytes() for name in ("m.ckpt", "m.ckpt.losses.csv", "e.csv", "overlay.pgm")}
        outputs["infer line"] = infer_line
        outputs.update({f"{variant}.ckpt": (work / f"{variant}.ckpt").read_bytes() for variant in VARIANTS})
        outputs["ablate.csv"] = (work / "ablate.csv").read_bytes()
        outputs["overlays/sample_0000_overlay.pgm"] = (work / "overlays" / "sample_0000_overlay.pgm").read_bytes()
    expected = {name: digest for digest, name in (line.split(None, 1) for line in EXPECTED.read_text().splitlines() if line.strip())}
    differs = False
    for name, data in outputs.items():
        digest = hashlib.sha256(data).hexdigest()
        same = expected.get(name) == digest
        differs |= not same
        print(f"{digest}  {name}  {'ok' if same else 'DIFFERS'}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
