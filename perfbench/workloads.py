"""The four benchmark workloads and the loop that measures them.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished. An operation is a training step
(``train``), a batch of eight images (``eval``), one request (``infer``) or
one generated image (``generate``, timed per dataset). Operations run in
units: a fixed-length training trajectory, one eval batch, one request, one
generated dataset. A unit is repeated from the same inputs, so every
repetition must reproduce the first one bit for bit, and the traced phase
must reproduce the untraced one.

Inputs come from the workload seed; the model is always initialized with
seed 0, the default run config's seed, so only the data moves with the seed.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hipgraf import checkpoint, dataset, experiments, metrics, phantom, training
from hipgraf.config import generator_config_from, merge_run_config, model_config_from, run_config_to_items, train_config_from
from hipgraf.errors import DataError
from hipgraf.nets import model as model_module
from hipgraf.nets.model import build_model

from spans import Patches, Tracer

MODEL_SEED = 0
EVAL_BATCH = 8


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, smaller ones are for tests."""

    config: dict = field(default_factory=dict)  # run-config overrides, e.g. a smaller model
    train_images: int = 16
    train_steps: int = 16
    eval_images: int = 32
    infer_images: int = 16
    gen_images: int = 64
    setup_repeats: int = 3


@dataclass
class Unit:
    """What one repetition of a workload's unit did."""

    items: int = 0
    latencies: list[float] = field(default_factory=list)  # seconds, one per finished op
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    signature: object = None  # exact outputs, compared across repetitions


def _finite_in_image(coords: np.ndarray, size: int) -> bool:
    coords = np.asarray(coords)
    return coords.shape == (6, 2) and bool(np.isfinite(coords).all()) and bool(((coords >= 0) & (coords <= size - 1)).all())


def _probability_ok(logit: float) -> bool:
    prob = 1.0 / (1.0 + math.exp(-logit)) if math.isfinite(logit) else float("nan")
    return 0.0 <= prob <= 1.0


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


class Workload:
    """Set-up, warm-up and one unit of work; subclasses fill in the three."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.seed = seed
        self.values = merge_run_config(overrides={**sizes.config, "seed": MODEL_SEED})
        self.size = self.values["input_size"]
        self.tracer: Tracer | None = None
        self.probes = Patches()
        self.op_count = 0
        self.first: dict[int, object] = {}

    def open(self) -> None:
        """Install the probes the workload reads its op boundaries and outputs from."""

    def close(self) -> None:
        self.probes.restore()

    def begin_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op_id = self.op_count
        self.op_count += 1

    def check_repeat(self, key: int, signature) -> bool:
        """True when this unit's outputs equal those of its first repetition."""
        first = self.first.setdefault(key, signature)
        return first == signature

    def generator(self, n: int):
        return generator_config_from({**self.values, "seed": self.seed, "n_samples": n})

    def restored_model(self, workdir: Path):
        """Build the seed-0 model, write its checkpoint and restore it, as ``hipgraf eval`` does."""
        path = workdir / "model.ckpt"
        checkpoint.save_checkpoint(path, build_model(model_config_from(self.values), seed=MODEL_SEED), run_config_to_items(self.values))
        return checkpoint.restore_model(checkpoint.load_checkpoint(path))


class Train(Workload):
    """Optimizer steps of the default ``full`` model, checkpoint saved per trajectory."""

    name = "train"

    def __init__(self, sizes: Sizes, seed: int):
        super().__init__(sizes, seed)
        self.marks: list[float] = []
        self.final_loss = float("nan")

    def open(self) -> None:
        self.probes.function(training, "make_batch", self._mark)

    def _mark(self, make_batch):
        def marked(*args, **kwargs):
            self.begin_op()
            self.marks.append(time.perf_counter())
            return make_batch(*args, **kwargs)

        return marked

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.samples = dataset.read_manifest(phantom.generate_dataset(workdir / "data", self.generator(self.sizes.train_images)))
        self.model = build_model(model_config_from(self.values), seed=MODEL_SEED)
        self.initial = {name: arr.copy() for name, arr in self.model.state_arrays().items()}
        self.config = train_config_from({**self.values, "seed": self.seed, "max_steps": self.sizes.train_steps})

    def warmup(self) -> None:
        training.train(self.samples, self.model, train_config_from({**self.values, "seed": self.seed, "max_steps": 2}))
        self.model.load_state(self.initial)

    def run_unit(self, index: int) -> Unit:
        self.model.load_state(self.initial)
        self.marks = []
        unit = Unit()
        start = time.perf_counter()
        try:
            result = training.train(self.samples, self.model, self.config)
        except Exception as exc:  # a failed step is counted, the run goes on
            _report(exc)
            unit.wall = time.perf_counter() - start
            unit.attempted = len(self.marks)
            unit.failed = 1
            return unit
        trained = time.perf_counter()
        checkpoint.save_checkpoint(
            self.workdir / "train.ckpt",
            self.model,
            run_config_to_items(self.values),
            optimizer=result.optimizer,
            epoch=result.epochs_run,
            step=result.steps_run,
        )
        unit.wall = time.perf_counter() - start
        ends = self.marks[1:] + [trained]
        unit.latencies = [b - a for a, b in zip(self.marks, ends)]
        unit.attempted = len(result.history)
        losses = [(row.l_landmark, row.l_classify, row.total) for row in result.history]
        finite = [all(math.isfinite(v) for v in row) for row in losses]
        unit.failed = finite.count(False)
        unit.signature = tuple(losses)
        if unit.failed == 0 and not self.check_repeat(0, unit.signature):
            unit.failed = 1
        unit.items = self.config.batch_size * (unit.attempted - unit.failed)
        last_epoch = [row.l_landmark for row in result.history if row.epoch == result.history[-1].epoch]
        self.final_loss = float(np.mean(last_epoch))
        return unit

    def guard(self) -> float:
        """Mean landmark (heatmap) loss over the trajectory's last epoch, which sees every training image once.

        One step's loss depends on which two images it drew, and the
        classification term on the class mix the seed drew: over seeds 11-20
        the spread (interquartile range over median) of the last-epoch mean
        was 0.23 for the classification loss and 0.08 for the joint loss, but
        0.011 for the landmark loss. Every step's joint loss is still checked
        for being finite and for repeating bit for bit.
        """
        return self.final_loss


class Eval(Workload):
    """Batch-8 ``experiments.evaluate_model`` on a model restored from a checkpoint."""

    name = "eval"

    def __init__(self, sizes: Sizes, seed: int):
        super().__init__(sizes, seed)
        self.coords: list[np.ndarray] = []
        self.logits: list[float] = []
        self.batch_mre: dict[int, float] = {}

    def open(self) -> None:
        self.probes.function(experiments, "decode_landmarks", self._capture_coords)
        self.probes.method(model_module.LandmarkNet, "forward", self._capture_logits)

    def _capture_coords(self, decode):
        def captured(*args, **kwargs):
            result = decode(*args, **kwargs)
            self.coords.append(result[0])
            return result

        return captured

    def _capture_logits(self, forward):
        def captured(model, images):
            out = forward(model, images)
            if out.logit is not None:
                self.logits.extend(float(v) for v in np.asarray(out.logit.data).reshape(-1))
            return out

        return captured

    def setup(self, workdir: Path) -> None:
        self.samples = dataset.read_manifest(phantom.generate_dataset(workdir / "data", self.generator(self.sizes.eval_images)))
        self.model = self.restored_model(workdir)
        self.batches = [self.samples[i : i + EVAL_BATCH] for i in range(0, len(self.samples), EVAL_BATCH)]

    def warmup(self) -> None:
        experiments.evaluate_model(self.model, self.batches[0], batch_size=EVAL_BATCH)

    def run_unit(self, index: int) -> Unit:
        key = index % len(self.batches)
        chunk = self.batches[key]
        self.coords, self.logits = [], []
        unit = Unit(attempted=1)
        self.begin_op()
        start = time.perf_counter()
        try:
            result = experiments.evaluate_model(self.model, chunk, fold=str(key), batch_size=EVAL_BATCH)
        except Exception as exc:
            _report(exc)
            unit.wall = time.perf_counter() - start
            unit.failed = 1
            return unit
        unit.wall = time.perf_counter() - start
        ok = (
            len(self.coords) == len(chunk)
            and all(_finite_in_image(c, self.size) for c in self.coords)
            and (self.model.refiner is None or (len(self.logits) == len(chunk) and all(_probability_ok(v) for v in self.logits)))
            and math.isfinite(result.mre_mm)
        )
        unit.signature = (result.mre_mm, tuple(c.tobytes() for c in self.coords))
        ok = ok and self.check_repeat(key, unit.signature)
        unit.failed = 0 if ok else 1
        unit.latencies = [unit.wall]
        unit.items = len(chunk) if ok else 0
        self.batch_mre.setdefault(key, result.mre_mm)
        return unit

    def guard(self) -> float:
        """MRE in mm over the batches evaluated (every batch is the same size)."""
        return float(np.mean(list(self.batch_mre.values()))) if self.batch_mre else float("nan")


class Infer(Workload):
    """Single-image requests along the ``hipgraf infer`` path."""

    name = "infer"

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.samples = dataset.read_manifest(phantom.generate_dataset(workdir / "data", self.generator(self.sizes.infer_images)), load_images=False)
        self.paths = [workdir / "data" / s.name for s in self.samples]
        self.model = self.restored_model(workdir)
        self.errors: dict[int, float] = {}

    def request(self, key: int) -> tuple[np.ndarray, float | None]:
        """Read, detect, decode and write the overlay, as ``cmd_infer`` does."""
        image = dataset.load_image(self.paths[key])
        if image.shape != (self.size, self.size):
            raise DataError(f"{self.paths[key]}: image shape {image.shape} does not match model input")
        out = self.model.forward(image[None, None])
        coords, _ = metrics.decode_landmarks(out.detection_stack().data[0], upscale=self.model.upscale)
        logit = None
        if out.logit is not None:
            logit = float(np.asarray(out.logit.data).reshape(-1)[0])
        metrics.write_overlay(self.workdir / f"overlay_{key:04d}.pgm", image, coords)
        return coords, logit

    def warmup(self) -> None:
        self.request(0)

    def run_unit(self, index: int) -> Unit:
        key = index % len(self.paths)
        unit = Unit(attempted=1)
        self.begin_op()
        start = time.perf_counter()
        try:
            coords, logit = self.request(key)
        except Exception as exc:
            _report(exc)
            unit.wall = time.perf_counter() - start
            unit.failed = 1
            return unit
        unit.wall = time.perf_counter() - start
        ok = _finite_in_image(coords, self.size) and (logit is None or _probability_ok(logit))
        unit.signature = (coords.tobytes(), logit)
        ok = ok and self.check_repeat(key, unit.signature)
        unit.failed = 0 if ok else 1
        unit.latencies = [unit.wall]
        unit.items = 1 if ok else 0
        sample = self.samples[key]
        self.errors.setdefault(key, metrics.mre(coords, sample.landmarks, sample.spacing))
        return unit

    def guard(self) -> float:
        """MRE in mm over the images requested."""
        return float(np.mean(list(self.errors.values()))) if self.errors else float("nan")


class Generate(Workload):
    """``phantom.generate_dataset`` at the default generator config, then ``read_manifest``.

    The latency of an image is that of its dataset, generation and read-back,
    divided by the dataset's size: single images are too short to time
    steadily between interruptions of a shared machine.
    """

    name = "generate"

    def __init__(self, sizes: Sizes, seed: int):
        super().__init__(sizes, seed)
        self.written: dict[str, np.ndarray] = {}
        self.samples = []

    def open(self) -> None:
        self.probes.function(phantom, "write_image_tensor", self._capture)

    def _capture(self, write_image_tensor):
        def captured(path, image):
            self.written[Path(path).name] = np.array(image, dtype=np.float32)
            return write_image_tensor(path, image)

        return captured

    def setup(self, workdir: Path) -> None:
        self.out_dir = workdir / "generated"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config = self.generator(self.sizes.gen_images)

    def warmup(self) -> None:
        phantom.generate_dataset(self.out_dir / "warmup", self.generator(min(4, self.sizes.gen_images)))

    def run_unit(self, index: int) -> Unit:
        self.written = {}
        unit = Unit()
        self.begin_op()
        start = time.perf_counter()
        try:
            manifest = phantom.generate_dataset(self.out_dir, self.config)
            samples = dataset.read_manifest(manifest)
        except Exception as exc:
            _report(exc)
            unit.wall = time.perf_counter() - start
            unit.attempted = max(len(self.written), 1)
            unit.failed = 1
            return unit
        unit.wall = time.perf_counter() - start
        unit.latencies = [unit.wall / len(samples)]
        unit.attempted = len(samples)
        for s in samples:
            written = self.written.get(s.name)
            label_ok = s.label == metrics.classify_graf(metrics.graf_angles(s.landmarks))
            if not (label_ok and written is not None and np.array_equal(s.image, written)):
                unit.failed += 1
        unit.signature = hashlib.sha256(b"".join(self.written[k].tobytes() for k in sorted(self.written))).hexdigest()
        if unit.failed == 0 and not self.check_repeat(0, unit.signature):
            unit.failed = unit.attempted
        unit.items = unit.attempted - unit.failed
        self.samples = samples
        return unit

    def guard(self) -> float:
        """MRE in mm of the label round trip: landmarks to target heatmaps and back.

        It is the error floor of heatmap decoding at the model's feature
        size, fixed by the generated geometry.
        """
        if not self.samples:
            return float("nan")
        feature = self.values["feature_size"]
        errors = []
        for s in self.samples:
            target = training.make_gt_heatmaps(s.landmarks, self.values["sigma"], feature, self.size, name=s.name)
            coords, _ = metrics.decode_landmarks(target, upscale=self.size // feature)
            errors.append(metrics.mre(coords, s.landmarks, s.spacing))
        return float(np.mean(errors))


WORKLOADS = {w.name: w for w in (Train, Eval, Infer, Generate)}


class Calibration:
    """A fixed mix of numpy kernels, timed between units to track the machine's speed.

    On a shared machine the speed of the same code drifts by 20% and more
    from one minute to the next, while the ratio of a workload's time to
    this mix's time in the same run drifts less. A phase's times are
    therefore scaled to a machine on which the mix takes ``REFERENCE_MS``,
    by the median mix time of the phase; the raw times go to the run
    details. The mix covers the kinds of work the workloads do, without
    touching hipgraf: a square float32 GEMM, an im2col-style strided copy of
    a 16-channel 128 px map, a shifted-slice accumulate like a col2im
    scatter, two streaming elementwise passes over the 9 MB patch matrix,
    float64 exponentials on 128 px images as the phantom renderer computes
    them, and many small-array numpy calls. Every buffer is allocated once,
    about 16 MB in all: the page faults of fresh large allocations cost from
    0.1 to 2.4 ms per run of the mix on the machine the baseline was taken
    on, independently of the workloads' speed. The buffers count in
    ``peak_rss_mb``, so they are kept few and shared.
    """

    REFERENCE_MS = 16.0
    INTERVAL_S = 0.5  # one run of the mix per this much work
    SAMPLES_AT_START = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((512, 512), dtype=np.float32)
        self.square_out = np.empty_like(self.square)
        self.maps = rng.standard_normal((1, 16, 130, 130), dtype=np.float32)
        self.windows = np.lib.stride_tricks.sliding_window_view(self.maps, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
        self.cols = np.empty(self.windows.shape, np.float32)
        self.acc = np.zeros_like(self.maps)
        self.flat = rng.standard_normal(1 << 18, dtype=np.float32)
        self.flat_out = np.empty_like(self.flat)
        self.image = rng.standard_normal((128, 128))
        self.small = rng.standard_normal((32, 32), dtype=np.float32)
        self.measure()  # first touch of the arrays

    def measure(self) -> float:
        """Time of one run of the mix in ms."""
        start = time.perf_counter()
        np.matmul(self.square, self.square, out=self.square_out)
        np.copyto(self.cols, self.windows)
        for i in range(3):
            for j in range(3):
                self.acc[:, :, i : i + 128, j : j + 128] += self.maps[:, :, 1:129, 1:129]
        self.cols *= 0.9
        self.cols += self.cols
        np.exp(self.flat, out=self.flat_out)
        for _ in range(5):
            np.exp(-(self.image**2) / 3.0)
        for _ in range(50):
            (self.small * 2.0 + self.small).sum()
        return (time.perf_counter() - start) * 1e3


@dataclass
class Phase:
    units: list[Unit] = field(default_factory=list)
    calibration_ms: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(u.attempted for u in self.units)

    @property
    def failed(self) -> int:
        return sum(u.failed for u in self.units)

    @property
    def scale(self) -> float:
        """Factor from this phase's times to reference-machine times."""
        return Calibration.REFERENCE_MS / statistics.median(self.calibration_ms)

    def latencies(self) -> list[float]:
        return [x for u in self.units for x in u.latencies]

    def timings(self, scale: float) -> dict[str, float]:
        lat = self.latencies()
        return {
            "items_per_s": sum(u.items for u in self.units) / (sum(u.wall for u in self.units) * scale),
            "op_ms_p50": float(np.percentile(lat, 50)) * 1e3 * scale if lat else float("nan"),
            "op_ms_p90": float(np.percentile(lat, 90)) * 1e3 * scale if lat else float("nan"),
        }


def measure(workload: Workload, calibration: Calibration, seconds: float, phase: Phase) -> Phase:
    """Repeat units for ``seconds``; a unit is not started if it would overrun.

    The calibration mix runs once per ``Calibration.INTERVAL_S`` of work, so
    a long unit is followed by several runs of the mix.
    """
    start = time.perf_counter()
    owed = Calibration.SAMPLES_AT_START
    while True:
        phase.calibration_ms.extend(calibration.measure() for _ in range(int(owed)))
        owed -= int(owed)
        unit_start = time.perf_counter()
        phase.units.append(workload.run_unit(len(phase.units)))
        now = time.perf_counter()
        owed += (now - unit_start) / Calibration.INTERVAL_S
        if now - start + phase.units[-1].wall > seconds:
            phase.calibration_ms.extend(calibration.measure() for _ in range(max(int(owed), Calibration.SAMPLES_AT_START)))
            return phase


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, sizes: Sizes = Sizes(), import_s: float = 0.0):
    """Run one workload; returns ((attempted, failed, metric values), detail, tracer or None).

    Set-up runs ``sizes.setup_repeats`` times: ``setup_s`` is the import time
    plus their median, and the units run on the last one.
    With ``trace`` the first half of the time runs untraced and the second
    half traced, from a fresh set-up; every traced unit must reproduce its
    untraced counterpart bit for bit, or it counts as failed.
    """
    workload = WORKLOADS[name](sizes, seed)
    calibration = Calibration()
    plain = Phase(calibration_ms=[calibration.measure() for _ in range(Calibration.SAMPLES_AT_START)])
    setup_times = []
    for r in range(sizes.setup_repeats):
        start = time.perf_counter()
        workload.setup(workdir / f"setup{r}")
        setup_times.append(time.perf_counter() - start)
    setup_raw = import_s + statistics.median(setup_times)
    workload.open()
    try:
        try:
            workload.warmup()
        except Exception as exc:  # the measured units count the failure
            _report(exc)
        measure(workload, calibration, seconds / 2 if trace else seconds, plain)
    finally:
        workload.close()
    detail = {
        "unit_count": len(plain.units),
        "op_count": len(plain.latencies()),
        "calibration_ms": statistics.median(plain.calibration_ms),
        "calibration_count": len(plain.calibration_ms),
        "raw": {"setup_s": setup_raw, **plain.timings(1.0)},
        "import_s": import_s,
        "setup_times_s": setup_times,
        "guard": workload.guard(),
        "op_ms_raw": [round(x * 1e3, 4) for x in plain.latencies()],
    }
    detail["scaled"] = plain.timings(plain.scale)
    if not trace:
        attempted, failed = plain.attempted, plain.failed
        values = {
            "setup_s": setup_raw * plain.scale,
            "items_per_s": detail["scaled"]["items_per_s"],
            "op_ms_p50": detail["scaled"]["op_ms_p50"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
            "accuracy_guard": workload.guard(),
        }
        return (attempted, failed, values), detail, None

    # The probes go on after the tracer, so that they stay outermost and mark
    # an op as begun before any span inside it opens.
    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    workload.open()
    try:
        workload.setup(workdir / "traced")
        traced = measure(workload, calibration, seconds / 2, Phase())
    finally:
        workload.close()
        tracer.op_id = None
        tracer.uninstall()
    detail["traced_units"] = len(traced.units)
    p50 = [p.timings(p.scale)["op_ms_p50"] for p in (plain, traced)]
    values = tracer.per_layer(traced.attempted, 100.0 * (p50[1] / p50[0] - 1.0))
    return (plain.attempted + traced.attempted, plain.failed + traced.failed, values), detail, tracer
