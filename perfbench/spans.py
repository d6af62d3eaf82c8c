"""Span tracing of hipgraf from outside the package.

Nothing under ``src/`` is edited. ``Patches`` swaps a function or method for
a wrapper at every import site inside the loaded ``hipgraf`` modules and puts
the originals back on exit. ``Tracer`` uses it to record one span per call
into each layer (name, start, end, parent span, op id), and replaces the
backward closure of every tape node created while a span is open with a timed
one. The timed closure charges its time to the innermost network module and
the innermost autodiff op that were open when the node was created, which is
how backward time reaches each module without a hook inside the tape.

Wrappers only time and count: they pass arguments and results through
unchanged, so a traced run computes bit-identical values.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER_METRICS = (
    ("autodiff.conv2d.calls", "count"),
    ("autodiff.conv2d.fwd_ms", "ms"),
    ("autodiff.conv2d.bwd_ms", "ms"),
    ("autodiff.conv2d.gflop", "GFLOP-computed"),
    ("autodiff.transpose_conv2d.calls", "count"),
    ("autodiff.transpose_conv2d.fwd_ms", "ms"),
    ("autodiff.transpose_conv2d.bwd_ms", "ms"),
    ("autodiff.matmul.calls", "count"),
    ("autodiff.matmul.fwd_ms", "ms"),
    ("autodiff.matmul.bwd_ms", "ms"),
    ("autodiff.matmul.gflop", "GFLOP-computed"),
    ("autodiff.unfold.calls", "count"),
    ("autodiff.unfold.fwd_ms", "ms"),
    ("autodiff.unfold.bwd_ms", "ms"),
    ("autodiff.tape_nodes", "count"),
    ("autodiff.retained_mb", "MB"),
    ("autodiff.backward_rest_ms", "ms"),
    ("unet.fwd_ms", "ms"),
    ("unet.bwd_ms", "ms"),
    ("transformer.fwd_ms", "ms"),
    ("transformer.bwd_ms", "ms"),
    ("fusion.fwd_ms", "ms"),
    ("fusion.bwd_ms", "ms"),
    ("head.fwd_ms", "ms"),
    ("head.bwd_ms", "ms"),
    ("graph.fwd_ms", "ms"),
    ("graph.bwd_ms", "ms"),
    ("training.make_batch_ms", "ms"),
    ("training.loss_ms", "ms"),
    ("training.backward_ms", "ms"),
    ("training.adam_ms", "ms"),
    ("metrics.decode_ms", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("dataset.write_ms", "ms"),
    ("dataset.read_ms", "ms"),
    ("dataset.bytes_written", "bytes"),
    ("phantom.geometry_ms", "ms"),
    ("phantom.render_ms", "ms"),
    ("phantom.draws_per_sample", "count"),
    ("trace.overhead_pct", "%"),
)


def hipgraf_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if (name == "hipgraf" or name.startswith("hipgraf.")) and m is not None]


class Patches:
    """Reversible replacement of functions and methods."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, owner, name: str, make_wrapper) -> None:
        """Wrap ``owner.name`` at every hipgraf module that holds the same object."""
        current = getattr(owner, name)
        wrapper = make_wrapper(current)
        for module in hipgraf_modules():
            for attr, value in list(vars(module).items()):
                if value is current:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def method(self, cls, name: str, make_wrapper) -> None:
        current = cls.__dict__[name]
        self._undo.append((cls, name, current))
        setattr(cls, name, make_wrapper(current))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _shape(x) -> tuple:
    return tuple(np.shape(getattr(x, "data", x)))


def conv2d_flop(x, weight, bias=None, stride: int = 1, padding: int = 0) -> float:
    """Multiply-adds of the forward GEMM, counted as two flops each."""
    xs, ws = _shape(x), _shape(weight)
    n = xs[0] if len(xs) == 4 else 1
    co, ci, kh, kw = ws
    oh = (xs[-2] + 2 * padding - kh) // stride + 1
    ow = (xs[-1] + 2 * padding - kw) // stride + 1
    return 2.0 * n * co * oh * ow * ci * kh * kw


def matmul_flop(a, b) -> float:
    sa, sb = _shape(a), _shape(b)
    batch = np.broadcast_shapes(sa[:-2], sb[:-2])
    return 2.0 * float(np.prod(batch)) * sa[-2] * sa[-1] * sb[-1]


def retained_bytes(outputs) -> int:
    """Bytes of every array reachable from ``outputs`` through the tape.

    Counts each tensor's data and the arrays its backward closure captured,
    following wrapped closures; views count once, by their base buffer.
    """
    seen_nodes: set[int] = set()
    seen_buffers: dict[int, int] = {}
    seen_functions: set[int] = set()

    def add_array(arr: np.ndarray) -> None:
        base = arr
        while isinstance(base.base, np.ndarray):
            base = base.base
        seen_buffers.setdefault(id(base), base.nbytes)

    def add_function(fn) -> None:
        if id(fn) in seen_functions:
            return
        seen_functions.add(id(fn))
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if isinstance(value, np.ndarray):
                add_array(value)
            elif callable(value) and hasattr(value, "__closure__"):
                add_function(value)

    stack = [t for t in outputs if t is not None]
    while stack:
        node = stack.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        add_array(node.data)
        if node._backward is not None:
            add_function(node._backward)
        stack.extend(node._parents)
    return sum(seen_buffers.values())


class Tracer:
    """Spans and per-layer totals for one traced phase of a workload.

    A span is ``(id, name, start_ns, end_ns, parent_id, op_id)``. Totals are
    kept per metric key; a span adds its duration to its key only when no
    enclosing span has the same key, so nested calls are not counted twice.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        self.totals: dict[str, float] = defaultdict(float)  # inside the measured loop
        self.all_totals: dict[str, float] = defaultdict(float)  # set-up included
        self.all_calls: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, str, str | None, str | None]] = []  # (id, key, op, module)
        self._active_keys: dict[str, int] = defaultdict(int)
        self._patches = Patches()
        self.retained: list[int] = []

    # -- span recording ---------------------------------------------------------

    def _open(self, key: str, op: str | None = None, module: str | None = None) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            outer = self._stack[-1]
            op = op or outer[2]
            module = module or outer[3]
        self.spans.append([span_id, key, time.perf_counter_ns(), None, parent, self.op_id])
        self._stack.append((span_id, key, op, module))
        self._active_keys[key] += 1
        return span_id

    def _close(self, span_id: int) -> float:
        end = time.perf_counter_ns()
        _, key, _, _ = self._stack.pop()
        span = self.spans[span_id]
        span[3] = end
        self._active_keys[key] -= 1
        ms = (end - span[2]) / 1e6
        if self._active_keys[key] == 0:
            self.all_totals[key] += ms
            self.all_calls[key] += 1
            if self.op_id is not None:
                self.totals[key] += ms
        return ms

    def count(self, key: str, amount: float = 1.0) -> None:
        if self.op_id is not None:
            self.totals[key] += amount

    def timed(self, key: str, op: str | None = None, module: str | None = None, after=None):
        """Wrapper factory: one span per call, plus an optional result hook."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_id = tracer._open(key, op=op, module=module)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span_id)
                if after is not None:
                    after(result, args, kwargs)
                return result

            return wrapper

        return make

    # -- backward closures ----------------------------------------------------------

    def _timed_backward(self, backward, op: str | None, module: str | None):
        tracer = self
        key = f"bwd:{module or 'other'}/{op or '-'}"

        def timed_backward(g):
            span_id = tracer._open(key)
            try:
                backward(g)
            finally:
                ms = tracer._close(span_id)
            if tracer.op_id is not None:
                if op is not None:
                    tracer.totals[f"autodiff.{op}.bwd_ms"] += ms
                if module is not None:
                    tracer.totals[f"{module}.bwd_ms"] += ms
                tracer.totals["bwd.closures_ms"] += ms

        return timed_backward

    def _make_op(self, make_op):
        tracer = self

        @functools.wraps(make_op)
        def traced_make_op(data, parents, backward):
            out = make_op(data, parents, backward)
            if out._backward is not None:
                op = module = None
                if tracer._stack:
                    _, _, op, module = tracer._stack[-1]
                out._backward = tracer._timed_backward(out._backward, op, module)
                tracer.count("autodiff.tape_nodes")
            return out

        return traced_make_op

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        import hipgraf.autodiff.ops as ops
        import hipgraf.autodiff.tensor as tensor
        import hipgraf.checkpoint as checkpoint
        import hipgraf.dataset as dataset
        import hipgraf.metrics as metrics
        import hipgraf.phantom as phantom
        import hipgraf.training as training
        from hipgraf.nets import fusion, graph, model, transformer, unet

        p = self._patches
        p.function(tensor, "make_op", self._make_op)

        def flops(kind, counter):
            def after(result, args, kwargs):
                self.count(f"autodiff.{kind}.calls")
                if counter is not None:
                    self.count(f"autodiff.{kind}.gflop", counter(*args, **kwargs) / 1e9)

            return after

        p.function(ops, "conv2d", self.timed("autodiff.conv2d.fwd_ms", op="conv2d", after=flops("conv2d", conv2d_flop)))
        p.function(ops, "transpose_conv2d", self.timed("autodiff.transpose_conv2d.fwd_ms", op="transpose_conv2d", after=flops("transpose_conv2d", None)))
        p.function(tensor, "matmul", self.timed("autodiff.matmul.fwd_ms", op="matmul", after=flops("matmul", matmul_flop)))
        p.function(ops, "unfold_neighborhoods", self.timed("autodiff.unfold.fwd_ms", op="unfold", after=flops("unfold", None)))

        p.method(unet.UNetBranch, "forward", self.timed("unet.fwd_ms", module="unet"))
        p.method(transformer.TransformerBranch, "forward", self.timed("transformer.fwd_ms", module="transformer"))
        p.method(fusion.MutualModulationFusion, "forward", self.timed("fusion.fwd_ms", module="fusion"))
        p.method(fusion.ConcatFusion, "forward", self.timed("fusion.fwd_ms", module="fusion"))
        p.method(model.HeatmapHead, "logits", self.timed("head.fwd_ms", module="head"))
        p.method(graph.TopologicalRefiner, "forward", self.timed("graph.fwd_ms", module="graph"))

        def measure_tape(out, args, kwargs):
            if self.op_id is not None:
                self.retained.append(retained_bytes([out.heatmaps, out.refined, out.logit]))

        p.method(model.LandmarkNet, "forward", self.timed("model.fwd_ms", module="model", after=measure_tape))

        p.function(training, "make_batch", self.timed("training.make_batch_ms"))
        p.function(training, "total_loss", self.timed("training.loss_ms", module="loss"))
        p.method(tensor.Tensor, "backward", self.timed("training.backward_ms"))
        p.method(training.Adam, "step", self.timed("training.adam_ms"))

        p.function(metrics, "decode_landmarks", self.timed("metrics.decode_ms"))

        def file_size(counter):
            def after(result, args, kwargs):
                self.count(counter, os.path.getsize(args[0]))

            return after

        def checkpoint_size(result, args, kwargs):
            self.all_totals["checkpoint.bytes"] += os.path.getsize(args[0])

        p.function(checkpoint, "save_checkpoint", self.timed("checkpoint.save", after=checkpoint_size))
        p.function(checkpoint, "load_checkpoint", self.timed("checkpoint.load"))
        p.function(checkpoint, "restore_model", self.timed("checkpoint.restore"))

        for name in ("write_image_tensor", "write_pgm", "write_manifest"):
            p.function(dataset, name, self.timed("dataset.write_ms", after=file_size("dataset.bytes_written")))
        p.function(metrics, "write_overlay", self.timed("dataset.write_ms", after=file_size("dataset.bytes_written")))
        for name in ("read_manifest", "load_image"):
            p.function(dataset, name, self.timed("dataset.read_ms"))

        def count_sample(result, args, kwargs):
            self.count("phantom.samples")

        p.function(phantom, "sample_geometry", self.timed("phantom.geometry_ms", after=count_sample))
        p.function(phantom, "render_phantom", self.timed("phantom.render_ms"))

        def count_draw(result, args, kwargs):
            self.count("phantom.draws")

        p.function(phantom, "_draw_geometry", self.timed("phantom.draw", after=count_draw))

    def uninstall(self) -> None:
        self._patches.restore()

    # -- results --------------------------------------------------------------

    def per_layer(self, n_ops: int, overhead_pct: float) -> dict[str, float]:
        """Every per-layer metric, per op of the traced loop.

        Checkpoint metrics are per file saved or loaded, set-up included,
        because eval and infer load theirs in set-up;
        ``phantom.draws_per_sample`` is per generated image.
        """
        t = self.totals
        values = {name: t.get(name, 0.0) / n_ops for name, _ in PER_LAYER_METRICS}
        values["autodiff.backward_rest_ms"] = (t.get("training.backward_ms", 0.0) - t.get("bwd.closures_ms", 0.0)) / n_ops
        values["autodiff.retained_mb"] = float(np.mean(self.retained)) / 2**20 if self.retained else 0.0
        a, calls = self.all_totals, self.all_calls
        saves, loads = calls.get("checkpoint.save", 0), calls.get("checkpoint.load", 0)
        values["checkpoint.save_ms"] = a.get("checkpoint.save", 0.0) / saves if saves else 0.0
        values["checkpoint.bytes"] = a.get("checkpoint.bytes", 0.0) / saves if saves else 0.0
        load_ms = a.get("checkpoint.load", 0.0) + a.get("checkpoint.restore", 0.0)
        values["checkpoint.load_ms"] = load_ms / loads if loads else 0.0
        samples = t.get("phantom.samples", 0.0)
        values["phantom.draws_per_sample"] = t.get("phantom.draws", 0.0) / samples if samples else 0.0
        values["trace.overhead_pct"] = overhead_pct
        return values

    def write(self, path: Path, header: dict) -> None:
        """Spans as JSON lines, with self time (duration minus child spans)."""
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_ns[parent] += end - start
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, name, start, end, parent, op_id in self.spans:
                if end is None:
                    continue
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "self_ns": end - start - child_ns[span_id],
                            "parent": parent,
                            "op": op_id,
                        }
                    )
                    + "\n"
                )
