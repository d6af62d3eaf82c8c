"""Parameter registry for network components.

A ``Module`` is a plain object whose trainable tensors (and child modules)
live in instance attributes. Parameter names follow attribute paths, so a
given architecture always enumerates in the same order, which keeps
initialization and checkpoints deterministic.
"""

from __future__ import annotations

import contextlib
import threading
from collections import Counter
from typing import Iterable, Iterator

import numpy as np

from ..errors import IncompleteCheckpointError
from .tensor import Tensor, default_dtype


class Module:
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for attr, value in vars(self).items():
            yield from _walk(f"{prefix}{attr}", value)

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}

    def load_state(self, arrays: dict[str, np.ndarray], source: str = "checkpoint") -> None:
        """Copy arrays into this module's parameters; all-or-nothing.

        Name or shape mismatches raise before any parameter is touched.
        """
        params = self.parameters()
        missing = sorted(set(params) - set(arrays))
        extra = sorted(set(arrays) - set(params))
        if missing or extra:
            raise IncompleteCheckpointError(
                f"{source} does not match model: missing={missing or 'none'} unexpected={extra or 'none'}"
            )
        bad = [n for n in params if tuple(arrays[n].shape) != params[n].shape]
        if bad:
            raise IncompleteCheckpointError(f"{source} tensor shapes disagree with model for: {bad}")
        for name, p in params.items():
            p.data = np.array(arrays[name], dtype=p.data.dtype)
            p.grad = None

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.grad = None


def _walk(name: str, value) -> Iterator[tuple[str, Tensor]]:
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield name, value
    elif isinstance(value, Module):
        yield from value.named_parameters(f"{name}.")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk(f"{name}.{i}", item)


_SHAPES = threading.local()


@contextlib.contextmanager
def parameter_shapes(shapes: Iterable[tuple[int, ...]]) -> Iterator[None]:
    """Inside the block, each parameter this thread creates takes one of ``shapes``; each serves once.

    A parameter whose shape has no unused entry left raises
    IncompleteCheckpointError before anything is drawn or allocated, so a
    model built to receive a checkpoint's tensors asks for no more memory
    than those tensors hold.
    """
    previous = getattr(_SHAPES, "left", None)
    _SHAPES.left = Counter(shapes)
    try:
        yield
    finally:
        _SHAPES.left = previous


def _claim(shape: tuple[int, ...]) -> None:
    left = getattr(_SHAPES, "left", None)
    if left is not None:
        if not left[shape]:
            raise IncompleteCheckpointError(f"checkpoint does not match model: it holds no tensor for a parameter of shape {shape}")
        left[shape] -= 1


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int, dtype=None) -> Tensor:
    """Uniform(-a, a) with a = sqrt(6/(fan_in+fan_out))."""
    _claim(shape)
    a = np.sqrt(6.0 / (fan_in + fan_out))
    data = rng.uniform(-a, a, size=shape).astype(dtype or default_dtype())
    return Tensor(data, requires_grad=True)


def zeros_param(shape: tuple[int, ...], dtype=None) -> Tensor:
    _claim(shape)
    return Tensor(np.zeros(shape, dtype=dtype or default_dtype()), requires_grad=True)


def ones_param(shape: tuple[int, ...], dtype=None) -> Tensor:
    _claim(shape)
    return Tensor(np.ones(shape, dtype=dtype or default_dtype()), requires_grad=True)
