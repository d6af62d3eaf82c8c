"""Parameter registry for network components.

A ``Module`` is a plain object whose parameter tensors (and child modules)
live in instance attributes. Every ``Tensor`` attribute is a parameter,
frozen (``requires_grad=False``) or not, so checkpoints hold frozen ones
too. Parameter names follow attribute paths, so a given architecture always
enumerates in the same order, which keeps initialization and checkpoints
deterministic. New parameters are float32.
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections import Counter
from typing import Callable, Iterable, Iterator

import numpy as np

from ..errors import ConfigError, IncompleteCheckpointError
from .tensor import Tensor


class Module:
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for attr, value in vars(self).items():
            yield from _walk(f"{prefix}{attr}", value)

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy arrays into this module's parameters; all-or-nothing.

        Name or shape mismatches raise before any parameter is touched. The
        parameters own their copies, so training them leaves ``arrays`` as it was.
        """
        params = self.parameters()
        _check_state(params, arrays)
        for name, p in params.items():
            p.data = np.array(arrays[name], dtype=p.data.dtype)
            p.grad = None

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.grad = None


def _check_state(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Raise IncompleteCheckpointError unless ``arrays`` holds exactly one array of the right shape per parameter name."""
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise IncompleteCheckpointError(
            f"checkpoint does not match model: missing={missing or 'none'} unexpected={extra or 'none'}"
        )
    bad = [n for n in params if tuple(arrays[n].shape) != params[n].shape]
    if bad:
        raise IncompleteCheckpointError(f"checkpoint tensor shapes disagree with model for: {bad}")


def _walk(name: str, value) -> Iterator[tuple[str, Tensor]]:
    if isinstance(value, Tensor):
        yield name, value
    elif isinstance(value, Module):
        yield from value.named_parameters(f"{name}.")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk(f"{name}.{i}", item)


_SHAPES = threading.local()

# glorot_uniform's float64 draws, in elements per slice of the parameter
_DRAW_SLICE = 1 << 16


@contextlib.contextmanager
def parameter_shapes(shapes: Iterable[tuple[int, ...]]) -> Iterator[None]:
    """Inside the block, each parameter this thread creates takes one of ``shapes``; each serves once.

    A parameter whose shape has no unused entry left raises
    IncompleteCheckpointError. The others are created as read-only
    float32 zero-stride placeholders: nothing is drawn, no
    parameter-sized array is allocated, and the caller then sets each
    parameter's ``data`` to an array of its own (``restore_model`` sets the
    checkpoint's). A constructor that writes into a placeholder in place
    raises instead of touching that array.
    """
    previous = getattr(_SHAPES, "left", None)
    _SHAPES.left = Counter(shapes)
    try:
        yield
    finally:
        _SHAPES.left = previous


def _claim(shape: tuple[int, ...]) -> bool:
    """Check that a parameter of ``shape`` may be created; True inside ``parameter_shapes``."""
    left = getattr(_SHAPES, "left", None)
    if left is not None:
        if not left[shape]:
            raise IncompleteCheckpointError(f"checkpoint does not match model: it holds no tensor for a parameter of shape {shape}")
        left[shape] -= 1
    if math.prod(shape) * np.dtype(np.float32).itemsize > np.iinfo(np.intp).max:
        raise ConfigError(f"a parameter of shape {shape} is larger than numpy can address; reduce the widths that set it")
    return left is not None


def _placeholder(shape: tuple[int, ...]) -> Tensor:
    # one zero seen through zero strides: reads as zeros, refuses writes
    return Tensor(np.broadcast_to(np.zeros((), np.float32), shape), requires_grad=True)


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
    """Uniform(-a, a) with a = sqrt(6/(fan_in+fan_out)), drawn in float64 and rounded to float32.

    The draws go straight into the parameter's own array, ``_DRAW_SLICE``
    elements at a time in C order, which consumes ``rng`` as one draw of the
    whole shape would: the same bits without a float64 buffer of that size.
    Inside ``parameter_shapes`` nothing is drawn.
    """
    if _claim(shape):
        return _placeholder(shape)
    a = np.sqrt(6.0 / (fan_in + fan_out))
    data = np.empty(shape, dtype=np.float32)
    flat = data.reshape(-1)
    for start in range(0, flat.size, _DRAW_SLICE):
        part = flat[start : start + _DRAW_SLICE]
        part[...] = rng.uniform(-a, a, size=part.size)
    return Tensor(data, requires_grad=True)


def zeros_param(shape: tuple[int, ...]) -> Tensor:
    if _claim(shape):
        return _placeholder(shape)
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


def ones_param(shape: tuple[int, ...]) -> Tensor:
    if _claim(shape):
        return _placeholder(shape)
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)


def table_param(shape: tuple[int, ...], table: Callable[[], np.ndarray]) -> Tensor:
    """A parameter initialised to ``table()`` (any layout of ``shape``'s size), rounded to float32, C-contiguous.

    Inside ``parameter_shapes`` the table is not built.
    """
    if _claim(shape):
        return _placeholder(shape)
    return Tensor(np.array(table(), dtype=np.float32, order="C").reshape(shape), requires_grad=True)
