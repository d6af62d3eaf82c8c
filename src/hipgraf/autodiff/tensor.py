"""Reverse-mode autodiff over numpy arrays.

A ``Tensor`` wraps an ndarray plus an optional gradient buffer. Operations
record parents and a backward closure only while some input requires
gradients and recording is on. Parameters always require gradients, so a
forward records a full graph unless it runs inside ``with no_grad():``, which
switches recording off for the calling thread only: other threads keep
recording, and the previous state comes back when the block exits, also
through an exception. ``backward()`` visits the recorded graph once in
reverse topological order; a tensor used twice receives the sum of both
contributions, and calling ``backward()`` again without clearing grads
accumulates into the existing buffers. Gradients land on leaves only (tensors
with no recorded closure, such as parameters), as in PyTorch's default; each
leaf's ``grad`` is its own array, sharing memory with no other tensor.

Training and inference run in float32: a ``Tensor`` made from anything but
a floating-point ndarray is float32, and so is every parameter a ``Module``
creates. Each op follows its inputs' dtype, so a built model whose
parameters are cast to float64, as the gradient checks do, runs in float64.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import ContractError, DimensionError

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let glibc reuse a freed tape's memory instead of returning it to the OS.

    A recorded forward allocates and frees tens of MB. Under glibc's adaptive
    defaults the freed top of the heap is trimmed after each forward, and the
    next one page-faults it back in: about 5,800 faults, 5 ms of a 17 ms
    batch-1 forward of the default model. Fixed thresholds keep it mapped:
    arrays below 32 MB (the adaptive rule's own cap) come from the heap, and
    the heap is trimmed only when 256 MB lie free at its top. Other C
    libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()


class Tensor:
    """An n-dimensional array with an optional gradient buffer.

    ``grad`` is filled by ``backward()`` on leaves only: a tensor created
    directly with ``requires_grad=True`` (a parameter or an input). Results
    of recorded ops keep ``grad is None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and np.issubdtype(data.dtype, np.floating):
            arr = data
        else:
            arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph machinery -----------------------------------------------------

    def backward(self) -> None:
        """Add the gradient of this scalar loss to ``grad`` of every leaf that requires it.

        A leaf is a tensor with no recorded closure: a parameter or an input
        created with ``requires_grad=True``. Intermediate results keep
        ``grad is None``, as in PyTorch's default. Gradients of one pass live
        in a pass-local map, no two sharing memory; each node's entry is
        removed just before its closure runs, so it is freed once consumed.
        A leaf keeps its entry as ``grad``, or a copy when the entry is a
        view, so a leaf never pins a larger array. A second call adds one
        extra copy of the true gradient to each leaf.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        grads = _Pass(self)
        _STATE.grads = grads
        try:
            for node in reversed(order):
                g = grads.take(node)
                if g is None:
                    continue
                if node._backward is not None:
                    node._backward(g)
                elif node.requires_grad:
                    if node.grad is None:
                        node.grad = g if g.base is None else g.copy()
                    else:
                        node.grad += g
        finally:
            _STATE.grads = None

    # -- operator sugar (implemented below as free functions) -----------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


class _ThreadState(threading.local):
    """Per-thread tape state; the class attributes are each thread's defaults."""

    recording = True  # cleared inside no_grad()
    grads: "_Pass | None" = None  # the running backward pass


class _Pass:
    """Gradient entries of one backward pass, keyed by tensor id.

    No two entries share memory: ``held`` has the id of the array that owns
    each entry's memory (the entry itself, or its ``.base`` for a view). A
    first contribution is stored as it is when it is C-contiguous, writeable
    and not held by another entry, so the fresh array a closure returns or
    the gradient it hands on is not copied again; otherwise it is copied, so
    every closure sees a contiguous gradient. A second contribution is then
    added in place. ``take`` releases the entry's memory to the caller.
    """

    __slots__ = ("entries", "held")

    def __init__(self, loss: Tensor):
        self.entries: dict[int, np.ndarray] = {}
        self.held: set[int] = set()
        self.add(loss, np.ones_like(loss.data))

    def add(self, t: Tensor, g: np.ndarray) -> None:
        stored = self.entries.get(id(t))
        if stored is not None:
            stored += g
            return
        if not (g.flags.c_contiguous and g.flags.writeable) or _owner(g) in self.held:
            g = g.copy()
        self.entries[id(t)] = g
        self.held.add(_owner(g))

    def take(self, t: Tensor) -> np.ndarray | None:
        g = self.entries.pop(id(t), None)
        if g is not None:
            self.held.remove(_owner(g))
        return g


def _owner(g: np.ndarray) -> int:
    """Id of the array that owns g's memory."""
    return id(g if g.base is None else g.base)


_STATE = _ThreadState()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph on this thread inside the block; other threads are unaffected."""
    previous = _STATE.recording
    _STATE.recording = False
    try:
        yield
    finally:
        _STATE.recording = previous


def records(parents: Sequence[Tensor]) -> bool:
    """True when this thread records and some parent needs gradients."""
    return _STATE.recording and any(p.requires_grad for p in parents)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if g.dtype != t.data.dtype:
        g = g.astype(t.data.dtype)
    grads = _STATE.grads
    if grads is not None:
        grads.add(t, g)
    elif t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def make_op(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """Create a tensor that records its parents when ``records(parents)`` holds.

    ``backward`` must not write to the gradient it receives: it may hand
    that array, or a view of it, on uncopied as an input's gradient. It
    may read its parents' ``.data`` again when it runs (conv2d re-gathers
    its input's patches there instead of storing them), so no op may write
    in place into an array that a recorded op took as input before backward
    has run.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def as_tensor(value, like: Tensor | None = None) -> Tensor:
    """Wrap plain arrays and scalars as constant tensors."""
    if isinstance(value, Tensor):
        return value
    dtype = like.data.dtype if like is not None else None
    return Tensor(value, requires_grad=False, dtype=dtype)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- arithmetic ---------------------------------------------------------------


def _elementwise(a, b, forward, grad_a, grad_b) -> Tensor:
    """``forward(a, b)`` over broadcast operands; a plain operand takes the other's dtype.

    Backward sums each operand's gradient term, ``grad_a(g, b)`` or
    ``grad_b(g, a)``, over the axes that operand was broadcast along.
    """
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad_a(g, b.data), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad_b(g, a.data), b.data.shape))

    return make_op(forward(a.data, b.data), (a, b), backward)


def add(a, b) -> Tensor:
    return _elementwise(a, b, np.add, lambda g, other: g, lambda g, other: g)


def sub(a, b) -> Tensor:
    return _elementwise(a, b, np.subtract, lambda g, other: g, lambda g, other: -g)


def mul(a, b) -> Tensor:
    return _elementwise(a, b, np.multiply, np.multiply, np.multiply)


def neg(a: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        _accumulate(a, -g)

    return make_op(-a.data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast.

    Backward: da = dc @ b^T and db = a^T @ dc, summed over any axes the
    operand was broadcast along. A 2-D b meets every leading index of a, so
    the forward and both backward products then fold a's leading axes into
    the rows of one 2-D product instead of running one product per index
    (and summing them for db). The fold changes how BLAS blocks the rows, so
    its result may differ from the per-index products in the last bit.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs 2-d or higher operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        data = (_rows(a.data) @ b.data).reshape(*a.shape[:-1], b.shape[-1])
    else:
        data = np.matmul(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if b.ndim == 2:
            rows = _rows(g)
            if a.requires_grad:
                _accumulate(a, (rows @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accumulate(b, _rows(a.data).T @ rows)
            return
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return make_op(data, (a, b), backward)


def _rows(x: np.ndarray) -> np.ndarray:
    """x with its leading axes folded into the rows of one matrix."""
    return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


# -- reductions and shape ops -------------------------------------------------


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _reduction(a, a.data.sum(axis=axis, keepdims=keepdims), axis, keepdims, None)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = range(a.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
    count = math.prod(a.data.shape[ax] for ax in axes)
    return _reduction(a, a.data.mean(axis=axis, keepdims=keepdims), axis, keepdims, count)


def _reduction(a: Tensor, data, axis, keepdims: bool, count: int | None) -> Tensor:
    """Record ``data``, a sum (``count`` None) or a mean of a over ``axis``.

    Backward divides g by ``count`` for a mean, expands its reduced axes and
    broadcasts it back to a's shape.
    """

    def backward(g: np.ndarray) -> None:
        grad = g if count is None else g / count
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        _accumulate(a, np.broadcast_to(grad, a.data.shape))

    return make_op(data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.data.shape))

    return make_op(data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def backward(g: np.ndarray) -> None:
        _accumulate(a, np.transpose(g, inverse))

    return make_op(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray) -> None:
        pieces = np.split(g, offsets, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                _accumulate(t, piece)

    return make_op(data, tuple(tensors), backward)
