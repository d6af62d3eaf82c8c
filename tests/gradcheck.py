"""Central finite-difference verification of analytic gradients.

The reported number for a parameter tensor is its normalized max error
``max|analytic - numeric| / max(max|analytic|, max|numeric|, tiny)``, i.e.
error relative to the gradient scale of that tensor. Elementwise relative
error would reject exact gradients on entries that merely happen to be tiny.

The numeric side may run at a higher precision than the tape under test:
checking a float32 model against a float64 central-difference oracle isolates
formula errors from float32 rounding. ``assert_grads_match`` does exactly
that for a loss built from a dict of leaf values, and ``as_float64`` gives a
built model its float64 twin.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from hipgraf.autodiff import Module, Tensor

TINY = 1e-12


def as_float64(module: Module) -> Module:
    """Recast every parameter of a freshly built ``module`` to float64 in place and return it; its ops then run in float64."""
    for _, p in module.named_parameters():
        p.data = p.data.astype(np.float64)
    return module


def numeric_gradient(loss_fn: Callable[[], float], param: Tensor, h: float = 1e-4, indices=None) -> np.ndarray:
    """Central differences of loss_fn with respect to param, in place.

    ``indices`` restricts the check to a list of flat indices; unchecked
    entries come back as nan.
    """
    flat = param.data.reshape(-1)
    out = np.full(flat.shape, np.nan, dtype=np.float64)
    idx = range(flat.size) if indices is None else indices
    for i in idx:
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        out[i] = (up - down) / (2.0 * h)
    return out.reshape(param.data.shape)


def normalized_max_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    mask = ~np.isnan(numeric)
    a = np.asarray(analytic, dtype=np.float64)[mask]
    n = numeric[mask]
    scale = max(np.abs(np.asarray(analytic, dtype=np.float64)).max(initial=0.0), np.abs(n).max(initial=0.0), TINY)
    return float(np.abs(a - n).max(initial=0.0) / scale)


def check_gradients(
    build_loss: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    h: float = 1e-4,
    max_entries: int | None = None,
    seed: int = 0,
    oracle_loss: Callable[[], float] | None = None,
    oracle_params: Mapping[str, Tensor] | None = None,
) -> dict[str, float]:
    """Normalized max error per parameter tensor, analytic vs central differences.

    ``oracle_loss``/``oracle_params`` direct the numeric probe at a separate
    (typically float64) copy of the same computation; by default the probe
    perturbs ``params`` and re-runs ``build_loss`` itself.
    """
    for p in params.values():
        p.grad = None
    loss = build_loss()
    loss.backward()
    analytic = {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for name, p in params.items()}
    for p in params.values():
        p.grad = None

    probe_params = oracle_params if oracle_params is not None else params
    probe_loss = oracle_loss if oracle_loss is not None else (lambda: build_loss().item())
    rng = np.random.default_rng(seed)

    errors: dict[str, float] = {}
    for name, target in probe_params.items():
        indices = None
        if max_entries is not None and target.size > max_entries:
            indices = rng.choice(target.size, size=max_entries, replace=False)
        numeric = numeric_gradient(probe_loss, target, h=h, indices=indices)
        errors[name] = normalized_max_error(analytic[name], numeric)
    return errors


def assert_grads_match(
    build: Callable[[Mapping[str, Tensor]], Tensor],
    values: Mapping[str, np.ndarray],
    tol32: float = 1e-3,
    tol64: float | None = 1e-6,
    h32: float = 1e-4,
    h64: float = 1e-4,
) -> None:
    """Check ``build``'s gradients in float32, and in float64 unless ``tol64`` is None.

    Both precisions start from the same float32-rounded values. The float64
    graph is its own central-difference oracle (step ``h64``); the float32
    analytic gradients are checked against central differences of that
    float64 graph (step ``h32``).
    """
    f32 = {k: Tensor(np.asarray(v).astype(np.float32), requires_grad=True) for k, v in values.items()}
    f64 = {k: Tensor(t.data.astype(np.float64), requires_grad=True) for k, t in f32.items()}
    if tol64 is not None:
        err64 = check_gradients(lambda: build(f64), f64, h=h64)
        assert max(err64.values()) < tol64, f"float64 gradients off: {err64}"
    err32 = check_gradients(lambda: build(f32), f32, h=h32, oracle_loss=lambda: build(f64).item(), oracle_params=f64)
    assert max(err32.values()) < tol32, f"float32 gradients off: {err32}"
