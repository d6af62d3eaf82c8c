"""Multi-head attention as separate tape ops, the oracle the fused ``ops.attention`` is tested against.

This is the route ``SelfAttention`` recorded before the fused op: each of q,
k and v split into heads by a reshape and a transpose, the keys transposed,
the score product, the scale, the softmax, the product with the values, and
the merge transpose and reshape: 13 tape nodes where the fused op records
one. ``SelfAttention`` ran the scale inside its softmax node, with the same
bits, so it recorded 12.

``softmax`` is the tape node of that route and of the composed fusion route
in ``test_fusion.py``: the library keeps only the array kernels it is made
of, ``softmax_inplace`` and ``softmax_backward``.
"""

import numpy as np

from hipgraf.autodiff import Tensor, matmul, mul, reshape, transpose
from hipgraf.autodiff.ops import softmax_backward, softmax_inplace
from hipgraf.autodiff.tensor import _accumulate, make_op

COMPOSED_NODES = 13


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Normalized exponential of x along one axis as one tape node; x.data is left as it is."""
    data = softmax_inplace(x.data.copy(), axis)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, softmax_backward(data, g, axis))

    return make_op(data, (x,), backward)


def composed_attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float) -> Tensor:
    """The attended (b, n, d) tokens, a tape node."""
    b, n, d = q.shape

    def split(t: Tensor) -> Tensor:
        return transpose(reshape(t, (b, n, heads, d // heads)), (0, 2, 1, 3))

    probabilities = softmax(mul(matmul(split(q), transpose(split(k), (0, 1, 3, 2))), scale), axis=-1)
    mixed = matmul(probabilities, split(v))
    return reshape(transpose(mixed, (0, 2, 1, 3)), (b, n, d))
