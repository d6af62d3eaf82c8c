"""In-memory ``TGT1`` containers for tests that build or damage raw bytes."""

import io

import numpy as np

from hipgraf.autodiff import tensorfile


def dumps(tensors: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    tensorfile.write_tensors(buf, tensors)
    return buf.getvalue()


def loads(blob: bytes) -> dict[str, np.ndarray]:
    return tensorfile.read_tensors(io.BytesIO(blob))
