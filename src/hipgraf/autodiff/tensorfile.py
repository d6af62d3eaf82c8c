"""Binary container for named tensors, used project-wide.

Layout, all little-endian:

    magic "TGT1"
    u32   tensor count
    per tensor:
        u16   name length, then that many UTF-8 bytes
        u8    ndim, then ndim u32 dims
        u8    dtype tag (0 = float32)
        payload, row-major float32

Values are stored as float32; higher-precision tensors are cast on write.
"""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..errors import FormatError

MAGIC = b"TGT1"
_DTYPE_F32 = 0


def write_tensors(dest: str | Path | BinaryIO, tensors: dict[str, np.ndarray]) -> None:
    if isinstance(dest, (str, Path)):
        with open(dest, "wb") as fh:
            _write(fh, tensors)
    else:
        _write(dest, tensors)


def read_tensors(src: str | Path | BinaryIO) -> dict[str, np.ndarray]:
    if isinstance(src, (str, Path)):
        with open(src, "rb") as fh:
            return _read(fh)
    return _read(src)


def _write(fh: BinaryIO, tensors: dict[str, np.ndarray]) -> None:
    fh.write(MAGIC)
    fh.write(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"tensor name too long: {name[:32]}...")
        arr = np.asarray(arr, dtype=np.float32)
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<I", dim))
        fh.write(struct.pack("<B", _DTYPE_F32))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").data)


def _take(fh: BinaryIO, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated tensor container while reading {what}")
    return data


def _read(fh: BinaryIO) -> dict[str, np.ndarray]:
    start = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(start)
    if _take(fh, 4, "magic") != MAGIC:
        raise FormatError("not a tensor container: bad magic bytes")
    (count,) = struct.unpack("<I", _take(fh, 4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _take(fh, 2, "name length"))
        raw_name = _take(fh, name_len, "name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"tensor name is not UTF-8: {raw_name[:32]!r}") from exc
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r}")
        (ndim,) = struct.unpack("<B", _take(fh, 1, "ndim"))
        shape = tuple(struct.unpack("<I", _take(fh, 4, "dim"))[0] for _ in range(ndim))
        (tag,) = struct.unpack("<B", _take(fh, 1, "dtype tag"))
        if tag != _DTYPE_F32:
            raise FormatError(f"unknown dtype tag {tag} for tensor {name!r}")
        # sized with Python ints and checked against the bytes left before
        # allocating, so hostile dims can neither wrap around nor exhaust memory
        n_bytes = 4 * math.prod(shape)
        if n_bytes > end - fh.tell():
            raise FormatError(f"truncated tensor container while reading payload of {name!r}")
        try:
            arr = np.empty(shape, dtype="<f4")
        except ValueError as exc:  # an empty shape can still hold dims numpy refuses, or more than 64 of them
            raise FormatError(f"unsupported shape {shape} for tensor {name!r}: {exc}") from exc
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != n_bytes:
            raise FormatError(f"truncated tensor container while reading payload of {name!r}")
        tensors[name] = arr
    return tensors
