"""Checkpoint files: a small text header plus a tensor container.

Layout, little-endian:

    magic "TGCK" | u32 version | u32 header length | header UTF-8 | tensor blob

The header is ``key=value`` lines carrying the epoch/step/adam_t counters
(the optimizer supplies only ``adam_t``) and the full run-config snapshot
(``cfg.<key>`` entries). The tensor blob is the shared "TGT1" container
holding every model parameter under ``param.<name>``; the ``adam.*`` moments
of older files still load and are ignored.

Loading parses and validates everything before any model state is touched,
so a truncated or mismatched file can never leave a model half-loaded.
"""

from __future__ import annotations

import os
import secrets
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import parameter_shapes, tensorfile
from .config import ModelConfig, merge_run_config, model_config_from
from .errors import FormatError
from .nets.model import LandmarkNet, build_model
from .training import Adam

MAGIC = b"TGCK"
VERSION = 1


@dataclass
class Checkpoint:
    version: int
    epoch: int
    step: int
    adam_t: int
    config: dict  # the run config read from the header's cfg.* items
    model_config: ModelConfig  # validated from ``config``
    arrays: dict[str, np.ndarray]

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {k[len("param.") :]: v for k, v in self.arrays.items() if k.startswith("param.")}


def save_checkpoint(
    path: str | Path,
    model: LandmarkNet,
    config_items: dict[str, str],
    optimizer: Adam | None = None,
    epoch: int = 0,
    step: int = 0,
) -> None:
    """Write the model's parameters atomically; ``optimizer`` supplies only ``adam_t``.

    The bytes stream into a temporary file next to ``path``, which replaces
    ``path`` only once it is complete; a write that fails midway removes the
    temporary file and leaves any earlier file at ``path`` untouched.
    """
    header_lines = [f"epoch={epoch}", f"step={step}", f"adam_t={optimizer.t if optimizer else 0}"]
    header_lines += [f"cfg.{key}={value}" for key, value in config_items.items()]
    header = ("\n".join(header_lines) + "\n").encode("utf-8")
    tensors = {f"param.{name}": arr for name, arr in model.state_arrays().items()}
    path = Path(path)
    # opened with "x" rather than tempfile.mkstemp, so the file gets the usual umask mode, not 0600
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            tensorfile.write_tensors(fh, tensors)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Parse a checkpoint, streaming each tensor from the file into its own array."""
    with open(path, "rb") as fh:
        prefix = fh.read(12)
        if len(prefix) < 12 or prefix[:4] != MAGIC:
            raise FormatError(f"{path}: not a checkpoint file (bad magic)")
        version, header_len = struct.unpack("<II", prefix[4:])
        if version != VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        if os.fstat(fh.fileno()).st_size < 12 + header_len:
            raise FormatError(f"{path}: truncated checkpoint header")
        try:
            header = fh.read(header_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: checkpoint header is not UTF-8: {exc}") from exc
        fields: dict[str, str] = {}
        config_items: dict[str, str] = {}
        for line in header.splitlines():
            if not line.strip():
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise FormatError(f"{path}: malformed checkpoint header line {line!r}")
            if key.startswith("cfg."):
                config_items[key[4:]] = value
            else:
                fields[key] = value
        try:
            epoch = int(fields.get("epoch", "0"))
            step = int(fields.get("step", "0"))
            adam_t = int(fields.get("adam_t", "0"))
        except ValueError as exc:
            raise FormatError(f"{path}: malformed checkpoint counters: {exc}") from exc
        try:
            config = merge_run_config(config_items)
            model_config = model_config_from(config)
        except ValueError as exc:
            raise FormatError(f"{path}: checkpoint header: {exc}") from exc
        arrays = tensorfile.read_tensors(fh)
    return Checkpoint(
        version=version, epoch=epoch, step=step, adam_t=adam_t, config=config, model_config=model_config, arrays=arrays
    )


def restore_model(checkpoint: Checkpoint, dtype=None) -> LandmarkNet:
    """Build a model from the checkpoint's config snapshot and load weights.

    Each parameter the config asks for must match the shape of a tensor in
    the file before it is allocated, so a header that declares a larger
    model than the file holds is rejected without building it.
    """
    params = checkpoint.param_arrays()
    with parameter_shapes(arr.shape for arr in params.values()):
        model = build_model(checkpoint.model_config, seed=checkpoint.config["seed"], dtype=dtype)
    model.load_state(params, source="checkpoint")
    return model

