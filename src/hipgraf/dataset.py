"""Sample records plus the manifest, PGM and tensor-image file formats.

A dataset on disk is a directory holding one manifest CSV plus two files per
sample: a float tensor container (``.tgt``, the training input) and an 8-bit
PGM preview of the same image. Manifest columns:

    file,x1,y1,...,x6,y6,label,alpha_deg,beta_deg,spacing_mm_px[,group]

``file`` names the sample's ``.tgt`` relative to the manifest.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import tensorfile
from .errors import DataError, FormatError

MANIFEST_NAME = "manifest.csv"
_COORD_COLUMNS = [f"{axis}{i}" for i in range(1, 7) for axis in ("x", "y")]
MANIFEST_COLUMNS = ["file", *_COORD_COLUMNS, "label", "alpha_deg", "beta_deg", "spacing_mm_px"]
GROUP_COLUMN = "group"


@dataclass
class ImageSample:
    """One image with its six landmarks, class label and pixel spacing."""

    name: str
    image: np.ndarray
    landmarks: np.ndarray
    label: int
    spacing: float
    alpha: float | None = None
    beta: float | None = None
    group: int | None = None


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """8-bit binary PGM; input values are clipped to [0,1]."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if not blob.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        fields.append(blob[start:pos])
    pos += 1
    if not all(f.isdigit() for f in fields):
        raise FormatError(f"{path}: PGM header fields must be decimal integers, got {fields!r}")
    w, h, maxval = (int(f) for f in fields)
    if w == 0 or h == 0:
        raise FormatError(f"{path}: PGM image has no pixels ({w}x{h})")
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    payload = blob[pos : pos + w * h]
    if len(payload) != w * h:
        raise FormatError(f"{path}: truncated PGM payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w).astype(np.float32) / 255.0


def write_image_tensor(path: str | Path, image: np.ndarray) -> None:
    tensorfile.write_tensors(path, {"image": np.asarray(image, dtype=np.float32)})


def read_image_tensor(path: str | Path) -> np.ndarray:
    tensors = tensorfile.read_tensors(path)
    if "image" not in tensors:
        raise FormatError(f"{path}: tensor container has no 'image' entry")
    return check_finite(tensors["image"], f"{path}: image")


def check_finite(images: np.ndarray, what: str) -> np.ndarray:
    """images, unless some value is NaN or infinite: then a DataError naming ``what``."""
    if not np.isfinite(images).all():
        raise DataError(f"{what} contains non-finite values")
    return images


def check_image_size(image: np.ndarray, size: int, what: str) -> np.ndarray:
    """image, unless it is not ``size`` x ``size`` pixels: then a DataError naming ``what``."""
    if image.shape != (size, size):
        raise DataError(f"{what}: image shape {image.shape} does not match the model's input_size {size}x{size}")
    return image


def load_image(path: str | Path) -> np.ndarray:
    path = Path(path)
    if not os.path.isfile(path):  # unlike Path.is_file, False for a name too long for the file system
        raise DataError(f"image file not found: {path}")
    if path.suffix == ".pgm":
        return read_pgm(path)
    return read_image_tensor(path)


def write_manifest(path: str | Path, rows: list[dict]) -> None:
    columns = list(MANIFEST_COLUMNS)
    if rows and GROUP_COLUMN in rows[0]:
        columns.append(GROUP_COLUMN)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def read_manifest(path: str | Path, load_images: bool = True) -> list[ImageSample]:
    path = Path(path)
    if not os.path.isfile(path):
        raise DataError(f"manifest not found: {path}")
    base = path.parent
    samples: list[ImageSample] = []
    try:
        reader = csv.DictReader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
        header = reader.fieldnames or []
        rows = [(reader.line_num, row) for row in reader]  # the line each row ends on, blank lines counted
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not a UTF-8 CSV manifest: {exc}") from exc
    missing = [c for c in MANIFEST_COLUMNS if c not in header]
    if missing:
        raise FormatError(f"{path}: manifest missing columns {missing}")
    for lineno, row in rows:
        try:
            coords = np.array([[float(row[f"x{i}"]), float(row[f"y{i}"])] for i in range(1, 7)])
            label = int(row["label"])
            spacing = float(row["spacing_mm_px"])
            alpha = float(row["alpha_deg"])
            beta = float(row["beta_deg"])
            group = int(row[GROUP_COLUMN]) if GROUP_COLUMN in header and row.get(GROUP_COLUMN) else None
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed manifest row: {exc}") from exc
        if row["file"] is None:
            raise FormatError(f"{path}:{lineno}: malformed manifest row: it ends before the file column")
        check_finite(coords, f"{path}:{lineno}: the landmark row")
        with np.errstate(over="ignore"):
            landmarks = coords.astype(np.float32)
        if not np.isfinite(landmarks).all():
            bad = float(coords[~np.isfinite(landmarks)][0])
            raise DataError(f"{path}:{lineno}: landmark coordinate {bad!r} is out of range (beyond float32's largest value)")
        if not math.isfinite(spacing):
            raise DataError(f"{path}:{lineno}: spacing_mm_px is non-finite ({spacing})")
        if spacing <= 0:
            raise DataError(f"{path}:{lineno}: spacing_mm_px must be positive, got {spacing}")
        if label not in (0, 1):
            raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
        image = load_image(base / row["file"]) if load_images else np.empty((0, 0), dtype=np.float32)
        samples.append(
            ImageSample(
                name=row["file"],
                image=image,
                landmarks=landmarks,
                label=label,
                spacing=spacing,
                alpha=alpha,
                beta=beta,
                group=group,
            )
        )
    if not samples:
        raise DataError(f"{path}: manifest has no samples")
    return samples
