"""Hostile bytes given to the file readers raise only the package's input errors.

Each reader is fed files built from its format's fields, some valid and some
not, and valid files with bytes cut, overwritten or inserted. Whatever the
bytes, a reader returns or raises ``FormatError``, ``DataError`` or
``ConfigError``: the errors the CLI turns into exit codes 4, 3 and 2 with a
one-line message. Anything else (``ValueError``, ``OSError``,
``UnicodeDecodeError``, ...) fails the test.
"""

import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hipgraf.checkpoint import load_checkpoint, save_checkpoint
from hipgraf.config import KEY_SPECS, merge_run_config, model_config_from, run_config_to_items
from hipgraf.dataset import MANIFEST_COLUMNS, read_image_tensor, read_manifest, read_pgm, write_image_tensor, write_pgm
from hipgraf.errors import ConfigError, DataError, FormatError
from hipgraf.nets.model import build_model

from conftest import toy_backbone
from tensor_bytes import dumps

INPUT_ERRORS = (FormatError, DataError, ConfigError)


def _edit(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for pos, kind, chunk in edits:
        pos = min(pos, len(out))
        if kind == "set":
            out[pos : pos + len(chunk)] = chunk
        elif kind == "insert":
            out[pos:pos] = chunk
        else:
            del out[pos:]
    return bytes(out)


def damaged(valid: bytes):
    """Random bytes, or ``valid`` cut short or with bytes overwritten or inserted."""
    edit = st.tuples(st.integers(0, len(valid)), st.sampled_from(("set", "insert", "cut")), st.binary(min_size=1, max_size=8))
    return st.one_of(st.binary(max_size=128), st.lists(edit, min_size=1, max_size=4).map(lambda edits: _edit(valid, edits)))


def read_or_refuse(reader, path) -> None:
    try:
        reader(path)
    except INPUT_ERRORS:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


# -- .tgt images ------------------------------------------------------------------

DIMS = st.sampled_from((0, 1, 2, 3, 2**31, 2**32 - 1))


@st.composite
def tensor_containers(draw):
    """TGT1 containers from drawn fields: the count, names, up to 70 dims, dtype tags and payloads need not agree."""
    parts = [b"TGT1", struct.pack("<I", draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from((b"image", b"\xff", b""))) if draw(st.booleans()) else draw(st.binary(max_size=6))
        dims = draw(st.lists(DIMS, max_size=70))
        parts += [struct.pack("<H", len(name)), name, struct.pack("<B", len(dims))]
        parts += [struct.pack("<I", d) for d in dims]
        parts += [bytes([draw(st.sampled_from((0, 0, 1)))]), draw(st.binary(max_size=64))]
    return b"".join(parts)


VALID_TGT = dumps({"image": np.linspace(0.0, 1.0, 16, dtype=np.float32).reshape(4, 4)})


@given(blob=st.one_of(tensor_containers(), damaged(VALID_TGT)))
@settings(max_examples=300, deadline=None)
def test_read_image_tensor(workdir, blob):
    path = workdir / "image.tgt"
    path.write_bytes(blob)
    read_or_refuse(read_image_tensor, path)


# -- PGM previews -----------------------------------------------------------------

FIELD = st.one_of(st.sampled_from(("0", "1", "4", "255", "256", str(2**40), "-1", "x")), st.text("0123456789", min_size=1, max_size=25))
SPACE = st.sampled_from((" ", "\n", "\t", "# comment\n", "#", ""))


@st.composite
def pgm_files(draw):
    """P5 headers from drawn width, height and maxval fields, separators and comments, then a payload."""
    header = draw(st.sampled_from(("P5", "P5", "P2", "")))
    for _ in range(draw(st.integers(0, 4))):
        header += draw(SPACE) + draw(FIELD)
    return (header + draw(SPACE)).encode() + draw(st.binary(max_size=40))


VALID_PGM = b"P5\n4 4\n255\n" + bytes(range(16))


@given(blob=st.one_of(pgm_files(), damaged(VALID_PGM)))
@settings(max_examples=300, deadline=None)
def test_read_pgm(workdir, blob):
    path = workdir / "image.pgm"
    path.write_bytes(blob)
    read_or_refuse(read_pgm, path)


# -- manifests --------------------------------------------------------------------

CELL = st.one_of(
    st.sampled_from(("1.5", "0", "1", "-1", "nan", "inf", "1e999", "", "abc", "9" * 5000, '"', "sample.tgt", "preview.pgm", ".", "missing.tgt")),
    st.text(max_size=6),
)
GOOD_CELL = {"file": "sample.tgt", "label": "1", "group": "0", "spacing_mm_px": "0.4"}


@st.composite
def manifests(draw):
    """CSV text from the manifest's columns (some dropped, shuffled or extra) and rows of good cells, up to two of them
    drawn, the row cut short or extended; or arbitrary bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=200))
    columns = list(MANIFEST_COLUMNS)
    if draw(st.booleans()):
        columns.append("group")
    columns = draw(st.permutations(columns))[: len(columns) - draw(st.integers(0, 1))]
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 3))):
        cells = [GOOD_CELL.get(column, "12.5") for column in columns]
        for _ in range(draw(st.integers(0, 2))):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(CELL)
        if draw(st.booleans()):
            cells = cells[: draw(st.integers(1, len(cells)))] + draw(st.lists(CELL, max_size=1))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    return text.encode("utf-8") + draw(st.sampled_from((b"", b"\xff\xfe", b"\x00")))


@pytest.fixture(scope="module")
def manifest_dir(workdir):
    """A directory holding one valid image of each kind for manifest rows to name."""
    write_image_tensor(workdir / "sample.tgt", np.full((4, 4), 0.5, dtype=np.float32))
    write_pgm(workdir / "preview.pgm", np.full((4, 4), 0.5))
    return workdir


@given(blob=manifests())
@settings(max_examples=300, deadline=None)
def test_read_manifest(manifest_dir, blob):
    path = manifest_dir / "manifest.csv"
    path.write_bytes(blob)
    read_or_refuse(read_manifest, path)


GOOD_ROW = [GOOD_CELL.get(column, "12.5") for column in MANIFEST_COLUMNS]


def write_rows(manifest_dir, columns, *rows):
    """manifest.csv from its header and rows of cells (an empty row is a blank line); returns its path."""
    path = manifest_dir / "manifest.csv"
    path.write_text("\n".join(",".join(cells) for cells in (columns, *rows)) + "\n")
    return path


def test_a_row_naming_a_directory_is_refused(manifest_dir):
    with pytest.raises(DataError, match="image file not found"):
        read_manifest(write_rows(manifest_dir, MANIFEST_COLUMNS, ["", *GOOD_ROW[1:]]))


def test_a_row_naming_a_file_too_long_for_the_file_system_is_refused(manifest_dir):
    with pytest.raises(DataError, match="image file not found"):
        read_manifest(write_rows(manifest_dir, MANIFEST_COLUMNS, ["9" * 5000, *GOOD_ROW[1:]]))


def test_a_row_ending_before_the_file_column_is_refused(manifest_dir):
    # file moved to the last column, and the row stops one cell short of it
    with pytest.raises(FormatError, match=":2: .*ends before the file column"):
        read_manifest(write_rows(manifest_dir, [*MANIFEST_COLUMNS[1:], "file"], GOOD_ROW[1:]))


def test_a_bad_row_is_named_by_its_line_in_the_file(manifest_dir):
    path = write_rows(manifest_dir, MANIFEST_COLUMNS, GOOD_ROW, [], [], [*GOOD_ROW[:-1], "-1"])
    with pytest.raises(DataError, match=r"manifest\.csv:5: spacing_mm_px must be positive"):
        read_manifest(path)


@pytest.mark.parametrize("value", ["1e39", "-3.5e38", "1e308"])
def test_a_coordinate_beyond_float32_is_refused_as_out_of_range(manifest_dir, value):
    row = list(GOOD_ROW)
    row[MANIFEST_COLUMNS.index("y4")] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=rf"manifest\.csv:2: landmark coordinate {re.escape(repr(float(value)))} is out of range"):
            read_manifest(write_rows(manifest_dir, MANIFEST_COLUMNS, row))


FLOAT32_MAX = float(np.finfo(np.float32).max)


@given(coords=st.lists(st.floats(-FLOAT32_MAX, FLOAT32_MAX), min_size=12, max_size=12))
@settings(max_examples=100, deadline=None)
def test_landmarks_are_the_float32_values_of_the_cells(manifest_dir, coords):
    row = [repr(v) for v in coords] + GOOD_ROW[13:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (sample,) = read_manifest(write_rows(manifest_dir, MANIFEST_COLUMNS, ["sample.tgt", *row]))
    assert sample.landmarks.dtype == np.float32
    assert sample.landmarks.tobytes() == np.array(coords, dtype=np.float32).reshape(6, 2).tobytes()


# -- checkpoints ------------------------------------------------------------------


@pytest.fixture(scope="module")
def valid_checkpoint(workdir):
    """The bytes of a checkpoint of the 16 px toy model."""
    backbone = toy_backbone(16)
    values = merge_run_config({key: getattr(backbone, key) for key in KEY_SPECS if hasattr(backbone, key)})
    path = workdir / "valid.ckpt"
    save_checkpoint(path, build_model(model_config_from(values), seed=0), run_config_to_items(values))
    return path.read_bytes()


def header_edits(valid: bytes):
    """``valid`` with header lines replaced by drawn text, its length field kept true or not."""
    (header_len,) = struct.unpack("<I", valid[8:12])
    lines = valid[12 : 12 + header_len].decode("utf-8").splitlines()
    line = st.one_of(
        st.sampled_from(lines).map(lambda item: item.partition("=")[0]).flatmap(lambda key: CELL.map(lambda value: f"{key}={value}")),
        CELL,
    )

    def rebuild(new_lines, true_length, junk):
        header = ("\n".join(new_lines) + "\n").encode("utf-8") + junk
        length = len(header) if true_length else header_len
        return valid[:8] + struct.pack("<I", length) + header + valid[12 + header_len :]

    edited = st.lists(st.tuples(st.integers(0, len(lines) - 1), line), min_size=1, max_size=3).map(
        lambda changes: [dict(changes).get(i, item) for i, item in enumerate(lines)]
    )
    return st.builds(rebuild, edited, st.booleans(), st.sampled_from((b"", b"\xff")))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_load_checkpoint(workdir, valid_checkpoint, data):
    blob = data.draw(st.one_of(damaged(valid_checkpoint), header_edits(valid_checkpoint)))
    path = workdir / "model.ckpt"
    path.write_bytes(blob)
    read_or_refuse(load_checkpoint, path)
