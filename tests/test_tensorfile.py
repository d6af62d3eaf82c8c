"""Round-trip and corruption behavior of the tensor container format."""

import numpy as np
import pytest

from hipgraf.autodiff import tensorfile
from hipgraf.errors import FormatError

from tensor_bytes import dumps, loads


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "weights.layer0": rng.standard_normal((3, 4)).astype(np.float32),
        "bias": rng.standard_normal(7).astype(np.float32),
        "scalar": np.array(3.25, dtype=np.float32),
    }


def test_round_trip_preserves_names_shapes_values(tmp_path):
    path = tmp_path / "params.tgt"
    original = sample_tensors()
    tensorfile.write_tensors(path, original)
    loaded = tensorfile.read_tensors(path)
    assert list(loaded) == list(original)
    for name in original:
        assert loaded[name].shape == original[name].shape
        np.testing.assert_array_equal(loaded[name], original[name])


def test_float64_is_cast_to_float32_on_write(tmp_path):
    path = tmp_path / "cast.tgt"
    tensorfile.write_tensors(path, {"x": np.array([1.0, 2.0], dtype=np.float64)})
    loaded = tensorfile.read_tensors(path)
    assert loaded["x"].dtype == np.float32


def test_bad_magic_rejected():
    with pytest.raises(FormatError, match="bad magic"):
        loads(b"NOPE" + b"\x00" * 16)


@pytest.mark.parametrize("cut", [2, 6, 9, 15, -3])
def test_truncation_rejected(cut):
    blob = dumps(sample_tensors())
    with pytest.raises(FormatError, match="truncated"):
        loads(blob[:cut])


def test_unknown_dtype_tag_rejected():
    blob = bytearray(dumps({"x": np.zeros(2, dtype=np.float32)}))
    # dtype tag sits after magic(4) count(4) namelen(2) name(1) ndim(1) dim(4)
    blob[4 + 4 + 2 + 1 + 1 + 4] = 9
    with pytest.raises(FormatError, match="dtype tag"):
        loads(bytes(blob))


def test_little_endian_layout_is_pinned():
    blob = dumps({"ab": np.array([[1.0]], dtype=np.float32)})
    assert blob[:4] == b"TGT1"
    assert blob[4:8] == (1).to_bytes(4, "little")
    assert blob[8:10] == (2).to_bytes(2, "little")
    assert blob[10:12] == b"ab"
    assert blob[12] == 2  # ndim
    assert blob[13:17] == (1).to_bytes(4, "little")
    assert blob[17:21] == (1).to_bytes(4, "little")
    assert blob[21] == 0  # f32 tag
    assert np.frombuffer(blob[22:26], dtype="<f4")[0] == 1.0


def test_duplicate_name_rejected():
    blob = dumps({"w1": np.zeros(2, dtype=np.float32), "w2": np.ones(2, dtype=np.float32)})
    with pytest.raises(FormatError, match="duplicate tensor name 'w1'"):
        loads(blob.replace(b"w2", b"w1"))
