"""Checkpoint save/load round trips and rejection of damaged files."""

import tracemalloc

import numpy as np
import pytest

from hipgraf.autodiff import tensorfile
from hipgraf.checkpoint import load_checkpoint, restore_model, save_checkpoint
from hipgraf.config import default_run_config, merge_run_config, model_config_from, run_config_to_items
from hipgraf.errors import FormatError, IncompleteCheckpointError
from hipgraf.nets import transformer
from hipgraf.nets.model import build_model
from hipgraf.training import Adam

from tensor_bytes import dumps


def toy_items(**overrides):
    values = merge_run_config(
        {
            "input_size": 16,
            "feature_size": 4,
            "channels": 8,
            "unet_depth": 2,
            "patch_size": 8,
            "token_dim": 8,
            "transformer_layers": 1,
            "heads": 2,
        },
        overrides,
    )
    return values, run_config_to_items(values)


def test_round_trip_forward_is_bitwise_identical(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    x = np.random.default_rng(0).random((1, 16, 16), dtype=np.float32)
    # a step so parameters are not at init
    out = model.forward(x)
    out.heatmaps.sum().backward()
    optimizer.step()
    before = model.forward(x).heatmaps.data.copy()

    values, items = toy_items(seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, items, optimizer=optimizer, epoch=3, step=17)

    loaded = load_checkpoint(path)
    assert loaded.epoch == 3 and loaded.step == 17
    restored = restore_model(loaded)
    after = restored.forward(x).heatmaps.data
    assert np.array_equal(before, after)


def test_frozen_parameter_is_saved_and_restored(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=0)
    frozen = model.transformer.pos_embedding
    frozen.requires_grad = False
    frozen.data = frozen.data * np.float32(0.5)  # not its init, so only the file can supply it
    x = np.random.default_rng(0).random((1, 16, 16), dtype=np.float32)
    before = model.forward(x).heatmaps.data.copy()

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, toy_items(seed=0)[1])
    loaded = load_checkpoint(path)
    assert "param.transformer.pos_embedding" in loaded.arrays
    restored = restore_model(loaded)
    assert restored.forward(x).heatmaps.data.tobytes() == before.tobytes()


def test_load_holds_the_file_bytes_once(tmp_path, toy_model_config_32):
    model = build_model(toy_model_config_32, seed=9)
    optimizer = Adam(model.parameters(), lr=1e-3)
    model.forward(np.random.default_rng(9).random((1, 32, 32), dtype=np.float32)).heatmaps.sum().backward()
    optimizer.step()
    _, items = toy_items(seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, items, optimizer=optimizer)
    saved = {f"param.{name}": arr for name, arr in model.state_arrays().items()}

    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one copy of the tensor bytes plus bookkeeping; reading the whole file and
    # then slicing and copying each payload traces about three copies
    assert peak - before < 1.5 * path.stat().st_size
    assert list(loaded.arrays) == list(saved)
    for name, arr in saved.items():
        np.testing.assert_array_equal(loaded.arrays[name], arr)


def test_save_load_save_is_a_fixpoint(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=1)
    _, items = toy_items(seed=1)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, model, items, epoch=1, step=2)
    restored = restore_model(load_checkpoint(p1))
    save_checkpoint(p2, restored, items, epoch=1, step=2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_rejected_without_state_mutation(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=2)
    _, items = toy_items(seed=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, items)
    blob = path.read_bytes()
    for cut in (3, 10, len(blob) // 2, len(blob) - 5):
        (tmp_path / "cut.ckpt").write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(tmp_path / "cut.ckpt")


def test_bad_magic_and_version(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=3)
    _, items = toy_items(seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, items)
    blob = bytearray(path.read_bytes())
    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(bad_magic)
    bad_version = tmp_path / "version.ckpt"
    blob[4:8] = (99).to_bytes(4, "little")
    bad_version.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(bad_version)


def test_checkpoint_from_different_config_shape_is_incomplete(tmp_path, toy_model_config, toy_model_config_32):
    model16 = build_model(toy_model_config, seed=4)
    _, items = toy_items(seed=4)
    path = tmp_path / "model16.ckpt"
    save_checkpoint(path, model16, items)
    loaded = load_checkpoint(path)
    model32 = build_model(toy_model_config_32, seed=4)
    with pytest.raises(IncompleteCheckpointError):
        model32.load_state(loaded.param_arrays())


def test_missing_tensor_lists_names(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=5)
    _, items = toy_items(seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, items)
    loaded = load_checkpoint(path)
    params = loaded.param_arrays()
    removed = sorted(params)[0]
    params.pop(removed)
    fresh = build_model(toy_model_config, seed=5)
    with pytest.raises(IncompleteCheckpointError, match=removed.split(".")[0]):
        fresh.load_state(params)


def test_config_snapshot_round_trips(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=6)
    values, items = toy_items(seed=6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, items)
    loaded = load_checkpoint(path)
    assert loaded.config == values
    assert loaded.config["lr"] == default_run_config()["lr"]


def reference_checkpoint_bytes(model, items, optimizer, epoch, step, extra_tensors=None):
    """The documented layout, assembled in memory: magic, version, header, tensor blob.

    ``extra_tensors`` are appended after the parameters, as older files held Adam's moments.
    """
    header_lines = [f"epoch={epoch}", f"step={step}", f"adam_t={optimizer.t}"]
    header_lines += [f"cfg.{key}={value}" for key, value in items.items()]
    header = ("\n".join(header_lines) + "\n").encode("utf-8")
    tensors = {f"param.{name}": arr for name, arr in model.state_arrays().items()}
    tensors.update(extra_tensors or {})
    return b"TGCK" + (1).to_bytes(4, "little") + len(header).to_bytes(4, "little") + header + dumps(tensors)


def test_streamed_bytes_match_the_documented_layout(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=7)
    optimizer = Adam(model.parameters(), lr=1e-3)
    out = model.forward(np.random.default_rng(7).random((1, 16, 16), dtype=np.float32))
    out.heatmaps.sum().backward()
    optimizer.step()
    _, items = toy_items(seed=7)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, items, optimizer=optimizer, epoch=2, step=9)
    assert path.read_bytes() == reference_checkpoint_bytes(model, items, optimizer, 2, 9)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_file_with_adam_moments_still_loads(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=7)
    optimizer = Adam(model.parameters(), lr=1e-3)
    x = np.random.default_rng(7).random((1, 16, 16), dtype=np.float32)
    model.forward(x).heatmaps.sum().backward()
    optimizer.step()
    before = model.forward(x).heatmaps.data.copy()
    moments = {f"adam.m.{k}": v for k, v in optimizer.m.items()}
    moments.update({f"adam.v.{k}": v for k, v in optimizer.v.items()})
    _, items = toy_items(seed=7)
    path = tmp_path / "older.ckpt"
    path.write_bytes(reference_checkpoint_bytes(model, items, optimizer, 2, 9, extra_tensors=moments))

    loaded = load_checkpoint(path)
    assert (loaded.step, loaded.adam_t) == (9, 1)
    assert [k for k in loaded.arrays if k.startswith("adam.")] == list(moments)
    after = restore_model(loaded).forward(x).heatmaps.data
    assert before.tobytes() == after.tobytes()


@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_file_behind(tmp_path, toy_model_config, monkeypatch, existing):
    model = build_model(toy_model_config, seed=8)
    _, items = toy_items(seed=8)
    path = tmp_path / "model.ckpt"
    if existing:
        path.write_bytes(b"earlier checkpoint")

    def write_half_then_fail(fh, tensors):
        fh.write(b"TGT1" + bytes(64))
        raise OSError("disk full")

    monkeypatch.setattr(tensorfile, "write_tensors", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, items)
    if existing:
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert path.read_bytes() == b"earlier checkpoint"
    else:
        assert list(tmp_path.iterdir()) == []


def traced_peak(fn):
    """``fn()`` and the bytes its traced allocations peaked at above where they started."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before


@pytest.fixture(scope="module")
def default_checkpoint(tmp_path_factory):
    """A checkpoint of the default model, whose 2.6M parameters dwarf a build's bookkeeping."""
    path = tmp_path_factory.mktemp("default") / "model.ckpt"
    values = default_run_config()
    save_checkpoint(path, build_model(model_config_from(values), seed=3), run_config_to_items(values))
    return path


def test_restore_allocates_no_parameter(default_checkpoint):
    loaded = load_checkpoint(default_checkpoint)
    restore_model(loaded)  # first calls allocate caches of their own
    restored, peak = traced_peak(lambda: restore_model(loaded))
    # building the model to throw its init away and copying the file's arrays traces about 1.7x the file
    assert peak < 0.1 * default_checkpoint.stat().st_size
    assert restored.head.weight.dtype == np.float32


def test_restored_float32_parameters_are_the_files_arrays(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=12)
    _, items = toy_items(seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, items)
    loaded = load_checkpoint(path)
    for name, arr in restore_model(loaded).state_arrays().items():
        assert np.shares_memory(arr, loaded.arrays[f"param.{name}"]), name
        assert arr.flags.writeable, name


def rewrite_tensors(path, out, edit):
    """Copy the checkpoint at ``path`` to ``out`` with its tensor blob rebuilt from ``edit(arrays)``."""
    blob = path.read_bytes()
    header_end = 12 + int.from_bytes(blob[8:12], "little")
    out.write_bytes(blob[:header_end] + dumps(edit(load_checkpoint(path).arrays)))


def test_restore_matches_tensors_by_name_not_by_file_order(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=13)
    _, items = toy_items(seed=13)
    path, swapped = tmp_path / "model.ckpt", tmp_path / "swapped.ckpt"
    save_checkpoint(path, model, items)
    rewrite_tensors(path, swapped, lambda arrays: dict(reversed(arrays.items())))
    saved = model.state_arrays()
    wq, wk = saved["transformer.layers.0.attention.wq"], saved["transformer.layers.0.attention.wk"]
    assert wq.shape == wk.shape and not np.array_equal(wq, wk)  # same-shape tensors the file now holds swapped
    restored = restore_model(load_checkpoint(swapped))
    for name, arr in restored.state_arrays().items():
        assert arr.tobytes() == saved[name].tobytes(), name


def test_restore_refuses_a_file_whose_shapes_match_but_names_do_not(tmp_path, toy_model_config):
    model = build_model(toy_model_config, seed=14)
    _, items = toy_items(seed=14)
    path, renamed = tmp_path / "model.ckpt", tmp_path / "renamed.ckpt"
    save_checkpoint(path, model, items)
    rewrite_tensors(path, renamed, lambda arrays: {k.replace("head.bias", "head.offset"): v for k, v in arrays.items()})
    loaded = load_checkpoint(renamed)
    with pytest.raises(IncompleteCheckpointError, match="head.bias"):
        restore_model(loaded)


def test_restore_builds_no_position_table_and_gives_c_contiguous_writeable_parameters(default_checkpoint, monkeypatch):
    calls = []
    table = transformer.sincos_position_grid
    monkeypatch.setattr(transformer, "sincos_position_grid", lambda *args: calls.append(args) or table(*args))
    loaded = load_checkpoint(default_checkpoint)
    for name, p in restore_model(loaded).named_parameters():
        assert p.data.dtype == np.float32 and p.data.flags.c_contiguous and p.data.flags.writeable, name
    assert calls == []
    build_model(loaded.model_config)
    assert len(calls) == 2  # the spy sees a build: the pos_embedding and output_pos tables
