"""End-to-end command behavior: exit codes, outputs, reproducibility."""

import gc
import re
import shutil
import struct
import weakref

import numpy as np
import pytest

from hipgraf import checkpoint, cli
from hipgraf.cli import main
from hipgraf.config import KEY_SPECS, parse_config_file
from hipgraf.dataset import load_image, read_manifest, read_pgm
from hipgraf.errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateGeometryError,
    DimensionError,
    FormatError,
    GenerationError,
    IncompleteCheckpointError,
    NumericError,
)
from hipgraf.experiments import detect
from hipgraf.metrics import METRICS_CSV_HEADER, decode_landmarks, write_overlay
from hipgraf.nets.model import LandmarkNet

from tensor_bytes import dumps

TOY_ARGS = [
    "--input_size", "32",
    "--feature_size", "8",
    "--channels", "8",
    "--unet_depth", "2",
    "--patch_size", "8",
    "--token_dim", "8",
    "--transformer_layers", "1",
    "--heads", "2",
    "--sigma", "1.0",
    "--hflip_prob", "0",
    "--lr", "0.001",
    "--epochs", "1",
    "--max_steps", "2",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated toy dataset plus a trained checkpoint, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = main(["generate", "--out", str(data), "--n_samples", "6", "--seed", "5", "--input_size", "32"])
    assert code == 0
    ckpt = root / "model.ckpt"
    code = main(["train", "--data", str(data / "manifest.csv"), "--out", str(ckpt), "--seed", "5", *TOY_ARGS])
    assert code == 0
    return root


class TestGenerate:
    def test_writes_requested_rows(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["generate", "--out", str(out), "--n_samples", "10", "--seed", "1", "--input_size", "32"]) == 0
        samples = read_manifest(out / "manifest.csv")
        assert len(samples) == 10

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n_sample = 10\n")
        code = main(["generate", "--out", str(tmp_path / "ds"), "--config", str(config)])
        assert code == 2
        assert "n_sample" in capsys.readouterr().err

    def test_config_file_with_comments_and_overrides(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# phantom setup\nn_samples = 4\nseed = 9   # inline comment\n")
        values = parse_config_file(config)
        assert values == {"n_samples": 4, "seed": 9}
        out = tmp_path / "ds"
        assert main(["generate", "--out", str(out), "--config", str(config), "--n_samples", "3", "--input_size", "32"]) == 0
        assert len(read_manifest(out / "manifest.csv")) == 3  # CLI override wins

    def test_a_file_named_writable_in_the_output_directory_survives(self, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        (out / ".writable").write_text("mine\n")
        assert main(["generate", "--out", str(out), "--n_samples", "2", "--input_size", "32"]) == 0
        assert (out / ".writable").read_text() == "mine\n"

    def test_out_naming_a_regular_file_exits_3(self, tmp_path, capsys):
        out = tmp_path / "ds"
        out.write_text("mine\n")
        assert main(["generate", "--out", str(out), "--n_samples", "2", "--input_size", "32"]) == 3
        err = capsys.readouterr().err
        assert "error: data:" in err and str(out) in err and "Traceback" not in err
        assert out.read_text() == "mine\n"


def help_flags(command, capsys) -> set[str]:
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return set(re.findall(r"--([\w-]+)", capsys.readouterr().out))


class TestRunConfigFlags:
    """Each command offers the run-config keys it reads; eval and infer take theirs from the checkpoint."""

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_help_lists_no_run_config_key(self, command, capsys):
        assert help_flags(command, capsys) & {"config", *KEY_SPECS} == set()

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("generate", ["n_samples", "class_balance", "spacing", "speckle_gamma", "input_size", "seed", "group_size"]),
            ("train", list(KEY_SPECS)[:21]),  # the model keys, then the training keys
            ("ablate", [*list(KEY_SPECS)[:21], "folds", "grouped"]),
        ],
    )
    def test_help_lists_exactly_the_keys_the_command_reads(self, command, keys, capsys):
        assert list(KEY_SPECS)[20] == "max_steps"
        flags = help_flags(command, capsys)
        assert "config" in flags and flags & {*KEY_SPECS} == set(keys)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["generate", "--out", "unused", "--lr", "0.5"], "--lr"),
            (["train", "--data", "unused.csv", "--out", "unused.ckpt", "--folds", "3"], "--folds"),
            (["ablate", "--data", "unused.csv", "--out", "unused.csv", "--n_samples", "4"], "--n_samples"),
        ],
        ids=["generate", "train", "ablate"],
    )
    def test_a_key_the_command_does_not_read_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_one_file_with_every_dataclass_drives_generate_and_train(self, tmp_path):
        config = tmp_path / "run.cfg"
        toy = dict(zip(TOY_ARGS[::2], TOY_ARGS[1::2]))
        lines = [f"{flag[2:]} = {value}" for flag, value in toy.items()]
        lines += ["n_samples = 4", "speckle_gamma = 0.2", "seed = 3", "folds = 3", "grouped = false"]
        config.write_text("\n".join(lines) + "\n")
        assert {*parse_config_file(config)} & {"n_samples", "lr", "heads", "folds"} == {"n_samples", "lr", "heads", "folds"}
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--config", str(config)]) == 0
        assert len(read_manifest(data / "manifest.csv")) == 4
        out = tmp_path / "model.ckpt"
        assert main(["train", "--data", str(data / "manifest.csv"), "--out", str(out), "--config", str(config)]) == 0
        loaded = checkpoint.load_checkpoint(out)
        assert (loaded.step, loaded.model_config.backbone.heads) == (2, 2)
        assert (loaded.config["folds"], loaded.config["n_samples"], loaded.config["seed"]) == (3, 4, 3)

    def test_eval_refuses_a_run_config_flag(self, workspace, capsys):
        args = ["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(workspace / "data" / "manifest.csv")]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--lr", "0.5"])
        assert exc.value.code == 2
        assert "--lr" in capsys.readouterr().err


class TestTrainEvalInfer:
    def test_train_writes_checkpoint_and_loss_log(self, workspace):
        assert (workspace / "model.ckpt").exists()
        log = workspace / "model.ckpt.losses.csv"
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch,step,l_landmark,l_classify,total"
        assert len(lines) == 3

    def test_train_checkpoint_holds_only_parameters(self, workspace):
        loaded = checkpoint.load_checkpoint(workspace / "model.ckpt")
        model = checkpoint.restore_model(loaded)
        assert list(loaded.arrays) == [f"param.{name}" for name in model.state_arrays()]
        assert loaded.step == loaded.adam_t == 2

    def test_eval_emits_metrics_csv(self, workspace, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(workspace / "data" / "manifest.csv"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == METRICS_CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "full" and fields[1] == "all"
        assert float(fields[2]) >= 0.0

    def test_eval_overlays(self, workspace, tmp_path):
        overlays = tmp_path / "overlays"
        code = main([
            "eval", "--checkpoint", str(workspace / "model.ckpt"),
            "--data", str(workspace / "data" / "manifest.csv"),
            "--out", str(tmp_path / "m.csv"), "--overlay-dir", str(overlays),
        ])
        assert code == 0
        files = sorted(overlays.glob("*_overlay.pgm"))
        assert len(files) == 6
        img = read_pgm(files[0])
        assert (img == 1.0).any()  # burned-in prediction markers

    def test_eval_overlays_reuse_the_scoring_forward(self, workspace, tmp_path, monkeypatch):
        # the batch forward that scores the samples also places the overlay
        # markers: the bytes equal overlays drawn from one forward per sample
        samples = read_manifest(workspace / "data" / "manifest.csv")
        model = checkpoint.restore_model(checkpoint.load_checkpoint(workspace / "model.ckpt"))
        expected = {}
        for sample in samples:
            out = model.forward(sample.image[None, None])
            coords, _ = decode_landmarks(out.detection_stack().data[0], upscale=model.upscale)
            path = tmp_path / sample.name
            write_overlay(path, sample.image, coords, gt=sample.landmarks)
            expected[f"{path.stem}_overlay.pgm"] = path.read_bytes()
        batch_sizes = []
        forward = LandmarkNet.forward

        def counted(self, images):
            batch_sizes.append(len(images))
            return forward(self, images)

        monkeypatch.setattr(LandmarkNet, "forward", counted)
        overlays = tmp_path / "overlays"
        code = main([
            "eval", "--checkpoint", str(workspace / "model.ckpt"),
            "--data", str(workspace / "data" / "manifest.csv"),
            "--out", str(tmp_path / "m.csv"), "--overlay-dir", str(overlays),
        ])
        assert code == 0
        assert batch_sizes == [len(samples)]
        assert {f.name: f.read_bytes() for f in overlays.iterdir()} == expected

    @pytest.mark.parametrize("files", [("a/s.tgt", "b/s.tgt"), ("s.tgt", "s.pgm")])
    def test_eval_refuses_two_samples_with_one_overlay_name(self, workspace, tmp_path, capsys, monkeypatch, files):
        data = workspace / "data"
        header, *rows = (data / "manifest.csv").read_text().splitlines()
        lines = [header]
        for index, name in enumerate(files):
            target = tmp_path / name
            target.parent.mkdir(exist_ok=True)
            shutil.copy(data / f"sample_{index:04d}{target.suffix}", target)
            lines.append(f"{name},{rows[index].split(',', 1)[1]}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(lines) + "\n")

        def forward(self, images):
            raise AssertionError("eval ran a forward pass before refusing the manifest")

        monkeypatch.setattr(LandmarkNet, "forward", forward)
        overlays, out = tmp_path / "overlays", tmp_path / "m.csv"
        code = main([
            "eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(manifest),
            "--out", str(out), "--overlay-dir", str(overlays),
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert "error: data:" in captured.err and files[0] in captured.err and files[1] in captured.err
        assert captured.out == "" and not out.exists() and not overlays.exists()

    def test_infer_prints_coords_and_probability(self, workspace, capsys):
        code = main(["infer", "--checkpoint", str(workspace / "model.ckpt"), "--image", str(workspace / "data" / "sample_0000.tgt")])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        fields = line.split(",")
        assert len(fields) == 13
        prob = float(fields[12])
        assert 0.0 <= prob <= 1.0

    def test_eval_stdout_is_the_out_file(self, workspace, tmp_path, capsys):
        args = ["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(workspace / "data" / "manifest.csv")]
        assert main(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "metrics.csv"
        assert main([*args, "--out", str(out)]) == 0
        assert printed == out.read_text()

    @pytest.mark.parametrize("variant", ["full", "no_tgcn"])
    def test_infer_line_is_detect_formatted(self, workspace, tmp_path, capsys, variant):
        model_path = tmp_path / f"{variant}.ckpt"
        code = main([
            "train", "--data", str(workspace / "data" / "manifest.csv"), "--out", str(model_path),
            "--seed", "5", *TOY_ARGS, "--variant", variant,
        ])
        assert code == 0
        image = workspace / "data" / "sample_0002.tgt"
        capsys.readouterr()
        assert main(["infer", "--checkpoint", str(model_path), "--image", str(image)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        model = checkpoint.restore_model(checkpoint.load_checkpoint(model_path))
        (coords,), probs = detect(model, [load_image(image)])
        assert (probs is None) == (variant == "no_tgcn")
        prob = "" if probs is None else f"{probs[0]:.4f}"
        assert line == ",".join(f"{v:.2f}" for v in coords.reshape(-1)) + f",{prob}"

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_checkpoint_is_released_before_the_forward(self, workspace, monkeypatch, command):
        refs = []
        load = checkpoint.load_checkpoint

        def tracked(path):
            loaded = load(path)
            refs.append(weakref.ref(loaded))
            return loaded

        alive = []
        forward = LandmarkNet.forward

        def checked(self, images):
            gc.collect()
            alive.append(refs[0]() is not None)
            return forward(self, images)

        monkeypatch.setattr(checkpoint, "load_checkpoint", tracked)
        monkeypatch.setattr(LandmarkNet, "forward", checked)
        source = {
            "eval": ["--data", str(workspace / "data" / "manifest.csv")],
            "infer": ["--image", str(workspace / "data" / "sample_0000.tgt")],
        }
        assert main([command, "--checkpoint", str(workspace / "model.ckpt"), *source[command]]) == 0
        assert alive == [False]

    def test_infer_overlay_written(self, workspace, tmp_path):
        overlay = tmp_path / "o.pgm"
        code = main([
            "infer", "--checkpoint", str(workspace / "model.ckpt"),
            "--image", str(workspace / "data" / "sample_0001.tgt"), "--overlay", str(overlay),
        ])
        assert code == 0 and overlay.exists()

    def test_missing_manifest_exits_3(self, workspace, capsys):
        code = main(["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", "/nonexistent/manifest.csv"])
        assert code == 3
        assert "error: data:" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_4(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes((workspace / "model.ckpt").read_bytes()[:20])
        code = main(["infer", "--checkpoint", str(bad), "--image", str(workspace / "data" / "sample_0000.tgt")])
        assert code == 4
        assert "error: format:" in capsys.readouterr().err

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "x"), "--n_samples", "abc"])
        assert code == 2

    def test_non_finite_loss_exits_5(self, workspace, tmp_path, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow is the point
            code = main([
                "train", "--data", str(workspace / "data" / "manifest.csv"), "--out", str(tmp_path / "x.ckpt"),
                *TOY_ARGS, "--lr", "1e25", "--max_steps", "20",
            ])
        assert code == 5
        assert not (tmp_path / "x.ckpt").exists()
        err = capsys.readouterr().err
        assert "error: numeric:" in err and "step" in err

    def test_train_determinism_same_seed_same_checkpoint(self, workspace, tmp_path):
        outs = []
        for name in ("r1.ckpt", "r2.ckpt"):
            out = tmp_path / name
            code = main(["train", "--data", str(workspace / "data" / "manifest.csv"), "--out", str(out), "--seed", "5", *TOY_ARGS])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def tgt_header(name: bytes, dims: tuple[int, ...]) -> bytes:
    """A one-tensor TGT1 container up to the end of its dtype tag, without payload."""
    return b"TGT1" + struct.pack("<IH", 1, len(name)) + name + struct.pack(f"<B{len(dims)}IB", len(dims), *dims, 0)


class TestHostileInput:
    """Damaged files given to ``infer`` exit 4 with a one-line message, never a traceback."""

    def infer(self, workspace, capsys, checkpoint_path=None, image=None):
        code = main([
            "infer", "--checkpoint", str(checkpoint_path or workspace / "model.ckpt"),
            "--image", str(image or workspace / "data" / "sample_0000.tgt"),
        ])
        err = capsys.readouterr().err
        assert code == 4
        assert "error: format:" in err and "Traceback" not in err
        return err

    def test_non_utf8_checkpoint_header(self, workspace, tmp_path, capsys):
        blob = bytearray((workspace / "model.ckpt").read_bytes())
        blob[12] = 0xFF  # first header byte
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        self.infer(workspace, capsys, checkpoint_path=bad)

    def test_non_utf8_tensor_name(self, workspace, tmp_path, capsys):
        blob = dumps({"image": np.zeros((32, 32), dtype=np.float32)})
        bad = tmp_path / "bad.tgt"
        bad.write_bytes(blob.replace(b"image", b"\xff\xfe\xfd\xfc\xfb", 1))
        self.infer(workspace, capsys, image=bad)

    def test_duplicate_tensor_name_in_checkpoint(self, workspace, tmp_path, capsys):
        blob = (workspace / "model.ckpt").read_bytes()
        first, second = "param.transformer.layers.0.attention.wq", "param.transformer.layers.0.attention.wk"
        assert blob.count(second.encode()) == 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob.replace(second.encode(), first.encode()))
        assert f"duplicate tensor name {first!r}" in self.infer(workspace, capsys, checkpoint_path=bad)

    def test_duplicate_tensor_name_in_image(self, workspace, tmp_path, capsys):
        blob = dumps({"image": np.zeros((32, 32), dtype=np.float32), "imagf": np.ones((32, 32), dtype=np.float32)})
        bad = tmp_path / "bad.tgt"
        bad.write_bytes(blob.replace(b"imagf", b"image"))
        assert "duplicate tensor name 'image'" in self.infer(workspace, capsys, image=bad)

    def test_non_numeric_pgm_width(self, tmp_path, workspace, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\nabc 32\n255\n" + bytes(32 * 32))
        self.infer(workspace, capsys, image=bad)

    @pytest.mark.parametrize(
        "entry, damaged, key",
        [
            (b"cfg.lr=0.001", b"cfg.lr=x.001", "lr"),  # a value its key's parser rejects
            (b"cfg.lr=0.001", b"cfg.zz=0.001", "zz"),  # a key the run config does not have
            (b"cfg.channels=8", b"cfg.channels=0", "channels"),  # a value the model config rejects
            (b"cfg.sigma=1.0", b"cfg.sigma=nan", "sigma"),  # a value the training config rejects
            (b"cfg.hflip_prob=0.0\ncfg.seed=5", b"cfg.hflip_prob=0.\ncfg.seed=-1", "seed"),  # a key the restore does not read is still validated
        ],
    )
    def test_bad_config_entry_in_checkpoint_header(self, workspace, tmp_path, capsys, entry, damaged, key):
        blob = (workspace / "model.ckpt").read_bytes()
        assert blob.count(entry + b"\n") == 1 and len(damaged) == len(entry)  # the header keeps its length
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob.replace(entry + b"\n", damaged + b"\n"))
        err = self.infer(workspace, capsys, checkpoint_path=bad)
        assert str(bad) in err and key in err

    def test_header_declares_a_larger_model_than_the_file_holds(self, workspace, tmp_path, capsys):
        # toy tensors under a header whose model needs a (1024**2, 1024**2) TGCN weight, 8 TiB in float64
        blob = (workspace / "model.ckpt").read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = blob[12 : 12 + header_len].decode()
        for key, value in [("input_size", 4096), ("feature_size", 1024), ("patch_size", 1024)]:
            header = re.sub(rf"^cfg\.{key}=\d+$", f"cfg.{key}={value}", header, count=1, flags=re.M)
            assert f"cfg.{key}={value}\n" in header
        bad = tmp_path / "big.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header.encode() + blob[12 + header_len :])
        err = self.infer(workspace, capsys, checkpoint_path=bad)
        assert "no tensor for a parameter of shape" in err

    @pytest.mark.parametrize("dims", [(0xFFFFFFFF,) * 3, (60000, 60000)])
    def test_declared_payload_larger_than_the_file(self, tmp_path, workspace, capsys, dims):
        bad = tmp_path / "bad.tgt"
        bad.write_bytes(tgt_header(b"image", dims))
        self.infer(workspace, capsys, image=bad)

    @pytest.mark.parametrize("dims", [(0, 0x80000000, 0x80000000), (0,) * 65])
    def test_empty_tensor_of_a_shape_numpy_refuses(self, tmp_path, workspace, capsys, dims):
        bad = tmp_path / "bad.tgt"
        bad.write_bytes(tgt_header(b"image", dims))
        self.infer(workspace, capsys, image=bad)

    def test_pgm_without_pixels(self, tmp_path, workspace, capsys):
        # zero rows pass the payload-length check whatever the width, which numpy cannot reshape to
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n%d 0\n255\n" % 2**40)
        assert "no pixels" in self.infer(workspace, capsys, image=bad)


class TestNonUtf8Manifest:
    """A manifest whose bytes are not UTF-8 exits 4 naming the manifest, never a traceback."""

    @pytest.fixture
    def manifest(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        manifest = data / "manifest.csv"
        blob = manifest.read_bytes()
        manifest.write_bytes(blob.replace(b"sample_0001", b"sample_\xff001", 1))
        return manifest

    def run(self, argv, manifest, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 4
        assert "error: format:" in err and str(manifest) in err and "UTF-8" in err and "Traceback" not in err

    def test_train(self, manifest, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        self.run(["train", "--data", str(manifest), "--out", str(out), "--seed", "5", *TOY_ARGS], manifest, capsys)
        assert not out.exists()

    def test_eval(self, workspace, manifest, capsys):
        self.run(["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(manifest)], manifest, capsys)


class TestNonFinitePixel:
    """A .tgt image holding a NaN or an infinity is refused by every reader: exit 3 naming the file."""

    @pytest.fixture(params=[np.nan, np.inf])
    def damaged(self, workspace, tmp_path, request):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        bad = data / "sample_0001.tgt"
        image = load_image(bad)
        image[3, 4] = request.param
        bad.write_bytes(dumps({"image": image}))
        return data, bad

    def run(self, argv, bad, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "error: data:" in err and str(bad) in err and "non-finite" in err and "Traceback" not in err

    def test_infer(self, workspace, damaged, capsys):
        _, bad = damaged
        self.run(["infer", "--checkpoint", str(workspace / "model.ckpt"), "--image", str(bad)], bad, capsys)

    def test_eval(self, workspace, damaged, capsys):
        data, bad = damaged
        self.run(["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(data / "manifest.csv")], bad, capsys)

    def test_train(self, damaged, tmp_path, capsys):
        data, bad = damaged
        out = tmp_path / "model.ckpt"
        self.run(["train", "--data", str(data / "manifest.csv"), "--out", str(out), "--seed", "5", *TOY_ARGS], bad, capsys)
        assert not out.exists()


class TestNonFiniteManifestRow:
    """A manifest row with a non-finite coordinate or a bad spacing is refused: exit 3 naming the manifest and line."""

    @pytest.fixture
    def damage(self, workspace, tmp_path):
        def damage(column, value):
            data = tmp_path / "data"
            shutil.copytree(workspace / "data", data)
            manifest = data / "manifest.csv"
            lines = manifest.read_text().splitlines()
            header = lines[0].split(",")
            row = lines[2].split(",")
            row[header.index(column)] = value
            lines[2] = ",".join(row)
            manifest.write_text("\n".join(lines) + "\n")
            return manifest

        return damage

    CASES = [("x3", "nan"), ("x3", "inf"), ("spacing_mm_px", "nan")]

    @pytest.mark.parametrize("column, value", CASES)
    def test_eval(self, workspace, damage, capsys, column, value):
        manifest = damage(column, value)
        TestNonFinitePixel().run(["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(manifest)], f"{manifest}:3", capsys)

    @pytest.mark.parametrize("column, value", CASES)
    def test_train(self, damage, tmp_path, capsys, column, value):
        manifest = damage(column, value)
        out = tmp_path / "model.ckpt"
        TestNonFinitePixel().run(["train", "--data", str(manifest), "--out", str(out), "--seed", "5", *TOY_ARGS], f"{manifest}:3", capsys)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-0.1"])
    def test_non_positive_spacing(self, workspace, damage, capsys, value):
        manifest = damage("spacing_mm_px", value)
        code = main(["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(manifest)])
        err = capsys.readouterr().err
        assert code == 3
        assert f"{manifest}:3" in err and "spacing_mm_px must be positive" in err

    @pytest.mark.parametrize("value", ["7", "-1"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_label_other_than_0_or_1(self, workspace, damage, tmp_path, capsys, command, value):
        manifest = damage("label", value)
        out = tmp_path / "model.ckpt"
        if command == "train":
            argv = ["train", "--data", str(manifest), "--out", str(out), "--seed", "5", *TOY_ARGS]
        else:
            argv = ["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(manifest)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert f"{manifest}:3" in err and "label must be 0 or 1" in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "model.ckpt.losses.csv").exists()


class TestImageOfTheWrongSize:
    """An image whose size is not the model's input_size is refused by every command: exit 3 naming it."""

    def run(self, argv, named, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "error: data:" in err and named in err and "does not match the model's input_size 32x32" in err
        assert "Traceback" not in err

    @pytest.fixture
    def one_large_image(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        (data / "sample_0001.tgt").write_bytes(dumps({"image": np.full((64, 64), 0.5, dtype=np.float32)}))
        return data

    def test_eval_on_a_dataset_of_another_size(self, workspace, tmp_path, capsys):
        data = tmp_path / "data64"
        assert main(["generate", "--out", str(data), "--n_samples", "2", "--seed", "5", "--input_size", "64"]) == 0
        argv = ["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(data / "manifest.csv")]
        self.run(argv, "sample sample_0000.tgt: image shape (64, 64)", capsys)

    def test_eval(self, workspace, one_large_image, capsys):
        argv = ["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", str(one_large_image / "manifest.csv")]
        self.run(argv, "sample sample_0001.tgt: image shape (64, 64)", capsys)

    def test_train(self, one_large_image, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        argv = ["train", "--data", str(one_large_image / "manifest.csv"), "--out", str(out), "--seed", "5", *TOY_ARGS]
        self.run(argv, "sample sample_0001.tgt: image shape (64, 64)", capsys)
        assert not out.exists()

    def test_infer(self, workspace, one_large_image, capsys):
        image = one_large_image / "sample_0001.tgt"
        self.run(["infer", "--checkpoint", str(workspace / "model.ckpt"), "--image", str(image)], f"{image}: image shape (64, 64)", capsys)


class TestRunConfigValidation:
    """A value no run can use is refused before any work: exit 2 naming the key, never a traceback."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("generate", "speckle_gamma", "nan"),
            ("generate", "spacing", "inf"),
            ("generate", "seed", "-1"),
            ("train", "lr", "nan"),
            ("train", "lambda", "nan"),
            ("train", "sigma", "nan"),
            ("train", "lr", "inf"),
            ("train", "seed", "-1"),
            ("train", "unet_depth", "100000000000000000000"),
            ("ablate", "seed", "-1"),
        ],
    )
    def test_exits_2(self, workspace, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--out", str(out), "--n_samples", "2", "--input_size", "32"],
            "train": ["train", "--data", str(workspace / "data" / "manifest.csv"), "--out", str(out), *TOY_ARGS],
            "ablate": ["ablate", "--data", str(workspace / "data" / "manifest.csv"), "--out", str(out), "--folds", "2", *TOY_ARGS],
        }[command]
        code = main([*argv, f"--{flag}", value])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: config:" in err and flag in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["channels", "gcn_hidden"])
    def test_width_no_array_can_hold(self, workspace, tmp_path, capsys, flag):
        # refused when the first parameter it sizes is claimed, before numpy is asked for it
        out = tmp_path / "out"
        argv = ["train", "--data", str(workspace / "data" / "manifest.csv"), "--out", str(out), *TOY_ARGS]
        code = main([*argv, f"--{flag}", "100000000000000000000"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: config:" in err and "parameter of shape (" in err and "Traceback" not in err
        assert not out.exists()

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"n_samples = 4\nseed = \xff\n")
        code = main(["generate", "--out", str(tmp_path / "ds"), "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: config:" in err and str(config) in err and "UTF-8" in err


class TestExitCodes:
    """Each error class a command raises maps to one exit code and one ``error: <label>:`` prefix."""

    @pytest.mark.parametrize(
        "error, code, label",
        [
            (ConfigError, 2, "config"),
            (FormatError, 4, "format"),
            (IncompleteCheckpointError, 4, "format"),
            (DataError, 3, "data"),
            (GenerationError, 3, "data"),
            (DegenerateGeometryError, 3, "data"),
            (OSError, 3, "data"),
            (NumericError, 5, "numeric"),
            (ContractError, 1, "internal"),
            (DimensionError, 1, "internal"),
        ],
    )
    def test_error_class_sets_exit_code_and_label(self, monkeypatch, capsys, error, code, label):
        def fail(args):
            raise error("boom")

        monkeypatch.setitem(cli._COMMANDS, "eval", fail)
        assert main(["eval", "--checkpoint", "m.ckpt", "--data", "manifest.csv"]) == code
        assert capsys.readouterr().err == f"error: {label}: boom\n"

    def test_other_exceptions_propagate(self, monkeypatch):
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "eval", fail)
        with pytest.raises(RuntimeError, match="boom"):
            main(["eval", "--checkpoint", "m.ckpt", "--data", "manifest.csv"])


class TestAblate:
    def test_ablate_csv_shape(self, workspace, tmp_path):
        out = tmp_path / "ablation.csv"
        code = main([
            "ablate", "--data", str(workspace / "data" / "manifest.csv"), "--out", str(out),
            "--folds", "2", "--seed", "5", *TOY_ARGS,
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == METRICS_CSV_HEADER
        data_rows = [l for l in lines[1:] if not l.startswith("#")]
        assert [r.split(",")[0] for r in data_rows] == ["concat_baseline", "no_mmf", "no_tgcn", "full"]
        assert lines[-1].startswith("# reference")
