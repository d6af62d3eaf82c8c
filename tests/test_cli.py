"""End-to-end command behavior: exit codes, outputs, reproducibility."""

import gc
import re
import struct
import weakref

import numpy as np
import pytest

from hipgraf import checkpoint
from hipgraf.cli import main
from hipgraf.config import parse_config_file
from hipgraf.dataset import load_image, read_manifest, read_pgm
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
    code = main(["generate", "--out", str(data), "--n_samples", "6", "--seed", "5", *TOY_ARGS])
    assert code == 0
    ckpt = root / "model.ckpt"
    code = main(["train", "--data", str(data / "manifest.csv"), "--out", str(ckpt), "--seed", "5", *TOY_ARGS])
    assert code == 0
    return root


class TestGenerate:
    def test_writes_requested_rows(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["generate", "--out", str(out), "--n_samples", "10", "--seed", "1", *TOY_ARGS]) == 0
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
        assert main(["generate", "--out", str(out), "--config", str(config), "--n_samples", "3", *TOY_ARGS]) == 0
        assert len(read_manifest(out / "manifest.csv")) == 3  # CLI override wins


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
