"""Command-line entry point.

Subcommands wire config files to the generate/train/eval/infer/ablate
workflows. generate, train and ablate take as ``--key value`` the run-config
keys they read: generate the generator keys, train the model and training
keys, ablate those and the evaluation keys. A ``--config`` file may hold any
run-config key, so one file can describe a whole generate -> train -> ablate
run. Command-line values override the config file, which overrides defaults.
eval and infer take their config from the checkpoint.

Exit codes: 0 success, 2 config error, 3 data error, 4 format error,
5 numeric abort; unexpected failures return 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checkpoint as ckpt
from .config import (
    KEY_SPECS,
    EvalConfig,
    GeneratorConfig,
    ModelConfig,
    TrainConfig,
    _key_specs,
    eval_config_from,
    generator_config_from,
    merge_run_config,
    model_config_from,
    parse_config_file,
    run_config_to_items,
    train_config_from,
)
from .dataset import check_image_size, load_image, read_manifest
from .errors import ConfigError, DataError, FormatError, HipgrafError, NumericError
from .experiments import ablation_csv, ablation_run, detect, score_detections
from .metrics import MetricsReport, metrics_csv, write_overlay
from .nets.model import build_model
from .phantom import generate_dataset
from .training import train

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_FORMAT = 4
EXIT_NUMERIC = 5


def _add_config_options(parser: argparse.ArgumentParser, *classes) -> None:
    """``--config`` plus one ``--key`` flag for each run-config key that ``classes`` read."""
    parser.add_argument("--config", help="run config file of 'key = value' lines (any run-config key)")
    for key in _key_specs(*classes):
        _, default, help_text = KEY_SPECS[key]
        parser.add_argument(f"--{key}", metavar="V", help=f"{help_text} (default {default})")


def _collect_config(args: argparse.Namespace) -> dict:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {key: getattr(args, key) for key in KEY_SPECS if getattr(args, key, None) is not None}
    return merge_run_config(file_values, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hipgraf", description="Hip landmark detection on synthetic phantoms")
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="write a synthetic phantom dataset")
    p_generate.add_argument("--out", required=True, help="output directory")
    _add_config_options(p_generate, GeneratorConfig)

    p_train = sub.add_parser("train", help="train a model on a generated dataset")
    p_train.add_argument("--data", required=True, help="manifest CSV path")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument("--log", help="loss log CSV path (default: <out>.losses.csv)")
    _add_config_options(p_train, ModelConfig, TrainConfig)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="manifest CSV path")
    p_eval.add_argument("--out", help="metrics CSV path (default: print to stdout)")
    p_eval.add_argument("--overlay-dir", help="write per-sample overlay PGMs here")

    p_infer = sub.add_parser("infer", help="detect landmarks on one image")
    p_infer.add_argument("--checkpoint", required=True)
    p_infer.add_argument("--image", required=True, help=".tgt or .pgm image file")
    p_infer.add_argument("--overlay", help="write an overlay PGM here")

    p_ablate = sub.add_parser("ablate", help="cross-validate the four model variants")
    p_ablate.add_argument("--data", required=True, help="manifest CSV path")
    p_ablate.add_argument("--out", required=True, help="comparison CSV path")
    _add_config_options(p_ablate, ModelConfig, TrainConfig, EvalConfig)

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    values = _collect_config(args)
    manifest = generate_dataset(args.out, generator_config_from(values))
    print(manifest)
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    values = _collect_config(args)
    samples = read_manifest(args.data)
    train_cfg = train_config_from(values)
    model = build_model(model_config_from(values), seed=train_cfg.seed)
    log_path = args.log if args.log else f"{args.out}.losses.csv"
    result = train(samples, model, train_cfg, log_path=log_path)
    ckpt.save_checkpoint(
        args.out,
        model,
        config_items=run_config_to_items(values),
        optimizer=result.optimizer,
        epoch=result.epochs_run,
        step=result.steps_run,
    )
    print(args.out)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    model = ckpt.restore_model(ckpt.load_checkpoint(args.checkpoint))
    samples = read_manifest(args.data)
    overlay_names = [f"{Path(s.name).stem}_overlay.pgm" for s in samples]
    first: dict[str, int] = {}  # overlay name -> index of the first sample that writes it
    for i, name in enumerate(overlay_names if args.overlay_dir else []):
        if first.setdefault(name, i) != i:
            raise DataError(f"manifest rows {samples[first[name]].name} and {samples[i].name} would both write overlay {name}")
    for s in samples:
        check_image_size(s.image, model.config.backbone.input_size, f"sample {s.name}")
    coords, probs = detect(model, [s.image for s in samples])
    report = MetricsReport(variant=model.config.variant, aggregate=score_detections(samples, coords, probs))
    text = metrics_csv([report])
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        print(text, end="")
    if args.overlay_dir:
        overlay_dir = Path(args.overlay_dir)
        overlay_dir.mkdir(parents=True, exist_ok=True)
        for name, sample, predicted in zip(overlay_names, samples, coords):
            write_overlay(overlay_dir / name, sample.image, predicted, gt=sample.landmarks)
    return EXIT_OK


def cmd_infer(args: argparse.Namespace) -> int:
    model = ckpt.restore_model(ckpt.load_checkpoint(args.checkpoint))
    image = check_image_size(load_image(args.image), model.config.backbone.input_size, args.image)
    (coords,), probs = detect(model, [image])
    prob = "" if probs is None else f"{probs[0]:.4f}"
    print(",".join(f"{v:.2f}" for v in coords.reshape(-1)) + f",{prob}")
    if args.overlay:
        write_overlay(args.overlay, image, coords)
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    values = _collect_config(args)
    samples = read_manifest(args.data)
    reports = ablation_run(
        samples,
        model_config_from(values),
        train_config_from(values),
        eval_config_from(values),
    )
    Path(args.out).write_text(ablation_csv(reports))
    print(args.out)
    return EXIT_OK


# (error classes, exit code, message label): the first entry whose classes match wins
_EXITS = (
    (ConfigError, EXIT_CONFIG, "config"),
    (FormatError, EXIT_FORMAT, "format"),
    ((DataError, OSError), EXIT_DATA, "data"),
    (NumericError, EXIT_NUMERIC, "numeric"),
    (HipgrafError, EXIT_INTERNAL, "internal"),
)

_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        for classes, code, label in _EXITS:
            if isinstance(exc, classes):
                print(f"error: {label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
