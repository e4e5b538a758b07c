"""Command-line surface: train / eval / audit / energy / fuse / params."""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from typing import get_type_hints

import numpy as np

from . import audit as audit_mod
from . import energy as energy_mod
from .data import Dataset, batches, load_cifar10_binary, synth_events, synth_static
from .layers import ADD, HEAD_VARIANTS, SPIKE_DRIVEN
from .model import (
    ModelConfig,
    PRESETS,
    PUBLISHED_PARAM_COUNTS_M,
    build,
    preset_config,
)
from .tensor import no_grad
from .train import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)


def _scalar_fields(cls) -> dict:
    """A config class's fields that one JSON scalar sets: name -> type."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if hints[f.name] in (int, float, str)}


_MODEL_KEYS = _scalar_fields(ModelConfig)
_TRAIN_KEYS = _scalar_fields(TrainConfig)

# flat config schema: key -> (expected type(s), allowed values or None); the
# scalar fields of ModelConfig and TrainConfig, plus the CLI's own keys
_SCHEMA = {
    **{key: (kind, None) for key, kind in {**_MODEL_KEYS, **_TRAIN_KEYS}.items()},
    "head_variant": (str, HEAD_VARIANTS),
    "residual_style": (str, (SPIKE_DRIVEN, ADD)),
    "preset": (str, tuple(PRESETS)),
    "image_height": (int, None),
    "image_width": (int, None),
    "tokenizer_plan": (list, None),
    "dataset": (str, ("synthetic-static", "synthetic-events", "cifar10")),
    "data_path": (str, None),
    "samples": (int, None),
    "noise": (float, None),
}

# key -> least allowed value
_MINIMUM = {"samples": 1, "batch_size": 1, "epochs": 1, "timesteps": 1, "noise": 0}


class ConfigError(ValueError):
    pass


def validate_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a single JSON object")
    cfg = {}
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        expected, allowed = _SCHEMA[key]
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, expected) or isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be {expected.__name__}")
        if allowed is not None and value not in allowed:
            raise ConfigError(f"config key {key!r} must be one of {list(allowed)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config key {key!r} must be finite, got {value}")
        if key in _MINIMUM and value < _MINIMUM[key]:
            raise ConfigError(f"config key {key!r} must be >= {_MINIMUM[key]}, got {value}")
        cfg[key] = value
    return cfg


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return validate_config(raw)


def model_config_from(cfg: dict, args) -> ModelConfig:
    overrides = {k: cfg[k] for k in _MODEL_KEYS if k in cfg}
    if "image_height" in cfg or "image_width" in cfg:
        # a missing dimension comes from the preset, else from ModelConfig's default
        h, w = (preset_config(cfg["preset"]) if "preset" in cfg else ModelConfig).image_size
        overrides["image_size"] = (cfg.get("image_height", h), cfg.get("image_width", w))
    if "tokenizer_plan" in cfg:
        overrides["tokenizer_plan"] = tuple(cfg["tokenizer_plan"])
    if getattr(args, "timesteps", None) is not None:
        overrides["timesteps"] = args.timesteps
    if "preset" in cfg:
        return preset_config(cfg["preset"], **overrides)
    missing = [f.name for f in fields(ModelConfig)
               if f.default is MISSING and f.name not in overrides]
    if missing:
        raise ConfigError(f"config missing required keys: {missing}")
    return ModelConfig(**overrides)


def _load(args) -> tuple:
    """(validated config, its ModelConfig, seed: --seed, else the config's, else 0),
    after the input checks every command runs, whether or not it reads a dataset."""
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if args.limit is not None and args.limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {args.limit}")
    kind = cfg.get("dataset", "synthetic-static")
    unread = [key for key, wasted in (
        ("noise", "noise" in cfg and kind != "synthetic-static"),
        ("data_path", "data_path" in cfg and kind != "cifar10"),
        ("--data", args.data is not None and kind != "cifar10")) if wasted]
    if unread:
        raise ConfigError(f"the {kind} dataset never reads {' or '.join(unread)}")
    return cfg, model_config_from(cfg, args), seed


def dataset_from(cfg: dict, args, model_cfg: ModelConfig, seed: int) -> Dataset:
    kind = cfg.get("dataset", "synthetic-static")
    caps = [v for v in (cfg.get("samples"), args.limit) if v is not None]
    if kind == "cifar10":
        path = args.data or cfg.get("data_path")
        if not path:
            raise ConfigError("cifar10 dataset needs --data or data_path")
        # the whole file unless ``samples`` or --limit caps it
        dataset = load_cifar10_binary(path, limit=min(caps, default=None))
        needed = int(dataset.y.max()) + 1
        if needed > model_cfg.num_classes:
            raise ConfigError(f"{path}: label {needed - 1} needs {needed} classes, "
                              f"but num_classes is {model_cfg.num_classes}")
        return dataset
    n = min(caps + [cfg.get("samples", 512)])
    c, (h, w) = model_cfg.in_channels, model_cfg.image_size
    if kind == "synthetic-events":
        return synth_events(model_cfg.num_classes, n, model_cfg.timesteps, seed, shape=(c, h, w))
    return synth_static(model_cfg.num_classes, n, seed, shape=(c, h, w),
                        noise=cfg.get("noise", 0.05))


def _eval_setup(args, need_checkpoint=True) -> tuple:
    """(model in eval mode, its config, the dataset) for an inference command."""
    cfg, model_cfg, seed = _load(args)
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint, model_cfg)
    elif need_checkpoint:
        raise ConfigError("this command requires --checkpoint")
    else:
        model = build(model_cfg, seed=seed)
    model.eval()
    return model, model_cfg, dataset_from(cfg, args, model_cfg, seed)


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_train(args) -> int:
    cfg, model_cfg, seed = _load(args)
    train_cfg = TrainConfig(**{**{k: cfg[k] for k in _TRAIN_KEYS if k in cfg}, "seed": seed})
    dataset = dataset_from(cfg, args, model_cfg, seed)
    model = build(model_cfg, seed=seed)
    out = _out_dir(args)
    metrics = train(model, dataset, train_cfg, metrics_path=os.path.join(out, "metrics.csv"))
    save_checkpoint(model, os.path.join(out, "checkpoint.spkf"))
    final = metrics[-1]
    print(f"trained {train_cfg.epochs} epochs; final loss {final['loss']:.4f} "
          f"acc {final['acc']:.4f}")
    print(f"wrote {out}/checkpoint.spkf and {out}/metrics.csv")
    return 0


def cmd_eval(args) -> int:
    model, _, dataset = _eval_setup(args)
    acc = evaluate(model, dataset)
    print(f"accuracy {acc:.4f} on {len(dataset)} samples")
    return 0


def cmd_audit(args) -> int:
    model, _, dataset = _eval_setup(args, need_checkpoint=False)
    report = audit_mod.record(model, (x for x, _ in batches(dataset, 32)))
    out = _out_dir(args)
    audit_mod.write_report_csv(report, os.path.join(out, "purity.csv"))
    audit_mod.write_report_json(report, os.path.join(out, "purity.json"))
    print(audit_mod.text_histogram(report))
    print(f"verdict: {report.verdict}")
    if report.offending_layers:
        print("offending layers:", ", ".join(report.offending_layers))
    if args.require_pure and not report.pure:
        print("error: model is impure under --require-pure", file=sys.stderr)
        return 1
    return 0


def cmd_energy(args) -> int:
    model, model_cfg, dataset = _eval_setup(args, need_checkpoint=False)
    if args.mode is not None and model_cfg.residual_style != ADD:
        raise ConfigError(f"--mode applies to ADD models only, not {model_cfg.residual_style}")
    traces = energy_mod.trace_model(model, (x for x, _ in batches(dataset, 32)))
    out = _out_dir(args)
    if model_cfg.residual_style == ADD:
        mode = energy_mod.RECALC_MODES[(args.mode or 1) - 1]
        report = energy_mod.spikformer_recalc(traces, mode=mode)
    elif dataset.x.ndim == 5:  # event frames
        report = energy_mod.energy_neuromorphic(traces)
    else:
        report = energy_mod.energy_static(traces)
    energy_mod.write_energy_csv(report, os.path.join(out, "energy.csv"))
    energy_mod.write_energy_json(report, os.path.join(out, "energy.json"))
    print(f"mode {report.mode}: total {report.total_pj:.1f} pJ "
          f"({report.total_mj:.9f} mJ) per inference")
    return 0


def cmd_fuse(args) -> int:
    model, _, dataset = _eval_setup(args)
    xb, _ = next(batches(dataset, 32))
    # The verdict compares a float64 copy unfused and fused: in float32 the
    # folded kernel's re-associated sums flip spikes that sit at threshold.
    reference = copy.deepcopy(model).astype(np.float64)
    with no_grad():
        before = reference.forward(xb).data
        reference.fuse()
        after = reference.forward(xb).data
    diff = float(np.max(np.abs(before - after)))
    model.fuse()
    out = _out_dir(args)
    path = os.path.join(out, "checkpoint-fused.spkf")
    save_checkpoint(model, path)
    verdict = "equivalent" if diff <= 1e-4 else "MISMATCH"
    print(f"fusion {verdict}: max |unfused - fused| logit diff {diff:.2e}")
    print(f"wrote {path}")
    return 0 if diff <= 1e-4 else 1


def cmd_params(args) -> int:
    cfg, model_cfg, _ = _load(args)
    model = build(model_cfg, seed=0)
    count = model.param_count()
    print(f"trainable parameters: {count} ({count / 1e6:.2f}M)")
    preset = cfg.get("preset")
    if preset in PUBLISHED_PARAM_COUNTS_M:
        ref = PUBLISHED_PARAM_COUNTS_M[preset]
        dev = abs(count / 1e6 - ref) / ref
        print(f"reference {preset}: {ref:.2f}M (deviation {dev * 100:.2f}%)")
        if dev > 0.02:
            print("error: deviates more than 2% from the published count", file=sys.stderr)
            return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spikingformer",
                                     description="Spike-driven transformer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config file")
    common.add_argument("--data", help="dataset path (for cifar10)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--timesteps", type=int, default=None)
    common.add_argument("--limit", type=int, default=None, help="cap dataset size")
    ckpt = argparse.ArgumentParser(add_help=False)
    ckpt.add_argument("--checkpoint", help="checkpoint file")
    sub.add_parser("train", parents=[common])
    sub.add_parser("eval", parents=[common, ckpt])
    audit_p = sub.add_parser("audit", parents=[common, ckpt])
    audit_p.add_argument("--require-pure", action="store_true")
    energy_p = sub.add_parser("energy", parents=[common, ckpt])
    energy_p.add_argument("--mode", type=int, choices=(1, 2), help="ADD models only (default 1)")
    sub.add_parser("fuse", parents=[common, ckpt])
    sub.add_parser("params", parents=[common])
    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "audit": cmd_audit,
    "energy": cmd_energy,
    "fuse": cmd_fuse,
    "params": cmd_params,
}


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
