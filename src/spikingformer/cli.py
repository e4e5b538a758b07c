"""Command-line surface: train / eval / audit / energy / fuse / params."""

from __future__ import annotations

import argparse
import json
import os
import sys

# honor the thread cap before numpy spins up its BLAS pools
_threads = os.environ.get("SPKF_THREADS")
if _threads:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, _threads)

import numpy as np

from . import audit as audit_mod
from . import energy as energy_mod
from .data import Dataset, load_cifar10_binary, synth_events, synth_static
from .layers import ADD, HEAD_VARIANTS, SPIKE_DRIVEN
from .model import (
    Model,
    ModelConfig,
    PRESETS,
    PUBLISHED_PARAM_COUNTS_M,
    build,
    preset_config,
)
from .train import (
    TrainConfig,
    TrainingDiverged,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

# flat config schema: key -> (expected type(s), allowed values or None)
_SCHEMA = {
    "preset": (str, tuple(PRESETS)),
    "blocks": (int, None),
    "embed_dim": (int, None),
    "heads": (int, None),
    "timesteps": (int, None),
    "num_classes": (int, None),
    "in_channels": (int, None),
    "image_height": (int, None),
    "image_width": (int, None),
    "scale": (float, None),
    "tokenizer_plan": (list, None),
    "head_variant": (str, HEAD_VARIANTS),
    "residual_style": (str, (SPIKE_DRIVEN, ADD)),
    "mlp_ratio": (int, None),
    "tau": (float, None),
    "v_threshold": (float, None),
    "v_reset": (float, None),
    "alpha": (float, None),
    "epochs": (int, None),
    "batch_size": (int, None),
    "lr": (float, None),
    "weight_decay": (float, None),
    "seed": (int, None),
    "dataset": (str, ("synthetic-static", "synthetic-events", "cifar10")),
    "data_path": (str, None),
    "samples": (int, None),
    "noise": (float, None),
}

_MODEL_KEYS = ("blocks", "embed_dim", "heads", "timesteps", "num_classes", "in_channels",
               "scale", "head_variant", "residual_style", "mlp_ratio",
               "tau", "v_threshold", "v_reset", "alpha")


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
        overrides["image_size"] = (cfg.get("image_height", 32), cfg.get("image_width", 32))
    if "tokenizer_plan" in cfg:
        overrides["tokenizer_plan"] = tuple(cfg["tokenizer_plan"])
    if getattr(args, "timesteps", None) is not None:
        overrides["timesteps"] = args.timesteps
    if "preset" in cfg:
        return preset_config(cfg["preset"], **overrides)
    required = ("blocks", "embed_dim", "heads", "timesteps", "num_classes")
    missing = [k for k in required if k not in overrides]
    if missing:
        raise ConfigError(f"config missing required keys: {missing}")
    return ModelConfig(**overrides)


def dataset_from(cfg: dict, args, model_cfg: ModelConfig) -> Dataset:
    kind = cfg.get("dataset", "synthetic-static")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    n = cfg.get("samples", 512)
    if args.limit is not None:
        n = min(n, args.limit)
    if kind == "cifar10":
        path = args.data or cfg.get("data_path")
        if not path:
            raise ConfigError("cifar10 dataset needs --data or data_path")
        return load_cifar10_binary(path, limit=args.limit)
    c, (h, w) = model_cfg.in_channels, model_cfg.image_size
    if kind == "synthetic-events":
        return synth_events(model_cfg.num_classes, n, model_cfg.timesteps, seed, shape=(c, h, w))
    return synth_static(model_cfg.num_classes, n, seed, shape=(c, h, w),
                        noise=cfg.get("noise", 0.05))


def _model_from_args(cfg, args, need_checkpoint=True) -> tuple:
    model_cfg = model_config_from(cfg, args)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    ckpt = getattr(args, "checkpoint", None)
    if ckpt:
        model = load_checkpoint(ckpt, model_cfg)
    else:
        if need_checkpoint:
            raise ConfigError("this command requires --checkpoint")
        model = build(model_cfg, seed=seed)
    return model, model_cfg


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    model_cfg = model_config_from(cfg, args)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    train_cfg = TrainConfig(
        epochs=cfg.get("epochs", 50),
        batch_size=cfg.get("batch_size", 64),
        lr=cfg.get("lr", 5e-4),
        weight_decay=cfg.get("weight_decay", 0.05),
        seed=seed,
    )
    dataset = dataset_from(cfg, args, model_cfg)
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
    cfg = load_config(args.config)
    model, model_cfg = _model_from_args(cfg, args)
    dataset = dataset_from(cfg, args, model_cfg)
    acc = evaluate(model, dataset)
    print(f"accuracy {acc:.4f} on {len(dataset)} samples")
    return 0


def _eval_batches(dataset: Dataset, model_cfg: ModelConfig, batch_size: int = 32):
    for start in range(0, len(dataset), batch_size):
        xb = dataset.x[start : start + batch_size]
        if dataset.kind == "event-frames":
            xb = np.moveaxis(xb, 0, 1)
        yield xb


def cmd_audit(args) -> int:
    cfg = load_config(args.config)
    model, model_cfg = _model_from_args(cfg, args, need_checkpoint=False)
    model.eval()
    dataset = dataset_from(cfg, args, model_cfg)
    report = audit_mod.record(model, _eval_batches(dataset, model_cfg))
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
    cfg = load_config(args.config)
    model, model_cfg = _model_from_args(cfg, args, need_checkpoint=False)
    model.eval()
    dataset = dataset_from(cfg, args, model_cfg)
    traces = energy_mod.trace_model(model, _eval_batches(dataset, model_cfg))
    out = _out_dir(args)
    if model_cfg.residual_style == ADD:
        mode = (energy_mod.MODE_INTEGER_AS_MAC if args.mode == 2
                else energy_mod.MODE_INTEGER_AS_N_ACS)
        report = energy_mod.spikformer_recalc(traces, mode=mode)
    elif dataset.kind == "event-frames":
        report = energy_mod.energy_neuromorphic(traces)
    else:
        report = energy_mod.energy_static(traces)
    energy_mod.write_energy_csv(report, os.path.join(out, "energy.csv"))
    energy_mod.write_energy_json(report, os.path.join(out, "energy.json"))
    print(f"mode {report.mode}: total {report.total_pj:.1f} pJ "
          f"({report.total_mj:.9f} mJ) per inference")
    return 0


def cmd_fuse(args) -> int:
    cfg = load_config(args.config)
    model, model_cfg = _model_from_args(cfg, args)
    model.eval()
    dataset = dataset_from(cfg, args, model_cfg)
    xb = next(_eval_batches(dataset, model_cfg))
    before = model.forward(xb).data
    model.fuse()
    after = model.forward(xb).data
    diff = float(np.max(np.abs(before - after)))
    out = _out_dir(args)
    path = os.path.join(out, "checkpoint-fused.spkf")
    save_checkpoint(model, path)
    verdict = "equivalent" if diff <= 1e-4 else "MISMATCH"
    print(f"fusion {verdict}: max |unfused - fused| logit diff {diff:.2e}")
    print(f"wrote {path}")
    return 0 if diff <= 1e-4 else 1


def cmd_params(args) -> int:
    cfg = load_config(args.config)
    model_cfg = model_config_from(cfg, args)
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
    energy_p.add_argument("--mode", type=int, choices=(1, 2), default=1)
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
