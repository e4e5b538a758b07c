"""Surrogate-gradient BPTT training: optimizer, loop, metrics, checkpoints."""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import Dataset, batches
from .model import Model, ModelConfig, build
from .tensor import Tensor, log_softmax, no_grad

CHECKPOINT_MAGIC = b"SPKF"
CHECKPOINT_VERSION = 2  # v1 stored spatial kernels [O, C, kh, kw]; v2 [kh, kw, C, O]

# AdamW moment decays and denominator epsilon
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    lr: float = 5e-4
    weight_decay: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not self.lr >= 0:  # NaN fails too
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


class AdamW:
    def __init__(self, params, cfg: TrainConfig):
        self.params = list(params)
        self.cfg = cfg
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, lr: float) -> None:
        """One AdamW update of every parameter, in place: m, v and ``p.data``
        are overwritten (``Model.state()`` arrays see the new values), and
        each takes the float operations of

            m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            p = p - lr (m / bc1 / (sqrt(v / bc2) + eps) + wd p)

        in that order, in two scratch arrays per parameter."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            tmp = (1 - BETA1) * g
            m *= BETA1
            m += tmp
            np.multiply(g, 1 - BETA2, out=tmp)
            tmp *= g
            v *= BETA2
            v += tmp
            update = m / bc1
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            update /= tmp
            update += np.multiply(p.data, self.cfg.weight_decay, out=tmp)
            update *= lr
            p.data -= update

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    if total_steps <= 1:
        return base_lr
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / (total_steps - 1)))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    logp = log_softmax(logits, axis=-1)
    onehot = np.zeros(logits.shape, dtype=logits.data.dtype)
    onehot[np.arange(len(labels)), labels] = 1.0
    return -(logp * onehot).sum() * (1.0 / len(labels))


def train(model: Model, dataset: Dataset, cfg: TrainConfig, metrics_path=None):
    """Train in place; returns the per-step metrics log.

    Static images are repeated across T inside the model's forward; event
    datasets feed their own leading T axis. A fused model (``Model.fuse``)
    is inference-only and raises ``ValueError``.
    """
    if model.fused:
        raise ValueError("model is fused and inference-only (its BNs are folded "
                         "and its parameters frozen); train the unfused model")
    rng = np.random.default_rng(cfg.seed)
    model.train()
    optimizer = AdamW(model.parameters(), cfg)
    n = len(dataset)
    steps_per_epoch = max(1, n // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    metrics = []
    step = 0
    for epoch in range(cfg.epochs):
        # full batches only, or one short batch when the dataset is smaller
        order = rng.permutation(n)[: steps_per_epoch * cfg.batch_size]
        for xb, yb in batches(dataset, cfg.batch_size, order):
            logits = model.forward(xb)
            loss = cross_entropy(logits, yb)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDiverged(
                    f"non-finite loss {loss_val} at epoch {epoch} step {step}"
                )
            optimizer.zero_grad()
            loss.backward()
            lr = cosine_lr(cfg.lr, step, total_steps)
            optimizer.step(lr)
            acc = float((logits.data.argmax(axis=1) == yb).mean())
            metrics.append({"epoch": epoch, "step": step, "loss": loss_val,
                            "acc": acc, "lr": lr})
            step += 1
    if metrics_path is not None:
        write_metrics_csv(metrics, metrics_path)
    return metrics


def evaluate(model: Model, dataset: Dataset, batch_size: int = 64) -> float:
    """Top-1 accuracy in eval mode, tape-free; the model's mode is restored."""
    was_training = model.training
    model.eval()
    correct = 0
    with no_grad():
        for xb, yb in batches(dataset, batch_size):
            correct += int((model.forward(xb).data.argmax(axis=1) == yb).sum())
    if was_training:
        model.train()
    return correct / len(dataset)


def write_metrics_csv(metrics, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "step", "loss", "acc", "lr"])
        for row in metrics:
            writer.writerow([row["epoch"], row["step"],
                             repr(row["loss"]), repr(row["acc"]), repr(row["lr"])])


# -- checkpoints ---------------------------------------------------------------


def _finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"checkpoint tensor {name!r} holds a non-finite value (NaN or inf)")
    return arr


def save_checkpoint(model: Model, path) -> None:
    """Binary format: magic, u32 version, u32 count; per tensor a u32 name
    length, UTF-8 name, u8 rank, u32 dims, little-endian f32 payload. A NaN or
    inf (after the f32 cast) raises ``ValueError`` before the file is opened."""
    state = {name: _finite(name, np.ascontiguousarray(arr, dtype="<f4"))
             for name, arr in sorted(model.state().items())}
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(state)))
        for name, arr in state.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def read_checkpoint(path) -> dict:
    """Parse a file written by ``save_checkpoint``, this version or v1.

    A v1 file's rank-4 tensors (the only ones are spatial kernels) are
    transposed from [O, C, kh, kw] into contiguous [kh, kw, C, O] arrays.
    Any malformed file (bad magic or version, a short read anywhere, a
    duplicate name, a NaN or inf value, trailing bytes) raises ValueError.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(blob) - pos:
            raise ValueError(f"truncated checkpoint: {what} needs {n} bytes at offset {pos}, "
                             f"{len(blob) - pos} left")
        pos += n
        return blob[pos - n: pos]

    magic = bytes(take(4, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    version, count = struct.unpack("<II", take(8, "header"))
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version}")
    state = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        # a name that is not UTF-8 raises UnicodeDecodeError, itself a ValueError
        name = bytes(take(name_len, "tensor name")).decode("utf-8")
        if name in state:
            raise ValueError(f"duplicate tensor name {name!r} in checkpoint")
        (rank,) = struct.unpack("<B", take(1, f"rank of tensor {name!r}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of tensor {name!r}"))
        payload = take(4 * math.prod(dims), f"payload of tensor {name!r}")
        arr = _finite(name, np.frombuffer(payload, dtype="<f4").reshape(dims))
        if version == 1 and rank == 4:
            arr = np.ascontiguousarray(arr.transpose(2, 3, 1, 0))
        state[name] = arr
    if pos != len(blob):
        raise ValueError(f"{len(blob) - pos} trailing bytes after {count} checkpoint tensors")
    return state


def load_checkpoint(path, config: ModelConfig) -> Model:
    """Build a model for ``config`` and load a checkpoint written by
    ``save_checkpoint``; a state without BN statistics (written after
    ``Model.fuse``) loads into a fused model."""
    state = read_checkpoint(path)
    model = build(config)
    if not any(name.endswith(".running_mean") for name in state):
        model.fuse()
    model.load_state(state)
    return model
