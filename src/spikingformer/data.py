"""Datasets: CIFAR-10 binary files plus synthetic desk-scale generators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixels
CIFAR_CLASSES = 10


@dataclass
class Dataset:
    """Labelled samples; the rank of x is the layout: static images are
    [n, C, H, W], event frames [n, T, C, H, W]."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __len__(self):
        return len(self.y)


def batches(dataset: Dataset, batch_size: int, order=None):
    """Yield (x, y) minibatches laid out for ``Model.forward``.

    Samples are taken in ``order`` (an index array; default: dataset order),
    ``batch_size`` at a time, the last batch possibly short. Event frames
    (a 5-D x) move from [B, T, ...] to [T, B, ...].
    """
    order = np.arange(len(dataset)) if order is None else order
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        xb = dataset.x[idx]
        if xb.ndim == 5:
            xb = np.moveaxis(xb, 0, 1)
        yield xb, dataset.y[idx]


def load_cifar10_binary(path, limit=None) -> Dataset:
    """Read a CIFAR-10 binary batch file (3073-byte records, pixels in [0,1])."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD_BYTES:
        raise ValueError(
            f"{path}: size {raw.size} is not a multiple of {CIFAR_RECORD_BYTES}-byte records"
        )
    records = raw.reshape(-1, CIFAR_RECORD_BYTES)
    if limit is not None:
        records = records[:limit]
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) >= CIFAR_CLASSES:
        raise ValueError(f"{path}: label {labels.max()} out of range for CIFAR-10")
    pixels = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    return Dataset(x=pixels, y=labels, num_classes=CIFAR_CLASSES)


def class_templates(classes: int, shape, seed: int) -> np.ndarray:
    """Per-class spatial intensity templates with pairwise distinct means."""
    rng = np.random.default_rng(seed)
    c, h, w = shape
    templates = np.zeros((classes, c, h, w), dtype=np.float32)
    for cls in range(classes):
        base = rng.uniform(0.0, 1.0, size=(c, h, w)).astype(np.float32)
        # carve a bright class-specific block so classes stay far apart
        bh, bw = max(1, h // 2), max(1, w // 2)
        r = (cls * bh) % max(1, h - bh + 1)
        q = (cls * bw + cls // 2) % max(1, w - bw + 1)
        base[:, r : r + bh, q : q + bw] = 0.9 + 0.1 * (cls % 2)
        templates[cls] = 0.5 * base
    return templates


def synth_static(classes: int, n: int, seed: int, shape=(3, 8, 8), noise: float = 0.05) -> Dataset:
    """Linearly separable static images: class template + gaussian noise."""
    rng = np.random.default_rng(seed)
    templates = class_templates(classes, shape, seed=seed * 7919 + 13)
    y = rng.integers(0, classes, size=n)
    x = templates[y]
    if noise > 0:
        x = x + noise * rng.standard_normal(x.shape).astype(np.float32)
    x = np.clip(x, 0.0, 1.0).astype(np.float32)
    return Dataset(x=x, y=y.astype(np.int64), num_classes=classes)


def synth_events(classes: int, n: int, t_steps: int, seed: int, shape=(2, 8, 8)) -> Dataset:
    """Binary event frames with class-dependent firing-rate patterns."""
    rng = np.random.default_rng(seed)
    c, h, w = shape
    if c != 2:
        raise ValueError("event frames use C=2 (on/off polarities)")
    templates = class_templates(classes, shape, seed=seed * 104729 + 17)
    rates = templates / templates.max()
    y = rng.integers(0, classes, size=n)
    p = rates[y][:, None]  # [n, 1, C, H, W] broadcast over T
    x = (rng.uniform(size=(n, t_steps, c, h, w)) < p).astype(np.float32)
    return Dataset(x=x, y=y.astype(np.int64), num_classes=classes)

