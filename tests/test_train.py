"""Training loop, optimizer, checkpoints."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from spikingformer.data import synth_static
from spikingformer.model import ModelConfig, build
from spikingformer.tensor import Tensor
from spikingformer.train import (
    AdamW,
    TrainConfig,
    TrainingDiverged,
    cosine_lr,
    cross_entropy,
    evaluate,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    train,
)

TINY = ModelConfig(blocks=1, embed_dim=8, heads=2, timesteps=2, num_classes=4,
                   image_size=(8, 8), tokenizer_plan=("spe", "sped", "sped"))
FAST = TrainConfig(epochs=2, batch_size=8, lr=5e-4, seed=0)


def _dataset(n=32, seed=0):
    return synth_static(4, n, seed=seed)


class TestCosineSchedule:
    def test_starts_at_base(self):
        assert cosine_lr(0.1, 0, 100) == pytest.approx(0.1)

    def test_ends_near_zero(self):
        assert cosine_lr(0.1, 99, 100) == pytest.approx(0.0, abs=1e-12)

    def test_halfway(self):
        assert cosine_lr(0.1, 50, 101) == pytest.approx(0.05)

    def test_monotone_decreasing(self):
        values = [cosine_lr(0.1, s, 50) for s in range(50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_single_step(self):
        assert cosine_lr(0.1, 0, 1) == 0.1


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float64))
        loss = cross_entropy(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(math.log(4))

    def test_confident_correct_is_small(self):
        logits = Tensor(np.array([[10.0, 0.0, 0.0]]))
        assert cross_entropy(logits, np.array([0])).item() < 1e-3

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]]), requires_grad=True)
        loss = cross_entropy(logits, np.array([1]))
        loss.backward()
        z = logits.data[0]
        softmax = np.exp(z) / np.exp(z).sum()
        expected = softmax - np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(logits.grad[0], expected, atol=1e-6)


class TestAdamW:
    def _param(self, value):
        p = Tensor(np.array([value], dtype=np.float64), requires_grad=True)
        return p

    def test_single_step_direction(self):
        p = self._param(1.0)
        p.grad = np.array([1.0])
        cfg = TrainConfig(epochs=1, weight_decay=0.0)
        opt = AdamW([p], cfg)
        opt.step(lr=0.1)
        assert p.data[0] < 1.0  # moves against the gradient

    def test_decoupled_weight_decay(self):
        p = self._param(1.0)
        p.grad = np.array([0.0])
        opt = AdamW([p], TrainConfig(epochs=1, weight_decay=0.1))
        opt.step(lr=0.01)
        assert p.data[0] == pytest.approx(1.0 - 0.01 * 0.1)

    def test_zero_lr_freezes_parameters(self):
        p = self._param(2.0)
        p.grad = np.array([5.0])
        opt = AdamW([p], TrainConfig(epochs=1))
        opt.step(lr=0.0)
        assert p.data[0] == 2.0

    def test_zero_grad_clears(self):
        p = self._param(1.0)
        p.grad = np.array([1.0])
        opt = AdamW([p], TrainConfig(epochs=1))
        opt.zero_grad()
        assert p.grad is None


class TestTrainLoop:
    def test_zero_lr_leaves_model_unchanged(self):
        model = build(TINY, seed=0)
        before = {k: v.copy() for k, v in model.state().items()
                  if not k.endswith(("running_mean", "running_var"))}
        train(model, _dataset(16), dataclasses.replace(FAST, lr=0.0, weight_decay=0.0,
                                                       epochs=1))
        after = model.state()
        for name, arr in before.items():
            np.testing.assert_array_equal(after[name], arr)

    def test_loss_decreases(self):
        model = build(TINY, seed=0)
        cfg = dataclasses.replace(FAST, epochs=6)
        metrics = train(model, _dataset(32), cfg)
        first = np.mean([m["loss"] for m in metrics[:4]])
        last = np.mean([m["loss"] for m in metrics[-4:]])
        assert last < first

    def test_seed_determinism_bit_exact(self):
        ds = _dataset(16)
        runs = []
        for _ in range(2):
            model = build(TINY, seed=0)
            runs.append(train(model, ds, FAST))
        assert len(runs[0]) == len(runs[1])
        for a, b in zip(runs[0], runs[1]):
            assert a["loss"] == b["loss"] and a["acc"] == b["acc"]

    def test_metrics_csv_written(self, tmp_path):
        model = build(TINY, seed=0)
        path = tmp_path / "metrics.csv"
        metrics = train(model, _dataset(16), dataclasses.replace(FAST, epochs=1),
                        metrics_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,step,loss,acc,lr"
        assert len(lines) == len(metrics) + 1
        # repr round-trip keeps the logged floats bit-exact
        assert float(lines[1].split(",")[2]) == metrics[0]["loss"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detection(self):
        model = build(TINY, seed=0)
        model.head.bias.data[:] = np.inf
        with pytest.raises(TrainingDiverged):
            train(model, _dataset(16), dataclasses.replace(FAST, epochs=1))

    def test_evaluate_bounds(self):
        model = build(TINY, seed=0)
        acc = evaluate(model, _dataset(16))
        assert 0.0 <= acc <= 1.0

    def test_tiny_alpha_silences_neuron_gated_gradients(self):
        # layers whose only route to the loss passes through a neuron lose
        # their gradient when the surrogate slope collapses (the residual
        # identity path keeps the last tokenizer conv and the head alive)
        cfg = dataclasses.replace(TINY, alpha=1e-6)
        model = build(cfg, seed=0)
        ds = _dataset(8)
        logits = model.forward(ds.x)
        loss = cross_entropy(logits, ds.y)
        loss.backward()
        gated = [f"tokenizer.units.{i}." for i in range(len(TINY.tokenizer_plan) - 1)]
        checked = 0
        for name, p in model.named_parameters():
            if not any(name.startswith(g) for g in gated):
                continue
            checked += 1
            if p.grad is not None:
                assert np.max(np.abs(p.grad)) < 1e-3, name
        assert checked > 0

    def test_default_alpha_propagates_gradients(self):
        model = build(TINY, seed=0)
        ds = _dataset(8)
        loss = cross_entropy(model.forward(ds.x), ds.y)
        loss.backward()
        touched = sum(
            1 for _, p in model.named_parameters()
            if p.grad is not None and np.abs(p.grad).max() > 0
        )
        assert touched > 10


def test_training_step_tape_freed_without_gc():
    """The tape holds no reference cycle, so refcounting alone frees it."""
    model = build(TINY, seed=0)
    ds = _dataset(8)
    gc.disable()
    try:
        logits = model.forward(ds.x)
        cross_entropy(logits, ds.y).backward()
        ref = weakref.ref(logits)
        del logits
        alive = ref() is not None
    finally:
        gc.enable()
    assert not alive


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = build(TINY, seed=0)
        train(model, _dataset(16), dataclasses.replace(FAST, epochs=1))
        path = tmp_path / "model.spkf"
        save_checkpoint(model, path)
        restored = load_checkpoint(path, TINY)
        model.eval()
        restored.eval()
        x = rng.uniform(0, 1, (2, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(model.forward(x).data, restored.forward(x).data)

    def test_header_layout(self, tmp_path):
        model = build(TINY, seed=0)
        path = tmp_path / "model.spkf"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        assert blob[:4] == b"SPKF"
        version = int.from_bytes(blob[4:8], "little")
        count = int.from_bytes(blob[8:12], "little")
        assert version == 1 and count == len(model.state())

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spkf"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path):
        model = build(TINY, seed=0)
        path = tmp_path / "model.spkf"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(path)

    def test_rejects_wrong_version(self, tmp_path):
        model = build(TINY, seed=0)
        path = tmp_path / "model.spkf"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            read_checkpoint(path)

    def test_state_keys_preserved(self, tmp_path):
        model = build(TINY, seed=0)
        path = tmp_path / "model.spkf"
        save_checkpoint(model, path)
        assert set(read_checkpoint(path)) == set(model.state())
