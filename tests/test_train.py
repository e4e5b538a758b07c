"""Training loop, optimizer, checkpoints."""

import dataclasses
import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from spikingformer.data import synth_static
from spikingformer.layers import ConvBN2d, Parameter
from spikingformer.model import ModelConfig, build
from spikingformer.tensor import Tensor, no_grad
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

from helpers import write_v1_checkpoint

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

    @staticmethod
    def _out_of_place_steps(params, grads, cfg, lrs):
        """The reference update: AdamW's formula, one new array per operation."""
        from spikingformer.train import ADAM_EPS, BETA1, BETA2

        data = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        for t, (step_grads, lr) in enumerate(zip(grads, lrs), start=1):
            bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
            for i, g in enumerate(step_grads):
                g = g if g is not None else np.zeros_like(data[i])
                m[i] = BETA1 * m[i] + (1 - BETA1) * g
                v[i] = BETA2 * v[i] + (1 - BETA2) * g * g
                mhat, vhat = m[i] / bc1, v[i] / bc2
                data[i] = data[i] - lr * (mhat / (np.sqrt(vhat) + ADAM_EPS)
                                          + cfg.weight_decay * data[i])
        return data, m, v

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_bit_equal_to_out_of_place(self, dtype):
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (5,), (2, 2, 3)]
        init = [rng.standard_normal(s).astype(dtype) for s in shapes]
        # the last parameter never receives a gradient
        grads = [[rng.standard_normal(s).astype(dtype) for s in shapes[:-1]] + [None]
                 for _ in range(5)]
        lrs = [5e-4 * (0.5 + 0.1 * t) for t in range(5)]
        cfg = TrainConfig(epochs=1)
        params = [Tensor(a.copy(), requires_grad=True, dtype=dtype) for a in init]
        arrays = [p.data for p in params]
        opt = AdamW(params, cfg)
        for step_grads, lr in zip(grads, lrs):
            for p, g in zip(params, step_grads):
                p.grad = g
            opt.step(lr)
        data, m, v = self._out_of_place_steps(init, grads, cfg, lrs)
        for p, arr, want, got_m, want_m, got_v, want_v in zip(params, arrays, data,
                                                             opt.m, m, opt.v, v):
            assert p.data is arr  # updated in place
            for got, ref in ((p.data, want), (got_m, want_m), (got_v, want_v)):
                assert got.dtype == ref.dtype == dtype and got.tobytes() == ref.tobytes()
        assert not np.array_equal(params[-1].data, init[-1])  # weight decay alone

    def test_zero_grad_clears(self):
        p = self._param(1.0)
        p.grad = np.array([1.0])
        opt = AdamW([p], TrainConfig(epochs=1))
        opt.zero_grad()
        assert p.grad is None


class TestTrainLoop:
    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_non_positive_counts_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            dataclasses.replace(FAST, **{field: 0})

    @pytest.mark.parametrize("lr", [-1e-3, float("nan")])
    def test_invalid_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be >= 0"):
            dataclasses.replace(FAST, lr=lr)

    @pytest.mark.parametrize("weight_decay", [-3.0, float("nan")])
    def test_invalid_weight_decay_rejected(self, weight_decay):
        with pytest.raises(ValueError, match="weight_decay must be >= 0"):
            dataclasses.replace(FAST, weight_decay=weight_decay)

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

    def test_fused_model_rejected(self):
        model = build(TINY, seed=0)
        model.eval()
        model.fuse()
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        with pytest.raises(ValueError, match="fused and inference-only"):
            train(model, _dataset(16), FAST)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])
            assert p.grad is None

    def test_evaluate_bounds(self):
        model = build(TINY, seed=0)
        acc = evaluate(model, _dataset(16))
        assert 0.0 <= acc <= 1.0

    def test_evaluate_restores_training_mode(self):
        model = build(TINY, seed=0)
        train(model, _dataset(16), dataclasses.replace(FAST, epochs=1))
        stats = {name: buf.copy() for name, buf in model.named_buffers()}
        acc = evaluate(model, _dataset(16, seed=1))
        assert all(m.training for m in model.modules())
        model.eval()
        assert evaluate(model, _dataset(16, seed=1)) == acc
        assert not any(m.training for m in model.modules())
        for name, buf in model.named_buffers():
            np.testing.assert_array_equal(buf, stats[name])

    def test_evaluate_records_no_tape(self, monkeypatch):
        model = build(TINY, seed=0)
        forward, outputs = model.forward, []
        monkeypatch.setattr(model, "forward", lambda x: outputs.append(forward(x)) or outputs[-1])
        evaluate(model, _dataset(16), batch_size=8)
        assert len(outputs) == 2 and all(out._node is None for out in outputs)

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
        assert version == 2 and count == len(model.state())

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

    def _small_checkpoint(self, tmp_path):
        state = {"a": np.float32(1.5), "b.weight": np.arange(3, dtype=np.float32),
                 "c": np.ones((2, 2), dtype=np.float32)}
        path = tmp_path / "small.spkf"
        save_checkpoint(SimpleNamespace(state=lambda: state), path)
        assert set(read_checkpoint(path)) == set(state)
        return path, path.read_bytes()

    def test_every_truncation_raises_value_error(self, tmp_path):
        path, blob = self._small_checkpoint(tmp_path)
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                read_checkpoint(path)

    def test_byte_flips_raise_only_value_error(self, tmp_path):
        # a flipped byte either still parses (payload, or a name that stays
        # valid) or raises ValueError: never struct.error or MemoryError
        path, blob = self._small_checkpoint(tmp_path)
        for i in range(len(blob)):
            path.write_bytes(blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:])
            try:
                read_checkpoint(path)
            except ValueError:
                pass

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.spkf"
        save_checkpoint(build(TINY, seed=0), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            read_checkpoint(path)

    def test_rejects_duplicate_names(self, tmp_path):
        path = tmp_path / "dup.spkf"
        save_checkpoint(SimpleNamespace(state=lambda: {"a": np.zeros(2, np.float32)}), path)
        blob = bytearray(path.read_bytes())
        record = blob[12:]
        blob[8:12] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob + record))
        with pytest.raises(ValueError, match="duplicate tensor name 'a'"):
            read_checkpoint(path)

    def _small_v1_checkpoint(self, tmp_path):
        state = {"a": np.float32(1.5), "k": np.arange(12, dtype=np.float32).reshape(1, 1, 3, 4),
                 "c": np.ones((2, 2), dtype=np.float32)}
        path = tmp_path / "small-v1.spkf"
        write_v1_checkpoint(state, path)
        assert read_checkpoint(path)["k"].shape == (1, 1, 3, 4)
        return path, path.read_bytes()

    def test_version_1_truncations_and_byte_flips_raise_only_value_error(self, tmp_path):
        path, blob = self._small_v1_checkpoint(tmp_path)
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                read_checkpoint(path)
        for i in range(len(blob)):
            path.write_bytes(blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:])
            try:
                read_checkpoint(path)
            except ValueError:
                pass

    def test_state_keys_preserved(self, tmp_path):
        model = build(TINY, seed=0)
        path = tmp_path / "model.spkf"
        save_checkpoint(model, path)
        assert set(read_checkpoint(path)) == set(model.state())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_payload(self, tmp_path, value):
        path, blob = self._small_checkpoint(tmp_path)
        # the last 4 bytes are the last float of "c", the last name in sorted order
        path.write_bytes(blob[:-4] + np.float32(value).tobytes())
        with pytest.raises(ValueError, match="tensor 'c' holds a non-finite value"):
            read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])  # 1e39 overflows float32
    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_save_refuses_non_finite_state_before_writing(self, tmp_path, value):
        state = {"a": np.zeros(2, np.float32), "b.weight": np.array([1.0, value])}
        path = tmp_path / "bad.spkf"
        with pytest.raises(ValueError, match="tensor 'b.weight' holds a non-finite value"):
            save_checkpoint(SimpleNamespace(state=lambda: state), path)
        assert not path.exists()


class TestFusedCheckpoint:
    def _fused(self):
        model = build(TINY, seed=0)
        model.train()
        model.forward(_dataset(8).x)  # non-trivial BN statistics
        model.eval()
        model.fuse()
        return model

    def test_state_holds_no_batchnorm(self):
        assert not [name for name in self._fused().state() if ".bn." in name]

    def test_every_convbn_has_kernel_and_bias(self):
        model = self._fused()
        convs = [m for m in model.modules() if isinstance(m, ConvBN2d)]
        assert len(convs) == len(TINY.tokenizer_plan) + 1 + 6 * TINY.blocks
        state = model.state()
        for conv in convs:
            assert conv.bn is None
            assert isinstance(conv.weight, Parameter) and isinstance(conv.bias, Parameter)
            assert state[f"{conv.name}.weight"] is conv.weight.data
            assert state[f"{conv.name}.bias"] is conv.bias.data

    def test_fused_file_is_smaller(self, tmp_path):
        model = build(TINY, seed=0)
        save_checkpoint(model, tmp_path / "unfused.spkf")
        model.fuse()
        save_checkpoint(model, tmp_path / "fused.spkf")
        assert (tmp_path / "fused.spkf").stat().st_size < (tmp_path / "unfused.spkf").stat().st_size

    def test_fused_file_loads_bit_equal(self, tmp_path):
        model = self._fused()
        path = tmp_path / "fused.spkf"
        save_checkpoint(model, path)
        x = _dataset(4, seed=2).x
        loaded = load_checkpoint(path, TINY)
        np.testing.assert_array_equal(loaded.forward(x).data, model.forward(x).data)

    def test_loaded_fused_model_is_frozen(self, tmp_path):
        path = tmp_path / "fused.spkf"
        save_checkpoint(self._fused(), path)
        loaded = load_checkpoint(path, TINY)
        assert loaded.fused
        assert not [name for name, p in loaded.named_parameters() if p.requires_grad]
        assert loaded.forward(_dataset(4, seed=2).x)._node is None


def _assert_gemm_kernels(model):
    """Every ConvBN kernel is C-contiguous and laid out as its GEMM operand:
    [kh, kw, in, out] spatial or [in, out] token-space, out channels last."""
    convs = [m for m in model.modules() if isinstance(m, ConvBN2d)]
    assert convs
    for conv in convs:
        w = conv.weight.data
        out = (conv.bias if conv.bn is None else conv.bn.gamma).size
        assert w.flags.c_contiguous, conv.name
        assert w.ndim == (2 if conv.tokens else 4) and w.shape[-1] == out, conv.name
        if not conv.tokens:
            assert w.shape[:2] == (3, 3), conv.name


class TestKernelLayout:
    """A strided kernel would make conv2d copy it on every call."""

    def _calibrated(self):
        model = build(TINY, seed=0)
        with no_grad():
            model.forward(_dataset(8).x)  # non-trivial BN statistics
        return model.eval()

    def test_after_build(self):
        _assert_gemm_kernels(build(TINY, seed=0))

    def test_after_fuse(self):
        model = self._calibrated()
        model.fuse()
        _assert_gemm_kernels(model)

    def test_after_astype(self):
        _assert_gemm_kernels(build(TINY, seed=0).astype(np.float64))

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_after_checkpoint_load(self, tmp_path, version, fused):
        model = self._calibrated()
        if fused:
            model.fuse()
        path = tmp_path / "model.spkf"
        if version == 1:
            write_v1_checkpoint(model.state(), path)
        else:
            save_checkpoint(model, path)
        loaded = load_checkpoint(path, TINY).eval()
        _assert_gemm_kernels(loaded)
        assert loaded.fused == fused
        x = _dataset(4, seed=2).x
        with no_grad():
            np.testing.assert_array_equal(loaded.forward(x).data, model.forward(x).data)
