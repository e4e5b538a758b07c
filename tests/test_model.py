"""Whole-model assembly: parameter counts, forward semantics, residual styles."""

import dataclasses
import weakref

import numpy as np
import pytest

from spikingformer import layers
from spikingformer import tensor as T
from spikingformer import train as train_mod
from spikingformer.audit import record
from spikingformer.layers import (
    ADD,
    HEAD_AVGPOOL_FC,
    HEAD_FC_AVGPOOL,
    HEAD_SN_AVGPOOL_FC,
    HEAD_VARIANTS,
    SN,
    SPIKE_DRIVEN,
    BatchNorm,
)
from spikingformer.model import (
    Model,
    ModelConfig,
    PRESETS,
    PUBLISHED_PARAM_COUNTS_M,
    build,
    max_convbn_input,
    preset_config,
)
from spikingformer.tensor import Tensor, no_grad
from spikingformer.train import cross_entropy, load_checkpoint, save_checkpoint

from helpers import _owner, closure_arrays, tape_arrays, tape_bytes, tape_nodes

TINY = ModelConfig(blocks=1, embed_dim=8, heads=2, timesteps=2, num_classes=4,
                   image_size=(8, 8), tokenizer_plan=("spe", "sped", "sped"))


def _batch(rng, b=2, cfg=TINY):
    c = cfg.in_channels
    h, w = cfg.image_size
    return rng.uniform(0, 1, (b, c, h, w)).astype(np.float32)


class TestParameterCounts:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_PARAM_COUNTS_M))
    def test_published_counts_within_two_percent(self, name):
        model = build(preset_config(name), seed=0)
        actual_m = model.param_count() / 1e6
        published = PUBLISHED_PARAM_COUNTS_M[name]
        rel = abs(actual_m - published) / published
        assert rel <= 0.02, f"{name}: {actual_m:.3f}M vs {published}M ({rel:.2%})"

    def test_count_matches_state_parameters(self):
        model = build(TINY, seed=1)
        total = sum(p.size for _, p in model.named_parameters())
        assert model.param_count() == total

    def test_more_blocks_more_parameters(self):
        small = build(TINY, seed=0).param_count()
        import dataclasses

        big = build(dataclasses.replace(TINY, blocks=2), seed=0).param_count()
        assert big > small


class TestConfigValidation:
    def test_indivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(blocks=1, embed_dim=8, heads=3, timesteps=1, num_classes=2)

    def test_bad_image_size(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(blocks=1, embed_dim=8, heads=2, timesteps=1, num_classes=2,
                        image_size=(30, 30))

    @pytest.mark.parametrize("scale", [0.0, -0.125, float("nan")])
    def test_scale_must_be_positive(self, scale):
        with pytest.raises(ValueError, match="scale must be > 0"):
            ModelConfig(blocks=1, embed_dim=8, heads=2, timesteps=1, num_classes=2, scale=scale)

    @pytest.mark.parametrize("key,value", [
        ("blocks", 0), ("embed_dim", 0), ("heads", 0), ("heads", -2), ("timesteps", 0),
        ("num_classes", 0), ("in_channels", 0), ("image_size", (0, 8)),
        ("image_size", (8, -1)), ("mlp_ratio", 0), ("tokenizer_plan", ()),
    ])
    def test_counts_must_be_positive(self, key, value):
        import dataclasses

        with pytest.raises(ValueError, match=key):
            dataclasses.replace(TINY, **{key: value})

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("spikingformer-99-1")

    def test_preset_overrides(self):
        cfg = preset_config("spikingformer-4-384", timesteps=2, num_classes=7)
        assert cfg.timesteps == 2 and cfg.num_classes == 7 and cfg.embed_dim == 384


class TestForward:
    def test_static_input_shape(self, rng):
        model = build(TINY, seed=0)
        logits = model.forward(_batch(rng))
        assert logits.shape == (2, 4)
        assert np.all(np.isfinite(logits.data))

    def test_static_equals_repeated_events(self, rng):
        model = build(TINY, seed=0)
        model.eval()
        x = _batch(rng)
        events = np.broadcast_to(x, (TINY.timesteps,) + x.shape).copy()
        a = model.forward(x).data
        b = model.forward(Tensor(events)).data
        np.testing.assert_array_equal(a, b)

    def test_event_timestep_mismatch(self, rng):
        model = build(TINY, seed=0)
        x = _batch(rng)
        events = np.broadcast_to(x, (3,) + x.shape).copy()
        with pytest.raises(ValueError, match="T=3"):
            model.forward(Tensor(events))

    def test_bad_geometry(self, rng):
        model = build(TINY, seed=0)
        with pytest.raises(ValueError, match="geometry"):
            model.forward(rng.uniform(0, 1, (2, 3, 16, 16)).astype(np.float32))

    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    @pytest.mark.parametrize("shape", [(0, 3, 8, 8), (2, 0, 3, 8, 8)], ids=["static", "events"])
    def test_empty_batch_rejected(self, fused, shape):
        model = build(TINY, seed=0)
        model.eval()
        if fused:
            model.fuse()
        with pytest.raises(ValueError, match="holds no image"):
            model.forward(np.zeros(shape, dtype=np.float32))

    def test_samples_independent_within_batch(self, rng):
        model = build(TINY, seed=0)
        model.eval()
        x = _batch(rng, b=3)
        full = model.forward(x).data
        solo = model.forward(x[1:2]).data
        np.testing.assert_allclose(full[1:2], solo, atol=1e-5)

    def test_zero_model_outputs_head_bias(self):
        model = build(TINY, seed=0)
        model.eval()
        for _, p in model.named_parameters():
            p.data[:] = 0.0
        model.head.bias.data = np.array([1.0, -2.0, 0.5, 0.0], dtype=np.float32)
        logits = model.forward(np.zeros((2, 3, 8, 8), dtype=np.float32)).data
        np.testing.assert_allclose(logits, np.tile(model.head.bias.data, (2, 1)), atol=1e-6)

    def test_forward_deterministic(self, rng):
        model = build(TINY, seed=0)
        model.eval()
        x = _batch(rng)
        np.testing.assert_array_equal(model.forward(x).data, model.forward(x).data)


class TestStateRegistry:
    def test_round_trip_bit_exact(self, rng):
        a = build(TINY, seed=0)
        b = build(TINY, seed=123)
        b.load_state(a.state())
        a.eval()
        b.eval()
        x = _batch(rng)
        np.testing.assert_array_equal(a.forward(x).data, b.forward(x).data)

    def test_load_rejects_missing_key(self):
        model = build(TINY, seed=0)
        state = model.state()
        state.pop(sorted(state)[0])
        with pytest.raises(ValueError, match="missing"):
            model.load_state(state)

    def test_load_rejects_extra_key(self):
        model = build(TINY, seed=0)
        state = model.state()
        state["nonexistent.weight"] = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError, match="extra"):
            model.load_state(state)

    def test_load_rejects_shape_mismatch(self):
        model = build(TINY, seed=0)
        state = model.state()
        key = next(iter(state))
        state[key] = np.zeros(state[key].shape + (2,), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            model.load_state(state)

    def test_state_includes_bn_statistics(self):
        model = build(TINY, seed=0)
        assert any(name.endswith("running_mean") for name in model.state())

    def test_seeded_builds_identical(self, rng):
        a, b = build(TINY, seed=42), build(TINY, seed=42)
        a.eval()
        b.eval()
        x = _batch(rng)
        np.testing.assert_array_equal(a.forward(x).data, b.forward(x).data)


def _saturate(model):
    """Force every neuron to fire: zero convs, BN = constant 10."""
    for name, p in model.named_parameters():
        if name.endswith("gamma") or "weight" in name:
            p.data[:] = 0.0
        elif name.endswith("beta"):
            p.data[:] = 10.0
    model.eval()


class TestActivationRangeGrowth:
    def test_spike_driven_convbn_inputs_stay_binary(self, rng):
        model = build(TINY, seed=0)
        _saturate(model)
        peaks = max_convbn_input(model, _batch(rng))
        assert peaks and max(peaks.values()) <= 1

    def test_add_style_inputs_grow_with_depth(self, rng):
        import dataclasses

        for blocks in (1, 2, 4):
            cfg = dataclasses.replace(TINY, blocks=blocks, residual_style=ADD)
            model = build(cfg, seed=0)
            _saturate(model)
            peaks = max_convbn_input(model, _batch(rng))
            assert max(peaks.values()) == 2 * blocks


class TestRecorderChannel:
    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_max_convbn_input_covers_the_audited_convbns(self, rng, style):
        import dataclasses

        model = build(dataclasses.replace(TINY, blocks=2, residual_style=style), seed=0)
        _saturate(model)
        x = _batch(rng)
        peaks = max_convbn_input(model, x)
        layers = record(model, x).layers
        assert list(peaks) == list(layers)  # no attention matmul, no encoder conv
        assert peaks == {name: max(info["histogram"]) for name, info in layers.items()}
        assert max(peaks.values()) == (4 if style == ADD else 1)

    def test_every_module_carries_its_path(self, tmp_path):
        def assert_named(model):
            for path, module in model.named_modules():
                assert module.name == path, (path, module.name)

        model = build(TINY, seed=0)
        assert_named(model)
        path = tmp_path / "model.spkf"
        save_checkpoint(model, path)
        assert_named(load_checkpoint(path, TINY))
        model.fuse()
        assert_named(model)
        save_checkpoint(model, path)
        assert_named(load_checkpoint(path, TINY))


class TestFusedModel:
    def test_fused_forward_matches(self, rng):
        model = build(TINY, seed=0)
        model.train()
        # run a few batches so BN statistics are non-trivial
        for _ in range(3):
            model.forward(_batch(rng, b=4))
        model.eval()
        x = _batch(rng)
        before = model.forward(x).data
        model.fuse()
        after = model.forward(x).data
        assert np.max(np.abs(before - after)) <= 1e-4

    def test_fuse_is_idempotent(self, rng):
        model = build(TINY, seed=0)
        model.eval()
        model.fuse()
        x = _batch(rng)
        before = model.forward(x).data
        model.fuse()
        np.testing.assert_array_equal(model.forward(x).data, before)

    def test_fuse_freezes_every_parameter(self):
        model = build(TINY, seed=0)
        model.fuse()
        assert model.fused
        params = dict(model.named_parameters())
        assert "head.weight" in params and "head.bias" in params
        assert not [name for name, p in params.items() if p.requires_grad]

    def test_fused_forward_records_no_tape(self, rng, monkeypatch):
        model = build(TINY, seed=0)
        model.eval()
        model.fuse()
        tracked = []
        init = T._Node.__init__

        def spy(self, *args, **kwargs):  # any tape node
            init(self, *args, **kwargs)
            tracked.append(self)

        monkeypatch.setattr(T._Node, "__init__", spy)
        logits = model.forward(_batch(rng))
        assert logits._node is None
        assert tracked == []

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_fused_logits_bit_equal_to_no_grad_and_tape(self, style, monkeypatch):
        import dataclasses

        cfg = dataclasses.replace(TINY, residual_style=style)
        model = build(cfg, seed=0)
        rng = np.random.default_rng(1)
        # BN calibrated from one train-mode batch with momentum 1
        for bn in model.modules():
            if isinstance(bn, BatchNorm):
                bn.momentum = 1.0
        model.train()
        model.forward(_batch(rng, b=4))
        model.eval()
        model.fuse()
        x = _batch(rng, b=4)
        fused = model.forward(x)
        with no_grad():
            untracked = model.forward(x).data
        for p in model.parameters():
            p.requires_grad = True
        compacted = []  # per recorded conv2d call: enough silent images to skip them

        def spy(x, kernel):
            y = T.conv2d(x, kernel)
            if y._node is not None:
                silent = np.count_nonzero(~x.data.any(axis=(1, 2, 3)))
                compacted.append(silent >= T._SILENT_ROW_SHARE * len(x.data))
            return y

        monkeypatch.setattr(layers, "conv2d", spy)
        taped = model.forward(x)
        assert taped._node is not None and fused._node is None
        assert any(compacted)  # the tape's event-driven path is compared below
        np.testing.assert_array_equal(fused.data, untracked)
        np.testing.assert_array_equal(fused.data, taped.data)

    def test_momentum_one_calibrates_only_its_own_bn(self, rng):
        # the calibration idiom: momentum 1 on one instance adopts one batch's
        # statistics and leaves the class constant and every other BN at 0.1
        model = build(TINY, seed=0)
        bns = [m for m in model.modules() if isinstance(m, BatchNorm)]
        target = bns[len(bns) // 2]
        seen = []

        def capture(y):
            seen.append(y.data.copy())
            return BatchNorm.forward(target, y)

        target.forward, saved = capture, target.momentum
        target.momentum = 1.0
        model.train()
        model.forward(_batch(rng, b=4))
        others = [bn.momentum for bn in bns if bn is not target]
        del target.forward
        target.momentum = saved
        (y,) = seen
        axes = tuple(range(y.ndim - 1))
        np.testing.assert_allclose(target._buffers["running_mean"], y.mean(axis=axes),
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(target._buffers["running_var"], y.var(axis=axes),
                                   rtol=1e-5, atol=1e-6)
        assert others == [0.1] * (len(bns) - 1) and target.momentum == 0.1
        assert BatchNorm.momentum == 0.1

    def test_unfused_eval_model_stays_trainable(self, rng):
        model = build(TINY, seed=0)
        model.eval()
        assert all(p.requires_grad for p in model.parameters())
        assert model.forward(_batch(rng))._node.parents


DESK = ModelConfig(blocks=2, embed_dim=64, heads=8, timesteps=2, num_classes=4,
                   image_size=(8, 8), tokenizer_plan=("spe", "sped", "sped"))


class TestSpikesOnTheTape:
    """A recorded float32 forward keeps every spike at one byte: each SN
    output, each maxpool of spikes and the input map of each conv with a
    spike input are bool (a float64 model spikes in float64). Arrays are
    picked by the op that produced them, not by their values (an ADD
    residual sum can hold only 0 and 1 by chance)."""

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_spike_arrays_are_bool(self, rng, style, training, monkeypatch):
        cfg = dataclasses.replace(DESK, residual_style=style, head_variant=HEAD_SN_AVGPOOL_FC)
        model = build(cfg, seed=0)
        if not training:
            model.eval()
        products = []  # every matmul output: no backward reads one, so none is on the tape
        matmul = Tensor.matmul

        def spy(a, b):
            out = matmul(a, b)
            products.append(out.data)
            return out

        monkeypatch.setattr(Tensor, "matmul", spy)
        monkeypatch.setattr(Tensor, "__matmul__", spy)
        logits = model.forward(_batch(rng, b=4, cfg=cfg))
        monkeypatch.undo()
        arrays = tape_arrays(logits, model.parameters())
        by_op = {}
        for label, arr in arrays:
            by_op.setdefault(label, []).append(arr)
        sns = sum(isinstance(m, SN) for m in model.modules())  # each one runs once
        assert len(by_op["multistep_lif.spikes"]) == sns
        assert all(a.dtype == bool for a in by_op["multistep_lif.spikes"])
        pools = sum(kind == "sped" for kind in cfg.tokenizer_plan)
        assert len(by_op["maxpool2d.y"]) == pools
        assert all(a.dtype == bool for a in by_op["maxpool2d.y"])
        # one conv per tokenizer unit, each keeping its input map; only the
        # first (the encoder) sees the image, and the others' spike maps are
        # on the tape already as SN or maxpool outputs
        encoder, *spiking = [dict(closure_arrays(node.backward))["xd"]
                             for node in tape_nodes(logits)
                             if node.backward.__qualname__.startswith("conv2d")]
        assert len(spiking) == len(cfg.tokenizer_plan) and encoder.dtype == np.float32
        assert all(a.dtype == bool for a in spiking)
        spike_ids = {id(a) for a in by_op["multistep_lif.spikes"] + by_op["maxpool2d.y"]}
        assert all(id(_owner(a)) in spike_ids for a in spiking)
        assert [label for label, _ in arrays if label.startswith("conv2d")] == ["conv2d.xd"]
        # every number computed from the spikes is float
        assert products and {a.dtype for a in products} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_attention_counts_bool_q_and_k(self, rng, style):
        """Each block's Q K^T multiplies the SN outputs themselves: both operands
        are views of a bool spike buffer, with no float copy of Q between."""
        cfg = dataclasses.replace(DESK, residual_style=style)
        model = build(cfg, seed=0)
        logits = model.forward(_batch(rng, b=4, cfg=cfg))
        spikes = {id(a) for label, a in tape_arrays(logits, model.parameters())
                  if label == "multistep_lif.spikes"}
        qk = []  # the operands each matmul node keeps for its backward
        for node in tape_nodes(logits):
            if node.backward.__qualname__.startswith("Tensor.matmul"):
                operands = dict(closure_arrays(node.backward))
                if all(operands[name].dtype == bool for name in "ab"):
                    qk.append((operands["a"], operands["b"]))
        assert len(qk) == cfg.blocks
        for operands in qk:
            assert all(id(_owner(a)) in spikes for a in operands)

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_float64_model_spikes_in_float64(self, rng, style):
        cfg = dataclasses.replace(DESK, residual_style=style, head_variant=HEAD_SN_AVGPOOL_FC)
        model = build(cfg, seed=0).astype(np.float64)
        arrays = tape_arrays(model.forward(_batch(rng, b=4, cfg=cfg)), model.parameters())
        assert all(a.dtype != bool for _, a in arrays)
        outs = [a for label, a in arrays if label == "multistep_lif.spikes"]
        assert len(outs) == sum(isinstance(m, SN) for m in model.modules())
        for a in outs:
            assert a.dtype == np.float64 and np.all((a == 0) | (a == 1))


class TestTapeKeepsWhatBackwardReads:
    """A recorded float32 forward keeps only the arrays a backward reads: no
    token-GEMM, conv2d or BN output and no LIF input is on its tape
    (attention's middle product is: Q K^T, or K^T V when d_head < N, as the
    operand the other product's gradient reads). The backward sweep frees
    each node as it passes, while every parameter keeps its gradient."""

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_unread_outputs_are_not_on_the_tape(self, rng, style, monkeypatch):
        cfg = dataclasses.replace(DESK, residual_style=style)
        model = build(cfg, seed=0)
        unread = []  # (op, owner array): held, so their ids stay unique

        def spy(owner, attr, op, pick):
            fn = getattr(owner, attr)

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                arr = pick(args, out)
                if arr is not None:
                    unread.append((op, _owner(arr)))
                return out

            monkeypatch.setattr(owner, attr, wrapped)

        def token_gemm(args, out):  # a matmul by a weight, not attention's Q K^T V
            return out.data if args[1].ndim == 2 else None

        spy(Tensor, "matmul", "token GEMM", token_gemm)
        spy(Tensor, "__matmul__", "token GEMM", token_gemm)
        spy(layers, "conv2d", "conv2d", lambda args, out: out.data)
        spy(BatchNorm, "forward", "BatchNorm.forward", lambda args, out: out.data)
        spy(layers, "multistep_lif", "LIF input", lambda args, out: args[0].data)
        logits = model.forward(_batch(rng, b=4, cfg=cfg))
        monkeypatch.undo()
        assert {op for op, _ in unread} == {"token GEMM", "conv2d", "BatchNorm.forward", "LIF input"}
        tape = {id(arr) for _, arr in tape_arrays(logits, model.parameters())}
        assert [op for op, arr in unread if id(arr) in tape] == []

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_backward_frees_the_tape(self, rng, style):
        cfg = dataclasses.replace(DESK, residual_style=style, head_variant=HEAD_SN_AVGPOOL_FC)
        model = build(cfg, seed=0)
        labels = rng.integers(0, cfg.num_classes, 4)
        loss = cross_entropy(model.forward(_batch(rng, b=4, cfg=cfg)), labels)
        hs = [weakref.ref(_owner(arr)) for node in tape_nodes(loss)
              if node.backward.__qualname__.startswith("multistep_lif")
              for name, arr in closure_arrays(node.backward) if name == "hs"]
        assert len(hs) == sum(isinstance(m, SN) for m in model.modules())
        assert all(ref() is not None for ref in hs)
        loss.backward()
        assert all(ref() is None for ref in hs)
        assert all(p.grad is not None for p in model.parameters())

    def test_parameters_keep_their_gradient_and_get_no_node(self, rng):
        # only recorded ops have tape nodes: a leaf keeps its gradient itself
        model = build(DESK, seed=0)
        labels = rng.integers(0, DESK.num_classes, 4)
        loss = cross_entropy(model.forward(_batch(rng, b=4, cfg=DESK)), labels)
        loss.backward()
        for p in model.parameters():
            assert p._node is None
            assert p.grad is not None and p.grad.shape == p.data.shape


class TestSpikeCostTape:
    """When d_head < N (the desk model at 16x16: N = 16, d_head = 8), a
    recorded forward keeps no float copy or patch rows of a spike map: each
    conv keeps its input map (only the encoder's, the image, is not on the
    tape already), and attention keeps its [d, d] K^T V, not an [N, N]
    Q K^T."""

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_no_patch_rows_and_no_qk(self, rng, style):
        cfg = dataclasses.replace(DESK, residual_style=style, image_size=(16, 16))
        model = build(cfg, seed=0)
        x = _batch(rng, b=4, cfg=cfg)
        logits = model.forward(x)
        heads, n, d_head = cfg.heads, 16, cfg.embed_dim // cfg.heads
        arrays = tape_arrays(logits, model.parameters())
        assert not [label for label, a in arrays
                    if a.dtype != bool and a.shape[-3:] == (heads, n, n)]
        kv = [a for _, a in arrays if a.shape[-3:] == (heads, d_head, d_head)]
        assert len(kv) == cfg.blocks and all(a.dtype == np.float32 for a in kv)
        # patch rows are [B*H*W, 9*C] for a conv with C input channels
        widths = {9 * conv.weight.shape[2] for conv in model.modules()
                  if isinstance(conv, layers.ConvBN2d) and not conv.tokens}
        assert not [label for label, a in arrays if a.ndim == 2 and a.shape[1] in widths]
        mib = tape_bytes(logits, model.parameters())
        image = x.nbytes * cfg.timesteps / 2**20  # repeated over T at the input
        assert [label for label in mib if label.startswith("conv2d")] == ["conv2d.xd"]
        assert mib["conv2d.xd"] == image


class TestFloatSpikesDifferential:
    """A whole model computes the same numbers from bool spikes as from their
    float32 0/1 copies: with every spiking-mode SN output replaced by
    ``out * 1.0`` (a float32 node whose backward passes the gradient through
    exactly), logits and every parameter gradient are bit-equal. This covers
    the three places where spikes meet only spikes: attention's Q K^T, the SN
    head's pool and the ADD residual that starts from the tokenizer's spikes."""

    @staticmethod
    def _run(cfg, training, x):
        model = build(cfg, seed=0)
        if not training:
            model.eval()
        logits = model.forward(x)
        cross_entropy(logits, np.array([0, 1, 2, 3])).backward()
        return logits.data, {name: p.grad for name, p in model.named_parameters()}

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    @pytest.mark.parametrize("head", HEAD_VARIANTS)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_bool_spikes_bit_equal_to_float32_copies(self, rng, monkeypatch, style, head,
                                                    training):
        cfg = dataclasses.replace(DESK, residual_style=style, head_variant=head)
        x = _batch(rng, b=4, cfg=cfg)
        logits, grads = self._run(cfg, training, x)
        lif, copies = layers.multistep_lif, []

        def float_spikes(*args, **kwargs):
            out = lif(*args, **kwargs)
            if out.data.dtype != bool:
                return out
            copies.append(out)
            return out * np.float32(1.0)

        monkeypatch.setattr(layers, "multistep_lif", float_spikes)
        ref_logits, ref_grads = self._run(cfg, training, x)
        sns = sum(isinstance(m, SN) for m in build(cfg, seed=0).modules())
        assert len(copies) == sns - (head in (HEAD_AVGPOOL_FC, HEAD_FC_AVGPOOL))  # an unused SN
        assert logits.dtype == ref_logits.dtype == np.float32
        assert logits.tobytes() == ref_logits.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.dtype == ref_grads[name].dtype == np.float32, name
            assert g.tobytes() == ref_grads[name].tobytes(), name


class TestDtype:
    """Tensors keep their operands' dtype: a float32 model never promotes,
    and a model cast to float64 stays float64. A float32 model's spikes are
    bool; a float64 model's are float64 0/1, so it holds no other dtype."""

    @staticmethod
    def _spy_make(monkeypatch):
        """Record the dtype of every op result, in every module that binds _make."""
        from spikingformer import neuron

        make, seen = T._make, []

        def spy(data, parents, backward):
            out = make(data, parents, backward)
            seen.append(out.data.dtype)
            return out

        for module in (T, layers, neuron):
            monkeypatch.setattr(module, "_make", spy)
        return seen

    def test_cast_after_a_recorded_step_takes_the_new_dtype(self, rng):
        # a parameter keeps its gradient itself, shaped and typed by its current data
        model = build(DESK, seed=0)
        x = _batch(rng, cfg=DESK)
        model.forward(x).sum().backward()
        model.astype(np.float64)
        for p in model.parameters():
            p.grad = None
        model.forward(x).sum().backward()
        assert {p.grad.dtype for p in model.parameters()} == {np.dtype(np.float64)}

    def test_float32_train_step_and_forwards(self, rng, monkeypatch):
        from spikingformer.data import synth_static

        seen = self._spy_make(monkeypatch)
        model = build(DESK, seed=0)
        train_mod.train(model, synth_static(4, 64, seed=0),
                        train_mod.TrainConfig(epochs=1, batch_size=64))
        grads = {name: p.grad.dtype for name, p in model.named_parameters()}
        assert set(grads.values()) == {np.dtype(np.float32)}, grads
        model.eval()
        unfused = model.forward(_batch(rng, cfg=DESK))
        model.fuse()
        fused = model.forward(_batch(rng, cfg=DESK))
        assert unfused.data.dtype == fused.data.dtype == np.float32
        assert len(seen) > 100 and set(seen) == {np.dtype(np.float32), np.dtype(bool)}

    # ADD residuals start from the tokenizer's spikes; the SN head averages spikes
    @pytest.mark.parametrize("style,head", [(SPIKE_DRIVEN, "avgpool-fc"),
                                            (ADD, HEAD_SN_AVGPOOL_FC)])
    def test_float64_model_stays_float64(self, rng, monkeypatch, style, head):
        from spikingformer.train import cross_entropy

        cfg = dataclasses.replace(TINY, residual_style=style, head_variant=head)
        model = build(cfg, seed=0).astype(np.float64)
        assert {a.dtype for a in model.state().values()} == {np.dtype(np.float64)}
        seen = self._spy_make(monkeypatch)
        logits = model.forward(_batch(rng))  # a float32 batch is cast to the model's dtype
        cross_entropy(logits, np.array([0, 3])).backward()
        assert logits.data.dtype == np.float64
        assert {p.grad.dtype for p in model.parameters()} == {np.dtype(np.float64)}
        other = build(cfg, seed=1).astype(np.float64)
        other.load_state(model.state())
        for name, arr in other.state().items():
            assert arr.dtype == np.float64 and arr.tobytes() == model.state()[name].tobytes()
        model.eval()
        model.fuse()
        assert {a.dtype for a in model.state().values()} == {np.dtype(np.float64)}
        assert model.forward(_batch(rng)).data.dtype == np.float64
        assert set(seen) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("model_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("as_tensor", [False, True])
    @pytest.mark.parametrize("events", [False, True])
    def test_input_cast_to_model_dtype(self, rng, model_dtype, as_tensor, events):
        model = build(TINY, seed=0).astype(model_dtype)
        x = rng.uniform(0, 1, ((TINY.timesteps,) if events else ()) + (2, 3, 8, 8))
        x = (x < 0.5) if events else x  # float64 frames or boolean events
        logits = model.forward(Tensor(x, dtype=np.float64) if as_tensor else x)
        assert logits.data.dtype == model_dtype

    @pytest.mark.parametrize("dtype", [np.int64, np.float16])
    def test_astype_rejects_other_dtypes(self, dtype):
        model = build(TINY, seed=0)
        with pytest.raises(ValueError, match="unsupported dtype"):
            model.astype(dtype)
        assert {a.dtype for a in model.state().values()} == {np.dtype(np.float32)}

    def test_astype_round_trip_returns_module(self, rng):
        model = build(TINY, seed=0)
        before = model.state()
        assert model.astype(np.float64).astype(np.float32) is model
        for name, arr in model.state().items():
            assert arr.dtype == np.float32 and arr.tobytes() == before[name].tobytes()
