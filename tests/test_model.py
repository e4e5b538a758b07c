"""Whole-model assembly: parameter counts, forward semantics, residual styles."""

import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikingformer import layers, neuron
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

from helpers import _owner, closure_arrays, node_arrays, tape_arrays, tape_bytes, tape_nodes

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

    # finite floats that float32, the model's dtype, cannot hold: beyond its
    # range, or nonzero and rounding to 0; one key per case
    @pytest.mark.parametrize("key,value", [
        ("scale", 1e-300), ("tau", 1e300), ("v_threshold", 1e300), ("v_reset", -1e300),
        ("alpha", 1e39),
    ])
    def test_float_float32_cannot_hold_is_refused(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite and, unless 0, nonzero "
                                             "in float32"):
            dataclasses.replace(TINY, **{key: value})

    @pytest.mark.parametrize("key,value", [
        ("scale", 1e-45), ("tau", 3.0e38), ("v_threshold", 1e-40), ("v_reset", -3.4e38),
        ("alpha", 3.0e38),
    ])
    def test_float_float32_holds_is_kept(self, key, value):
        assert getattr(dataclasses.replace(TINY, **{key: value}), key) == value

    # tiny configs: widths, heads, plans and image sizes drawn freely (their
    # mixes include ones a model cannot run), then at most one other field
    # set to a value it cannot run, the LIF values included
    _SHAPES = {
        "embed_dim": st.sampled_from([8, 4, 6, 12, 2]),
        "heads": st.sampled_from([2, 1, 3, 4]),
        "timesteps": st.sampled_from([2, 1]),
        "num_classes": st.sampled_from([4, 1]),
        "in_channels": st.sampled_from([3, 1]),
        "image_size": st.tuples(*[st.sampled_from([8, 4, 2, 6, 1])] * 2),
        "tokenizer_plan": st.lists(st.sampled_from(["spe", "sped"]), min_size=1,
                                   max_size=3).map(tuple),
        "head_variant": st.sampled_from(HEAD_VARIANTS),
        "residual_style": st.sampled_from([SPIKE_DRIVEN, ADD]),
        "tau": st.sampled_from([2.0, 1.0, 1.5]),
        "v_threshold": st.sampled_from([1.0, 0.5]),
        "v_reset": st.sampled_from([0.0, -0.5]),
    }
    _BAD = {
        "timesteps": [0], "mlp_ratio": [0], "scale": [0.0, float("nan"), 1e-300],
        "tokenizer_plan": [(), ("pool",), ("spe", "pool")],
        "head_variant": ["fc"], "residual_style": ["plain"],
        "tau": [0.5, float("nan"), float("inf"), 1e300], "v_threshold": [-0.5, 1e39],
        "v_reset": [1.0, -1e39], "alpha": [0.0, float("nan"), 1e300],
    }
    _TINY_FIELDS = {f.name: getattr(TINY, f.name) for f in dataclasses.fields(TINY)}

    @given(shape=st.fixed_dictionaries(_SHAPES),
           bad=st.none() | st.sampled_from([(k, v) for k, vs in _BAD.items() for v in vs]))
    @example(shape=_TINY_FIELDS, bad=("tau", 0.5))
    @example(shape=dict(_TINY_FIELDS, v_threshold=0.5), bad=("v_reset", 1.0))
    @example(shape=dict(_TINY_FIELDS, embed_dim=6, heads=3), bad=None)  # 3 units need 4 | 6
    @example(shape=dict(_TINY_FIELDS, tokenizer_plan=("spe", "pool", "sped")), bad=None)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_a_config_that_constructs_builds_and_runs(self, shape, bad):
        kwargs = dict(shape, blocks=1)
        kwargs.update([bad] if bad else [])
        try:
            cfg = ModelConfig(**kwargs)
        except ValueError:
            return
        with no_grad():
            logits = build(cfg).forward(np.zeros((1, cfg.in_channels) + cfg.image_size))
        assert logits.shape == (1, cfg.num_classes)

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

    def test_3d_input_rejected(self):
        model = build(TINY, seed=0)
        with pytest.raises(ValueError, match=r"expected 4D or 5D input, got shape \(3, 8, 8\)"):
            model.forward(np.zeros((3, 8, 8), dtype=np.float32))

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


def _packed_copies(monkeypatch):
    """Spy on ``SN.forward``: {id of each SN's packed tape copy: (its name,
    a copy of its bool spikes, the id of its input's owning array)}, filled as
    the model runs. The copy is the one array the SN output's rebuild reads."""
    sites = {}
    forward = SN.forward

    def spy(sn, x, t_steps):
        out = forward(sn, x, t_steps)
        (packed,) = [a for _, a in closure_arrays(out._node.remat)]
        sites[id(packed)] = (sn.name, out.data.copy(), id(_owner(x.data)))
        return out

    monkeypatch.setattr(SN, "forward", spy)
    return sites


def _is_op(node, op):
    return node.backward.__qualname__.startswith(op + ".")


def _held(node, leaves):
    """The owners of the arrays a node's backward reads, leaves' left out."""
    skip = {id(_owner(t.data)) for t in leaves}
    return [_owner(a) for _, a in closure_arrays(node.backward) if id(_owner(a)) not in skip]


class TestSpikesOnTheTape:
    """A recorded float32 forward keeps every spike at one bit: each SN's
    node keeps ``np.packbits`` of its bool spikes, uint8 of ceil(n / 8) bytes
    for n spikes, and its rebuild unpacks them into a new array, so no bool
    array is on the tape. Every backward that reads spikes reads them from
    those copies: each conv but the encoder (its input map is an SN output or
    a maxpool of one, and a maxpool keeps nothing of its own) and both
    operands of attention's spike-by-spike product. A float64 model spikes in
    float64, and its SNs keep no spikes: their backward fires them again."""

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_every_sn_keeps_one_bit_per_spike(self, rng, style, training, monkeypatch):
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
        sites = _packed_copies(monkeypatch)
        logits = model.forward(_batch(rng, b=4, cfg=cfg))
        monkeypatch.undo()
        leaves = model.parameters()
        arrays = tape_arrays(logits, leaves)
        assert [label for label, a in arrays if a.dtype == bool] == []
        packed = {id(a): a for label, a in arrays if label == "multistep_lif.packed"}
        assert packed.keys() == sites.keys()
        assert len(sites) == sum(isinstance(m, SN) for m in model.modules())  # each one runs once
        lifs = [node for node in tape_nodes(logits) if _is_op(node, "multistep_lif")]
        assert len(lifs) == len(sites)
        for node in lifs:
            (copy,) = [a for _, a in closure_arrays(node.remat)]  # what its rebuild reads
            name, spikes, _ = sites[id(copy)]
            assert spikes.dtype == bool
            assert copy.dtype == np.uint8 and copy.shape == (-(-spikes.size // 8),), name
            rebuilt = node.remat()  # a new bool array, bit-equal to the spikes
            assert rebuilt.dtype == bool and rebuilt.tobytes() == spikes.tobytes(), name
            assert not np.shares_memory(rebuilt, node.remat())
        # one conv per tokenizer unit: the encoder keeps the image, every
        # other conv and every maxpool reads one SN's packed copy, nothing else
        encoder, *spiking = [node for node in tape_nodes(logits) if _is_op(node, "conv2d")]
        assert [a.dtype for a in _held(encoder, leaves)] == [np.float32]
        pools = [node for node in tape_nodes(logits) if _is_op(node, "maxpool2d")]
        assert len(spiking) == len(cfg.tokenizer_plan)
        assert len(pools) == sum(kind == "sped" for kind in cfg.tokenizer_plan)
        for node in spiking + pools:
            (copy,) = _held(node, leaves)
            assert id(copy) in sites
        assert [label for label, _ in arrays if label.startswith(("conv2d", "maxpool2d"))] \
            == ["conv2d.xd"]
        # every number computed from the spikes is float
        assert products and {a.dtype for a in products} == {np.dtype(np.float32)}

    # per image size: attention's spike-by-spike product and the SNs it reads
    # (at 8x8 N = 4 <= d_head = 8, so Q K^T; at 16x16 N = 16, so K^T V)
    SPIKE_PRODUCT = {8: ("sn_k", "sn_q"), 16: ("sn_k", "sn_v")}

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    @pytest.mark.parametrize("image", sorted(SPIKE_PRODUCT))
    def test_attention_reads_its_spikes_from_packed_copies(self, rng, style, image,
                                                           monkeypatch):
        """Each block's spike-by-spike product reads both its operands from
        their SNs' packed copies, and the other product reads the third SN's
        copy and the middle product through its rebuild: all three copies,
        and no float array."""
        cfg = dataclasses.replace(DESK, residual_style=style, image_size=(image, image))
        model = build(cfg, seed=0)
        sites = _packed_copies(monkeypatch)
        logits = model.forward(_batch(rng, b=4, cfg=cfg))
        monkeypatch.undo()
        leaves = model.parameters()
        names = {key: name for key, (name, _, _) in sites.items()}
        products = [_held(node, leaves) for node in tape_nodes(logits)  # not a token GEMM
                    if _is_op(node, "Tensor.matmul")
                    and all(type(parent) is T._Node for parent in node.parents)]
        assert len(products) == 2 * cfg.blocks
        spike_by_spike = [sorted(names[id(a)] for a in held) for held in products
                          if len(held) == 2 and all(id(a) in sites for a in held)]
        assert spike_by_spike == [[f"blocks.{i}.attn.{sn}" for sn in self.SPIKE_PRODUCT[image]]
                                  for i in range(cfg.blocks)]
        other = [sorted(names[id(a)] for a in held) for held in products if len(held) == 3]
        assert other == [[f"blocks.{i}.attn.{sn}" for sn in ("sn_k", "sn_q", "sn_v")]
                         for i in range(cfg.blocks)]
        assert all(id(a) in sites for held in products for a in held)

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_float64_model_spikes_in_float64(self, rng, style, monkeypatch):
        cfg = dataclasses.replace(DESK, residual_style=style, head_variant=HEAD_SN_AVGPOOL_FC)
        model = build(cfg, seed=0).astype(np.float64)
        outs = []  # every SN's spikes, held so their ids stay unique
        forward = SN.forward
        monkeypatch.setattr(SN, "forward",
                            lambda sn, x, t: outs.append(forward(sn, x, t)) or outs[-1])
        logits = model.forward(_batch(rng, b=4, cfg=cfg))
        monkeypatch.undo()
        arrays = tape_arrays(logits, model.parameters())
        assert {a.dtype for _, a in arrays} == {np.dtype(np.float64)}  # no bool, no packed copy
        assert len(outs) == sum(isinstance(m, SN) for m in model.modules())
        for out in outs:
            assert out.data.dtype == np.float64 and np.all((out.data == 0) | (out.data == 1))
        # no LIF node keeps its own spikes: its backward fires them again
        lifs = [node for node in tape_nodes(logits) if _is_op(node, "multistep_lif")]
        assert len(lifs) == len(outs)
        spikes = {id(out._node.parents[0]): id(_owner(out.data)) for out in outs}  # via reshape
        for node in lifs:
            assert node.remat is None
            assert spikes[id(node)] not in {id(_owner(a)) for _, a in node_arrays(node)}

    @pytest.mark.parametrize("fused", [False, True], ids=["no_grad", "fused"])
    def test_untaped_forwards_never_pack(self, rng, fused, monkeypatch):
        model = build(DESK, seed=0).eval()
        calls = []
        packbits = np.packbits

        def spy(*args, **kwargs):
            calls.append(args[0].size)
            return packbits(*args, **kwargs)

        monkeypatch.setattr(np, "packbits", spy)
        x = _batch(rng, b=4, cfg=DESK)
        model.forward(x)  # a recorded forward packs once per SN
        assert len(calls) == sum(isinstance(m, SN) for m in model.modules()) - 1  # head: no SN
        del calls[:]
        if fused:
            model.fuse()
            model.forward(x)
        else:
            with no_grad():
                model.forward(x)
        assert calls == []


class TestTapeKeepsWhatBackwardReads:
    """A recorded float32 forward keeps only the arrays a backward reads: no
    matmul, conv2d or BN output is on its tape (attention's middle product,
    Q K^T or K^T V, is read through its rebuild), and an LIF input only where
    nothing rebuilds it, a residual sum. The backward sweep frees each node
    as it passes, while every parameter keeps its gradient."""

    # the SNs of the desk model (SN head) whose input is a residual sum, which
    # nothing rebuilds: the stream's SNs, except block 0's spike-driven sn_in,
    # whose input is the tokenizer's last BN through a reshape. Each keeps its
    # input's own array beside its packed spikes; every other SN keeps only
    # its packed spikes and reads its input through its producer's rebuild
    # (its BN's, or for sn_attn attention's product of spikes).
    SUM_FED = {
        SPIKE_DRIVEN: ["blocks.0.mlp.sn1", "blocks.1.attn.sn_in", "blocks.1.mlp.sn1", "head.sn"],
        ADD: ["head.sn"],
    }

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_unread_outputs_are_not_on_the_tape(self, rng, style, monkeypatch):
        cfg = dataclasses.replace(DESK, residual_style=style, head_variant=HEAD_SN_AVGPOOL_FC)
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

        def matmul(args, out):  # a token GEMM, or one of attention's products
            return out.data

        spy(Tensor, "matmul", "matmul", matmul)
        spy(Tensor, "__matmul__", "matmul", matmul)
        spy(layers, "conv2d", "conv2d", lambda args, out: out.data)
        spy(BatchNorm, "forward", "BatchNorm.forward", lambda args, out: out.data)
        spy(layers, "multistep_lif", "LIF input", lambda args, out: args[0].data)
        logits = model.forward(_batch(rng, b=4, cfg=cfg))
        monkeypatch.undo()
        assert {op for op, _ in unread} == {"matmul", "conv2d", "BatchNorm.forward", "LIF input"}
        products = [arr for op, arr in unread if op == "matmul" and arr.ndim == 4]
        assert len(products) == 2 * cfg.blocks  # attention's, per head
        tape = {id(arr) for _, arr in tape_arrays(logits, model.parameters())}
        assert [op for op, arr in unread if id(arr) in tape] == \
            ["LIF input"] * len(self.SUM_FED[style])

    @staticmethod
    def _lif_arrays(loss, leaves, sites):
        """Per LIF node of the tape: (its SN's name, {cell name: (owner id,
        dtype, size)} of the arrays that node puts on the tape, not one an
        earlier node holds). No array is returned, so none is kept alive."""
        seen = {id(_owner(t.data)) for t in leaves}
        found = []
        for node in tape_nodes(loss):
            own = {}
            for name, a in node_arrays(node):
                if id(_owner(a)) not in seen:
                    seen.add(id(_owner(a)))
                    own[name] = (id(_owner(a)), _owner(a).dtype, a.size)
            if _is_op(node, "multistep_lif"):
                found.append((sites[own["packed"][0]][0], own))
        return found

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_backward_frees_the_tape(self, rng, style, monkeypatch):
        cfg = dataclasses.replace(DESK, residual_style=style, head_variant=HEAD_SN_AVGPOOL_FC)
        model = build(cfg, seed=0)
        sites = _packed_copies(monkeypatch)
        labels = rng.integers(0, cfg.num_classes, 4)
        loss = cross_entropy(model.forward(_batch(rng, b=4, cfg=cfg)), labels)
        monkeypatch.undo()
        keep_input = []
        for sn, own in self._lif_arrays(loss, model.parameters(), sites):
            _, spikes, source = sites[own["packed"][0]]
            assert own["packed"][1:] == (np.uint8, -(-spikes.size // 8))
            if "kept" in own:
                assert list(own) == ["kept", "packed"]
                assert own["kept"] == (source, np.float32, spikes.size)  # no copy
                keep_input.append(sn)
            else:
                assert list(own) == ["packed"]
        assert sorted(keep_input) == self.SUM_FED[style]
        assert len(sites) == sum(isinstance(m, SN) for m in model.modules())
        sites.clear()
        refs = [weakref.ref(arr) for _, arr in tape_arrays(loss, model.parameters())]
        assert all(ref() is not None for ref in refs)
        loss.backward()
        assert all(ref() is None for ref in refs)
        assert all(p.grad is not None for p in model.parameters())
        with pytest.raises(RuntimeError, match="already released"):
            loss.backward()

    def test_parameters_keep_their_gradient_and_get_no_node(self, rng):
        # only recorded ops have tape nodes: a leaf keeps its gradient itself
        model = build(DESK, seed=0)
        labels = rng.integers(0, DESK.num_classes, 4)
        loss = cross_entropy(model.forward(_batch(rng, b=4, cfg=DESK)), labels)
        loss.backward()
        for p in model.parameters():
            assert p._node is None
            assert p.grad is not None and p.grad.shape == p.data.shape


class TestRebuildReadsTheForward:
    """The backward rebuilds a BN-fed SN's input from the arrays the forward
    used, not from the module's current parameters: rebinding every
    parameter and buffer between forward and backward (``astype``, or
    ``load_state`` of other values) leaves every gradient as it was."""

    REBINDS = {
        "astype": lambda model: model.astype(np.float64),
        "load_state": lambda model: model.load_state(
            {name: arr + 0.5 for name, arr in model.state().items()}),
    }

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    @pytest.mark.parametrize("rebind", sorted(REBINDS))
    def test_rebinding_parameters_changes_no_gradient(self, rng, style, rebind):
        cfg = dataclasses.replace(DESK, residual_style=style)
        x = _batch(rng, b=4, cfg=cfg)
        labels = rng.integers(0, cfg.num_classes, 4)

        def grads(between):
            model = build(cfg, seed=0)
            loss = cross_entropy(model.forward(x), labels)
            between(model)
            loss.backward()
            return [p.grad for p in model.parameters()]

        expected = grads(lambda model: None)
        got = grads(self.REBINDS[rebind])
        assert len(got) == len(expected)
        for g, e in zip(got, expected):  # astype casts a gradient to the new dtype, exactly
            assert np.array_equal(g, e)


class TestSpikeCostTape:
    """When d_head < N (the desk model at 16x16: N = 16, d_head = 8), a
    recorded forward keeps no copy or patch rows of a spike map and no
    attention product: each SN keeps its spikes at one bit (the only spike
    map on the tape), each conv but the encoder reads its input map from
    them, and attention rebuilds its [d, d] K^T V from them, so neither it
    nor an [N, N] Q K^T is on the tape."""

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    def test_no_patch_rows_and_no_qk(self, rng, style):
        cfg = dataclasses.replace(DESK, residual_style=style, image_size=(16, 16))
        model = build(cfg, seed=0)
        x = _batch(rng, b=4, cfg=cfg)
        logits = model.forward(x)
        heads, n, d_head = cfg.heads, 16, cfg.embed_dim // cfg.heads
        arrays = tape_arrays(logits, model.parameters())
        assert not [label for label, a in arrays if a.dtype == bool]
        assert not [label for label, a in arrays
                    if a.shape[-3:] in ((heads, n, n), (heads, d_head, d_head))]
        # patch rows are [B*H*W, 9*C] for a conv with C input channels
        widths = {9 * conv.weight.shape[2] for conv in model.modules()
                  if isinstance(conv, layers.ConvBN2d) and not conv.tokens}
        assert not [label for label, a in arrays if a.ndim == 2 and a.shape[1] in widths]
        mib = tape_bytes(logits, model.parameters())
        image = x.nbytes * cfg.timesteps / 2**20  # repeated over T at the input
        assert [label for label in mib if label.startswith("conv2d")] == ["conv2d.xd"]
        assert mib["conv2d.xd"] == image
        spikes = [math.prod(node.shape) for node in tape_nodes(logits)
                  if _is_op(node, "multistep_lif")]
        assert len(spikes) == sum(isinstance(m, SN) for m in model.modules()) - 1  # head: no SN
        assert mib["multistep_lif.packed"] == sum(-(-size // 8) for size in spikes) / 2**20


    @pytest.mark.parametrize("style,batch,budget_mib", [(ADD, 4, 100.0), (SPIKE_DRIVEN, 8, 170.0)])
    def test_4_384_eval_tape_budget(self, style, batch, budget_mib):
        """The seed-0 4-384, its BN calibrated on the first 4 images of its
        seeded data as the benchmark calibrates it, keeps at most
        ``budget_mib`` on an eval-mode tape of the next ``batch`` images,
        none of it bool."""
        from spikingformer.data import synth_static

        cfg = preset_config("spikingformer-4-384", residual_style=style)
        model = build(cfg, seed=0)
        x = synth_static(cfg.num_classes, 4 + batch, 0,
                         shape=(cfg.in_channels,) + tuple(cfg.image_size)).x
        for bn in model.modules():
            if isinstance(bn, BatchNorm):
                bn.momentum = 1.0
        with no_grad():
            model.forward(x[:4])  # train mode: each BN adopts this batch's statistics
        logits = model.eval().forward(x[4:])
        arrays = tape_arrays(logits, model.parameters())
        assert [label for label, a in arrays if a.dtype == bool] == []
        assert sum(a.nbytes for _, a in arrays) / 2**20 <= budget_mib


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


class TestPackedTapeDifferential:
    """The one-bit tape changes no number. The reference run keeps each SN's
    bool spikes on the tape (the pack/unpack pair made the identity, so
    every backward reads the forward's own array) and drops every matmul's
    product rebuild (so each sn_attn keeps its input, attention's product, as
    an array). Logits and every
    parameter gradient are bit-equal to the default path's, with attention
    in either order (N = 4 <= d_head at 8x8, N = 16 > d_head at 16x16)."""

    @staticmethod
    def _run(cfg, training, x):
        model = build(cfg, seed=0)
        if not training:
            model.eval()
        logits = model.forward(x)
        dtypes = {a.dtype for _, a in tape_arrays(logits, model.parameters())}
        inputs = sum(name == "kept" for node in tape_nodes(logits)
                     if _is_op(node, "multistep_lif") for name, _ in closure_arrays(node.backward))
        cross_entropy(logits, np.array([0, 1, 2, 3])).backward()
        return logits.data, {name: p.grad for name, p in model.named_parameters()}, dtypes, inputs

    @pytest.mark.parametrize("style", [SPIKE_DRIVEN, ADD])
    @pytest.mark.parametrize("head", HEAD_VARIANTS)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("image", [8, 16])
    def test_bit_equal_to_a_tape_of_bool_spikes(self, rng, monkeypatch, style, head, training,
                                                image):
        cfg = dataclasses.replace(DESK, residual_style=style, head_variant=head,
                                  image_size=(image, image))
        x = _batch(rng, b=4, cfg=cfg)
        logits, grads, dtypes, inputs = self._run(cfg, training, x)
        monkeypatch.setattr(neuron, "_pack", lambda spikes: spikes)
        monkeypatch.setattr(neuron, "_unpack", lambda spikes, shape: spikes)
        matmul = Tensor.matmul

        def no_rebuild(a, b):
            out = matmul(a, b)
            out._node.remat = None
            return out

        monkeypatch.setattr(Tensor, "matmul", no_rebuild)
        monkeypatch.setattr(Tensor, "__matmul__", no_rebuild)
        ref_logits, ref_grads, ref_dtypes, ref_inputs = self._run(cfg, training, x)
        assert np.dtype(np.uint8) in dtypes and np.dtype(bool) not in dtypes
        assert np.dtype(bool) in ref_dtypes and np.dtype(np.uint8) not in ref_dtypes
        assert ref_inputs == inputs + cfg.blocks  # every sn_attn keeps attention's product
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

        def spy(data, parents, backward, remat=None):
            out = make(data, parents, backward, remat)
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
