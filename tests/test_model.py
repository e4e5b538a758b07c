"""Whole-model assembly: parameter counts, forward semantics, residual styles."""

import numpy as np
import pytest

from spikingformer.layers import ADD, SPIKE_DRIVEN
from spikingformer.model import (
    Model,
    ModelConfig,
    PRESETS,
    PUBLISHED_PARAM_COUNTS_M,
    build,
    max_convbn_input,
    preset_config,
)
from spikingformer.tensor import Tensor

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
