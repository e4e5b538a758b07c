"""Layer semantics: patch embedding, attention core, fusion, heads."""

import itertools

import numpy as np
import pytest

from spikingformer.layers import (
    ADD,
    HEAD_VARIANTS,
    SPIKE_DRIVEN,
    BatchNorm,
    ClassificationHead,
    ConvBN2d,
    Parameter,
    PatchEmbedUnit,
    SpikingMLP,
    SpikingSelfAttention,
    SpikingTokenizer,
    SpikingTransformerBlock,
    attention_core,
)
from spikingformer.neuron import LIFParams
from spikingformer.tensor import Tensor

LIF = LIFParams()


def _rng():
    return np.random.default_rng(7)


class _InputCatcher:
    """Minimal recorder stub: remembers raw conv inputs for binarity checks."""

    def __init__(self):
        self.inputs = []

    def observe_conv(self, layer, x, flops):
        self.inputs.append((layer, x.copy()))

    def observe_attention(self, attn, q, k, v):
        pass


def is_binary(arr):
    return bool(np.all((arr == 0) | (arr == 1)))


class TestPatchEmbedding:
    def test_spe_preserves_geometry(self):
        unit = PatchEmbedUnit(3, 8, _rng(), LIF, downsample=False, style=SPIKE_DRIVEN)
        x = Tensor(_rng().uniform(0, 1, (4, 3, 8, 8)).astype(np.float32))
        assert unit.forward(x, 2).shape == (4, 8, 8, 8)

    def test_sped_halves_geometry(self):
        unit = PatchEmbedUnit(3, 8, _rng(), LIF, downsample=True, style=SPIKE_DRIVEN)
        x = Tensor(_rng().uniform(0, 1, (4, 3, 32, 32)).astype(np.float32))
        assert unit.forward(x, 2).shape == (4, 8, 16, 16)

    def test_conv_input_is_binary(self):
        unit = PatchEmbedUnit(3, 8, _rng(), LIF, downsample=True, style=SPIKE_DRIVEN)
        catcher = _InputCatcher()
        unit.conv.recorder = catcher
        x = Tensor(_rng().uniform(0, 3, (4, 3, 8, 8)).astype(np.float32))
        unit.forward(x, 2)
        assert all(is_binary(arr) for _, arr in catcher.inputs)

    def test_zero_drive_outputs_bn_shift(self):
        unit = PatchEmbedUnit(3, 8, _rng(), LIF, downsample=False, style=SPIKE_DRIVEN)
        unit.conv.bn.beta.data = np.full(8, 0.25, dtype=np.float32)
        unit.conv.bn.eval()
        unit.sn.eval()
        unit.conv.eval()
        x = Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32))  # sits at V_reset
        y = unit.forward(x, 1)
        np.testing.assert_allclose(y.data, 0.25, atol=1e-6)

    def test_four_speds_give_196_patches(self):
        # 224 / 2^4 = 14 -> 196 16x16 patches
        tok = SpikingTokenizer(("sped",) * 4, 3, 16, _rng(), LIF, SPIKE_DRIVEN)
        x = Tensor(_rng().uniform(0, 1, (1, 3, 224, 224)).astype(np.float32))
        assert tok.forward(x, 1).shape == (1, 196, 16)

    def test_cifar_plan_gives_64_tokens(self):
        tok = SpikingTokenizer(("spe", "spe", "sped", "sped"), 3, 16, _rng(), LIF, SPIKE_DRIVEN)
        x = Tensor(_rng().uniform(0, 1, (1, 3, 32, 32)).astype(np.float32))
        assert tok.forward(x, 1).shape == (1, 64, 16)

    def test_event_input_two_channels(self):
        tok = SpikingTokenizer(("sped", "sped"), 2, 8, _rng(), LIF, SPIKE_DRIVEN)
        x = Tensor((_rng().uniform(0, 1, (2, 2, 16, 16)) < 0.5).astype(np.float32))
        assert tok.forward(x, 2).shape == (2, 16, 8)

    def test_maxpool_of_binary_is_binary(self):
        from spikingformer.tensor import maxpool2d

        x = Tensor((_rng().uniform(0, 1, (2, 3, 8, 8)) < 0.5).astype(np.float32))
        assert is_binary(maxpool2d(x).data)

    def test_geometry_division_by_power_of_two(self):
        for k in (1, 2, 3):
            tok = SpikingTokenizer(("sped",) * k, 3, 8, _rng(), LIF, SPIKE_DRIVEN)
            x = Tensor(_rng().uniform(0, 1, (1, 3, 32, 32)).astype(np.float32))
            assert tok.forward(x, 1).shape[1] == (32 // 2**k) ** 2


class TestSpikeResidualAdd:
    def test_zero_residual_is_identity(self):
        x = Tensor(_rng().standard_normal((2, 4, 4)).astype(np.float32))
        zero = Tensor(np.zeros_like(x.data))
        np.testing.assert_array_equal((zero + x).data, x.data)

    def test_commutativity(self):
        a = Tensor(_rng().standard_normal((3, 3)).astype(np.float32))
        b = Tensor(_rng().standard_normal((3, 3)).astype(np.float32))
        np.testing.assert_array_equal((a + b).data, (b + a).data)

    def test_add_then_sn_then_convbn_input_binary(self):
        mlp = SpikingMLP(8, _rng(), LIF, SPIKE_DRIVEN)
        catcher = _InputCatcher()
        mlp.conv1.recorder = catcher
        s = Tensor((_rng().uniform(0, 1, (2, 4, 8)) < 0.5).astype(np.float32))
        o = Tensor(_rng().standard_normal((2, 4, 8)).astype(np.float32))
        mlp.forward(s + o, 2)
        assert all(is_binary(arr) for _, arr in catcher.inputs)


class TestAttentionCore:
    def test_hand_matrix_arithmetic(self):
        q = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]]))
        k = Tensor(np.array([[0.0, 1.0], [1.0, 1.0]]))
        v = Tensor(np.array([[1.0, 1.0], [0.0, 1.0]]))
        core = attention_core(q, k, v)
        np.testing.assert_array_equal(core.data, [[0.0, 1.0], [1.0, 3.0]])

    def test_zero_spikes_zero_core(self):
        z = Tensor(np.zeros((2, 3)))
        assert np.all(attention_core(z, z, z).data == 0)

    def test_integrality_bound_brute_force(self, rng):
        for _ in range(200):
            n, d = rng.integers(1, 5), rng.integers(1, 5)
            q, k, v = (rng.integers(0, 2, (n, d)).astype(np.float32) for _ in range(3))
            core = attention_core(Tensor(q), Tensor(k), Tensor(v)).data
            assert np.all(core == np.rint(core))
            assert core.min() >= 0 and core.max() <= n * d


class TestSSAModule:
    def _x(self, n=4, d=8, tb=4):
        return Tensor(_rng().standard_normal((tb, n, d)).astype(np.float32))

    def test_output_shape(self):
        ssa = SpikingSelfAttention(8, 2, _rng(), LIF, 0.125, SPIKE_DRIVEN)
        assert ssa.forward(self._x(), 2).shape == (4, 4, 8)

    def test_divisibility_error(self):
        with pytest.raises(ValueError, match="divisible"):
            SpikingSelfAttention(8, 3, _rng(), LIF, 0.125, SPIKE_DRIVEN)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            SpikingSelfAttention(8, 2, _rng(), LIF, 0.0, SPIKE_DRIVEN)

    def test_single_head_equals_manual_multihead_merge(self):
        # H=2, d=1: run the same weights and compare against per-head cores
        ssa = SpikingSelfAttention(2, 2, _rng(), LIF, 1.0, SPIKE_DRIVEN)
        x = Tensor(_rng().standard_normal((1, 2, 2)).astype(np.float32))
        xs = ssa.sn_in.forward(x, 1)
        q = ssa.sn_q.forward(ssa.conv_q.forward(xs), 1).data
        k = ssa.sn_k.forward(ssa.conv_k.forward(xs), 1).data
        v = ssa.sn_v.forward(ssa.conv_v.forward(xs), 1).data
        heads = []
        for h in range(2):
            qh, kh, vh = q[0, :, h : h + 1], k[0, :, h : h + 1], v[0, :, h : h + 1]
            heads.append(qh @ kh.T @ vh)
        manual = np.concatenate(heads, axis=1)[None]
        qs = ssa._split_heads(Tensor(q))
        ks = ssa._split_heads(Tensor(k))
        vs = ssa._split_heads(Tensor(v))
        core = ssa._merge_heads(attention_core(qs, ks, vs)).data
        np.testing.assert_allclose(core, manual, atol=1e-6)

    def test_head_permutation_permutes_slices(self):
        q = _rng().integers(0, 2, (1, 2, 4, 3)).astype(np.float32)  # [b, H, N, d]
        k = _rng().integers(0, 2, (1, 2, 4, 3)).astype(np.float32)
        v = _rng().integers(0, 2, (1, 2, 4, 3)).astype(np.float32)
        core = attention_core(Tensor(q), Tensor(k), Tensor(v)).data
        core_swapped = attention_core(
            Tensor(q[:, ::-1]), Tensor(k[:, ::-1]), Tensor(v[:, ::-1])
        ).data
        np.testing.assert_array_equal(core_swapped, core[:, ::-1])

    def test_all_convbn_inputs_binary(self):
        ssa = SpikingSelfAttention(8, 2, _rng(), LIF, 0.125, SPIKE_DRIVEN)
        catcher = _InputCatcher()
        for conv in (ssa.conv_q, ssa.conv_k, ssa.conv_v, ssa.conv_proj):
            conv.recorder = catcher
        ssa.forward(self._x(), 2)
        assert len(catcher.inputs) == 4
        assert all(is_binary(arr) for _, arr in catcher.inputs)


class TestSpikingMLP:
    def test_shape_preserved(self):
        mlp = SpikingMLP(8, _rng(), LIF, SPIKE_DRIVEN)
        x = Tensor(_rng().standard_normal((2, 4, 8)).astype(np.float32))
        assert mlp.forward(x, 2).shape == (2, 4, 8)

    def test_zero_input_bias_driven(self):
        mlp = SpikingMLP(4, _rng(), LIF, SPIKE_DRIVEN)
        mlp.eval()
        mlp.conv1.bn.beta.data = np.full(16, 0.5, dtype=np.float32)
        x = Tensor(np.zeros((1, 2, 4), dtype=np.float32))
        y = mlp.forward(x, 1)
        # first unit emits no spikes, so its output is the BN shift; the
        # second unit then responds to that constant drive only
        assert np.all(np.isfinite(y.data))

    def test_internal_conv_inputs_binary(self):
        mlp = SpikingMLP(8, _rng(), LIF, SPIKE_DRIVEN)
        catcher = _InputCatcher()
        mlp.conv1.recorder = catcher
        mlp.conv2.recorder = catcher
        x = Tensor(_rng().standard_normal((2, 4, 8)).astype(np.float32))
        mlp.forward(x, 2)
        assert len(catcher.inputs) == 2
        assert all(is_binary(arr) for _, arr in catcher.inputs)


class TestTransformerBlock:
    def test_zero_weight_block_is_identity(self):
        block = SpikingTransformerBlock(8, 2, _rng(), LIF, 0.125, SPIKE_DRIVEN)
        block.eval()
        # zero the final BN of each residual branch -> branches contribute 0
        for conv in (block.attn.conv_proj, block.mlp.conv2):
            conv.bn.gamma.data[:] = 0.0
            conv.bn.beta.data[:] = 0.0
        x = Tensor(_rng().standard_normal((2, 4, 8)).astype(np.float32))
        np.testing.assert_allclose(block.forward(x, 2).data, x.data, atol=1e-6)

    def test_stacking_keeps_shape(self):
        blocks = [SpikingTransformerBlock(8, 2, _rng(), LIF, 0.125, SPIKE_DRIVEN)
                  for _ in range(3)]
        x = Tensor(_rng().standard_normal((2, 4, 8)).astype(np.float32))
        for b in blocks:
            x = b.forward(x, 2)
        assert x.shape == (2, 4, 8)

    def test_every_convbn_input_binary_on_random_data(self):
        block = SpikingTransformerBlock(8, 2, _rng(), LIF, 0.125, SPIKE_DRIVEN)
        catcher = _InputCatcher()
        for conv in (block.attn.conv_q, block.attn.conv_k, block.attn.conv_v,
                     block.attn.conv_proj, block.mlp.conv1, block.mlp.conv2):
            conv.recorder = catcher
        x = Tensor(_rng().standard_normal((4, 4, 8)).astype(np.float32))
        block.forward(x, 2)
        assert len(catcher.inputs) == 6
        assert all(is_binary(arr) for _, arr in catcher.inputs)


class TestFusion:
    def test_identity_bn_fuses_to_original(self):
        layer = ConvBN2d(2, 3, _rng())
        layer.bn._buffers["running_var"] = np.full(3, 1.0 - layer.bn.eps, dtype=np.float32)
        original = layer.weight.data.copy()
        layer.fuse()
        np.testing.assert_allclose(layer.weight.data, original, rtol=1e-6)
        np.testing.assert_allclose(layer.bias.data, 0.0, atol=1e-7)

    def test_scalar_hand_case(self):
        # w_conv=2, gamma=3, beta=0.5, mu=1, var+eps=4 -> W=3, B=0.5-0.75... per
        # Appendix-style arithmetic with b_conv folded separately; our convs are
        # biasless so B = beta - gamma*mu/sqrt(var+eps)
        layer = ConvBN2d(1, 1, _rng(), kernel_size=1, padding=0)
        layer.weight.data[:] = 2.0
        layer.bn.gamma.data[:] = 3.0
        layer.bn.beta.data[:] = 0.5
        layer.bn._buffers["running_mean"][:] = 1.0
        layer.bn._buffers["running_var"][:] = 4.0 - layer.bn.eps
        # forward equivalence on input 1: conv gives 2, BN gives 3*(2-1)/2+0.5=2
        layer.eval()
        x = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        unfused = layer.forward(x).data
        layer.fuse()
        assert layer.weight.data.reshape(-1)[0] == pytest.approx(3.0, rel=1e-6)
        assert layer.bias.data[0] == pytest.approx(0.5 - 1.5, rel=1e-6)
        fused = layer.forward(x).data
        np.testing.assert_allclose(unfused, fused, atol=1e-6)
        assert unfused.reshape(-1)[0] == pytest.approx(2.0, rel=1e-5)

    def test_random_layers_forward_equivalence(self, rng):
        for i in range(50):
            layer = ConvBN2d(2, 4, np.random.default_rng(i))
            layer.bn.gamma.data = rng.uniform(0.5, 2.0, 4).astype(np.float32)
            layer.bn.beta.data = rng.standard_normal(4).astype(np.float32)
            layer.bn._buffers["running_mean"] = rng.standard_normal(4).astype(np.float32)
            layer.bn._buffers["running_var"] = rng.uniform(0.1, 2.0, 4).astype(np.float32)
            layer.eval()
            x = Tensor(rng.integers(0, 2, (2, 2, 6, 6)).astype(np.float32))
            before = layer.forward(x).data
            layer.fuse()
            after = layer.forward(x).data
            assert np.max(np.abs(before - after)) <= 1e-4

    def test_missing_statistics_error(self):
        layer = ConvBN2d(1, 1, _rng())
        layer.bn._buffers["running_var"] = np.full(1, -1.0, dtype=np.float32)
        with pytest.raises(ValueError, match="variance"):
            layer.fuse()

    @pytest.mark.parametrize("tokens", [False, True])
    def test_fuse_freezes_weight_and_bias(self, tokens):
        layer = ConvBN2d(2, 3, _rng(), tokens=tokens)
        assert layer.weight.requires_grad
        layer.fuse()
        weight, bias = layer.weight, layer.bias
        assert isinstance(weight, Parameter) and isinstance(bias, Parameter)
        assert not weight.requires_grad and not bias.requires_grad
        layer.fuse()
        assert layer.weight is weight and layer.bias is bias
        assert not weight.requires_grad and not bias.requires_grad

    def test_token_conv_fusion(self, rng):
        layer = ConvBN2d(4, 6, _rng(), tokens=True)
        layer.bn._buffers["running_mean"] = rng.standard_normal(6).astype(np.float32)
        layer.bn._buffers["running_var"] = rng.uniform(0.5, 2.0, 6).astype(np.float32)
        layer.eval()
        x = Tensor(rng.integers(0, 2, (3, 5, 4)).astype(np.float32))
        before = layer.forward(x).data
        layer.fuse()
        after = layer.forward(x).data
        assert np.max(np.abs(before - after)) <= 1e-4


class TestClassificationHead:
    def _x(self, tb=4, n=3, d=8):
        return Tensor(_rng().standard_normal((tb, n, d)).astype(np.float32))

    def test_zero_input_gives_bias(self):
        head = ClassificationHead(8, 5, _rng(), LIF, "avgpool-fc")
        head.bias.data = np.arange(5, dtype=np.float32)
        y = head.forward(Tensor(np.zeros((4, 3, 8), dtype=np.float32)), 2)
        np.testing.assert_allclose(y.data, np.tile(np.arange(5), (2, 1)), atol=1e-7)

    def test_avgpool_fc_equals_fc_avgpool(self):
        h1 = ClassificationHead(8, 5, _rng(), LIF, "avgpool-fc")
        h2 = ClassificationHead(8, 5, np.random.default_rng(99), LIF, "fc-avgpool")
        h2.weight.data = h1.weight.data.copy()
        h2.bias.data = h1.bias.data.copy()
        x = self._x()
        np.testing.assert_allclose(h1.forward(x, 2).data, h2.forward(x, 2).data, atol=1e-5)

    def test_sn_pooled_values_in_unit_interval(self):
        head = ClassificationHead(8, 5, _rng(), LIF, "sn-avgpool-fc")
        x = self._x()
        spikes = head.sn.forward(x, 2)
        pooled = spikes.reshape(2, 2, 3, 8).mean(axis=(0, 2)).data
        assert pooled.min() >= 0.0 and pooled.max() <= 1.0

    def test_all_variants_finite(self):
        x = self._x()
        for variant in HEAD_VARIANTS:
            head = ClassificationHead(8, 5, _rng(), LIF, variant)
            y = head.forward(x, 2)
            assert y.shape == (2, 5) and np.all(np.isfinite(y.data))

    def test_invalid_variant(self):
        with pytest.raises(ValueError, match="variant"):
            ClassificationHead(8, 5, _rng(), LIF, "fc-fc")


class TestAddStyle:
    def test_add_style_block_runs(self):
        block = SpikingTransformerBlock(8, 2, _rng(), LIF, 0.125, ADD)
        x = Tensor((_rng().uniform(0, 1, (2, 4, 8)) < 0.5).astype(np.float32))
        assert block.forward(x, 2).shape == (2, 4, 8)

    def test_add_style_branch_outputs_binary(self):
        # in ADD style the residual branches end in SN, so their outputs are spikes
        ssa = SpikingSelfAttention(8, 2, _rng(), LIF, 0.125, ADD)
        x = Tensor((_rng().uniform(0, 1, (2, 4, 8)) < 0.5).astype(np.float32))
        assert is_binary(ssa.forward(x, 2).data)
