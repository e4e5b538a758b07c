"""LIF dynamics: hand-derived step values, reset/monotonicity properties,
relaxed-mode agreement."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikingformer import neuron
from spikingformer.layers import BatchNorm
from spikingformer.neuron import (
    LIFParams,
    MembraneState,
    lif_step,
    multistep_lif,
)
from spikingformer.tensor import Tensor, heaviside, no_grad, surrogate_grad

from helpers import _owner, closure_arrays, lif_input_grad_per_step, node_arrays

DEFAULTS = LIFParams()


def state_of(values) -> MembraneState:
    return MembraneState(Tensor(np.asarray(values, dtype=np.float32)))


class TestLIFStep:
    def test_suprathreshold_input_fires_and_resets(self):
        s, nxt = lif_step(state_of([0.0]), Tensor([2.0]), DEFAULTS)
        assert s.data[0] == 1.0        # H = 0 + (2 - 0)/2 = 1.0 >= V_th
        assert nxt.v.data[0] == 0.0    # reset to V_reset

    def test_subthreshold_input_integrates(self):
        s, nxt = lif_step(state_of([0.0]), Tensor([0.5]), DEFAULTS)
        assert s.data[0] == 0.0
        assert nxt.v.data[0] == pytest.approx(0.25)  # H = (0.5)/2

    def test_zero_input_fixed_point(self):
        s, nxt = lif_step(state_of([0.0]), Tensor([0.0]), DEFAULTS)
        assert s.data[0] == 0.0 and nxt.v.data[0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            lif_step(state_of([0.0, 0.0]), Tensor([1.0]), DEFAULTS)

    @given(
        v=st.floats(-2, 2), x=st.floats(-4, 4),
        tau=st.floats(1.0, 8.0), vth=st.floats(0.1, 2.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_reset_property(self, v, x, tau, vth):
        p = LIFParams(tau=tau, v_threshold=vth, v_reset=0.0)
        s, nxt = lif_step(state_of([v]), Tensor([x]), p)
        if s.data[0] == 1.0:
            assert nxt.v.data[0] == p.v_reset
        else:
            h = v + (x - v) / tau
            assert nxt.v.data[0] == pytest.approx(h, abs=1e-5)


class TestHeaviside:
    def test_zero_maps_to_one(self):
        assert heaviside(np.array([0.0], dtype=np.float32))[0] == 1.0

    def test_negative_maps_to_zero(self):
        assert heaviside(np.array([-0.1], dtype=np.float32))[0] == 0.0

    def test_positive_maps_to_one(self):
        assert heaviside(np.array([5.0], dtype=np.float32))[0] == 1.0


class TestSurrogate:
    def test_peak_value(self):
        # alpha * sigma(0) * (1 - sigma(0)) = 4 * 0.25 = 1
        assert surrogate_grad(np.array([0.0]), 4.0)[0] == pytest.approx(1.0)

    def test_saturation(self):
        vals = surrogate_grad(np.array([10.0, -10.0]), 4.0)
        assert np.all(vals <= 1e-8)

    def test_even_function(self, rng):
        v = rng.standard_normal(100)
        np.testing.assert_allclose(surrogate_grad(v, 4.0), surrogate_grad(-v, 4.0), rtol=1e-6)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            surrogate_grad(np.zeros(1), 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_bit_equal_to_allocating_call(self, rng, dtype):
        """With ``out`` the derivative lands there, bit-equal to the plain
        call, and v (the caller's scratch) ends holding 1 - s."""
        v = (4.0 * rng.standard_normal(1000)).astype(dtype)
        v[:3] = (0.0, 40.0, -40.0)  # the peak and both saturations (exp overflows)
        want = surrogate_grad(v, 4.0)
        scratch, out = v.copy(), np.empty_like(v)
        assert surrogate_grad(scratch, 4.0, out=out) is out
        assert out.dtype == want.dtype == dtype and out.tobytes() == want.tobytes()
        s = 1.0 / (1.0 + np.exp(-4.0 * v.astype(np.float64)))
        np.testing.assert_allclose(scratch, 1.0 - s, atol=1e-6)


class TestParamValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.5}, {"v_threshold": 0.0, "v_reset": 0.0}, {"alpha": -1.0},
        {"tau": float("nan")}, {"v_threshold": float("nan")}, {"v_reset": float("nan")},
        {"alpha": float("nan")},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LIFParams(**kwargs)

    # finite floats that float32, the model's dtype, cannot hold: beyond its
    # range, or nonzero and rounding to 0
    @pytest.mark.parametrize("key,value", [
        ("tau", 1e300), ("v_threshold", 1e39), ("v_reset", -1e300), ("alpha", 1e300),
        ("alpha", 1e-300),
    ])
    def test_float32_cannot_hold(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite and, unless 0, nonzero "
                                             "in float32"):
            LIFParams(**{key: value})


class TestMultistep:
    def test_t1_reduces_to_single_step(self, rng):
        x = rng.standard_normal((1, 4, 4)).astype(np.float32)
        s_multi = multistep_lif(Tensor(x), DEFAULTS)
        s_single, _ = lif_step(state_of(np.zeros((4, 4))), Tensor(x[0]), DEFAULTS)
        np.testing.assert_array_equal(s_multi.data[0], s_single.data)

    def test_constant_drive_fires_every_step(self):
        # X = V_th * tau clears the threshold from reset at every step
        p = DEFAULTS
        x = np.full((5, 3), p.v_threshold * p.tau, dtype=np.float32)
        s = multistep_lif(Tensor(x), p)
        assert np.all(s.data == 1.0)

    def test_zero_timesteps_rejected(self):
        with pytest.raises(ValueError, match="time step"):
            multistep_lif(Tensor(np.zeros((0, 3))), DEFAULTS)

    def test_binary_output_property(self, rng):
        x = (3.0 * rng.standard_normal((4, 64))).astype(np.float32)
        s = multistep_lif(Tensor(x), DEFAULTS)
        assert set(np.unique(s.data)) <= {0.0, 1.0}

    def test_relaxed_approaches_spiking_away_from_threshold(self, rng):
        # alpha = 100 with inputs keeping |H - V_th| >= 0.1
        p_sharp = LIFParams(alpha=100.0)
        x = rng.choice([0.0, 0.5, 3.0], size=(3, 32)).astype(np.float32)
        spiking = multistep_lif(Tensor(x), p_sharp, mode="spiking")
        relaxed = multistep_lif(Tensor(x), p_sharp, mode="relaxed")
        margin_ok = np.abs(relaxed.data - spiking.data) <= 1e-3
        # only compare sites whose membrane stayed clear of the threshold;
        # with these discrete inputs that is everywhere
        assert margin_ok.mean() > 0.99

    def test_input_scale_folded_into_neuron(self):
        p = DEFAULTS
        x = np.full((2, 4), 8.0, dtype=np.float32)
        scaled = multistep_lif(Tensor(x), p, input_scale=0.125)
        plain = multistep_lif(Tensor(x * 0.125), p)
        np.testing.assert_array_equal(scaled.data, plain.data)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_monotonicity_single_site(self, data):
        v = data.draw(st.floats(-1, 1))
        x = data.draw(st.floats(-3, 3))
        bump = data.draw(st.floats(0, 3))
        s_lo, _ = lif_step(state_of([v]), Tensor([x]), DEFAULTS)
        s_hi, _ = lif_step(state_of([v]), Tensor([x + bump]), DEFAULTS)
        assert s_hi.data[0] >= s_lo.data[0]


class TestRandomDrawProperties:
    def test_reset_sites_exact(self, rng):
        for _ in range(100):
            x = (2.0 * rng.standard_normal((4, 16))).astype(np.float32)
            v = MembraneState(Tensor(np.zeros(16, dtype=np.float32)))
            for t in range(4):
                s, v = lif_step(v, Tensor(x[t]), DEFAULTS)
                fired = s.data == 1.0
                assert np.all(v.v.data[fired] == DEFAULTS.v_reset)

    def test_surrogate_flows_through_threshold(self):
        x = Tensor(np.array([[0.5, 3.0]], dtype=np.float32), requires_grad=True)
        s = multistep_lif(x, DEFAULTS)
        s.sum().backward()
        assert np.all(np.abs(x.grad) > 0)


def _relaxed_step(state, x, params):
    """Composed relaxed step: sigmoid firing, reset not detached."""
    v = state.v
    h = v + (x - (v - params.v_reset)) * (1.0 / params.tau)
    s = ((h - params.v_threshold) * params.alpha).sigmoid()
    return s, MembraneState(h * (1.0 - s) + s * params.v_reset)


def composed_lif(x, params, mode="spiking", input_scale=1.0):
    """The per-step Tensor-op reference for multistep_lif.

    Returns (spikes [T, ...], per-step input leaves whose .grad is dL/dX[t]).
    """
    step = lif_step if mode == "spiking" else _relaxed_step
    leaves = [Tensor(x[t], requires_grad=True, dtype=x.dtype) for t in range(x.shape[0])]
    state = MembraneState(Tensor(np.full(x.shape[1:], params.v_reset), dtype=x.dtype))
    outs = []
    for leaf in leaves:
        xt = leaf * input_scale if input_scale != 1.0 else leaf
        s, state = step(state, xt, params)
        outs.append(s)
    return outs, leaves


class TestFusedAgainstComposed:
    """multistep_lif (one tape node) against a loop of composed steps."""

    CASES = [
        (LIFParams(), 1.0),
        (LIFParams(), 0.125),
        (LIFParams(tau=3.0, v_threshold=0.75, v_reset=-0.25), 1.0),
        (LIFParams(tau=1.5, v_threshold=1.0, v_reset=0.5), 0.125),
    ]

    @pytest.mark.parametrize("params,scale", CASES)
    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    def test_spikes_bit_equal_float32(self, rng, params, scale, steps):
        x = (3.0 * rng.standard_normal((steps, 5, 7)) / scale).astype(np.float32)
        fused = multistep_lif(Tensor(x), params, input_scale=scale)
        ref, _ = composed_lif(x, params, input_scale=scale)
        ref = np.stack([s.data for s in ref])
        assert fused.data.dtype == bool and ref.dtype == np.float32
        assert fused.data.astype(ref.dtype).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    def test_exact_threshold_inputs_bit_equal(self, steps):
        # X = V_th * tau lands H exactly on V_th from the reset potential
        p = LIFParams()
        x = np.full((steps, 6), p.v_threshold * p.tau, dtype=np.float32)
        x[:, ::2] = np.nextafter(x[:, ::2], np.float32(0))
        fused = multistep_lif(Tensor(x), p)
        ref, _ = composed_lif(x, p)
        np.testing.assert_array_equal(fused.data, np.stack([s.data for s in ref]))
        assert np.all(fused.data[0, 1::2] == 1.0) and np.all(fused.data[0, ::2] == 0.0)

    @pytest.mark.parametrize("params,scale", CASES)
    def test_input_gradient_float32_bit_equal(self, rng, params, scale):
        """The backward of bool spikes against the composed tape of float32 0/1
        spikes: ``1 - S`` stays float32 (a Python 1.0 minus bool is float64)."""
        x = (2.0 * rng.standard_normal((4, 3, 5)) / scale).astype(np.float32)
        weight = rng.standard_normal(x.shape).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        (multistep_lif(xt, params, input_scale=scale) * weight).sum().backward()
        outs, leaves = composed_lif(x, params, input_scale=scale)
        loss = outs[0] * weight[0]
        for t in range(1, len(outs)):
            loss = loss + outs[t] * weight[t]
        loss.sum().backward()
        expected = np.stack([leaf.grad for leaf in leaves])
        assert outs[0].data.dtype == expected.dtype == xt.grad.dtype == np.float32
        assert np.any(expected != 0) and xt.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("params,scale", CASES)
    # spiking mode detaches the reset, relaxed mode does not
    @pytest.mark.parametrize("mode,detach", [("spiking", True), ("relaxed", False)])
    def test_input_gradient_float64(self, rng, params, scale, mode, detach):
        x = 2.0 * rng.standard_normal((4, 3, 5)) / scale
        weight = rng.standard_normal(x.shape)
        xt = Tensor(x, requires_grad=True, dtype=np.float64)
        (multistep_lif(xt, params, mode=mode, input_scale=scale) * weight).sum().backward()
        outs, leaves = composed_lif(x, params, mode=mode, input_scale=scale)
        loss = outs[0] * weight[0]
        for t in range(1, len(outs)):
            loss = loss + outs[t] * weight[t]
        loss.sum().backward()
        expected = np.stack([leaf.grad for leaf in leaves])
        assert np.any(expected != 0)
        np.testing.assert_allclose(xt.grad, expected, rtol=0, atol=1e-6)


class TestAllStepsSurrogateDifferential:
    """The backward takes H - V_th, the surrogate and (spiking mode) its
    product with g over all T at once, against the per-step loop it replaced
    (``lif_input_grad_per_step``): bit-equal in float32 and float64, in both
    modes, with and without a reset potential and an input scale."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["spiking", "relaxed"])
    @pytest.mark.parametrize("params,scale", TestFusedAgainstComposed.CASES)
    @pytest.mark.parametrize("steps", [1, 2, 4])
    def test_bit_equal_to_per_step_loop(self, rng, dtype, mode, params, scale, steps):
        x = (2.0 * rng.standard_normal((steps, 6, 5)) / scale).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        (multistep_lif(xt, params, mode=mode, input_scale=scale) * Tensor(g, dtype=dtype)
         ).sum().backward()
        want = lif_input_grad_per_step(x, g, params, mode, scale)
        assert xt.grad.dtype == want.dtype == dtype and np.any(want != 0)
        assert xt.grad.tobytes() == want.tobytes()


class TestChunkedTimeLoop:
    """multistep_lif runs its T loop per block of _LIF_CHUNK neurons: any block
    size gives the spikes and input gradients of the unchunked run, and
    both match a loop of composed steps."""

    CASES = [
        ("spiking", LIFParams(), 1.0),
        ("spiking", LIFParams(tau=1.5, v_threshold=1.0, v_reset=-0.5), 0.125),
        ("relaxed", LIFParams(), 1.0),
        ("relaxed", LIFParams(tau=1.5, v_threshold=1.0, v_reset=-0.5), 0.125),
    ]
    # 35 neurons per step: 7 divides it, 16 does not, 35 and 1 << 20 cover it in one
    CHUNKS = [1, 7, 16, 35, 1 << 20]

    @staticmethod
    def _run(x, params, mode, scale, record):
        xt = Tensor(x, requires_grad=record, dtype=x.dtype)
        out = multistep_lif(xt, params, mode=mode, input_scale=scale)
        assert (out._node is not None) == record
        if record:
            weight = np.linspace(-1.0, 1.0, x.size).reshape(x.shape).astype(x.dtype)
            (out * Tensor(weight, dtype=x.dtype)).sum().backward()
        return out.data, xt.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode,params,scale", CASES)
    @pytest.mark.parametrize("record", [True, False], ids=["tape", "no_grad"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_bit_equal_to_unchunked(self, rng, monkeypatch, dtype, mode, params, scale,
                                    record, chunk):
        x = (2.0 * rng.standard_normal((4, 5, 7)) / scale).astype(dtype)
        spikes, grad = self._run(x, params, mode, scale, record)  # 35 < _LIF_CHUNK: one block
        monkeypatch.setattr(neuron, "_LIF_CHUNK", chunk)
        context = contextlib.nullcontext() if record else no_grad()
        with context:
            got_spikes, got_grad = self._run(x, params, mode, scale, record)
        spike_dtype = bool if mode == "spiking" and dtype == np.float32 else dtype
        assert got_spikes.dtype == spike_dtype and got_spikes.tobytes() == spikes.tobytes()
        if record:
            assert got_grad.dtype == dtype and got_grad.tobytes() == grad.tobytes()
        else:
            assert got_grad is None
        outs, leaves = composed_lif(x, params, mode=mode, input_scale=scale)
        ref = np.stack([s.data for s in outs])
        if mode == "spiking":
            assert got_spikes.astype(ref.dtype).tobytes() == ref.tobytes()
        else:
            np.testing.assert_allclose(got_spikes, ref, rtol=0, atol=1e-6)
        if record and dtype == np.float64:
            weight = np.linspace(-1.0, 1.0, x.size).reshape(x.shape)
            loss = outs[0] * weight[0]
            for t in range(1, len(outs)):
                loss = loss + outs[t] * weight[t]
            loss.sum().backward()
            np.testing.assert_allclose(got_grad, np.stack([leaf.grad for leaf in leaves]),
                                       rtol=0, atol=1e-6)

    @pytest.mark.parametrize("record", [True, False], ids=["tape", "no_grad"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_empty_neuron_axis(self, monkeypatch, record, chunk):
        monkeypatch.setattr(neuron, "_LIF_CHUNK", chunk)
        x = Tensor(np.zeros((3, 0, 4), np.float32), requires_grad=record)
        out = multistep_lif(x, DEFAULTS)
        assert out.shape == (3, 0, 4) and out.data.dtype == bool
        if record:
            out.sum().backward()
            assert x.grad.shape == (3, 0, 4)


class TestRebuiltHistory:
    """A recorded SN keeps its input as every op keeps an operand, and its
    backward runs the forward again over a new array holding it: an SN whose
    input is a batch norm's output keeps no array of its own in its backward,
    which rebuilds the BN output from the arrays the BN node keeps; with the
    rebuild dropped it keeps the BN output's own array, never a copy, and
    leaves it as it was. Spikes and every gradient are bit-equal both ways."""

    LIF = [  # (mode, params, input_scale): v_reset 0 and 0.5, input_scale 1 and 1/8
        (mode, LIFParams(v_reset=v_reset), scale)
        for mode in ("spiking", "relaxed") for v_reset in (0.0, 0.5) for scale in (1.0, 0.125)
    ]

    @staticmethod
    def _run(x, steps, training, mode, params, scale, rebuild):
        rng = np.random.default_rng(7)
        channels = x.shape[-1]
        bn = BatchNorm(channels).astype(x.dtype)
        bn.gamma.data = ((1.0 + rng.random(channels)) * 2.0 / scale).astype(x.dtype)
        bn.beta.data = (rng.standard_normal(channels) / scale).astype(x.dtype)
        bn._buffers["running_mean"] = rng.standard_normal(channels).astype(x.dtype)
        bn._buffers["running_var"] = (0.5 + rng.random(channels)).astype(x.dtype)
        bn.training = training
        xt = Tensor(x, requires_grad=True, dtype=x.dtype)
        y = bn.forward(xt)
        assert y._node.remat is not None
        if not rebuild:
            y._node.remat = None
        before = y.data.copy()
        out = multistep_lif(y.reshape((steps, -1) + x.shape[1:]), params, mode=mode,
                            input_scale=scale)
        kept = [a for _, a in closure_arrays(out._node.backward)]
        if rebuild:  # the BN's rebuild, which holds only arrays the BN node holds
            bn_arrays = {id(_owner(a)) for _, a in node_arrays(y._node)}
            assert kept and {id(_owner(a)) for a in kept} <= bn_arrays
        else:  # the BN output's own array
            assert len(kept) == 1 and kept[0].base is y.data
        weight = np.linspace(-1.0, 1.0, out.size).reshape(out.shape).astype(x.dtype)
        (out * Tensor(weight, dtype=x.dtype)).sum().backward()
        assert y.data.tobytes() == before.tobytes()
        return out.data, xt.grad, bn.gamma.grad, bn.beta.grad

    def _assert_bit_equal(self, x, steps, training, mode, params, scale):
        rebuilt = self._run(x, steps, training, mode, params, scale, rebuild=True)
        kept = self._run(x, steps, training, mode, params, scale, rebuild=False)
        assert rebuilt[0].min() != rebuilt[0].max()  # some sites fire, some do not
        assert np.any(rebuilt[1] != 0)
        for got, expected in zip(rebuilt, kept):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode,params,scale", LIF)
    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_input_gradients_bit_equal(self, rng, monkeypatch, dtype, mode, params, scale,
                                       steps, training):
        monkeypatch.setattr(neuron, "_LIF_CHUNK", 16)  # 30 neurons per step: two blocks
        x = rng.standard_normal((steps * 2, 3, 5)).astype(dtype)
        self._assert_bit_equal(x, steps, training, mode, params, scale)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_more_neurons_than_a_block(self, rng, training):
        x = rng.standard_normal((4, 150, 250)).astype(np.float32)  # n = 75,000 per step
        assert 2 * 150 * 250 > neuron._LIF_CHUNK
        self._assert_bit_equal(x, 2, training, "spiking", LIFParams(v_reset=0.5), 0.125)


class TestKeptInput:
    """An SN whose input nothing rebuilds (a residual sum) keeps that input's
    own array, which other nodes may read too, so its backward runs the
    forward over a copy: after backward() the array is unchanged, and a
    product recorded before the SN, whose backward runs after the SN's,
    reads the input as it was."""

    @pytest.mark.parametrize("mode,dtype", [("spiking", np.float32), ("relaxed", np.float32),
                                            ("spiking", np.float64)])
    @pytest.mark.parametrize("scale", [1.0, 0.125])
    def test_input_array_unchanged_by_backward(self, rng, mode, dtype, scale):
        a = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True, dtype=dtype)
        x = a + Tensor(rng.standard_normal(5), dtype=dtype)  # a residual sum: no rebuild
        before = x.data.copy()
        w = Tensor(np.ones(x.shape), requires_grad=True, dtype=dtype)
        read = x * w  # its backward reads x, and runs after the SN's
        out = multistep_lif(x, LIFParams(v_reset=0.5), mode=mode, input_scale=scale)
        (kept,) = [arr for _, arr in closure_arrays(out._node.backward)]
        assert kept is x.data  # no copy on the tape
        weight = np.linspace(-1.0, 1.0, out.size).reshape(out.shape).astype(dtype)
        (read.sum() + (out * Tensor(weight, dtype=dtype)).sum()).backward()
        assert x.data.tobytes() == before.tobytes()
        assert w.grad.tobytes() == before.tobytes()


class TestPackedSpikes:
    """A recorded call that fires bool spikes keeps them at one bit each
    (``np.packbits``: uint8, ceil(n / 8) bytes for n spikes) in its rebuild,
    which unpacks them for every consumer; its own backward fires them again
    and never unpacks. Any spike count, one that leaves a partial last byte
    included, and a single time step give lif_step's spikes and gradients bit
    for bit. Relaxed mode and float64 inputs fire float arrays, which the
    node does not keep: its backward fires them again too."""

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("neurons", [(1,), (3,), (5, 3)])
    def test_lif_step_gradients_bit_equal(self, rng, steps, neurons):
        x = (2.0 * rng.standard_normal((steps,) + neurons)).astype(np.float32)
        w = rng.standard_normal(x.shape).astype(np.float32)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = multistep_lif(xt, DEFAULTS)
        assert out.size % 8  # the last byte is partial
        kept = list(node_arrays(out._node))
        assert [(name, a.dtype, a.size) for name, a in kept] == \
            [("kept", np.float32, out.size), ("packed", np.uint8, -(-out.size // 8))]
        assert kept[0][1] is xt.data  # the input, no copy: no H history
        (out * wt).sum().backward()  # the weight's gradient reads the spikes back
        outs, leaves = composed_lif(x, DEFAULTS)
        loss = outs[0] * w[0]
        for t in range(1, steps):
            loss = loss + outs[t] * w[t]
        loss.sum().backward()
        spikes = np.stack([s.data for s in outs])
        assert out.data.astype(np.float32).tobytes() == spikes.tobytes()
        assert wt.grad.dtype == np.float32 and wt.grad.tobytes() == spikes.tobytes()
        expected = np.stack([leaf.grad for leaf in leaves])
        assert np.all(expected != 0) and xt.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_own_backward_never_unpacks(self, rng, monkeypatch, read):
        calls = []
        unpack = neuron._unpack
        monkeypatch.setattr(neuron, "_unpack", lambda *a: calls.append(a) or unpack(*a))
        x = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=read)
        out = multistep_lif(x, DEFAULTS)
        assert out._node.remat is not None
        (out * w).sum().backward()  # w's gradient, if it has one, reads the spikes
        assert len(calls) == read and x.grad is not None

    @pytest.mark.parametrize("mode,dtype", [("relaxed", np.float32), ("spiking", np.float64),
                                            ("relaxed", np.float64)])
    def test_float_spikes_are_fired_again(self, rng, monkeypatch, mode, dtype):
        calls = []
        packbits = np.packbits
        monkeypatch.setattr(np, "packbits", lambda *a, **k: calls.append(a) or packbits(*a, **k))
        x = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True, dtype=dtype)
        out = multistep_lif(x, DEFAULTS, mode=mode)
        assert out.data.dtype == dtype and out._node.remat is None
        kept = [a for _, a in node_arrays(out._node)]
        assert len(kept) == 1 and kept[0] is x.data  # the input only, not the spikes
        out.sum().backward()
        assert calls == [] and x.grad.dtype == dtype
