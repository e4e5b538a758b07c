"""LIF dynamics: hand-derived step values, reset/monotonicity properties,
relaxed-mode agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikingformer.neuron import (
    LIFParams,
    MembraneState,
    lif_step,
    multistep_lif,
)
from spikingformer.tensor import Tensor, heaviside, set_default_dtype, surrogate_grad

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


class TestParamValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.5}, {"v_threshold": 0.0, "v_reset": 0.0}, {"alpha": -1.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LIFParams(**kwargs)


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
    leaves = [Tensor(x[t], requires_grad=True) for t in range(x.shape[0])]
    state = state_of(np.full(x.shape[1:], params.v_reset))
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
        assert fused.data.dtype == np.float32
        np.testing.assert_array_equal(fused.data, np.stack([s.data for s in ref]))

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
    @pytest.mark.parametrize("mode,detach", [("spiking", True), ("spiking", False),
                                             ("relaxed", False)])
    def test_input_gradient_float64(self, rng, params, scale, mode, detach):
        set_default_dtype(np.float64)
        try:
            params = LIFParams(tau=params.tau, v_threshold=params.v_threshold,
                               v_reset=params.v_reset, detach_reset=detach)
            x = 2.0 * rng.standard_normal((4, 3, 5)) / scale
            weight = rng.standard_normal(x.shape)
            xt = Tensor(x, requires_grad=True)
            (multistep_lif(xt, params, mode=mode, input_scale=scale)
             * Tensor(weight)).sum().backward()
            outs, leaves = composed_lif(x, params, mode=mode, input_scale=scale)
            loss = outs[0] * Tensor(weight[0])
            for t in range(1, len(outs)):
                loss = loss + outs[t] * Tensor(weight[t])
            loss.sum().backward()
        finally:
            set_default_dtype(np.float32)
        expected = np.stack([leaf.grad for leaf in leaves])
        assert np.any(expected != 0)
        np.testing.assert_allclose(xt.grad, expected, rtol=0, atol=1e-6)
