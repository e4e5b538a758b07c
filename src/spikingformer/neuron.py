"""Multistep Leaky Integrate-and-Fire neurons.

Forward dynamics (per time step, elementwise):

    H[t] = V[t-1] + (X[t] - (V[t-1] - V_reset)) / tau
    S[t] = step(H[t] - V_th)            (1 when the argument is >= 0)
    V[t] = H[t] * (1 - S[t]) + V_reset * S[t]

The hard threshold is not differentiable, so the recorded backward uses the
derivative of the sigmoid 1/(1+exp(-alpha*x)) in its place. A fully smooth
"relaxed" mode (sigmoid firing, no binary reset) exists for end-to-end
finite-difference checking only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _make, spike_threshold, surrogate_grad

SPIKING = "spiking"
RELAXED = "relaxed"


@dataclass(frozen=True)
class LIFParams:
    """Neuron constants shared by every site of a spiking layer."""

    tau: float = 2.0
    v_threshold: float = 1.0
    v_reset: float = 0.0
    alpha: float = 4.0
    # treat the reset term's dependence on the spike as a constant in backward
    detach_reset: bool = True

    def __post_init__(self):
        # written as ``not x >= bound`` so that NaN fails every check
        if not self.tau >= 1.0:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if not self.v_threshold > self.v_reset:
            raise ValueError("v_threshold must exceed v_reset")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")


@dataclass
class MembraneState:
    """Per-neuron membrane potentials carried across time steps."""

    v: Tensor


def lif_step(state: MembraneState, x: Tensor, params: LIFParams):
    """One integrate-fire-reset step. Returns (spikes, next state).

    The composed single-step reference that ``multistep_lif`` must match.
    """
    if state.v.shape != x.shape:
        raise ValueError(f"state shape {state.v.shape} != input shape {x.shape}")
    v = state.v
    h = v + (x - (v - params.v_reset)) * (1.0 / params.tau)
    s = spike_threshold(h - params.v_threshold, params.alpha)
    s_reset = s.detach() if params.detach_reset else s
    v_next = h * (1.0 - s_reset) + s_reset * params.v_reset
    return s, MembraneState(v_next)


def multistep_lif(
    x: Tensor,
    params: LIFParams,
    mode: str = SPIKING,
    input_scale: float = 1.0,
) -> Tensor:
    """Run LIF dynamics along the leading time axis of x ([T, ...]) as one tape node.

    The membrane starts at V_reset. ``input_scale`` pre-multiplies the input
    current inside the neuron, which is how constant attention scales are
    absorbed without a standalone float multiply in the spike path. Spiking
    mode repeats ``lif_step``'s float operations in the same order, so its
    spikes are bit-equal to a loop of ``lif_step``; relaxed mode fires
    sigmoid(alpha * (H - V_th)) and never detaches the reset. The backward
    runs the BPTT recurrence in reverse over T.
    """
    if x.shape[0] < 1:
        raise ValueError("multistep_lif needs at least one time step")
    if mode not in (SPIKING, RELAXED):
        raise ValueError(f"unknown mode {mode!r}")
    xd = x.data
    dt = xd.dtype.type
    decay, v_th, v_reset = dt(1.0 / params.tau), dt(params.v_threshold), dt(params.v_reset)
    spikes = np.empty_like(xd)
    hs = np.empty_like(xd)  # H[t], kept for the backward
    v = np.full(xd.shape[1:], v_reset, dtype=xd.dtype)
    reset = np.empty_like(v) if v_reset else None
    for t in range(xd.shape[0]):  # lif_step's operations, in preallocated buffers
        h, s = hs[t], spikes[t]
        xt = xd[t] * dt(input_scale) if input_scale != 1.0 else xd[t]
        # with V_reset = 0, V - V_reset and + S * V_reset change no value
        np.subtract(xt, np.subtract(v, v_reset, out=h) if v_reset else v, out=h)
        np.add(v, np.multiply(h, decay, out=h), out=h)
        if mode == SPIKING:
            np.greater_equal(h, v_th, out=s)  # same sign as fl(H - V_th)
        else:
            with np.errstate(over="ignore"):
                s[...] = 1.0 / (1.0 + np.exp(-((h - v_th) * dt(params.alpha))))
        np.multiply(h, np.subtract(1.0, s, out=v), out=v)
        if v_reset:
            np.add(v, np.multiply(s, v_reset, out=reset), out=v)
    detach = params.detach_reset and mode == SPIKING

    def bwd(g):
        # BPTT in reverse over T, taking the products in the order the composed
        # lif_step tape takes them. dS/dH is the surrogate at H - V_th; dV/dH
        # is (1 - S), plus (V_reset - H) dS/dH when the reset is not detached;
        # dH/dV_prev is 1 - 1/tau and dH/dX is input_scale/tau.
        gx = np.empty_like(xd)
        g_v = np.zeros_like(hs[0])
        for t in range(xd.shape[0] - 1, -1, -1):
            sg = surrogate_grad(hs[t] - v_th, params.alpha)
            g_h = g_v * (1.0 - spikes[t])
            if detach:
                g_h += g[t] * sg
            else:
                g_h += ((g[t] + g_v * v_reset) - g_v * hs[t]) * sg
            np.multiply(g_h, decay, out=gx[t])
            g_v = np.subtract(g_h, gx[t], out=g_h)
            if input_scale != 1.0:
                gx[t] *= dt(input_scale)
        x._accumulate(gx)

    return _make(spikes, (x,), bwd)
