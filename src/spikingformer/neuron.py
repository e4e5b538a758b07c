"""Multistep Leaky Integrate-and-Fire neurons.

Forward dynamics (per time step, elementwise):

    H[t] = V[t-1] + (X[t] - (V[t-1] - V_reset)) / tau
    S[t] = step(H[t] - V_th)            (1 when the argument is >= 0)
    V[t] = H[t] * (1 - S[t]) + V_reset * S[t]

The hard threshold is not differentiable, so the recorded backward uses the
derivative of the sigmoid 1/(1+exp(-alpha*x)) in its place. A fully smooth
"relaxed" mode (sigmoid firing, no binary reset) exists for end-to-end
finite-difference checking only. Spiking mode is where a spike's dtype is
chosen: a float32 input fires ``bool`` spikes, one byte per neuron (one bit
on the tape), and any other float input (float64, the finite-difference
precision) fires 0/1 in its own dtype. Relaxed-mode outputs are not binary
and keep the input's dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    Tensor,
    _kept,
    _make,
    _read_new,
    _records,
    require_float32,
    spike_threshold,
    surrogate_grad,
)

SPIKING = "spiking"
RELAXED = "relaxed"

# Neurons per block of multistep_lif's T loop: 256 KB of float32 per buffer,
# so each step's x, H, S and V slices stay in a 2 MB L2 cache.
_LIF_CHUNK = 1 << 16


@dataclass(frozen=True)
class LIFParams:
    """Neuron constants shared by every site of a spiking layer."""

    tau: float = 2.0
    v_threshold: float = 1.0
    v_reset: float = 0.0
    alpha: float = 4.0

    def __post_init__(self):
        # written as ``not x >= bound`` so that NaN fails every check
        if not self.tau >= 1.0:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if not self.v_threshold > self.v_reset:
            raise ValueError(f"v_threshold {self.v_threshold} must exceed v_reset {self.v_reset}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        for key in ("tau", "v_threshold", "v_reset", "alpha"):
            require_float32(key, getattr(self, key))


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
    s_reset = s.detach()  # the reset's dependence on the spike is a constant in backward
    v_next = h * (1.0 - s_reset) + s_reset * params.v_reset
    return s, MembraneState(v_next)


def _pack(spikes: np.ndarray) -> np.ndarray:
    """bool spikes at one bit each (uint8, ceil(size / 8) bytes): the tape's copy."""
    return np.packbits(spikes)


def _unpack(bits: np.ndarray, shape) -> np.ndarray:
    """A new bool array of ``shape`` holding the spikes ``_pack`` gave ``bits``."""
    return np.unpackbits(bits, count=math.prod(shape)).view(bool).reshape(shape)


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
    spikes (``bool`` for a float32 x, else 0/1 in x's dtype) equal a loop of
    ``lif_step``'s float ones; relaxed mode fires sigmoid(alpha * (H - V_th))
    and never detaches the reset. A call that records a tape node keeps its
    input as every op keeps an operand (``_kept``, the ``tensor`` module's
    rebuild rule), and its backward runs the forward again over a new array
    holding that input (``_read_new``): H overwrites it in place, the spikes
    fire into a new buffer, so both are the forward's bit for bit. The
    surrogate derivative is then taken over all T at once, and only the BPTT
    recurrence runs in reverse step by step. ``bool`` spikes are kept too, at
    one bit each (``np.packbits``, uint8 of ceil(n / 8) bytes for n spikes),
    for the consumers: their unpacking is the node's rebuild, which its own
    backward never reads. In spiking mode the backward allocates one [T, n]
    buffer and a row per call, and nothing per step.
    """
    if x.shape[0] < 1:
        raise ValueError("multistep_lif needs at least one time step")
    if mode not in (SPIKING, RELAXED):
        raise ValueError(f"unknown mode {mode!r}")
    xd = x.data
    dt = xd.dtype.type
    decay, v_th, v_reset = dt(1.0 / params.tau), dt(params.v_threshold), dt(params.v_reset)
    shape, steps, n = xd.shape, xd.shape[0], math.prod(xd.shape[1:])
    one = dt(1.0)  # 1 - S in x's dtype: a Python 1.0 minus bool spikes is float64 (NEP 50)
    spike_dtype = bool if mode == SPIKING and dt is np.float32 else dt

    def sweep(x2, in_place=False):
        """lif_step's operations over [T, n] rows: the [T, n] spikes, with
        H[t] written over x2[t] if ``in_place``, else into scratch."""
        s2 = np.empty((steps, n), dtype=spike_dtype)
        bufs = [np.empty(min(n, _LIF_CHUNK), dtype=x2.dtype) for _ in range(4)]
        for lo in range(0, n, _LIF_CHUNK):  # the whole T loop per chunk, so its slices stay in cache
            hi = min(lo + _LIF_CHUNK, n)
            v, h_tmp, x_tmp, reset = (buf[: hi - lo] for buf in bufs)
            v.fill(v_reset)
            for t in range(steps):
                h = x2[t, lo:hi] if in_place else h_tmp
                s = s2[t, lo:hi]
                xt = x2[t, lo:hi]
                if input_scale != 1.0:
                    xt = np.multiply(xt, dt(input_scale), out=x_tmp)
                # with V_reset = 0, V - V_reset and + S * V_reset change no value
                np.subtract(xt, np.subtract(v, v_reset, out=reset) if v_reset else v, out=h)
                np.add(v, np.multiply(h, decay, out=h), out=h)
                if mode == SPIKING:
                    np.greater_equal(h, v_th, out=s)  # same sign as fl(H - V_th)
                else:
                    with np.errstate(over="ignore"):
                        s[...] = 1.0 / (1.0 + np.exp(-((h - v_th) * dt(params.alpha))))
                if t + 1 == steps:  # nothing reads the membrane after the last step
                    break
                np.multiply(h, np.subtract(one, s, out=v), out=v)
                if v_reset:
                    np.add(v, np.multiply(s, v_reset, out=reset), out=v)
        return s2.reshape(shape)

    spikes = sweep(xd.reshape(steps, n))
    kept = _kept(x)
    # a recorded call keeps bool spikes at one bit each, and its rebuild unpacks them
    packed = _pack(spikes) if spike_dtype is bool and _records((x,)) else None

    def bwd(g):
        # BPTT in reverse over T, taking the products in the order the composed
        # lif_step tape takes them. dS/dH is the surrogate at H - V_th; dV/dH
        # is (1 - S), plus (V_reset - H) dS/dH in relaxed mode (reset not
        # detached); dH/dV_prev is 1 - 1/tau and dH/dX is input_scale/tau.
        # Every step's elementwise work that does not read the recurrence
        # runs once over all [T, n]: H - V_th, the surrogate, and in spiking
        # mode its product with g (the reset is detached). Only g_h's update
        # is per step. Spiking mode allocates one [T, n] buffer, the surrogate:
        # H's own buffer is the surrogate's scratch, then holds 1 - S, and each
        # of its rows receives its step's gradient once that step has read it.
        # Relaxed mode reads H again in the reverse loop, so gx has a buffer
        # of its own.
        h_all = _read_new(kept).reshape(steps, n)
        spikes = sweep(h_all, in_place=True).reshape(steps, n)  # the forward again: H over the input
        g2 = g.reshape(steps, n)
        if mode == SPIKING:
            sg = surrogate_grad(np.subtract(h_all, v_th, out=h_all), params.alpha,
                                out=np.empty_like(h_all))
            np.multiply(g2, sg, out=sg)
            gx = h_all
        else:
            sg = surrogate_grad(h_all - v_th, params.alpha)
            gx = np.empty_like(h_all)
        np.subtract(one, spikes, out=gx)
        g_h = np.zeros_like(h_all[0])
        for t in range(steps - 1, -1, -1):
            if mode == RELAXED:
                sg[t] *= (g2[t] + g_h * v_reset) - g_h * h_all[t]
            np.multiply(g_h, gx[t], out=g_h)
            g_h += sg[t]
            np.multiply(g_h, decay, out=gx[t])
            np.subtract(g_h, gx[t], out=g_h)
        if input_scale != 1.0:
            gx *= dt(input_scale)
        return (gx.reshape(shape),)

    return _make(spikes, (x,), bwd, None if packed is None else lambda: _unpack(packed, shape))
