"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default) and record the operations
applied to them. Calling ``backward()`` on a scalar result walks the recorded
graph in exact reverse creation order and accumulates gradients into every
tensor created with ``requires_grad=True``.

Only the primitives needed by the spiking-transformer stack are provided:
elementwise arithmetic, matmul, conv2d, maxpool2d, reductions, reshape /
transpose, exp / log / sigmoid, and the hard-threshold op whose backward is
the sigmoid surrogate derivative. An op records a node only when one of
its operands is tracked (``requires_grad`` or itself recorded); inside
``no_grad()`` or over frozen operands it records nothing, and its result
holds no reference to its inputs.

Gradients are never written in place: ``_accumulate`` keeps the first array
it receives, which may be shared with another tensor's gradient.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Optional, Sequence

import numpy as np

_DEFAULT_DTYPE = np.float32
_seq_counter = itertools.count()
_grad_enabled = True


def set_default_dtype(dtype) -> None:
    """Set the float dtype for newly created tensors (float32 or float64).

    float64 exists for finite-difference gradient checking only; production
    paths run in float32.
    """
    global _DEFAULT_DTYPE
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype!r}")
    _DEFAULT_DTYPE = dtype


def default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def no_grad():
    """Run the enclosed ops without recording a tape (forward-only passes)."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A dense array plus optional participation in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = tuple(_parents)
        self._backward = _backward
        self._seq = next(_seq_counter)

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph machinery ----------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=self.data.dtype)
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Visits recorded nodes in exact reverse creation order, which is a
        valid reverse topological order because every op's output is created
        after its operands.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        nodes = {}
        stack = [self]
        while stack:
            t = stack.pop()
            if t._seq in nodes:
                continue
            nodes[t._seq] = t
            stack.extend(t._parents)
        self._accumulate(np.ones_like(self.data))
        for seq in sorted(nodes, reverse=True):
            t = nodes[seq]
            if t._parents and t.grad is not None:
                t._backward(t.grad)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _lift(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)

        def bwd(g):
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return _make(self.data + other.data, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.data, (self,), lambda g: self._accumulate(-g))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)

        def bwd(g):
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return _make(self.data * other.data, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return self * other ** -1.0

    def __pow__(self, exponent: float):
        def bwd(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1.0))

        return _make(self.data ** exponent, (self,), bwd)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data

        def bwd(g):
            if self.requires_grad or self._parents:
                ga = g @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(ga, a.shape))
            if other.requires_grad or other._parents:
                if b.ndim == 2:  # one GEMM over every leading axis of a
                    gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
                other._accumulate(gb)

        return _make(_token_gemm(a, b) if b.ndim == 2 else a @ b, (self, other), bwd)

    __matmul__ = matmul

    # -- reductions / shape -------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return _make(self.data.sum(axis=axis, keepdims=keepdims), (self,), bwd)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _make(self.data.reshape(shape), (self,),
                     lambda g: self._accumulate(g.reshape(self.data.shape)))

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        return _make(self.data.transpose(axes), (self,),
                     lambda g: self._accumulate(g.transpose(inv)))

    # -- pointwise nonlinearities --------------------------------------------

    def exp(self) -> "Tensor":
        e = np.exp(self.data)  # captured instead of the result, which would make a cycle
        return _make(e, (self,), lambda g: self._accumulate(g * e))

    def log(self) -> "Tensor":
        return _make(np.log(self.data), (self,), lambda g: self._accumulate(g / self.data))

    def sigmoid(self) -> "Tensor":
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-self.data))
        return _make(s, (self,), lambda g: self._accumulate(g * s * (1.0 - s)))


# Share of silent (all-zero) rows of a from which _token_gemm multiplies only
# the live rows. On the 4-384 token GEMMs (2048 rows of 384 or 1536) the
# gather and scatter break even at 15-22% silent rows; at 1/4 the live-row
# GEMM is 5-14% faster on every shape.
_SILENT_ROW_SHARE = 0.25


def _token_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D b as one flat [M, K] GEMM over every leading axis of a.

    Event-driven: when at least _SILENT_ROW_SHARE of a's rows hold no nonzero
    (no spike arrived at that token), only the live rows are multiplied and
    the silent rows of the result are exact zeros.
    """
    rows = a.reshape(-1, a.shape[-1])
    out_shape = a.shape[:-1] + b.shape[1:]
    live = rows.any(axis=1)
    n_live = np.count_nonzero(live)
    if len(rows) - n_live < _SILENT_ROW_SHARE * len(rows):
        return (rows @ b).reshape(out_shape)
    y = np.zeros((len(rows), b.shape[1]), dtype=np.result_type(a, b))
    y[live] = rows[live] @ b
    return y.reshape(out_shape)


def _make(data: np.ndarray, parents, backward) -> Tensor:
    """An op's result: a tape node over its tracked parents, or, when no
    parent is tracked or inside ``no_grad()``, a plain tensor that keeps no
    ``backward`` closure and so no reference to the op's inputs."""
    tracked = tuple(p for p in parents if p.requires_grad or p._parents) if _grad_enabled else ()
    return Tensor(data, _parents=tracked, _backward=backward if tracked else None)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


# -- spiking threshold -------------------------------------------------------


def heaviside(v: np.ndarray) -> np.ndarray:
    """Elementwise step function with the v == 0 case mapping to 1."""
    return (v >= 0).astype(v.dtype)


def surrogate_grad(v: np.ndarray, alpha: float) -> np.ndarray:
    """Derivative of the sigmoid surrogate 1/(1+exp(-alpha*v)) wrt v."""
    if alpha <= 0:
        raise ValueError("surrogate sharpness alpha must be > 0")
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-alpha * np.asarray(v)))
    return alpha * s * (1.0 - s)


def spike_threshold(v: Tensor, alpha: float) -> Tensor:
    """Heaviside forward, sigmoid-surrogate backward.

    Forward emits exact binary spikes; the recorded backward replaces the
    (zero a.e.) step derivative with the surrogate evaluated at v.
    """
    return _make(heaviside(v.data), (v,),
                 lambda g: v._accumulate(g * surrogate_grad(v.data, alpha)))


# -- structured ops -----------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    b, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    sb, sc, sh, sw = x.strides
    cols = np.lib.stride_tricks.as_strided(
        x,
        shape=(b, c, kh, kw, oh, ow),
        strides=(sb, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    return cols.reshape(b, c * kh * kw, oh * ow), (oh, ow)


def _conv2d_input_grad(g: np.ndarray, kernel: np.ndarray, x_shape, stride: int, padding: int):
    """Gradient of conv2d wrt its [B, C, H, W] input, computed channels-last.

    One broadcast GEMM gives every kernel tap's contribution laid out
    (kh, kw, oh, ow, b, c); each tap is then added into a (hp, wp, b, c)
    buffer, whose inner axis is b*c wide, and one transpose returns NCHW.
    """
    b, c, h, w = x_shape
    o, _, kh, kw = kernel.shape
    oh, ow = g.shape[2:]
    hp, wp = h + 2 * padding, w + 2 * padding
    g_rows = g.transpose(2, 3, 0, 1).reshape(oh * ow * b, o)
    taps = (g_rows @ kernel.transpose(2, 3, 0, 1)).reshape(kh, kw, oh, ow, b, c)
    xpad = np.zeros((hp, wp, b, c), dtype=taps.dtype)
    for i in range(kh):
        for j in range(kw):
            xpad[i : i + oh * stride : stride, j : j + ow * stride : stride] += taps[i, j]
    gx = xpad[padding : padding + h, padding : padding + w].transpose(2, 3, 0, 1)
    return np.ascontiguousarray(gx)


def conv2d(
    x: Tensor,
    kernel: Tensor,
    stride: int = 1,
    padding: int = 0,
    bias: Optional[Tensor] = None,
) -> Tensor:
    """2D cross-correlation over [B, C, H, W] with an [O, C, kh, kw] kernel."""
    b, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, kernel expects {ck}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ValueError(
            f"conv2d kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    cols, (oh, ow) = _im2col(x.data, kh, kw, stride, padding)
    k = kernel.data
    y = (k.reshape(o, c * kh * kw) @ cols).reshape(b, o, oh, ow)
    if bias is not None:
        y = y + bias.data.reshape(1, o, 1, 1)
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bwd(g):
        if kernel.requires_grad or kernel._parents:
            gw = np.tensordot(g.reshape(b, o, oh * ow), cols, axes=([0, 2], [0, 2]))
            kernel._accumulate(gw.reshape(kernel.shape))
        if x.requires_grad or x._parents:
            x._accumulate(_conv2d_input_grad(g, k, (b, c, h, w), stride, padding))
        if bias is not None and (bias.requires_grad or bias._parents):
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    return _make(y, parents, bwd)


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; odd trailing rows/cols are dropped.

    The forward is the max of the four strided views; the backward sends each
    gradient to the first maximal view in (0,0), (0,1), (1,0), (1,1) order,
    which is where argmax over the window would send it when spikes tie.
    """
    b, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ValueError(f"maxpool2d needs spatial dims >= 2, got {h}x{w}")
    oh, ow = h // 2, w // 2
    windows = [(slice(None), slice(None), slice(i, 2 * oh, 2), slice(j, 2 * ow, 2))
               for i in (0, 1) for j in (0, 1)]
    views = [x.data[win] for win in windows]
    y = np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))

    def bwd(g):
        gx = np.zeros_like(x.data)
        free = np.ones(y.shape, dtype=bool)  # no maximal view found yet
        for win, view in zip(windows, views):
            hit = np.equal(view, y)
            hit &= free
            np.copyto(gx[win], g, where=hit)
            free ^= hit
        x._accumulate(gx)

    return _make(y, (x,), bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    # the max shift is a constant wrt gradients, so it can live outside the tape
    shift = x.data.max(axis=axis, keepdims=True)
    z = x - Tensor(shift)
    return z - z.exp().sum(axis=axis, keepdims=True).log()
