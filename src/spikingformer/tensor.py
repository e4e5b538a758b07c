"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default) and record the operations
applied to them. Calling ``backward()`` on a scalar result walks the recorded
graph in exact reverse creation order and accumulates gradients into every
tensor created with ``requires_grad=True``.

Only the primitives needed by the spiking-transformer stack are provided:
elementwise arithmetic, matmul, conv2d, maxpool2d, reductions, reshape /
transpose, exp / log / sigmoid, and the hard-threshold op whose backward is
the sigmoid surrogate derivative. Inside ``no_grad()`` ops record nothing.

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
        out = _make(self.data + other.data, (self, other))

        def bwd(g):
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(g, other.data.shape))

        out._backward = bwd
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _make(-self.data, (self,))
        out._backward = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        out = _make(self.data * other.data, (self, other))

        def bwd(g):
            if self.requires_grad or self._parents:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad or other._parents:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        out._backward = bwd
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return self * other ** -1.0

    def __pow__(self, exponent: float):
        out = _make(self.data ** exponent, (self,))

        def bwd(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1.0))

        out._backward = bwd
        return out

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        a, b = self.data, other.data
        out = _make(a @ b, (self, other))

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

        out._backward = bwd
        return out

    __matmul__ = matmul

    # -- reductions / shape -------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        out._backward = bwd
        return out

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
        out = _make(self.data.reshape(shape), (self,))
        out._backward = lambda g: self._accumulate(g.reshape(self.data.shape))
        return out

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        out = _make(self.data.transpose(axes), (self,))
        out._backward = lambda g: self._accumulate(g.transpose(inv))
        return out

    # -- pointwise nonlinearities --------------------------------------------

    def exp(self) -> "Tensor":
        e = np.exp(self.data)  # captured instead of out, which would make a cycle
        out = _make(e, (self,))
        out._backward = lambda g: self._accumulate(g * e)
        return out

    def log(self) -> "Tensor":
        out = _make(np.log(self.data), (self,))
        out._backward = lambda g: self._accumulate(g / self.data)
        return out

    def sigmoid(self) -> "Tensor":
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-self.data))
        out = _make(s, (self,))
        out._backward = lambda g: self._accumulate(g * s * (1.0 - s))
        return out


def _make(data: np.ndarray, parents) -> Tensor:
    if not _grad_enabled:
        return Tensor(data)
    tracked = tuple(p for p in parents if p.requires_grad or p._parents)
    return Tensor(data, _parents=tracked)


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
    out = _make(heaviside(v.data), (v,))
    out._backward = lambda g: v._accumulate(g * surrogate_grad(v.data, alpha))
    return out


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


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, padding: int):
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    xpad = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    cols = cols.reshape(b, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            xpad[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += cols[:, :, i, j]
    if padding:
        return xpad[:, :, padding : padding + h, padding : padding + w]
    return xpad


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
    wmat = kernel.data.reshape(o, c * kh * kw)
    y = (wmat @ cols).reshape(b, o, oh, ow)
    if bias is not None:
        y = y + bias.data.reshape(1, o, 1, 1)
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    out = _make(y, parents)

    def bwd(g):
        gmat = g.reshape(b, o, oh * ow)
        if kernel.requires_grad or kernel._parents:
            gw = np.einsum("bop,bkp->ok", gmat, cols, optimize=True)
            kernel._accumulate(gw.reshape(kernel.shape))
        if x.requires_grad or x._parents:
            gcols = np.einsum("ok,bop->bkp", wmat, gmat, optimize=True)
            x._accumulate(_col2im(gcols, x.shape, kh, kw, stride, padding))
        if bias is not None and (bias.requires_grad or bias._parents):
            bias._accumulate(g.sum(axis=(0, 2, 3)))

    out._backward = bwd
    return out


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; odd trailing rows/cols are dropped."""
    b, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ValueError(f"maxpool2d needs spatial dims >= 2, got {h}x{w}")
    oh, ow = h // 2, w // 2
    view = x.data[:, :, : oh * 2, : ow * 2].reshape(b, c, oh, 2, ow, 2)
    patches = view.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, 4)
    arg = patches.argmax(axis=-1)
    y = np.take_along_axis(patches, arg[..., None], axis=-1)[..., 0]
    out = _make(y, (x,))

    def bwd(g):
        gp = np.zeros_like(patches)
        np.put_along_axis(gp, arg[..., None], g[..., None], axis=-1)
        gx = np.zeros_like(x.data)
        gx[:, :, : oh * 2, : ow * 2] = (
            gp.reshape(b, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh * 2, ow * 2)
        )
        x._accumulate(gx)

    out._backward = bwd
    return out


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    mean: Tensor,
    var: Tensor,
    eps: float = 1e-5,
    axis: int = 1,
) -> Tensor:
    """y = gamma * (x - mean) / sqrt(var + eps) + beta, per channel on `axis`."""
    axis = axis % x.ndim
    if x.shape[axis] != gamma.size:
        raise ValueError(f"channel axis {axis} has {x.shape[axis]} channels, "
                         f"params have {gamma.size}")
    if np.any(var.data + eps <= 0):
        raise ValueError("batchnorm requires var + eps > 0")
    shape = [1] * x.ndim
    shape[axis] = -1
    inv_std = (var.reshape(shape) + Tensor(np.asarray(eps, dtype=x.data.dtype))) ** -0.5
    return (x - mean.reshape(shape)) * inv_std * gamma.reshape(shape) + beta.reshape(shape)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    # the max shift is a constant wrt gradients, so it can live outside the tape
    shift = x.data.max(axis=axis, keepdims=True)
    z = x - Tensor(shift)
    return z - z.exp().sum(axis=axis, keepdims=True).log()
