"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays and record the operations applied to them.
Calling ``backward()`` on a scalar result walks the recorded graph in exact
reverse creation order and accumulates gradients into every tensor created
with ``requires_grad=True``.

Only the primitives needed by the spiking-transformer stack are provided:
elementwise arithmetic, matmul, conv2d, maxpool2d, reductions, reshape /
transpose, exp / log / sigmoid, and the hard-threshold op whose backward is
the sigmoid surrogate derivative. An op records a node only when one of
its operands is tracked (``requires_grad`` or itself recorded); inside
``no_grad()`` or over frozen operands it records nothing, its result holds
no reference to its inputs, and it skips work that only a backward needs.

A new tensor is float32 unless built with another ``dtype`` (float64 is for
finite-difference checks); an op result keeps the dtype numpy computed, and a
constant it lifts takes the dtype of the tensor it meets. A float32 model's
spikes are ``bool``, one byte each (a float64 model's are float64 0/1), and
arithmetic on them is float: where numpy would add or multiply bool operands
alone as logical OR / AND, or sum them as int64, an op counts them in float32,
the model's own dtype; a constant meets them as a float; and a spike's
gradient keeps the float dtype it arrives in.

Gradients are never written in place: ``_accumulate`` keeps the first array
it receives, which may be shared with another tensor's gradient.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Optional, Sequence

import numpy as np

_seq_counter = itertools.count()
_grad_enabled = True


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

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32,
                 _parents=(), _backward=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
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

    @property
    def tracked(self) -> bool:
        """A gradient flows into this tensor: it requires one or was recorded."""
        return self.requires_grad or bool(self._parents)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, dtype=self.data.dtype)

    # -- graph machinery ----------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:  # a gradient is never bool: a spike's stays float
            self.grad = np.asarray(grad, dtype=None if self.data.dtype == bool else self.data.dtype)
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

    def _lift(self, other) -> "Tensor":
        """other as a Tensor; a constant takes this tensor's dtype, or, against
        spikes, its own float dtype (float32 for a Python number)."""
        if isinstance(other, Tensor):
            return other
        dtype = self.data.dtype
        if dtype == bool:
            dtype = np.result_type(other, np.float32)
        return Tensor(other, dtype=dtype)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)

        def bwd(g):
            if self.tracked:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.tracked:
                other._accumulate(_unbroadcast(g, other.data.shape))

        a, b = self.data, other.data
        return _make(np.add(a, b, dtype=_count_dtype(a, b)), (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        a = self.data
        return _make(np.negative(a, dtype=_count_dtype(a)), (self,),
                     lambda g: self._accumulate(-g))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)

        def bwd(g):
            if self.tracked:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.tracked:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        a, b = self.data, other.data
        return _make(np.multiply(a, b, dtype=_count_dtype(a, b)), (self, other), bwd)

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
        dtype = _count_dtype(a, b)

        def bwd(g):
            if self.tracked:
                ga = g @ np.swapaxes(_as_float(b, g), -1, -2)
                self._accumulate(_unbroadcast(ga, a.shape))
            if other.tracked:
                fa = _as_float(a, g)
                if b.ndim == 2:  # one GEMM over every leading axis of a
                    gb = fa.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = _unbroadcast(np.swapaxes(fa, -1, -2) @ g, b.shape)
                other._accumulate(gb)

        y = _token_gemm(a, b, dtype) if b.ndim == 2 else np.matmul(a, b, dtype=dtype)
        return _make(y, (self, other), bwd)

    __matmul__ = matmul

    # -- reductions / shape -------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        data = self.data
        return _make(data.sum(axis=axis, keepdims=keepdims, dtype=_count_dtype(data)), (self,), bwd)

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
# the live rows, and of silent images from which a tape-free conv2d builds
# patch rows for the live images only. On the 4-384 token GEMMs (2048 rows of
# 384 or 1536) the gather and scatter break even at 15-22% silent rows; at 1/4
# the live-row GEMM is 5-14% faster on every shape.
_SILENT_ROW_SHARE = 0.25


def _count_dtype(*arrays):
    """The ``dtype=`` an op over these arrays computes in: numpy's own (None),
    except that bool operands alone (spikes: only float32 models have them)
    count in float32 where numpy would take a logical OR / AND or an int64 sum."""
    return np.float32 if all(a.dtype == bool for a in arrays) else None


def _as_float(x: np.ndarray, like: np.ndarray) -> np.ndarray:
    """x, or, for bool spikes, their copy in ``like``'s float dtype and in x's
    memory layout, for a backward GEMM against a gradient. The GEMM is then
    the float path's BLAS call: numpy's own cast of a transposed bool operand
    lays it out anew, and the other BLAS kernel can round the sum differently."""
    return x.astype(like.dtype) if x.dtype == bool else x


def _live_if_sparse(x: np.ndarray, axis):
    """Which entries of x's first axis hold a nonzero (``x.any(axis=axis)``),
    or None when fewer than _SILENT_ROW_SHARE of them are silent."""
    live = x.any(axis=axis)
    if len(live) - np.count_nonzero(live) < _SILENT_ROW_SHARE * len(live):
        return None
    return live


def _token_gemm(a: np.ndarray, b: np.ndarray, dtype=None) -> np.ndarray:
    """a @ b for a 2-D b as one flat [M, K] GEMM over every leading axis of a,
    multiplied in ``dtype`` when given.

    Event-driven: when at least _SILENT_ROW_SHARE of a's rows hold no nonzero
    (no spike arrived at that token), only the live rows are multiplied and
    the silent rows of the result are exact zeros.
    """
    rows = a.reshape(-1, a.shape[-1])
    out_shape = a.shape[:-1] + b.shape[1:]
    live = _live_if_sparse(rows, axis=1)
    if live is None:
        return np.matmul(rows, b, dtype=dtype).reshape(out_shape)
    y = np.zeros((len(rows), b.shape[1]), dtype=np.result_type(a, b) if dtype is None else dtype)
    y[live] = np.matmul(rows[live], b, dtype=dtype)
    return y.reshape(out_shape)


def _records(parents) -> bool:
    """An op over these operands records a tape node: grad is enabled and one
    of them is tracked. An op that does not record may skip work that only its
    backward needs."""
    return _grad_enabled and any(p.tracked for p in parents)


def _make(data: np.ndarray, parents, backward) -> Tensor:
    """An op's result: a tape node over its tracked parents, or, when the op
    does not record (``_records``), a plain tensor that keeps no ``backward``
    closure and so no reference to the op's inputs."""
    if not _records(parents):
        return Tensor(data, dtype=None)
    tracked = tuple(p for p in parents if p.tracked)
    return Tensor(data, dtype=None, _parents=tracked, _backward=backward)


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


def _patch_rows(x: np.ndarray):
    """[B*H*W, 9*C] patch rows of a [B, H, W, C] map, K in (kh, kw, c) order: the
    reshape of one strided view of the zero-padded map copies each patch once."""
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2, w + 2, c), dtype=x.dtype)
    xp[:, 1 : h + 1, 1 : w + 1] = x
    sb, sh, sw, sc = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(b, h, w, 3, 3, c),
        strides=(sb, sh, sw, sh, sw, sc),
        writeable=False,
    )
    return patches.reshape(b * h * w, 9 * c)


def _conv2d_input_grad(g_rows: np.ndarray, k2d: np.ndarray, x_shape):
    """Gradient of conv2d wrt its [B, H, W, C] input: the adjoint of _patch_rows.

    ``g_rows @ k2d.T`` gives the gradient of every patch row, K in the same
    (kh, kw, c) order; each tap's slice is added back into a (b, h+2, w+2, c)
    buffer, whose interior is copied out (so the padded buffer is freed).
    """
    b, h, w, c = x_shape
    taps = (g_rows @ k2d.T).reshape(b, h, w, 3, 3, c)
    xpad = np.zeros((b, h + 2, w + 2, c), dtype=taps.dtype)
    for i in range(3):
        for j in range(3):
            xpad[:, i : i + h, j : j + w] += taps[..., i, j, :]
    return np.ascontiguousarray(xpad[:, 1 : h + 1, 1 : w + 1])


def conv2d(x: Tensor, kernel: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """3x3 same cross-correlation (stride 1, zero padding 1) of a channels-last
    [B, H, W, C] map with a [3, 3, C, O] kernel, giving [B, H, W, O]: the
    tokenizer's only convolution (it downsamples by maxpool).

    The kernel is stored as its GEMM operand: the patch rows [B*H*W, 9*C]
    meet its [9*C, O] view in one dense GEMM, and the weight gradient is
    ``rows.T @ g_rows`` in the kernel's own shape. A call that records no tape
    node is event-driven: once at least _SILENT_ROW_SHARE of the images are
    all-zero, only the live images are patched and multiplied, and a silent
    image's output is the bias (or zero).
    """
    if kernel.ndim != 4 or kernel.shape[:2] != (3, 3):
        raise ValueError(f"conv2d takes a [3, 3, C, O] kernel, got shape {kernel.shape}")
    b, h, w, c = x.shape
    ck, o = kernel.shape[2:]
    if ck != c:
        raise ValueError(
            f"conv2d channel mismatch: input of shape {x.shape} read as [B, H, W, C] has "
            f"C={c}, kernel [kh, kw, C, O] expects C={ck}"
        )
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    k2d = kernel.data.reshape(-1, o)
    # the weight gradient needs every patch row, so a recording call stays dense
    live = None if _records(parents) else _live_if_sparse(x.data, axis=(1, 2, 3))
    if live is None:
        rows = _patch_rows(x.data)
        y = rows @ k2d
    else:  # event-driven: patch rows and GEMM for the images that carry a spike
        rows = _patch_rows(x.data[live])
        y = np.zeros((b, h * w, o), dtype=np.result_type(rows, k2d))
        y[live] = (rows @ k2d).reshape(-1, h * w, o)
    if bias is not None:
        y += bias.data

    def bwd(g):
        g_rows = g.reshape(-1, o)
        if kernel.tracked:
            kernel._accumulate((_as_float(rows, g_rows).T @ g_rows).reshape(kernel.shape))
        if x.tracked:
            x._accumulate(_conv2d_input_grad(g_rows, k2d, x.shape))
        if bias is not None and bias.tracked:
            bias._accumulate(g_rows.sum(axis=0))

    return _make(y.reshape(b, h, w, o), parents, bwd)


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over axes 1-2 of a channels-last
    [B, H, W, C] map; odd trailing rows/cols are dropped.

    The forward is the max of the four strided views; the backward sends each
    gradient to the first maximal view in (0,0), (0,1), (1,0), (1,1) order,
    which is where argmax over the window would send it when spikes tie.
    """
    h, w = x.shape[1:3]
    if h < 2 or w < 2:
        raise ValueError(f"maxpool2d needs spatial dims >= 2, got {h}x{w}")
    oh, ow = h // 2, w // 2
    windows = [(slice(None), slice(i, 2 * oh, 2), slice(j, 2 * ow, 2))
               for i in (0, 1) for j in (0, 1)]
    views = [x.data[win] for win in windows]
    y = np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))

    def bwd(g):
        gx = np.zeros(x.shape, dtype=g.dtype)  # not x's dtype: spikes are bool
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
    z = x - shift
    return z - z.exp().sum(axis=axis, keepdims=True).log()
