"""Minimal dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays. An op over a tracked operand gives its result a
tape node (``_Node``): per operand the operand's node, or the operand itself
if it is a leaf (a parameter, or an input built with ``requires_grad=True``);
the backward closure; the op's rebuild, if it has one; a gradient slot; and
the shape and dtype that gradient takes. Only recorded ops have nodes: a leaf
keeps its gradient in its own ``grad``. A node holds no array of its own
output, and its closure captures only what its backward reads (a product its
operands, a reshape a shape, a conv its input map, a batch norm its
normalised input and inverse deviation), so an intermediate that no backward
reads is freed with its last Python reference. Calling ``backward()`` on a
scalar result runs the recorded closures in exact reverse creation order
and accumulates gradients into every leaf it reaches; each node is released
as soon as its closure has run (its gradient, closure, parents and rebuild
dropped), and only leaves keep ``.grad``. A second ``backward()`` through a
released graph raises ``RuntimeError``.

The rebuild rule. An op may hand ``_make`` a rebuild of its output (the
node's ``remat``): a call that returns a new array equal, bit for bit, to
that output, from what the op's closure holds already. A batch norm's is
``x_hat * gamma + beta``, a LIF layer's unpacks its spikes from the one bit
each it keeps, a matmul's multiplies its operands again, a maxpool's pools
its input's rebuild, and a reshape or a transpose views its input's rebuild.
A backward keeps each operand as ``_kept`` gives it: its producer's rebuild
where there is one, else its array. So no bool buffer, nor attention's
product of spikes, outlives the forward. A LIF layer keeps its input so,
like every other op, and its backward runs its forward again over a new
array holding it (``_read_new``): no ``H`` history is on the tape.

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
spikes are ``bool``, one byte each in the forward and one bit each on the
tape (a float64 model's are float64 0/1), and arithmetic on them is float:
where numpy would add or multiply bool operands alone as logical OR / AND,
or sum them as int64, an op counts them in float32, the model's own dtype;
a constant meets them as a float; and a spike's gradient keeps the float
dtype it arrives in.

Gradients are never written in place: a node or a leaf keeps the first array
it receives, which may be shared with another node's gradient.
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


def require_float32(name: str, value: float) -> None:
    """Raise ``ValueError`` unless float32, a model's dtype, holds the float
    ``value``: it must be finite there and, unless 0, must not round to 0.
    ``name`` opens the message."""
    with np.errstate(over="ignore"):
        single = np.float32(value)
    if not np.isfinite(single) or (single == 0) != (value == 0):
        raise ValueError(f"{name} must be finite and, unless 0, nonzero in float32; got {value}")


_RELEASED = ("backward() reached a tape node that an earlier backward() already released "
             "(a sweep frees each node once its gradient has passed); run the forward "
             "again to build a new graph")


class _Node:
    """One entry of the gradient tape: the record of one op.

    ``parents`` holds, per operand of the op, the operand's node if it was
    recorded, the operand itself if it is a leaf (``requires_grad``), or None
    if it is untracked; ``backward(g)`` returns one gradient per operand (None
    where none is needed); ``remat`` is the op's rebuild or None (see the
    module's rebuild rule); ``grad`` is the gradient slot, and ``shape`` /
    ``dtype`` are those of the op's result. A node a sweep has passed has
    ``parents`` and ``remat`` None.
    """

    __slots__ = ("parents", "backward", "grad", "shape", "dtype", "seq", "remat")

    def __init__(self, data: np.ndarray, parents, backward, remat):
        self.parents = parents
        self.backward = backward
        self.grad: Optional[np.ndarray] = None
        self.shape = data.shape
        self.dtype = data.dtype
        self.seq = next(_seq_counter)
        self.remat = remat


def _accumulate(target, grad: np.ndarray) -> None:
    """Add grad into ``target.grad``: a node's, or a leaf tensor's, whose
    current data gives the shape and dtype. The gradient is summed down to
    that shape and takes that dtype on first arrival, except that it is never
    bool: a spike's stays float."""
    like = target if type(target) is _Node else target.data
    if grad.shape != like.shape:
        grad = _unbroadcast(grad, like.shape)
    if target.grad is None:
        target.grad = np.asarray(grad, dtype=None if like.dtype == bool else like.dtype)
    else:
        target.grad = target.grad + grad


class Tensor:
    """A dense array plus optional participation in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None

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
        return self.requires_grad or self._node is not None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, dtype=self.data.dtype)

    # -- graph machinery ----------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar loss.

        Runs the recorded closures in exact reverse creation order, which is a
        valid reverse topological order because every op's output is created
        after its operands. Each node is popped and released (gradient,
        closure and parents dropped) once its closure has run, so the tape
        shrinks as the sweep passes; leaves keep ``.grad``. A graph an earlier
        sweep released raises ``RuntimeError``.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        if not self.tracked:
            return
        root = self if self._node is None else self._node  # a leaf is its own root
        nodes, stack = {}, [root]
        while stack:
            node = stack.pop()
            if type(node) is not _Node:  # a leaf or an untracked operand
                continue
            if node.parents is None:
                raise RuntimeError(_RELEASED)
            if node.seq not in nodes:
                nodes[node.seq] = node
                stack.extend(node.parents)
        order = [nodes[seq] for seq in sorted(nodes)]
        del nodes
        _accumulate(root, np.ones_like(self.data))
        while order:
            node = order.pop()
            if node.grad is not None:
                for parent, g in zip(node.parents, node.backward(node.grad)):
                    if parent is not None and g is not None:
                        _accumulate(parent, g)
            node.grad = node.backward = node.parents = node.remat = None

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
        a, b = self.data, other.data
        return _make(np.add(a, b, dtype=_count_dtype(a, b)), (self, other), lambda g: (g, g))

    __radd__ = __add__

    def __neg__(self):
        a = self.data
        return _make(np.negative(a, dtype=_count_dtype(a)), (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        y = np.multiply(self.data, other.data, dtype=_count_dtype(self.data, other.data))
        # each operand's gradient reads the other one
        a = _kept(self) if other.tracked else None
        b = _kept(other) if self.tracked else None

        def bwd(g):
            return None if b is None else g * _read(b), None if a is None else g * _read(a)

        return _make(y, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return self * other ** -1.0

    def __pow__(self, exponent: float):
        a = self.data
        return _make(a ** exponent, (self,), lambda g: (g * exponent * a ** (exponent - 1.0),))

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        ta, tb = self.tracked, other.tracked
        dtype = _count_dtype(self.data, other.data)
        flat = other.ndim == 2

        def product(lhs, rhs):
            if dtype is not None:  # spikes by spikes: BLAS on transient float copies, exact
                return np.matmul(lhs.astype(dtype), rhs.astype(dtype))  # as every count is < 2**24
            if flat:  # one flat GEMM over every leading axis of lhs: a token is a row
                y = _live_gemm(lhs.reshape(-1, lhs.shape[-1]), rhs)
                return y.reshape(lhs.shape[:-1] + rhs.shape[1:])
            return np.matmul(lhs, rhs)

        y = product(self.data, other.data)
        a, b = _kept(self), _kept(other)
        a_shape = self.shape

        def bwd(g):
            ga = gb = None
            if ta:
                fb = _as_float(_read(b), g)
                if flat:  # one GEMM over every leading axis of g, as in the forward
                    ga = (g.reshape(-1, g.shape[-1]) @ fb.T).reshape(a_shape)
                else:
                    ga = g @ np.swapaxes(fb, -1, -2)
            if tb:
                fa = _as_float(_read(a), g)
                if flat:  # one GEMM over every leading axis of a
                    gb = fa.reshape(-1, fa.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = np.swapaxes(fa, -1, -2) @ g
            return ga, gb

        return _make(y, (self, other), bwd, lambda: product(_read(a), _read(b)))

    __matmul__ = matmul

    # -- reductions / shape -------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes if None). A sum over every axis but the
        last is a channel sum (``_channel_sum``), as in ``BatchNorm``."""
        data = self.data
        shape = data.shape

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape),)

        axes = axis if isinstance(axis, tuple) else (axis,)
        if axis is not None and data.ndim > 1 and sorted(
                a % data.ndim for a in axes) == list(range(data.ndim - 1)):
            y = _channel_sum(data)
            if keepdims:
                y = y.reshape((1,) * (data.ndim - 1) + y.shape)
        else:
            y = data.sum(axis=axis, keepdims=keepdims, dtype=_count_dtype(data))
        return _make(y, (self,), bwd)

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
        before, src = self.data.shape, _kept(self)
        y = self.data.reshape(shape)
        after = y.shape
        remat = (lambda: src().reshape(after)) if callable(src) else None
        return _make(y, (self,), lambda g: (g.reshape(before),), remat)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        src = _kept(self)
        remat = (lambda: src().transpose(axes)) if callable(src) else None
        return _make(self.data.transpose(axes), (self,), lambda g: (g.transpose(inv),), remat)

    # -- pointwise nonlinearities --------------------------------------------

    def exp(self) -> "Tensor":
        e = np.exp(self.data)
        return _make(e, (self,), lambda g: (g * e,))

    def log(self) -> "Tensor":
        a = self.data
        return _make(np.log(a), (self,), lambda g: (g / a,))

    def sigmoid(self) -> "Tensor":
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-self.data))
        return _make(s, (self,), lambda g: (g * s * (1.0 - s),))


# Share of silent (all-zero) entries of _live_gemm's operand (a token GEMM's
# rows, conv2d's images) from which only the live entries' rows are built and
# multiplied. On the 4-384 token GEMMs (2048 rows of 384 or 1536) the gather
# and scatter break even at 15-22% silent rows; at 1/4 the live-row GEMM is
# 5-14% faster on every shape.
_SILENT_ROW_SHARE = 0.25


def _count_dtype(*arrays):
    """The ``dtype=`` an op over these arrays computes in: numpy's own (None),
    except that bool operands alone (spikes: only float32 models have them)
    count in float32 where numpy would take a logical OR / AND or an int64 sum."""
    return np.float32 if all(a.dtype == bool for a in arrays) else None


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """a summed over every axis but the last: a channels-last map's per-channel
    totals, as one GEMV (``ones @ rows``, a row per position), where numpy
    would sum the leading axes one row at a time. BLAS adds each column in
    its own blocked order, so a total can differ from numpy's in the last
    bits. Bool spikes count in float32, as ``_count_dtype`` says."""
    rows = a.reshape(-1, a.shape[-1])
    return np.ones(len(rows), dtype=np.result_type(rows, np.float32)) @ rows


def _as_float(x: np.ndarray, like: np.ndarray) -> np.ndarray:
    """x, or, for bool spikes, their copy in ``like``'s float dtype and in x's
    memory layout, for a GEMM against a float operand (a kernel, or in a
    backward a gradient). The GEMM is then the float path's BLAS call:
    numpy's own cast of a transposed bool operand lays it out anew, and the
    other BLAS kernel can round the sum differently."""
    return x.astype(like.dtype) if x.dtype == bool else x


def _live_gemm(x: np.ndarray, b: np.ndarray, rows=lambda x: x) -> np.ndarray:
    """rows(x) @ b for a 2-D b, where ``rows`` lays each entry of x's first axis
    out as the GEMM rows of its middle axes (one row for a 2-D x).

    Event-driven: once at least _SILENT_ROW_SHARE of the entries hold no nonzero
    (no spike reached that token or image), only the live entries' rows are
    built and multiplied, and a silent entry's rows of the result are exact
    zeros. Bool spikes are cast to b's float dtype before ``rows`` lays them
    out: a conv patches the float map once, and no GEMM casts bool rows.
    """
    live = x.any(axis=tuple(range(1, x.ndim)))
    if len(live) - np.count_nonzero(live) < _SILENT_ROW_SHARE * len(live):
        return rows(_as_float(x, b)) @ b
    y = np.zeros(x.shape[:-1] + b.shape[1:], dtype=np.result_type(x, b))
    y[live] = (rows(_as_float(x[live], b)) @ b).reshape((-1,) + y.shape[1:])
    return y.reshape(-1, b.shape[1])


def _records(parents) -> bool:
    """An op over these operands records a tape node: grad is enabled and one
    of them is tracked. An op that does not record may skip work that only its
    backward needs."""
    return _grad_enabled and any(p.tracked for p in parents)


def _make(data: np.ndarray, parents, backward, remat=None) -> Tensor:
    """An op's result, with a tape node over its operands (see ``_Node``) when
    the op records (``_records``): ``backward(g)`` returns one gradient per
    operand, and ``remat``, if given, is the op's rebuild of the result (see
    the module's rebuild rule). A result that does not record keeps no
    closure and so no reference to the op's inputs."""
    out = Tensor(data, dtype=None)
    if _records(parents):
        links = tuple([p if p._node is None and p.requires_grad else p._node for p in parents])
        out._node = _Node(out.data, links, backward, remat)
    return out


def _kept(t: Tensor):
    """What a backward keeps to read operand t, by the module's rebuild rule:
    the rebuild t's producer has, if any (a callable), else t's array."""
    remat = t._node.remat if t._node is not None else None
    return t.data if remat is None else remat


def _read(kept) -> np.ndarray:
    """The operand array a backward reads from what ``_kept`` gave."""
    return kept() if callable(kept) else kept


def _read_new(kept) -> np.ndarray:
    """A new array holding the operand ``_kept`` gave, which its backward may
    overwrite: the rebuild's result, else a copy of the kept array, which
    other nodes read."""
    return kept() if callable(kept) else kept.copy()


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


def surrogate_grad(v: np.ndarray, alpha: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Derivative of the sigmoid surrogate 1/(1+exp(-alpha*v)) wrt v:
    alpha * s * (1 - s) with s = 1 / (1 + exp(-alpha * v)).

    With ``out`` (a float array of v's shape, not v itself) the derivative is
    written into it and v, then the caller's scratch array, is overwritten
    with 1 - s: nothing is allocated. Both ways run the same operations in
    the same order, so they give the same bits.
    """
    if alpha <= 0:
        raise ValueError("surrogate sharpness alpha must be > 0")
    v = np.asarray(v)
    one_minus_s = v
    if out is None:
        out = np.empty(v.shape, dtype=np.result_type(v, 1.0))
        one_minus_s = np.empty_like(out)
    with np.errstate(over="ignore"):
        np.exp(np.multiply(v, -alpha, out=out), out=out)
    np.divide(1.0, np.add(out, 1.0, out=out), out=out)  # s
    np.subtract(1.0, out, out=one_minus_s)
    return np.multiply(np.multiply(out, alpha, out=out), one_minus_s, out=out)


def spike_threshold(v: Tensor, alpha: float) -> Tensor:
    """Heaviside forward, sigmoid-surrogate backward.

    Forward emits exact binary spikes; the recorded backward replaces the
    (zero a.e.) step derivative with the surrogate evaluated at v.
    """
    vd = v.data
    return _make(heaviside(vd), (v,), lambda g: (g * surrogate_grad(vd, alpha),))


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


# Most bytes of output-gradient patch rows _conv2d_input_grad forms at once:
# it runs over chunks of images, so on a wide map the rows (9 * O wide, twice
# the input's taps when a conv doubles its channels) stay in this bound
# instead of growing with the batch.
_PATCH_CHUNK_BYTES = 1 << 22


def _conv2d_input_grad(g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Gradient of conv2d wrt its [B, H, W, C] input, from the [B, H, W, O]
    output gradient g and the [3, 3, C, O] kernel: the same 3x3 correlation,
    run on g with the kernel turned by 180 degrees and its channel axes
    swapped, K~[(i, j, o), c] = K[2 - i, 2 - j, c, o]. It is a GEMM of g's
    patch rows (``_patch_rows``) with K~, so no tap is added back strided,
    over chunks of images (``_PATCH_CHUNK_BYTES``) each written in place."""
    b, h, w, o = g.shape
    c = kernel.shape[2]
    flipped = kernel[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * o, c)
    gx = np.empty((b, h, w, c), dtype=np.result_type(g, flipped))
    step = max(1, _PATCH_CHUNK_BYTES // max(1, h * w * 9 * o * g.itemsize))  # images
    for lo in range(0, b, step):
        np.matmul(_patch_rows(g[lo : lo + step]), flipped, out=gx[lo : lo + step].reshape(-1, c))
    return gx


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """3x3 same cross-correlation (stride 1, zero padding 1) of a channels-last
    [B, H, W, C] map with a [3, 3, C, O] kernel, giving [B, H, W, O]: the
    tokenizer's only convolution (it downsamples by maxpool).

    The kernel is stored as its GEMM operand: the patch rows [B*H*W, 9*C]
    meet its [9*C, O] view in one GEMM (``_live_gemm``, as a token GEMM's
    rows do), which is event-driven, recorded or not: once at least
    _SILENT_ROW_SHARE of the images are all-zero, only the live images are
    patched and multiplied, and a silent image's output is zero. The weight
    gradient is ``rows.T @ g_rows`` in the kernel's own shape. A recording
    call keeps its input map for that gradient, by the module's rebuild rule,
    and only when the kernel is tracked, never the rows, which are 9x larger.
    The backward patches the whole map again, spikes as floats of the
    gradient's dtype (``_as_float``), so its dense GEMM is the float path's.
    The input gradient is one GEMM too, of the output gradient's patch rows
    with the flipped kernel (``_conv2d_input_grad``): it reads only the
    gradient and the kernel. A bias is the caller's.
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
    k = kernel.data
    y = _live_gemm(x.data, k.reshape(-1, o), _patch_rows)  # an image's rows are its patches

    tx, tk = x.tracked, kernel.tracked
    xd = _kept(x) if tk else None

    def bwd(g):
        gk = None
        if tk:  # the forward's rows again, as floats
            gk = (_patch_rows(_as_float(_read(xd), g)).T @ g.reshape(-1, o)).reshape(k.shape)
        gx = _conv2d_input_grad(g, k) if tx else None
        return gx, gk

    return _make(y.reshape(b, h, w, o), (x, kernel), bwd)


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over axes 1-2 of a channels-last
    [B, H, W, C] map; odd trailing rows/cols are dropped.

    The forward is the max of the four strided views; the backward sends each
    gradient to the first maximal view in (0,0), (0,1), (1,0), (1,1) order,
    which is where argmax over the window would send it when spikes tie. A
    recording call keeps nothing of its own: its backward and its rebuild
    pool the input again, kept by the module's rebuild rule.
    """
    h, w = x.shape[1:3]
    if h < 2 or w < 2:
        raise ValueError(f"maxpool2d needs spatial dims >= 2, got {h}x{w}")
    oh, ow = h // 2, w // 2
    windows = [(slice(None), slice(i, 2 * oh, 2), slice(j, 2 * ow, 2))
               for i in (0, 1) for j in (0, 1)]

    def pool(xd):
        views = [xd[win] for win in windows]
        return views, np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))

    xd, x_shape = _kept(x), x.shape

    def bwd(g):
        views, y = pool(_read(xd))
        gx = np.zeros(x_shape, dtype=g.dtype)  # not x's dtype: spikes are bool
        free = np.ones(y.shape, dtype=bool)  # no maximal view found yet
        for win, view in zip(windows, views):
            hit = np.equal(view, y)
            hit &= free
            np.copyto(gx[win], g, where=hit)
            free ^= hit
        return (gx,)

    return _make(pool(x.data)[1], (x,), bwd, lambda: pool(_read(xd))[1])


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    # the max shift is a constant wrt gradients, so it can live outside the tape
    shift = x.data.max(axis=axis, keepdims=True)
    z = x - shift
    return z - z.exp().sum(axis=axis, keepdims=True).log()
