"""Tensor engine: forward semantics against naive oracles, gradients against
central finite differences."""

import contextlib
import re
import weakref
from unittest import mock

import numpy as np
import pytest

from spikingformer import neuron
from spikingformer import tensor as T
from spikingformer.layers import BatchNorm
from spikingformer.neuron import LIFParams, multistep_lif
from spikingformer.tensor import (
    Tensor,
    conv2d,
    log_softmax,
    maxpool2d,
    no_grad,
)

from helpers import (
    FLOAT32_REORDER,
    batched_input_grad,
    closure_arrays,
    col2im_input_grad,
    finite_difference,
    leading_axis_sum,
    relative_error,
    reordered_close,
    tensor64,
)


def nhwc(a):
    """A [B, C, H, W] array laid out channels-last, [B, H, W, C]."""
    return np.ascontiguousarray(np.asarray(a).transpose(0, 2, 3, 1))


def nchw(a):
    """A channels-last [B, H, W, C] array back in [B, C, H, W] layout."""
    return np.asarray(a).transpose(0, 3, 1, 2)


def hwio(w):
    """An [O, C, kh, kw] kernel laid out as conv2d's [kh, kw, C, O] GEMM operand."""
    return np.ascontiguousarray(np.asarray(w).transpose(2, 3, 1, 0))


def naive_conv2d(x, w, stride, padding):
    """Direct 6-loop cross-correlation reference over [B, C, H, W]."""
    b, c, h, ww = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    y = np.zeros((b, o, oh, ow), dtype=np.float64)
    for bi in range(b):
        for oi in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for vv in range(kw):
                                acc += xp[bi, ci, i * stride + u, j * stride + vv] * w[oi, ci, u, vv]
                    y[bi, oi, i, j] = acc
    return y


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 3, 3, 1), dtype=np.float32))
        k = np.zeros((1, 1, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1] = 1.0
        y = conv2d(x, Tensor(hwio(k)))
        np.testing.assert_array_equal(y.data, x.data)

    def test_all_ones_sum(self):
        # each output sums the in-bounds part of its 3x3 window: corners see
        # 4 pixels, edges 6, the centre 9
        x = Tensor(np.ones((1, 3, 3, 1), dtype=np.float32))
        k = Tensor(hwio(np.ones((1, 1, 3, 3), dtype=np.float32)))
        y = conv2d(x, k)
        assert y.data.shape == (1, 3, 3, 1)
        np.testing.assert_array_equal(y.data[0, :, :, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_matches_six_loop_reference(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        got = nchw(conv2d(Tensor(nhwc(x)), Tensor(hwio(w))).data)
        want = naive_conv2d(x.astype(np.float64), w.astype(np.float64), 1, 1)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 5, 5, 2)))
        w = Tensor(hwio(rng.standard_normal((3, 4, 3, 3))))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(x, w)
        # an NCHW array passed by habit: the message names the layout it expects
        with pytest.raises(ValueError, match=r"channel mismatch.*\[B, H, W, C\].*C=5"):
            conv2d(Tensor(rng.standard_normal((1, 4, 5, 5))), w)

    @pytest.mark.parametrize("shape", [(1, 1, 2, 4), (5, 5, 2, 4), (2, 2, 2, 4), (3, 3, 2)])
    def test_non_3x3_kernel_raises(self, rng, shape):
        x = Tensor(rng.standard_normal((1, 5, 5, 2)))
        with pytest.raises(ValueError, match=r"\[3, 3, C, O\] kernel.*" + re.escape(str(shape))):
            conv2d(x, Tensor(rng.standard_normal(shape)))

    def test_bias(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 3, 1)).astype(np.float32))
        w = Tensor(hwio(np.zeros((2, 1, 3, 3), dtype=np.float32)))
        b = Tensor(np.array([1.5, -2.0], dtype=np.float32))
        y = conv2d(x, w) + b
        assert np.all(y.data[..., 0] == 1.5) and np.all(y.data[..., 1] == -2.0)


def _im2col(x, kh, kw, stride, padding):
    """[B, C*kh*kw, OH*OW] patch columns of an NCHW map (the pre-channels-last path)."""
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


def _im2col_conv2d(x, kernel, g, stride, padding):
    """NCHW (output, input gradient, kernel gradient) of the im2col conv2d:
    a batched [O, CK^2] @ [B, CK^2, P] GEMM, a tensordot weight gradient and
    the per-tap scatter of the input gradient."""
    b, c, h, w = x.shape
    o, _, kh, kw = kernel.shape
    cols, (oh, ow) = _im2col(x, kh, kw, stride, padding)
    y = (kernel.reshape(o, c * kh * kw) @ cols).reshape(b, o, oh, ow)
    gw = np.tensordot(g.reshape(b, o, oh * ow), cols, axes=([0, 2], [0, 2])).reshape(kernel.shape)
    hp, wp = h + 2 * padding, w + 2 * padding
    g_rows = g.transpose(2, 3, 0, 1).reshape(oh * ow * b, o)
    taps = (g_rows @ kernel.transpose(2, 3, 0, 1)).reshape(kh, kw, oh, ow, b, c)
    xpad = np.zeros((hp, wp, b, c), dtype=taps.dtype)
    for i in range(kh):
        for j in range(kw):
            xpad[i : i + oh * stride : stride, j : j + ow * stride : stride] += taps[i, j]
    gx = xpad[padding : padding + h, padding : padding + w].transpose(2, 3, 0, 1)
    return y, gx, gw


def _col2im_reference(cols, x_shape, kh, kw, stride, padding):
    """Scatter-add im2col columns back to NCHW (the pre-channels-last path)."""
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    xpad = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    cols = cols.reshape(b, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            xpad[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += cols[:, :, i, j]
    return xpad[:, :, padding : padding + h, padding : padding + w]


def _conv2d_grads_reference(x, kernel, g, stride, padding):
    """NCHW (input, kernel) gradients of conv2d by the einsum + col2im reference."""
    b = x.shape[0]
    o, c, kh, kw = kernel.shape
    cols, (oh, ow) = _im2col(x, kh, kw, stride, padding)
    gmat = g.reshape(b, o, oh * ow)
    wmat = kernel.reshape(o, c * kh * kw)
    gw = np.einsum("bop,bkp->ok", gmat, cols, optimize=True).reshape(kernel.shape)
    gcols = np.einsum("ok,bop->bkp", wmat, gmat, optimize=True)
    return _col2im_reference(gcols, x.shape, kh, kw, stride, padding), gw


def _conv2d_with_grads(x, kernel, g):
    """conv2d on the channels-last view of an NCHW x and an [O, C, 3, 3]
    kernel, in float64: NCHW (output, input gradient) and the [O, C, 3, 3]
    kernel gradient for upstream gradient g (NCHW)."""
    xt = tensor64(nhwc(x), requires_grad=True)
    wt = tensor64(hwio(kernel), requires_grad=True)
    y = conv2d(xt, wt)
    (y * tensor64(nhwc(g))).sum().backward()
    assert xt.grad.shape == xt.shape and wt.grad.shape == wt.shape
    return nchw(y.data), nchw(xt.grad), wt.grad.transpose(3, 2, 0, 1)


# H x W of the differential maps: on 1x1, 1x4, 6x1, 2x3 and 3x3 every output
# reads the zero padding (a single pixel, a single row, a single column, maps
# no larger than the kernel); 5x7 adds outputs that read none
_CONV_MAPS = [(1, 1), (1, 4), (6, 1), (2, 3), (3, 3), (5, 7)]


class TestConv2dBackwardDifferential:
    """The forward against the six-loop reference, and the channels-last
    input gradient and the patch-row weight gradient against the einsum +
    col2im reference, in float64."""

    @pytest.mark.parametrize("hw", _CONV_MAPS, ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_matches_einsum_col2im(self, rng, hw):
        x = rng.standard_normal((3, 2) + hw)
        w = rng.standard_normal((4, 2, 3, 3))
        g = rng.standard_normal((3, 4) + hw)
        y, gx, gw = _conv2d_with_grads(x, w, g)
        want_gx, want_gw = _conv2d_grads_reference(x, w, g, 1, 1)
        assert y.shape == g.shape
        assert relative_error(y, naive_conv2d(x, w, 1, 1)).max() <= 1e-6
        assert relative_error(gx, want_gx).max() <= 1e-6
        assert relative_error(gw, want_gw).max() <= 1e-6


class TestConv2dIm2colDifferential:
    """The channels-last patch-row conv2d against the NCHW im2col conv2d it
    replaced: forward and both gradients, float64 within 1e-6."""

    @pytest.mark.parametrize("hw", _CONV_MAPS, ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_matches_im2col_conv(self, rng, hw):
        x = rng.standard_normal((3, 5) + hw)
        w = rng.standard_normal((4, 5, 3, 3))
        g = rng.standard_normal((3, 4) + hw)
        got = _conv2d_with_grads(x, w, g)
        want = _im2col_conv2d(x, w, g, 1, 1)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert relative_error(a, b).max() <= 1e-6


class TestConv2dRepatchedWeightGrad:
    """A recording conv2d keeps its input map and patches it again in the
    backward: its weight gradient is bit-equal to the GEMM over the forward's
    patch rows as floats, ``_patch_rows(x).astype(f).T @ g``, on a bool
    spike map and on a float (encoder) map, contiguous or a channels-last
    view of an NCHW array."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["bool", "float", "float-view"])
    @pytest.mark.parametrize("hw", _CONV_MAPS, ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_bit_equal_to_forward_rows(self, rng, dtype, kind, hw):
        if kind == "bool":
            x = rng.random((3,) + hw + (5,)) < 0.4
        elif kind == "float":
            x = rng.uniform(0, 1, (3,) + hw + (5,)).astype(dtype)
        else:
            x = rng.uniform(0, 1, (3, 5) + hw).astype(dtype).transpose(0, 2, 3, 1)
        w = rng.standard_normal((3, 3, 5, 4)).astype(dtype)
        g = rng.standard_normal(x.shape[:3] + (4,)).astype(dtype)
        kernel = Tensor(w, requires_grad=True, dtype=dtype)
        (conv2d(Tensor(x, dtype=None), kernel) * Tensor(g, dtype=dtype)).sum().backward()
        want = (T._patch_rows(x).astype(dtype).T @ g.reshape(-1, 4)).reshape(w.shape)
        assert kernel.grad.dtype == dtype and kernel.grad.tobytes() == want.tobytes()


def _eval_batchnorm(gamma, beta, mean, var):
    from spikingformer.layers import BatchNorm

    bn = BatchNorm(len(gamma))
    assert bn.eps == 1e-5
    bn.gamma.data = np.asarray(gamma, dtype=np.float32)
    bn.beta.data = np.asarray(beta, dtype=np.float32)
    bn._buffers["running_mean"] = np.asarray(mean, dtype=np.float32)
    bn._buffers["running_var"] = np.asarray(var, dtype=np.float32)
    return bn.eval()


class TestBatchnorm:
    def test_identity_normalization(self, rng):
        eps = 1e-5
        x = rng.standard_normal((2, 4, 3)).astype(np.float32)
        bn = _eval_batchnorm(np.ones(3), np.zeros(3), np.zeros(3), np.full(3, 1.0 - eps))
        y = bn.forward(Tensor(x))
        np.testing.assert_allclose(y.data, x, atol=1e-6)

    def test_hand_evaluation(self):
        # gamma=1.5, beta=0.5, mu=1, var+eps=4, x=3 -> 1.5*(3-1)/2 + 0.5 = 2
        eps = 1e-5
        bn = _eval_batchnorm([1.5], [0.5], [1.0], [4.0 - eps])
        y = bn.forward(Tensor(np.full((1, 1), 3.0)))
        np.testing.assert_allclose(y.data, 2.0, rtol=1e-6)

    def test_invalid_variance_raises(self):
        bn = _eval_batchnorm([1.0], [0.0], [0.0], [-1.0])
        with pytest.raises(ValueError, match="var"):
            bn.forward(Tensor(np.ones((1, 1))))

    def test_training_mode_constant_batch(self):
        # constant input: batch variance 0, output = beta everywhere
        from spikingformer.layers import BatchNorm

        bn = BatchNorm(3)
        bn.beta.data = np.array([0.1, -0.5, 2.0], dtype=np.float32)
        x = Tensor(np.full((4, 5, 3), 7.0, dtype=np.float32))
        y = bn.forward(x)
        want = np.broadcast_to(bn.beta.data, y.data.shape)
        np.testing.assert_allclose(y.data, want, atol=1e-5)

    def test_empty_batch(self):
        # eval mode normalises no rows; train mode has no batch statistics to take
        bn = _eval_batchnorm([1.5], [0.5], [1.0], [4.0])
        x = np.zeros((0, 1), dtype=np.float32)
        assert bn.forward(Tensor(x)).data.shape == (0, 1)
        with pytest.raises(ValueError, match="empty batch"):
            bn.train().forward(Tensor(x))

    def test_running_stats_update(self, rng):
        from spikingformer.layers import BatchNorm

        bn = BatchNorm(2)
        x = Tensor(rng.standard_normal((16, 3, 2)).astype(np.float32))
        bn.forward(x)
        mu = x.data.mean(axis=(0, 1))
        np.testing.assert_allclose(bn._buffers["running_mean"], 0.1 * mu, rtol=1e-5)


def _composed_batchnorm(bn, x):
    """BN forward as a chain of tape ops: the reference for the one-node BN."""
    shape = (1,) * (x.ndim - 1) + (-1,)
    reduce_axes = tuple(range(x.ndim - 1))
    if bn.training:
        mu = x.mean(axis=reduce_axes, keepdims=True)
        var = ((x - mu) ** 2.0).mean(axis=reduce_axes, keepdims=True)
        m = bn.momentum
        bn._buffers["running_mean"] = (
            (1 - m) * bn._buffers["running_mean"] + m * mu.data.reshape(-1)
        ).astype(x.data.dtype)
        bn._buffers["running_var"] = (
            (1 - m) * bn._buffers["running_var"] + m * var.data.reshape(-1)
        ).astype(x.data.dtype)
    else:
        mu = Tensor(bn._buffers["running_mean"].reshape(shape), dtype=x.data.dtype)
        var = Tensor(bn._buffers["running_var"].reshape(shape), dtype=x.data.dtype)
    inv_std = (var + bn.eps) ** -0.5  # eps lifted to x's dtype
    return (x - mu) * inv_std * bn.gamma.reshape(shape) + bn.beta.reshape(shape)


def _bn_pair(rng, channels, training, dtype=np.float32):
    """Two BatchNorms with the same random affine and running statistics."""
    gamma = rng.standard_normal(channels)
    beta = rng.standard_normal(channels)
    mean = rng.standard_normal(channels)
    var = rng.uniform(0.5, 2.0, channels)
    pair = []
    for _ in range(2):
        bn = BatchNorm(channels).astype(dtype)
        bn.gamma.data = gamma.astype(bn.gamma.data.dtype)
        bn.beta.data = beta.astype(bn.beta.data.dtype)
        bn._buffers["running_mean"] = mean.astype(bn.gamma.data.dtype)
        bn._buffers["running_var"] = var.astype(bn.gamma.data.dtype)
        pair.append(bn.train() if training else bn.eval())
    return pair


# (drawn shape, channel axis moved last): spatial maps drawn NCHW and laid
# out channels-last, and [B, N, D] tokens, batch 1 too
_BN_CASES = [((4, 3, 5, 5), 1), ((1, 3, 4, 4), 1), ((4, 6, 5), -1), ((1, 5, 6), -1)]


def _channels_last(a, axis):
    return np.ascontiguousarray(np.moveaxis(a, axis, -1))


class TestBatchNormNodeDifferential:
    """The one-node BatchNorm against the composed tape-op reference."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape,axis", _BN_CASES)
    def test_float32_forward_and_buffers_bit_equal(self, rng, shape, axis, training):
        fast, ref = _bn_pair(rng, shape[axis], training)
        x = _channels_last((3.0 * rng.standard_normal(shape) + 1.0).astype(np.float32), axis)
        for _ in range(2):  # the second call sees updated running statistics
            y = fast.forward(Tensor(x))
            want = _composed_batchnorm(ref, Tensor(x))
            assert y.data.dtype == np.float32
            np.testing.assert_array_equal(y.data, want.data)
            for name in ("running_mean", "running_var"):
                np.testing.assert_array_equal(fast._buffers[name], ref._buffers[name])

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape,axis", _BN_CASES)
    def test_float64_gradients_match(self, rng, shape, axis, training):
        fast, ref = _bn_pair(rng, shape[axis], training, np.float64)
        x = _channels_last(3.0 * rng.standard_normal(shape) + 1.0, axis)
        g = tensor64(_channels_last(rng.standard_normal(shape), axis))
        xf, xr = tensor64(x, requires_grad=True), tensor64(x, requires_grad=True)
        (fast.forward(xf) * g).sum().backward()
        (_composed_batchnorm(ref, xr) * g).sum().backward()
        for got, want in [(xf.grad, xr.grad), (fast.gamma.grad, ref.gamma.grad),
                          (fast.beta.grad, ref.beta.grad)]:
            assert got.shape == want.shape
            assert relative_error(got, want).max() <= 1e-6

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape,axis", _BN_CASES)
    def test_tape_free_forward_bit_equal(self, rng, shape, axis, training):
        # a forward that records no node scales and shifts its centred buffer in place
        free, recording = _bn_pair(rng, shape[axis], training)
        x = _channels_last((3.0 * rng.standard_normal(shape) + 1.0).astype(np.float32), axis)
        before = x.copy()
        with no_grad():
            y = free.forward(Tensor(x, requires_grad=True))
        want = recording.forward(Tensor(x, requires_grad=True))
        assert y._node is None and want._node is not None
        assert y.data.dtype == want.data.dtype and y.data.tobytes() == want.data.tobytes()
        assert x.tobytes() == before.tobytes()
        for name in ("running_mean", "running_var"):
            np.testing.assert_array_equal(free._buffers[name], recording._buffers[name])

    def test_one_tape_node_per_call(self, rng):
        bn = BatchNorm(3)
        x = Tensor(rng.standard_normal((2, 4, 4, 3)), requires_grad=True)
        y = bn.forward(x)
        assert y._node.parents == (x, bn.gamma, bn.beta)  # the leaves themselves
        assert x._node is None and bn.gamma._node is None and bn.beta._node is None


class TestDenseOps:
    def test_matmul_hand(self):
        a = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]]))
        b = Tensor(np.array([[2.0], [3.0]]))
        np.testing.assert_array_equal((a @ b).data, [[2.0], [5.0]])

    def test_maxpool_hand(self):
        x = Tensor(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))
        np.testing.assert_array_equal(maxpool2d(x).data, [[[[4.0]]]])

    def test_maxpool_odd_dims_floor(self, rng):
        x = Tensor(rng.standard_normal((1, 5, 7, 1)))
        assert maxpool2d(x).shape == (1, 2, 3, 1)

    @pytest.mark.parametrize("h,w", [(1, 4), (4, 1)])
    def test_maxpool_refuses_a_map_narrower_than_2(self, h, w):
        with pytest.raises(ValueError, match=f"spatial dims >= 2, got {h}x{w}"):
            maxpool2d(Tensor(np.zeros((1, h, w, 1))))

    def test_gap_identical_rows(self):
        row = np.array([1.0, 2.0, 3.0])
        x = Tensor(np.tile(row, (4, 1)))
        np.testing.assert_allclose(x.mean(axis=0).data, row)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


def _rows_with_silent(rng, shape, n_silent, dtype):
    """Spike-like [..., K] input (binary, plus one float row) with n_silent all-zero rows."""
    rows = (rng.random((int(np.prod(shape[:-1])), shape[-1])) < 0.3).astype(dtype)
    rows[:, 0] = 1.0  # every row starts live
    rows[-1] = rng.standard_normal(shape[-1])
    rows[rng.permutation(len(rows))[:n_silent]] = 0.0
    return rows.reshape(shape)


class TestSilentRowGemm:
    """matmul with a 2-D weight (one flat GEMM, live rows only when enough are
    silent) against a dense ``a @ b`` reference."""

    SHAPES = [(40, 6), (5, 8, 6), (2, 4, 5, 6)]  # 40 rows each

    @staticmethod
    def _silent_counts(m):
        at = int(np.ceil(T._SILENT_ROW_SHARE * m))  # fewest silent rows that compact
        return [0, at - 1, at, at + 1, m]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("which", range(5))
    def test_matches_dense_reference(self, rng, dtype, shape, which):
        n_silent = self._silent_counts(40)[which]
        a = _rows_with_silent(rng, shape, n_silent, dtype)
        w = rng.standard_normal((shape[-1], 7)).astype(dtype)
        y = (Tensor(a, dtype=dtype) @ Tensor(w, dtype=dtype)).data
        ref = a @ w
        assert y.shape == ref.shape and y.dtype == dtype
        silent = ~a.any(axis=-1)
        assert silent.sum() == n_silent
        assert np.all(y[silent] == 0.0)
        live = ~silent
        scale = np.abs(ref[live]).max(axis=-1, keepdims=True) if live.any() else 1.0
        assert np.all(np.abs(y[live] - ref[live]) <= 1e-6 * scale)

    def test_empty_rows(self, rng):
        w = Tensor(rng.standard_normal((6, 3)).astype(np.float32))
        for shape in [(0, 6), (2, 0, 6)]:
            y = Tensor(np.zeros(shape, np.float32)) @ w
            assert y.shape == shape[:-1] + (3,)

    @pytest.mark.parametrize("which", range(4))
    def test_path_follows_silent_share(self, rng, which):
        # a NaN weight turns silent rows to NaN in the dense GEMM (0 * NaN)
        # but leaves them exact zeros when only the live rows are multiplied
        n_silent = self._silent_counts(40)[which]
        a = _rows_with_silent(rng, (40, 6), n_silent, np.float32)
        w = rng.standard_normal((6, 3)).astype(np.float32)
        w[2, 1] = np.nan
        y = (Tensor(a) @ Tensor(w)).data[~a.any(axis=-1)]
        compacted = n_silent >= T._SILENT_ROW_SHARE * 40
        assert np.all(y == 0.0) if compacted else np.all(np.isnan(y[:, 1]))
        assert compacted == (which >= 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gradients_bit_equal_to_dense_path(self, rng, monkeypatch, dtype, shape):
        a = _rows_with_silent(rng, shape, 20, dtype)
        w = rng.standard_normal((shape[-1], 7)).astype(dtype)
        upstream = rng.standard_normal(shape[:-1] + (7,)).astype(dtype)

        def grads():
            x = Tensor(a, requires_grad=True, dtype=dtype)
            wt = Tensor(w, requires_grad=True, dtype=dtype)
            ((x @ wt) * upstream).sum().backward()
            return x.grad, wt.grad

        compacted = grads()
        monkeypatch.setattr(T, "_SILENT_ROW_SHARE", 2.0)  # never compact
        dense = grads()
        for c, d in zip(compacted, dense):
            assert c.dtype == d.dtype and c.tobytes() == d.tobytes()


def _images_with_silent(rng, n_silent, dtype, transposed, hw=(5, 5)):
    """Spike-like [8, H, W, 3] maps (binary, one float image) with n_silent
    all-zero images; ``transposed`` gives a strided view of an NCHW array."""
    x = (rng.random((8, 3) + hw) < 0.3).astype(dtype)
    x[:, 0, 0, 0] = 1.0  # every image starts live
    x[-1] = rng.standard_normal((3,) + hw)
    x[rng.permutation(8)[:n_silent]] = 0.0
    return x.transpose(0, 2, 3, 1) if transposed else nhwc(x)


class TestSilentImageConv:
    """A conv2d, recorded or not, patches and multiplies only the live images
    once enough are silent, against the dense path."""

    @staticmethod
    def _silent_counts(b):
        at = int(np.ceil(T._SILENT_ROW_SHARE * b))  # fewest silent images that compact
        return [0, at - 1, at, at + 1, b]

    @staticmethod
    def _conv(x, w, bias, dtype):
        y = conv2d(Tensor(x, dtype=dtype), Tensor(w, dtype=dtype))
        return (y if bias is None else y + Tensor(bias, dtype=dtype)).data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("which", range(5))
    @pytest.mark.parametrize("hw", [(5, 5), (1, 4)], ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_matches_dense_path(self, rng, monkeypatch, dtype, with_bias, transposed, which, hw):
        n_silent = self._silent_counts(8)[which]
        x = _images_with_silent(rng, n_silent, dtype, transposed, hw)
        w = hwio(rng.standard_normal((4, 3, 3, 3))).astype(dtype)
        bias = rng.standard_normal(4).astype(dtype) if with_bias else None
        y = self._conv(x, w, bias, dtype)
        monkeypatch.setattr(T, "_SILENT_ROW_SHARE", 2.0)  # never compact
        dense = self._conv(x, w, bias, dtype)
        live = x.any(axis=(1, 2, 3))
        assert np.count_nonzero(~live) == n_silent
        assert y.shape == dense.shape and y.dtype == dtype
        # a silent image's output is the bias (or zero), as the dense GEMM gives it
        assert y[~live].tobytes() == dense[~live].tobytes()
        if n_silent >= T._SILENT_ROW_SHARE * 8:
            # the dense path's output over the live images alone; over the whole
            # batch the BLAS may block the rows differently
            want = self._conv(np.ascontiguousarray(x[live]), w, bias, dtype)
        else:
            want = dense[live]
        assert y[live].tobytes() == want.tobytes()
        tol = 1e-6 if dtype == np.float32 else 1e-13
        assert np.all(np.abs(y - dense) <= tol * np.maximum(np.abs(dense), 1.0))

    @pytest.mark.parametrize("which", range(5))
    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "no_grad"])
    def test_path_follows_silent_share(self, rng, which, frozen):
        # a NaN weight turns silent images to NaN in the dense GEMM (0 * NaN)
        # but leaves their output the bias when only the live images are multiplied
        n_silent = self._silent_counts(8)[which]
        x = _images_with_silent(rng, n_silent, np.float32, False)
        w = hwio(rng.standard_normal((4, 3, 3, 3))).astype(np.float32)
        w[1, 1, 2, 3] = np.nan
        bias = rng.standard_normal(4).astype(np.float32)
        with contextlib.nullcontext() if frozen else no_grad():
            y = (conv2d(Tensor(x, requires_grad=not frozen), Tensor(w))
                 + Tensor(bias)).data[~x.any(axis=(1, 2, 3))]
        compacted = n_silent >= T._SILENT_ROW_SHARE * 8
        assert compacted == (which >= 2)
        assert np.all(y == bias) if compacted else np.all(np.isnan(y[..., 3]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_recording_call_is_event_driven(self, rng, monkeypatch, dtype):
        x = _images_with_silent(rng, 4, dtype, True)
        w = hwio(rng.standard_normal((4, 3, 3, 3))).astype(dtype)
        bias = rng.standard_normal(4).astype(dtype)
        upstream = rng.standard_normal((8, 5, 5, 4)).astype(dtype)
        live = x.any(axis=(1, 2, 3))

        def run(x, w):
            params = [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, w, bias)]
            y = conv2d(params[0], params[1]) + params[2]
            assert y._node is not None
            (y * Tensor(upstream[: len(x)], dtype=dtype)).sum().backward()
            return [y.data] + [p.grad for p in params]

        nan_w = w.copy()
        nan_w[1, 1, 2, 3] = np.nan
        assert np.all(run(x, nan_w)[0][~live] == bias)  # the silent images met no NaN
        got = run(x, w)
        monkeypatch.setattr(T, "_SILENT_ROW_SHARE", 2.0)  # never compact
        # the dense path's output over the live images alone; over the whole
        # batch the BLAS may block the rows differently
        assert got[0][live].tobytes() == run(np.ascontiguousarray(x[live]), w)[0].tobytes()
        for a, b in zip(got[1:], run(x, w)[1:]):  # the backward never reads the forward
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _maxpool_reference(x, g):
    """The gather/scatter maxpool (argmax over each flattened 2x2 window)."""
    b, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    view = x[:, :, : oh * 2, : ow * 2].reshape(b, c, oh, 2, ow, 2)
    patches = view.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, 4)
    arg = patches.argmax(axis=-1)
    y = np.take_along_axis(patches, arg[..., None], axis=-1)[..., 0]
    gp = np.zeros_like(patches)
    np.put_along_axis(gp, arg[..., None], g[..., None], axis=-1)
    gx = np.zeros_like(x)
    gx[:, :, : oh * 2, : ow * 2] = (
        gp.reshape(b, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh * 2, ow * 2)
    )
    return y, gx


class TestMaxpoolDifferential:
    @pytest.mark.parametrize("kind", ["spikes", "dense-spikes", "floats", "small-ints"])
    @pytest.mark.parametrize("hw", [(4, 4), (5, 7), (8, 6), (3, 2)])
    def test_bit_equal_to_gather_scatter(self, rng, kind, hw):
        shape = (2, 3) + hw
        if kind == "spikes":
            x = (rng.random(shape) < 0.3).astype(np.float32)
        elif kind == "dense-spikes":
            x = (rng.random(shape) < 0.8).astype(np.float32)
        elif kind == "small-ints":
            x = rng.integers(-1, 2, shape).astype(np.float32)
        else:
            x = rng.standard_normal(shape).astype(np.float32)
        xt = Tensor(nhwc(x), requires_grad=True)
        y = maxpool2d(xt)
        g = rng.standard_normal(y.shape).astype(np.float32)
        (y * Tensor(g)).sum().backward()
        ref_y, ref_gx = _maxpool_reference(x, nchw(g))
        assert y.data.tobytes() == nhwc(ref_y).tobytes()
        assert xt.grad.shape == xt.shape and xt.grad.tobytes() == nhwc(ref_gx).tobytes()

    def test_ties_go_to_the_first_window_position(self):
        x = Tensor(np.ones((1, 2, 2, 1), np.float32), requires_grad=True)
        maxpool2d(x).sum().backward()
        np.testing.assert_array_equal(x.grad[0, ..., 0], [[1.0, 0.0], [0.0, 0.0]])


def _recorded_spikes(rng, shape, steps=2):
    """(leaf, spikes): bool spikes [steps * shape[0], *shape[1:]] of a recorded
    LIF over a float32 leaf, so the spike map is tracked and its node keeps
    them packed. The first shape[1] // 2 + 1 entries along the map's axis 1
    are far below threshold, so over half its rows hold no spike (a token
    GEMM over them takes the live-row path)."""
    x = 2.0 * rng.standard_normal((steps,) + shape).astype(np.float32)
    x[:, :, : shape[1] // 2 + 1] = -10.0
    leaf = Tensor(x, requires_grad=True)
    return leaf, multistep_lif(leaf, LIFParams()).reshape((steps * shape[0],) + shape[1:])


# ops over a [4, 6, 6, 5] spike map whose node offers a rebuild of their result
_REBUILT_OPS = {
    "lif": lambda s, w: s,
    "reshape": lambda s, w: s.reshape(4, 36, 5),
    "transpose": lambda s, w: s.transpose((0, 3, 1, 2)),
    "maxpool2d": lambda s, w: maxpool2d(s),
    "token_gemm": lambda s, w: s.reshape(4, 36, 5) @ w,
    "float_by_spikes": lambda s, w: (w.transpose((1, 0)) @ s.reshape(4, 36, 5)
                                     .transpose((0, 2, 1))) @ s.reshape(4, 36, 5),
    "spikes_by_spikes": lambda s, w: s.reshape(4, 36, 5).transpose((0, 2, 1))
                                     @ s.reshape(4, 36, 5),
}


class TestRebuilds:
    """A recorded op's rebuild (``_Node.remat``) returns a new array equal,
    bit for bit, to the op's output: a LIF's unpacked spikes, a reshape's or
    a transpose's view of its input's rebuild, a maxpool of its input's
    rebuild and a matmul's product of the operands it reads (a token GEMM,
    over live rows or dense, a batched float product, spikes by spikes). A
    backward reads spikes through their rebuild, so it holds no bool array
    and computes what it computes from the forward's own spike array."""

    @staticmethod
    def _run(name):
        rng = np.random.default_rng(3)
        leaf, spikes = _recorded_spikes(rng, (2, 6, 6, 5))
        w = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
        out = _REBUILT_OPS[name](spikes, w)
        weight = np.linspace(-1.0, 1.0, out.size, dtype=np.float32).reshape(out.shape)
        (out * Tensor(weight)).sum().backward()
        return out.data, [g for g in (leaf.grad, w.grad) if g is not None]

    @pytest.mark.parametrize("name", sorted(_REBUILT_OPS))
    @pytest.mark.parametrize("compact", [True, False], ids=["live_rows", "dense"])
    def test_rebuild_is_a_new_bit_equal_array(self, rng, monkeypatch, name, compact):
        if not compact:
            monkeypatch.setattr(T, "_SILENT_ROW_SHARE", 2.0)
        leaf, spikes = _recorded_spikes(rng, (2, 6, 6, 5))
        w = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
        out = _REBUILT_OPS[name](spikes, w)
        rebuilt = out._node.remat()
        assert rebuilt.dtype == out.data.dtype and rebuilt.shape == out.shape
        assert rebuilt.tobytes() == out.data.tobytes()
        assert not np.shares_memory(rebuilt, out.data)
        assert not np.shares_memory(rebuilt, out._node.remat())
        assert [a.dtype for _, a in closure_arrays(out._node.backward) if a.dtype == bool] == []

    @pytest.mark.parametrize("name", sorted(_REBUILT_OPS))
    def test_gradients_bit_equal_to_kept_spikes(self, monkeypatch, name):
        out, grads = self._run(name)
        monkeypatch.setattr(neuron, "_pack", lambda spikes: spikes)
        monkeypatch.setattr(neuron, "_unpack", lambda spikes, shape: spikes)
        ref, ref_grads = self._run(name)
        assert out.tobytes() == ref.tobytes()
        assert len(grads) == len(ref_grads) == (2 if name in ("float_by_spikes", "token_gemm") else 1)
        for g, g_ref in zip(grads, ref_grads):
            assert g.dtype == g_ref.dtype and g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("hw", [(5, 7), (3, 2), (7, 3)])
    def test_maxpool_of_packed_spikes_on_odd_maps(self, rng, hw):
        _, spikes = _recorded_spikes(rng, (2,) + hw + (3,))
        y = maxpool2d(spikes)
        (packed,) = [a for _, a in closure_arrays(y._node.backward)]
        assert packed.dtype == np.uint8  # the SN's copy: the maxpool keeps nothing of its own
        g = rng.standard_normal(y.shape).astype(np.float32)
        (gx,) = y._node.backward(g)
        ref_y, ref_gx = _maxpool_reference(nchw(spikes.data.astype(np.float32)), nchw(g))
        assert y.data.dtype == bool and y.data.astype(np.float32).tobytes() == nhwc(ref_y).tobytes()
        assert gx.dtype == np.float32 and gx.tobytes() == nhwc(ref_gx).tobytes()


class TestBackward:
    def test_linear_map_gradient(self):
        x = np.array([1.0, -2.0, 3.0])
        w = Tensor(np.array([0.5, 0.5, 0.5]), requires_grad=True)
        loss = (w * Tensor(x)).sum()
        loss.backward()
        np.testing.assert_allclose(w.grad, x)

    def test_unused_parameter_zero_gradient(self):
        w = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        loss = (w * 2.0).sum()
        loss.backward()
        assert unused.grad is None

    def test_backward_requires_scalar(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (w * 2.0).backward()

    def test_second_backward_on_a_released_graph_raises(self):
        # d/dx (x * x * 1) at 3 is 6; a second sweep must not add stale
        # intermediate gradients to it (it read 30 when nodes were kept)
        x = Tensor(np.array(3.0), requires_grad=True)
        loss = ((x * x) * 1.0).sum()
        loss.backward()
        assert x.grad == 6.0
        with pytest.raises(RuntimeError, match="already released"):
            loss.backward()
        assert x.grad == 6.0

    def test_backward_through_a_released_subgraph_raises(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = x * x
        y.sum().backward()
        with pytest.raises(RuntimeError, match="already released"):
            (y * 2.0).sum().backward()
        assert x.grad == 6.0

    def test_separate_graphs_accumulate_into_a_leaf(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        for _ in range(2):
            ((x * x) * 1.0).sum().backward()
        assert x.grad == 12.0

    def test_sweep_frees_intermediates_and_leaves_keep_grad(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        y = x * x
        loss = (y * 1.0).sum()
        loss.backward()
        assert y.grad is None and loss.grad is None  # released with their nodes
        assert y._node.parents is None and y._node.backward is None
        np.testing.assert_array_equal(x.grad, 2.0 * np.arange(4.0))

    def test_two_layer_affine_chain_fd(self, rng):
        w1 = tensor64(rng.standard_normal((4, 5)), requires_grad=True)
        b1 = tensor64(rng.standard_normal(5), requires_grad=True)
        w2 = tensor64(rng.standard_normal((5, 2)), requires_grad=True)
        x = tensor64(rng.standard_normal((3, 4)))

        def run():
            h = (x @ w1 + b1).sigmoid()
            return ((h @ w2) ** 2.0).sum()

        loss = run()
        loss.backward()
        fd = finite_difference(lambda: run().item(), [w1, b1, w2])
        for p, g in zip([w1, b1, w2], fd):
            assert relative_error(p.grad, g).max() <= 1e-3

    def test_rank3_input_weight_gradient_fd(self, rng):
        # [T*B, N, D] @ [D, D'] takes the weight gradient as one flattened GEMM
        x = tensor64(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = tensor64(rng.standard_normal((4, 5)), requires_grad=True)

        def run():
            return ((x @ w) ** 2.0).sum()

        run().backward()
        fd = finite_difference(lambda: run().item(), [x, w])
        for p, g in zip([x, w], fd):
            assert relative_error(p.grad, g).max() <= 1e-3

    @pytest.mark.parametrize("hw", [(4, 4), (1, 3)], ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_conv2d_gradients_fd(self, rng, hw):
        x = tensor64(nhwc(rng.standard_normal((2, 2) + hw)), requires_grad=True)
        w = tensor64(hwio(rng.standard_normal((3, 2, 3, 3))), requires_grad=True)
        b = tensor64(rng.standard_normal(3), requires_grad=True)

        def run():
            return ((conv2d(x, w) + b) ** 2.0).sum()

        run().backward()
        fd = finite_difference(lambda: run().item(), [x, w, b])
        for p, g in zip([x, w, b], fd):
            assert relative_error(p.grad, g).max() <= 1e-3

    def test_maxpool_gradients_fd(self, rng):
        x = tensor64(nhwc(rng.standard_normal((1, 2, 4, 4))), requires_grad=True)

        def run():
            return (maxpool2d(x) ** 2.0).sum()

        run().backward()
        (fd,) = finite_difference(lambda: run().item(), [x], h=1e-5)
        assert relative_error(x.grad, fd).max() <= 1e-3

    def test_batchnorm_gradients_fd(self, rng):
        x = tensor64(rng.standard_normal((4, 3)), requires_grad=True)
        gamma = tensor64(rng.standard_normal(3), requires_grad=True)
        beta = tensor64(rng.standard_normal(3), requires_grad=True)

        def run():
            mu = x.mean(axis=0, keepdims=True)
            var = ((x - mu) ** 2.0).mean(axis=0, keepdims=True)
            y = (x - mu) * (var + tensor64(1e-5)) ** -0.5 * gamma + beta
            return (y ** 2.0).sum()

        run().backward()
        fd = finite_difference(lambda: run().item(), [x, gamma, beta])
        for p, g in zip([x, gamma, beta], fd):
            assert relative_error(p.grad, g).max() <= 1e-3

    def test_log_softmax_gradient_fd(self, rng):
        x = tensor64(rng.standard_normal((2, 5)), requires_grad=True)
        mask = tensor64(rng.standard_normal((2, 5)))

        def run():
            return (log_softmax(x) * mask).sum()

        run().backward()
        (fd,) = finite_difference(lambda: run().item(), [x])
        assert relative_error(x.grad, fd).max() <= 1e-3


class TestDtypeRule:
    """A new tensor is float32 unless asked otherwise; op results keep numpy's
    dtype; a lifted constant takes the dtype of the tensor it meets."""

    def test_new_tensor_is_float32_unless_asked(self):
        assert Tensor(np.ones(3)).data.dtype == np.float32
        assert Tensor([1, 2]).data.dtype == np.float32
        assert Tensor(tensor64(np.ones(3))).data.dtype == np.float32
        assert tensor64(np.ones(3, dtype=np.float32)).data.dtype == np.float64

    def test_op_result_keeps_numpy_dtype(self):
        a, b = Tensor(np.ones((2, 2))), tensor64(np.ones((2, 2)))
        assert (a * a).data.dtype == (a @ a).data.dtype == np.float32
        assert (a + b).data.dtype == (a @ b).data.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("const", [2, 0.5, np.float64(0.5), np.float32(0.5),
                                       np.full(3, 0.5), np.full(3, 0.5, np.float32)])
    def test_constant_takes_tensor_dtype(self, dtype, const):
        x = Tensor(np.ones(3), requires_grad=True, dtype=dtype)
        for y in (x + const, x - const, x * const, x / const, 1.0 - x, 2.0 * x):
            assert y.data.dtype == dtype
        (x * const).sum().backward()
        assert x.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_detach_and_log_softmax_keep_dtype(self, rng, dtype):
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True, dtype=dtype)
        assert x.detach().data.dtype == dtype
        y = log_softmax(x)
        y.sum().backward()
        assert y.data.dtype == x.grad.dtype == dtype

    def test_tracked(self):
        leaf, const = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2))
        assert leaf.tracked and not const.tracked
        assert (leaf * const).tracked and not (const * const).tracked
        with no_grad():
            assert not (leaf * const).tracked


def _as_float32(a):
    return a.astype(np.float32) if a.dtype == bool else a


class TestBoolSpikes:
    """A float32 model's spikes are bool, and every op that meets them
    computes what the same op computes on their float32 0/1 copy: a sum or a
    product counts (where numpy would take a logical OR / AND), a mean stays
    float (where numpy would sum as int64), a constant meets spikes as a
    float, and a spike's gradient stays float. Each case runs on bool leaves
    and on their float32 copies and asserts bit-equal results and gradients."""

    @staticmethod
    def _run(fn, arrays):
        leaves = [Tensor(a, requires_grad=True, dtype=None) for a in arrays]
        y = fn(*leaves)
        weight = np.linspace(-1.0, 1.0, y.size, dtype=np.float32).reshape(y.shape)
        (y * weight).sum().backward()
        return y.data, [leaf.grad for leaf in leaves]

    def _check(self, fn, *arrays):
        assert any(a.dtype == bool for a in arrays)
        y, grads = self._run(fn, arrays)
        y_ref, grads_ref = self._run(fn, [_as_float32(a) for a in arrays])
        assert y.dtype == y_ref.dtype == np.float32 and y.tobytes() == y_ref.tobytes()
        for g, g_ref in zip(grads, grads_ref):
            assert g.dtype == g_ref.dtype == np.float32 and g.tobytes() == g_ref.tobytes()
        return y

    @staticmethod
    def _spikes(rng, shape):
        return rng.random(shape) < 0.6

    def test_spike_sum_counts(self, rng):
        a, b = self._spikes(rng, (4, 5, 6)), self._spikes(rng, (4, 5, 6))
        y = self._check(lambda p, q: p + q, a, b)
        assert y.max() == 2.0  # two coincident spikes sum, not OR
        self._check(lambda p, q: p + q, a, rng.standard_normal((4, 5, 6)).astype(np.float32))

    def test_spike_product_and_negation(self, rng):
        a, b = self._spikes(rng, (3, 7)), self._spikes(rng, (3, 7))
        self._check(lambda p, q: p * q, a, b)
        self._check(lambda p, q: q - p, a, b)

    @pytest.mark.parametrize("const", [0.5, 2, np.float32(0.125), np.full(7, 0.25, np.float32)])
    def test_constant_meets_spikes_as_float(self, rng, const):
        self._check(lambda p: p * const + 1.0 - p, self._spikes(rng, (3, 7)))

    @pytest.mark.parametrize("axis", [None, 0, (0, 2)])
    def test_mean_and_sum_stay_float(self, rng, axis):
        a = self._spikes(rng, (4, 3, 5))
        y = self._check(lambda p: p.mean(axis=axis), a)
        assert np.all(y > 0) and np.all(y < 1)  # an int64 count times an int64 1/n is 0
        self._check(lambda p: p.sum(axis=axis), a)

    @pytest.mark.parametrize("silent", [0, 5])  # dense and live-row token GEMMs
    def test_spike_token_gemm(self, rng, silent):
        a = self._spikes(rng, (4, 3, 5))
        a.reshape(-1, 5)[:silent] = False
        w = rng.standard_normal((5, 6)).astype(np.float32)
        self._check(lambda p, q: p @ q, a, w)

    def test_spike_batched_matmul_counts(self, rng):
        a, b = self._spikes(rng, (2, 3, 4, 6)), self._spikes(rng, (2, 3, 6, 5))
        y = self._check(lambda p, q: p @ q, a, b)
        assert y.max() > 1.0  # counts, not a logical product

    def test_spike_conv2d(self, rng):
        x = self._spikes(rng, (3, 5, 4, 2))
        x[1] = False  # a silent image
        kernel = rng.standard_normal((3, 3, 2, 4)).astype(np.float32)
        self._check(lambda p, k: conv2d(p, k), x, kernel)

    def test_spike_maxpool2d(self, rng):
        x = self._spikes(rng, (2, 5, 4, 3))
        (y, (g,)), (y_ref, (g_ref,)) = (self._run(maxpool2d, [a]) for a in (x, _as_float32(x)))
        assert y.dtype == bool  # a maxpool of spikes is spikes
        assert y.astype(np.float32).tobytes() == y_ref.tobytes()
        assert g.dtype == g_ref.dtype == np.float32 and g.tobytes() == g_ref.tobytes()


class TestNoGrad:
    def test_records_no_tape(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            loss = (w * 2.0).sum()
        assert loss._node is None
        loss.backward()
        assert w.grad is None

    def test_flag_restored_when_block_raises(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with no_grad():
                raise RuntimeError("raised inside no_grad")
        assert (w * 2.0)._node.parents == (w, None)  # the constant is untracked


_LIF = LIFParams()
# every kind of op, applied to a [2, 2, 4, 4] input
_UNTRACKED_OPS = {
    "add": lambda x: x + 1.0,
    "mul": lambda x: x * 2.0,
    "sub": lambda x: 1.0 - x,
    "pow": lambda x: x ** 2.0,
    "matmul": lambda x: x @ Tensor(np.ones((4, 3), dtype=np.float32)),
    "matmul_4d": lambda x: x @ Tensor(np.ones((2, 2, 4, 3), dtype=np.float32)),
    "sum": lambda x: x.sum(axis=1),
    "reshape": lambda x: x.reshape(4, 16),
    "transpose": lambda x: x.transpose((0, 2, 3, 1)),
    "exp": lambda x: x.exp(),
    "log": lambda x: (x * x + 1.0).log(),
    "sigmoid": lambda x: x.sigmoid(),
    "log_softmax": lambda x: log_softmax(x),
    "spike_threshold": lambda x: T.spike_threshold(x, 4.0),
    "conv2d": lambda x: conv2d(x, Tensor(hwio(np.ones((3, 4, 3, 3), dtype=np.float32)))),
    "conv2d_silent_image": lambda x: conv2d(
        x * np.array([0, 1], dtype=np.float32).reshape(2, 1, 1, 1),  # image 0 silent
        Tensor(hwio(np.ones((3, 4, 3, 3), dtype=np.float32)))),
    "maxpool2d": lambda x: maxpool2d(x),
    "multistep_lif": lambda x: multistep_lif(x, _LIF),
    "multistep_lif_chunked": lambda x: _chunked_lif(x),
    "batchnorm": lambda x: _frozen_batchnorm().forward(x),
}


def _chunked_lif(x):
    with mock.patch.object(neuron, "_LIF_CHUNK", 7):  # 32 neurons per step: 5 chunks
        return multistep_lif(x, _LIF)


def _frozen_batchnorm():
    bn = BatchNorm(4)
    bn.gamma.requires_grad = bn.beta.requires_grad = False
    return bn


class TestUntrackedResults:
    """An op over untracked operands records nothing and holds no reference
    to its inputs, so an intermediate dies with its last consumer."""

    @pytest.mark.parametrize("name", sorted(_UNTRACKED_OPS))
    @pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "no_grad"])
    def test_result_keeps_no_input_alive(self, name, frozen):
        x = Tensor(np.random.default_rng(0).random((2, 2, 4, 4)).astype(np.float32),
                   requires_grad=not frozen)
        alive = weakref.ref(x)
        with contextlib.nullcontext() if frozen else no_grad():
            out = _UNTRACKED_OPS[name](x)
        del x
        assert alive() is None
        assert out._node is None

    @pytest.mark.parametrize("name", sorted(_UNTRACKED_OPS))
    def test_tracked_result_records_its_input(self, name):
        x = Tensor(np.random.default_rng(0).random((2, 2, 4, 4)).astype(np.float32),
                   requires_grad=True)
        out = _UNTRACKED_OPS[name](x)
        assert out._node.parents and out._node.backward is not None


def test_forward_determinism(rng):
    seed_state = rng.integers(0, 2**32)
    out = []
    for _ in range(2):
        r = np.random.default_rng(seed_state)
        x = Tensor(nhwc(r.standard_normal((2, 2, 6, 6)).astype(np.float32)))
        w = Tensor(hwio(r.standard_normal((3, 2, 3, 3)).astype(np.float32)))
        out.append(conv2d(x, w).data)
    np.testing.assert_array_equal(out[0], out[1])


# desk-scale channels-last maps and token tensors (criterion 08's model at
# B = 64, T = 2) and small odd ones
_CHANNEL_SUM_SHAPES = [(128, 8, 8, 16), (128, 4, 4, 32), (128, 4, 256), (3, 5, 7), (5, 1),
                       (1, 4), (2, 3, 1, 6)]


class TestChannelSumDifferential:
    """``_channel_sum`` (one GEMV) against numpy's leading-axis sum: float64
    within 1e-12, float32 within ``FLOAT32_REORDER`` of the absolute sum,
    bool spikes counted exactly in float32."""

    @pytest.mark.parametrize("shape", _CHANNEL_SUM_SHAPES)
    def test_float64_and_float32(self, rng, shape):
        a = rng.standard_normal(shape)
        abs_terms = leading_axis_sum(np.abs(a))
        assert reordered_close(T._channel_sum(a), leading_axis_sum(a), abs_terms, 1e-12)
        a32 = a.astype(np.float32)
        got = T._channel_sum(a32)
        assert got.dtype == np.float32 and got.shape == shape[-1:]
        assert reordered_close(got, leading_axis_sum(a32), abs_terms, FLOAT32_REORDER)

    def test_strided_view(self, rng):
        a = rng.standard_normal((4, 6, 5)).astype(np.float32)
        view = a.transpose(1, 0, 2)[::2]
        assert T._channel_sum(view).tobytes() == T._channel_sum(view.copy()).tobytes()

    def test_spikes_count_in_float32(self, rng):
        a = rng.random((64, 4, 4, 8)) < 0.3
        got = T._channel_sum(a)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, a.sum(axis=(0, 1, 2)))

    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis", [(0, 1, 2), (2, 0, 1), (-4, -3, -2)])
    def test_tensor_sum_over_leading_axes_is_the_channel_sum(self, rng, axis, keepdims):
        a = rng.standard_normal((6, 3, 5, 4)).astype(np.float32)
        x = Tensor(a, requires_grad=True)
        y = x.sum(axis=axis, keepdims=keepdims)
        assert y.shape == a.sum(axis=axis, keepdims=keepdims).shape
        assert y.data.tobytes() == T._channel_sum(a).tobytes()
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(a))


def _input_grad(a, w, g):
    """The gradient ``Tensor.matmul`` gives a tracked a in a @ w, for output
    gradient g."""
    x = Tensor(a, requires_grad=True, dtype=a.dtype)
    (x @ Tensor(w, requires_grad=True, dtype=w.dtype) * Tensor(g, dtype=g.dtype)).sum().backward()
    return x.grad


# criterion 08's token GEMMs at B = 64, T = 2 ([T*B, N, in] @ [in, out]) and
# the head's [B, D] @ [D, classes]
_DESK_GEMMS = [((128, 4, 64), 64), ((128, 4, 64), 256), ((128, 4, 256), 64), ((64, 64), 4)]
# the three token GEMMs of spikingformer-4-384 at T = 4, B = 1
_GEMMS_4_384 = [((4, 64, 384), 384), ((4, 64, 384), 1536), ((4, 64, 1536), 384)]


class TestFlatInputGradDifferential:
    """A 2-D weight's input gradient is one flat GEMM over every leading axis,
    against numpy's batched ``g @ w.T``: float64 within 1e-12, float32
    bit-equal on the 4-384 shapes and within ``FLOAT32_REORDER`` of the
    absolute sum at desk shapes."""

    @pytest.mark.parametrize("shape,out", _DESK_GEMMS + [((2, 3, 5), 7), ((5,), 3)])
    def test_float64_and_float32(self, rng, shape, out):
        a = rng.standard_normal(shape)
        w = rng.standard_normal((shape[-1], out))
        g = rng.standard_normal(shape[:-1] + (out,))
        abs_terms = batched_input_grad(np.abs(g), np.abs(w))
        got = _input_grad(a, w, g)
        assert got.shape == a.shape
        assert reordered_close(got, batched_input_grad(g, w), abs_terms, 1e-12)
        f32 = [v.astype(np.float32) for v in (a, w, g)]
        got = _input_grad(*f32)
        assert got.dtype == np.float32
        assert reordered_close(got, batched_input_grad(f32[2], f32[1]), abs_terms,
                               FLOAT32_REORDER)

    @pytest.mark.parametrize("shape,out", _GEMMS_4_384)
    def test_float32_bit_equal_at_4_384(self, rng, shape, out):
        a = (rng.random(shape) < 0.2).astype(np.float32)
        w = rng.standard_normal((shape[-1], out)).astype(np.float32)
        g = rng.standard_normal(shape[:-1] + (out,)).astype(np.float32)
        assert _input_grad(a, w, g).tobytes() == batched_input_grad(g, w).tobytes()


class TestConvInputGradDifferential:
    """conv2d's input gradient as one GEMM of the output gradient's patch
    rows with the flipped kernel, against the nine tap adds it replaced:
    float64 within 1e-12, float32 within ``FLOAT32_REORDER`` of the absolute
    sum, on every padding case and on criterion 08's tokenizer convs."""

    @pytest.mark.parametrize("b,hw,c,o", [(3, hw, 5, 4) for hw in _CONV_MAPS]
                             + [(128, (4, 4), 16, 32), (128, (2, 2), 32, 64),
                                (128, (2, 2), 64, 64)])
    def test_float64_and_float32(self, rng, b, hw, c, o):
        x = rng.standard_normal((b,) + hw + (c,))
        k = rng.standard_normal((3, 3, c, o))
        g = rng.standard_normal((b,) + hw + (o,))
        abs_terms = col2im_input_grad(np.abs(g), np.abs(k))
        xt = tensor64(x, requires_grad=True)
        (conv2d(xt, tensor64(k)) * tensor64(g)).sum().backward()
        assert xt.grad.shape == x.shape
        assert reordered_close(xt.grad, col2im_input_grad(g, k), abs_terms, 1e-12)
        g32, k32 = g.astype(np.float32), k.astype(np.float32)
        got = T._conv2d_input_grad(g32, k32)
        assert got.dtype == np.float32 and got.shape == x.shape
        assert reordered_close(got, col2im_input_grad(g32, k32), abs_terms, FLOAT32_REORDER)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk_bytes", [1, 3 * 4 * 5 * 9 * 6 * 8])  # 1 and 3 images
    def test_chunks_bit_equal_to_one_gemm(self, rng, monkeypatch, dtype, chunk_bytes):
        g = rng.standard_normal((7, 4, 5, 6)).astype(dtype)
        k = rng.standard_normal((3, 3, 2, 6)).astype(dtype)
        whole = T._conv2d_input_grad(g, k)
        monkeypatch.setattr(T, "_PATCH_CHUNK_BYTES", chunk_bytes)
        assert T._conv2d_input_grad(g, k).tobytes() == whole.tobytes()

    def test_empty_batch(self, rng):
        k = rng.standard_normal((3, 3, 2, 6)).astype(np.float32)
        assert T._conv2d_input_grad(np.zeros((0, 4, 5, 6), np.float32), k).shape == (0, 4, 5, 2)
