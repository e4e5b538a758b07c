"""Tensor engine: forward semantics against naive oracles, gradients against
central finite differences."""

import contextlib
import weakref

import numpy as np
import pytest

from spikingformer import tensor as T
from spikingformer.layers import BatchNorm
from spikingformer.neuron import LIFParams, multistep_lif
from spikingformer.tensor import (
    Tensor,
    _im2col,
    conv2d,
    log_softmax,
    maxpool2d,
    no_grad,
    set_default_dtype,
)

from conftest import finite_difference, relative_error


def naive_conv2d(x, w, stride, padding):
    """Direct 6-loop cross-correlation reference."""
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
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        k = np.zeros((1, 1, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1] = 1.0
        y = conv2d(x, Tensor(k), stride=1, padding=1)
        np.testing.assert_array_equal(y.data, x.data)

    def test_all_ones_sum(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        k = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        y = conv2d(x, k, stride=1, padding=0)
        assert y.data.shape == (1, 1, 1, 1)
        assert y.data[0, 0, 0, 0] == 4.0

    def test_matches_six_loop_reference(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            got = conv2d(Tensor(x), Tensor(w), stride, padding).data
            want = naive_conv2d(x.astype(np.float64), w.astype(np.float64), stride, padding)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(x, w)

    def test_oversized_kernel_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)))
        w = Tensor(rng.standard_normal((1, 1, 5, 5)))
        with pytest.raises(ValueError, match="larger than"):
            conv2d(x, w, padding=0)

    def test_bias(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 3, 3)).astype(np.float32))
        w = Tensor(np.zeros((2, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.array([1.5, -2.0], dtype=np.float32))
        y = conv2d(x, w, padding=1, bias=b)
        assert np.all(y.data[0, 0] == 1.5) and np.all(y.data[0, 1] == -2.0)


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
    """(input, kernel) gradients of conv2d by the einsum + col2im reference."""
    b = x.shape[0]
    o, c, kh, kw = kernel.shape
    cols, (oh, ow) = _im2col(x, kh, kw, stride, padding)
    gmat = g.reshape(b, o, oh * ow)
    wmat = kernel.reshape(o, c * kh * kw)
    gw = np.einsum("bop,bkp->ok", gmat, cols, optimize=True).reshape(kernel.shape)
    gcols = np.einsum("ok,bop->bkp", wmat, gmat, optimize=True)
    return _col2im_reference(gcols, x.shape, kh, kw, stride, padding), gw


class TestConv2dBackwardDifferential:
    """The channels-last input gradient and tensordot weight gradient against
    the einsum + col2im reference, in float64."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_einsum_col2im(self, float64_engine, rng, stride, padding, k):
        x = Tensor(rng.standard_normal((3, 2, 5, 7)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2, k, k)), requires_grad=True)
        y = conv2d(x, w, stride, padding)
        g = rng.standard_normal(y.shape)
        (y * Tensor(g)).sum().backward()
        gx, gw = _conv2d_grads_reference(x.data, w.data, g, stride, padding)
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert relative_error(x.grad, gx).max() <= 1e-6
        assert relative_error(w.grad, gw).max() <= 1e-6


def _eval_batchnorm(gamma, beta, mean, var, eps=1e-5, axis=1):
    from spikingformer.layers import BatchNorm

    bn = BatchNorm(len(gamma), axis=axis, eps=eps)
    bn.gamma.data = np.asarray(gamma, dtype=np.float32)
    bn.beta.data = np.asarray(beta, dtype=np.float32)
    bn._buffers["running_mean"] = np.asarray(mean, dtype=np.float32)
    bn._buffers["running_var"] = np.asarray(var, dtype=np.float32)
    return bn.eval()


class TestBatchnorm:
    def test_identity_normalization(self, rng):
        eps = 1e-5
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        bn = _eval_batchnorm(np.ones(3), np.zeros(3), np.zeros(3), np.full(3, 1.0 - eps), eps=eps)
        y = bn.forward(Tensor(x))
        np.testing.assert_allclose(y.data, x, atol=1e-6)

    def test_hand_evaluation(self):
        # gamma=1.5, beta=0.5, mu=1, var+eps=4, x=3 -> 1.5*(3-1)/2 + 0.5 = 2
        eps = 1e-5
        bn = _eval_batchnorm([1.5], [0.5], [1.0], [4.0 - eps], eps=eps)
        y = bn.forward(Tensor(np.full((1, 1), 3.0)))
        np.testing.assert_allclose(y.data, 2.0, rtol=1e-6)

    def test_invalid_variance_raises(self):
        bn = _eval_batchnorm([1.0], [0.0], [0.0], [-1.0], eps=1e-5)
        with pytest.raises(ValueError, match="var"):
            bn.forward(Tensor(np.ones((1, 1))))

    def test_training_mode_constant_batch(self):
        # constant input: batch variance 0, output = beta everywhere
        from spikingformer.layers import BatchNorm

        bn = BatchNorm(3, axis=1)
        bn.beta.data = np.array([0.1, -0.5, 2.0], dtype=np.float32)
        x = Tensor(np.full((4, 3, 5), 7.0, dtype=np.float32))
        y = bn.forward(x)
        want = np.broadcast_to(bn.beta.data[None, :, None], y.data.shape)
        np.testing.assert_allclose(y.data, want, atol=1e-5)

    def test_running_stats_update(self, rng):
        from spikingformer.layers import BatchNorm

        bn = BatchNorm(2, axis=1, momentum=0.1)
        x = Tensor(rng.standard_normal((16, 2, 3)).astype(np.float32))
        bn.forward(x)
        mu = x.data.mean(axis=(0, 2))
        np.testing.assert_allclose(bn._buffers["running_mean"], 0.1 * mu, rtol=1e-5)


def _composed_batchnorm(bn, x):
    """BN forward as a chain of tape ops: the reference for the one-node BN."""
    ndim = x.ndim
    axis = bn.axis % ndim
    shape = bn._param_shape(ndim)
    reduce_axes = tuple(a for a in range(ndim) if a != axis)
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
        mu = Tensor(bn._buffers["running_mean"].reshape(shape))
        var = Tensor(bn._buffers["running_var"].reshape(shape))
    inv_std = (var + Tensor(np.asarray(bn.eps, dtype=x.data.dtype))) ** -0.5
    return (x - mu) * inv_std * bn.gamma.reshape(shape) + bn.beta.reshape(shape)


def _bn_pair(rng, channels, axis, training):
    """Two BatchNorms with the same random affine and running statistics."""
    gamma = rng.standard_normal(channels)
    beta = rng.standard_normal(channels)
    mean = rng.standard_normal(channels)
    var = rng.uniform(0.5, 2.0, channels)
    pair = []
    for _ in range(2):
        bn = BatchNorm(channels, axis=axis)
        bn.gamma.data = gamma.astype(bn.gamma.data.dtype)
        bn.beta.data = beta.astype(bn.beta.data.dtype)
        bn._buffers["running_mean"] = mean.astype(bn.gamma.data.dtype)
        bn._buffers["running_var"] = var.astype(bn.gamma.data.dtype)
        pair.append(bn.train() if training else bn.eval())
    return pair


# (input shape, channel axis): spatial NCHW maps and [B, N, D] tokens, batch 1 too
_BN_CASES = [((4, 3, 5, 5), 1), ((1, 3, 4, 4), 1), ((4, 6, 5), -1), ((1, 5, 6), -1)]


class TestBatchNormNodeDifferential:
    """The one-node BatchNorm against the composed tape-op reference."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape,axis", _BN_CASES)
    def test_float32_forward_and_buffers_bit_equal(self, rng, shape, axis, training):
        fast, ref = _bn_pair(rng, shape[axis], axis, training)
        x = (3.0 * rng.standard_normal(shape) + 1.0).astype(np.float32)
        for _ in range(2):  # the second call sees updated running statistics
            y = fast.forward(Tensor(x))
            want = _composed_batchnorm(ref, Tensor(x))
            assert y.data.dtype == np.float32
            np.testing.assert_array_equal(y.data, want.data)
            for name in ("running_mean", "running_var"):
                np.testing.assert_array_equal(fast._buffers[name], ref._buffers[name])

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape,axis", _BN_CASES)
    def test_float64_gradients_match(self, float64_engine, rng, shape, axis, training):
        fast, ref = _bn_pair(rng, shape[axis], axis, training)
        x = 3.0 * rng.standard_normal(shape) + 1.0
        g = Tensor(rng.standard_normal(shape))
        xf, xr = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        (fast.forward(xf) * g).sum().backward()
        (_composed_batchnorm(ref, xr) * g).sum().backward()
        for got, want in [(xf.grad, xr.grad), (fast.gamma.grad, ref.gamma.grad),
                          (fast.beta.grad, ref.beta.grad)]:
            assert got.shape == want.shape
            assert relative_error(got, want).max() <= 1e-6

    def test_one_tape_node_per_call(self, rng):
        bn = BatchNorm(3, axis=1)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        y = bn.forward(x)
        assert set(y._parents) == {x, bn.gamma, bn.beta}


class TestDenseOps:
    def test_matmul_hand(self):
        a = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]]))
        b = Tensor(np.array([[2.0], [3.0]]))
        np.testing.assert_array_equal((a @ b).data, [[2.0], [5.0]])

    def test_maxpool_hand(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        np.testing.assert_array_equal(maxpool2d(x).data, [[[[4.0]]]])

    def test_maxpool_odd_dims_floor(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 7)))
        assert maxpool2d(x).shape == (1, 1, 2, 3)

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
        T.set_default_dtype(dtype)
        n_silent = self._silent_counts(40)[which]
        a = _rows_with_silent(rng, shape, n_silent, dtype)
        w = rng.standard_normal((shape[-1], 7)).astype(dtype)
        y = (Tensor(a) @ Tensor(w)).data
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
        T.set_default_dtype(dtype)
        a = _rows_with_silent(rng, shape, 20, dtype)
        w = rng.standard_normal((shape[-1], 7)).astype(dtype)
        upstream = rng.standard_normal(shape[:-1] + (7,)).astype(dtype)

        def grads():
            x, wt = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
            ((x @ wt) * Tensor(upstream)).sum().backward()
            return x.grad, wt.grad

        compacted = grads()
        monkeypatch.setattr(T, "_SILENT_ROW_SHARE", 2.0)  # never compact
        dense = grads()
        for c, d in zip(compacted, dense):
            assert c.dtype == d.dtype and c.tobytes() == d.tobytes()


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
        xt = Tensor(x, requires_grad=True)
        y = maxpool2d(xt)
        g = rng.standard_normal(y.shape).astype(np.float32)
        (y * Tensor(g)).sum().backward()
        ref_y, ref_gx = _maxpool_reference(x, g)
        assert y.data.tobytes() == ref_y.tobytes()
        assert xt.grad.shape == x.shape and xt.grad.tobytes() == ref_gx.tobytes()

    def test_ties_go_to_the_first_window_position(self):
        x = Tensor(np.ones((1, 1, 2, 2), np.float32), requires_grad=True)
        maxpool2d(x).sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])


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

    def test_two_layer_affine_chain_fd(self, float64_engine, rng):
        w1 = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b1 = Tensor(rng.standard_normal(5), requires_grad=True)
        w2 = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))

        def run():
            h = (x @ w1 + b1).sigmoid()
            return ((h @ w2) ** 2.0).sum()

        loss = run()
        loss.backward()
        fd = finite_difference(lambda: run().item(), [w1, b1, w2])
        for p, g in zip([w1, b1, w2], fd):
            assert relative_error(p.grad, g).max() <= 1e-3

    def test_rank3_input_weight_gradient_fd(self, float64_engine, rng):
        # [T*B, N, D] @ [D, D'] takes the weight gradient as one flattened GEMM
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)

        def run():
            return ((x @ w) ** 2.0).sum()

        run().backward()
        fd = finite_difference(lambda: run().item(), [x, w])
        for p, g in zip([x, w], fd):
            assert relative_error(p.grad, g).max() <= 1e-3

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
    def test_conv2d_gradients_fd(self, float64_engine, rng, stride, padding):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def run():
            return (conv2d(x, w, stride, padding, bias=b) ** 2.0).sum()

        run().backward()
        fd = finite_difference(lambda: run().item(), [x, w, b])
        for p, g in zip([x, w, b], fd):
            assert relative_error(p.grad, g).max() <= 1e-3

    def test_maxpool_gradients_fd(self, float64_engine, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)

        def run():
            return (maxpool2d(x) ** 2.0).sum()

        run().backward()
        (fd,) = finite_difference(lambda: run().item(), [x], h=1e-5)
        assert relative_error(x.grad, fd).max() <= 1e-3

    def test_batchnorm_gradients_fd(self, float64_engine, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        gamma = Tensor(rng.standard_normal(3), requires_grad=True)
        beta = Tensor(rng.standard_normal(3), requires_grad=True)

        def run():
            mu = x.mean(axis=0, keepdims=True)
            var = ((x - mu) ** 2.0).mean(axis=0, keepdims=True)
            y = (x - mu) * (var + Tensor(1e-5)) ** -0.5 * gamma + beta
            return (y ** 2.0).sum()

        run().backward()
        fd = finite_difference(lambda: run().item(), [x, gamma, beta])
        for p, g in zip([x, gamma, beta], fd):
            assert relative_error(p.grad, g).max() <= 1e-3

    def test_log_softmax_gradient_fd(self, float64_engine, rng):
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        mask = Tensor(rng.standard_normal((2, 5)))

        def run():
            return (log_softmax(x) * mask).sum()

        run().backward()
        (fd,) = finite_difference(lambda: run().item(), [x])
        assert relative_error(x.grad, fd).max() <= 1e-3


class TestNoGrad:
    def test_records_no_tape(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            loss = (w * 2.0).sum()
        assert loss._parents == ()
        loss.backward()
        assert w.grad is None

    def test_flag_restored_when_block_raises(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with no_grad():
                raise RuntimeError("raised inside no_grad")
        assert (w * 2.0)._parents == (w,)


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
    "conv2d": lambda x: conv2d(x, Tensor(np.ones((3, 2, 3, 3), dtype=np.float32)), 1, 1,
                               bias=Tensor(np.zeros(3, dtype=np.float32))),
    "maxpool2d": lambda x: maxpool2d(x),
    "multistep_lif": lambda x: multistep_lif(x, _LIF),
    "batchnorm": lambda x: _frozen_batchnorm().forward(x),
}


def _frozen_batchnorm():
    bn = BatchNorm(2)
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
        assert out._parents == () and out._backward is None

    @pytest.mark.parametrize("name", sorted(_UNTRACKED_OPS))
    def test_tracked_result_records_its_input(self, name):
        x = Tensor(np.random.default_rng(0).random((2, 2, 4, 4)).astype(np.float32),
                   requires_grad=True)
        out = _UNTRACKED_OPS[name](x)
        assert out._parents and out._backward is not None


def test_forward_determinism(rng):
    seed_state = rng.integers(0, 2**32)
    out = []
    for _ in range(2):
        r = np.random.default_rng(seed_state)
        x = Tensor(r.standard_normal((2, 2, 6, 6)).astype(np.float32))
        w = Tensor(r.standard_normal((3, 2, 3, 3)).astype(np.float32))
        out.append(conv2d(x, w, 1, 1).data)
    np.testing.assert_array_equal(out[0], out[1])
