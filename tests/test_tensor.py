"""Tensor engine: forward semantics against naive oracles, gradients against
central finite differences."""

import numpy as np
import pytest

from spikingformer.tensor import (
    Tensor,
    batchnorm,
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


class TestBatchnorm:
    def test_identity_normalization(self, rng):
        eps = 1e-5
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        y = batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                      Tensor(np.zeros(3)), Tensor(np.full(3, 1.0 - eps)), eps=eps)
        np.testing.assert_allclose(y.data, x, atol=1e-6)

    def test_hand_evaluation(self):
        # gamma=1.5, beta=0.5, mu=1, var+eps=4, x=3 -> 1.5*(3-1)/2 + 0.5 = 2
        eps = 1e-5
        y = batchnorm(Tensor(np.full((1, 1), 3.0)), Tensor([1.5]), Tensor([0.5]),
                      Tensor([1.0]), Tensor([4.0 - eps]), eps=eps)
        np.testing.assert_allclose(y.data, 2.0, rtol=1e-6)

    def test_invalid_variance_raises(self):
        with pytest.raises(ValueError, match="var"):
            batchnorm(Tensor(np.ones((1, 1))), Tensor([1.0]), Tensor([0.0]),
                      Tensor([0.0]), Tensor([-1.0]), eps=1e-5)

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


def test_forward_determinism(rng):
    seed_state = rng.integers(0, 2**32)
    out = []
    for _ in range(2):
        r = np.random.default_rng(seed_state)
        x = Tensor(r.standard_normal((2, 2, 6, 6)).astype(np.float32))
        w = Tensor(r.standard_normal((3, 2, 3, 3)).astype(np.float32))
        out.append(conv2d(x, w, 1, 1).data)
    np.testing.assert_array_equal(out[0], out[1])
