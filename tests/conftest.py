import numpy as np
import pytest

from spikingformer import tensor as T


@pytest.fixture(autouse=True)
def _restore_engine_state():
    """Put the engine's no_grad flag back after every test, so a test that
    fails mid-way cannot leak it into later ones."""
    yield
    T._grad_enabled = True


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def tensor64(data, requires_grad=False):
    """A float64 leaf, for finite-difference work."""
    return T.Tensor(data, requires_grad, dtype=np.float64)


def finite_difference(f, params, h=1e-3):
    """Central-difference gradients of scalar f() wrt a list of Tensors."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data, dtype=np.float64)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f()
            flat[i] = orig - h
            lo = f()
            flat[i] = orig
            g.reshape(-1)[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def relative_error(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom
