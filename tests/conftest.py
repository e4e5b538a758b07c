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
