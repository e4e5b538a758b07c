"""The test helpers themselves: what they report on closures they walk."""

import numpy as np
import pytest

from helpers import closure_arrays, tape_arrays
from spikingformer import tensor as T
from spikingformer.neuron import LIFParams, multistep_lif


def _backward(bind: bool):
    """A backward closure over ``kept``, which only one branch binds, as
    ``BatchNorm.forward`` binds ``inv_n`` only for batch statistics."""
    if bind:
        kept = np.ones(3)
    scale = np.full(2, 2.0)

    def bwd(g):
        return g * scale * kept

    return bwd


def test_closure_arrays_skips_an_empty_cell():
    assert [name for name, _ in closure_arrays(_backward(False))] == ["scale"]


def test_closure_arrays_reports_every_bound_cell():
    assert [name for name, _ in closure_arrays(_backward(True))] == ["kept", "scale"]


def _rebuilding_backward(kept):
    """A backward closure that holds ``kept`` only through a captured function
    (as ``multistep_lif``'s holds a batch norm's rebuild of its input), two
    levels down, beside an array of its own."""
    def affine():
        return kept * 2.0

    def rebuild():
        return affine().reshape(-1)

    spikes = np.zeros(3, dtype=bool)

    def bwd(g):
        return g * rebuild() * spikes

    return bwd


def test_closure_arrays_walks_into_captured_functions():
    kept = np.ones(3)
    found = list(closure_arrays(_rebuilding_backward(kept)))
    assert [name for name, _ in found] == ["spikes", "kept"]
    assert found[1][1] is kept


def test_closure_arrays_fails_on_a_tensor_inside_a_captured_function():
    with pytest.raises(AssertionError, match="affine captures a Tensor as kept"):
        list(closure_arrays(_rebuilding_backward(T.Tensor(np.ones(3)))))


def test_closure_arrays_walks_a_function_cycle_once():
    def make():
        def ping():
            return pong() + kept

        def pong():
            return ping()

        kept = np.ones(2)
        return pong

    assert [name for name, _ in closure_arrays(make())] == ["kept"]


def test_tape_arrays_finds_an_array_only_a_rebuild_holds():
    # no backward reads the spikes of an SN summed straight into the loss:
    # only its node's rebuild holds their packed copy
    x = T.Tensor(np.linspace(-1.0, 3.0, 30, dtype=np.float32).reshape(2, 3, 5),
                 requires_grad=True)
    loss = multistep_lif(x, LIFParams()).sum()
    assert [(label, a.dtype) for label, a in tape_arrays(loss, [x])] == \
        [("multistep_lif.packed", np.uint8)]
