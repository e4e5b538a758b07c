"""The test helpers themselves: what they report on closures they walk."""

import numpy as np

from helpers import closure_arrays


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
