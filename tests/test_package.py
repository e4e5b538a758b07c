"""Package surface: every exported name resolves."""

import spikingformer


def test_every_exported_name_resolves():
    missing = [name for name in spikingformer.__all__ if not hasattr(spikingformer, name)]
    assert not missing, missing
    assert len(set(spikingformer.__all__)) == len(spikingformer.__all__)
