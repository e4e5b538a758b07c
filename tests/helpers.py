"""Helpers the test modules import by name; fixtures live in conftest.py.

A module name of its own keeps these importable when another suite's
``conftest`` module is loaded first (``python -m pytest tests bench``).
"""

import struct

import numpy as np

from spikingformer import tensor as T
from spikingformer.data import CIFAR_RECORD_BYTES


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


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a's buffer (views and strided views walk to it)."""
    while getattr(a, "base", None) is not None:
        a = a.base
    return a


def tape_arrays(out: T.Tensor) -> list:
    """(label, array) for every array the recorded result ``out`` keeps alive:
    the data of each tape node and the arrays its backward closure holds,
    in creation order. Arrays are de-duplicated by owning buffer (each entry
    is the owner) and labelled by the op that produced them first: the op's
    name for a node's data (``multistep_lif``, ``maxpool2d``, ``Tensor.matmul``),
    ``op.name`` for a closure variable (``conv2d.rows``). Buffers of leaves
    (parameters, inputs, constants) are left out: the tape does not own them."""
    nodes, stack = {}, [out]
    while stack:
        t = stack.pop()
        if t._seq not in nodes and t._parents:
            nodes[t._seq] = t
            stack.extend(t._parents)

    def flat(value):
        if isinstance(value, (list, tuple)):
            for item in value:
                yield from flat(item)
        elif isinstance(value, (T.Tensor, np.ndarray)):
            yield value

    held = []  # (label, array or tensor) in creation order
    for seq in sorted(nodes):
        fn = nodes[seq]._backward
        op = fn.__qualname__.split(".<locals>")[0]
        held.append((op, nodes[seq].data))
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            held.extend((f"{op}.{name}", v) for v in flat(cell.cell_contents))
    seen = {id(_owner(v.data)) for _, v in held
            if isinstance(v, T.Tensor) and not v._parents}
    seen |= {id(_owner(p.data)) for t in nodes.values() for p in t._parents if not p._parents}
    found = []
    for label, value in held:
        arr = _owner(value.data if isinstance(value, T.Tensor) else value)
        if id(arr) not in seen:
            seen.add(id(arr))
            found.append((label, arr))
    return found


def write_cifar10_binary(path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write images in [0, 1] and labels as CIFAR-10 binary records, the
    inverse of ``data.load_cifar10_binary``."""
    n = len(labels)
    out = np.empty((n, CIFAR_RECORD_BYTES), dtype=np.uint8)
    out[:, 0] = labels
    out[:, 1:] = np.rint(images.reshape(n, -1) * 255.0).astype(np.uint8)
    out.tofile(path)


def write_v1_checkpoint(state: dict, path) -> None:
    """Write ``state`` in checkpoint format version 1, as the code of that
    version did: the same records as version 2, but every rank-4 tensor (a
    spatial kernel, [kh, kw, C, O] in memory) stored as [O, C, kh, kw]."""
    with open(path, "wb") as fh:
        fh.write(b"SPKF" + struct.pack("<II", 1, len(state)))
        for name in sorted(state):
            arr = state[name]
            if arr.ndim == 4:
                arr = arr.transpose(3, 2, 0, 1)
            arr = np.ascontiguousarray(arr, dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)) + encoded)
            fh.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
            fh.write(arr.tobytes())
