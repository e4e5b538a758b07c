"""Helpers the test modules import by name; fixtures live in conftest.py.

A module name of its own keeps these importable when another suite's
``conftest`` module is loaded first (``python -m pytest tests bench``).
"""

import struct
import types

import numpy as np

from spikingformer import tensor as T
from spikingformer.data import CIFAR_RECORD_BYTES
from spikingformer.neuron import SPIKING
from spikingformer.train import ADAM_EPS, BETA1, BETA2


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


def closure_arrays(fn):
    """(name, array) for each array a backward closure captured, lists and
    tuples of arrays opened up, and the closures of captured functions (a
    rebuild function, a helper) walked into, each function once, an array
    there named by its own cell. A closure captures arrays only: a captured
    ``Tensor`` (an operand or an output) at any depth fails the check. An
    empty cell (a name one branch of the forward never binds) holds nothing
    and is skipped."""
    seen = set()
    functions = [fn]
    while functions:
        fn = functions.pop(0)
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            try:
                stack = [cell.cell_contents]
            except ValueError:  # empty cell
                continue
            while stack:
                value = stack.pop()
                assert not isinstance(value, T.Tensor), \
                    f"{fn.__qualname__} captures a Tensor as {name}"
                if isinstance(value, (list, tuple)):
                    stack.extend(reversed(value))
                elif isinstance(value, np.ndarray):
                    yield name, value
                elif isinstance(value, types.FunctionType):
                    functions.append(value)


def tape_nodes(out: T.Tensor) -> list:
    """The recorded nodes the result ``out`` reaches, in creation order: a
    node's parents also hold leaf tensors and None, which are skipped, as is a
    node a sweep has released."""
    nodes, stack = {}, [out._node]
    while stack:
        node = stack.pop()
        if isinstance(node, T._Node) and node.parents and node.seq not in nodes:
            nodes[node.seq] = node
            stack.extend(node.parents)
    return [nodes[seq] for seq in sorted(nodes)]


def node_arrays(node: T._Node):
    """(name, array) for each array a tape node's closures hold: its
    backward's, then its rebuild's (``closure_arrays``). A node holds no array
    of its own, and an array only its rebuild holds is on the tape too."""
    yield from closure_arrays(node.backward)
    if node.remat is not None:
        yield from closure_arrays(node.remat)


def tape_arrays(out: T.Tensor, leaves=()) -> list:
    """(label, array) for every array the recorded result ``out`` keeps alive
    through its tape: the arrays its nodes hold (``node_arrays``), in creation
    order. Arrays are de-duplicated by owning buffer (each entry is the owner)
    and labelled ``op.name``: the op of the first node whose closures hold
    them, directly or through a rebuild they captured, and the cell that holds
    them (``multistep_lif.packed``, ``conv2d.xd``, ``Tensor.matmul.b``).
    Buffers of the tensors in ``leaves`` (parameters, inputs) are left out:
    the tape does not own them."""
    seen = {id(_owner(t.data)) for t in leaves}
    found = []
    for node in tape_nodes(out):
        op = node.backward.__qualname__.split(".<locals>")[0]
        for name, value in node_arrays(node):
            arr = _owner(value)
            if id(arr) not in seen:
                seen.add(id(arr))
                found.append((f"{op}.{name}", arr))
    return found


def tape_bytes(out: T.Tensor, leaves=()) -> dict:
    """MiB per label of the arrays ``tape_arrays(out, leaves)`` finds, in the
    order each label first appears."""
    mib = {}
    for label, arr in tape_arrays(out, leaves):
        mib[label] = mib.get(label, 0.0) + arr.nbytes / 2**20
    return mib


# -- slow paths that faster ones replaced, kept as differential references ------


def leading_axis_sum(a: np.ndarray) -> np.ndarray:
    """numpy's own sum over every axis but the last: the reference for
    ``tensor._channel_sum``."""
    return a.sum(axis=tuple(range(a.ndim - 1)))


def batched_input_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``Tensor.matmul``'s input gradient for a 2-D weight as numpy's batched
    ``g @ w.T``, one GEMM per leading slice: the reference for the flat GEMM."""
    return g @ np.swapaxes(w, -1, -2)


def col2im_input_grad(g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """conv2d's input gradient by nine tap adds: ``g_rows @ K.T`` gives every
    patch row's gradient, in (kh, kw, c) order, and each tap's slice is added
    back into the padded map. The reference for ``tensor._conv2d_input_grad``."""
    b, h, w, o = g.shape
    c = kernel.shape[2]
    taps = (g.reshape(-1, o) @ kernel.reshape(-1, o).T).reshape(b, h, w, 3, 3, c)
    xpad = np.zeros((b, h + 2, w + 2, c), dtype=taps.dtype)
    for i in range(3):
        for j in range(3):
            xpad[:, i : i + h, j : j + w] += taps[..., i, j, :]
    return np.ascontiguousarray(xpad[:, 1 : h + 1, 1 : w + 1])


def lif_input_grad_per_step(x, g, params, mode=SPIKING, input_scale=1.0) -> np.ndarray:
    """``multistep_lif``'s input gradient for output gradient g, with the
    surrogate taken inside the reverse loop, one step at a time: the
    reference for the all-steps surrogate. The forward runs ``lif_step``'s
    float operations in x's dtype, with 0/1 spikes in that dtype."""
    dt = x.dtype.type
    decay, v_th, v_reset, one = dt(1.0 / params.tau), dt(params.v_threshold), \
        dt(params.v_reset), dt(1.0)
    h_all, s_all = np.empty_like(x), np.empty_like(x)
    v = np.full(x.shape[1:], v_reset, dtype=x.dtype)
    for t in range(len(x)):
        xt = x[t] * dt(input_scale) if input_scale != 1.0 else x[t]
        h = v + (xt - (v - v_reset)) * decay
        if mode == SPIKING:
            s = (h >= v_th).astype(x.dtype)
        else:
            s = 1.0 / (1.0 + np.exp(-((h - v_th) * dt(params.alpha))))
        h_all[t], s_all[t] = h, s
        v = h * (one - s)
        if v_reset:
            v = v + s * v_reset
    gx = np.empty_like(x)
    g_h = np.zeros_like(x[0])
    for t in range(len(x) - 1, -1, -1):
        sg = T.surrogate_grad(h_all[t] - v_th, params.alpha)
        if mode == SPIKING:
            sg = g[t] * sg
        else:
            sg = sg * ((g[t] + g_h * v_reset) - g_h * h_all[t])
        g_h = g_h * (one - s_all[t]) + sg
        gx[t] = g_h * decay
        g_h = g_h - gx[t]
        if input_scale != 1.0:
            gx[t] *= dt(input_scale)
    return gx


def adamw_per_parameter_step(params, m, v, t, lr, weight_decay) -> None:
    """AdamW step t over each parameter in turn, in place, two scratch arrays
    per parameter: the reference for ``AdamW.step`` over flat buffers. m and
    v are per-parameter lists of moment arrays."""
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p, mi, vi in zip(params, m, v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        tmp = (1 - BETA1) * g
        mi *= BETA1
        mi += tmp
        np.multiply(g, 1 - BETA2, out=tmp)
        tmp *= g
        vi *= BETA2
        vi += tmp
        update = mi / bc1
        np.divide(vi, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update /= tmp
        update += np.multiply(p.data, weight_decay, out=tmp)
        update *= lr
        p.data -= update


# float32 bound of a result that only reorders its sums: 8 roundoffs of the
# sum of the absolute terms each entry adds
FLOAT32_REORDER = 8 * float(np.finfo(np.float32).eps)


def reordered_close(got, want, abs_terms, rel) -> bool:
    """Every entry of got is within ``rel`` times the sum of the absolute
    terms it adds (``abs_terms``) of want: the bound a result that only
    reorders its sums keeps against its reference, whatever the cancellation."""
    return bool(np.all(np.abs(np.asarray(got, np.float64) - want) <= rel * abs_terms))


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
