"""Span tracer for the traced benchmark run.

``Tracer.install()`` wraps the public functions and methods of the
spikingformer layers from outside: every binding a caller looks up is
replaced (module-level names imported elsewhere by name, class attributes and
their aliases such as ``Tensor.__radd__``), and ``uninstall()`` puts every
original back. Each call records a span (name, layer label, op id, parent,
start, end) in flat in-memory arrays; nothing is written until the run ends.

Times are ``time.perf_counter`` seconds. A span belongs to the op that was
current when it opened; ops are numbered by ``next_op()``, and setup spans
carry negative op ids.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
import tracemalloc
from array import array

PACKAGE = "spikingformer"
LAYERS = ("tensor", "neuron", "layers", "model", "audit", "energy", "train", "data")

# Tensor dunders that are public arithmetic, traced as one elementwise group
_ELEMENTWISE_DUNDERS = {"__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                        "__rmul__", "__truediv__", "__pow__", "__matmul__"}

# qualified callable name -> span name, where the metric name differs
SPAN_NAMES = {
    **{f"tensor.Tensor.{m}": "tensor.elementwise"
       for m in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__pow__", "exp", "log", "sigmoid")},
    "tensor.spike_threshold": "tensor.elementwise",
    "tensor.Tensor.matmul": "tensor.matmul",
    "tensor.Tensor.__matmul__": "tensor.matmul",
    "tensor.Tensor.backward": "tensor.backward",
    "model.Model.forward": "model.forward",
    "model.Model.fuse": "model.fuse",
    "audit.ForwardRecorder.observe_conv": "audit.observe_conv",
    "audit.ForwardRecorder.observe_attention": "audit.observe_attention",
    "energy.spikformer_recalc": "energy.recalc",
    "train.AdamW.step": "train.adamw_step",
    "data.synth_static": "data.synth",
    "data.synth_events": "data.synth",
}


def public_callables(modules):
    """(qualified name, owner, attribute) for each public function and method.

    Generator functions are skipped: a span around them would time only the
    creation of the generator.
    """
    out = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                out.append((f"{short}.{name}", mod, name))
            elif inspect.isclass(obj):
                for attr, val in vars(obj).items():
                    if not inspect.isfunction(val) or inspect.isgeneratorfunction(val):
                        continue
                    if attr.startswith("_") and attr not in _ELEMENTWISE_DUNDERS:
                        continue
                    out.append((f"{short}.{name}.{attr}", obj, attr))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_label = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op = -1
        # per-op snapshots taken by next_op()
        self.nodes = 0
        self.gc_s = 0.0
        self._gc_start = 0.0
        self.op_nodes: list[int] = []
        self.op_gc_s: list[float] = []
        self.op_live_bytes: list[int] = []
        self._patches: list[tuple] = []
        self._measure_memory = False

    # -- recording ------------------------------------------------------------

    def _id(self, table: dict, items: list, key: str) -> int:
        if key not in table:
            table[key] = len(items)
            items.append(key)
        return table[key]

    def open(self, name_id: int, label_id: int = -1) -> int:
        i = len(self.span_name)
        self.span_name.append(name_id)
        self.span_label.append(label_id)
        self.span_op.append(self.op)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = time.perf_counter()
        self._stack.pop()

    def begin(self) -> None:
        """Start numbering ops from 0 with fresh counters."""
        self.op = 0
        self.nodes = 0
        self.gc_s = 0.0

    def next_op(self) -> None:
        """Close the current op: snapshot its counters and advance the op id."""
        self.op_nodes.append(self.nodes)
        self.op_gc_s.append(self.gc_s)
        self.op_live_bytes.append(tracemalloc.get_traced_memory()[0]
                                  if self._measure_memory else 0)
        self.nodes = 0
        self.gc_s = 0.0
        self.op += 1

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start

    # -- patching ---------------------------------------------------------------

    def _wrap(self, fn, span: str, labelled: bool):
        name_id = self._id(self._name_ids, self.names, span)

        if labelled:  # layer objects carry their path in the model as ``.name``
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label = getattr(args[0], "name", "") if args else ""
                i = self.open(name_id,
                              self._id(self._label_ids, self.labels, label) if label else -1)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(i)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = self.open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(i)
        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, measure_memory: bool = False) -> None:
        """Wrap every public callable of the traced layers, at every binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg_modules = [m for n, m in sorted(sys.modules.items())
                       if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        layers = [sys.modules[f"{PACKAGE}.{n}"] for n in LAYERS]
        wrappers = {}
        for qual, owner, attr in public_callables(layers):
            fn = vars(owner)[attr]
            if id(fn) not in wrappers:
                wrapper = self._wrap(fn, SPAN_NAMES.get(qual, qual), qual.startswith("layers."))
                # a function is looked up through every module that imported it
                # by name; a method through its class, under each alias
                owners = pkg_modules if inspect.ismodule(owner) else [owner]
                wrappers[id(fn)] = (fn, wrapper, owners)
        for fn, wrapper, owners in wrappers.values():
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is fn:
                        self._patch(owner, attr, wrapper)
        # count Tensor objects without a span per construction
        tensor_cls = sys.modules[f"{PACKAGE}.tensor"].Tensor
        init = tensor_cls.__init__

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            self.nodes += 1
            init(obj, *args, **kwargs)

        self._patch(tensor_cls, "__init__", counting_init)
        gc.callbacks.append(self._on_gc)
        self._measure_memory = measure_memory
        if measure_memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        """Restore every patched binding, most recent first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        if self._measure_memory:
            tracemalloc.stop()
            self._measure_memory = False

    # -- aggregation ------------------------------------------------------------

    def durations(self):
        """Per span: (inclusive seconds, self seconds, outermost-of-its-name)."""
        n = len(self.span_name)
        incl = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += incl[i]
        outer = []
        for i in range(n):
            name, p = self.span_name[i], self.span_parent[i]
            while p >= 0 and self.span_name[p] != name:
                p = self.span_parent[p]
            outer.append(p < 0)
        return incl, [incl[i] - child[i] for i in range(n)], outer

    def totals(self, ops):
        """Sum per span name over spans of the given op ids.

        Returns name -> {"s": inclusive seconds counting only outermost spans
        of that name (so nested calls of one group are not double counted),
        "self_s": self seconds, "calls": every call}.
        """
        ops = set(ops)
        incl, self_s, outer = self.durations()
        out = {}
        for i in range(len(self.span_name)):
            if self.span_op[i] not in ops:
                continue
            row = out.setdefault(self.names[self.span_name[i]],
                                 {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["calls"] += 1
            row["self_s"] += self_s[i]
            if outer[i]:
                row["s"] += incl[i]
        return out

    def layer_rows(self, ops):
        """Per named layer (``blocks.1.attn``, ...) and span: means per op of
        calls, inclusive ms and self ms."""
        ops = set(ops)
        incl, self_s, _ = self.durations()
        rows = {}
        for i in range(len(self.span_name)):
            if self.span_label[i] < 0 or self.span_op[i] not in ops:
                continue
            key = (self.labels[self.span_label[i]], self.names[self.span_name[i]])
            row = rows.setdefault(key, {"layer": key[0], "span": key[1], "calls": 0,
                                        "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1 / len(ops)
            row["ms"] += incl[i] * 1e3 / len(ops)
            row["self_ms"] += self_s[i] * 1e3 / len(ops)
        return sorted(rows.values(), key=lambda r: (r["layer"], r["span"]))

    def dump(self) -> dict:
        """Column-wise copy of every recorded span, for writing out once."""
        return {
            "names": self.names,
            "labels": self.labels,
            "name": self.span_name.tolist(),
            "label": self.span_label.tolist(),
            "op": self.span_op.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }

