"""Instrumentation: per-ConvBN input histograms, firing rates, purity verdicts.

A ForwardRecorder hooks every ConvBN (and the attention matmuls) during a
forward pass. The encoder conv's analog input is only counted; every other
conv input is binned at the nearest integer: one count decides a ``bool``
spike input; any other input is sorted once by ``np.unique`` and only its
distinct values are rounded, so a bin's key is the exact integer at any
magnitude. A value more than 1e-5 away from an integer, or not finite, lands
in an anomaly bucket instead of a bin. The purity verdict asserts the
spike-driven claim: every conv input except the encoder conv is exactly binary.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .tensor import no_grad

INTEGER_TOLERANCE = 1e-5

KIND_FIRST = "first-encoding-conv"
KIND_CONV = "snn-conv"
KIND_SSA = "ssa-matmul"


@dataclass
class LayerObservation:
    name: str
    kind: str
    flops_per_item: int = 0          # MACs for one [item] slice of the input batch
    items: int = 0                   # batch slices observed (T is folded in)
    elements: int = 0
    nonzero: int = 0
    histogram: Counter = field(default_factory=Counter)
    anomalies: int = 0
    events: int = 0                  # exact nonzero-operand products (ssa-matmul only)

    @property
    def first_encoding(self) -> bool:
        return self.kind == KIND_FIRST

    @property
    def firing_rate(self) -> float:
        """The share of input elements that are nonzero; at an ssa-matmul
        site, the share of scheduled products whose operands are both
        nonzero (the rate the SOP formula takes in place of fr)."""
        if self.kind == KIND_SSA:
            return self.events / (self.flops_per_item * self.items) if self.items else 0.0
        return self.nonzero / self.elements if self.elements else 0.0

    @property
    def is_binary(self) -> bool:
        return self.anomalies == 0 and set(self.histogram) <= {0, 1}


class ForwardRecorder:
    """Accumulates per-layer statistics across forward passes."""

    def __init__(self):
        self.layers: dict[str, LayerObservation] = {}

    def _layer(self, name: str, kind: str) -> LayerObservation:
        if name not in self.layers:
            self.layers[name] = LayerObservation(name=name, kind=kind)
        return self.layers[name]

    def observe_conv(self, layer, x: np.ndarray, flops_per_item: int) -> None:
        obs = self._layer(layer.name, KIND_FIRST if layer.first_encoding else KIND_CONV)
        obs.flops_per_item = flops_per_item
        obs.items += x.shape[0]
        obs.elements += x.size
        if layer.first_encoding:  # analog data: only its fr is ever read, never a bin
            obs.nonzero += int(np.count_nonzero(x))
            return
        if x.dtype == bool:  # spikes: binary by construction, one count decides them
            nonzero = int(np.count_nonzero(x))
            obs.nonzero += nonzero
            for v, c in ((0, x.size - nonzero), (1, nonzero)):
                if c:
                    obs.histogram[v] += c
            return
        values, counts = np.unique(x, return_counts=True)  # sorted distinct values
        obs.nonzero += x.size - int(counts[values == 0].sum())
        rounded = np.rint(values)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN: an anomaly
            integral = np.abs(values - rounded) <= INTEGER_TOLERANCE
        keys, counts = rounded[integral], counts[integral]
        obs.anomalies += x.size - int(counts.sum())
        if not keys.size:
            return
        # rint keeps the keys sorted: each run of one integer is a contiguous slice
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        for v, c in zip(keys[starts].tolist(), np.add.reduceat(counts, starts).tolist()):
            obs.histogram[int(v)] += c

    def observe_attention(self, attn, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> None:
        """Record the two matmuls of Q K^T V with exact event counts.

        q, k, v are head-split: [items, H, N, d]. An "event" is a scheduled
        multiply whose operands are both nonzero; the site's ``firing_rate``
        is their share of the scheduled products.
        """
        items, heads, n, d = q.shape
        flops = heads * n * n * d
        # counted in float (over bool spikes a plain matmul is a logical product),
        # by BLAS on float copies of bool spikes: exact, as every count is below 2**24
        dtype = np.result_type(q, k, np.float32)
        kt = np.swapaxes(k.astype(dtype, copy=False), -1, -2)
        core = np.matmul(q.astype(dtype, copy=False), kt)
        qk = self._layer(f"{attn.name}.qk", KIND_SSA)
        qk.flops_per_item = flops
        qk.items += items
        # each entry of Q K^T counts its products exactly; a float64 sum of
        # them stays exact past float32's 2^24
        qk.events += int(core.sum(dtype=np.float64))
        av = self._layer(f"{attn.name}.av", KIND_SSA)
        av.flops_per_item = flops
        av.items += items
        # events = sum_{i,j,l} [A[i,j] != 0] * [V[j,l] != 0]: a GEMV, exact (N * d < 2**24)
        rows = np.matmul((core != 0).astype(dtype), v.sum(axis=-1, dtype=dtype)[..., None])
        av.events += int(rows.sum(dtype=np.float64))


@dataclass
class PurityReport:
    """Per-layer histograms, firing rates and the overall spike-purity verdict."""

    layers: dict            # name -> {kind, histogram, firing_rate, anomalies}
    offending_layers: list

    @property
    def pure(self) -> bool:
        return not self.offending_layers

    @property
    def verdict(self) -> str:
        return "pure" if self.pure else "impure"


def run_recorded(model, batches) -> ForwardRecorder:
    """Run tape-free forward passes over one array or an iterable of batches
    with a fresh recorder attached; returns the recorder once every binned
    site's histogram (plus anomalies) accounts for each element it observed."""
    recorder = ForwardRecorder()
    model.set_recorder(recorder)
    try:
        with no_grad():
            for batch in [batches] if isinstance(batches, np.ndarray) else batches:
                model.forward(batch)
    finally:
        model.set_recorder(None)
    if not recorder.layers:
        raise ValueError("no batch was recorded: batches is empty")
    for name, obs in recorder.layers.items():
        total = sum(obs.histogram.values()) + obs.anomalies
        if obs.kind != KIND_FIRST and total != obs.elements:
            raise RuntimeError(f"histogram total {total} != elements {obs.elements} for {name}")
    return recorder


def record(model, batches) -> PurityReport:
    """Run the model over input batches and report on every audited ConvBN.

    The tokenizer's first unit (the spike encoder) is exempt from auditing:
    it is the one conv allowed to see analog data.
    """
    recorder = run_recorded(model, batches)
    layers = {}
    offending = []
    for name, obs in sorted(recorder.layers.items()):
        if obs.kind != KIND_CONV:
            continue
        layers[name] = {
            "kind": obs.kind,
            "histogram": dict(sorted(obs.histogram.items())),
            "firing_rate": obs.firing_rate,
            "anomalies": obs.anomalies,
        }
        if not obs.is_binary:
            offending.append(name)
    return PurityReport(layers=layers, offending_layers=offending)


def text_histogram(report: PurityReport) -> str:
    """Fig-3-style text rendering: one row per value, log10 count bars."""
    lines = []
    for name, info in report.layers.items():
        lines.append(f"{name}  fr={info['firing_rate']:.4f}")
        for value, count in info["histogram"].items():
            bar = "#" * (1 + int(math.log10(count))) if count else ""
            lines.append(f"  {value:>4d} | {count:>12d} {bar}")
        if info["anomalies"]:
            lines.append(f"  !non-integer anomalies: {info['anomalies']}")
    return "\n".join(lines)


def write_report_csv(report: PurityReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "value", "count", "fr"])
        for name, info in report.layers.items():
            for value, count in info["histogram"].items():
                writer.writerow([name, value, count, f"{info['firing_rate']:.6f}"])


def write_report_json(report: PurityReport, path) -> None:
    payload = {
        "verdict": report.verdict,
        "offending_layers": report.offending_layers,
        "layers": report.layers,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
