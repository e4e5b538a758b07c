"""Instrumentation: per-ConvBN input histograms, firing rates, purity verdicts.

A ForwardRecorder hooks every ConvBN (and the attention matmuls) during a
forward pass. Input values are binned at the nearest integer; anything more
than 1e-5 away from an integer lands in an anomaly bucket instead of a bin.
The purity verdict asserts the spike-driven claim: every conv input except
the encoder conv is exactly binary.
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
    first_encoding: bool = False
    flops_per_item: int = 0          # MACs for one [item] slice of the input batch
    items: int = 0                   # batch slices observed (T is folded in)
    elements: int = 0
    nonzero: int = 0
    histogram: Counter = field(default_factory=Counter)
    anomalies: int = 0
    events: int = 0                  # exact nonzero-operand products (ssa-matmul only)

    @property
    def firing_rate(self) -> float:
        return self.nonzero / self.elements if self.elements else 0.0

    @property
    def is_binary(self) -> bool:
        return self.anomalies == 0 and set(self.histogram) <= {0, 1}


class ForwardRecorder:
    """Accumulates per-layer statistics across forward passes."""

    def __init__(self):
        self.layers: dict[str, LayerObservation] = {}

    def _layer(self, name: str, kind: str, first_encoding: bool) -> LayerObservation:
        if name not in self.layers:
            self.layers[name] = LayerObservation(name=name, kind=kind,
                                                 first_encoding=first_encoding)
        return self.layers[name]

    def observe_conv(self, layer, x: np.ndarray, flops_per_item: int) -> None:
        kind = KIND_FIRST if layer.first_encoding else KIND_CONV
        obs = self._layer(layer.name, kind, layer.first_encoding)
        obs.flops_per_item = flops_per_item
        obs.items += x.shape[0]
        obs.elements += x.size
        obs.nonzero += int(np.count_nonzero(x))
        rounded = np.rint(x)
        anomalous = np.abs(x - rounded) > INTEGER_TOLERANCE
        obs.anomalies += int(anomalous.sum())
        values, counts = np.unique(rounded[~anomalous].astype(np.int64), return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            obs.histogram[v] += c

    def observe_attention(self, attn, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> None:
        """Record the two matmuls of Q K^T V with exact event counts.

        q, k, v are head-split: [items, H, N, d]. An "event" is a scheduled
        multiply whose operands are both nonzero; the effective rate
        events / (T * FLOPs) plugs into the SOP formula in place of fr.
        """
        items, heads, n, d = q.shape
        flops = heads * n * n * d
        qk = self._layer(f"{attn.name}.qk", KIND_SSA, False)
        qk.flops_per_item = flops
        qk.items += items
        qk.events += int(np.einsum("bhik,bhjk->", q, k, optimize=True))
        av = self._layer(f"{attn.name}.av", KIND_SSA, False)
        av.flops_per_item = flops
        av.items += items
        core = np.matmul(q, np.swapaxes(k, -1, -2))
        # events = sum_{i,j,l} [A[i,j] != 0] * [V[j,l] != 0]
        av.events += int(np.einsum("bhij,bhj->", (core != 0).astype(np.float64),
                                   v.sum(axis=-1).astype(np.float64), optimize=True))


@dataclass
class PurityReport:
    """Per-layer histograms, firing rates and the overall spike-purity verdict."""

    layers: dict            # name -> {kind, histogram, firing_rate, nonzero_ratio, anomalies}
    pure: bool
    offending_layers: list

    @property
    def verdict(self) -> str:
        return "pure" if self.pure else "impure"


def firing_rate(spikes: np.ndarray) -> float:
    """Mean of a binary tensor; rejects anything that is not exactly 0/1."""
    arr = np.asarray(spikes)
    if arr.size == 0:
        raise ValueError("empty tensor has no firing rate")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("firing_rate requires a binary tensor")
    return float(arr.mean())


def run_recorded(model, batches) -> ForwardRecorder:
    """Run tape-free forward passes over one array or an iterable of batches
    with a fresh recorder attached; returns the recorder."""
    recorder = ForwardRecorder()
    model.set_recorder(recorder)
    try:
        with no_grad():
            for batch in [batches] if isinstance(batches, np.ndarray) else batches:
                model.forward(batch)
    finally:
        model.set_recorder(None)
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
        if obs.first_encoding or obs.kind == KIND_SSA:
            continue
        total = sum(obs.histogram.values()) + obs.anomalies
        if total != obs.elements:
            raise RuntimeError(f"histogram total {total} != elements {obs.elements} for {name}")
        layers[name] = {
            "kind": obs.kind,
            "histogram": dict(sorted(obs.histogram.items())),
            "firing_rate": obs.firing_rate,
            "nonzero_ratio": obs.firing_rate,
            "anomalies": obs.anomalies,
        }
        if not obs.is_binary:
            offending.append(name)
    return PurityReport(layers=layers, pure=not offending, offending_layers=offending)


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
