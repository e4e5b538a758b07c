"""Theoretical synaptic-operation and energy estimation.

Counting convention (used everywhere): one FLOP = one multiply-accumulate.
Conv FLOPs = out_elems * C_in * kh * kw; matmul FLOPs = rows * inner * cols.
Batchnorm folds into the convolution at deployment, so BN layers contribute
zero FLOPs by construction.

SOPs follow SOP = fr * T * FLOPs. For the attention matmuls, fr is the
exact fraction of scheduled products whose operands are both nonzero,
measured on the recorded spikes (this reduces to the plain firing rate for
convs over binary inputs).

One charge table serves every mode (MAC = E_MAC, AC = E_AC; c_N counts the
conv products whose integer operand is N; an encoder charged at MAC comes first):

  trace kind           static     neuromorphic  integer-as-N-ACs  integer-as-MAC
  first-encoding-conv  MAC*FLOPs  AC*SOP        MAC*FLOPs         MAC*FLOPs
  snn-conv             AC*SOP     AC*SOP        AC*sum(N*c_N)     MAC*sum(c_N>1)+AC*c_1
  ssa-matmul           AC*SOP     AC*SOP        AC*SOP            AC*SOP
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Optional

from .audit import KIND_CONV, KIND_FIRST, run_recorded

MODE_INTEGER_AS_N_ACS = "integer-as-N-ACs"
MODE_INTEGER_AS_MAC = "integer-as-MAC"
RECALC_MODES = (MODE_INTEGER_AS_N_ACS, MODE_INTEGER_AS_MAC)  # `energy --mode` 1 and 2

PJ_PER_MJ = 1e9

# per-operation energies on 45 nm hardware, in picojoules (Horowitz, ISSCC 2014)
E_MAC = 4.6
E_AC = 0.9


@dataclass
class LayerTrace:
    layer_id: str
    kind: str                       # first-encoding-conv | snn-conv | ssa-matmul
    flops: int                      # MAC count at fr=1 for one time step
    fr: float
    timesteps: int
    # operation-level histogram: operand integer value -> number of scheduled
    # products carrying that value; counts sum to flops * timesteps
    value_hist: Optional[dict] = None

    def __post_init__(self):
        if self.flops < 0:
            raise ValueError("flops must be >= 0")
        if not 0.0 <= self.fr <= 1.0:
            raise ValueError(f"firing rate {self.fr} outside [0, 1]")
        if self.timesteps < 1:
            raise ValueError("timesteps must be >= 1")


@dataclass
class EnergyReport:
    mode: str
    entries: list = field(default_factory=list)   # (layer_id, kind, ops, energy_pj)
    total_pj: float = 0.0

    @property
    def total_mj(self) -> float:
        return self.total_pj / PJ_PER_MJ

    def add(self, layer_id: str, kind: str, ops: int, energy_pj: float) -> None:
        self.entries.append((layer_id, kind, ops, energy_pj))
        self.total_pj += energy_pj


def sops(flops: int, fr: float, timesteps: int) -> int:
    """Synaptic operations of a layer: fr * T * FLOPs, rounded for reporting."""
    if not 0.0 <= fr <= 1.0:
        raise ValueError(f"firing rate {fr} outside [0, 1]")
    if timesteps < 1:
        raise ValueError("timesteps must be >= 1")
    return int(round(fr * timesteps * flops))


def _report(traces, mode: str) -> EnergyReport:
    """Charges traces in order by the module's table; every mode but
    neuromorphic needs exactly one encoder trace."""
    report = EnergyReport(mode=mode)
    if mode != "neuromorphic":
        firsts = [t for t in traces if t.kind == KIND_FIRST]
        if len(firsts) != 1:
            raise ValueError(f"expected exactly one first-encoding-conv trace, got {len(firsts)}")
        traces = firsts + [t for t in traces if t.kind != KIND_FIRST]
    for t in traces:
        if t.kind == KIND_FIRST and mode != "neuromorphic":
            macs, acs = t.flops, 0
        elif t.kind == KIND_CONV and mode in RECALC_MODES:
            if t.value_hist is None:
                raise ValueError(f"trace {t.layer_id} lacks the integer value histogram")
            if mode == MODE_INTEGER_AS_N_ACS:  # no MACs: operand N is N accumulates
                macs, acs = 0, sum(v * c for v, c in t.value_hist.items())
            else:
                macs = sum(c for v, c in t.value_hist.items() if v > 1)
                acs = t.value_hist.get(1, 0)
        else:  # attention operands are binary spikes even in ADD style
            macs, acs = 0, sops(t.flops, t.fr, t.timesteps)
        # a zero count prices at an exact 0.0, so one line charges every mode
        report.add(t.layer_id, t.kind, int(round(macs + acs)), E_MAC * macs + E_AC * acs)
    return report


def energy_static(traces) -> EnergyReport:
    """Static-image energy: encoder conv at MAC cost, everything else at AC."""
    return _report(traces, "static")


def energy_neuromorphic(traces) -> EnergyReport:
    """Event-input energy: pure AC sum over every layer."""
    return _report(traces, "neuromorphic")


def spikformer_recalc(traces, mode: str = MODE_INTEGER_AS_N_ACS) -> EnergyReport:
    """Recalculated energy for ADD-style models whose conv inputs are integers.

    mode "integer-as-N-ACs": a product with integer operand N counts as N
    accumulates. mode "integer-as-MAC": any product with operand > 1 is
    charged as a full multiply-accumulate.
    """
    if mode not in RECALC_MODES:
        raise ValueError(f"unknown recalculation mode {mode!r}")
    return _report(traces, mode)


def trace_model(model, batches) -> list:
    """Run forward passes and distill per-layer traces for one inference.

    FLOPs are per time step for a single sample; histograms are scaled to the
    operation level, so counts sum to flops * T per layer.
    """
    recorder = run_recorded(model, batches)
    t_steps = model.config.timesteps
    traces = []
    for name, obs in sorted(recorder.layers.items()):
        hist = None  # the encoder and attention are charged by FLOPs or fr: no histogram
        if obs.kind == KIND_CONV:
            scale = obs.flops_per_item * t_steps / obs.elements if obs.elements else 0.0
            hist = {v: c * scale for v, c in obs.histogram.items()}
        traces.append(LayerTrace(name, obs.kind, obs.flops_per_item, obs.firing_rate, t_steps,
                                 value_hist=hist))
    return traces


def write_energy_csv(report: EnergyReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "kind", "ops", "energy_pj"])
        for layer_id, kind, ops, pj in report.entries:
            writer.writerow([layer_id, kind, ops, f"{pj:.3f}"])
        writer.writerow(["total", "", "", f"{report.total_pj:.3f}"])


def write_energy_json(report: EnergyReport, path) -> None:
    payload = {
        "mode": report.mode,
        "total_pj": report.total_pj,
        "total_mj": report.total_mj,
        "layers": [
            {"layer": lid, "kind": kind, "ops": ops, "energy_pj": pj}
            for lid, kind, ops, pj in report.entries
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
