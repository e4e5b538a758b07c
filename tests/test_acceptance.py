"""Acceptance suite: ten end-to-end guarantees, one test per criterion.

Each test prints an explicit PASS/FAIL line with the measured quantity so a
full `pytest -v tests/test_acceptance.py` run doubles as a verification
report. Tolerances are stated inline next to each assertion.
"""

import dataclasses
import time

import numpy as np
import pytest

from spikingformer.audit import record
from spikingformer.data import synth_static
from spikingformer.energy import (
    MODE_INTEGER_AS_MAC,
    MODE_INTEGER_AS_N_ACS,
    energy_static,
    sops,
    spikformer_recalc,
    trace_model,
)
from spikingformer.layers import (
    ADD,
    HEAD_VARIANTS,
    SPIKE_DRIVEN,
    ClassificationHead,
    ConvBN2d,
    attention_core,
)
from spikingformer.model import (
    ModelConfig,
    PUBLISHED_PARAM_COUNTS_M,
    build,
    max_convbn_input,
    preset_config,
)
from spikingformer.neuron import LIFParams, MembraneState, lif_step
from spikingformer.tensor import Tensor, set_default_dtype
from spikingformer.train import TrainConfig, cross_entropy, train

DESK = ModelConfig(blocks=2, embed_dim=32, heads=4, timesteps=2, num_classes=4,
                   image_size=(8, 8), tokenizer_plan=("spe", "sped", "sped"))


def _verdict(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {number} ({label}): {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def _randomize(model, rng):
    for _, p in model.named_parameters():
        p.data = rng.standard_normal(p.data.shape).astype(np.float32)
    for module in model.modules():
        buffers = getattr(module, "_buffers", None)
        if not buffers:
            continue
        buffers["running_mean"] = rng.standard_normal(
            buffers["running_mean"].shape).astype(np.float32)
        buffers["running_var"] = rng.uniform(
            0.05, 2.0, buffers["running_var"].shape).astype(np.float32)
    model.eval()


def _saturate(model):
    """Zero every conv/BN weight and drive BN shifts high so all neurons fire."""
    for name, p in model.named_parameters():
        if name.endswith("beta"):
            p.data[:] = 10.0
        elif name.endswith("gamma") or "weight" in name:
            p.data[:] = 0.0
    model.eval()


def test_criterion_01_parameter_counts():
    worst = 0.0
    details = []
    for name, published in sorted(PUBLISHED_PARAM_COUNTS_M.items()):
        actual = build(preset_config(name), seed=0).param_count() / 1e6
        rel = abs(actual - published) / published
        worst = max(worst, rel)
        details.append(f"{name}: {actual:.3f}M vs {published}M ({rel:.2%})")
    _verdict(1, "parameter counts within 2%", worst <= 0.02, "; ".join(details))


def test_criterion_02_spike_purity_100_draws():
    t0 = time.time()
    violations = []
    for draw in range(100):
        rng = np.random.default_rng(draw)
        model = build(DESK, seed=draw)
        _randomize(model, rng)
        x = rng.uniform(-2.0, 2.0, (1, 3, 8, 8)).astype(np.float32)
        report = record(model, x)
        if not report.pure:
            violations.append((draw, report.offending_layers))
    _verdict(2, "spike purity over 100 random draws", not violations,
             f"{100 - len(violations)}/100 draws pure in {time.time() - t0:.1f}s"
             + (f"; violations: {violations[:3]}" if violations else ""))


def test_criterion_03_range_growth_without_spike_driven_shortcut():
    results = {}
    for blocks in (1, 2, 4, 8):
        cfg = dataclasses.replace(DESK, blocks=blocks, embed_dim=8, heads=2,
                                  residual_style=ADD)
        model = build(cfg, seed=0)
        _saturate(model)
        x = np.full((1, 3, 8, 8), 0.5, dtype=np.float32)
        results[blocks] = max(max_convbn_input(model, x).values())
    spike_model = build(dataclasses.replace(DESK, blocks=8, embed_dim=8, heads=2),
                        seed=0)
    _saturate(spike_model)
    spike_peak = max(max_convbn_input(
        spike_model, np.full((1, 3, 8, 8), 0.5, dtype=np.float32)).values())
    ok = all(results[b] == 2 * b for b in results) and results[8] == 16 and spike_peak == 1
    _verdict(3, "conv-input range growth", ok,
             f"add-style peaks {results} (expect 2L, 16 at L=8); "
             f"spike-driven peak {spike_peak} (expect 1)")


def test_criterion_04_convbn_fusion_equivalence():
    rng = np.random.default_rng(0)
    worst_layer = 0.0
    for i in range(1000):
        layer = ConvBN2d(2, 3, np.random.default_rng(i))
        layer.bn.gamma.data = rng.uniform(0.25, 2.0, 3).astype(np.float32)
        layer.bn.beta.data = rng.standard_normal(3).astype(np.float32)
        layer.bn._buffers["running_mean"] = rng.standard_normal(3).astype(np.float32)
        layer.bn._buffers["running_var"] = rng.uniform(0.05, 2.0, 3).astype(np.float32)
        layer.eval()
        x = Tensor(rng.integers(0, 2, (1, 2, 5, 5)).astype(np.float32))
        before = layer.forward(x).data
        layer.fuse()
        worst_layer = max(worst_layer, float(np.max(np.abs(before - layer.forward(x).data))))
    model = build(DESK, seed=0)
    model.train()
    for _ in range(3):
        model.forward(rng.uniform(0, 1, (8, 3, 8, 8)).astype(np.float32))
    model.eval()
    x = rng.uniform(0, 1, (4, 3, 8, 8)).astype(np.float32)
    before = model.forward(x).data
    model.fuse()
    logit_diff = float(np.max(np.abs(before - model.forward(x).data)))
    ok = worst_layer <= 1e-4 and logit_diff <= 1e-4
    _verdict(4, "BN-into-conv fusion", ok,
             f"max layer diff {worst_layer:.2e} over 1000 layers (tol 1e-4); "
             f"end-to-end logit diff {logit_diff:.2e} (tol 1e-4)")


def test_criterion_05_gradients_match_finite_differences():
    set_default_dtype(np.float64)
    try:
        cfg = ModelConfig(blocks=1, embed_dim=8, heads=2, timesteps=2, num_classes=4,
                          image_size=(8, 8), tokenizer_plan=("spe", "sped", "sped"))
        model = build(cfg, seed=3)
        model.eval()
        model.set_neuron_mode("relaxed")
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (2, 3, 8, 8))
        y = np.array([0, 2])

        def loss_fn():
            return cross_entropy(model.forward(x), y)

        loss = loss_fn()
        loss.backward()
        h = 1e-4
        worst, worst_name, checked = 0.0, "", 0
        for name, p in model.named_parameters():
            flat = p.data.reshape(-1)
            grad = (p.grad.reshape(-1) if p.grad is not None
                    else np.zeros_like(flat))
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = loss_fn().item()
                flat[i] = orig - h
                lo = loss_fn().item()
                flat[i] = orig
                fd = (hi - lo) / (2 * h)
                rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
                checked += 1
                if rel > worst:
                    worst, worst_name = rel, name
    finally:
        set_default_dtype(np.float32)
    _verdict(5, "backprop vs central differences", worst <= 1e-3,
             f"worst relative error {worst:.2e} at {worst_name} "
             f"over {checked} parameters (tol 1e-3)")


def test_criterion_06_lif_dynamics():
    lif = LIFParams()  # tau=2, v_th=1, v_reset=0
    failures = []
    # hand example A: strong drive crosses threshold, membrane resets
    s, v = lif_step(MembraneState(Tensor(np.array([0.0]))), Tensor(np.array([2.0])), lif)
    if not (s.data[0] == 1.0 and v.v.data[0] == 0.0):
        failures.append(f"strong drive: S={s.data[0]}, V'={v.v.data[0]}")
    # hand example B: weak drive integrates without firing: H = 0 + 0.5/2
    s, v = lif_step(MembraneState(Tensor(np.array([0.0]))), Tensor(np.array([0.5])), lif)
    if not (s.data[0] == 0.0 and v.v.data[0] == 0.25):
        failures.append(f"weak drive: S={s.data[0]}, V'={v.v.data[0]}")
    # hand example C: exact threshold fires (Heaviside(0) = 1): H = 1 + (1.5-1)/2
    s, v = lif_step(MembraneState(Tensor(np.array([1.0]))), Tensor(np.array([1.5])), lif)
    if not (s.data[0] == 1.0 and v.v.data[0] == 0.0):
        failures.append(f"threshold drive: S={s.data[0]}, V'={v.v.data[0]}")
    rng = np.random.default_rng(0)
    draws = 10_000
    x = rng.uniform(-3.0, 3.0, draws)
    v0 = rng.uniform(-1.0, 1.5, draws)
    s, state = lif_step(MembraneState(Tensor(v0)), Tensor(x), lif)
    spikes, v_next = s.data, state.v.data
    if not np.all((spikes == 0) | (spikes == 1)):
        failures.append("non-binary spike output")
    if not np.all(v_next[spikes == 1] == lif.v_reset):
        failures.append("membrane not exactly reset after a spike")
    s_hi, _ = lif_step(MembraneState(Tensor(v0)), Tensor(x + 0.5), lif)
    if not np.all(s_hi.data >= spikes):
        failures.append("spiking not monotone in the input")
    _verdict(6, "LIF step dynamics", not failures,
             f"3 hand examples + reset/monotonicity over {draws} draws"
             + (f"; failures: {failures}" if failures else ""))


def test_criterion_07_energy_formulas_and_ordering():
    failures = []
    if sops(100, 0.5, 4) != 200:
        failures.append(f"sops(100,0.5,4) = {sops(100, 0.5, 4)} != 200")
    x = np.full((1, 3, 8, 8), 0.5, dtype=np.float32)
    cfg = dataclasses.replace(DESK, embed_dim=8, heads=2)
    spike_model = build(cfg, seed=0)
    _saturate(spike_model)
    spike_energy = energy_static(trace_model(spike_model, x)).total_pj
    add_model = build(dataclasses.replace(cfg, residual_style=ADD), seed=0)
    _saturate(add_model)
    add_traces = trace_model(add_model, x)
    has_integers = any(
        t.value_hist and any(v > 1 and c > 0 for v, c in t.value_hist.items())
        for t in add_traces
    )
    if not has_integers:
        failures.append("saturated add-style traces carry no integer inputs > 1")
    mode1 = spikformer_recalc(add_traces, MODE_INTEGER_AS_N_ACS).total_pj
    mode2 = spikformer_recalc(add_traces, MODE_INTEGER_AS_MAC).total_pj
    if not mode1 <= mode2:
        failures.append(f"mode-1 {mode1:.1f} pJ > mode-2 {mode2:.1f} pJ")
    if not spike_energy < mode1:
        failures.append(f"spike-driven {spike_energy:.1f} pJ >= add mode-1 {mode1:.1f} pJ")
    _verdict(7, "energy formulas and mode ordering", not failures,
             f"spike-driven {spike_energy:.0f} pJ < mode-1 {mode1:.0f} pJ "
             f"<= mode-2 {mode2:.0f} pJ on identical traces"
             + (f"; failures: {failures}" if failures else ""))


def test_criterion_08_desk_scale_learning_and_reproducibility():
    cfg = ModelConfig(blocks=2, embed_dim=64, heads=8, timesteps=2, num_classes=4,
                      image_size=(8, 8), tokenizer_plan=("spe", "sped", "sped"))
    dataset = synth_static(4, 256, seed=0)
    train_cfg = TrainConfig(seed=0)  # defaults: 50 epochs, batch 64, lr 5e-4
    runs = []
    for _ in range(2):
        model = build(cfg, seed=0)
        runs.append(train(model, dataset, train_cfg))
    epoch_acc = {}
    for m in runs[0]:
        epoch_acc.setdefault(m["epoch"], []).append(m["acc"])
    best = max(float(np.mean(v)) for v in epoch_acc.values())
    reproducible = len(runs[0]) == len(runs[1]) and all(
        a["loss"] == b["loss"] and a["acc"] == b["acc"] and a["lr"] == b["lr"]
        for a, b in zip(runs[0], runs[1])
    )
    ok = best >= 0.95 and reproducible
    _verdict(8, "desk-scale learning", ok,
             f"best epoch train accuracy {best:.3f} (need >= 0.95 within 50 epochs); "
             f"same-seed metrics bit-exact: {reproducible}")


def _binary_grid(n, d):
    count = 2 ** (n * d)
    bits = (np.arange(count)[:, None] >> np.arange(n * d)) & 1
    return bits.reshape(count, n, d).astype(np.float32)


def test_criterion_09_attention_core_exhaustive():
    t0 = time.time()
    mismatches = 0
    triples = 0
    for n in range(1, 4):
        for d in range(1, 4):
            grid = _binary_grid(n, d)
            count = len(grid)
            # independent oracle: contract K^T V first (other associativity)
            m_all = np.einsum("bjk,cjl->bckl", grid, grid)
            chunk = max(1, 2 ** 22 // (count * count))
            for s in range(0, count, chunk):
                qc = grid[s : s + chunk]
                impl = attention_core(Tensor(qc[:, None, None]),
                                      Tensor(grid[None, :, None]),
                                      Tensor(grid[None, None, :])).data
                oracle = np.einsum("qik,bckl->qbcil", qc, m_all, optimize=True)
                if not np.array_equal(impl, oracle):
                    mismatches += int(np.count_nonzero(
                        np.any(impl != oracle, axis=(-1, -2))))
            triples += count ** 3
    # literal triple-loop spot check on random triples
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        q, k, v = (rng.integers(0, 2, (n, d)).astype(np.float32) for _ in range(3))
        naive = np.zeros((n, d))
        for i in range(n):
            for j in range(n):
                for l in range(d):
                    naive[i, l] += (q[i] * k[j]).sum() * v[j, l]
        if not np.array_equal(attention_core(Tensor(q), Tensor(k), Tensor(v)).data, naive):
            mismatches += 1
    _verdict(9, "attention core exhaustive oracle", mismatches == 0,
             f"{triples} exhaustive triples (N,D <= 3) + 100 triple-loop spot "
             f"checks, {mismatches} mismatches, {time.time() - t0:.1f}s")


def test_criterion_10_head_variant_identity():
    rng = np.random.default_rng(0)
    lif = LIFParams()
    h1 = ClassificationHead(16, 5, np.random.default_rng(1), lif, "avgpool-fc")
    h2 = ClassificationHead(16, 5, np.random.default_rng(2), lif, "fc-avgpool")
    h2.weight.data = h1.weight.data.copy()
    h2.bias.data = h1.bias.data.copy()
    worst = 0.0
    for _ in range(100):
        x = Tensor(rng.standard_normal((4, 6, 16)).astype(np.float32))
        diff = np.max(np.abs(h1.forward(x, 2).data - h2.forward(x, 2).data))
        worst = max(worst, float(diff))
    finite = []
    for variant in HEAD_VARIANTS:
        head = ClassificationHead(16, 5, np.random.default_rng(3), lif, variant)
        y = head.forward(Tensor(rng.standard_normal((4, 6, 16)).astype(np.float32)), 2)
        finite.append(bool(np.all(np.isfinite(y.data))))
    ok = worst <= 1e-5 and all(finite)
    _verdict(10, "classification head variants", ok,
             f"pool-then-project vs project-then-pool max diff {worst:.2e} "
             f"over 100 inputs (tol 1e-5); all {len(HEAD_VARIANTS)} variants finite")
