"""Tests of the benchmark itself: span arithmetic, wrapper restoration,
failure counting and input preparation.

Run from the repository root with ``python -m pytest bench``.
"""

import inspect
import itertools
import json
import sys

import numpy as np
import pytest

import run
import spans
import workloads
from spikingformer.model import ModelConfig, preset_config

TINY = dict(blocks=1, embed_dim=16, heads=2, timesteps=2, num_classes=4, image_size=(8, 8),
            tokenizer_plan=("spe", "sped"))


def _bindings():
    """Every (owner, attribute) -> value of the spikingformer modules and classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("spikingformer"):
            continue
        for attr, val in vars(mod).items():
            out[(name, attr)] = val
            if inspect.isclass(val) and val.__module__.startswith("spikingformer"):
                for cattr, cval in vars(val).items():
                    out[(val.__qualname__, cattr)] = cval
    return out


def test_self_time_on_a_synthetic_tree(monkeypatch):
    clock = itertools.count()
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(clock)))
    t = spans.Tracer()
    a, b, c = (t._id(t._name_ids, t.names, n) for n in "abc")
    t.begin()
    # a [0, 9]: b [1, 4] holding c [2, 3]; b [5, 8] holding a nested b [6, 7]
    ia = t.open(a)
    ib = t.open(b)
    ic = t.open(c)
    t.close(ic)
    t.close(ib)
    ib2 = t.open(b)
    ib3 = t.open(b)
    t.close(ib3)
    t.close(ib2)
    t.close(ia)
    incl, self_s, outer = t.durations()
    assert incl == [9.0, 3.0, 1.0, 3.0, 1.0]
    assert self_s == [9.0 - 3.0 - 3.0, 3.0 - 1.0, 1.0, 3.0 - 1.0, 1.0]
    assert outer == [True, True, True, True, False]
    totals = t.totals([0])
    assert totals["a"] == {"s": 9.0, "self_s": 3.0, "calls": 1}
    # the nested b is not counted twice in the inclusive time
    assert totals["b"] == {"s": 6.0, "self_s": 5.0, "calls": 3}
    assert totals["c"] == {"s": 1.0, "self_s": 1.0, "calls": 1}
    assert t.totals([1]) == {}


def test_wrappers_patch_every_binding_and_are_restored():
    from spikingformer import layers, tensor

    before = _bindings()
    workload = workloads.Infer(ModelConfig(**TINY), batch_size=2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tensor.Tensor.__radd__ is tensor.Tensor.__add__
        assert tensor.Tensor.__add__ is not before[("Tensor", "__add__")]
        assert layers.conv2d is tensor.conv2d is not before[("spikingformer.tensor", "conv2d")]
        state, _ = run.set_up(workload, seed=0, tracer=tracer)
    finally:
        tracer.uninstall()
    plain = run.measure(workload, state, 0.05)
    tracer.install(measure_memory=True)
    try:
        traced = run.measure(workload, state, 0.05, tracer)
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    metrics = run.per_layer(tracer, workload, plain, traced, workload.setup_reps)
    assert {m for m, _, _ in run.PER_LAYER} == set(metrics)
    assert metrics["model.forward.calls"] == 1
    assert metrics["tensor.conv2d.calls"] == 3
    assert metrics["model.fuse.ms"] > 0 and metrics["data.synth.ms"] > 0
    assert metrics["tensor.backward.ms"] == 0 and metrics["layers.BatchNorm.forward.ms"] == 0
    labels = {row["layer"] for row in tracer.layer_rows(range(len(traced.times)))}
    assert {"tokenizer.units.0.conv", "blocks.0.attn", "blocks.0.mlp.conv1"} <= labels


def test_injected_nan_logit_counts_as_failed_op():
    workload = workloads.Infer(ModelConfig(**TINY), batch_size=2)
    state, setup_seconds = run.set_up(workload, seed=0)
    forward = state.model.forward
    calls = itertools.count()

    def poisoned(x):
        out = forward(x)
        if next(calls) == 3:
            out.data = out.data.copy()
            out.data[0, 1] = np.nan
        return out

    state.model.forward = poisoned
    log = run.measure(workload, state, 0.2)
    assert len(log.times) > 4
    assert log.failures == [(3, "non-finite logits")]
    metrics, extra = run.end_to_end(workload, log, setup_seconds)
    assert metrics["ok_ratio"] == 1 - 1 / len(log.times)
    assert extra["failed_ratio"] == 1 / len(log.times)


@pytest.mark.parametrize("style", ["spike-driven", "add"])
def test_calibrated_4_384_blocks_fire(style):
    """Guards against the degenerate input: an uncalibrated 4-384 is silent."""
    cfg = preset_config("spikingformer-4-384", residual_style=style)
    model, (batch,) = workloads.calibrated_model(cfg, seed=0, batch_size=2, batches=1)
    rates = workloads.summarize_rates(workloads.observe(model, batch)[1])
    assert len(rates["by_block"]) == cfg.blocks
    assert all(fr > 0 for fr in rates["by_block"].values()), rates
    assert all(fr > 0 for fr in rates["by_kind"].values()), rates


@pytest.mark.parametrize("style", ["spike-driven", "add"])
def test_geometry_flops_match_the_energy_traces(style):
    from spikingformer import build, trace_model

    cfg = ModelConfig(**TINY, residual_style=style)
    model = build(cfg, seed=0).eval()
    traces = trace_model(model, np.zeros((1, 3, 8, 8), dtype=np.float32))
    assert {t.layer_id: t.flops for t in traces} == workloads.expected_flops(cfg)


def test_training_runs_repeat_the_first_run_bit_for_bit():
    workload = workloads.TrainDesk(ModelConfig(**TINY), samples=128, epochs=2)
    state, _ = run.set_up(workload, seed=0)
    log = run.measure(workload, state, 0.5)
    details = workload.details(state)
    assert details["first_run_complete"] and details["training_runs"] >= 2
    assert log.failures == []
    assert len(log.times) > len(state.first_run) == 4
    assert np.isfinite(details["final_loss"])
    # a later run on other data no longer repeats the first run's first step
    state.dataset.x = state.dataset.x[::-1].copy()
    log = run.measure(workload, state, 1e-9)
    assert len(log.times) == 1
    assert log.failures[0][1].startswith("step 0 differs from the first run")


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    times = [float(i) for i in range(40)]
    assert run.tail(times) == (29.0, 75.0, 10)
    assert run.tail(times[:11]) == (0.0, 100.0 / 11, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_benchmark_json_lists_the_metrics_the_runs_report():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == run.PER_LAYER
