"""Spike-purity auditing: histograms, firing rates, verdicts."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikingformer.audit import (
    ForwardRecorder,
    firing_rate,
    record,
    text_histogram,
    write_report_csv,
    write_report_json,
)
from spikingformer.model import ModelConfig, build

TINY = ModelConfig(blocks=1, embed_dim=8, heads=2, timesteps=2, num_classes=4,
                   image_size=(8, 8), tokenizer_plan=("spe", "sped", "sped"))


class _FakeLayer:
    def __init__(self, name, first=False):
        self.name = name
        self.first_encoding = first


class TestFiringRate:
    def test_hand_value(self):
        assert firing_rate(np.array([0, 1, 1, 0])) == 0.5

    def test_all_zero(self):
        assert firing_rate(np.zeros(10)) == 0.0

    def test_all_one(self):
        assert firing_rate(np.ones(10)) == 1.0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            firing_rate(np.array([0.0, 0.5, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            firing_rate(np.array([]))

    @given(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_matches_mean(self, bits):
        arr = np.array(bits)
        assert firing_rate(arr) == pytest.approx(arr.mean())


class TestRecorderHistogram:
    def test_binary_input_two_bins(self):
        rec = ForwardRecorder()
        x = np.array([[0.0, 1.0, 1.0, 0.0]])
        rec.observe_conv(_FakeLayer("l"), x, flops_per_item=10)
        obs = rec.layers["l"]
        assert dict(obs.histogram) == {0: 2, 1: 2}
        assert obs.is_binary and obs.anomalies == 0
        assert obs.firing_rate == 0.5

    def test_integer_input_binned_exactly(self):
        rec = ForwardRecorder()
        rec.observe_conv(_FakeLayer("l"), np.array([[0.0, 2.0, 2.0, 3.0]]), 1)
        obs = rec.layers["l"]
        assert dict(obs.histogram) == {0: 1, 2: 2, 3: 1}
        assert not obs.is_binary

    def test_near_integer_within_tolerance(self):
        rec = ForwardRecorder()
        rec.observe_conv(_FakeLayer("l"), np.array([[1.0 + 5e-6, -5e-6]]), 1)
        obs = rec.layers["l"]
        assert dict(obs.histogram) == {0: 1, 1: 1} and obs.anomalies == 0

    def test_anomaly_bucket(self):
        rec = ForwardRecorder()
        rec.observe_conv(_FakeLayer("l"), np.array([[0.5, 1.0, 0.25]]), 1)
        obs = rec.layers["l"]
        assert obs.anomalies == 2 and dict(obs.histogram) == {1: 1}
        assert not obs.is_binary

    def test_accumulates_across_calls(self):
        rec = ForwardRecorder()
        layer = _FakeLayer("l")
        rec.observe_conv(layer, np.ones((2, 3)), 1)
        rec.observe_conv(layer, np.zeros((2, 3)), 1)
        obs = rec.layers["l"]
        assert obs.elements == 12 and obs.firing_rate == 0.5


class TestAttentionEvents:
    def test_qk_events_hand_case(self):
        rec = ForwardRecorder()
        q = np.array([[1.0, 0.0], [1.0, 1.0]]).reshape(1, 1, 2, 2)
        k = np.array([[0.0, 1.0], [1.0, 1.0]]).reshape(1, 1, 2, 2)
        v = np.zeros((1, 1, 2, 2))
        rec.observe_attention(_FakeLayer("attn"), q, k, v)
        # sum of QK^T entries = number of coincident-spike products
        assert rec.layers["attn.qk"].events == int((q[0, 0] @ k[0, 0].T).sum())
        assert rec.layers["attn.av"].events == 0

    def test_av_events_brute_force(self, rng):
        for _ in range(25):
            q = rng.integers(0, 2, (1, 2, 3, 4)).astype(np.float64)
            k = rng.integers(0, 2, (1, 2, 3, 4)).astype(np.float64)
            v = rng.integers(0, 2, (1, 2, 3, 4)).astype(np.float64)
            rec = ForwardRecorder()
            rec.observe_attention(_FakeLayer("a"), q, k, v)
            core = np.matmul(q, np.swapaxes(k, -1, -2))
            expected = sum(
                int(core[0, h, i, j] != 0 and v[0, h, j, l] != 0)
                for h in range(2) for i in range(3) for j in range(3) for l in range(4)
            )
            assert rec.layers["a.av"].events == expected

    def test_full_rate_bounds(self, rng):
        q = np.ones((2, 2, 3, 4))
        rec = ForwardRecorder()
        rec.observe_attention(_FakeLayer("a"), q, q, q)
        obs = rec.layers["a.qk"]
        assert obs.events == obs.flops_per_item * obs.items


class TestModelAudit:
    def _model(self):
        return build(TINY, seed=0)

    def _batch(self, rng, b=2):
        return rng.uniform(0, 1, (b, 3, 8, 8)).astype(np.float32)

    def test_fresh_model_is_pure(self, rng):
        report = record(self._model(), self._batch(rng))
        assert report.pure and report.verdict == "pure"
        assert not report.offending_layers
        assert report.layers  # something was actually audited

    def test_encoder_conv_not_audited(self, rng):
        report = record(self._model(), self._batch(rng))
        assert all("units.0" not in name for name in report.layers)

    def test_pure_over_many_seeds(self):
        # the spike-driven topology must stay binary for arbitrary inputs
        model = self._model()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            report = record(model, rng.uniform(-2, 2, (1, 3, 8, 8)).astype(np.float32))
            assert report.pure, report.offending_layers

    def test_add_style_flagged_impure_when_saturated(self, rng):
        cfg = dataclasses.replace(TINY, blocks=2, residual_style="add")
        model = build(cfg, seed=0)
        for name, p in model.named_parameters():
            if name.endswith("beta"):
                p.data[:] = 10.0
            elif name.endswith("gamma") or "weight" in name:
                p.data[:] = 0.0
        model.eval()
        report = record(model, self._batch(rng))
        assert not report.pure and report.offending_layers

    def test_multiple_batches_accumulate(self, rng):
        model = self._model()
        report = record(model, [self._batch(rng), self._batch(rng)])
        assert report.pure

    def test_record_runs_off_the_tape(self, rng, monkeypatch):
        model = self._model()
        forward, outputs = model.forward, []
        monkeypatch.setattr(model, "forward", lambda x: outputs.append(forward(x)) or outputs[-1])
        record(model, [self._batch(rng), self._batch(rng)])
        assert len(outputs) == 2 and all(out._parents == () for out in outputs)
        assert all(p.grad is None for p in model.parameters())
        assert forward(self._batch(rng))._parents  # the tape is back on afterwards

    def test_histograms_cover_all_elements(self, rng):
        report = record(self._model(), self._batch(rng))
        for info in report.layers.values():
            assert sum(info["histogram"].values()) + info["anomalies"] > 0


class TestReportOutput:
    def _report(self, rng):
        return record(build(TINY, seed=0), rng.uniform(0, 1, (2, 3, 8, 8)).astype(np.float32))

    def test_text_histogram_mentions_layers(self, rng):
        text = text_histogram(self._report(rng))
        assert "fr=" in text and "|" in text

    def test_csv_round_trip(self, rng, tmp_path):
        path = tmp_path / "purity.csv"
        write_report_csv(self._report(rng), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "layer,value,count,fr"
        assert len(lines) > 1

    def test_json_round_trip(self, rng, tmp_path):
        path = tmp_path / "purity.json"
        report = self._report(rng)
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["verdict"] == "pure"
        assert set(payload["layers"]) == set(report.layers)
