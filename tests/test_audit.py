"""Spike-purity auditing: histograms, firing rates, verdicts."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from spikingformer.audit import (
    KIND_CONV,
    KIND_FIRST,
    KIND_SSA,
    ForwardRecorder,
    LayerObservation,
    PurityReport,
    record,
    text_histogram,
    write_report_csv,
    write_report_json,
)
from spikingformer.energy import trace_model
from spikingformer.layers import ConvBN2d, SpikingSelfAttention
from spikingformer.model import ModelConfig, build

TINY = ModelConfig(blocks=1, embed_dim=8, heads=2, timesteps=2, num_classes=4,
                   image_size=(8, 8), tokenizer_plan=("spe", "sped", "sped"))


class _FakeLayer:
    def __init__(self, name, first=False):
        self.name = name
        self.first_encoding = first


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

    def test_non_finite_values_are_anomalies(self):
        rec = ForwardRecorder()
        x = np.array([[0.0, 1.0, np.nan, np.inf, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec.observe_conv(_FakeLayer("l"), x, 1)
        obs = rec.layers["l"]
        assert dict(obs.histogram) == {0: 1, 1: 1, 2: 1}
        assert obs.anomalies == 2 and not obs.is_binary

    def test_firing_rate_counts_every_nonzero_value(self):
        # ADD-style inputs: any nonzero integer is an operand that fires
        rec = ForwardRecorder()
        rec.observe_conv(_FakeLayer("l"), np.array([[0.0, 2.0, -1.0, 3.0]]), 1)
        assert rec.layers["l"].firing_rate == 0.75
        rec.observe_conv(_FakeLayer("z"), np.zeros((2, 5)), 1)
        assert rec.layers["z"].firing_rate == 0.0
        assert LayerObservation("unseen", KIND_CONV).firing_rate == 0.0


class TestPurityReport:
    def test_pure_follows_offending_layers(self):
        report = PurityReport(layers={}, offending_layers=[])
        assert report.pure and report.verdict == "pure"
        report.offending_layers.append("blocks.0.mlp.fc2")
        assert not report.pure and report.verdict == "impure"


def _sorting_observe_conv(x, tol=1e-5):
    """The np.unique recorder the bincount one replaced:
    (histogram, anomalies, nonzero, elements, items) of one conv input."""
    rounded = np.rint(x)
    anomalous = np.abs(x - rounded) > tol
    values, counts = np.unique(rounded[~anomalous].astype(np.int64), return_counts=True)
    histogram = dict(zip(values.tolist(), counts.tolist()))
    return histogram, int(anomalous.sum()), int(np.count_nonzero(x)), x.size, x.shape[0]


def _recorder_inputs():
    rng = np.random.default_rng(7)
    shape = (6, 5, 4, 3)
    near = rng.integers(-2, 3, shape).astype(np.float64)
    return {
        "binary": (rng.random(shape) < 0.3).astype(np.float32),
        "all-zero": np.zeros(shape, np.float32),
        "all-one": np.ones(shape, np.float32),
        "signed-ints": rng.integers(-3, 9, shape).astype(np.float32),
        "analog": rng.uniform(-2, 2, shape).astype(np.float32),
        "near-inside": near + rng.choice([-1, 1], shape) * rng.uniform(0, 0.99e-5, shape),
        "near-outside": near + rng.choice([-1, 1], shape) * rng.uniform(1.01e-5, 3e-5, shape),
        "wide-span": np.array([[0.0, 1.0, 2.0, 1e7]]),
        # 2**63 casts to INT64_MIN on both sides, so min..max spans all of int64
        "beyond-int64": np.array([[0.0, 1.0, 2.0 ** 63, -5.0]]),
    }


class TestRecorderDifferential:
    """The linear-time recorder against the np.unique recorder it replaced."""

    @pytest.mark.parametrize("kind", list(_recorder_inputs()))
    def test_matches_sorting_recorder(self, kind):
        x = _recorder_inputs()[kind]
        rec = ForwardRecorder()
        with np.errstate(invalid="ignore"):  # the beyond-int64 cast
            rec.observe_conv(_FakeLayer("l"), x, 1)
            histogram, anomalies, nonzero, elements, items = _sorting_observe_conv(x)
        obs = rec.layers["l"]
        assert dict(obs.histogram) == histogram  # no zero-count bins: all-one is {1: n}
        assert (obs.anomalies, obs.nonzero, obs.elements, obs.items) == (
            anomalies, nonzero, elements, items)

    @pytest.mark.parametrize("kind", ["binary", "all-zero", "all-one"])
    def test_bool_input_matches_its_float32_copy(self, kind):
        """A bool (spike) input is binary by construction and is counted once;
        the observation equals the one of its float32 0/1 copy."""
        x = _recorder_inputs()[kind].astype(bool)
        rec = ForwardRecorder()
        rec.observe_conv(_FakeLayer("spikes"), x, 3)
        rec.observe_conv(_FakeLayer("floats"), x.astype(np.float32), 3)
        got, want = rec.layers["spikes"], rec.layers["floats"]
        assert dataclasses.replace(got, name="floats") == want
        assert got.nonzero == np.count_nonzero(x) and got.is_binary

    def test_wide_span_allocates_no_bin_per_integer(self):
        x = np.array([[0.0, 1.0, 2.0, 1e7]])  # a bin per integer would be 80 MB
        tracemalloc.start()
        try:
            ForwardRecorder().observe_conv(_FakeLayer("l"), x, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20



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

    def test_bool_spikes_count_like_float32(self, rng):
        # bool @ bool would be a logical product: every Q K^T entry at most 1
        q, k, v = (rng.random((2, 3, 5, 4)) < 0.7 for _ in range(3))
        rec = ForwardRecorder()
        rec.observe_attention(_FakeLayer("spikes"), q, k, v)
        rec.observe_attention(_FakeLayer("floats"), *(a.astype(np.float32) for a in (q, k, v)))
        for op in ("qk", "av"):
            assert rec.layers[f"spikes.{op}"].events == rec.layers[f"floats.{op}"].events
        assert rec.layers["spikes.qk"].events > np.count_nonzero(q @ np.swapaxes(k, -1, -2))

    def test_events_exact_above_float32_range(self):
        # 63 * 63 * 8455 = 33,557,895 is odd and above 2^25: no float32 holds it
        q = np.ones((1, 1, 63, 8455), dtype=np.float32)
        rec = ForwardRecorder()
        rec.observe_attention(_FakeLayer("a"), q, q, q)
        assert rec.layers["a.qk"].events == 33_557_895
        assert rec.layers["a.av"].events == 33_557_895

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

    def test_no_batch_rejected(self):
        with pytest.raises(ValueError, match="no batch was recorded"):
            record(self._model(), [])

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
        assert len(outputs) == 2 and all(out._node is None for out in outputs)
        assert all(p.grad is None for p in model.parameters())
        assert forward(self._batch(rng))._node.parents  # the tape is back on afterwards

    def test_histograms_cover_all_elements(self, rng):
        report = record(self._model(), self._batch(rng))
        for info in report.layers.values():
            assert sum(info["histogram"].values()) + info["anomalies"] > 0

    def test_no_module_keeps_the_recorder(self, rng):
        model = self._model()
        record(model, self._batch(rng))
        trace_model(model, self._batch(rng))
        assert all(m.recorder is None for m in model.modules())

    def test_lost_elements_fail_every_recording(self, rng, monkeypatch):
        observe = ForwardRecorder.observe_conv

        def miscounting(recorder, layer, x, flops):
            observe(recorder, layer, x, flops)
            recorder.layers[layer.name].elements += 1

        monkeypatch.setattr(ForwardRecorder, "observe_conv", miscounting)
        for consumer in (record, trace_model):
            with pytest.raises(RuntimeError, match="histogram total"):
                consumer(self._model(), self._batch(rng))

    def test_tape_recorder_exposes_every_site(self, rng):
        """A recorder attached by hand to a forward on the tape reports each
        ConvBN and both attention matmuls with the fields a reader uses."""
        model = self._model().eval()
        recorder = ForwardRecorder()
        model.set_recorder(recorder)
        model.forward(self._batch(rng))
        model.set_recorder(None)
        convs = {n for n, m in model.named_modules() if isinstance(m, ConvBN2d)}
        attns = {n for n, m in model.named_modules() if isinstance(m, SpikingSelfAttention)}
        assert set(recorder.layers) == convs | {f"{a}.{m}" for a in attns for m in ("qk", "av")}
        first = "tokenizer.units.0.conv"
        for name, obs in recorder.layers.items():
            assert obs.kind == (KIND_FIRST if name == first else
                                KIND_CONV if name in convs else KIND_SSA), name
            assert obs.first_encoding == (name == first), name
            assert obs.flops_per_item > 0 and obs.items == TINY.timesteps * 2, name
            assert 0.0 <= obs.firing_rate <= 1.0, name
            assert obs.events >= 0 and (obs.events == 0 or obs.kind == KIND_SSA), name


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

    def test_json_layer_fields(self, rng, tmp_path):
        path = tmp_path / "purity.json"
        write_report_json(self._report(rng), path)
        layers = json.loads(path.read_text())["layers"]
        assert layers
        for info in layers.values():
            assert set(info) == {"kind", "histogram", "firing_rate", "anomalies"}
