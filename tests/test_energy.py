"""SOP and energy estimation: hand-checked arithmetic on small traces."""

import json

import numpy as np
import pytest

from spikingformer import energy
from spikingformer.audit import KIND_CONV, KIND_FIRST, KIND_SSA
from spikingformer.energy import (
    E_AC,
    E_MAC,
    MODE_INTEGER_AS_MAC,
    MODE_INTEGER_AS_N_ACS,
    EnergyReport,
    LayerTrace,
    energy_neuromorphic,
    energy_static,
    sops,
    spikformer_recalc,
    trace_model,
    write_energy_csv,
    write_energy_json,
)
from spikingformer.model import ModelConfig, build

TINY = ModelConfig(blocks=1, embed_dim=8, heads=2, timesteps=2, num_classes=4,
                   image_size=(8, 8), tokenizer_plan=("spe", "sped", "sped"))


class TestSops:
    def test_hand_value(self):
        assert sops(100, 0.5, 4) == 200

    def test_zero_rate(self):
        assert sops(1000, 0.0, 4) == 0

    def test_full_rate_single_step(self):
        assert sops(123, 1.0, 1) == 123

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="firing rate"):
            sops(100, 1.5, 1)

    def test_rejects_bad_timesteps(self):
        with pytest.raises(ValueError, match="timesteps"):
            sops(100, 0.5, 0)


class TestCostModel:
    def test_defaults(self):
        assert E_MAC == 4.6 and E_AC == 0.9

    @pytest.mark.parametrize("price", [
        energy_static,
        energy_neuromorphic,
        lambda t: spikformer_recalc(t, MODE_INTEGER_AS_N_ACS),
        lambda t: spikformer_recalc(t, MODE_INTEGER_AS_MAC),
    ], ids=["static", "neuromorphic", "recalc-n-acs", "recalc-mac"])
    def test_every_report_reads_the_module_constants(self, price, monkeypatch):
        # no report keeps a copy of the energies: doubling both doubles every total
        traces = [_first(1000),
                  LayerTrace("conv", KIND_CONV, 250, 1.0, 4, value_hist={1: 300, 3: 700}),
                  LayerTrace("attn.qk", KIND_SSA, 100, 0.5, 4)]
        base = price(traces).total_pj
        monkeypatch.setattr(energy, "E_MAC", 2 * E_MAC)
        monkeypatch.setattr(energy, "E_AC", 2 * E_AC)
        assert price(traces).total_pj == pytest.approx(2 * base)


def _first(flops=1000):
    return LayerTrace("encoder", KIND_FIRST, flops, 1.0, 4)


class TestStaticEnergy:
    def test_encoder_only(self):
        # 1000 MACs at 4.6 pJ, no T factor on the encoder term
        report = energy_static([_first(1000)])
        assert report.total_pj == pytest.approx(4600.0)

    def test_encoder_plus_one_conv(self):
        # conv: 100 FLOPs * fr 0.5 * T 4 = 200 ACs = 180 pJ
        traces = [_first(1000), LayerTrace("conv", KIND_CONV, 100, 0.5, 4)]
        report = energy_static(traces)
        assert report.total_pj == pytest.approx(4600.0 + 180.0)

    def test_ssa_trace_counted_as_ac(self):
        traces = [_first(1000), LayerTrace("attn.qk", KIND_SSA, 250, 0.2, 4)]
        # 250 * 0.2 * 4 = 200 ACs
        report = energy_static(traces)
        assert report.total_pj == pytest.approx(4600.0 + 180.0)

    def test_requires_exactly_one_encoder(self):
        with pytest.raises(ValueError, match="first-encoding"):
            energy_static([LayerTrace("conv", KIND_CONV, 100, 0.5, 4)])
        with pytest.raises(ValueError, match="first-encoding"):
            energy_static([_first(), _first()])

    def test_linearity_in_flops(self):
        a = energy_static([_first(1000), LayerTrace("c", KIND_CONV, 100, 0.5, 4)])
        b = energy_static([_first(2000), LayerTrace("c", KIND_CONV, 200, 0.5, 4)])
        assert b.total_pj == pytest.approx(2 * a.total_pj)

    def test_total_mj_conversion(self):
        report = energy_static([_first(10**9)])
        assert report.total_mj == pytest.approx(4.6)


class TestNeuromorphicEnergy:
    def test_encoder_also_charged_as_ac(self):
        # event input: encoder acts on spikes too; 1000 * 1.0 * 4 = 4000 ACs
        report = energy_neuromorphic([_first(1000)])
        assert report.total_pj == pytest.approx(3600.0)

    def test_cheaper_than_static_at_low_rates(self):
        traces = [_first(1000), LayerTrace("c", KIND_CONV, 500, 0.1, 4)]
        low = energy_neuromorphic([
            LayerTrace("encoder", KIND_FIRST, 1000, 0.1, 4),
            LayerTrace("c", KIND_CONV, 500, 0.1, 4),
        ])
        assert low.total_pj < energy_static(traces).total_pj


class TestRecalcModes:
    def _integer_conv(self):
        # histogram: 1000 products with operand 2, at the operation level
        return LayerTrace("conv", KIND_CONV, 250, 1.0, 4,
                          value_hist={0: 0, 2: 1000})

    def test_mode1_integer_as_n_acs(self):
        # operand 2 -> 2 ACs each: 2000 ACs = 1800 pJ, plus encoder
        report = spikformer_recalc([_first(0), self._integer_conv()],
                                   MODE_INTEGER_AS_N_ACS)
        assert report.total_pj == pytest.approx(1800.0)

    def test_mode2_integer_as_mac(self):
        # operand 2 > 1 -> full MAC each: 1000 MACs = 4600 pJ
        report = spikformer_recalc([_first(0), self._integer_conv()],
                                   MODE_INTEGER_AS_MAC)
        assert report.total_pj == pytest.approx(4600.0)

    def test_binary_histogram_same_in_both_modes(self):
        trace = LayerTrace("conv", KIND_CONV, 250, 0.5, 4,
                           value_hist={0: 500, 1: 500})
        a = spikformer_recalc([_first(0), trace], MODE_INTEGER_AS_N_ACS)
        b = spikformer_recalc([_first(0), trace], MODE_INTEGER_AS_MAC)
        assert a.total_pj == pytest.approx(b.total_pj) == pytest.approx(450.0)

    def test_mixed_histogram_mode2(self):
        # 300 unit products as ACs + 200 value-3 products as MACs
        trace = LayerTrace("conv", KIND_CONV, 125, 1.0, 4,
                           value_hist={1: 300, 3: 200})
        report = spikformer_recalc([_first(0), trace], MODE_INTEGER_AS_MAC)
        assert report.total_pj == pytest.approx(0.9 * 300 + 4.6 * 200)

    def test_requires_histogram(self):
        trace = LayerTrace("conv", KIND_CONV, 100, 0.5, 4)
        with pytest.raises(ValueError, match="histogram"):
            spikformer_recalc([_first(0), trace])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            spikformer_recalc([_first(0)], "integer-as-half-MAC")

    def test_mode1_never_exceeds_mode2_scaled(self):
        # for values >= 1, N ACs cost N*0.9 <= 4.6 whenever N <= 5
        trace = LayerTrace("conv", KIND_CONV, 250, 1.0, 4,
                           value_hist={2: 400, 4: 600})
        m1 = spikformer_recalc([_first(0), trace], MODE_INTEGER_AS_N_ACS)
        m2 = spikformer_recalc([_first(0), trace], MODE_INTEGER_AS_MAC)
        assert m1.total_pj < m2.total_pj


class TestTraceValidation:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="firing rate"):
            LayerTrace("x", KIND_CONV, 100, 1.5, 4)

    def test_rejects_negative_flops(self):
        with pytest.raises(ValueError, match="flops"):
            LayerTrace("x", KIND_CONV, -1, 0.5, 4)

    def test_rejects_zero_timesteps(self):
        with pytest.raises(ValueError, match="timesteps"):
            LayerTrace("x", KIND_CONV, 100, 0.5, 0)


class TestModelTracing:
    def _traces(self, rng, seed=0):
        model = build(TINY, seed=seed)
        x = rng.uniform(0, 1, (2, 3, 8, 8)).astype(np.float32)
        return trace_model(model, x)

    def test_exactly_one_encoder_trace(self, rng):
        traces = self._traces(rng)
        assert sum(t.kind == KIND_FIRST for t in traces) == 1

    def test_histograms_sum_to_flops_times_t(self, rng):
        # analog encoder inputs land in the anomaly bucket, so only the
        # spike-fed convs carry complete operation-level histograms
        for t in self._traces(rng):
            if t.value_hist is None or t.kind == KIND_FIRST:
                continue
            assert sum(t.value_hist.values()) == pytest.approx(t.flops * t.timesteps)

    def test_no_batch_rejected(self):
        with pytest.raises(ValueError, match="no batch was recorded"):
            trace_model(build(TINY, seed=0), [])

    def test_attention_traces_present(self, rng):
        kinds = [t.layer_id for t in self._traces(rng) if t.kind == KIND_SSA]
        assert any(l.endswith(".qk") for l in kinds)
        assert any(l.endswith(".av") for l in kinds)

    def test_rates_within_unit_interval(self, rng):
        assert all(0.0 <= t.fr <= 1.0 for t in self._traces(rng))

    def test_static_report_from_real_model(self, rng):
        report = energy_static(self._traces(rng))
        assert report.total_pj > 0 and np.isfinite(report.total_pj)

    def test_zero_model_energy_is_encoder_only(self):
        model = build(TINY, seed=0)
        for _, p in model.named_parameters():
            p.data[:] = 0.0
        model.eval()
        traces = trace_model(model, np.zeros((1, 3, 8, 8), dtype=np.float32))
        report = energy_static(traces)
        encoder = next(t for t in traces if t.kind == KIND_FIRST)
        assert report.total_pj == pytest.approx(4.6 * encoder.flops)


class TestEnergyOutput:
    def _report(self):
        return energy_static([_first(1000), LayerTrace("c", KIND_CONV, 100, 0.5, 4)])

    def test_csv_has_total_row(self, tmp_path):
        path = tmp_path / "energy.csv"
        write_energy_csv(self._report(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "layer,kind,ops,energy_pj"
        assert lines[-1].startswith("total")

    def test_json_totals_match(self, tmp_path):
        path = tmp_path / "energy.json"
        report = self._report()
        write_energy_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["total_pj"] == pytest.approx(report.total_pj)
        assert len(payload["layers"]) == len(report.entries)

    def test_entries_sum_to_total(self):
        report = self._report()
        assert sum(e[3] for e in report.entries) == pytest.approx(report.total_pj)
