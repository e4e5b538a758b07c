"""End-to-end CLI: every subcommand against a tiny synthetic config."""

import json
from dataclasses import fields

import numpy as np
import pytest

from spikingformer import cli
from spikingformer.audit import KIND_FIRST
from spikingformer.cli import ConfigError, main, model_config_from, validate_config
from spikingformer.energy import E_MAC, trace_model
from spikingformer.layers import ADD, HEAD_SN_FC_AVGPOOL, HEAD_VARIANTS, SPIKE_DRIVEN
from spikingformer.model import PRESETS, Model, ModelConfig, build
from spikingformer.tensor import no_grad
from spikingformer.train import TrainConfig, load_checkpoint, save_checkpoint

from helpers import write_cifar10_binary, write_v1_checkpoint

TINY_CFG = {
    "blocks": 1,
    "embed_dim": 8,
    "heads": 2,
    "timesteps": 2,
    "num_classes": 4,
    "image_height": 8,
    "image_width": 8,
    "tokenizer_plan": ["spe", "sped", "sped"],
    "epochs": 1,
    "batch_size": 8,
    "samples": 16,
    "seed": 0,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CFG))
    return str(path)


@pytest.fixture
def trained(tmp_path, config_path):
    out = tmp_path / "run"
    assert main(["train", "--config", config_path, "--out", str(out)]) == 0
    return out


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            validate_config({"blocks": 1, "learning_rate": 0.1})

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="must be int"):
            validate_config({"blocks": "four"})

    def test_bool_is_not_int(self):
        with pytest.raises(ConfigError, match="must be int"):
            validate_config({"blocks": True})

    def test_int_promoted_to_float(self):
        assert validate_config({"lr": 1})["lr"] == 1.0

    def test_enum_values_checked(self):
        with pytest.raises(ConfigError, match="one of"):
            validate_config({"residual_style": "plain"})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            validate_config([1, 2, 3])

    @pytest.mark.parametrize("key", ["samples", "batch_size", "epochs", "timesteps"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_count_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}.*>= 1"):
            validate_config({key: value})

    @pytest.mark.parametrize("key", ["samples", "batch_size", "epochs", "timesteps", "blocks",
                                     "embed_dim", "heads", "num_classes", "in_channels",
                                     "mlp_ratio"])
    def test_non_positive_count_exits_cleanly(self, tmp_path, key, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CFG, **{key: 0})))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err

    @pytest.mark.parametrize("key,value,named", [
        ("heads", -2, "heads"), ("image_height", 0, "image_size"),
        ("image_width", 0, "image_size"), ("tokenizer_plan", [], "tokenizer_plan"),
    ])
    def test_bad_model_shape_exits_cleanly(self, tmp_path, key, value, named, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CFG, **{key: value})))
        assert main(["audit", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "audit", "params"])
    def test_non_positive_limit_exits_cleanly(self, tmp_path, config_path, command, capsys):
        argv = [command, "--config", config_path, "--out", str(tmp_path / "run"), "--limit", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --limit must be >= 1") and "Traceback" not in err

    @pytest.mark.parametrize("override,argv,named", [
        ({"seed": -1}, [], "seed"), ({}, ["--seed", "-3"], "seed"), ({"noise": -0.1}, [], "noise"),
    ])
    def test_negative_seed_or_noise_exits_cleanly(self, tmp_path, override, argv, named, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CFG, **override)))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("override,argv,named", [
        ({"dataset": "synthetic-events", "in_channels": 2, "noise": 7.5}, [], "noise"),
        ({"dataset": "cifar10", "data_path": "batch.bin", "noise": 0.1}, [], "noise"),
        ({"data_path": "/nonexistent"}, [], "data_path"),
        ({"dataset": "synthetic-events", "in_channels": 2}, ["--data", "/nonexistent"], "--data"),
        ({"dataset": "synthetic-events", "in_channels": 2, "noise": 7.5,
          "data_path": "/nonexistent"}, [], "noise or data_path"),
    ], ids=["noise-events", "noise-cifar", "data_path-static", "data-events",
            "noise-and-data_path-events"])
    @pytest.mark.parametrize("command", ["audit", "params"])
    def test_input_the_dataset_never_reads_exits_cleanly(self, tmp_path, override, argv, named,
                                                          command, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CFG, **override)))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "run")] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["tau", "lr", "scale", "v_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}.*finite"):
            validate_config({key: value})

    @pytest.mark.parametrize("command", ["audit", "train"])
    @pytest.mark.parametrize("value,literal", [(float("nan"), "NaN"), (float("inf"), "Infinity")])
    def test_non_finite_float_exits_cleanly(self, tmp_path, command, value, literal, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CFG, tau=value)))
        assert literal in path.read_text()  # json writes the non-standard literal
        argv = [command, "--config", str(path), "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "tau" in captured.err
        assert "Traceback" not in captured.err and "verdict" not in captured.out

    @pytest.mark.parametrize("cfg,size", [
        ({"preset": "spikingformer-8-384", "image_height": 112}, (112, 224)),
        ({"preset": "spikingformer-8-384", "image_width": 96}, (224, 96)),
        ({k: v for k, v in TINY_CFG.items() if k != "image_width"}, (8, 32)),
    ], ids=["preset-height", "preset-width", "no-preset"])
    def test_missing_image_dimension_keeps_its_default(self, cfg, size):
        assert model_config_from(cfg, None).image_size == size

    def test_invalid_json_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["params", "--config", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_checkpoint_and_metrics(self, trained, capsys):
        assert (trained / "checkpoint.spkf").exists()
        assert (trained / "metrics.csv").exists()

    def test_seed_override_changes_nothing_when_equal(self, tmp_path, config_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", config_path, "--out", str(a), "--seed", "0"])
        main(["train", "--config", config_path, "--out", str(b), "--seed", "0"])
        assert (a / "checkpoint.spkf").read_bytes() == (b / "checkpoint.spkf").read_bytes()

    def test_negative_weight_decay_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CFG, weight_decay=-3.0)))
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: weight_decay must be >= 0") and "Traceback" not in err
        assert not (out / "checkpoint.spkf").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CFG, epochs=2, lr=1e38)))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert "error: non-finite loss" in capsys.readouterr().err

    def test_missing_required_keys(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epochs": 1}))
        assert main(["train", "--config", str(path)]) == 2
        assert "missing required keys" in capsys.readouterr().err


class TestEvalCommand:
    def test_reports_accuracy(self, config_path, trained, capsys):
        code = main(["eval", "--config", config_path,
                     "--checkpoint", str(trained / "checkpoint.spkf")])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_requires_checkpoint(self, config_path, capsys):
        assert main(["eval", "--config", config_path]) == 2
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [8, 16])
    def test_truncated_checkpoint_exits_cleanly(self, tmp_path, config_path, trained, cut,
                                                capsys):
        # 8 bytes: inside the header; 16: inside the first tensor name
        path = tmp_path / "short.spkf"
        path.write_bytes((trained / "checkpoint.spkf").read_bytes()[:cut])
        assert main(["eval", "--config", config_path, "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: truncated checkpoint") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "audit", "energy", "fuse"])
    def test_nan_checkpoint_exits_cleanly(self, tmp_path, config_path, trained, command,
                                          capsys):
        # the last 4 bytes are a float of tokenizer.units.3.conv.weight; a NaN
        # there silences every neuron after that conv (NaN >= threshold is false)
        path = tmp_path / "nan.spkf"
        path.write_bytes((trained / "checkpoint.spkf").read_bytes()[:-4]
                         + np.float32(np.nan).tobytes())
        out = tmp_path / "out"
        assert main([command, "--config", config_path, "--checkpoint", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint tensor 'tokenizer.units.3.conv.weight' "
                              "holds a non-finite value") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fused", [False, True], ids=["unfused", "fused"])
    def test_version_1_checkpoint_gives_bit_equal_logits(self, tmp_path, monkeypatch, fused):
        # embed_dim 12 makes the encoder conv 3 -> 3 channels: a [3, 3, 3, 3]
        # kernel whose v1 layout would also load, silently, untransposed
        cfg = dict(TINY_CFG, embed_dim=12)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg))
        model = build(model_config_from(cfg, None), seed=0)
        assert model.tokenizer.units[0].conv.weight.shape == (3, 3, 3, 3)
        with no_grad():
            model.forward(np.random.default_rng(0).random((8, 3, 8, 8)))  # BN statistics
        model.eval()
        if fused:
            model.fuse()
        path = tmp_path / "v1.spkf"
        write_v1_checkpoint(model.state(), path)
        logits = []

        def evaluate(loaded, dataset):
            with no_grad():
                logits.append((loaded.forward(dataset.x).data, model.forward(dataset.x).data))
            return 1.0

        monkeypatch.setattr(cli, "evaluate", evaluate)
        assert main(["eval", "--config", str(config_path), "--checkpoint", str(path)]) == 0
        (got, want), = logits
        np.testing.assert_array_equal(got, want)


class TestAuditCommand:
    def test_fresh_model_is_pure(self, tmp_path, config_path, capsys):
        out = tmp_path / "audit"
        code = main(["audit", "--config", config_path, "--out", str(out),
                     "--require-pure"])
        assert code == 0
        assert "verdict: pure" in capsys.readouterr().out
        assert (out / "purity.csv").exists() and (out / "purity.json").exists()

    def test_require_pure_fails_on_add_style(self, tmp_path, capsys):
        cfg = dict(TINY_CFG, residual_style="add", blocks=2)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["audit", "--config", str(path), "--out", str(tmp_path / "o"),
                     "--require-pure"])
        captured = capsys.readouterr()
        # fresh BN statistics may keep spikes binary; only assert consistency
        if "verdict: pure" in captured.out:
            assert code == 0
        else:
            assert code == 1 and "impure" in captured.err


class TestEnergyCommand:
    def test_static_report(self, tmp_path, config_path, capsys):
        out = tmp_path / "energy"
        assert main(["energy", "--config", config_path, "--out", str(out)]) == 0
        payload = json.loads((out / "energy.json").read_text())
        assert payload["mode"] == "static" and payload["total_pj"] > 0
        assert "pJ" in capsys.readouterr().out

    def test_event_dataset_uses_neuromorphic_mode(self, tmp_path, capsys):
        cfg = dict(TINY_CFG, dataset="synthetic-events", in_channels=2)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "energy"
        assert main(["energy", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "energy.json").read_text())["mode"] == "neuromorphic"

    def test_add_style_recalc_modes(self, tmp_path):
        cfg = dict(TINY_CFG, residual_style="add")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        totals = {}
        for mode in (1, 2):
            out = tmp_path / f"energy{mode}"
            assert main(["energy", "--config", str(path), "--out", str(out),
                         "--mode", str(mode)]) == 0
            payload = json.loads((out / "energy.json").read_text())
            totals[mode] = payload["total_pj"]
            assert payload["mode"].startswith("integer-as")
        assert totals[1] <= totals[2]

    @pytest.mark.parametrize("dataset", ["synthetic-static", "synthetic-events"])
    @pytest.mark.parametrize("mode", ["1", "2"])
    def test_mode_on_a_spike_driven_model_exits_cleanly(self, tmp_path, monkeypatch, dataset,
                                                          mode, capsys):
        """--mode prices only ADD residuals: on any other model it is refused
        before a forward runs and before --out is created."""
        cfg = dict(TINY_CFG, dataset=dataset,
                   in_channels=2 if dataset == "synthetic-events" else 3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(Model, "forward", lambda *a, **k: pytest.fail("a forward ran"))
        out = tmp_path / "energy"
        assert main(["energy", "--config", str(path), "--out", str(out), "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--mode" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dataset", ["synthetic-static", "synthetic-events"])
    @pytest.mark.parametrize("mode", [[], ["--mode", "1"], ["--mode", "2"]],
                             ids=["default", "mode1", "mode2"])
    def test_add_style_convention(self, tmp_path, dataset, mode):
        """ADD residuals are priced by a recalculation mode on either dataset,
        integer-as-N-ACs unless --mode 2, with the encoder entered first at
        E_MAC * FLOPs (also on event input)."""
        in_channels = 2 if dataset == "synthetic-events" else 3
        cfg = dict(TINY_CFG, residual_style="add", dataset=dataset, in_channels=in_channels)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "energy"
        assert main(["energy", "--config", str(path), "--out", str(out)] + mode) == 0
        payload = json.loads((out / "energy.json").read_text())
        assert payload["mode"] == ("integer-as-MAC" if mode[1:] == ["2"] else "integer-as-N-ACs")
        model = build(model_config_from(cfg, None)).eval()
        encoder = next(t for t in trace_model(model, np.zeros((1, in_channels, 8, 8), np.float32))
                       if t.kind == KIND_FIRST)
        assert payload["layers"][0] == {"layer": encoder.layer_id, "kind": KIND_FIRST,
                                        "ops": encoder.flops, "energy_pj": E_MAC * encoder.flops}


class TestFuseCommand:
    def test_fusion_equivalence(self, tmp_path, config_path, trained, capsys):
        out = tmp_path / "fused"
        code = main(["fuse", "--config", config_path, "--out", str(out),
                     "--checkpoint", str(trained / "checkpoint.spkf")])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out
        assert (out / "checkpoint-fused.spkf").exists()

    def test_verdict_runs_in_float64_and_checkpoint_is_the_float32_fusion(
            self, tmp_path, config_path, trained, monkeypatch):
        # float32 fusion re-associates the folded kernel's sums, which flips
        # spikes at threshold; the verdict compares a float64 copy instead
        checkpoint = str(trained / "checkpoint.spkf")
        direct = load_checkpoint(checkpoint, model_config_from(TINY_CFG, None))
        direct.eval()
        direct.fuse()
        save_checkpoint(direct, tmp_path / "direct.spkf")
        forward = Model.forward
        dtypes = []

        def spy(self, x):
            dtypes.append({p.data.dtype for p in self.parameters()})
            return forward(self, x)

        monkeypatch.setattr(Model, "forward", spy)
        out = tmp_path / "fused"
        assert main(["fuse", "--config", config_path, "--out", str(out),
                     "--checkpoint", checkpoint]) == 0
        assert dtypes == [{np.dtype(np.float64)}] * 2
        written = (out / "checkpoint-fused.spkf").read_bytes()
        assert written == (tmp_path / "direct.spkf").read_bytes()

    def test_fused_checkpoint_loads_in_every_command(self, tmp_path, config_path, trained,
                                                     capsys):
        out = tmp_path / "fused"
        assert main(["fuse", "--config", config_path, "--out", str(out),
                     "--checkpoint", str(trained / "checkpoint.spkf")]) == 0
        fused = str(out / "checkpoint-fused.spkf")
        capsys.readouterr()
        assert main(["eval", "--config", config_path,
                     "--checkpoint", str(trained / "checkpoint.spkf")]) == 0
        unfused_acc = capsys.readouterr().out
        assert main(["eval", "--config", config_path, "--checkpoint", fused]) == 0
        assert capsys.readouterr().out == unfused_acc
        for command in ("audit", "energy"):
            assert main([command, "--config", config_path, "--out", str(tmp_path / command),
                         "--checkpoint", fused]) == 0, command


class TestParamsCommand:
    def test_tiny_model(self, config_path, capsys):
        assert main(["params", "--config", config_path]) == 0
        assert "trainable parameters" in capsys.readouterr().out

    def test_preset_within_published_bound(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"preset": "spikingformer-4-384"}))
        assert main(["params", "--config", str(path)]) == 0
        assert "deviation" in capsys.readouterr().out


class TestCifarPath:
    def _eval_count(self, tmp_path, capsys, extra=(), **cfg_overrides):
        """Samples ``eval`` reports on an 8-record CIFAR file."""
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (8, 3, 32, 32)).astype(np.float32) / 255.0
        data = tmp_path / "batch.bin"
        write_cifar10_binary(data, images, rng.integers(0, 10, 8).astype(np.uint8))
        cfg = {k: v for k, v in TINY_CFG.items() if k != "samples"}
        cfg.update(dataset="cifar10", num_classes=10, image_height=32, image_width=32,
                   tokenizer_plan=["spe", "spe", "sped", "sped"], **cfg_overrides)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        ckpt = tmp_path / "checkpoint.spkf"
        save_checkpoint(build(model_config_from(cfg, None), seed=0), ckpt)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), "--data", str(data),
                     "--checkpoint", str(ckpt), *extra]) == 0
        return capsys.readouterr().out.split(" on ")[1]

    def test_samples_caps_cifar_records(self, tmp_path, capsys):
        assert self._eval_count(tmp_path, capsys, samples=4) == "4 samples\n"

    def test_limit_and_samples_take_the_smaller(self, tmp_path, capsys):
        assert self._eval_count(tmp_path, capsys, ["--limit", "3"], samples=4) == "3 samples\n"
        assert self._eval_count(tmp_path, capsys, ["--limit", "5"], samples=4) == "4 samples\n"

    def test_without_samples_the_whole_file_loads(self, tmp_path, capsys):
        assert self._eval_count(tmp_path, capsys) == "8 samples\n"

    def test_eval_on_cifar_file(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (8, 3, 32, 32)).astype(np.float32) / 255.0
        labels = rng.integers(0, 10, 8).astype(np.uint8)
        data = tmp_path / "batch.bin"
        write_cifar10_binary(data, images, labels)
        cfg = dict(TINY_CFG, dataset="cifar10", num_classes=10,
                   image_height=32, image_width=32,
                   tokenizer_plan=["spe", "spe", "sped", "sped"])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out),
                     "--data", str(data)]) == 0
        code = main(["eval", "--config", str(cfg_path), "--data", str(data),
                     "--checkpoint", str(out / "checkpoint.spkf")])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_cifar_without_path_errors(self, tmp_path, capsys):
        cfg = dict(TINY_CFG, dataset="cifar10")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["eval", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_label_beyond_num_classes_errors(self, tmp_path, capsys, command):
        """A label the model has no logit for exits 2 and names both class
        counts, instead of a traceback (train) or a silent accuracy (eval)."""
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (4, 3, 32, 32)).astype(np.float32) / 255.0
        data = tmp_path / "batch.bin"
        write_cifar10_binary(data, images, np.array([0, 3, 7, 9], dtype=np.uint8))
        cfg = {k: v for k, v in TINY_CFG.items() if k != "samples"}
        cfg.update(dataset="cifar10", num_classes=4, image_height=32, image_width=32,
                   tokenizer_plan=["spe", "spe", "sped", "sped"])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        ckpt = tmp_path / "checkpoint.spkf"
        save_checkpoint(build(model_config_from(cfg, None), seed=0), ckpt)
        argv = [command, "--config", str(cfg_path), "--data", str(data),
                "--out", str(tmp_path / "run")]
        if command == "eval":
            argv += ["--checkpoint", str(ckpt)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "needs 10 classes" in err and "num_classes is 4" in err
        assert not (tmp_path / "run" / "checkpoint.spkf").exists()


# The config tables as they stood when each was written out by hand; the
# derived tables must keep every key, type and allowed value.
_REFERENCE_SCHEMA = {
    "preset": (str, tuple(PRESETS)),
    "blocks": (int, None),
    "embed_dim": (int, None),
    "heads": (int, None),
    "timesteps": (int, None),
    "num_classes": (int, None),
    "in_channels": (int, None),
    "image_height": (int, None),
    "image_width": (int, None),
    "scale": (float, None),
    "tokenizer_plan": (list, None),
    "head_variant": (str, HEAD_VARIANTS),
    "residual_style": (str, (SPIKE_DRIVEN, ADD)),
    "mlp_ratio": (int, None),
    "tau": (float, None),
    "v_threshold": (float, None),
    "v_reset": (float, None),
    "alpha": (float, None),
    "epochs": (int, None),
    "batch_size": (int, None),
    "lr": (float, None),
    "weight_decay": (float, None),
    "seed": (int, None),
    "dataset": (str, ("synthetic-static", "synthetic-events", "cifar10")),
    "data_path": (str, None),
    "samples": (int, None),
    "noise": (float, None),
}
_REFERENCE_TRAIN_KEYS = ("epochs", "batch_size", "lr", "weight_decay")
_REFERENCE_MODEL_KEYS = ("blocks", "embed_dim", "heads", "timesteps", "num_classes",
                         "in_channels", "scale", "head_variant", "residual_style", "mlp_ratio",
                         "tau", "v_threshold", "v_reset", "alpha")
_REFERENCE_REQUIRED = ("blocks", "embed_dim", "heads", "timesteps", "num_classes")

# field -> (config keys that set it, the value the built config then holds);
# every value differs from what TINY_CFG builds
_FIELD_CASES = {
    "blocks": ({"blocks": 2}, 2),
    "embed_dim": ({"embed_dim": 16}, 16),
    "heads": ({"heads": 4}, 4),
    "timesteps": ({"timesteps": 3}, 3),
    "num_classes": ({"num_classes": 5}, 5),
    "in_channels": ({"in_channels": 2}, 2),
    "image_size": ({"image_height": 16, "image_width": 12}, (16, 12)),
    "scale": ({"scale": 0.25}, 0.25),
    "tokenizer_plan": ({"tokenizer_plan": ["sped", "spe", "sped"]}, ("sped", "spe", "sped")),
    "head_variant": ({"head_variant": HEAD_SN_FC_AVGPOOL}, HEAD_SN_FC_AVGPOOL),
    "residual_style": ({"residual_style": ADD}, ADD),
    "mlp_ratio": ({"mlp_ratio": 2}, 2),
    "tau": ({"tau": 3}, 3.0),
    "v_threshold": ({"v_threshold": 0.5}, 0.5),
    "v_reset": ({"v_reset": -0.25}, -0.25),
    "alpha": ({"alpha": 2.5}, 2.5),
    "epochs": ({"epochs": 3}, 3),
    "batch_size": ({"batch_size": 4}, 4),
    "lr": ({"lr": 0.01}, 0.01),
    "weight_decay": ({"weight_decay": 0.125}, 0.125),
    "seed": ({"seed": 7}, 7),
}


def _built_configs(tmp_path, monkeypatch, cfg) -> dict:
    """{ModelConfig: ..., TrainConfig: ...} as ``train`` builds them from a
    JSON config, with the training loop itself stubbed out."""
    seen = {}

    def fake_train(model, dataset, train_cfg, metrics_path):
        seen.update({type(c): c for c in (model.config, train_cfg)})
        return [{"loss": 0.0, "acc": 0.0}]

    monkeypatch.setattr(cli, "train", fake_train)
    tmp_path.mkdir()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    return seen


class TestConfigSchema:
    def test_schema_matches_the_reference(self):
        assert cli._SCHEMA == _REFERENCE_SCHEMA

    def test_key_tables_match_the_reference(self):
        assert tuple(cli._MODEL_KEYS) == _REFERENCE_MODEL_KEYS
        # seed is the one TrainConfig field the old table left out: cmd_train
        # passes the seed that ``_load`` resolved (--seed, else the config's)
        assert tuple(cli._TRAIN_KEYS) == _REFERENCE_TRAIN_KEYS + ("seed",)
        for key, kind in {**cli._MODEL_KEYS, **cli._TRAIN_KEYS}.items():
            assert kind is _REFERENCE_SCHEMA[key][0], key

    def test_required_keys_match_the_reference(self):
        with pytest.raises(ConfigError) as info:
            model_config_from({}, None)
        assert str(info.value) == f"config missing required keys: {list(_REFERENCE_REQUIRED)}"
        for key in _REFERENCE_REQUIRED:
            cfg = {k: v for k, v in TINY_CFG.items() if k != key}
            with pytest.raises(ConfigError, match=rf"missing required keys: \['{key}'\]"):
                model_config_from(cfg, None)

    @pytest.mark.parametrize("cls,field", [pytest.param(cls, f.name, id=f.name)
                                           for cls in (ModelConfig, TrainConfig)
                                           for f in fields(cls)])
    def test_every_field_reaches_its_config(self, tmp_path, monkeypatch, cls, field):
        keys, expected = _FIELD_CASES[field]  # a new field needs a case here
        default = _built_configs(tmp_path / "default", monkeypatch, TINY_CFG)[cls]
        built = _built_configs(tmp_path / "set", monkeypatch, dict(TINY_CFG, **keys))[cls]
        assert getattr(built, field) == expected != getattr(default, field)
