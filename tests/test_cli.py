"""End-to-end CLI: every subcommand against a tiny synthetic config."""

import json

import numpy as np
import pytest

from spikingformer.cli import ConfigError, main, validate_config
from spikingformer.data import write_cifar10_binary

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


class TestFuseCommand:
    def test_fusion_equivalence(self, tmp_path, config_path, trained, capsys):
        out = tmp_path / "fused"
        code = main(["fuse", "--config", config_path, "--out", str(out),
                     "--checkpoint", str(trained / "checkpoint.spkf")])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out
        assert (out / "checkpoint-fused.spkf").exists()

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
