"""Package surface: every exported name resolves, and the CLI runs every
exported function that is not an acceptance reference."""

import ast
import inspect
import json
import pathlib
import sys

import spikingformer
from spikingformer.cli import main

# exported for the acceptance criteria, which compare the system against them;
# no command calls them
REFERENCES = {
    "lif_step",          # criterion 06: the single-step LIF reference
    "heaviside",         # criterion 06: the spike function of that reference
    "max_convbn_input",  # criterion 03: the largest ConvBN input
}

TINY_CFG = {"blocks": 1, "embed_dim": 8, "heads": 2, "timesteps": 2, "num_classes": 4,
            "image_height": 8, "image_width": 8, "tokenizer_plan": ["spe", "sped", "sped"],
            "epochs": 1, "batch_size": 8, "samples": 16, "seed": 0}


def test_every_exported_name_resolves():
    missing = [name for name in spikingformer.__all__ if not hasattr(spikingformer, name)]
    assert not missing, missing
    assert len(set(spikingformer.__all__)) == len(spikingformer.__all__)


def test_submodule_names_are_modules():
    # ``from spikingformer import train`` is the training module, not its function
    from spikingformer import train

    assert inspect.ismodule(train) and train is sys.modules["spikingformer.train"]
    assert callable(train.train) and callable(train.cross_entropy) and train.TrainConfig
    assert "train" not in spikingformer.__all__


def test_runtime_imports_numpy_and_stdlib_only():
    # numpy is the one declared dependency; scipy may be installed, but is not declared
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(pathlib.Path(spikingformer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # not relative
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, foreign


def _cli_sweep(tmp_path):
    """Every command on a tiny model, in both residual styles on static and event data."""
    for style in ("spike-driven", "add"):
        for dataset, channels in (("synthetic-static", 3), ("synthetic-events", 2)):
            run = tmp_path / f"{style}-{dataset}"
            config = tmp_path / f"{style}-{dataset}.json"
            config.write_text(json.dumps(dict(TINY_CFG, residual_style=style, dataset=dataset,
                                              in_channels=channels)))
            common = ["--config", str(config), "--out", str(run)]
            checkpoint = ["--checkpoint", str(run / "checkpoint.spkf")]
            for argv in (["train"], ["eval", *checkpoint], ["audit"], ["energy", "--mode", "1"],
                         ["energy", "--mode", "2"], ["fuse", *checkpoint]):
                assert main(argv[:1] + common + argv[1:]) == 0, (style, dataset, argv)
    preset = tmp_path / "preset.json"
    preset.write_text(json.dumps({"preset": "spikingformer-4-384"}))
    assert main(["params", "--config", str(preset)]) == 0


def test_cli_calls_every_exported_function(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _cli_sweep(tmp_path)
    finally:
        sys.setprofile(None)
    functions = {name: getattr(spikingformer, name) for name in spikingformer.__all__
                 if inspect.isfunction(getattr(spikingformer, name))}
    assert REFERENCES <= set(functions)
    never = sorted(name for name, fn in functions.items()
                   if fn.__code__ not in called and name not in REFERENCES)
    assert not never, f"exported but never run by the CLI: {never}"
