"""Package surface: every exported name resolves, and the CLI runs every
exported function that is not an acceptance reference."""

import ast
import dataclasses
import inspect
import json
import pathlib
import sys

import spikingformer
from spikingformer import cli, tensor
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


def _leading_axes(call: ast.Call) -> bool:
    """A ``sum`` or ``mean`` call (a method, or numpy's) that reduces a map's
    leading axes: its axis is computed, not a literal, or a literal run
    0, 1, ... . A literal axis (-1, or (0, 2)) is not a leading-axis sum."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr in ("sum", "mean")):
        return False
    numpy = isinstance(call.func.value, ast.Name) and call.func.value.id == "np"
    axes = [kw.value for kw in call.keywords if kw.arg == "axis"]
    axes += call.args[1:2] if numpy else call.args[:1]  # np.sum(a, axis) or a.sum(axis)
    for axis in axes:
        try:
            value = ast.literal_eval(axis)
        except ValueError:
            return True
        if isinstance(value, tuple) and value[:2] == (0, 1):
            return True
    return False


def test_each_decision_has_one_owner():
    """Only ``tensor`` reads or writes a tape node's fields (a node and its
    rebuild are built by ``_make``, read by ``_kept``) or tells a kept
    rebuild from a kept array (``callable``), and only ``tensor`` sums a
    map over its leading axes (``_channel_sum``: one GEMV);
    ``audit`` turns a site's counts into its rate, so ``energy`` reads no
    event count; only ``layers`` names a BN statistic; and a config value's
    rule is its type's, so ``cli`` never names ``require_float32`` and its
    minimum and allowed-value tables hold only its own keys. Attribute
    accesses, calls and constants are read, docstrings are not."""
    breaches = []
    for path in sorted(pathlib.Path(spikingformer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute):
                if node.attr in ("_node", "remat") and path.name != "tensor.py":
                    breaches.append(f"{where}: .{node.attr}")
                if node.attr == "events" and path.name == "energy.py":
                    breaches.append(f"{where}: .events")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "callable" and path.name != "tensor.py"):
                breaches.append(f"{where}: callable()")
            elif (isinstance(node, ast.Call) and path.name != "tensor.py"
                  and _leading_axes(node)):
                breaches.append(f"{where}: .{node.func.attr}() over leading axes")
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "running_mean" in node.value and id(node) not in docstrings
                  and path.name != "layers.py"):
                breaches.append(f"{where}: {node.value!r}")
            if path.name == "cli.py" and "require_float32" in (
                    getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None)):  # a Name, an Attribute or an import alias
                breaches.append(f"{where}: require_float32")
    fields = {f.name for cls in (spikingformer.ModelConfig, spikingformer.TrainConfig,
                                 spikingformer.LIFParams) for f in dataclasses.fields(cls)}
    breaches += [f"cli.py: {key} in a rule table" for key in fields
                 if key in cli._MINIMUM or key in cli._ALLOWED]
    assert not breaches, breaches
    assert not hasattr(tensor, "_offer") and not hasattr(tensor, "_passed_on")


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
            # --mode prices ADD residuals only; a spike-driven model refuses it
            energy = ([["energy", "--mode", "1"], ["energy", "--mode", "2"]] if style == "add"
                      else [["energy"]])
            for argv in (["train"], ["eval", *checkpoint], ["audit"], *energy,
                         ["fuse", *checkpoint]):
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
