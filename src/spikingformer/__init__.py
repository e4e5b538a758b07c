"""Spikingformer: spike-driven transformer with purity auditing and energy
estimation, on a minimal reverse-mode tensor engine.

Each submodule keeps its own name: ``spikingformer.train`` is the training
module (``train.train`` runs a training loop), not a function re-exported
over it."""

from .audit import PurityReport, record
from .energy import (
    EnergyReport,
    LayerTrace,
    energy_neuromorphic,
    energy_static,
    sops,
    spikformer_recalc,
    trace_model,
)
from .model import Model, ModelConfig, build, max_convbn_input, preset_config
from .neuron import LIFParams, MembraneState, lif_step, multistep_lif
from .tensor import Tensor, conv2d, heaviside, maxpool2d, surrogate_grad
from .train import TrainConfig, evaluate, load_checkpoint, save_checkpoint

__all__ = [
    "EnergyReport",
    "LIFParams",
    "LayerTrace",
    "MembraneState",
    "Model",
    "ModelConfig",
    "PurityReport",
    "Tensor",
    "TrainConfig",
    "build",
    "conv2d",
    "energy_neuromorphic",
    "energy_static",
    "evaluate",
    "heaviside",
    "lif_step",
    "load_checkpoint",
    "max_convbn_input",
    "maxpool2d",
    "multistep_lif",
    "preset_config",
    "record",
    "save_checkpoint",
    "sops",
    "spikformer_recalc",
    "surrogate_grad",
    "trace_model",
]
