"""Model assembly: tokenizer + L transformer blocks + classification head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import audit
from .layers import (
    HEAD_AVGPOOL_FC,
    HEAD_VARIANTS,
    RESIDUAL_STYLES,
    SPIKE_DRIVEN,
    SN,
    ClassificationHead,
    Module,
    SpikingTokenizer,
    SpikingTransformerBlock,
    tokenizer_widths,
)
from .neuron import LIFParams
from .tensor import Tensor, require_float32


@dataclass(frozen=True)
class ModelConfig:
    blocks: int
    embed_dim: int
    heads: int
    timesteps: int
    num_classes: int
    in_channels: int = 3
    image_size: tuple = (32, 32)
    scale: float = 0.125
    tokenizer_plan: tuple = ("spe", "spe", "sped", "sped")
    head_variant: str = HEAD_AVGPOOL_FC
    residual_style: str = SPIKE_DRIVEN
    mlp_ratio: int = 4
    tau: float = 2.0
    v_threshold: float = 1.0
    v_reset: float = 0.0
    alpha: float = 4.0

    def __post_init__(self):
        for key in ("blocks", "embed_dim", "heads", "timesteps", "num_classes",
                    "in_channels", "image_size", "mlp_ratio"):
            if not np.min(getattr(self, key)) >= 1:  # both image_size dims
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not self.scale > 0:  # NaN fails too
            raise ValueError(f"scale must be > 0, got {self.scale}")
        require_float32("scale", self.scale)
        self.lif  # LIFParams checks tau, v_threshold, v_reset and alpha
        if self.embed_dim % self.heads:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        for key, allowed in (("residual_style", RESIDUAL_STYLES), ("head_variant", HEAD_VARIANTS)):
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(f"{key} must be one of {list(allowed)}, got {value!r}")
        tokenizer_widths(self.tokenizer_plan, self.embed_dim)
        down = 2 ** sum(1 for k in self.tokenizer_plan if k == "sped")
        h, w = self.image_size
        if h % down or w % down:
            raise ValueError(f"image_size {self.image_size} not divisible by downsampling {down}")

    @property
    def lif(self) -> LIFParams:
        return LIFParams(tau=self.tau, v_threshold=self.v_threshold,
                         v_reset=self.v_reset, alpha=self.alpha)


# published Spikingformer-L-D configurations
PRESETS = {
    "spikingformer-4-384": dict(blocks=4, embed_dim=384, heads=12, timesteps=4,
                                num_classes=10, image_size=(32, 32),
                                tokenizer_plan=("spe", "spe", "sped", "sped")),
    "spikingformer-8-384": dict(blocks=8, embed_dim=384, heads=12, timesteps=4,
                                num_classes=1000, image_size=(224, 224),
                                tokenizer_plan=("sped", "sped", "sped", "sped")),
    "spikingformer-8-512": dict(blocks=8, embed_dim=512, heads=8, timesteps=4,
                                num_classes=1000, image_size=(224, 224),
                                tokenizer_plan=("sped", "sped", "sped", "sped")),
    "spikingformer-8-768": dict(blocks=8, embed_dim=768, heads=12, timesteps=4,
                                num_classes=1000, image_size=(224, 224),
                                tokenizer_plan=("sped", "sped", "sped", "sped")),
}

# reference parameter counts (millions) for the published configurations
PUBLISHED_PARAM_COUNTS_M = {
    "spikingformer-4-384": 9.32,
    "spikingformer-8-512": 29.68,
    "spikingformer-8-768": 66.34,
}


def preset_config(name: str, **overrides) -> ModelConfig:
    key = name.lower()
    if key not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    kwargs = dict(PRESETS[key])
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


class Model(Module):
    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        lif = config.lif
        style = config.residual_style
        self.config = config
        self.tokenizer = SpikingTokenizer(config.tokenizer_plan, config.in_channels,
                                          config.embed_dim, rng, lif, style)
        self.blocks = [
            SpikingTransformerBlock(config.embed_dim, config.heads, rng, lif,
                                    config.scale, style, mlp_ratio=config.mlp_ratio)
            for _ in range(config.blocks)
        ]
        self.head = ClassificationHead(config.embed_dim, config.num_classes, rng,
                                       lif, config.head_variant)
        for path, module in self.named_modules():
            module.name = path

    # -- forward ------------------------------------------------------------

    def forward(self, x) -> Tensor:
        """Run a batch to logits.

        Accepts static batches [B, C, H, W] (repeated across T at the input)
        or event batches [T, B, C, H, W] with T matching the config. The
        input, an array or a Tensor, becomes a leaf in the parameters' dtype;
        a batch that holds no image raises ``ValueError``.
        """
        t = self.config.timesteps
        dtype = self.head.weight.data.dtype
        x = Tensor(x, dtype=dtype)
        if x.ndim == 4:
            data = np.broadcast_to(x.data, (t,) + x.shape).reshape((t * x.shape[0],) + x.shape[1:])
            x = Tensor(np.ascontiguousarray(data), dtype=dtype)
        elif x.ndim == 5:
            if x.shape[0] != t:
                raise ValueError(f"event input has T={x.shape[0]}, model expects {t}")
            x = x.reshape((x.shape[0] * x.shape[1],) + x.shape[2:])
        else:
            raise ValueError(f"expected 4D or 5D input, got shape {x.shape}")
        if x.shape[0] == 0:
            raise ValueError("input batch holds no image")
        if x.shape[-3] != self.config.in_channels or x.shape[-2:] != tuple(self.config.image_size):
            raise ValueError(
                f"input geometry {x.shape[-3:]} does not match config "
                f"({self.config.in_channels}, {self.config.image_size})"
            )
        tokens = self.tokenizer.forward(x, t)
        for block in self.blocks:
            tokens = block.forward(tokens, t)
        return self.head.forward(tokens, t)

    # -- registry / instrumentation ------------------------------------------

    def param_count(self) -> int:
        """Number of parameter scalars (conv kernels, BN affines, FC)."""
        return sum(p.size for _, p in self.named_parameters())

    def state(self) -> dict:
        """Flat name -> array registry: trainable parameters + BN statistics."""
        pairs = [(name, p.data) for name, p in self.named_parameters()]
        pairs += self.named_buffers()
        out = dict(pairs)
        if len(out) != len(pairs):
            raise RuntimeError("duplicate names in parameter registry")
        return out

    def load_state(self, state: dict) -> None:
        """Copy a ``state()`` registry in, each array cast to the model's dtype."""
        own = set(self.state())
        missing = own - set(state)
        extra = set(state) - own
        if missing or extra:
            raise ValueError(f"state mismatch: missing {sorted(missing)}, extra {sorted(extra)}")

        def take(name, arr):
            if arr.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {state[name].shape}")
            return state[name].astype(arr.dtype)

        self._map_arrays(take)

    def set_recorder(self, recorder) -> None:
        for module in self.modules():
            module.recorder = recorder

    def set_neuron_mode(self, mode: str) -> None:
        for module in self.modules():
            if isinstance(module, SN):
                module.mode = mode

    def fuse(self) -> None:
        """Fold every BN into its convolution in place; the state then holds
        one kernel and one bias per ConvBN and no BN.

        The fused model is inference-only: every parameter, the head's
        included, is frozen (``requires_grad=False``), so a forward records
        no tape and frees each intermediate as soon as its consumer returns,
        and ``train()`` refuses the model. Parameters stay ``Parameter``s, so
        ``state()`` and checkpoints do not change.
        """
        for module in self.modules():
            if getattr(module, "bn", None) is not None:  # a ConvBN2d with its BN
                module.fuse()
        for p in self.parameters():
            p.requires_grad = False

    @property
    def fused(self) -> bool:
        """True once ``fuse()`` has folded the BNs, so no BN statistics are
        left: the model is inference-only."""
        return next(self.named_buffers(), None) is None


def build(config: ModelConfig, seed: int = 0) -> Model:
    return Model(config, np.random.default_rng(seed))


def max_convbn_input(model: Model, data) -> dict:
    """Max observed input value per audited ConvBN (every one but the encoder conv)."""
    return {name: max(info["histogram"], default=0)
            for name, info in audit.record(model, [data]).layers.items()}
