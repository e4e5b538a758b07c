"""Spike-driven building blocks.

Every block here comes in two residual styles:

* ``spike-driven``: units are SN -> ConvBN, so each convolution only ever
  sees binary spikes and the residual add happens on post-conv real values.
* ``add``: the comparison style, ConvBN -> SN with an ADD shortcut, whose
  residual sums feed integer-valued (> 1) activations into later convs.

Token-space "convolutions" are 1x1 (per-token linear maps with shared
weights); the tokenizer uses real 3x3 spatial convolutions.
"""

from __future__ import annotations

import math

import numpy as np

from .neuron import LIFParams, multistep_lif
from .tensor import Tensor, _channel_sum, _make, _records, conv2d, maxpool2d

SPIKE_DRIVEN = "spike-driven"
ADD = "add"
RESIDUAL_STYLES = (SPIKE_DRIVEN, ADD)

HEAD_AVGPOOL_FC = "avgpool-fc"
HEAD_SN_AVGPOOL_FC = "sn-avgpool-fc"
HEAD_FC_AVGPOOL = "fc-avgpool"
HEAD_SN_FC_AVGPOOL = "sn-fc-avgpool"
HEAD_VARIANTS = (HEAD_AVGPOOL_FC, HEAD_SN_AVGPOOL_FC, HEAD_FC_AVGPOOL, HEAD_SN_FC_AVGPOOL)


class Parameter(Tensor):
    def __init__(self, data, requires_grad: bool = True, dtype=np.float32):
        super().__init__(data, requires_grad=requires_grad, dtype=dtype)


def _path(prefix: str, name) -> str:
    return f"{prefix}.{name}" if prefix else str(name)


class Module:
    """Tiny module tree: tracks parameters, buffers and submodules by name."""

    name = ""          # dotted path in its model, set once by ``Model``
    recorder = None    # forward recorder the module reports to, if any

    def __init__(self):
        self.training = True

    def named_modules(self, prefix: str = ""):
        """(dotted path, module) for this module and every submodule, depth first."""
        yield prefix, self
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.named_modules(_path(prefix, name))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(_path(_path(prefix, name), i))

    def named_parameters(self):
        for path, module in self.named_modules():
            for name, value in vars(module).items():
                if isinstance(value, Parameter):
                    yield _path(path, name), value

    def named_buffers(self):
        for path, module in self.named_modules():
            for name, buf in getattr(module, "_buffers", {}).items():
                yield _path(path, name), buf

    def modules(self):
        for _, module in self.named_modules():
            yield module

    def train(self):
        for m in self.modules():
            m.training = True
        return self

    def eval(self):
        for m in self.modules():
            m.training = False
        return self

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def astype(self, dtype):
        """Cast every parameter and buffer in place and return the module
        (built in float32; float64 is for finite-difference checks)."""
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"unsupported dtype {dtype!r}")
        self._map_arrays(lambda _, arr: arr.astype(dtype))
        return self

    def _map_arrays(self, fn):
        """Replace every parameter's data and every buffer by fn(dotted name, array)."""
        for name, p in self.named_parameters():
            p.data = fn(name, p.data)
        for path, module in self.named_modules():
            buffers = getattr(module, "_buffers", {})
            for key, buf in buffers.items():
                buffers[key] = fn(_path(path, key), buf)


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class BatchNorm(Module):
    """Per-channel batch normalization over the last (channel) axis.

    Every sum over the leading axes (the batch mean and variance in training,
    and the backward's ``g_beta`` and ``g_gamma``) is a channel sum, one GEMV
    (``tensor._channel_sum``). The op is one tape node whose backward reads
    the normalised input and the inverse deviation, never x or y.
    """

    eps = 1e-5
    momentum = 0.1  # an instance may shadow it: 1.0 adopts one batch's statistics

    def __init__(self, num_features: int):
        super().__init__()
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self._buffers = {
            "running_mean": np.zeros(num_features, dtype=np.float32),
            "running_var": np.ones(num_features, dtype=np.float32),
        }

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.gamma.size:
            raise ValueError(
                f"batchnorm expects {self.gamma.size} channels on the last axis, got {x.shape[-1]}"
            )
        data, dtype = x.data, x.data.dtype
        training = self.training
        if training:
            n = math.prod(data.shape[:-1])
            if not n:
                raise ValueError("batchnorm cannot take batch statistics of an empty batch")
            inv_n = dtype.type(1.0 / n)
            mu = _channel_sum(data) * inv_n
            centered = data - mu
            var = _channel_sum(centered * centered) * inv_n
            m = self.momentum
            self._buffers["running_mean"] = (
                (1 - m) * self._buffers["running_mean"] + m * mu
            ).astype(dtype)
            self._buffers["running_var"] = (
                (1 - m) * self._buffers["running_var"] + m * var
            ).astype(dtype)
        else:
            if np.any(self._buffers["running_var"] + self.eps <= 0):
                raise ValueError("batchnorm running variance + eps must be positive")
            mu = self._buffers["running_mean"].astype(dtype, copy=False)
            var = self._buffers["running_var"].astype(dtype, copy=False)
            centered = data - mu
        inv_std = (var + np.asarray(self.eps, dtype=dtype)) ** -0.5
        gamma, beta = self.gamma.data, self.beta.data
        parents = (x, self.gamma, self.beta)
        x_hat = np.multiply(centered, inv_std, out=centered)

        def affine(out=None):  # also the tape's rebuild of y, from the arrays bwd keeps
            y = np.multiply(x_hat, gamma, out=out)
            y += beta
            return y

        # no backward reads x_hat unless the call records: else scale it in place
        y = affine() if _records(parents) else affine(out=x_hat)
        tx = x.tracked

        def bwd(g):
            # the closed-form BN backward over the leading axes
            g_beta = _channel_sum(g)
            g_gamma = _channel_sum(g * x_hat)
            gx = None
            if tx:
                scale = gamma * inv_std
                if training:
                    gx = (g - g_beta * inv_n - x_hat * (g_gamma * inv_n)) * scale
                else:
                    gx = g * scale
            return gx, g_gamma, g_beta

        return _make(y, parents, bwd, affine)

    def scale_and_shift(self):
        """Deployment-mode affine (w_BN, b_BN) from the running statistics."""
        var = self._buffers["running_var"]
        if np.any(var + self.eps <= 0):
            raise ValueError("batchnorm running variance + eps must be positive")
        w = self.gamma.data / np.sqrt(var + self.eps)
        b = self.beta.data - w * self._buffers["running_mean"]
        return w, b


class SN(Module):
    """Multistep spiking-neuron layer over tensors with T folded into batch."""

    def __init__(self, params: LIFParams, input_scale: float = 1.0):
        super().__init__()
        self.params = params
        self.input_scale = input_scale
        self.mode = "spiking"

    def forward(self, x: Tensor, t_steps: int) -> Tensor:
        shape = x.shape
        if shape[0] % t_steps:
            raise ValueError(f"batch axis {shape[0]} not divisible by T={t_steps}")
        xr = x.reshape((t_steps, shape[0] // t_steps) + shape[1:])
        s = multistep_lif(xr, self.params, mode=self.mode, input_scale=self.input_scale)
        return s.reshape(shape)


class ConvBN2d(Module):
    """Convolution + batchnorm: the one ConvBN unit, spatial or token-space.

    Every kernel is stored as its GEMM operand, output channels last.
    Spatial (default): a 3x3, stride-1, pad-1 convolution on channels-last
    [B, H, W, C] maps with a [3, 3, in, out] kernel (downsampling is the
    tokenizer's maxpool). ``tokens=True``: a 1x1 convolution over
    the token axis of [B, N, D] tensors, i.e. a shared per-token linear map
    ``x @ W`` with an [in, out] kernel. Either way BN runs on the last axis.
    ``fuse()`` folds the BN into a frozen kernel and bias in place; the fused
    forward adds that bias to the bare product, ``y + bias``, for both kinds.
    """

    def __init__(self, in_channels, out_channels, rng, first_encoding=False, tokens=False):
        super().__init__()
        self.first_encoding = first_encoding
        self.tokens = tokens
        if tokens:
            w = _kaiming_uniform(rng, (in_channels, out_channels), in_channels)
        else:  # drawn [out, in, 3, 3], stored as one C-contiguous [3, 3, in, out] copy
            w = _kaiming_uniform(rng, (out_channels, in_channels, 3, 3), in_channels * 9)
            w = np.ascontiguousarray(w.transpose(2, 3, 1, 0))
        self.weight = Parameter(w)
        self.bias = None
        self.bn = BatchNorm(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        y = x @ self.weight if self.tokens else conv2d(x, self.weight)
        if self.recorder is not None:  # MACs per item: output positions x kernel size
            self.recorder.observe_conv(self, x.data, math.prod(y.shape[1:-1]) * self.weight.size)
        return y + self.bias if self.bn is None else self.bn.forward(y)

    def fuse(self):
        """Fold the BN affine into the kernel and a bias, in place, and drop the BN.

        W = w_BN * w_conv per output channel (the kernel's last axis), B = b_BN
        (the conv carries no bias of its own: BN follows it immediately). Both
        are frozen (``requires_grad=False``): a fused layer is inference-only,
        so its forward records no tape. A second call is a no-op.
        """
        if self.bn is None:
            return
        w_bn, b_bn = self.bn.scale_and_shift()
        w = self.weight.data * w_bn
        self.weight = Parameter(w, requires_grad=False, dtype=w.dtype)
        self.bias = Parameter(b_bn, requires_grad=False, dtype=b_bn.dtype)
        self.bn = None


class PatchEmbedUnit(Module):
    """One SPE/SPED tokenizer unit: optional SN, optional stride-2 maxpool, ConvBN,
    over channels-last [T*B, H, W, C] maps.

    ``spike-driven`` order is SN -> (MP) -> ConvBN; ``add`` order is
    ConvBN -> SN -> (MP). The tokenizer's first unit carries no leading SN in
    spike-driven style: its conv is the spike encoder and the single layer
    allowed to see analog input.
    """

    def __init__(self, in_channels, out_channels, rng, lif: LIFParams,
                 downsample: bool, style: str, is_first: bool = False):
        super().__init__()
        self.downsample = downsample
        self.style = style
        self.sn = None if (is_first and style == SPIKE_DRIVEN) else SN(lif)
        self.conv = ConvBN2d(in_channels, out_channels, rng,
                             first_encoding=is_first)

    def forward(self, x: Tensor, t_steps: int) -> Tensor:
        if self.style == SPIKE_DRIVEN:
            if self.sn is not None:
                x = self.sn.forward(x, t_steps)
            if self.downsample:
                x = maxpool2d(x)
            return self.conv.forward(x)
        x = self.conv.forward(x)
        x = self.sn.forward(x, t_steps)
        if self.downsample:
            x = maxpool2d(x)
        return x


def tokenizer_widths(plan, embed_dim: int) -> list:
    """Each unit's width for a plan of "spe"/"sped" units: doubling per unit up
    to ``embed_dim``. ``ValueError`` for a plan it cannot build."""
    if not plan:
        raise ValueError("tokenizer_plan must name at least one unit")
    for kind in plan:
        if kind not in ("spe", "sped"):
            raise ValueError(f"unknown tokenizer unit kind {kind!r} in tokenizer_plan {plan}")
    k = len(plan) - 1
    if embed_dim % 2 ** k:
        raise ValueError(f"embed_dim {embed_dim} not divisible by 2^{k} for tokenizer_plan {plan}")
    return [embed_dim // 2 ** (k - i) for i in range(k + 1)]


class SpikingTokenizer(Module):
    """Input stage: a stack of SPE/SPED units plus a final D->D embedding unit.

    Channel widths double per unit, ending at the embedding dimension. The
    input is [T*B, C, H, W]; it is viewed channels-last once on entry, every
    unit works on [T*B, H, W, C] maps, and the output grid becomes N tokens
    by a reshape alone.
    """

    def __init__(self, plan, in_channels, embed_dim, rng, lif: LIFParams, style: str):
        super().__init__()
        self.units = []
        prev = in_channels
        for i, (kind, width) in enumerate(zip(plan, tokenizer_widths(plan, embed_dim))):
            self.units.append(
                PatchEmbedUnit(prev, width, rng, lif, downsample=(kind == "sped"),
                               style=style, is_first=(i == 0))
            )
            prev = width
        # final embedding unit, geometry-preserving
        self.units.append(
            PatchEmbedUnit(embed_dim, embed_dim, rng, lif, downsample=False, style=style)
        )

    def forward(self, x: Tensor, t_steps: int) -> Tensor:
        x = x.transpose((0, 2, 3, 1))
        for unit in self.units:
            x = unit.forward(x, t_steps)
        tb, h, w, d = x.shape
        return x.reshape(tb, h * w, d)  # [T*B, N, D]


def attention_core(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Q K^T V on the trailing two axes of [..., N, d] operands (no softmax).

    With no softmax the product is associative, so it contracts in the
    cheaper order: Q (K^T V) when d < N, with a [d, d] middle product, else
    (Q K^T) V with an [N, N] one (a recorded backward rebuilds it from the
    spikes' packed copies, so neither is on the tape). Over bool spikes each
    entry of the middle product counts the products whose operands both
    fired; every sum of 0/1 spikes is an integer below 2^24, so both orders
    give the same core bit for bit.
    """
    kt = k.transpose(tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    n, d = q.shape[-2:]
    if d < n:
        return q @ (kt @ v)
    return (q @ kt) @ v


class SpikingSelfAttention(Module):
    """Multi-head spiking self attention over [T*B, N, D] token tensors.

    Binary Q, K, V are produced three ways, the per-head Q K^T V core is
    scaled by ``scale`` (folded into the following neuron's input) and sent
    through SN then a projection ConvBN.
    """

    def __init__(self, embed_dim, heads, rng, lif: LIFParams, scale: float, style: str):
        super().__init__()
        if embed_dim % heads:
            raise ValueError(f"embed_dim {embed_dim} not divisible by {heads} heads")
        if scale <= 0:
            raise ValueError("attention scale must be > 0")
        self.heads = heads
        self.scale = scale
        self.style = style
        self.sn_in = SN(lif) if style == SPIKE_DRIVEN else None
        self.conv_q = ConvBN2d(embed_dim, embed_dim, rng, tokens=True)
        self.conv_k = ConvBN2d(embed_dim, embed_dim, rng, tokens=True)
        self.conv_v = ConvBN2d(embed_dim, embed_dim, rng, tokens=True)
        self.sn_q = SN(lif)
        self.sn_k = SN(lif)
        self.sn_v = SN(lif)
        self.sn_attn = SN(lif, input_scale=scale)
        self.conv_proj = ConvBN2d(embed_dim, embed_dim, rng, tokens=True)
        self.sn_proj = SN(lif) if style == ADD else None

    def _split_heads(self, x: Tensor) -> Tensor:
        tb, n, d = x.shape
        return x.reshape(tb, n, self.heads, d // self.heads).transpose((0, 2, 1, 3))

    def _merge_heads(self, x: Tensor) -> Tensor:
        tb, h, n, dh = x.shape
        return x.transpose((0, 2, 1, 3)).reshape(tb, n, h * dh)

    def forward(self, x: Tensor, t_steps: int) -> Tensor:
        if self.style == SPIKE_DRIVEN:
            x = self.sn_in.forward(x, t_steps)
        q = self.sn_q.forward(self.conv_q.forward(x), t_steps)
        k = self.sn_k.forward(self.conv_k.forward(x), t_steps)
        v = self.sn_v.forward(self.conv_v.forward(x), t_steps)
        qh, kh, vh = self._split_heads(q), self._split_heads(k), self._split_heads(v)
        if self.recorder is not None:
            self.recorder.observe_attention(self, qh.data, kh.data, vh.data)
        core = self._merge_heads(attention_core(qh, kh, vh))
        attn = self.sn_attn.forward(core, t_steps)  # scale applied inside the neuron
        out = self.conv_proj.forward(attn)
        if self.style == ADD:
            out = self.sn_proj.forward(out, t_steps)
        return out


class SpikingMLP(Module):
    """Two chained token-space patch-embedding units, hidden dim = ratio * D."""

    def __init__(self, embed_dim, rng, lif: LIFParams, style: str, ratio: int = 4):
        super().__init__()
        hidden = ratio * embed_dim
        self.style = style
        self.sn1 = SN(lif)
        self.conv1 = ConvBN2d(embed_dim, hidden, rng, tokens=True)
        self.sn2 = SN(lif)
        self.conv2 = ConvBN2d(hidden, embed_dim, rng, tokens=True)

    def forward(self, x: Tensor, t_steps: int) -> Tensor:
        if self.style == SPIKE_DRIVEN:
            x = self.conv1.forward(self.sn1.forward(x, t_steps))
            return self.conv2.forward(self.sn2.forward(x, t_steps))
        x = self.sn1.forward(self.conv1.forward(x), t_steps)
        return self.sn2.forward(self.conv2.forward(x), t_steps)


class SpikingTransformerBlock(Module):
    """X' = MSSA(X) + X; out = SMLP(X') + X'."""

    def __init__(self, embed_dim, heads, rng, lif: LIFParams, scale: float, style: str,
                 mlp_ratio: int = 4):
        super().__init__()
        self.attn = SpikingSelfAttention(embed_dim, heads, rng, lif, scale, style)
        self.mlp = SpikingMLP(embed_dim, rng, lif, style, ratio=mlp_ratio)

    def forward(self, x: Tensor, t_steps: int) -> Tensor:
        x = self.attn.forward(x, t_steps) + x
        return self.mlp.forward(x, t_steps) + x


class ClassificationHead(Module):
    """The four classifier variants over [T*B, N, D] features.

    Pooling always averages over both the token and time axes; the FC is a
    single D -> classes affine map shared by every variant.
    """

    def __init__(self, embed_dim, num_classes, rng, lif: LIFParams, variant: str):
        super().__init__()
        if variant not in HEAD_VARIANTS:
            raise ValueError(f"unknown head variant {variant!r}; expected one of {HEAD_VARIANTS}")
        self.variant = variant
        self.weight = Parameter(_kaiming_uniform(rng, (embed_dim, num_classes), embed_dim))
        self.bias = Parameter(np.zeros(num_classes))
        self.sn = SN(lif)

    def forward(self, x: Tensor, t_steps: int) -> Tensor:
        if self.variant in (HEAD_SN_AVGPOOL_FC, HEAD_SN_FC_AVGPOOL):
            x = self.sn.forward(x, t_steps)
        tb, n, d = x.shape
        xt = x.reshape(t_steps, tb // t_steps, n, d)
        if self.variant in (HEAD_AVGPOOL_FC, HEAD_SN_AVGPOOL_FC):
            pooled = xt.mean(axis=(0, 2))  # [B, D]
            return pooled @ self.weight + self.bias
        logits = xt @ self.weight + self.bias  # [T, B, N, classes]
        return logits.mean(axis=(0, 2))
