"""The benchmark's workloads, their seeded inputs and their output checks.

Each workload has a ``setup(seed)`` that the harness repeats and times, a
``prepare_checks(state, seed)`` that computes reference values outside any
timed region, and a ``run(state, log)`` that performs ops until ``log``
says the measuring time is over. Every op's output is checked; a failed
check is recorded on the op instead of stopping the run.

The program is only called through module attributes (``audit.record``, not
a name imported from it), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import gc
import importlib
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

audit = importlib.import_module("spikingformer.audit")
data = importlib.import_module("spikingformer.data")
energy = importlib.import_module("spikingformer.energy")
layers = importlib.import_module("spikingformer.layers")
model_mod = importlib.import_module("spikingformer.model")
train_mod = importlib.import_module("spikingformer.train")

DESK_CONFIG = model_mod.ModelConfig(blocks=2, embed_dim=64, heads=8, timesteps=2, num_classes=4,
                                    image_size=(8, 8), tokenizer_plan=("spe", "sped", "sped"))
CALIBRATION_IMAGES = 4
POOL_BATCHES = 2   # distinct eval batches per 4-384 workload, used in turn


class OpLog:
    """Per-op wall times from one clock read at the end of each op."""

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.times: list[float] = []
        self.failures: list[tuple[int, str]] = []
        self.t0 = self.t_prev = 0.0

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.begin()
        self.t0 = self.t_prev = time.perf_counter()

    def done(self, error: str | None = None) -> None:
        now = time.perf_counter()
        self.times.append(now - self.t_prev)
        self.t_prev = now
        if error is not None:
            self.failures.append((len(self.times) - 1, error))
        if self.tracer is not None:
            self.tracer.next_op()

    @property
    def elapsed(self) -> float:
        return self.t_prev - self.t0

    @property
    def expired(self) -> bool:
        return self.elapsed >= self.seconds


# -- input preparation ----------------------------------------------------------


def calibrate(model, x: np.ndarray) -> None:
    """Set every BN's running statistics from one train-mode forward pass.

    A randomly initialised 4-384 fires at rate 0 in every block when its BN
    still holds the default (0, 1) statistics; momentum 1 replaces them with
    the statistics of ``x``.
    """
    bns = [m for m in model.modules() if isinstance(m, layers.BatchNorm)]
    saved = [bn.momentum for bn in bns]
    for bn in bns:
        bn.momentum = 1.0
    model.train()
    model.forward(x)
    model.eval()
    for bn, momentum in zip(bns, saved):
        bn.momentum = momentum


def calibrated_model(config, seed: int, batch_size: int, batches: int):
    """Seeded model and images: BN calibrated on its own batch, then eval batches.

    Returns (model in eval mode, list of ``batches`` arrays of ``batch_size``).
    """
    model = model_mod.build(config, seed=seed)
    n = CALIBRATION_IMAGES + batches * batch_size
    ds = data.synth_static(config.num_classes, n, seed,
                           shape=(config.in_channels,) + tuple(config.image_size))
    calibrate(model, ds.x[:CALIBRATION_IMAGES])
    pool = [ds.x[CALIBRATION_IMAGES + i * batch_size: CALIBRATION_IMAGES + (i + 1) * batch_size]
            for i in range(batches)]
    return model, pool


def observe(model, x: np.ndarray):
    """One recorded forward: (logits, {layer: firing rate}) without the encoder conv.

    Attention matmuls report their exact event rate (both operands nonzero).
    """
    recorder = audit.ForwardRecorder()
    model.set_recorder(recorder)
    try:
        logits = model.forward(x).data
    finally:
        model.set_recorder(None)
    rates = {}
    for name, obs in recorder.layers.items():
        if obs.first_encoding:
            continue
        if obs.kind == audit.KIND_SSA:
            rates[name] = obs.events / (obs.flops_per_item * obs.items)
        else:
            rates[name] = obs.firing_rate
    return logits, rates


def layer_kind(name: str) -> str:
    """tokenizer.conv | attn.conv | attn.matmul | mlp.conv for a recorded layer."""
    parts = name.split(".")
    if parts[0] == "tokenizer":
        return "tokenizer.conv"
    if parts[2] == "attn":
        return "attn.conv" if parts[3].startswith("conv") else "attn.matmul"
    return "mlp.conv"


def summarize_rates(rates: dict) -> dict:
    """Mean firing rate per layer kind and per transformer block."""
    by_kind, by_block = {}, {}
    for name, fr in rates.items():
        by_kind.setdefault(layer_kind(name), []).append(fr)
        if name.startswith("blocks."):
            by_block.setdefault(".".join(name.split(".")[:2]), []).append(fr)
    return {
        "by_kind": {k: statistics.fmean(v) for k, v in sorted(by_kind.items())},
        "by_block": {k: statistics.fmean(v) for k, v in sorted(by_block.items())},
    }


def expected_flops(config) -> dict:
    """MACs per time step for one image, per recorded layer, from the geometry alone."""
    h, w = config.image_size
    c = config.in_channels
    d = config.embed_dim
    plan = tuple(config.tokenizer_plan) + ("spe",)  # the final D -> D embedding unit
    n_units = len(config.tokenizer_plan)
    widths = [d // 2 ** (n_units - 1 - i) for i in range(n_units)] + [d]
    pool_first = config.residual_style == layers.SPIKE_DRIVEN
    out = {}
    for i, (kind, width) in enumerate(zip(plan, widths)):
        if kind == "sped" and pool_first:
            h, w = h // 2, w // 2
        out[f"tokenizer.units.{i}.conv"] = h * w * width * c * 9
        if kind == "sped" and not pool_first:
            h, w = h // 2, w // 2
        c = width
    n = h * w
    hidden = config.mlp_ratio * d
    for j in range(config.blocks):
        for conv in ("conv_q", "conv_k", "conv_v", "conv_proj"):
            out[f"blocks.{j}.attn.{conv}"] = n * d * d
        out[f"blocks.{j}.attn.qk"] = out[f"blocks.{j}.attn.av"] = n * n * d
        out[f"blocks.{j}.mlp.conv1"] = out[f"blocks.{j}.mlp.conv2"] = n * d * hidden
    return out


# -- checks ---------------------------------------------------------------------------


def check_logits(logits: np.ndarray, reference: np.ndarray, earlier) -> str | None:
    """Fused-model logits against the unfused reference for the same batch.

    Fusion reorders float arithmetic, so membrane potentials near threshold
    can flip spikes and move logits by tenths at 4-384 depth; the top-1 of
    an image with a small margin may then change. The check therefore asks
    for finite logits, bit-equal logits on every repeat of a batch, and
    top-1 agreement with the unfused model on at least half the batch.
    """
    if not np.all(np.isfinite(logits)):
        return "non-finite logits"
    if earlier is not None and not np.array_equal(logits, earlier):
        return "logits differ from an earlier op on the same batch"
    agree = float(np.mean(logits.argmax(axis=1) == reference.argmax(axis=1)))
    if agree < 0.5:
        return f"top-1 agrees with the unfused reference on {agree:.0%} of the batch"
    return None


def check_audit(report, traces, n_acs, as_mac, flops: dict) -> str | None:
    if report.verdict != "impure":
        return f"verdict {report.verdict!r}, expected 'impure' for ADD residuals"
    max_input = max(max(info["histogram"], default=0) for info in report.layers.values())
    if max_input < 2:
        return f"max conv input {max_input} < 2"
    got = {t.layer_id: t.flops for t in traces}
    if got != flops:
        wrong = sorted(k for k in set(got) | set(flops) if got.get(k) != flops.get(k))
        return f"trace FLOPs differ from the geometry count at {wrong}"
    if not (math.isfinite(n_acs.total_pj) and math.isfinite(as_mac.total_pj)):
        return "non-finite energy"
    if as_mac.total_pj < n_acs.total_pj:
        return f"integer-as-MAC energy {as_mac.total_pj} < integer-as-N-ACs {n_acs.total_pj}"
    return None


# -- workloads ------------------------------------------------------------------------


@dataclass
class InferState:
    model: object
    pool: list
    references: list = field(default_factory=list)   # unfused logits per batch
    outputs: dict = field(default_factory=dict)       # first fused logits per batch
    rates: dict = field(default_factory=dict)


class Infer:
    """Fused, eval-mode, spike-driven forward passes; one op is one Model.forward."""

    setup_reps = 3

    def __init__(self, config, batch_size: int = 8):
        self.config = config
        self.images_per_op = batch_size

    def setup(self, seed: int) -> InferState:
        model, pool = calibrated_model(self.config, seed, self.images_per_op, POOL_BATCHES)
        model.fuse()
        model.forward(pool[0])  # warm-up
        return InferState(model, pool)

    def prepare_checks(self, state: InferState, seed: int) -> None:
        # an identically built and calibrated model, left unfused
        unfused, _ = calibrated_model(self.config, seed, self.images_per_op, POOL_BATCHES)
        rates = {}
        for x in state.pool:
            logits, batch_rates = observe(unfused, x)
            gc.collect()  # free this forward's tape before the next one
            state.references.append(logits)
            for name, fr in batch_rates.items():
                rates.setdefault(name, []).append(fr)
        state.rates = {name: statistics.fmean(v) for name, v in rates.items()}

    def run(self, state: InferState, log: OpLog) -> None:
        i = 0
        while not log.expired:
            k = i % len(state.pool)
            logits = state.model.forward(state.pool[k]).data
            error = check_logits(logits, state.references[k], state.outputs.get(k))
            if error is None:
                state.outputs.setdefault(k, logits)
            log.done(error)
            i += 1

    def details(self, state: InferState) -> dict:
        out = {"firing_rates": summarize_rates(state.rates)}
        if state.outputs:
            pairs = [(state.outputs[k], state.references[k]) for k in sorted(state.outputs)]
            out["max_abs_fused_minus_unfused"] = max(float(np.max(np.abs(f - r)))
                                                     for f, r in pairs)
            out["top1_agreement_with_unfused"] = float(np.mean(
                [f.argmax(axis=1) == r.argmax(axis=1) for f, r in pairs]))
        return out


@dataclass
class AuditState:
    model: object
    pool: list
    flops: dict
    max_conv_input: int = 0
    energy_pj: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)


class Audit:
    """Purity audit plus SOP energy in both recalculation modes, unfused.

    One op is what ``spikingformer audit`` and ``spikingformer energy`` do
    for one batch: ``audit.record``, ``energy.trace_model`` and
    ``energy.spikformer_recalc`` in both modes.
    """

    setup_reps = 3

    def __init__(self, config, batch_size: int = 4):
        self.config = config
        self.images_per_op = batch_size

    def setup(self, seed: int) -> AuditState:
        model, pool = calibrated_model(self.config, seed, self.images_per_op, POOL_BATCHES)
        model.forward(pool[0])  # warm-up
        return AuditState(model, pool, {})

    def prepare_checks(self, state: AuditState, seed: int) -> None:
        state.flops = expected_flops(self.config)

    def op(self, state: AuditState, x: np.ndarray) -> str | None:
        report = audit.record(state.model, [x])
        traces = energy.trace_model(state.model, [x])
        n_acs = energy.spikformer_recalc(traces, mode=energy.MODE_INTEGER_AS_N_ACS)
        as_mac = energy.spikformer_recalc(traces, mode=energy.MODE_INTEGER_AS_MAC)
        error = check_audit(report, traces, n_acs, as_mac, state.flops)
        state.max_conv_input = max([state.max_conv_input] + [
            max(info["histogram"], default=0) for info in report.layers.values()])
        state.energy_pj = {n_acs.mode: n_acs.total_pj, as_mac.mode: as_mac.total_pj}
        state.rates = {name: info["firing_rate"] for name, info in report.layers.items()}
        state.rates.update({t.layer_id: t.fr for t in traces if t.kind == audit.KIND_SSA})
        return error

    def run(self, state: AuditState, log: OpLog) -> None:
        i = 0
        while not log.expired:
            log.done(self.op(state, state.pool[i % len(state.pool)]))
            i += 1

    def details(self, state: AuditState) -> dict:
        return {"max_conv_input": state.max_conv_input,
                "energy_pj_last_op": state.energy_pj,
                "firing_rates": summarize_rates(state.rates)}


class _Deadline(Exception):
    """Raised from the optimizer step to end a training run at the deadline."""


@dataclass
class TrainState:
    seed: int
    dataset: object
    model: object                 # consumed by the first training run
    first_run: list = field(default_factory=list)    # (loss, acc) per step
    runs: int = 0
    completed: list = field(default_factory=list)    # train() metrics of the first full run
    trained: object = None


class TrainDesk:
    """Acceptance criterion 08's desk run: ``train.train`` with TrainConfig defaults.

    One op is one training step. The first training run always completes,
    so its final loss and best-epoch accuracy can be compared across
    commits. Further runs, each from a fresh model, fill the rest of the
    measuring time and stop after the step that reaches it; every one of
    their steps must repeat the first run's loss and accuracy bit for bit.
    """

    setup_reps = 5
    images_per_op = train_mod.TrainConfig().batch_size

    def __init__(self, config=DESK_CONFIG, samples: int = 256, epochs: int | None = None):
        self.config = config
        self.samples = samples
        self.train_config = (train_mod.TrainConfig() if epochs is None
                             else train_mod.TrainConfig(epochs=epochs))

    def setup(self, seed: int) -> TrainState:
        dataset = data.synth_static(self.config.num_classes, self.samples, seed,
                                    shape=(self.config.in_channels,) + self.config.image_size)
        return TrainState(seed, dataset, model_mod.build(self.config, seed=seed))

    def prepare_checks(self, state: TrainState, seed: int) -> None:
        pass

    def run(self, state: TrainState, log: OpLog) -> None:
        cfg = replace(self.train_config, seed=state.seed)
        cross_entropy, adamw = train_mod.cross_entropy, train_mod.AdamW
        steps: list = []

        def recording_cross_entropy(logits, labels):
            loss = cross_entropy(logits, labels)
            steps.append((loss.item(), float((logits.data.argmax(axis=1) == labels).mean())))
            return loss

        class TimedAdamW(adamw):
            def step(self, lr):
                super().step(lr)
                i = len(steps) - 1
                first = state.first_run
                error = None
                if first is not steps and i < len(first) and steps[i] != first[i]:
                    error = f"step {i} differs from the first run: {steps[i]} vs {first[i]}"
                log.done(error)
                if log.expired and steps is not first:
                    raise _Deadline

        train_mod.cross_entropy, train_mod.AdamW = recording_cross_entropy, TimedAdamW
        try:
            while not log.expired:
                steps = [] if state.runs else state.first_run
                model = state.model or model_mod.build(self.config, seed=state.seed)
                state.model = None
                state.runs += 1
                try:
                    metrics = train_mod.train(model, state.dataset, cfg)
                except _Deadline:
                    metrics = None
                except train_mod.TrainingDiverged as exc:
                    log.done(str(exc))
                    break
                if state.trained is None:
                    state.trained = model
                if metrics is not None and not state.completed:
                    state.completed = metrics
                    if [(m["loss"], m["acc"]) for m in metrics] != steps:
                        log.failures.append((len(log.times) - 1,
                                             "train() metrics differ from the recorded steps"))
        finally:
            train_mod.cross_entropy, train_mod.AdamW = cross_entropy, adamw

    def details(self, state: TrainState) -> dict:
        out = {"training_runs": state.runs, "first_run_steps": len(state.first_run),
               "first_run_complete": bool(state.completed)}
        if state.completed:
            epoch_acc = {}
            for m in state.completed:
                epoch_acc.setdefault(m["epoch"], []).append(m["acc"])
            out["final_loss"] = state.completed[-1]["loss"]
            out["best_epoch_acc"] = max(statistics.fmean(v) for v in epoch_acc.values())
        elif state.first_run:
            out["last_loss"] = state.first_run[-1][0]
        if state.trained is not None:
            # train mode: the batch statistics the training steps ran with
            x = state.dataset.x[: self.images_per_op]
            state.trained.train()
            out["firing_rates"] = summarize_rates(observe(state.trained, x)[1])
        return out


def make(name: str):
    if name == "train-desk":
        return TrainDesk()
    if name == "infer-4-384":
        return Infer(model_mod.preset_config("spikingformer-4-384"))
    if name == "audit-4-384-add":
        return Audit(model_mod.preset_config("spikingformer-4-384", residual_style="add"))
    raise ValueError(f"unknown workload {name!r}")


