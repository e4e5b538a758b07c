"""Spikingformer benchmark: desk training, 4-384 inference and ADD-style audit.

Run from the repository root:

    python3 bench/run.py --workload infer-4-384 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

Each run sets up its workload several times (the median is ``setup_s``),
then performs ops for ``--seconds`` and checks every op's output. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run measures half the time untraced
and half traced, reports the per-layer metrics from the traced half, and
writes every span to ``.bench_out/``. ``--workload all`` runs each workload
in its own process and prints a table.

BLAS is pinned to one thread before numpy loads. The program is imported
from ``src/`` next to this directory; the run fails if it is missing.
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import gc
import gzip
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")
WORKLOADS = ("train-desk", "infer-4-384", "audit-4-384-add")

END_TO_END_UNITS = {"samples_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}

# per-layer metric -> (span name, field): per-op means over the traced ops
SPAN_METRICS = {
    "tensor.backward.ms": ("tensor.backward", "s"),
    "tensor.elementwise.ms": ("tensor.elementwise", "s"),
    "tensor.elementwise.calls": ("tensor.elementwise", "calls"),
    "tensor.matmul.ms": ("tensor.matmul", "s"),
    "tensor.matmul.calls": ("tensor.matmul", "calls"),
    "tensor.conv2d.ms": ("tensor.conv2d", "s"),
    "tensor.conv2d.calls": ("tensor.conv2d", "calls"),
    "tensor.maxpool2d.ms": ("tensor.maxpool2d", "s"),
    "layers.attention_core.ms": ("layers.attention_core", "s"),
    "neuron.multistep_lif.ms": ("neuron.multistep_lif", "s"),
    "neuron.multistep_lif.self_ms": ("neuron.multistep_lif", "self_s"),
    "neuron.multistep_lif.calls": ("neuron.multistep_lif", "calls"),
    "layers.SN.forward.ms": ("layers.SN.forward", "s"),
    "layers.ConvBN2d.forward.ms": ("layers.ConvBN2d.forward", "s"),
    "layers.TokenConvBN.forward.ms": ("layers.TokenConvBN.forward", "s"),
    "layers.SpikingSelfAttention.forward.ms": ("layers.SpikingSelfAttention.forward", "s"),
    "layers.BatchNorm.forward.ms": ("layers.BatchNorm.forward", "s"),
    "model.forward.ms": ("model.forward", "s"),
    "model.forward.calls": ("model.forward", "calls"),
    "audit.observe_conv.ms": ("audit.observe_conv", "s"),
    "audit.observe_attention.ms": ("audit.observe_attention", "s"),
    "audit.record.ms": ("audit.record", "s"),
    "energy.trace_model.ms": ("energy.trace_model", "s"),
    "energy.recalc.ms": ("energy.recalc", "s"),
    "train.cross_entropy.ms": ("train.cross_entropy", "s"),
    "train.adamw_step.ms": ("train.adamw_step", "s"),
}
# per-layer metrics of the setup phase: means per setup repetition
SETUP_SPAN_METRICS = {"model.fuse.ms": "model.fuse", "data.synth.ms": "data.synth"}

# (name, unit, better) of every per-layer metric, as BENCHMARK.json lists them
PER_LAYER = [(m, "count" if m.endswith(".calls") else "ms", "lower") for m in SPAN_METRICS]
PER_LAYER += [(m, "ms", "lower") for m in SETUP_SPAN_METRICS]
PER_LAYER += [("tensor.nodes", "count", "lower"), ("tensor.live_mb_after_op", "MB", "lower"),
              ("tensor.gc_ms", "ms", "lower"), ("train.backward_per_forward", "ratio", "lower"),
              ("trace.overhead_ratio", "ratio", "lower")]


def import_program():
    """Put this checkout's ``src/`` first on the path; fail without it."""
    if not (SRC / "spikingformer" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import spikingformer

    if Path(spikingformer.__file__).resolve().parent != SRC / "spikingformer":
        raise SystemExit(f"error: imported spikingformer from {spikingformer.__file__}")


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def environment() -> dict:
    import numpy

    return {"blas_threads": THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit()}


def tail(times: list) -> tuple:
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples above it. With ten samples or fewer no percentile has
    that many, and the minimum (the most samples beyond) is reported, which
    keeps the value continuous as the sample count crosses eleven."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def set_up(workload, seed: int, tracer=None):
    """Repeat the workload's setup; keep the last state. Returns (state, seconds list)."""
    seconds = []
    state = None
    for k in range(workload.setup_reps):
        state = None
        gc.collect()  # release the previous repetition's model and tapes
        if tracer is not None:
            tracer.op = -1 - k
        t0 = time.perf_counter()
        state = workload.setup(seed)
        seconds.append(time.perf_counter() - t0)
    workload.prepare_checks(state, seed)
    gc.collect()
    return state, seconds


def measure(workload, state, seconds: float, tracer=None):
    from workloads import OpLog

    log = OpLog(seconds, tracer)
    log.start()
    workload.run(state, log)
    return log


def samples_per_s(workload, log) -> float:
    return workload.images_per_op * len(log.times) / log.elapsed


def end_to_end(workload, log, setup_seconds) -> tuple:
    value, pct, beyond = tail(log.times)
    n = len(log.times)
    metrics = {
        "samples_per_s": samples_per_s(workload, log),
        "op_ms_p50": statistics.median(log.times) * 1e3,
        "op_ms_tail": value * 1e3,
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1.0 - len(log.failures) / n,
    }
    extra = {"ops": n, "failed_ratio": len(log.failures) / n,
             "tail_percentile": pct, "tail_samples_beyond": beyond,
             "setup_runs_s": setup_seconds}
    return metrics, extra


def per_layer(tracer, workload, plain_log, traced_log, setup_reps: int) -> dict:
    n = len(traced_log.times)
    totals = tracer.totals(range(n))
    setup = tracer.totals(range(-setup_reps, 0))
    metrics = {}
    for name, (span, fld) in SPAN_METRICS.items():
        row = totals.get(span, {"s": 0.0, "self_s": 0.0, "calls": 0})
        metrics[name] = row[fld] * (1e3 if fld != "calls" else 1) / n
    for name, span in SETUP_SPAN_METRICS.items():
        metrics[name] = setup.get(span, {"s": 0.0})["s"] * 1e3 / setup_reps
    metrics["tensor.nodes"] = statistics.fmean(tracer.op_nodes[:n])
    metrics["tensor.live_mb_after_op"] = statistics.fmean(tracer.op_live_bytes[:n]) / 1e6
    metrics["tensor.gc_ms"] = statistics.fmean(tracer.op_gc_s[:n]) * 1e3
    forward = metrics["model.forward.ms"]
    metrics["train.backward_per_forward"] = (metrics["tensor.backward.ms"] / forward
                                             if forward else 0.0)
    metrics["trace.overhead_ratio"] = (samples_per_s(workload, plain_log)
                                       / samples_per_s(workload, traced_log))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from spans import Tracer

    workload = workloads.make(name)
    env = environment()
    if not trace:
        state, setup_seconds = set_up(workload, seed)
        log = measure(workload, state, seconds)
        metrics, extra = end_to_end(workload, log, setup_seconds)
        units = END_TO_END_UNITS
        failures = log.failures
        attempted = len(log.times)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            state, setup_seconds = set_up(workload, seed, tracer)
        finally:
            tracer.uninstall()
        plain = measure(workload, state, seconds / 2)
        tracer.install(measure_memory=True)
        try:
            traced = measure(workload, state, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, workload, plain, traced, workload.setup_reps)
        units = {m: unit for m, unit, _ in PER_LAYER}
        failures = plain.failures + [(len(plain.times) + i, e) for i, e in traced.failures]
        attempted = len(plain.times) + len(traced.times)
        n = len(traced.times)
        extra = {"traced_ops": n, "untraced_ops": len(plain.times),
                 "traced_samples_per_s": samples_per_s(workload, traced),
                 "untraced_samples_per_s": samples_per_s(workload, plain),
                 "spans": len(tracer.span_name),
                 "trace_file": str(write_trace(name, seed, env, metrics, tracer, n))}
    details = workload.details(state)
    return {"workload": name, "seed": seed, "trace": trace, "env": env,
            "details": {**extra, **details, "failures": failures[:20]},
            "units": units, "correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def write_trace(name, seed, env, metrics, tracer, n_ops) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json.gz"
    payload = {"workload": name, "seed": seed, "env": env, "metrics": metrics,
               "op_nodes": tracer.op_nodes, "op_gc_s": tracer.op_gc_s,
               "op_live_bytes": tracer.op_live_bytes,
               "layers": tracer.layer_rows(range(n_ops)), "spans": tracer.dump()}
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)
    return path


def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}")
    print("env " + json.dumps(result["env"]))
    print("details " + json.dumps(result["details"], default=str))
    for name, value in result["metrics"].items():
        print(f"  {name:<40} {value:>16.6f} {result['units'][name]}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per process), then a table."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':<40}" + "".join(f"{w:>18}" for w in rows) + "  unit")
    for m in metrics:
        unit = next(iter(rows.values()))["metrics"][m]["unit"]
        print(f"{m:<40}" + "".join(f"{r['metrics'][m]['value']:>18.4f}" for r in rows.values())
              + f"  {unit}")
    print(f"{'correct':<40}" + "".join(f"{str(r['correct']):>18}" for r in rows.values()))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
