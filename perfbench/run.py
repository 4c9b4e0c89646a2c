"""Run one spiketag benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-toy --seed 11 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. The last
line of standard output is one JSON object {correct, attempted, failed,
metrics}: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. A fuller report (machine, GEMM
calibration, sample counts, every check) goes to
.perfbench/results/<workload>-seed<seed>-trace<t>.json, and the traced
run's spans to .perfbench/traces/. See perfbench/README.md.
"""

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import machine

INHERITED_THREAD_ENV = machine.pin_threads()

import numpy as np  # noqa: E402  (after the thread pin, which must precede it)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
LAYERS = ("L0", "L1", "L2", "L3")


def _pct_ms(by_model, q):
    """Percentile per model, averaged over models.

    Pooling the sweep's four shapes would put the median in the gap between
    the T=4 and T=6 clusters, where it jumps from run to run.
    """
    return statistics.fmean(float(np.percentile(np.asarray(v) * 1e3, q))
                            for v in by_model.values())


def end_to_end(run):
    from tracer import infer_passes, train_steps

    steps, passes = {}, {}
    for kind, _, clock, group in run.units:
        if kind == "train":
            steps.setdefault(group, []).extend(train_steps(clock.spans))
        else:
            passes.setdefault(group, []).extend(infer_passes(clock.spans))
    step_s = {g: [s for s, _ in v] for g, v in steps.items()}
    batch_s = {g: [b for p in v for b in p[2]] for g, v in passes.items()}
    all_steps = [s for v in steps.values() for s in v]
    all_passes = [p for v in passes.values() for p in v]
    metrics = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "epoch_s": (statistics.median(run.epoch_s), "s"),
        "train_tokens_per_s": (sum(t for _, t in all_steps) / sum(s for s, _ in all_steps),
                               "tok/s"),
        "train_step_ms.p50": (_pct_ms(step_s, 50), "ms"),
        "train_step_ms.p90": (_pct_ms(step_s, 90), "ms"),
        "infer_tokens_per_s": (sum(p[1] for p in all_passes) / sum(p[0] for p in all_passes),
                               "tok/s"),
        "infer_batch_ms.p50": (_pct_ms(batch_s, 50), "ms"),
        "infer_batch_ms.p90": (_pct_ms(batch_s, 90), "ms"),
        "val_f1": (run.info["val_f1"], "F1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "setup_repetitions": len(run.setup_s),
        "epochs": len(run.epoch_s),
        "train_steps_per_model": {g: len(v) for g, v in step_s.items()},
        "infer_passes": len(all_passes),
        "infer_batches_per_model": {g: len(v) for g, v in batch_s.items()},
    }
    n_batches = sum(len(v) for v in batch_s.values())
    return metrics, samples, len(all_steps) + n_batches


def _overhead(run):
    """Traced / untraced median of the workload's unit of work."""
    from tracer import infer_passes, train_steps

    kind = run.info["primary_unit"]
    side = {True: [], False: []}
    for k, traced, clock, _ in run.units:
        if k != kind:
            continue
        if kind == "train":
            side[traced].extend(s for s, _ in train_steps(clock.spans))
        else:
            side[traced].extend(b for p in infer_passes(clock.spans) for b in p[2])
    return statistics.median(side[True]) / statistics.median(side[False])


def per_layer(run):
    summary, bwd = run.tracer.summary()
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "flop": 0.0, "bytes": 0.0, "by_tag": {}}

    def get(name):
        return summary.get(name, empty)

    m = {}
    for fn in ("conv1d_same", "conv1d_same_input_grad", "conv1d_same_kernel_grad"):
        e = get(f"tensorops.{fn}")
        m[f"tensorops.{fn}.calls"] = (e["calls"], "count")
        m[f"tensorops.{fn}.self_ms"] = (e["self_s"] * 1e3, "ms")
        m[f"tensorops.{fn}.gflop"] = (e["flop"] / 1e9, "GFLOP")
        m[f"tensorops.{fn}.mb"] = (e["bytes"] / 1e6, "MB")
        m[f"tensorops.{fn}.gflop_s"] = (e["flop"] / 1e9 / e["self_s"] if e["self_s"] else 0.0,
                                        "GFLOP/s")
    m["neuron.lif_step.calls"] = (get("neuron.lif_step")["calls"], "count")
    m["neuron.lif_step.self_ms"] = (get("neuron.lif_step")["self_s"] * 1e3, "ms")
    m["neuron.spike_grad.calls"] = (get("neuron.spike_grad")["calls"], "count")
    m["neuron.spike_grad.self_ms"] = (get("neuron.spike_grad")["self_s"] * 1e3, "ms")
    for label in LAYERS:
        gamma, gamma_neg = run.info["gamma"].get(label, (0.0, 0.0))
        m[f"neuron.gamma.{label}"] = (gamma, "ratio")
        m[f"neuron.gamma_neg.{label}"] = (gamma_neg, "ratio")

    fwd = {}
    for name in ("layers.encode_step", "layers.spiking_conv_step", "layers.output_logits"):
        for tag, secs in get(name)["by_tag"].items():
            fwd[tag] = fwd.get(tag, 0.0) + secs
    m["layers.forward_ms"] = ((get("training.forward")["incl_s"]
                               + get("energy.forward")["incl_s"]) * 1e3, "ms")
    for label in LAYERS + ("out",):
        m[f"layers.{label}.fwd_ms"] = (fwd.get(label, 0.0) * 1e3, "ms")
    m["layers.weighted_spikes.self_ms"] = (get("layers.weighted_spikes")["self_s"] * 1e3, "ms")

    m["training.backward.self_ms"] = (get("training.backward")["self_s"] * 1e3, "ms")
    for label in LAYERS + ("out",):
        m[f"training.{label}.bwd_ms"] = (bwd.get(label, 0.0) * 1e3, "ms")
    m["training.optimizer_step_ms"] = (get("training.optimizer_step")["incl_s"] * 1e3, "ms")
    m["training.cross_entropy_ms"] = (get("training.cross_entropy")["incl_s"] * 1e3, "ms")
    m["training.evaluate_s"] = (get("training.evaluate")["incl_s"], "s")

    m["data.load_embeddings_s"] = (get("data.load_embeddings")["incl_s"], "s")
    m["data.load_corpus_s"] = (get("data.load_corpus")["incl_s"], "s")
    m["data.batchify_ms"] = (get("data.batchify")["incl_s"] * 1e3, "ms")
    tr = run.tracer
    m["data.pad_ratio"] = (tr.batch_real / tr.batch_positions, "ratio")
    m["data.oov_rate"] = (run.info["oov_rate"], "ratio")
    m["persistence.load_s"] = (get("persistence.load")["incl_s"], "s")
    m["persistence.save_s"] = (get("persistence.save")["incl_s"], "s")
    m["metrics.decode_bio_ms"] = (get("metrics.decode_bio")["incl_s"] * 1e3, "ms")
    m["metrics.span_f1_ms"] = (get("metrics.span_f1")["incl_s"] * 1e3, "ms")
    m["energy.profile_network_s"] = (get("energy.profile_network")["incl_s"], "s")
    m["warmup_step_s"] = (run.info["warmup_step_s"], "s")
    m["trace_overhead"] = (_overhead(run), "ratio")
    extra = {
        "attribution_mismatches": tr.attribution_mismatches,
        "unattributed_bwd_ms": bwd.get("unattributed", 0.0) * 1e3,
        "spans": len(tr.spans),
        "calls_by_name": {name: e["calls"] for name, e in sorted(summary.items())},
    }
    return m, extra


def write_spans(run, path):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for name, t0, t1, parent, step, tag in run.tracer.spans:
            tag = list(tag) if isinstance(tag, tuple) else tag
            fh.write(json.dumps([name, t0, t1, parent, step, tag]) + "\n")
        for label, t0, t1 in run.tracer.segments:
            fh.write(json.dumps(["backward.segment", t0, t1, -1, None, label]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-toy", "sweep-narrow", "infer-wide"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "spiketag" / "__init__.py").is_file():
        print(f"spiketag sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), work)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, samples, ops = end_to_end(run)
    failed = sum(1 for _, ok, _ in run.checks if not ok)
    attempted = ops + len(run.checks)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": samples,
        "failed_ops": {"failed": failed, "attempted": attempted,
                       "base": "training steps + inference batches + output checks"},
        "train_loss": run.info["train_loss"],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }
    chosen = e2e
    if run.trace:
        layer, extra = per_layer(run)
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["trace"] = extra
        chosen = layer
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        write_spans(run, OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")
    report["machine"] = machine.describe(ROOT, INHERITED_THREAD_ENV)
    report["gemm_calibration"] = machine.calibrate(INHERITED_THREAD_ENV)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(report, indent=1) + "\n")

    for check in report["checks"]:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['name']} {check['detail']}")
    for key, (value, unit) in chosen.items():
        print(f"{key:40s} {value:.6g} {unit}")
    print(f"samples {json.dumps(samples)}")
    print(f"train_loss {run.info['train_loss']:.6f} (floor -ln T; not a bounded metric)")
    print(f"failed_ops {failed}/{attempted} ({report['failed_ops']['base']})")
    print(f"report {OUT / 'results' / name}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
