"""The benchmark's tracer reaches spiketag through module attributes.

perfbench/tracer.py swaps `(module, attr)` bindings for timing wrappers. A
refactor that renames or removes one of them would break the traced run
without failing any other test, so every binding is checked here, as are
the argument identities its per-layer forward and backward attribution rely
on: the layer object each forward step receives, the kernels each input-grad
conv receives and the potential each spike_grad call receives. So are the
lif_step calls its step counts read, and the shape of an inference pass its
end-to-end clock reads: one training.forward call per batch, on the calling
thread, with the mask passed by keyword.

The untraced run reads spiketag directly, too: every name perfbench/*.py
imports from a spiketag module or reads off one is checked to exist.
"""

import ast
import importlib
import importlib.util
import inspect
import threading
from pathlib import Path

import numpy as np

import pytest

from spiketag import data, layers, metrics, training
from spiketag.data import batchify
from spiketag.layers import NetworkConfig, forward, init_network

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_binding_names_a_callable():
    tracer = load_tracer()
    bindings = tracer.LayerTracer().bindings() + tracer.clock_bindings(tracer.Recorder())
    assert len(bindings) > 3
    for module, attr, *_ in bindings:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def perfbench_reads():
    """(module, name) of every spiketag name perfbench/*.py reads: each
    `from spiketag.<module> import <name>`, and each `<module>.<name>` on a
    module bound by `from spiketag import <module>`."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> spiketag module
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "spiketag" for alias in node.names)), path
            if isinstance(node, ast.ImportFrom) and node.module == "spiketag":
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spiketag."):
                reads.update((node.module.split(".", 1)[1], alias.name) for alias in node.names)
        reads.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules)
    return reads


def test_every_spiketag_name_perfbench_reads_exists():
    reads = perfbench_reads()
    assert {("layers", "N_CLASSES"), ("layers", "validate_spike_alphabet"),
            ("training", "named_parameters"), ("layers", "NetworkConfig")} <= reads
    missing = [f"{module}.{name}" for module, name in sorted(reads)
               if not hasattr(importlib.import_module(f"spiketag.{module}"), name)]
    assert missing == []
    assert "checked" in inspect.signature(layers.forward).parameters  # workloads passes it


@pytest.fixture
def traced():
    """(cfg, net, emb, mask) of a small float32 network with two spiking convs."""
    cfg = NetworkConfig(time_steps=3, channels=4, kernel=3, n_spiking_conv=2,
                        embedding_dim=5)
    rng = np.random.default_rng(0)
    net = init_network(cfg, rng, dtype=np.float32)
    emb = rng.normal(size=(2, 4, 5)).astype(np.float32)
    return cfg, net, emb, np.ones((2, 4), dtype=np.float32)


def spy_on(monkeypatch, module, attr, arg, seen=None):
    """Append argument `arg` of every call to module.attr to `seen`, in call order."""
    seen = [] if seen is None else seen
    real = getattr(module, attr)

    def spy(*args, **kwargs):
        seen.append(args[arg])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, spy)
    return seen


def test_forward_passes_each_step_its_layer_in_order(monkeypatch, traced):
    # the tracer's layer_hook labels a forward step by its second argument,
    # matched by identity to the layer objects of the network forward received
    cfg, net, emb, mask = traced
    seen = []
    for attr in ("encode_step", "spiking_conv_step", "output_logits"):
        spy_on(monkeypatch, layers, attr, 1, seen)
    forward(emb, net, cfg, mask=mask)
    assert len(seen) == len(net)
    assert all(got is want for got, want in zip(seen, net))


def test_backward_passes_input_grad_the_layer_kernels_deepest_first(monkeypatch, traced):
    # the tracer checks each input-grad conv's kernels, by identity, against
    # net[li].kernels of the backward segment spike_grad last opened
    cfg, net, emb, mask = traced
    _, trace = forward(emb, net, cfg, mask=mask)
    seen = spy_on(monkeypatch, training, "conv1d_same_input_grad", 1)
    training.backward(trace, np.zeros((2, 4), dtype=np.int64), mask, net, cfg)
    expected = [net[li].kernels for li in range(len(net) - 2, 0, -1)]
    assert len(seen) == len(expected) == cfg.n_spiking_conv
    assert all(got is want for got, want in zip(seen, expected))


def test_a_flat_network_passes_input_grad_its_own_kernels(monkeypatch, traced):
    # OptimizerState.for_network rebinds every parameter as a view of one
    # buffer; after that, and after a step through it, each input-grad conv
    # still receives net[li].kernels itself, the object forward saw
    cfg, net, emb, mask = traced
    labels = np.zeros((2, 4), dtype=np.int64)
    opt = training.OptimizerState.for_network(net)
    _, trace = forward(emb, net, cfg, mask=mask)
    training.optimizer_step(net, training.backward(trace, labels, mask, net, cfg), opt,
                            training.TrainConfig())
    layer_args = []
    for attr in ("encode_step", "spiking_conv_step", "output_logits"):
        spy_on(monkeypatch, layers, attr, 1, layer_args)
    _, trace = forward(emb, net, cfg, mask=mask)
    seen = spy_on(monkeypatch, training, "conv1d_same_input_grad", 1)
    training.backward(trace, labels, mask, net, cfg)
    assert all(got is want for got, want in zip(layer_args, net, strict=True))
    expected = [net[li].kernels for li in range(len(net) - 2, 0, -1)]
    assert len(seen) == len(expected) == cfg.n_spiking_conv
    assert all(got is want for got, want in zip(seen, expected))
    assert net[0].kernels.base is not None
    assert all(k.base is net[0].kernels.base for k in expected)  # one buffer


def test_backward_passes_spike_grad_the_trace_potentials_deepest_first(monkeypatch, traced):
    # the tracer attributes backward time to a layer by matching spike_grad's
    # `v` argument, by identity, to trace.v[li][t], the array lif_step returned
    cfg, net, emb, mask = traced
    _, trace = forward(emb, net, cfg, mask=mask)
    seen = spy_on(monkeypatch, training, "spike_grad", 0)
    training.backward(trace, np.zeros((2, 4), dtype=np.int64), mask, net, cfg)
    expected = [trace.v[li][t] for li in range(len(trace.v) - 1, -1, -1)
                for t in range(cfg.time_steps - 1, -1, -1)]
    assert len(seen) == len(expected) == 3 * cfg.time_steps
    assert all(got is want for got, want in zip(seen, expected))


@pytest.mark.parametrize("keep_trace, split", [(True, False), (False, False),
                                                (False, True)],
                         ids=["traced", "untraced", "untraced-split"])
def test_forward_calls_lif_step_once_per_step_of_each_spiking_layer(
        monkeypatch, keep_trace, split):
    # the tracer's neuron.lif_step counts read these calls: T per spiking
    # layer (the encoder and each spiking conv), per part of a split batch
    monkeypatch.setattr(layers, "USABLE_CORES", 2)
    cfg = NetworkConfig(time_steps=3, channels=128, kernel=3, n_spiking_conv=2,
                        embedding_dim=5)
    net = init_network(cfg, np.random.default_rng(0), dtype=np.float32)
    rows = 64 if split else 8
    emb = np.random.default_rng(1).normal(size=(rows, 4, 5)).astype(np.float32)
    assert (rows * 4 * cfg.channels >= layers.SPLIT_MIN_ELEMENTS) == split
    drives = spy_on(monkeypatch, layers, "lif_step", 1)
    _, trace = forward(emb, net, cfg, mask=np.ones((rows, 4), np.float32),
                       keep_trace=keep_trace)
    parts = 2 if split else 1
    assert len(drives) == parts * (cfg.n_spiking_conv + 1) * cfg.time_steps
    if keep_trace:
        # every potential the backward pass hands spike_grad is its own array,
        # so the tracer's id -> layer map cannot confuse two steps or layers
        potentials = [v for per_layer in trace.v for v in per_layer]
        assert len({id(v) for v in potentials}) == len(potentials)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(potentials)
                       for b in potentials[i + 1:])


@pytest.mark.parametrize("channels, batch_size, n_examples, split", [
    (4, 8, 20, False),
    (128, 32, 64, True),   # every batch at or above layers.SPLIT_MIN_ELEMENTS
], ids=["serial", "split"])
def test_inference_runs_one_forward_per_batch_on_the_calling_thread(
        monkeypatch, toy_corpus, toy_table, channels, batch_size, n_examples, split):
    # clock_bindings times each inference batch from its training.forward call
    # and counts its tokens from the mask keyword; the Recorder keeps one span
    # stack, so the calls must come one by one from the thread running evaluate,
    # also when each forward splits its rows across two threads
    monkeypatch.setattr(layers, "USABLE_CORES", 2)
    cfg = NetworkConfig(time_steps=2, channels=channels, kernel=3, n_spiking_conv=1,
                        embedding_dim=toy_table.dim)
    net = init_network(cfg, np.random.default_rng(0), dtype=np.float32)
    examples = toy_corpus[:n_examples]
    batches = batchify(examples, toy_table, batch_size)
    assert len(batches) > 1
    assert all((b.mask.size * channels >= layers.SPLIT_MIN_ELEMENTS) == split
               for b in batches)
    calls = []
    real_forward = training.forward

    def spy(*args, **kwargs):
        calls.append((threading.get_ident(), "mask" in kwargs))
        return real_forward(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(training, "forward", spy)
        encoders = spy_on(patch, layers, "encode_step", 0)
        list(training.predict(examples, toy_table, net, cfg, batch_size))
    assert calls == [(threading.get_ident(), True)] * len(batches)
    assert len(encoders) == (2 if split else 1) * len(batches)

    tracer = load_tracer()
    rec = tracer.LayerTracer()
    rec.install()
    try:
        training.evaluate(examples, toy_table, net, cfg, batch_size)
    finally:
        rec.uninstall()
    names = [span[0] for span in rec.spans]
    assert names.count("training.evaluate") == 1
    assert names.count("layers.encode_step") == len(encoders)
    evaluate_at = names.index("training.evaluate")
    forwards = [span for span in rec.spans if span[0] == "training.forward"]
    assert len(forwards) == len(batches)
    assert all(span[3] == evaluate_at for span in forwards)
    (_, tokens, batch_s), = tracer.infer_passes(rec.spans)
    assert len(batch_s) == len(batches)
    assert tokens == sum(len(ex.tokens) for ex in examples)


def test_train_and_evaluate_reach_batchify_and_the_metrics_through_their_modules(
        monkeypatch, toy_corpus, toy_table):
    # the tracer's data.batchify_ms, data.pad_ratio and metrics.* figures come
    # from wrappers set on these module attributes; training reads them off the
    # modules at each call, where a name bound by `from` would bypass them
    cfg = NetworkConfig(time_steps=2, channels=4, kernel=3, n_spiking_conv=1,
                        embedding_dim=toy_table.dim)
    examples = toy_corpus[:8]
    net = init_network(cfg, np.random.default_rng(0), dtype=np.float32)
    runs = {
        "train": (lambda: training.train(examples, examples, toy_table, cfg,
                                         training.TrainConfig(epochs=1)), 2),
        "evaluate": (lambda: training.evaluate(examples, toy_table, net, cfg), 1),
    }
    for name, (run, batchify_calls) in runs.items():
        with monkeypatch.context() as patch:
            seen = {attr: spy_on(patch, module, attr, 0) for module, attr in
                    ((data, "batchify"), (metrics, "decode_bio"), (metrics, "span_f1"))}
            run()
        assert len(seen["batchify"]) == batchify_calls, name
        assert seen["decode_bio"] and len(seen["span_f1"]) == 1, name
