"""The benchmark's tracer reaches spiketag through module attributes.

perfbench/tracer.py swaps `(module, attr)` bindings for timing wrappers. A
refactor that renames or removes one of them would break the traced run
without failing any other test, so every binding is checked here, as is
the argument identity its per-layer backward attribution relies on.
"""

import importlib.util
from pathlib import Path

import numpy as np

from spiketag import training
from spiketag.layers import NetworkConfig, forward, init_network

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def test_backward_passes_spike_grad_the_trace_potentials_deepest_first(monkeypatch):
    # the tracer attributes backward time to a layer by matching spike_grad's
    # `v` argument, by identity, to trace.v[li][t] (layers.StepViews)
    cfg = NetworkConfig(time_steps=3, channels=4, kernel=3, n_spiking_conv=2,
                        embedding_dim=5)
    rng = np.random.default_rng(0)
    net = init_network(cfg, rng, dtype=np.float32)
    emb = rng.normal(size=(2, 4, 5)).astype(np.float32)
    mask = np.ones((2, 4), dtype=np.float32)
    _, trace = forward(emb, net, cfg, mask=mask)

    seen = []
    real_spike_grad = training.spike_grad

    def spy(v, *args, **kwargs):
        seen.append(v)
        return real_spike_grad(v, *args, **kwargs)

    monkeypatch.setattr(training, "spike_grad", spy)
    training.backward(trace, np.zeros((2, 4), dtype=np.int64), mask, net, cfg)
    expected = [trace.v[li][t] for li in range(len(trace.v) - 1, -1, -1)
                for t in range(cfg.time_steps - 1, -1, -1)]
    assert len(seen) == len(expected) == 3 * cfg.time_steps
    assert all(got is want for got, want in zip(seen, expected))
