"""The benchmark's tracer reaches spiketag through module attributes.

perfbench/tracer.py swaps `(module, attr)` bindings for timing wrappers. A
refactor that renames or removes one of them would break the traced run
without failing any other test, so every binding is checked here.
"""

import importlib.util
from pathlib import Path

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
