"""Spans recorded around calls into spiketag, from outside the package.

A Recorder replaces module attributes (the bindings through which the
program calls a function) with timing wrappers and puts the originals back
on uninstall. Spans are kept in memory as lists:

    [name, start, end, parent, step, tag]

`parent` is the index of the innermost enclosing span of the same recorder
(-1 at top level), `step` the number of forward passes begun so far, and
`tag` what the hook attached to the call: a layer label, computed work or a
token count.

Layer attribution (the traced run):

- forward: `layers.encode_step`, `layers.spiking_conv_step` and
  `layers.output_logits` receive the layer object; its identity is looked up
  in the network most recently passed to a forward call.
- backward: `training.backward` has no per-layer entry point, so its
  duration is cut into segments. A segment for layer i opens at the first
  `spike_grad` call whose `v` argument *is* `trace.v[i][t]` of the trace the
  last forward returned, and runs until the next layer's first call. The
  stretch before the first `spike_grad` call (probability adjoint, decoder
  gradients) is the `out` segment. `conv1d_same_input_grad` receives
  `layer.kernels`, whose identity must name the open segment's layer; a
  disagreement is counted in `attribution_mismatches`.
"""

import time

import numpy as np

from spiketag import data, energy, layers, metrics, persistence, training


class Recorder:
    def __init__(self):
        self.spans = []
        self.step = 0
        self._stack = []
        self._saved = []

    def install(self, bindings):
        """bindings: iterable of (module, attribute, span name, hook, after).

        hook(args, kwargs), when given, runs before the clock starts and
        returns the span's tag; after(result), when given, runs once the span
        has ended.
        """
        for module, attr, name, hook, after in bindings:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, hook, after))
            self._saved.append((module, attr, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, hook, after):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            tag = hook(args, kwargs) if hook is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step, tag]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper


def _mask_tokens(args, kwargs):
    mask = kwargs.get("mask")
    return None if mask is None else float(np.sum(mask))


def clock_bindings(rec):
    """The three bindings the end-to-end numbers are derived from."""

    def forward_hook(args, kwargs):
        rec.step += 1
        return _mask_tokens(args, kwargs)

    return [
        (training, "forward", "training.forward", forward_hook, None),
        (training, "optimizer_step", "training.optimizer_step", None, None),
        (training, "evaluate", "training.evaluate", None, None),
    ]


def train_steps(spans):
    """(seconds, real tokens) per training step: a forward outside evaluate
    up to the end of the next optimizer_step."""
    steps = []
    start = tokens = None
    for name, t0, t1, parent, _, tag in spans:
        if name == "training.forward" and (parent < 0 or spans[parent][0] != "training.evaluate"):
            start, tokens = t0, tag
        elif name == "training.optimizer_step" and start is not None:
            steps.append((t1 - start, tokens))
            start = None
    return steps


def infer_passes(spans):
    """Per evaluate call: (seconds, real tokens, [per-batch seconds]).

    A batch runs from its forward's start to the next batch's forward start,
    the last one to the end of evaluate, so decoding and span scoring are
    charged to the batch they belong to.
    """
    passes = []
    children = {}
    for span in spans:
        if span[0] == "training.forward" and span[3] >= 0:
            children.setdefault(span[3], []).append(span)
    for i, span in enumerate(spans):
        if span[0] != "training.evaluate":
            continue
        fwd = children.get(i, [])
        bounds = [s[1] for s in fwd] + [span[2]]
        batch_s = [bounds[j + 1] - bounds[j] for j in range(len(fwd))]
        tokens = sum(s[5] or 0.0 for s in fwd)
        passes.append((span[2] - span[1], tokens, batch_s))
    return passes


def _conv_work(b, r_in, r_out, cin, cout, k, itemsize):
    flop = 2.0 * b * r_out * cin * cout * k
    nbytes = itemsize * (b * r_in * cin + cout * cin * k + b * r_out * cout)
    return flop, nbytes


class LayerTracer(Recorder):
    """Recorder with the full binding set and per-layer attribution."""

    def __init__(self):
        super().__init__()
        self.layer_of = {}     # id(layer object) -> label
        self.kernels_of = {}   # id(layer.kernels) -> label
        self.v_of = {}         # id(trace.v[i][t]) -> label
        self.segments = []     # [label, start, end] backward segments
        self.batch_real = 0.0
        self.batch_positions = 0.0
        self.attribution_mismatches = 0

    @staticmethod
    def _labels(net):
        return ["out" if i == len(net) - 1 else f"L{i}" for i in range(len(net))]

    def bindings(self):
        tr = self

        def forward_hook(args, kwargs):
            tr.step += 1
            net = args[1]
            labels = tr._labels(net)
            tr.layer_of = {id(lp): lab for lp, lab in zip(net, labels)}
            tr.kernels_of = {id(lp.kernels): lab for lp, lab in zip(net, labels)}
            return _mask_tokens(args, kwargs)

        def forward_after(result):
            trace = result[1]
            tr.v_of = {id(v): f"L{i}" for i, vs in enumerate(trace.v) for v in vs}

        def layer_hook(args, kwargs):
            return tr.layer_of.get(id(args[1]), "unattributed")

        def conv_hook(args, kwargs):
            x, kernels = args[0], args[1]
            b, r, cin = x.shape
            cout, _, k = kernels.shape
            pad = kwargs.get("padding", args[3] if len(args) > 3 else 2)
            return _conv_work(b, r, r + 2 * pad - k + 1, cin, cout, k, x.dtype.itemsize)

        def input_grad_hook(args, kwargs):
            d_out, kernels, r = args[0], args[1], args[2]
            b, r_out, cout = d_out.shape
            _, cin, k = kernels.shape
            seg = tr.segments[-1][0] if tr.segments else None
            if tr.kernels_of.get(id(kernels)) != seg:
                tr.attribution_mismatches += 1
            return _conv_work(b, r, r_out, cin, cout, k, d_out.dtype.itemsize)

        def kernel_grad_hook(args, kwargs):
            x, d_out, k = args[0], args[1], args[2]
            b, r, cin = x.shape
            _, r_out, cout = d_out.shape
            return _conv_work(b, r, r_out, cin, cout, k, d_out.dtype.itemsize)

        def backward_hook(args, kwargs):
            tr.segments.append(["out", time.perf_counter(), None])
            return None

        def backward_after(result):
            tr.segments[-1][2] = time.perf_counter()

        def spike_grad_hook(args, kwargs):
            label = tr.v_of.get(id(args[0]), "unattributed")
            if tr.segments and tr.segments[-1][0] != label:
                now = time.perf_counter()
                tr.segments[-1][2] = now
                tr.segments.append([label, now, None])
            return label

        def batchify_after(batches):
            for batch in batches:
                tr.batch_real += float(batch.mask.sum())
                tr.batch_positions += float(batch.mask.size)

        return [
            (training, "forward", "training.forward", forward_hook, forward_after),
            (energy, "forward", "energy.forward", forward_hook, forward_after),
            (training, "backward", "training.backward", backward_hook, backward_after),
            (training, "optimizer_step", "training.optimizer_step", None, None),
            (training, "cross_entropy", "training.cross_entropy", None, None),
            (training, "evaluate", "training.evaluate", None, None),
            (training, "spike_grad", "neuron.spike_grad", spike_grad_hook, None),
            (training, "conv1d_same_input_grad", "tensorops.conv1d_same_input_grad",
             input_grad_hook, None),
            (training, "conv1d_same_kernel_grad", "tensorops.conv1d_same_kernel_grad",
             kernel_grad_hook, None),
            (layers, "encode_step", "layers.encode_step", layer_hook, None),
            (layers, "spiking_conv_step", "layers.spiking_conv_step", layer_hook, None),
            (layers, "output_logits", "layers.output_logits", layer_hook, None),
            (layers, "weighted_spikes", "layers.weighted_spikes", None, None),
            (layers, "conv1d_same", "tensorops.conv1d_same", conv_hook, None),
            (layers, "lif_step", "neuron.lif_step", None, None),
            (data, "batchify", "data.batchify", None, batchify_after),
            (data, "load_embeddings", "data.load_embeddings", None, None),
            (data, "load_corpus", "data.load_corpus", None, None),
            (persistence, "load", "persistence.load", None, None),
            (persistence, "save", "persistence.save", None, None),
            (metrics, "decode_bio", "metrics.decode_bio", None, None),
            (metrics, "span_f1", "metrics.span_f1", None, None),
            (energy, "profile_network", "energy.profile_network", None, None),
        ]

    def install(self):
        super().install(self.bindings())

    def summary(self):
        """Per-name calls, inclusive and self seconds, and summed tags."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent, _, tag) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                          "flop": 0.0, "bytes": 0.0, "by_tag": {}})
            entry["calls"] += 1
            entry["incl_s"] += t1 - t0
            entry["self_s"] += t1 - t0 - child[i]
            if isinstance(tag, tuple):
                entry["flop"] += tag[0]
                entry["bytes"] += tag[1]
            elif isinstance(tag, str):
                entry["by_tag"][tag] = entry["by_tag"].get(tag, 0.0) + t1 - t0
        bwd = {}
        for label, t0, t1 in self.segments:
            bwd[label] = bwd.get(label, 0.0) + t1 - t0
        return out, bwd
