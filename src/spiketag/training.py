"""Loss, the hand-derived spatio-temporal backward pass, optimizers, the
training loop, and finite-difference gradient verification.

The backward pass propagates adjoints both across layers and backwards
through time. Per spiking layer, with G the surrogate spike derivative and
future adjoints zero at t = T:

    dL/dspk_t  = (from the consuming layer's transposed conv / affine)
    dL/dv_t    = G(v_t) * dL/dspk_t + w_vd * (1 - |spk_t|) * dL/dv_{t+1}
    dL/disc_t  = dL/dv_t + w_scd * dL/disc_{t+1}

Parameter gradients accumulate over t: kernels/bias correlate the layer's
input with dL/disc_t; the decay weights take isc_{t-1} * dL/disc_t and
v_{t-1} * (1 - |spk_{t-1}|) * dL/dv_t. The |spk| reset indicators are
constants in hard-spike mode (their derivative is zero almost everywhere);
in soft-spike mode the reset factor varies smoothly with v, so the backward
pass adds the corresponding chain term to stay the exact adjoint of the
soft forward that the finite-difference check differentiates.

The postsynaptic weighting passes dL/dspk = w_fv_pos * dL/dwspk in binary
mode, silent (0) inputs included. In ternary mode the factor is w_fv_pos
at +1, w_fv_neg at -1 and 0 at a silent input, so a neuron whose ternary
spike is 0 receives no gradient through its consumer. The soft-spike
gradient check cannot see this: soft spikes are never exactly 0.
"""

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import data, metrics
from .errors import ConfigError, DimensionError, NumericError
from .layers import (
    N_CLASSES,
    LayerParams,
    NetworkConfig,
    at_least,
    check_domains,
    forward,
    in_domain,
    init_network,
    one_of,
    weighted_spikes,
)
from .neuron import BINARY, TERNARY, spike_grad
from .tensorops import conv1d_same_input_grad, conv1d_same_kernel_grad

PROB_FLOOR_32 = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """An immutable value, checked when made, like NetworkConfig."""

    batch_size: int = at_least(8, 1)
    learning_rate: float = in_domain(1e-4, "a finite number >= 0", lambda x: 0 <= x < math.inf)
    epochs: int = at_least(50, 1)
    seed: int = at_least(0, 0)
    optimizer: str = one_of("adam", ("sgd", "adam"))
    adam_beta1: float = in_domain(0.9, "a number in [0, 1)", lambda x: 0 <= x < 1)
    adam_beta2: float = in_domain(0.999, "a number in [0, 1)", lambda x: 0 <= x < 1)
    adam_eps: float = in_domain(1e-8, "a finite number > 0", lambda x: 0 < x < math.inf)

    __post_init__ = check_domains


def named_parameters(net):
    """Flat ordered view of every trainable array, keyed '<layer>.<field>'."""
    params = {}
    for i, layer in enumerate(net):
        prefix = f"{i}."
        for name, p in layer.__dict__.items():  # LayerParams fields, in declaration order
            if p is not None:
                params[prefix + name] = p
    return params


def token_weights(labels, mask):
    """Per-token loss weights: mask / (N * tokens-in-sentence)."""
    mask = np.asarray(mask)
    if mask.shape != labels.shape:
        raise DimensionError(f"mask shape {mask.shape} != labels shape {labels.shape}")
    n = labels.shape[0]
    row_tokens = mask.sum(axis=1, keepdims=True)
    safe = np.maximum(row_tokens, 1.0)
    return mask / (n * safe)


def _labeled_scores(prob_class, labels, mask):
    """What the loss and its adjoint share: the int64 labels, the token
    weights, the labeled-class scores (in float32 floored at 1e-12) and the
    mask of scores on that floor."""
    labels = np.asarray(labels, dtype=np.int64)
    w = token_weights(labels, mask).astype(prob_class.dtype)
    p_true = np.take_along_axis(prob_class, labels[:, :, None], axis=2)[:, :, 0]
    floored = (prob_class.dtype == np.float32) & (p_true < PROB_FLOOR_32)
    if prob_class.dtype == np.float32:
        p_true = np.maximum(p_true, PROB_FLOOR_32)
    elif np.any((p_true <= 0) & (w > 0)):
        raise NumericError("zero probability at a labeled class")
    return labels, w, p_true, floored


def cross_entropy(prob_class, labels, mask):
    """Mean over examples of the per-sentence mean token cross-entropy.

    prob_class entries are unnormalized timestep-summed softmax scores, so
    values above 1 are legal (they contribute negative terms). Masked tokens
    contribute zero. In float32, scores at a labeled class are floored at
    1e-12 before the log.
    """
    _, w, p_true, _ = _labeled_scores(np.asarray(prob_class), labels, mask)
    return float(-(w * np.log(p_true)).sum())


def _prob_adjoint(prob, labels, mask):
    """dL/dprob_class for the masked mean cross-entropy."""
    labels, w, p_true, floored = _labeled_scores(prob, labels, mask)
    # d(-log p)/dp = -1/p; the floor's clip has zero slope
    d = -w / p_true
    d = np.where(floored, 0.0, d)
    g = np.zeros_like(prob)
    np.put_along_axis(g, labels[:, :, None], d[:, :, None], axis=2)
    return g


def _adjoint_scan(trace, li, d_spk, layer, cfg):
    """Run layer li's LIF adjoint backwards through t.

    d_spk is the (T, B, R, C) adjoint arriving at the layer's raw spikes.
    It is overwritten step by step with dL/ddrive_t = dL/disc_t. Returns
    (dL/ddrive, dL/dw_scd, dL/dw_vd), the decay-weight gradients summed
    over t as the scan goes.
    """
    spk, isc, v = trace.spk[li], trace.isc[li], trace.v[li]
    w_scd, w_vd = layer.w_scd, layer.w_vd
    g_scd, g_vd = np.zeros_like(w_scd), np.zeros_like(w_vd)
    d_v_next = None
    keep = None  # 1 - |spk_t|, made at step t+1 for its w_vd gradient
    for t in range(cfg.time_steps - 1, -1, -1):
        d_s = d_spk[t]
        if trace.soft and d_v_next is not None:
            # reset factor (1 - |spk_t|) varies smoothly with v in soft mode
            d_s = d_s - w_vd * v[t] * np.sign(spk[t]) * d_v_next
        d_v = spike_grad(v[t], cfg)
        d_v *= d_s
        # drive_t enters isc_t with unit weight: dL/ddrive_t = dL/disc_t,
        # written over d_spk[t], which is read no more
        if d_v_next is None:
            d_spk[t] = d_v
        else:
            reset = w_vd * keep
            reset *= d_v_next
            d_v += reset
            np.multiply(w_scd, d_spk[t + 1], out=d_spk[t])
            d_spk[t] += d_v
        if t > 0:
            keep = np.abs(spk[t - 1])
            np.subtract(1.0, keep, out=keep)
            g_scd += (isc[t - 1] * d_spk[t]).sum(axis=(0, 1))
            g_vd += (v[t - 1] * keep * d_v).sum(axis=(0, 1))
        d_v_next = d_v
    return d_spk, g_scd, g_vd


def backward(trace, labels, mask, net, cfg: NetworkConfig):
    """Gradients of the batch loss for every trainable parameter.

    trace must come from forward() on the same batch and parameters. Layers
    are visited deepest first: an elementwise adjoint scan over t, then one
    kernel-gradient and one input-gradient convolution over all T*B rows.
    Each layer's gradients are one LayerParams record, so the dict is their
    named_parameters: the checkpoint names, in the network's order.
    """
    if trace.prob_class is None or len(trace.probs_t) != cfg.time_steps:
        raise ConfigError("trace does not match the configured time_steps")
    spiking = net[:-1]
    out_layer = net[-1]
    if len(trace.spk) != len(spiking):
        raise ConfigError("trace does not match the network depth")
    mode = cfg.spike_mode
    t_steps = cfg.time_steps
    b, r = trace.embeddings.shape[:2]
    rows = t_steps * b

    grads = [None] * len(net)  # one LayerParams of gradients per layer
    g_prob = _prob_adjoint(trace.prob_class, labels, mask)

    # output decoder: each timestep's softmax feeds prob_class additively. The
    # token weights are zero at padding, so d_logits is (signed) zero there.
    p = trace.probs_t
    d_logits = p * (g_prob - (g_prob * p).sum(axis=-1, keepdims=True))
    grads[-1] = LayerParams(
        kernels=np.tensordot(d_logits, trace.spk[-1], axes=([0, 1, 2], [0, 1, 2])),
        bias=d_logits.sum(axis=(0, 1, 2)),
    )
    d_spk = (d_logits.reshape(-1, N_CLASSES) @ out_layer.kernels).reshape(t_steps, b, r, -1)

    # spiking conv layers, deepest first; only the current layer's adjoint is alive
    for li in range(len(spiking) - 1, 0, -1):
        layer = spiking[li]
        d_drive, g_scd, g_vd = _adjoint_scan(trace, li, d_spk, layer, cfg)
        spk_in = trace.spk[li - 1]
        wspk = weighted_spikes(spk_in, layer, mode, trace.mask)
        g = grads[li] = LayerParams(
            kernels=conv1d_same_kernel_grad(wspk.reshape(rows, r, -1),
                                            d_drive.reshape(rows, r, -1),
                                            layer.kernels.shape[2]),
            bias=d_drive.sum(axis=(0, 1, 2)), w_scd=g_scd, w_vd=g_vd,
        )
        del wspk
        d_wspk = conv1d_same_input_grad(
            d_drive.reshape(rows, r, -1), layer.kernels, r
        ).reshape(spk_in.shape)
        del d_drive, d_spk  # from here on only the next layer's adjoint is kept
        d_wspk *= trace.mask[:, :, None]
        # wspk = w_fv_pos * spk (binary), w_fv_pos * spk+ + w_fv_neg * spk- (ternary)
        if mode == BINARY:
            g.w_fv_pos = np.asarray((spk_in * d_wspk).sum())
            d_wspk *= layer.w_fv_pos
        else:
            g.w_fv_pos = np.asarray((np.maximum(spk_in, 0.0) * d_wspk).sum())
            g.w_fv_neg = np.asarray((np.minimum(spk_in, 0.0) * d_wspk).sum())
            d_wspk *= layer.w_fv_pos * (spk_in > 0) + layer.w_fv_neg * (spk_in < 0)
        d_spk = d_wspk

    # encoder: its drive is the same at every t, so its kernels see sum_t dL/ddrive_t
    enc = spiking[0]
    d_drive, g_scd, g_vd = _adjoint_scan(trace, 0, d_spk, enc, cfg)
    grads[0] = LayerParams(
        kernels=conv1d_same_kernel_grad(trace.embeddings, d_drive.sum(axis=0),
                                        enc.kernels.shape[2]),
        bias=d_drive.sum(axis=(0, 1, 2)), w_scd=g_scd, w_vd=g_vd,
    )
    return named_parameters(grads)


def _views(buffer, shapes):
    """name -> the view of the 1-d `buffer` holding that array, packed in order."""
    views, end = {}, 0
    for name, shape in shapes.items():
        start, end = end, end + math.prod(shape)
        views[name] = buffer[start:end].reshape(shape)
    return views


class OptimizerState:
    """The optimizer's state over the parameters of one network, held flat.

    for_network copies the network's parameters, in named_parameters order,
    into one contiguous buffer and rebinds each array as a view of it, so a
    step updates them all in one pass. Adam's moments are one buffer each;
    m[name] and v[name] are views of them, shaped like the parameter. The
    state also owns the gradient buffer and the one scratch array a step
    works in. A deep copy is a snapshot of step, m and v, what a checkpoint
    stores; it is bound to no network and holds no gradient or scratch.
    """

    def __init__(self, shapes, step, m, v):
        self.step = step
        self._shapes, self._m, self._v = shapes, m, v
        self._params = {}  # name -> the view each network array is, once bound
        self._flat = self._grad = self._scratch = None

    # made on first use: a step reads only the buffers
    m = cached_property(lambda self: _views(self._m, self._shapes))
    v = cached_property(lambda self: _views(self._v, self._shapes))

    @classmethod
    def for_network(cls, net):
        """Fresh state for net, whose parameters become views of one buffer."""
        params = named_parameters(net)
        flat = np.concatenate(list(params.values()), axis=None)
        shapes = {name: p.shape for name, p in params.items()}
        state = cls(shapes, 0, np.zeros(flat.size, flat.dtype), np.zeros(flat.size, flat.dtype))
        state._flat, state._grad, state._scratch = flat, np.empty_like(flat), np.empty_like(flat)
        state._params = _views(flat, shapes)
        for name, view in state._params.items():
            i, attr = name.split(".")
            setattr(net[int(i)], attr, view)
        return state

    def __deepcopy__(self, memo):
        return OptimizerState(self._shapes, self.step, self._m.copy(), self._v.copy())


def optimizer_step(net, grads, opt_state, cfg: TrainConfig):
    """Apply one sgd or adam update in place; aborts on non-finite gradients.

    The update runs once over opt_state's parameter buffer, so net must be
    the network opt_state was made for, its arrays still the views
    OptimizerState.for_network bound: any other network, a deep copy
    included, is a ConfigError. The gradients are
    gathered in named_parameters order into the state's gradient buffer, in
    the parameters' dtype. If one is not finite, NumericError names the first
    such parameter and nothing changes. The operations, and so every rounding,
    are those of Adam (or sgd) applied to each parameter on its own.
    """
    bound = opt_state._params
    params = named_parameters(net)
    if len(params) != len(bound) or any(p is not q for p, q in zip(params.values(),
                                                                    bound.values())):
        raise ConfigError("optimizer state was made for another network; "
                          "OptimizerState.for_network(net) makes one for net")
    g = np.concatenate([grads[name] for name in bound], axis=None, out=opt_state._grad)
    if not np.isfinite(g).all():
        bad = next(name for name, x in _views(g, opt_state._shapes).items()
                   if not np.isfinite(x).all())
        raise NumericError(f"non-finite gradient in {bad}")
    p, s = opt_state._flat, opt_state._scratch
    lr = cfg.learning_rate
    if cfg.optimizer == "sgd":
        g *= lr
        p -= g
        return
    opt_state.step += 1
    t = opt_state.step
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    m, v = opt_state._m, opt_state._v
    m *= b1
    m += np.multiply(1.0 - b1, g, out=s)
    g2 = np.multiply(1.0 - b2, g, out=s)
    g2 *= g
    v *= b2
    v += g2
    # p -= lr * m_hat / (sqrt(v_hat) + eps), the step built in g, which is read no more
    step = np.divide(m, corr1, out=g)
    step *= lr
    den = np.sqrt(np.divide(v, corr2, out=s), out=s)
    den += eps
    step /= den
    p -= step


@dataclass
class TrainResult:
    params: list
    best_params: list
    opt_state: OptimizerState
    best_opt_state: OptimizerState | None  # goes with best_params; None until a best epoch
    best_epoch: int
    best_f1: float
    log_rows: list = field(default_factory=list)


def format_log_row(epoch, train_loss, precision, recall, f1):
    return f"{epoch}\t{train_loss:.6f}\t{precision:.4f}\t{recall:.4f}\t{f1:.4f}"


def train(train_examples, val_examples, table, net_cfg: NetworkConfig,
          cfg: TrainConfig, net=None, opt_state=None, start_epoch=0,
          log_fn=None):
    """Mini-batch training with per-epoch seeded shuffling.

    Each epoch reshuffles with a generator derived from (seed, epoch), so a
    run resumed from a checkpoint at start_epoch replays the identical batch
    sequence an uninterrupted run would have seen. Returns the final and the
    best-validation-F1 parameters, the optimizer state at each, and one log
    row per epoch.
    """
    if not train_examples:
        raise ConfigError("training set is empty")
    if not val_examples:
        raise ConfigError("validation set is empty")
    if net is None:
        init_rng = np.random.default_rng([cfg.seed, 1])
        net = init_network(net_cfg, init_rng, dtype=np.float32)
    if opt_state is None:
        opt_state = OptimizerState.for_network(net)

    result = TrainResult(
        params=net, best_params=copy.deepcopy(net), opt_state=opt_state,
        best_opt_state=None, best_epoch=-1, best_f1=-1.0,
    )
    for epoch in range(start_epoch, cfg.epochs):
        shuffle_rng = np.random.default_rng([cfg.seed, 2, epoch])
        batches = data.batchify(train_examples, table, cfg.batch_size, shuffle_rng)
        loss_sum = 0.0
        n_examples = 0
        for batch in batches:
            # an overflow's one report is optimizer_step's error naming its gradient
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                prob, trace = forward(batch.embeddings, net, net_cfg, mask=batch.mask)
                loss = cross_entropy(prob, batch.labels, batch.mask)
                grads = backward(trace, batch.labels, batch.mask, net, net_cfg)
            optimizer_step(net, grads, opt_state, cfg)
            b = batch.labels.shape[0]
            loss_sum += loss * b
            n_examples += b
        train_loss = loss_sum / n_examples

        precision, recall, f1 = evaluate(val_examples, table, net, net_cfg,
                                         cfg.batch_size)[:3]
        result.log_rows.append((epoch, train_loss, precision, recall, f1))
        if log_fn is not None:
            log_fn(format_log_row(epoch, train_loss, precision, recall, f1))
        if f1 > result.best_f1:
            result.best_f1 = f1
            result.best_epoch = epoch
            result.best_params = copy.deepcopy(net)
            result.best_opt_state = copy.deepcopy(opt_state)
    return result


def predict(examples, table, net, net_cfg, batch_size=8):
    """Yields (input position, decoded BIO labels) for each of `examples`.

    The one inference loop: batches run one at a time in batchify's length
    order, each through one forward call, made on the calling thread, that
    keeps no trace. Inside that call a batch at or above layers'
    SPLIT_MIN_ELEMENTS runs part of its rows on a worker thread.

    A forward that overflows is a NumericError, with no numpy warning:
    numpy raises at the first overflow, since the class scores can still be
    finite (a hard spike of a nan potential is 0). A non-finite parameter
    spreads without raising, so non-finite scores are a NumericError too.
    """
    for batch in data.batchify(examples, table, batch_size):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                prob = forward(batch.embeddings, net, net_cfg, mask=batch.mask,
                               keep_trace=False)[0]
        except FloatingPointError as exc:
            raise NumericError(f"inference forward: {exc}") from None
        if not np.isfinite(prob).all():
            raise NumericError("non-finite class scores in an inference batch")
        yield from zip(batch.index.tolist(), metrics.decode_bio(prob, batch.mask))


def evaluate(examples, table, net, net_cfg, batch_size=8):
    """Span-level micro P/R/F1 of the network's predictions on `examples`.

    Spans are keyed by each sentence's position in `examples`.
    """
    gold_spans = []
    pred_spans = []
    for sent, pred in predict(examples, table, net, net_cfg, batch_size):
        gold_spans.extend((sent, s, e) for s, e in metrics.extract_spans(examples[sent].labels))
        pred_spans.extend((sent, s, e) for s, e in metrics.extract_spans(pred))
    return metrics.span_f1(gold_spans, pred_spans)


def tiny_gradcheck_config(mode=TERNARY, centering="zero"):
    """The small double-precision configuration the gradient check runs at."""
    return NetworkConfig(
        time_steps=3, spike_mode=mode, channels=2, kernel=3, n_spiking_conv=2,
        embedding_dim=2, surrogate_centering=centering,
    )


def grad_check(net_cfg: NetworkConfig, seed=0):
    """Max relative error between analytic and central-difference gradients.

    Runs the soft-spike forward in float64 on a single random three-token
    sentence and perturbs every parameter entry by +/-h.
    """
    h = 1e-5
    rng = np.random.default_rng([seed, 3])
    net = init_network(net_cfg, rng, dtype=np.float64)
    b, r = 1, 3
    emb = rng.normal(0.0, 1.0, size=(b, r, net_cfg.embedding_dim))
    labels = rng.integers(0, 3, size=(b, r))
    mask = np.ones((b, r))

    def loss_value():
        prob, _ = forward(emb, net, net_cfg, mask=mask, soft=True)
        return cross_entropy(prob, labels, mask)

    prob, trace = forward(emb, net, net_cfg, mask=mask, soft=True)
    grads = backward(trace, labels, mask, net, net_cfg)

    max_rel = 0.0
    for name, p in named_parameters(net).items():
        flat = p.reshape(-1)
        g_flat = grads[name].reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_value()
            flat[idx] = keep - h
            down = loss_value()
            flat[idx] = keep
            fd = (up - down) / (2.0 * h)
            rel = abs(g_flat[idx] - fd) / max(abs(g_flat[idx]), abs(fd), 1e-6)
            max_rel = max(max_rel, rel)
    return max_rel
