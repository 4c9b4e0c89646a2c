"""Network layers and the multi-timestep forward pass.

A network is [encoding, spiking_conv * n, output]. The encoding layer
convolves the (static) token embeddings into a postsynaptic drive and fires
through LIF dynamics; the same embedding tensor is presented at every
timestep (constant-current coding). Spiking conv layers convolve the
postsynaptically weighted spikes of the previous layer. The output layer is
a per-token affine decoder with no neuron state; its softmax outputs are
summed over timesteps into per-token class scores.

The forward pass runs layer by layer. A layer's drive for all T timesteps
is one convolution over T*B rows (the encoder's, being the same at every
step, is computed once); then the LIF recurrence, the only sequential part,
is scanned over t. A layer's spikes are one (T, B, R, C) block, which each
lif_step writes one row t at a time and the next layer's conv and the
decoder read whole; a traced forward keeps the layer's current and
potential as T per-step arrays, which only the adjoint scan reads.

Only training and its checks need that trace: backward and grad_check read
all of it, energy.profile_network and `spiketag inspect` read the spikes.
Inference (training.predict, behind evaluate and `spiketag predict`) runs
forward with keep_trace=False, which keeps no trace: a layer's current and
potential are two buffers its scan updates in place, and its input spike
block is freed once weighted, so at most two spike blocks are alive per part
(see below). Run serially, its outputs are bit-identical to the traced
forward's.

An untraced forward whose per-step state is large (B*R*C >= 2**15 elements,
B >= 2, two usable cores) splits the batch's rows into two parts and runs
them at once, one on a worker thread and one on the calling thread. The
split row balances the parts' padded positions, and each part runs only to
its own longest real row: it is the serial untraced forward of those rows,
trimmed. Positions past a part's length are padding, which the serial
forward decodes from a zero input, and they get that output. Numpy's GEMMs
and large ufuncs release the GIL, so the parts use both cores. Below the
gate the split gains little or loses (README, "Inference batching"), and
every traced forward stays serial.

forward turns a missing validity mask into ones; below it every step takes
the mask as given. Padded positions have their embeddings and emitted spikes
zeroed, so a sentence's outputs do not depend on how much padding its batch
happens to carry.
"""

import math
import numbers
import os
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ValidationError
from .neuron import (
    BINARY,
    CENTER_ZERO,
    CENTERINGS,
    SPIKE_MODES,
    TERNARY,
    NeuronState,
    lif_step,
)
from .tensorops import conv1d_same

N_CLASSES = 3  # O, B, I

# An untraced forward splits its batch over at most two threads, and only
# when a step's state has at least SPLIT_MIN_ELEMENTS (B*R*C) elements.
# sched_getaffinity is Linux-only; elsewhere count every core.
USABLE_CORES = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
SPLIT_MIN_ELEMENTS = 2**15


def in_domain(default, text, holds=lambda value: True):
    """A config field whose domain is its annotated type where `holds` is true;
    `text` names it, type included, in errors and in the README's key list."""
    return field(default=default, metadata={"domain": text, "holds": holds})


def at_least(default, low):
    return in_domain(default, f"an integer >= {low}", lambda n: n >= low)


def one_of(default, choices):
    return in_domain(default, "one of " + ", ".join(map(repr, choices)), choices.__contains__)


_TYPES = {int: numbers.Integral, float: numbers.Real, str: str}


def check_domains(cfg):
    """Every config's __post_init__: raise a ConfigError naming the first field,
    in declaration order, outside its domain."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(f.type):  # a nested config was checked when it was made
            continue
        if (isinstance(value, bool)  # an int subclass, which no config field takes
                or not isinstance(value, _TYPES[f.type])
                or not f.metadata["holds"](_as_float(value) if f.type is float else value)):
            raise ConfigError(f"{f.name} must be {f.metadata['domain']}, got {value!r}")


def _as_float(x):
    """float(x), or nan, which no float domain holds, for an int beyond float range."""
    try:
        return float(x)
    except OverflowError:
        return math.nan


@dataclass(frozen=True)
class NetworkConfig:
    """An immutable value, checked when made: change one with dataclasses.replace."""

    time_steps: int = at_least(6, 1)
    spike_mode: str = one_of(TERNARY, SPIKE_MODES)
    channels: int = at_least(128, 1)
    kernel: int = in_domain(5, "an odd integer >= 1", lambda n: n >= 1 and n % 2 == 1)
    n_spiking_conv: int = in_domain(3, "an integer in 1..4", lambda n: 1 <= n <= 4)
    v_thr: float = in_domain(0.1, "a finite number > 0", lambda x: 0 < x < math.inf)
    decay_init: float = in_domain(0.1, "a finite number", lambda x: -math.inf < x < math.inf)
    alpha: float = in_domain(2.0, "a finite number > 0", lambda x: 0 < x < math.inf)
    embedding_dim: int = at_least(0, 0)  # 0 = take from the embedding table
    surrogate_centering: str = one_of(CENTER_ZERO, CENTERINGS)

    __post_init__ = check_domains


@dataclass
class LayerParams:
    """One layer's trainable arrays, named as in a checkpoint ('<layer>.<field>')
    and declared in training.named_parameters order; a layer's role is its
    position in the network, and its firing threshold is the config's.

    kernels is (Cout, Cin, K) for the encoder and the spiking convs and (|Y|, C)
    for the output decoder. w_scd/w_vd are the neurons' per-channel decay
    weights, unconstrained reals; w_fv_pos/w_fv_neg the scalar weights a
    spiking conv puts on its input spikes (binary mode ignores w_fv_neg). A
    field the layer lacks is None: the decoder has no neurons, and the
    encoder's drive is the raw conv output.
    """

    kernels: np.ndarray
    bias: np.ndarray
    w_scd: np.ndarray | None = None
    w_vd: np.ndarray | None = None
    w_fv_pos: np.ndarray | None = None
    w_fv_neg: np.ndarray | None = None


def glorot_uniform(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_network(cfg: NetworkConfig, rng, dtype=np.float32):
    """Build freshly initialized parameters for the configured stack.

    Kernels and decoder weights are fan-balanced uniform, biases zero,
    decay weights at cfg.decay_init, postsynaptic spike weights at 1.
    """
    if cfg.embedding_dim < 1:
        raise ConfigError("embedding_dim must be set before init_network")
    c, e, k = cfg.channels, cfg.embedding_dim, cfg.kernel

    net = [
        LayerParams(
            kernels=glorot_uniform(rng, (c, cin, k), cin * k, c * k, dtype),
            bias=np.zeros(c, dtype=dtype),
            w_scd=np.full(c, cfg.decay_init, dtype=dtype),
            w_vd=np.full(c, cfg.decay_init, dtype=dtype),
        )
        for cin in [e] + [c] * cfg.n_spiking_conv
    ]
    for layer in net[1:]:  # the spiking convs weight their input spikes
        layer.w_fv_pos = np.asarray(1.0, dtype=dtype)
        layer.w_fv_neg = np.asarray(1.0, dtype=dtype)
    net.append(
        LayerParams(
            kernels=glorot_uniform(rng, (N_CLASSES, c), c, N_CLASSES, dtype),
            bias=np.zeros(N_CLASSES, dtype=dtype),
        )
    )
    return net


def validate_spike_alphabet(spikes, mode):
    allowed = (0.0, 1.0) if mode == BINARY else (-1.0, 0.0, 1.0)
    if not np.isin(spikes, allowed).all():
        raise ValidationError(f"spike values outside the {mode} alphabet")


def weighted_spikes(spk, layer, mode, mask):
    """Apply the consuming layer's postsynaptic weights w_fv_pos/w_fv_neg
    to a spike map before convolution.

    spk is (..., B, R, C); the (B, R) mask zeroes padded positions.
    Ternary mode scales the positive and negative parts separately; for hard
    spikes this is exactly the {==+1} / {==-1} split, and it extends
    smoothly to soft spikes.
    """
    if mode == BINARY:
        wspk = layer.w_fv_pos * spk
    else:  # in place, so at most two new blocks are alive
        wspk = np.maximum(spk, 0.0)
        wspk *= layer.w_fv_pos
        neg = np.minimum(spk, 0.0)
        neg *= layer.w_fv_neg
        wspk += neg
    wspk *= mask[:, :, None]
    return wspk


def _lif_scan(drive, layer, cfg, soft, keep_trace=True):
    """Advance one layer's LIF state through t = 1..T, the only sequential part.

    drive is (T, B, R, C); lif_step reads the layer's decay weights.
    Returns a NeuronState whose spk is the (T, B, R, C) spike block, each
    step's lif_step writing its spikes straight into row t,
    and whose isc and v are tuples of the T (B, R, C) currents and pre-reset
    potentials, a fresh pair per step. Without keep_trace they are empty: the
    current and potential are then two buffers every step updates in place.
    """
    spk = np.empty(drive.shape, dtype=drive.dtype)
    isc, v = [], []
    state = NeuronState.zeros(drive.shape[1:], drive.dtype)
    for t in range(drive.shape[0]):
        if keep_trace:
            out = NeuronState(spk[t], np.empty_like(state.isc), np.empty_like(state.v))
        else:
            out = NeuronState(spk[t], state.isc, state.v)
        _, state = lif_step(state, drive[t], layer, cfg, soft, out=out)
        if keep_trace:
            isc.append(state.isc)
            v.append(state.v)
    return NeuronState(spk=spk, isc=tuple(isc), v=tuple(v))


def encode_step(embeddings, layer, cfg, soft=False, keep_trace=True):
    """Run the encoding layer for all T timesteps.

    The embeddings are presented unchanged at every step, so the drive is
    one convolution reused at each t. Returns the NeuronState of _lif_scan.
    """
    drive = conv1d_same(embeddings, layer.kernels, layer.bias)
    drive = np.broadcast_to(drive, (cfg.time_steps,) + drive.shape)
    return _lif_scan(drive, layer, cfg, soft, keep_trace)


def spiking_conv_step(in_spikes, layer, cfg, mask, soft=False, keep_trace=True):
    """Run a spiking conv layer for all T timesteps.

    in_spikes is the previous layer's raw (T, B, R, C) spike block and mask
    its (B, R) validity mask. The weighted spikes are convolved in one call
    over all T*B rows, then the LIF state is scanned over t. Returns the
    NeuronState of _lif_scan. A caller that hands over its only reference
    to in_spikes has the block freed as soon as it is weighted.
    """
    t_steps, b, r, c = in_spikes.shape
    wspk = weighted_spikes(in_spikes, layer, cfg.spike_mode, mask)
    del in_spikes
    drive = conv1d_same(wspk.reshape(t_steps * b, r, c), layer.kernels, layer.bias)
    del wspk  # freed before the scan allocates this layer's states
    return _lif_scan(drive.reshape(t_steps, b, r, -1), layer, cfg, soft, keep_trace)


def output_logits(in_spikes, layer):
    """Per-token affine decode of the channel vector; no neuron dynamics.

    in_spikes is (..., C); all leading axes are decoded as one GEMM.
    """
    in_spikes = np.asarray(in_spikes)
    n_out, c = layer.kernels.shape
    if in_spikes.shape[-1] != c:
        raise DimensionError(
            f"channel extent {in_spikes.shape[-1]} != decoder width {c}"
        )
    logits = in_spikes.reshape(-1, c) @ layer.kernels.T + layer.bias
    return logits.reshape(in_spikes.shape[:-1] + (n_out,))


@dataclass
class StateTrace:
    """What one forward run leaves behind: everything the backward pass needs,
    or, for an inference forward, only its inputs and outputs.

    spk holds one (T, B, R, C) block of raw (pre-mask) spikes per spiking
    layer. isc and v hold one tuple per layer of the T (B, R, C) arrays
    lif_step returned: trace.v[li][t] is layer li's pre-reset potential at
    step t, the same object on every access. probs_t is the (T, B, R, |Y|)
    block of per-timestep softmax outputs. A forward run with
    keep_trace=False leaves spk, isc and v empty.
    """

    embeddings: np.ndarray
    mask: np.ndarray
    spk: list = field(default_factory=list)
    isc: list = field(default_factory=list)
    v: list = field(default_factory=list)
    probs_t: np.ndarray | None = None
    prob_class: np.ndarray | None = None
    soft: bool = False


def softmax3(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(batch_embeddings, net, cfg: NetworkConfig, mask=None, soft=False,
            checked=False, keep_trace=True):
    """Run the stack layer by layer, each layer over all T timesteps.

    Returns (prob_class, trace) where prob_class[i,j] sums each timestep's
    softmax, so it totals T per token. The forward runs in the network's
    dtype: the embeddings are cast to it. net must hold cfg.n_spiking_conv + 2
    layers. A missing (B, R) mask is all ones, made here; the trace holds
    the mask the layers ran with.

    By default the trace caches every layer's spikes, current and potential
    per timestep: backward, grad_check, energy.profile_network and
    `spiketag inspect` read them. With keep_trace=False (inference) it keeps
    none of them, and each layer's input spike block is freed once it has
    been weighted for the conv, so at most the block being scanned and its
    successor are alive in each part of the batch. At or above the split
    gate (B >= 2, USABLE_CORES >= 2, B*R*C >= SPLIT_MIN_ELEMENTS) the rows
    are split in two at the row _split_by_work picks: rows h onwards run on
    a worker thread while the calling thread runs the rest, each part cut to
    its own longest real row. probs_t and prob_class are assembled at full
    (B, R), their padded positions holding what the serial forward computes
    there. A worker's exception is raised here, and no thread outlives the
    call.
    """
    if len(net) != cfg.n_spiking_conv + 2:
        raise ConfigError(
            f"network has {len(net)} layers, config needs {cfg.n_spiking_conv + 2}"
        )
    emb = np.asarray(batch_embeddings, dtype=net[0].kernels.dtype)
    if emb.ndim != 3:
        raise DimensionError(f"embeddings must be (B, R, E), got {emb.shape}")
    mask = np.ones(emb.shape[:2], emb.dtype) if mask is None else np.asarray(mask, emb.dtype)
    emb = emb * mask[:, :, None]

    b, r, _ = emb.shape
    if (keep_trace or b < 2 or USABLE_CORES < 2
            or b * r * cfg.channels < SPLIT_MIN_ELEMENTS):
        trace = _run_stack(emb, mask, net, cfg, soft, checked, keep_trace)
    else:
        # imported here: a process that never splits does not pay its ~0.7 MB RSS
        from concurrent.futures import ThreadPoolExecutor

        h, first_len, second_len = _split_by_work(_real_ends(mask))

        def run_part(rows, length):
            return _run_stack(emb[rows, :length], mask[rows, :length], net, cfg, soft,
                              checked, keep_trace=False)

        with ThreadPoolExecutor(1) as worker:
            second = worker.submit(run_part, slice(h, None), second_len)
            first = run_part(slice(None, h), first_len)
            second = second.result()
        # a position past its part's length is padding, where the serial forward
        # decodes a zero input: the logits are the decoder's bias
        probs_t = np.empty((cfg.time_steps, b, r, N_CLASSES), dtype=first.probs_t.dtype)
        probs_t[...] = softmax3(net[-1].bias)
        probs_t[:, :h, :first_len] = first.probs_t
        probs_t[:, h:, :second_len] = second.probs_t
        trace = StateTrace(embeddings=emb, mask=mask, soft=soft, probs_t=probs_t)
    trace.prob_class = trace.probs_t.sum(axis=0)
    return trace.prob_class, trace


def _real_ends(mask):
    """One past the last real position of each row of a (B, R) mask; 1 for a
    row with none, so that no part of a split is empty."""
    return np.max(np.where(mask != 0, np.arange(1, mask.shape[1] + 1), 1), axis=1)


def _split_by_work(ends):
    """Split rows at h to balance the padded positions of the two parts.

    ends holds each row's real length (_real_ends). Part one is rows :h and
    part two rows h:, each run only to its own longest row, L1 and L2. h
    minimises max(h * L1, (B - h) * L2), the first such h on ties; returns
    (h, L1, L2).
    """
    b = len(ends)
    head = np.maximum.accumulate(ends)[:-1]            # L1 for h = 1 .. B-1
    tail = np.maximum.accumulate(ends[::-1])[::-1][1:]  # L2 for h = 1 .. B-1
    h = np.arange(1, b)
    i = int(np.argmin(np.maximum(h * head, (b - h) * tail)))
    return i + 1, int(head[i]), int(tail[i])


def _run_stack(emb, mask, net, cfg, soft, checked, keep_trace):
    """The serial forward of forward()'s masked embeddings; returns its trace,
    probs_t set. checked checks each spiking layer's hard spikes as handed on."""
    trace = StateTrace(embeddings=emb, mask=mask, soft=soft)

    def hand_off(states):
        if checked and not soft:
            validate_spike_alphabet(states.spk, cfg.spike_mode)
        # a one-slot list: popping it leaves the next layer the only reference
        # outside the trace, so an untraced block is freed once weighted
        if keep_trace:
            trace.spk.append(states.spk)
            trace.isc.append(states.isc)
            trace.v.append(states.v)
        return [states.spk]

    slot = hand_off(encode_step(emb, net[0], cfg, soft=soft, keep_trace=keep_trace))
    for layer in net[1:-1]:
        slot = hand_off(spiking_conv_step(slot.pop(), layer, cfg, mask, soft=soft,
                                          keep_trace=keep_trace))
    trace.probs_t = softmax3(output_logits(slot.pop() * mask[:, :, None], net[-1]))
    return trace
