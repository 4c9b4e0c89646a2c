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
is scanned over t. A layer's spikes are one (T, B, R, C) block, which the
next layer's conv and the decoder read whole; its current and potential stay
the T per-step arrays lif_step returned, which only the adjoint scan reads.

When a validity mask is supplied, padded positions have their embeddings and
emitted spikes zeroed, so a sentence's outputs do not depend on how much
padding its batch happens to carry.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, ValidationError
from .neuron import (
    BINARY,
    CENTER_ZERO,
    CENTERINGS,
    SPIKE_MODES,
    TERNARY,
    NeuronParams,
    NeuronState,
    lif_step,
)
from .tensorops import conv1d_same

ENCODING = "encoding"
SPIKING_CONV = "spiking_conv"
OUTPUT = "output"

N_CLASSES = 3  # O, B, I


@dataclass
class NetworkConfig:
    time_steps: int = 6
    spike_mode: str = TERNARY
    channels: int = 128
    kernel: int = 5
    n_spiking_conv: int = 3
    v_thr: float = 0.1
    decay_init: float = 0.1
    alpha: float = 2.0
    embedding_dim: int = 0  # 0 = take from the embedding table
    surrogate_centering: str = CENTER_ZERO

    @property
    def padding(self):
        # length-preserving for odd kernels at stride 1
        return (self.kernel - 1) // 2

    def validate(self):
        if self.time_steps < 1:
            raise ConfigError(f"time_steps must be >= 1, got {self.time_steps}")
        if not 1 <= self.n_spiking_conv <= 4:
            raise ConfigError(
                f"n_spiking_conv must be in 1..4, got {self.n_spiking_conv}"
            )
        if self.spike_mode not in SPIKE_MODES:
            raise ConfigError(f"unknown spike_mode {self.spike_mode!r}")
        if self.surrogate_centering not in CENTERINGS:
            raise ConfigError(
                f"unknown surrogate_centering {self.surrogate_centering!r}"
            )
        if self.v_thr <= 0:
            raise ConfigError(f"v_thr must be > 0, got {self.v_thr}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and >= 1, got {self.kernel}")
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        return self


@dataclass
class LayerParams:
    """Named parameter set for one layer.

    kernels is (Cout, Cin, K) for conv kinds and (|Y|, C) for the output
    decoder; neuron is absent for the output kind. The encoding layer's drive
    is the raw conv output, so it carries no postsynaptic spike weights.
    """

    kind: str
    kernels: np.ndarray
    bias: np.ndarray
    neuron: NeuronParams | None = None


def glorot_uniform(rng, shape, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_network(cfg: NetworkConfig, rng, dtype=np.float32):
    """Build freshly initialized parameters for the configured stack.

    Kernels and decoder weights are fan-balanced uniform, biases zero,
    decay weights at cfg.decay_init, postsynaptic spike weights at 1.
    """
    cfg.validate()
    if cfg.embedding_dim < 1:
        raise ConfigError("embedding_dim must be set before init_network")
    c, e, k = cfg.channels, cfg.embedding_dim, cfg.kernel

    def neuron(with_fv):
        return NeuronParams(
            w_scd=np.full(c, cfg.decay_init, dtype=dtype),
            w_vd=np.full(c, cfg.decay_init, dtype=dtype),
            w_fv_pos=np.asarray(1.0, dtype=dtype) if with_fv else None,
            w_fv_neg=np.asarray(1.0, dtype=dtype) if with_fv else None,
            v_thr=cfg.v_thr,
        )

    net = [
        LayerParams(
            kind=ENCODING,
            kernels=glorot_uniform(rng, (c, e, k), e * k, c * k, dtype),
            bias=np.zeros(c, dtype=dtype),
            neuron=neuron(with_fv=False),
        )
    ]
    for _ in range(cfg.n_spiking_conv):
        net.append(
            LayerParams(
                kind=SPIKING_CONV,
                kernels=glorot_uniform(rng, (c, c, k), c * k, c * k, dtype),
                bias=np.zeros(c, dtype=dtype),
                neuron=neuron(with_fv=True),
            )
        )
    net.append(
        LayerParams(
            kind=OUTPUT,
            kernels=glorot_uniform(rng, (N_CLASSES, c), c, N_CLASSES, dtype),
            bias=np.zeros(N_CLASSES, dtype=dtype),
            neuron=None,
        )
    )
    return net


def check_network(net):
    if len(net) < 3 or net[0].kind != ENCODING or net[-1].kind != OUTPUT:
        raise ConfigError("network must be [encoding, spiking_conv*, output]")
    for layer in net[1:-1]:
        if layer.kind != SPIKING_CONV:
            raise ConfigError(f"unexpected inner layer kind {layer.kind!r}")


def validate_spike_alphabet(spikes, mode):
    allowed = (0.0, 1.0) if mode == BINARY else (-1.0, 0.0, 1.0)
    if not np.isin(spikes, allowed).all():
        raise ValidationError(f"spike values outside the {mode} alphabet")


def weighted_spikes(spk, neuron, mode, mask=None):
    """Apply the postsynaptic weights to a spike map before convolution.

    spk is (..., B, R, C); a (B, R) mask, when given, zeroes padded
    positions. Ternary mode scales the positive and negative parts
    separately; for hard spikes this is exactly the {==+1} / {==-1} split,
    and it extends smoothly to soft spikes.
    """
    if mode == BINARY:
        wspk = neuron.w_fv_pos * spk
    else:
        wspk = neuron.w_fv_pos * np.maximum(spk, 0.0) + neuron.w_fv_neg * np.minimum(spk, 0.0)
    if mask is not None:
        wspk *= mask[:, :, None]
    return wspk


def _lif_scan(drive, neuron, cfg, soft):
    """Advance one layer's LIF state through t = 1..T, the only sequential part.

    drive is (T, B, R, C). Returns a NeuronState whose spk is the (T, B, R, C)
    spike block, written step by step, and whose isc and v are tuples of the
    T (B, R, C) currents and pre-reset potentials lif_step returned.
    """
    spk = np.empty(drive.shape, dtype=drive.dtype)
    isc, v = [], []
    state = NeuronState.zeros(drive.shape[1:], drive.dtype)
    for t in range(drive.shape[0]):
        spk[t], state = lif_step(
            state, drive[t], neuron, cfg.spike_mode,
            soft=soft, alpha=cfg.alpha, centering=cfg.surrogate_centering,
        )
        isc.append(state.isc)
        v.append(state.v)
    return NeuronState(spk=spk, isc=tuple(isc), v=tuple(v))


def encode_step(embeddings, layer, cfg, soft=False):
    """Run the encoding layer for all T timesteps.

    The embeddings are presented unchanged at every step, so the drive is
    one convolution reused at each t. Returns the NeuronState of _lif_scan.
    """
    if layer.kind != ENCODING:
        raise ConfigError(f"encode_step needs an encoding layer, got {layer.kind!r}")
    drive = conv1d_same(embeddings, layer.kernels, layer.bias, padding=cfg.padding)
    drive = np.broadcast_to(drive, (cfg.time_steps,) + drive.shape)
    return _lif_scan(drive, layer.neuron, cfg, soft)


def spiking_conv_step(in_spikes, layer, cfg, mask=None, soft=False, checked=False):
    """Run a spiking conv layer for all T timesteps.

    in_spikes is the previous layer's raw (T, B, R, C) spike block and mask
    its (B, R) validity mask. The weighted spikes are convolved in one call
    over all T*B rows, then the LIF state is scanned over t. Returns the
    NeuronState of _lif_scan.
    """
    if layer.kind != SPIKING_CONV:
        raise ConfigError(
            f"spiking_conv_step needs a spiking_conv layer, got {layer.kind!r}"
        )
    if checked and not soft:
        validate_spike_alphabet(in_spikes, cfg.spike_mode)
    t_steps, b, r, c = in_spikes.shape
    wspk = weighted_spikes(in_spikes, layer.neuron, cfg.spike_mode, mask)
    drive = conv1d_same(wspk.reshape(t_steps * b, r, c), layer.kernels, layer.bias,
                        padding=cfg.padding)
    del wspk  # freed before the scan allocates this layer's states
    return _lif_scan(drive.reshape(t_steps, b, r, -1), layer.neuron, cfg, soft)


def output_logits(in_spikes, layer):
    """Per-token affine decode of the channel vector; no neuron dynamics.

    in_spikes is (..., C); all leading axes are decoded as one GEMM.
    """
    if layer.kind != OUTPUT:
        raise ConfigError(f"output_logits needs an output layer, got {layer.kind!r}")
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
    """Everything the backward pass needs from one forward run.

    spk holds one (T, B, R, C) block of raw (pre-mask) spikes per spiking
    layer. isc and v hold one tuple per layer of the T (B, R, C) arrays
    lif_step returned: trace.v[li][t] is layer li's pre-reset potential at
    step t, the same object on every access. probs_t is the (T, B, R, |Y|)
    block of per-timestep softmax outputs.
    """

    embeddings: np.ndarray
    mask: np.ndarray | None
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
            checked=False):
    """Run the stack layer by layer, each layer over all T timesteps.

    Returns (prob_class, trace) where prob_class[i,j] sums each timestep's
    softmax, so it totals T per token. The trace caches every layer's
    (spikes, current, potential) per timestep for the backward pass. The
    forward runs in the network's dtype: the embeddings are cast to it.
    """
    check_network(net)
    emb = np.asarray(batch_embeddings, dtype=net[0].kernels.dtype)
    if emb.ndim != 3:
        raise DimensionError(f"embeddings must be (B, R, E), got {emb.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=emb.dtype)
        emb = emb * mask[:, :, None]

    trace = StateTrace(embeddings=emb, mask=mask, soft=soft)
    for layer in net[:-1]:
        if layer.kind == ENCODING:
            states = encode_step(emb, layer, cfg, soft=soft)
        else:
            states = spiking_conv_step(states.spk, layer, cfg, mask=mask, soft=soft,
                                       checked=checked)
        trace.spk.append(states.spk)
        trace.isc.append(states.isc)
        trace.v.append(states.v)
    x = states.spk if mask is None else states.spk * mask[:, :, None]
    trace.probs_t = softmax3(output_logits(x, net[-1]))
    trace.prob_class = trace.probs_t.sum(axis=0)
    return trace.prob_class, trace
