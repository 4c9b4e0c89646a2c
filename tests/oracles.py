"""Independent reference implementations used only by tests.

Most of these deliberately avoid the package's vectorized code paths:
convolution is a naive triple loop, the LIF simulator below advances one
scalar neuron at a time with plain Python floats, and the embedding-table
parser reads one line at a time with Python's float().

The per-tap kernels at the end are the package's earlier vectorized
convolutions, LIF step and optimizer step, kept as they were: the current
ones must match them bit for bit.
"""

import math
from types import SimpleNamespace

import numpy as np

from spiketag.data import utf8_lines
from spiketag.errors import ConfigError, DimensionError, NumericError, ParseError
from spiketag.layers import NetworkConfig
from spiketag.neuron import BINARY, CENTER_ZERO, TERNARY, NeuronState, soft_spike


def conv1d_naive(x, kernels, bias, padding, stride=1):
    """Direct sliding-window sum, one output element at a time."""
    b, r, cin = x.shape
    cout, _, k = kernels.shape
    r_out = (r + 2 * padding - k) // stride + 1
    out = np.zeros((b, r_out, cout), dtype=x.dtype)
    for i in range(b):
        for j in range(r_out):
            for c in range(cout):
                acc = 0.0
                for l in range(cin):
                    for m in range(k):
                        src = j * stride + m - padding
                        if 0 <= src < r:
                            acc += x[i, src, l] * kernels[c, l, m]
                out[i, j, c] = acc + bias[c]
    return out


def matvec_naive(weight, x, bias):
    u = len(weight)
    u_prev = len(weight[0])
    out = [0.0] * u
    for i in range(u):
        s = 0.0
        for j in range(u_prev):
            s += weight[i][j] * x[j]
        out[i] = s + bias[i]
    return out


class ScalarLIF:
    """Single-neuron simulator over plain floats."""

    def __init__(self, w_scd, w_vd, v_thr, mode):
        self.w_scd = w_scd
        self.w_vd = w_vd
        self.v_thr = v_thr
        self.mode = mode
        self.spk = 0.0
        self.isc = 0.0
        self.v = 0.0

    def step(self, drive):
        self.isc = self.w_scd * self.isc + drive
        self.v = self.w_vd * self.v * (1.0 - abs(self.spk)) + self.isc
        if self.mode == "binary":
            self.spk = 1.0 if self.v - self.v_thr >= 0.0 else 0.0
        else:
            if self.v >= self.v_thr:
                self.spk = 1.0
            elif self.v <= -self.v_thr:
                self.spk = -1.0
            else:
                self.spk = 0.0
        return self.spk, self.isc, self.v


def softmax_closed_form(values):
    exps = [math.exp(v - max(values)) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def render_bio(spans, length):
    """Canonical BIO sequence for a non-overlapping span set."""
    labels = ["O"] * length
    for start, end in spans:
        labels[start] = "B"
        for i in range(start + 1, end + 1):
            labels[i] = "I"
    return labels


def load_embeddings_line_by_line(path):
    """The line-by-line table parser: one float() per value, a running
    float64 sum for unk. Returns the table's parts, not an EmbeddingTable."""
    vectors = {}
    dim = None
    duplicates = 0
    total = None
    for line_no, line in enumerate(utf8_lines(path), start=1):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        if line_no == 1 and len(parts) == 2:
            try:
                int(parts[0])
                dim = int(parts[1])
            except ValueError:
                pass
            else:  # header "count dim"
                if dim < 1:
                    raise ParseError(f"header dim {dim} is below 1", path=path, line=line_no)
                continue
        token, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise ParseError("no vector values", path=path, line=line_no)
        if len(values) != dim:
            raise ParseError(
                f"expected {dim} values, got {len(values)}", path=path, line=line_no
            )
        if token in vectors:
            duplicates += 1
            continue  # keep the first occurrence
        try:
            vec = np.asarray([float(v) for v in values], dtype=np.float32)
        except ValueError:
            raise ParseError("non-numeric vector value", path=path, line=line_no)
        if not np.all(np.isfinite(vec)):
            raise ParseError("non-finite vector value", path=path, line=line_no)
        vectors[token] = vec
        if total is None:
            total = vec.astype(np.float64)
        else:
            total += vec
    if not vectors:
        raise ParseError("embedding file holds no vectors", path=path, line=0)
    unk = (total / len(vectors)).astype(np.float32)
    return SimpleNamespace(
        dim=dim, vectors=vectors, unk=unk, duplicate_tokens=duplicates
    )


# Per-tap reference kernels: every tap's product is added to the output rows
# it reaches through strided views, the LIF step and Adam allocate a new
# array for every operation.


def _tap_span(m, r, r_out, padding):
    """Where kernel tap m lands inside the input.

    Output rows lo..hi-1 read input rows src..src+hi-lo-1 through tap m;
    the tap's other output rows read padding (zeros). Empty when hi <= lo.
    """
    lo = max(0, padding - m)
    hi = min(r_out, r + padding - m)
    return lo, hi, lo + m - padding


def conv1d_same(x, kernels, bias, padding=2):
    """Sequence convolution with zero padding, stride 1.

    x:       (B, R, Cin)
    kernels: (Cout, Cin, K)
    bias:    (Cout,)
    returns  (B, R', Cout) with R' = R + 2*padding - K + 1;
    out[i,j,k] = sum_{l,m} x[i, j+m-padding, l] * kernels[k,l,m] + bias[k],
    out-of-range taps read as zero. K=5, padding=2 preserves R.
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    bias = np.asarray(bias)
    if x.ndim != 3 or kernels.ndim != 3:
        raise DimensionError(
            f"conv1d_same expects rank-3 input and kernels, got {x.ndim} and {kernels.ndim}"
        )
    b, r, cin = x.shape
    cout, k_cin, k = kernels.shape
    if k_cin != cin:
        raise DimensionError(f"kernel input channels {k_cin} != input channels {cin}")
    if bias.shape != (cout,):
        raise DimensionError(f"bias shape {bias.shape} != ({cout},)")
    if padding < 0:
        raise ConfigError(f"padding must be >= 0, got {padding}")
    if padding >= k:
        raise ConfigError(f"padding {padding} must be < kernel size {k}")
    if k > r + 2 * padding:
        raise DimensionError(f"kernel size {k} exceeds padded length {r + 2 * padding}")

    r_out = r + 2 * padding - k + 1
    taps = np.ascontiguousarray(kernels.transpose(2, 1, 0))  # (K, Cin, Cout)
    x_rows = x.reshape(b * r, cin)
    out = np.zeros((b, r_out, cout), dtype=x.dtype)
    for m in range(k):
        lo, hi, src = _tap_span(m, r, r_out, padding)
        if hi > lo:
            # one (B*R)x(Cin) @ (Cin)x(Cout) GEMM, then the rows this tap reaches
            y = (x_rows @ taps[m]).reshape(b, r, cout)
            out[:, lo:hi] += y[:, src : src + hi - lo]
    out += bias
    return out


def conv1d_same_input_grad(d_out, kernels, r, padding=2):
    """Adjoint of conv1d_same with respect to its input.

    d_out: (B, R', Cout) upstream gradient; returns (B, R, Cin).
    """
    b, r_out, cout = d_out.shape
    _, cin, k = kernels.shape
    taps = np.ascontiguousarray(kernels.transpose(2, 0, 1))  # (K, Cout, Cin)
    d_rows = d_out.reshape(b * r_out, cout)
    d_x = np.zeros((b, r, cin), dtype=d_out.dtype)
    for m in range(k):
        lo, hi, src = _tap_span(m, r, r_out, padding)
        if hi > lo:
            z = (d_rows @ taps[m]).reshape(b, r_out, cin)
            d_x[:, src : src + hi - lo] += z[:, lo:hi]
    return d_x


def conv1d_same_kernel_grad(x, d_out, k, padding=2):
    """Adjoint of conv1d_same with respect to the kernels.

    x: (B, R, Cin) forward input; d_out: (B, R', Cout); returns (Cout, Cin, K).
    """
    b, r, cin = x.shape
    _, r_out, cout = d_out.shape
    d_rows_t = d_out.reshape(b * r_out, cout).T
    shifted = np.zeros((b, r_out, cin), dtype=x.dtype)  # what tap m reads, per output row
    d_k = np.zeros((cout, cin, k), dtype=d_out.dtype)
    for m in range(k):
        lo, hi, src = _tap_span(m, r, r_out, padding)
        if hi <= lo:
            continue
        shifted[:, :lo] = 0.0
        shifted[:, hi:] = 0.0
        shifted[:, lo:hi] = x[:, src : src + hi - lo]
        # (Cout, B*R') @ (B*R', Cin)
        d_k[:, :, m] = d_rows_t @ shifted.reshape(b * r_out, cin)
    return d_k


def heaviside(v):
    """1 where v >= 0, else 0 (H(0) = 1)."""
    v = np.asarray(v)
    return (v >= 0).astype(v.dtype if v.dtype.kind == "f" else np.float64)


def ternary_threshold(v, v_thr):
    """+1 where v >= v_thr, -1 where v <= -v_thr, else 0."""
    v = np.asarray(v)
    dtype = v.dtype if v.dtype.kind == "f" else np.float64
    return (v >= v_thr).astype(dtype) - (v <= -v_thr).astype(dtype)


def lif_step(prev, input_psp, params, mode=BINARY, soft=False, alpha=2.0,
             v_thr=0.1, centering=CENTER_ZERO):
    """One update/fire/reset cycle.

    input_psp is the already-weighted postsynaptic drive. v_thr is the firing
    threshold (+/-v_thr in ternary mode), alpha the soft-spike sharpness. Returns
    (spikes, next_state); next_state stores the pre-reset membrane potential,
    the reset taking effect at the following step via (1 - |spk|).
    """
    input_psp = np.asarray(input_psp)
    if prev.isc.shape != input_psp.shape or prev.v.shape != input_psp.shape:
        raise DimensionError(
            f"state shape {prev.v.shape} does not match drive shape {input_psp.shape}"
        )
    isc = params.w_scd * prev.isc + input_psp
    v = params.w_vd * prev.v * (1.0 - np.abs(prev.spk)) + isc
    if soft:
        cfg = NetworkConfig(spike_mode=mode, alpha=alpha, v_thr=v_thr,
                            surrogate_centering=centering)
        spk = soft_spike(v, cfg)
    elif mode == TERNARY:
        spk = ternary_threshold(v, v_thr)
    else:
        spk = heaviside(v - v_thr)
    return spk, NeuronState(spk=spk, isc=isc, v=v)


def optimizer_step(net, grads, opt_state, cfg):
    """Apply one sgd or adam update in place; aborts on non-finite gradients."""
    from spiketag.training import named_parameters

    params = named_parameters(net)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name}")
    lr = cfg.learning_rate
    if cfg.optimizer == "sgd":
        for name, p in params.items():
            p[...] = p - lr * grads[name]
        return
    opt_state.step += 1
    t = opt_state.step
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        m = opt_state.m[name]
        v = opt_state.v[name]
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        p[...] = p - lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
