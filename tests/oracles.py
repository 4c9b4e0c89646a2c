"""Independent reference implementations used only by tests.

These deliberately avoid the package's vectorized code paths: convolution is
a naive triple loop, the LIF simulator below advances one scalar neuron
at a time with plain Python floats, and the embedding-table parser reads
one line at a time with Python's float().
"""

import math
from types import SimpleNamespace

import numpy as np

from spiketag.data import utf8_lines
from spiketag.errors import ParseError


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
                continue  # header "count dim"
            except ValueError:
                pass
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
