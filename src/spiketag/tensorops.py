"""Dense numeric kernels the layers are built from.

Arrays are plain numpy ndarrays, row-major, rank <= 3. Training and
inference run in float32; gradient checking runs the same code in float64.
No sparse storage: spikes are kept dense and sparsity is accounted for
analytically by the energy module.

The convolutions are same-length only: odd K, stride 1, and the padding
(K-1)//2 they derive from K, so every sequence keeps its length R; an even
K is a ConfigError. They take (Cout, Cin, K) kernels and, on every
call, pack them tap-major and contiguous, so each of the K per-tap products
is one BLAS GEMM over all B*R rows (a strided kernels[:, :, m] view cannot
be handed to BLAS). Nothing is cached: the optimizer updates kernels in
place. The forward and input-grad convs make no padded copy of their
input: tap m shifts rows by |m - padding| within each sequence, so its
(B*R, C) product is added to the flattened output as one contiguous row
block, after the rows that would cross into a neighbouring sequence are
zeroed; only one tap's product is alive at a time. The kernel gradient
multiplies by slices of one zero-padded copy of the input.
"""

import numpy as np

from .errors import ConfigError, DimensionError


def _same_padding(k):
    """The padding (K-1)//2 that keeps a sequence's length; K must be odd."""
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"convolutions are same-length only: kernel size {k} must be odd")
    return (k - 1) // 2


def _shifted_tap_sum(rows, taps, r, shifts):
    """sum_m of rows @ taps[m], shifted by shifts[m] rows within each sequence.

    rows is (B*R, C) and each sequence is R rows long; output row j of a
    sequence gets row j + shifts[m] of that sequence's tap-m product, if
    there is one. Each product is added to the output as one contiguous row
    block, after the |shift| rows per sequence that would cross into a
    neighbouring sequence are zeroed, and is freed before the next GEMM.
    """
    n = rows.shape[0]
    out = np.zeros((n, taps.shape[2]), dtype=rows.dtype)
    for tap, d in zip(taps, shifts):
        if abs(d) >= r:
            continue  # the tap reaches no row
        y = rows @ tap
        per_seq = y.reshape(-1, r, y.shape[1])
        if d >= 0:
            per_seq[:, :d] = 0.0
            out[: n - d] += y[d:]
        else:
            per_seq[:, r + d :] = 0.0
            out[-d:] += y[: n + d]
        del y, per_seq
    return out


def conv1d_same(x, kernels, bias):
    """Same-length sequence convolution with zero padding (K-1)//2, stride 1.

    x:       (B, R, Cin)
    kernels: (Cout, Cin, K), K odd
    bias:    (Cout,)
    returns  (B, R, Cout);
    out[i,j,k] = sum_{l,m} x[i, j+m-padding, l] * kernels[k,l,m] + bias[k],
    out-of-range taps read as zero.
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
    padding = _same_padding(k)
    taps = np.ascontiguousarray(kernels.transpose(2, 1, 0))  # (K, Cin, Cout)
    # output row j reads input row j + m - padding through tap m
    out = _shifted_tap_sum(x.reshape(b * r, cin), taps, r,
                           [m - padding for m in range(k)])
    out += bias
    return out.reshape(b, r, cout)


def conv1d_same_input_grad(d_out, kernels, r):
    """Adjoint of conv1d_same with respect to its input.

    d_out: (B, R, Cout) upstream gradient; returns (B, R, Cin).
    """
    b, r_out, cout = d_out.shape
    _, cin, k = kernels.shape
    padding = _same_padding(k)
    if r_out != r:
        raise DimensionError(f"upstream length {r_out} != input length {r}")
    taps = np.ascontiguousarray(kernels.transpose(2, 0, 1))  # (K, Cout, Cin)
    # input row j collects output row j + padding - m through tap m
    d_x = _shifted_tap_sum(d_out.reshape(b * r, cout), taps, r,
                           [padding - m for m in range(k)])
    return d_x.reshape(b, r, cin)


def conv1d_same_kernel_grad(x, d_out, k):
    """Adjoint of conv1d_same with respect to the kernels.

    x: (B, R, Cin) forward input; d_out: (B, R, Cout); returns (Cout, Cin, K).
    """
    b, r, cin = x.shape
    _, r_out, cout = d_out.shape
    padding = _same_padding(k)
    if r_out != r:
        raise DimensionError(f"upstream length {r_out} != input length {r}")
    d_rows_t = d_out.reshape(b * r, cout).T
    padded = np.zeros((b, r + 2 * padding, cin), dtype=x.dtype)
    padded[:, padding : padding + r] = x
    reads = np.empty((b, r, cin), dtype=x.dtype)  # what tap m reads, per output row
    d_k = np.zeros((cout, cin, k), dtype=d_out.dtype)
    for m in range(k):
        if abs(m - padding) >= r:
            continue
        reads[...] = padded[:, m : m + r]
        # (Cout, B*R) @ (B*R, Cin)
        d_k[:, :, m] = d_rows_t @ reads.reshape(b * r, cin)
    return d_k
