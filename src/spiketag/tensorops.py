"""Dense numeric kernels the layers are built from.

Arrays are plain numpy ndarrays, row-major, rank <= 3. Training and
inference run in float32; gradient checking runs the same code in float64.
No sparse storage: spikes are kept dense and sparsity is accounted for
analytically by the energy module.

The convolutions take (Cout, Cin, K) kernels and, on every call, pack them
tap-major and contiguous, so each of the K per-tap products is one BLAS
GEMM over all B*R rows (a strided kernels[:, :, m] view cannot be handed
to BLAS). Nothing is cached: the optimizer updates kernels in place. No
padded copy of the input is made; each tap's product is added to the
output rows it reaches.
"""

import numpy as np

from .errors import ConfigError, DimensionError


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
