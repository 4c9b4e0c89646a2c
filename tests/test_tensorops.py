import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conv1d_naive, matvec_naive, softmax_closed_form
from spiketag.errors import ConfigError, DimensionError
from spiketag.layers import LayerParams, output_logits, softmax3
from spiketag.tensorops import (
    conv1d_same,
    conv1d_same_input_grad,
    conv1d_same_kernel_grad,
)


def test_zero_input_yields_bias():
    x = np.zeros((2, 6, 3), dtype=np.float32)
    kernels = np.random.default_rng(0).normal(size=(4, 3, 5)).astype(np.float32)
    bias = np.asarray([0.5, -1.0, 2.0, 0.0], dtype=np.float32)
    out = conv1d_same(x, kernels, bias)
    assert out.shape == (2, 6, 4)
    assert np.allclose(out, bias)


def test_width_one_kernel_scales():
    x = np.asarray([[[1.0], [2.0], [3.0]]])
    out = conv1d_same(x, np.asarray([[[2.0]]]), np.asarray([0.0]))
    assert np.allclose(out[0, :, 0], [2.0, 4.0, 6.0])


def test_boxcar_matches_sliding_window():
    x = np.asarray([[[1.0], [0.0], [0.0], [1.0]]])
    kernels = np.asarray([[[1.0, 1.0, 1.0]]])
    out = conv1d_same(x, kernels, np.asarray([0.0]))
    expected = conv1d_naive(x, kernels, np.asarray([0.0]), padding=1)
    assert np.allclose(out[0, :, 0], [1.0, 1.0, 1.0, 1.0])
    assert np.allclose(out, expected)


def test_conv_matches_naive_oracle_on_random_shapes():
    rng = np.random.default_rng(7)
    for _ in range(25):
        b, r, cin, cout = rng.integers(1, 5, size=4)
        k = 2 * int(rng.integers(0, 4)) + 1
        x = rng.normal(size=(b, r, cin))
        kernels = rng.normal(size=(cout, cin, k))
        bias = rng.normal(size=cout)
        fast = conv1d_same(x, kernels, bias)
        slow = conv1d_naive(x, kernels, bias, padding=(k - 1) // 2)
        assert np.allclose(fast, slow, atol=1e-12)


def test_length_preserved_for_default_geometry():
    rng = np.random.default_rng(1)
    for r in (1, 2, 7, 83):
        x = rng.normal(size=(1, r, 2))
        out = conv1d_same(x, rng.normal(size=(3, 2, 5)), np.zeros(3))
        assert out.shape == (1, r, 3)


def test_conv_linearity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 6, 3))
    y = rng.normal(size=(2, 6, 3))
    kernels = rng.normal(size=(4, 3, 5))
    zero = np.zeros(4)
    lhs = conv1d_same(2.5 * x - 1.5 * y, kernels, zero)
    rhs = 2.5 * conv1d_same(x, kernels, zero) - 1.5 * conv1d_same(y, kernels, zero)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_conv_shape_errors():
    x = np.zeros((1, 4, 2))
    with pytest.raises(DimensionError):
        conv1d_same(x, np.zeros((3, 5, 3)), np.zeros(3))
    with pytest.raises(ConfigError):
        conv1d_same(x, np.zeros((3, 2, 4)), np.zeros(3))
    with pytest.raises(DimensionError):
        conv1d_same(x, np.zeros((3, 2, 3)), np.zeros(4))


@pytest.mark.parametrize("k", [0, 2, 4, 6])
def test_convs_are_same_length_only(k):
    # odd K, with the padding (K-1)//2 the convs derive, is the only geometry
    b, r, cin, cout = 2, 6, 3, 4
    x, d_out = np.zeros((b, r, cin)), np.zeros((b, r, cout))
    kernels = np.zeros((cout, cin, k))
    with pytest.raises(ConfigError):
        conv1d_same(x, kernels, np.zeros(cout))
    with pytest.raises(ConfigError):
        conv1d_same_input_grad(d_out, kernels, r)
    with pytest.raises(ConfigError):
        conv1d_same_kernel_grad(x, d_out, k)


def test_conv_adjoints_match_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 5, 3))
    kernels = rng.normal(size=(4, 3, 3))
    bias = np.zeros(4)
    d_out = rng.normal(size=(2, 5, 4))
    d_x = conv1d_same_input_grad(d_out, kernels, r=5)
    d_k = conv1d_same_kernel_grad(x, d_out, k=3)
    h = 1e-6

    def loss():
        return float((conv1d_same(x, kernels, bias) * d_out).sum())

    for arr, grad in ((x, d_x), (kernels, d_k)):
        flat = arr.reshape(-1)
        g = grad.reshape(-1)
        for idx in range(0, flat.size, 7):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss()
            flat[idx] = keep - h
            down = loss()
            flat[idx] = keep
            assert abs((up - down) / (2 * h) - g[idx]) < 1e-6


@st.composite
def conv_cases(draw):
    """Random same-length conv geometry; b reaches the T*B rows the layers
    flatten, and r below K leaves taps that reach no row."""
    k = 2 * draw(st.integers(0, 3)) + 1
    r = draw(st.integers(1, 12))
    b = draw(st.integers(1, 64))
    cin = draw(st.integers(1, 6))
    cout = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(b, r, cin))
    kernels = rng.normal(size=(cout, cin, k))
    y = rng.normal(size=(b, r, cout))
    return x, kernels, y


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(conv_cases())
def test_conv_input_grad_is_the_adjoint(case):
    # <conv(x), y> = <x, conv^T(y)> for the input adjoint
    x, kernels, y = case
    zero = np.zeros(kernels.shape[0])
    lhs = float((conv1d_same(x, kernels, zero) * y).sum())
    d_x = conv1d_same_input_grad(y, kernels, x.shape[1])
    assert d_x.shape == x.shape
    assert lhs == pytest.approx(float((x * d_x).sum()), rel=1e-9, abs=1e-9)


@PROPERTY_SETTINGS
@given(conv_cases())
def test_conv_kernel_grad_is_the_adjoint(case):
    # <conv(x; W), y> = <W, conv_W^T(x, y)> for the kernel adjoint
    x, kernels, y = case
    zero = np.zeros(kernels.shape[0])
    lhs = float((conv1d_same(x, kernels, zero) * y).sum())
    d_k = conv1d_same_kernel_grad(x, y, kernels.shape[2])
    assert d_k.shape == kernels.shape
    assert lhs == pytest.approx(float((kernels * d_k).sum()), rel=1e-9, abs=1e-9)


def decoder(weight, bias):
    return LayerParams(kernels=np.asarray(weight, dtype=float),
                       bias=np.asarray(bias, dtype=float))


def test_affine_identity_and_hand_case():
    # the affine decoder is layers.output_logits
    out = output_logits(np.asarray([3.0, -1.0]), decoder(np.eye(2), np.zeros(2)))
    assert np.allclose(out, [3, -1])
    out = output_logits(np.asarray([2.0, 3.0]),
                        decoder([[1.0, 1.0], [0.0, 2.0]], [1.0, -1.0]))
    assert np.allclose(out, [6.0, 5.0])
    assert np.allclose(out, matvec_naive([[1, 1], [0, 2]], [2, 3], [1, -1]))


def test_affine_zero_input_gives_bias():
    bias = np.asarray([0.3, -0.7, 0.1])
    out = output_logits(np.zeros(4), decoder(np.ones((3, 4)), bias))
    assert np.allclose(out, bias)


def test_affine_shape_error():
    with pytest.raises(DimensionError):
        output_logits(np.zeros(3), decoder(np.zeros((2, 4)), np.zeros(2)))


def test_softmax_symmetry_and_shift_invariance():
    # the softmax is layers.softmax3, applied along the last axis
    assert np.allclose(softmax3(np.zeros(3)), [1 / 3] * 3)
    out = softmax3(np.asarray([1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert np.allclose(out, [0.5, 0.5])


def test_softmax_closed_form():
    out = softmax3(np.asarray([0.0, math.log(3.0)]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)
    assert np.allclose(out, softmax_closed_form([0.0, math.log(3.0)]))


def test_softmax_sums_to_one_on_random_inputs():
    rng = np.random.default_rng(9)
    for _ in range(50):
        logits = rng.normal(scale=rng.uniform(0.1, 50), size=rng.integers(2, 9))
        assert abs(softmax3(logits).sum() - 1.0) < 1e-12
