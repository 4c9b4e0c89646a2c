import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ScalarLIF
from spiketag.layers import LayerParams, NetworkConfig
from spiketag.neuron import (
    NeuronState,
    atan_sigmoid,
    lif_step,
    soft_spike,
    spike_grad,
    surrogate_grad,
    ternary_threshold,
)


def scalar_params(w_scd=0.1, w_vd=0.1, n=1, dtype=np.float64):
    return LayerParams(
        kernels=None, bias=None,
        w_scd=np.full(n, w_scd, dtype=dtype),
        w_vd=np.full(n, w_vd, dtype=dtype),
    )


def config(mode, v_thr=0.1, centering="zero"):
    return NetworkConfig(spike_mode=mode, v_thr=v_thr, surrogate_centering=centering)


def advance(prev, drive, params, cfg):
    """lif_step into a fresh state, leaving prev as it was."""
    out = NeuronState(*(np.empty_like(prev.v) for _ in range(3)))
    return lif_step(prev, drive, params, cfg, out=out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_binary_lif_step_fires_exactly_at_the_threshold(dtype):
    # zero state, so v is the drive: v == v_thr fires, one ulp below does not
    v_thr = dtype(0.7)  # the config's 0.7 rounded to the state's dtype, as the step compares
    drive = np.asarray([[v_thr, np.nextafter(v_thr, dtype(0)), dtype(0.8), dtype(-0.7)]])
    out = NeuronState(*(np.empty_like(drive) for _ in range(3)))
    spk, _ = lif_step(NeuronState.zeros(drive.shape, dtype), drive,
                      scalar_params(n=4, dtype=dtype), config("binary", v_thr=0.7), out=out)
    assert spk is out.spk and spk.dtype == dtype
    assert spk.tolist() == [[1.0, 0.0, 1.0, 0.0]]


def test_ternary_threshold_cases():
    out = np.empty(5)
    assert ternary_threshold(np.asarray([0.15, -0.15, 0.05, 0.1, -0.1]), 0.1, out) is out
    assert out.tolist() == [1.0, -1.0, 0.0, 1.0, -1.0]


def test_quiescence_with_zero_drive():
    params = scalar_params(n=4)
    state = NeuronState.zeros((1, 2, 4), dtype=np.float64)
    for mode in ("binary", "ternary"):
        s = state
        for _ in range(10):
            spk, s = advance(s, np.zeros((1, 2, 4)), params, config(mode))
            assert not spk.any()
            assert not s.isc.any()
            assert not s.v.any()


def test_three_step_hand_trace():
    params = scalar_params()
    state = NeuronState.zeros((1,), dtype=np.float64)
    spk, state = advance(state, np.asarray([1.0]), params, config("binary"))
    assert spk[0] == 1.0 and state.isc[0] == 1.0 and state.v[0] == 1.0
    spk, state = advance(state, np.asarray([0.0]), params, config("binary"))
    # decayed current alone re-crosses the threshold; the reset removed v
    assert state.isc[0] == pytest.approx(0.1)
    assert state.v[0] == pytest.approx(0.1)
    assert spk[0] == 1.0
    spk, state = advance(state, np.asarray([0.0]), params, config("binary"))
    assert state.v[0] == pytest.approx(0.01)
    assert spk[0] == 0.0


def test_ternary_negative_drive_mirrors_positive():
    params = scalar_params()
    state = NeuronState.zeros((1,), dtype=np.float64)
    spk, state = advance(state, np.asarray([-1.0]), params, config("ternary"))
    assert spk[0] == -1.0
    spk, state = advance(state, np.asarray([0.0]), params, config("ternary"))
    assert spk[0] == -1.0  # isc decays to -0.1, still at the negative threshold
    spk, state = advance(state, np.asarray([0.0]), params, config("ternary"))
    assert spk[0] == 0.0


def test_trajectories_match_scalar_oracle():
    rng = np.random.default_rng(123)
    for mode in ("binary", "ternary"):
        for trial in range(100):
            t_steps = int(rng.integers(1, 17))
            w_scd = float(rng.uniform(-0.5, 1.0))
            w_vd = float(rng.uniform(-0.5, 1.0))
            v_thr = float(rng.uniform(0.05, 0.5))
            drives = rng.normal(scale=0.5, size=t_steps)
            oracle = ScalarLIF(w_scd, w_vd, v_thr, mode)
            params = scalar_params(w_scd, w_vd)
            state = NeuronState.zeros((1,), dtype=np.float64)
            for t in range(t_steps):
                o_spk, o_isc, o_v = oracle.step(float(drives[t]))
                spk, state = advance(state, drives[t : t + 1], params, config(mode, v_thr))
                assert spk[0] == o_spk
                assert state.isc[0] == o_isc
                assert state.v[0] == o_v


def test_reset_removes_decayed_voltage():
    rng = np.random.default_rng(5)
    params = scalar_params(w_scd=0.4, w_vd=0.8, n=8)
    state = NeuronState.zeros((8,), dtype=np.float64)
    for step in range(6):
        drive = rng.normal(scale=0.4, size=8)
        spiked = state.spk != 0
        _, nxt = advance(state, drive, params, config("ternary"))
        tampered = NeuronState(
            spk=state.spk, isc=state.isc, v=np.where(spiked, 99.0, state.v)
        )
        _, nxt_tampered = advance(tampered, drive, params, config("ternary"))
        assert np.array_equal(nxt.v[spiked], nxt_tampered.v[spiked])
        state = nxt


def test_ternary_sign_symmetry():
    rng = np.random.default_rng(17)
    params = scalar_params(w_scd=0.3, w_vd=0.2, n=6)
    pos_state = NeuronState.zeros((6,), dtype=np.float64)
    neg_state = NeuronState.zeros((6,), dtype=np.float64)
    for _ in range(12):
        drive = rng.normal(scale=0.3, size=6)
        pos_spk, pos_state = advance(pos_state, drive, params, config("ternary", 0.15))
        neg_spk, neg_state = advance(neg_state, -drive, params, config("ternary", 0.15))
        assert np.array_equal(neg_spk, -pos_spk)


def test_surrogate_values():
    assert surrogate_grad(0.0, 2.0) == pytest.approx(1.0)
    assert surrogate_grad(1.0, 2.0) == pytest.approx(1.0 / (1.0 + math.pi**2))
    for x in (0.1, 1.0, 10.0):
        assert surrogate_grad(x, 2.0) == pytest.approx(surrogate_grad(-x, 2.0))


def test_surrogate_integrates_to_sigmoid_mass():
    # it is the derivative of the arctangent sigmoid, which spans (0, 1);
    # the exact mass on [-50, 50] is 1 minus the ~4.1e-3 arctan tails
    v = np.linspace(-50, 50, 400001)
    g = surrogate_grad(v, 2.0)
    total = float(((g[1:] + g[:-1]) * np.diff(v)).sum() / 2.0)  # trapezoid rule
    exact = atan_sigmoid(50.0, 2.0) - atan_sigmoid(-50.0, 2.0)
    assert abs(total - exact) < 1e-6
    assert abs(total - 1.0) < 5e-3


def test_surrogate_ternary_centerings():
    assert spike_grad(0.0, config("ternary")) == pytest.approx(1.0)
    threshold = config("ternary", centering="threshold")
    expected = 2.0 * surrogate_grad(0.1, 2.0)
    assert spike_grad(0.0, threshold) == pytest.approx(expected)
    # closed form: 2 / (1 + (pi/10)^2)
    assert expected == pytest.approx(2.0 / (1.0 + (math.pi / 10.0) ** 2), abs=1e-12)
    assert expected == pytest.approx(1.82034, abs=1e-4)
    for v in (0.03, 0.4, 2.0):
        assert spike_grad(v, threshold) == pytest.approx(spike_grad(-v, threshold))


@pytest.mark.parametrize("mode", ["binary", "ternary"])
@pytest.mark.parametrize("centering", ["zero", "threshold"])
def test_spike_grad_keeps_float32(mode, centering):
    # the adjoint scan hands spike_grad the float32 potentials of trace.v
    v = np.random.default_rng(5).normal(scale=0.5, size=(2, 3, 4)).astype(np.float32)
    assert spike_grad(v, config(mode, centering=centering)).dtype == np.float32


def test_spike_grad_threshold_ternary_sums_both_threshold_bumps():
    v = np.random.default_rng(6).normal(scale=0.5, size=(3, 5)).astype(np.float32)
    assert np.array_equal(spike_grad(v, config("ternary", centering="threshold")),
                          surrogate_grad(v - 0.1, 2.0) + surrogate_grad(v + 0.1, 2.0))


def test_soft_spike_derivative_matches_surrogate():
    h = 1e-6
    rng = np.random.default_rng(2)
    for mode in ("binary", "ternary"):
        for centering in ("zero", "threshold"):
            cfg = config(mode, centering=centering)
            for v in rng.normal(scale=0.8, size=20):
                fd = (soft_spike(v + h, cfg) - soft_spike(v - h, cfg)) / (2 * h)
                assert fd == pytest.approx(float(spike_grad(v, cfg)), rel=1e-6, abs=1e-9)


def test_atan_sigmoid_spans_unit_interval():
    assert atan_sigmoid(0.0, 2.0) == pytest.approx(0.5)
    assert atan_sigmoid(1e9, 2.0) == pytest.approx(1.0, abs=1e-6)
    assert atan_sigmoid(-1e9, 2.0) == pytest.approx(0.0, abs=1e-6)


@st.composite
def lif_runs(draw):
    """A random layer shape, per-channel decays, threshold and drive sequence."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    channels = shape[-1]
    decay = st.floats(-1.0, 1.0, allow_nan=False)
    w_scd = draw(st.lists(decay, min_size=channels, max_size=channels))
    w_vd = draw(st.lists(decay, min_size=channels, max_size=channels))
    v_thr = draw(st.floats(0.01, 1.0))
    steps = draw(st.integers(1, 6))
    size = steps * int(np.prod(shape))
    drives = draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))
    mode = draw(st.sampled_from(["binary", "ternary"]))
    return shape, w_scd, w_vd, v_thr, np.reshape(drives, (steps,) + shape), mode


@settings(max_examples=80, deadline=None, derandomize=True)
@given(lif_runs())
def test_lif_step_matches_scalar_oracle(run):
    shape, w_scd, w_vd, v_thr, drives, mode = run
    params = LayerParams(kernels=None, bias=None, w_scd=np.asarray(w_scd),
                         w_vd=np.asarray(w_vd))
    cells = list(np.ndindex(shape))
    neurons = [ScalarLIF(w_scd[c[-1]], w_vd[c[-1]], v_thr, mode) for c in cells]
    state = NeuronState.zeros(shape, dtype=np.float64)
    cfg = config(mode, v_thr)
    for drive in drives:
        spk, state = lif_step(state, drive, params, cfg, out=state)
        expected = np.empty((3,) + shape)
        for cell, neuron in zip(cells, neurons):
            expected[(slice(None),) + cell] = neuron.step(float(drive[cell]))
        assert np.array_equal(spk, expected[0])
        assert np.array_equal(state.isc, expected[1])
        assert np.array_equal(state.v, expected[2])
