"""The convolutions, the LIF step and the optimizer step against the per-tap
reference kernels in oracles.py: equal bit for bit, dtype included."""

import copy

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spiketag import neuron, persistence, tensorops
from spiketag.layers import LayerParams, NetworkConfig, init_network
from spiketag.neuron import BINARY, CENTERINGS, TERNARY, NeuronState
from spiketag.training import OptimizerState, TrainConfig, named_parameters, optimizer_step

DTYPES = (np.float32, np.float64)


def assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


@st.composite
def conv_geometry(draw):
    """b reaches the T*B rows the layers flatten; r down to 1 leaves taps
    that reach no row."""
    k = 2 * draw(st.integers(0, 3)) + 1
    b = draw(st.integers(1, 64))
    r = draw(st.integers(1, 12))
    cin = draw(st.integers(1, 6))
    cout = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from(DTYPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(b, r, cin)).astype(dtype)
    kernels = rng.normal(size=(cout, cin, k)).astype(dtype)
    bias = rng.normal(size=cout).astype(dtype)
    d_out = rng.normal(size=(b, r, cout)).astype(dtype)
    return x, kernels, bias, d_out


def assert_convs_match(x, kernels, bias, d_out):
    k = kernels.shape[2]
    padding = (k - 1) // 2
    r = x.shape[1]
    assert_same(tensorops.conv1d_same(x, kernels, bias),
                oracles.conv1d_same(x, kernels, bias, padding=padding))
    assert_same(tensorops.conv1d_same_input_grad(d_out, kernels, r),
                oracles.conv1d_same_input_grad(d_out, kernels, r, padding=padding))
    assert_same(tensorops.conv1d_same_kernel_grad(x, d_out, k),
                oracles.conv1d_same_kernel_grad(x, d_out, k, padding=padding))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(conv_geometry())
def test_convs_match_the_per_tap_reference(case):
    assert_convs_match(*case)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("b, r, cin, cout", [(48, 15, 32, 32), (48, 20, 16, 128),
                                             (8, 23, 128, 128), (1, 15, 32, 32)])
def test_convs_match_the_per_tap_reference_at_network_shapes(dtype, b, r, cin, cout):
    rng = np.random.default_rng([b, r, cin, cout])
    x = rng.normal(size=(b, r, cin)).astype(dtype)
    kernels = rng.normal(size=(cout, cin, 5)).astype(dtype)
    bias = rng.normal(size=cout).astype(dtype)
    d_out = rng.normal(size=(b, r, cout)).astype(dtype)
    assert_convs_match(x, kernels, bias, d_out)


def test_ternary_threshold_matches_the_reference():
    v_thr = 0.1
    on = float(np.float32(v_thr))
    values = [0.0, -0.0, on, -on, np.nextafter(on, 0.0), 0.5, -0.5, np.inf, -np.inf, np.nan]
    for dtype in DTYPES:
        v = np.asarray(values, dtype=dtype)
        assert_same(neuron.ternary_threshold(v, v_thr, np.empty_like(v)),
                    oracles.ternary_threshold(v, v_thr))
    ints = np.asarray([-2, 0, 1])
    assert_same(neuron.ternary_threshold(ints, 1, np.empty(3)), oracles.ternary_threshold(ints, 1))
    assert (neuron.ternary_threshold(0.1, 0.1, np.empty(()))
            == oracles.ternary_threshold(0.1, 0.1))


# (params, state, drive) dtypes: the network's arrays share one dtype
DTYPE_MIXES = [
    (np.float32, np.float32, np.float32),
    (np.float64, np.float64, np.float64),
]


@pytest.mark.parametrize("param_dt, state_dt, drive_dt", DTYPE_MIXES)
@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("mode", [BINARY, TERNARY])
@pytest.mark.parametrize("centering", CENTERINGS)
def test_lif_step_matches_the_reference(mode, soft, centering, param_dt, state_dt,
                                        drive_dt):
    rng = np.random.default_rng(3)
    shape, v_thr = (3, 5, 4), 0.1
    params = LayerParams(
        kernels=None, bias=None,
        w_scd=rng.uniform(-0.5, 1.0, size=4).astype(param_dt),
        w_vd=rng.uniform(-0.5, 1.0, size=4).astype(param_dt),
    )
    drives = rng.normal(scale=0.3, size=(8,) + shape).astype(drive_dt)
    # some first-step potentials sit exactly on a threshold
    drives[0, 0, 0] = np.asarray([v_thr, -v_thr, 0.0, v_thr], dtype=state_dt)
    cfg = NetworkConfig(spike_mode=mode, alpha=2.0, v_thr=v_thr, surrogate_centering=centering)
    got, want = NeuronState.zeros(shape, dtype=state_dt), NeuronState.zeros(shape, dtype=state_dt)
    for drive in drives:
        got_spk, got = neuron.lif_step(got, drive, params, cfg, soft, out=got)
        want_spk, want = oracles.lif_step(want, drive, params, mode=mode, soft=soft,
                                          alpha=2.0, v_thr=v_thr, centering=centering)
        assert_same(got_spk, want_spk)
        for name in ("spk", "isc", "v"):
            assert_same(getattr(got, name), getattr(want, name))
    assert np.any(want.spk != 0)


@pytest.mark.parametrize("mode", [BINARY, TERNARY])
def test_lif_step_matches_the_reference_on_a_scalar_state(mode):
    params = LayerParams(kernels=None, bias=None, w_scd=np.asarray(0.5), w_vd=np.asarray(0.8))
    cfg = NetworkConfig(spike_mode=mode)
    got, want = NeuronState.zeros((), dtype=np.float64), NeuronState.zeros((), dtype=np.float64)
    for drive in (0.3, 0.0, -0.25, -0.1, 0.0):
        got_spk, got = neuron.lif_step(got, drive, params, cfg, out=got)
        want_spk, want = oracles.lif_step(want, drive, params, mode)
        assert got_spk == want_spk
        assert (got.isc, got.v) == (want.isc, want.v)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_optimizer_step_matches_the_reference(optimizer, dtype):
    cfg = NetworkConfig(time_steps=2, channels=6, kernel=3, n_spiking_conv=2,
                        embedding_dim=4)
    rng = np.random.default_rng(8)
    got_net = init_network(cfg, rng, dtype=dtype)
    want_net = copy.deepcopy(got_net)
    got_opt = OptimizerState.for_network(got_net)
    want_opt = copy.deepcopy(got_opt)
    train_cfg = TrainConfig(optimizer=optimizer, learning_rate=1e-2)
    for _ in range(5):
        grads = {name: rng.normal(size=p.shape).astype(dtype)
                 for name, p in named_parameters(got_net).items()}
        optimizer_step(got_net, grads, got_opt, train_cfg)
        oracles.optimizer_step(want_net, copy.deepcopy(grads), want_opt, train_cfg)
    assert got_opt.step == want_opt.step
    want_params = named_parameters(want_net)
    for name, p in named_parameters(got_net).items():
        assert_same(p, want_params[name])
        if optimizer == "adam":
            assert_same(got_opt.m[name], want_opt.m[name])
            assert_same(got_opt.v[name], want_opt.v[name])


# the benchmark's training shapes: sweep-narrow's two C=32 nets and train-toy's
BENCH_SHAPES = {
    "C32-binary-T4": dict(channels=32, spike_mode=BINARY, time_steps=4),
    "C32-ternary-T6": dict(channels=32, spike_mode=TERNARY, time_steps=6),
    "C128-ternary-T6": dict(channels=128, spike_mode=TERNARY, time_steps=6),
}


def random_grads(net, rng):
    return {name: rng.normal(size=p.shape).astype(p.dtype)
            for name, p in named_parameters(net).items()}


def assert_steps_match_the_reference(net, opt, optimizer, rng, steps=3):
    """Step net (whose parameters opt holds in one buffer) and a per-array
    copy of it side by side, the copy through the reference optimizer."""
    want_net, want_opt = copy.deepcopy(net), copy.deepcopy(opt)
    train_cfg = TrainConfig(optimizer=optimizer, learning_rate=1e-3)
    for _ in range(steps):
        grads = random_grads(net, rng)
        optimizer_step(net, grads, opt, train_cfg)
        oracles.optimizer_step(want_net, copy.deepcopy(grads), want_opt, train_cfg)
    assert opt.step == want_opt.step
    want_params = named_parameters(want_net)
    for name, p in named_parameters(net).items():
        assert_same(p, want_params[name])
        assert_same(opt.m[name], want_opt.m[name])
        assert_same(opt.v[name], want_opt.v[name])


@pytest.mark.parametrize("shape", list(BENCH_SHAPES))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_flat_optimizer_step_matches_the_reference_at_benchmark_shapes(optimizer, dtype,
                                                                      shape):
    rng = np.random.default_rng(21)
    net = init_network(NetworkConfig(embedding_dim=16, **BENCH_SHAPES[shape]), rng,
                       dtype=dtype)
    assert_steps_match_the_reference(net, OptimizerState.for_network(net), optimizer, rng)


@pytest.mark.parametrize("shape", list(BENCH_SHAPES))
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_flat_optimizer_step_matches_the_reference_on_a_restored_network(
        tmp_path, optimizer, shape):
    # a checkpoint restores float32 parameters and moments from mid-run state
    rng = np.random.default_rng(22)
    net_cfg = NetworkConfig(embedding_dim=16, **BENCH_SHAPES[shape])
    net = init_network(net_cfg, rng, dtype=np.float32)
    opt = OptimizerState.for_network(net)
    for _ in range(2):
        optimizer_step(net, random_grads(net, rng), opt, TrainConfig(learning_rate=1e-3))
    path = str(tmp_path / "mid.ckpt")
    persistence.save(persistence.checkpoint_from_training(net, net_cfg, TrainConfig(), opt),
                     path)
    restored, restored_opt = persistence.restore_network(persistence.load(path))
    assert restored_opt.step == 2 and restored_opt.v["1.kernels"].any()
    assert_steps_match_the_reference(restored, restored_opt, optimizer, rng)
