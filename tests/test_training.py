import copy
import dataclasses
import math
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from spiketag import layers, training
from spiketag.data import split_validation
from spiketag.errors import ConfigError, NumericError
from spiketag.layers import NetworkConfig, forward, init_network
from spiketag.training import (
    OptimizerState,
    TrainConfig,
    backward,
    cross_entropy,
    evaluate,
    grad_check,
    named_parameters,
    optimizer_step,
    tiny_gradcheck_config,
    train,
)


def test_cross_entropy_perfect_prediction_is_zero():
    prob = np.zeros((1, 3, 3))
    labels = np.asarray([[0, 1, 2]])
    for j, c in enumerate(labels[0]):
        prob[0, j, c] = 1.0
    assert cross_entropy(prob, labels, np.ones((1, 3))) == pytest.approx(0.0)


def test_cross_entropy_half_probability():
    prob = np.full((1, 1, 3), 0.25)
    prob[0, 0, 1] = 0.5
    loss = cross_entropy(prob, np.asarray([[1]]), np.ones((1, 1)))
    assert loss == pytest.approx(-math.log(0.5), abs=1e-12)


def test_cross_entropy_accepts_scores_above_one():
    prob = np.full((1, 1, 3), 2.0)
    loss = cross_entropy(prob, np.asarray([[0]]), np.ones((1, 1)))
    assert loss == pytest.approx(-math.log(2.0), abs=1e-12)
    assert loss < 0


def test_cross_entropy_masks_tokens():
    prob = np.full((1, 2, 3), 1e-30)  # would explode if the masked token counted
    prob[0, 0, :] = 1.0
    labels = np.asarray([[0, 2]])
    mask = np.asarray([[1.0, 0.0]])
    assert cross_entropy(prob, labels, mask) == pytest.approx(0.0)


def test_cross_entropy_float32_floor_vs_float64_error():
    prob32 = np.zeros((1, 1, 3), dtype=np.float32)
    loss = cross_entropy(prob32, np.asarray([[1]]), np.ones((1, 1)))
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-5)
    with pytest.raises(NumericError):
        cross_entropy(np.zeros((1, 1, 3)), np.asarray([[1]]), np.ones((1, 1)))


def test_float32_floored_loss_adjoint_is_the_slope_of_the_loss():
    # the adjoint must see the same floor as the loss: the labeled score 5e-13
    # sits below 1e-12, so the loss is flat there and its gradient is 0
    from spiketag.training import _prob_adjoint

    rng = np.random.default_rng(4)
    prob = rng.uniform(0.3, 3.0, size=(2, 3, 3)).astype(np.float32)
    labels = np.asarray([[0, 2, 1], [1, 1, 0]])
    mask = np.asarray([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    prob[0, 1, 2] = 5e-13

    adjoint = _prob_adjoint(prob, labels, mask)
    assert adjoint[0, 1, 2] == 0.0
    for idx in np.ndindex(prob.shape):
        h = prob[idx] * 0.01
        up, down = prob.copy(), prob.copy()
        up[idx] += h
        down[idx] -= h
        slope = (cross_entropy(up, labels, mask)
                 - cross_entropy(down, labels, mask)) / float(up[idx] - down[idx])
        assert adjoint[idx] == pytest.approx(slope, rel=1e-2, abs=1e-6), idx


def tiny_setup(mode="ternary", centering="zero", seed=0, r=3, batch=1):
    cfg = tiny_gradcheck_config(mode, centering)
    rng = np.random.default_rng(seed)
    net = init_network(cfg, rng, dtype=np.float64)
    emb = rng.normal(scale=0.8, size=(batch, r, cfg.embedding_dim))
    labels = rng.integers(0, 3, size=(batch, r))
    mask = np.ones((batch, r))
    return cfg, net, emb, labels, mask


def test_output_bias_gradient_matches_softmax_minus_onehot():
    cfg, net, emb, labels, mask = tiny_setup()
    prob, trace = forward(emb, net, cfg, mask=mask)
    grads = backward(trace, labels, mask, net, cfg)
    # analytic: sum over timesteps and tokens of weight * (p_t - onehot) * p_true_t / p_true_total
    expected = np.zeros(3)
    n, r = labels.shape
    for t in range(cfg.time_steps):
        p = trace.probs_t[t]
        for i in range(n):
            for j in range(r):
                w = 1.0 / (n * r)
                y = labels[i, j]
                p_total = prob[i, j, y]
                onehot = np.zeros(3)
                onehot[y] = 1.0
                expected += w * (p[i, j, y] / p_total) * (p[i, j] - onehot)
    assert np.allclose(grads[f"{len(net)-1}.bias"], expected, atol=1e-12)


def test_single_neuron_two_step_hand_adjoint():
    # scalar network: encoder(1 ch) -> output, T=2; every quantity hand-derived
    cfg = NetworkConfig(time_steps=2, spike_mode="binary", channels=1, kernel=1,
                        n_spiking_conv=1, embedding_dim=1)
    net = init_network(cfg, np.random.default_rng(0), dtype=np.float64)
    w_enc, b_enc = 0.8, 0.05
    w_hid, w_fv = 0.6, 0.9
    w_out = np.asarray([[1.2], [-0.4], [0.3]])
    net[0].kernels[...] = w_enc
    net[0].bias[...] = b_enc
    net[1].kernels[...] = w_hid
    net[1].bias[...] = 0.0
    net[1].w_fv_pos[...] = w_fv
    net[2].kernels[...] = w_out
    net[2].bias[...] = 0.0
    for layer in net[:2]:
        layer.w_scd[...] = 0.3
        layer.w_vd[...] = 0.4

    emb = np.asarray([[[0.5]]])
    labels = np.asarray([[1]])
    mask = np.ones((1, 1))
    prob, trace = forward(emb, net, cfg, mask=mask, soft=True)
    grads = backward(trace, labels, mask, net, cfg)

    from spiketag.neuron import soft_spike, surrogate_grad

    def s(v):
        return float(soft_spike(v, cfg))

    # forward replay by hand (soft spikes, alpha=2, centering zero)
    drive0 = w_enc * 0.5 + b_enc
    isc0_1 = drive0
    v0_1 = isc0_1
    s0_1 = s(v0_1)
    isc1_1 = w_fv * s0_1 * w_hid
    v1_1 = isc1_1
    s1_1 = s(v1_1)
    isc0_2 = 0.3 * isc0_1 + drive0
    v0_2 = 0.4 * v0_1 * (1 - abs(s0_1)) + isc0_2
    s0_2 = s(v0_2)
    isc1_2 = 0.3 * isc1_1 + w_fv * s0_2 * w_hid
    v1_2 = 0.4 * v1_1 * (1 - abs(s1_1)) + isc1_2
    s1_2 = s(v1_2)
    assert trace.v[1][1][0, 0, 0] == pytest.approx(v1_2, abs=1e-14)

    def sm(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    p1 = sm(w_out[:, 0] * s1_1)
    p2 = sm(w_out[:, 0] * s1_2)
    p_true = p1[1] + p2[1]
    # adjoints, timestep 2 backwards
    d_prob = np.zeros(3)
    d_prob[1] = -1.0 / p_true
    d_logit2 = p2 * (d_prob - np.dot(d_prob, p2))
    d_logit1 = p1 * (d_prob - np.dot(d_prob, p1))
    d_s1_2 = float(np.dot(w_out[:, 0], d_logit2))
    d_s1_1_ext = float(np.dot(w_out[:, 0], d_logit1))
    g = lambda v: float(surrogate_grad(v, 2.0))
    d_v1_2 = g(v1_2) * d_s1_2
    d_isc1_2 = d_v1_2
    # t=1 for the hidden layer: spike feeds the decoder, the next-step reset
    # factor, and nothing else; soft mode adds the reset-chain term
    d_s1_1 = d_s1_1_ext - 0.4 * v1_1 * np.sign(s1_1) * d_v1_2
    d_v1_1 = g(v1_1) * d_s1_1 + 0.4 * (1 - abs(s1_1)) * d_v1_2
    d_isc1_1 = d_v1_1 + 0.3 * d_isc1_2
    # hidden parameter gradients
    d_whid = (w_fv * s0_1) * d_isc1_1 + (w_fv * s0_2) * d_isc1_2
    d_wfv = (s0_1 * w_hid) * d_isc1_1 + (s0_2 * w_hid) * d_isc1_2
    d_wscd1 = isc1_1 * d_isc1_2
    d_wvd1 = v1_1 * (1 - abs(s1_1)) * d_v1_2
    assert grads["1.kernels"][0, 0, 0] == pytest.approx(d_whid, abs=1e-14)
    assert float(grads["1.w_fv_pos"]) == pytest.approx(d_wfv, abs=1e-14)
    assert grads["1.w_scd"][0] == pytest.approx(d_wscd1, abs=1e-14)
    assert grads["1.w_vd"][0] == pytest.approx(d_wvd1, abs=1e-14)
    # encoder spike adjoints arrive only through the hidden layer's drive
    d_s0_2 = w_fv * w_hid * d_isc1_2
    d_v0_2 = g(v0_2) * d_s0_2
    d_isc0_2 = d_v0_2
    d_s0_1 = w_fv * w_hid * d_isc1_1 - 0.4 * v0_1 * np.sign(s0_1) * d_v0_2
    d_v0_1 = g(v0_1) * d_s0_1 + 0.4 * (1 - abs(s0_1)) * d_v0_2
    d_isc0_1 = d_v0_1 + 0.3 * d_isc0_2
    d_wenc = 0.5 * d_isc0_1 + 0.5 * d_isc0_2
    d_benc = d_isc0_1 + d_isc0_2
    assert grads["0.kernels"][0, 0, 0] == pytest.approx(d_wenc, abs=1e-14)
    assert grads["0.bias"][0] == pytest.approx(d_benc, abs=1e-14)


def test_masked_tokens_contribute_nothing():
    cfg, net, emb, labels, mask = tiny_setup(r=4)
    mask[0, 2] = 0.0
    _, trace = forward(emb, net, cfg, mask=mask)
    base = backward(trace, labels, mask, net, cfg)
    emb2 = emb.copy()
    emb2[0, 2, :] += 3.7  # perturb the masked token's embedding
    _, trace2 = forward(emb2, net, cfg, mask=mask)
    other = backward(trace2, labels, mask, net, cfg)
    for name in base:
        assert np.array_equal(base[name], other[name])


def test_gradients_invariant_under_prob_normalization():
    cfg, net, emb, labels, mask = tiny_setup(seed=3, r=3)
    prob, trace = forward(emb, net, cfg, mask=mask)
    plain = backward(trace, labels, mask, net, cfg)
    # the gradients of the /T-scaled scores are the plain gradients times T
    t = float(cfg.time_steps)
    scaled = backward(dataclasses.replace(trace, prob_class=trace.prob_class / t),
                      labels, mask, net, cfg)
    for name in plain:
        assert np.allclose(plain[name], scaled[name] / t, atol=1e-10)
    loss_plain = cross_entropy(prob, labels, mask)
    loss_scaled = cross_entropy(prob / t, labels, mask)
    assert loss_scaled == pytest.approx(loss_plain + math.log(cfg.time_steps), abs=1e-10)


def test_backward_single_step_equals_first_slice():
    # with T=1 the accumulation has exactly one term
    cfg, net, emb, labels, mask = tiny_setup(seed=5)
    cfg = dataclasses.replace(cfg, time_steps=1)
    _, trace = forward(emb, net, cfg, mask=mask)
    grads = backward(trace, labels, mask, net, cfg)
    # decay-weight gradients must be zero: they need a t-1 state
    assert not grads["0.w_scd"].any()
    assert not grads["0.w_vd"].any()
    assert grads["0.kernels"].any()


@pytest.mark.parametrize("mode", ["binary", "ternary"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_gives_each_parameter_its_gradient_in_parameter_order(mode, dtype):
    # optimizer_step reports the first non-finite gradient in this order
    cfg, _, emb, labels, mask = tiny_setup(mode=mode, r=4)
    mask[0, 3] = 0.0
    net = init_network(cfg, np.random.default_rng(1), dtype=dtype)
    _, trace = forward(emb, net, cfg, mask=mask)
    grads = backward(trace, labels, mask, net, cfg)
    params = named_parameters(net)
    assert list(grads) == list(params)
    for name, p in params.items():
        assert isinstance(grads[name], np.ndarray)
        assert (grads[name].shape, grads[name].dtype) == (p.shape, p.dtype), name
    fv_neg = [name for name in params if name.endswith(".w_fv_neg")]
    # binary mode has no negative spikes, so only a ternary spiking conv has w_fv_neg
    assert fv_neg == (["1.w_fv_neg", "2.w_fv_neg"] if mode == "ternary" else [])
    for name in fv_neg:
        assert grads[name].any(), name


def test_optimizer_sgd_arithmetic():
    cfg = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1)
    net = init_network(cfg, np.random.default_rng(0), dtype=np.float32)
    opt = OptimizerState.for_network(net)  # rebinds the arrays named_parameters returns
    params = named_parameters(net)
    params["0.kernels"][...] = 1.0
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    grads["0.kernels"][...] = 0.5
    tcfg = TrainConfig(optimizer="sgd", learning_rate=0.1)
    optimizer_step(net, grads, opt, tcfg)
    assert np.allclose(params["0.kernels"], 0.95)


def test_optimizer_zero_gradient_is_identity():
    for opt in ("sgd", "adam"):
        cfg = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1)
        net = init_network(cfg, np.random.default_rng(1), dtype=np.float32)
        before = {n: p.copy() for n, p in named_parameters(net).items()}
        grads = {n: np.zeros_like(p) for n, p in named_parameters(net).items()}
        optimizer_step(net, grads, OptimizerState.for_network(net),
                       TrainConfig(optimizer=opt))
        for name, p in named_parameters(net).items():
            assert np.array_equal(p, before[name])


def test_adam_first_step_magnitude_independent_of_gradient_scale():
    for c in (0.01, 1.0, 250.0):
        cfg = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1)
        net = init_network(cfg, np.random.default_rng(2), dtype=np.float64)
        before = {n: p.copy() for n, p in named_parameters(net).items()}
        grads = {n: np.full_like(p, c) for n, p in named_parameters(net).items()}
        tcfg = TrainConfig(optimizer="adam", learning_rate=1e-3)
        optimizer_step(net, grads, OptimizerState.for_network(net), tcfg)
        for name, p in named_parameters(net).items():
            step = before[name] - p
            assert np.allclose(step, 1e-3, rtol=1e-4)


def test_optimizer_rejects_non_finite_gradients():
    cfg = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1)
    net = init_network(cfg, np.random.default_rng(3), dtype=np.float32)
    grads = {n: np.zeros_like(p) for n, p in named_parameters(net).items()}
    grads["0.bias"][0] = np.nan
    with pytest.raises(NumericError):
        optimizer_step(net, grads, OptimizerState.for_network(net), TrainConfig())


def stepped_adam(seed):
    """A small float32 net and its flat Adam state one step in, so m, v and step are set."""
    cfg = NetworkConfig(embedding_dim=2, channels=3, kernel=3, n_spiking_conv=2)
    net = init_network(cfg, np.random.default_rng(seed), dtype=np.float32)
    opt = OptimizerState.for_network(net)
    optimizer_step(net, {n: np.full_like(p, 0.5) for n, p in named_parameters(net).items()},
                   opt, TrainConfig())
    return cfg, net, opt


def frozen(net, opt):
    """Copies of every parameter and moment, and the step count."""
    return ({n: p.copy() for n, p in named_parameters(net).items()},
            {n: m.copy() for n, m in opt.m.items()},
            {n: v.copy() for n, v in opt.v.items()}, opt.step)


def assert_unchanged(net, opt, before):
    params, m, v, step = before
    assert opt.step == step
    for name, p in named_parameters(net).items():
        assert np.array_equal(p, params[name]), name
        assert np.array_equal(opt.m[name], m[name]), name
        assert np.array_equal(opt.v[name], v[name]), name


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_a_non_finite_gradient_names_the_first_parameter_and_changes_nothing(optimizer):
    _, net, opt = stepped_adam(4)
    before = frozen(net, opt)
    grads = {n: np.ones_like(p) for n, p in named_parameters(net).items()}
    grads["2.w_vd"][1] = np.inf
    grads["1.bias"][0] = np.nan
    # the dict's own order does not decide which one is named
    grads = dict(reversed(grads.items()))
    with pytest.raises(NumericError, match=r"in 1\.bias$"):
        optimizer_step(net, grads, opt, TrainConfig(optimizer=optimizer))
    assert_unchanged(net, opt, before)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("other", ["deep copy", "another network", "re-adopted",
                                   "state snapshot"])
def test_a_state_refuses_a_network_whose_arrays_it_does_not_hold(other, optimizer):
    cfg, net, opt = stepped_adam(5)
    if other == "deep copy":
        target, state = copy.deepcopy(net), opt
    elif other == "another network":
        target = init_network(cfg, np.random.default_rng(6), dtype=np.float32)
        OptimizerState.for_network(target)
        state = opt
    elif other == "re-adopted":  # a second state moved net's arrays to its own buffer
        OptimizerState.for_network(net)
        target, state = net, opt
    else:  # a deep copy of the state snapshots step, m and v for a checkpoint
        target, state = net, copy.deepcopy(opt)
        assert state.step == opt.step
        assert all(np.array_equal(state.v[n], opt.v[n]) for n in opt.v)
    before = frozen(target, state)
    grads = {n: np.ones_like(p) for n, p in named_parameters(target).items()}
    with pytest.raises(ConfigError, match="made for another network"):
        optimizer_step(target, grads, state, TrainConfig(optimizer=optimizer))
    assert_unchanged(target, state, before)


def test_the_flat_state_holds_two_buffers_more_than_per_parameter_adam():
    # train-toy's shape (C=128, E=16, T=6, batch 8). Per-parameter Adam kept the
    # parameters, m and v alive: three parameter-sized buffers. The flat state adds
    # the gradient buffer and the scratch. A best-epoch copy of it holds m and v.
    cfg = NetworkConfig(embedding_dim=16)
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(8, 12, 16)).astype(np.float32)
    labels = rng.integers(0, 3, size=(8, 12))
    mask = np.ones((8, 12), dtype=np.float32)
    tracemalloc.start()
    try:
        net = init_network(cfg, rng, dtype=np.float32)
        nbytes = sum(p.nbytes for p in named_parameters(net).values())
        opt = OptimizerState.for_network(net)
        _, trace = forward(emb, net, cfg, mask=mask)
        grads = backward(trace, labels, mask, net, cfg)
        optimizer_step(net, grads, opt, TrainConfig())
        del trace, grads
        held = tracemalloc.get_traced_memory()[0]
        snapshot = copy.deepcopy(opt)
        copied = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert snapshot.step == 1
    slack = 64 * 1024  # dicts, views and the network's Python objects
    assert nbytes > 8 * slack
    assert 5 * nbytes <= held <= 5 * nbytes + slack
    assert 2 * nbytes <= copied <= 2 * nbytes + slack


def toy_training_inputs(toy_corpus, toy_table, n=24):
    train_set, val_set = split_validation(toy_corpus[:n], 6, seed=1)
    return train_set, val_set, toy_table


def test_zero_learning_rate_leaves_parameters(toy_corpus, toy_table):
    train_set, val_set, table = toy_training_inputs(toy_corpus, toy_table)
    net_cfg = NetworkConfig(embedding_dim=16, channels=4, n_spiking_conv=1,
                            time_steps=2)
    tcfg = TrainConfig(epochs=2, learning_rate=0.0, seed=0)
    init_rng = np.random.default_rng([0, 1])
    reference = init_network(net_cfg, init_rng, dtype=np.float32)
    result = train(train_set, val_set, table, net_cfg, tcfg)
    for name, p in named_parameters(result.params).items():
        assert np.array_equal(p, named_parameters(reference)[name])


def test_training_loss_decreases_on_toy_subset(toy_corpus, toy_table):
    train_set, val_set, table = toy_training_inputs(toy_corpus, toy_table, n=12)
    net_cfg = NetworkConfig(embedding_dim=16, channels=8, n_spiking_conv=2,
                            time_steps=4)
    tcfg = TrainConfig(epochs=20, seed=0, learning_rate=1e-3)
    result = train(train_set, val_set, table, net_cfg, tcfg)
    losses = [row[1] for row in result.log_rows]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert losses[-1] < losses[0]
    assert drops >= 0.8 * (len(losses) - 1)


def test_training_is_seed_deterministic(toy_corpus, toy_table):
    train_set, val_set, table = toy_training_inputs(toy_corpus, toy_table)
    net_cfg = NetworkConfig(embedding_dim=16, channels=4, n_spiking_conv=1,
                            time_steps=2)
    tcfg = TrainConfig(epochs=3, seed=9)
    rows1 = train(train_set, val_set, table, net_cfg, tcfg).log_rows
    rows2 = train(train_set, val_set, table, net_cfg, tcfg).log_rows
    assert rows1 == rows2


def test_evaluate_scores_no_examples_as_vacuously_perfect(toy_table, small_net_cfg):
    net = init_network(small_net_cfg, np.random.default_rng(0), dtype=np.float32)
    assert evaluate([], toy_table, net, small_net_cfg) == (1.0, 1.0, 1.0, 0, 0, 0)


def test_evaluate_drops_each_trace_before_the_next_forward(monkeypatch, toy_corpus,
                                                           toy_table):
    net_cfg = NetworkConfig(embedding_dim=16, channels=4, n_spiking_conv=1,
                            time_steps=3)
    net = init_network(net_cfg, np.random.default_rng(0), dtype=np.float32)
    examples = toy_corpus[:20]
    alone = evaluate(examples, toy_table, net, net_cfg, batch_size=1)
    traces = []
    real_forward = training.forward

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in traces), "the previous trace is still alive"
        result = real_forward(*args, **kwargs)
        traces.append(weakref.ref(result[1]))
        return result

    monkeypatch.setattr(training, "forward", spy)
    assert evaluate(examples, toy_table, net, net_cfg, batch_size=4) == alone
    assert len(traces) == 5


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_an_overflowing_inference_forward_is_a_numeric_error_with_no_warning(
        monkeypatch, toy_corpus, toy_table, split):
    # numpy's error handling is per thread: the split forward's worker must run
    # under predict's, or its overflow would warn instead of raising
    monkeypatch.setattr(layers, "USABLE_CORES", 2 if split else 1)
    monkeypatch.setattr(layers, "SPLIT_MIN_ELEMENTS", 1)
    net_cfg = NetworkConfig(embedding_dim=16, channels=4, n_spiking_conv=1, time_steps=2)
    net = init_network(net_cfg, np.random.default_rng(0), dtype=np.float32)
    for p in named_parameters(net).values():
        p[...] = 1e38
    threads = []
    real_encode = layers.encode_step

    def spy(*args, **kwargs):
        threads.append(threading.get_ident())
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(layers, "encode_step", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match="^inference forward: overflow"):
            evaluate(toy_corpus[:8], toy_table, net, net_cfg, batch_size=8)
    assert caught == []
    assert len(set(threads)) == (2 if split else 1)


def test_non_finite_class_scores_are_a_numeric_error(toy_corpus, toy_table):
    # a nan parameter raises no floating-point flag on its way to the scores
    net_cfg = NetworkConfig(embedding_dim=16, channels=4, n_spiking_conv=1, time_steps=2)
    net = init_network(net_cfg, np.random.default_rng(0), dtype=np.float32)
    net[-1].bias[0] = np.nan
    with pytest.raises(NumericError, match="non-finite class scores"):
        evaluate(toy_corpus[:8], toy_table, net, net_cfg)


def test_grad_check_all_modes_and_centerings():
    for mode in ("binary", "ternary"):
        for centering in ("zero", "threshold"):
            err = grad_check(tiny_gradcheck_config(mode, centering), seed=0)
            assert err < 1e-4, (mode, centering, err)


def test_grad_check_catches_corrupted_formulas(monkeypatch):
    real_forward = training.forward
    real_spike_grad = training.spike_grad

    def current_one_step_late(*args, **kwargs):
        prob, trace = real_forward(*args, **kwargs)
        for li, isc in enumerate(trace.isc):
            trace.isc[li] = (np.zeros_like(isc[0]),) + isc[:-1]
        return prob, trace

    for mode in ("binary", "ternary"):
        for centering in ("zero", "threshold"):
            cfg = tiny_gradcheck_config(mode, centering)
            with monkeypatch.context() as patch:
                # the w_scd gradient then reads the current at t-2
                patch.setattr(training, "forward", current_one_step_late)
                assert grad_check(cfg, seed=0) > 1e-2, (mode, centering)
            with monkeypatch.context() as patch:
                patch.setattr(training, "spike_grad",
                              lambda *args: 1.01 * real_spike_grad(*args))
                assert grad_check(cfg, seed=0) > 1e-2, (mode, centering)
