import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import (
    ScalarLIF,
    conv1d_naive,
    matvec_naive,
    softmax_closed_form,
    ternary_threshold,
)
from spiketag import layers
from spiketag.errors import ConfigError, ValidationError
from spiketag.layers import (
    N_CLASSES,
    LayerParams,
    NetworkConfig,
    encode_step,
    forward,
    init_network,
    output_logits,
    spiking_conv_step,
    weighted_spikes,
)
from spiketag.data import batchify
from spiketag.metrics import decode_bio
from spiketag.tensorops import conv1d_same


def make_encoding_layer(c, e, k, rng, decay=0.1, bias=None):
    return LayerParams(
        kernels=rng.normal(size=(c, e, k)),
        bias=np.zeros(c) if bias is None else bias,
        w_scd=np.full(c, decay), w_vd=np.full(c, decay),
    )


def test_network_config_validation():
    NetworkConfig(embedding_dim=4)
    with pytest.raises(ConfigError):
        NetworkConfig(n_spiking_conv=5)
    with pytest.raises(ConfigError):
        NetworkConfig(n_spiking_conv=0)
    with pytest.raises(ConfigError):
        NetworkConfig(time_steps=0)
    with pytest.raises(ConfigError):
        NetworkConfig(spike_mode="analog")


def test_zero_embeddings_zero_bias_never_spike():
    rng = np.random.default_rng(0)
    cfg = NetworkConfig(embedding_dim=3, channels=2, kernel=3, n_spiking_conv=1,
                        time_steps=5, spike_mode="ternary")
    layer = make_encoding_layer(2, 3, 3, rng)
    emb = np.zeros((1, 4, 3))
    states = encode_step(emb, layer, cfg)
    assert states.spk.shape == (cfg.time_steps, 1, 4, 2)
    for spk in states.spk:
        assert not spk.any()


def test_encoding_reduces_to_scalar_trace():
    # B=R=E=C=K=1 collapses the encoder to a single scalar neuron whose
    # drive is kernel * embedding + bias
    cfg = NetworkConfig(embedding_dim=1, channels=1, kernel=1, n_spiking_conv=1,
                        time_steps=8, spike_mode="binary")
    rng = np.random.default_rng(3)
    kernel = 0.7
    emb_val = 0.9
    layer = LayerParams(
        kernels=np.full((1, 1, 1), kernel),
        bias=np.asarray([0.05]),
        w_scd=np.asarray([0.3]), w_vd=np.asarray([0.4]),
    )
    oracle = ScalarLIF(0.3, 0.4, 0.1, "binary")
    emb = np.full((1, 1, 1), emb_val)
    states = encode_step(emb, layer, cfg)
    for t in range(cfg.time_steps):
        o_spk, o_isc, o_v = oracle.step(kernel * emb_val + 0.05)
        assert states.spk[t, 0, 0, 0] == o_spk
        assert states.v[t][0, 0, 0] == pytest.approx(o_v, abs=1e-15)


def test_first_step_spikes_equal_thresholded_drive():
    rng = np.random.default_rng(9)
    cfg = NetworkConfig(embedding_dim=4, channels=3, kernel=3, n_spiking_conv=1,
                        time_steps=1, spike_mode="binary")
    layer = make_encoding_layer(3, 4, 3, rng)
    emb = rng.normal(size=(2, 5, 4))
    drive = conv1d_same(emb, layer.kernels, layer.bias)
    spk = encode_step(emb, layer, cfg).spk[0]
    assert np.array_equal(spk, (drive - 0.1 >= 0).astype(float))


def test_spiking_conv_zero_in_zero_out():
    rng = np.random.default_rng(4)
    cfg = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1,
                        time_steps=3, spike_mode="ternary")
    layer = LayerParams(
        kernels=rng.normal(size=(2, 2, 3)),
        bias=np.zeros(2),
        w_scd=np.full(2, 0.1), w_vd=np.full(2, 0.1),
        w_fv_pos=np.asarray(1.0), w_fv_neg=np.asarray(1.0),
    )
    states = spiking_conv_step(np.zeros((cfg.time_steps, 1, 4, 2)), layer, cfg, np.ones((1, 4)))
    assert states.spk.shape == (3, 1, 4, 2)
    for spk in states.spk:
        assert not spk.any()


def test_ternary_split_reconstructs_input():
    rng = np.random.default_rng(8)
    spikes = rng.integers(-1, 2, size=(2, 6, 3)).astype(np.float64)
    pos = np.maximum(spikes, 0.0)
    neg = np.minimum(spikes, 0.0)
    assert np.array_equal(pos + neg, spikes)
    assert set(np.unique(pos)) <= {0.0, 1.0}
    assert set(np.unique(neg)) <= {-1.0, 0.0}


def test_equal_weight_ternary_collapses_to_binary_formula():
    rng = np.random.default_rng(12)
    spikes = rng.integers(-1, 2, size=(2, 6, 3)).astype(np.float64)
    layer = LayerParams(
        kernels=None, bias=None, w_scd=np.full(3, 0.1), w_vd=np.full(3, 0.1),
        w_fv_pos=np.asarray(0.37), w_fv_neg=np.asarray(0.37),
    )
    mask = np.ones((2, 6))
    ternary = weighted_spikes(spikes, layer, "ternary", mask)
    binary_formula = weighted_spikes(spikes, layer, "binary", mask)
    assert np.array_equal(ternary, binary_formula)


def test_binary_mode_ignores_negative_postsynaptic_weight():
    rng = np.random.default_rng(6)
    spikes = rng.integers(0, 2, size=(1, 5, 2)).astype(np.float64)
    layer_a = LayerParams(
        kernels=None, bias=None, w_scd=np.full(2, 0.1), w_vd=np.full(2, 0.1),
        w_fv_pos=np.asarray(0.8), w_fv_neg=np.asarray(0.2),
    )
    layer_b = LayerParams(
        kernels=None, bias=None, w_scd=np.full(2, 0.1), w_vd=np.full(2, 0.1),
        w_fv_pos=np.asarray(0.8), w_fv_neg=np.asarray(-55.0),
    )
    mask = np.ones((1, 5))
    assert np.array_equal(
        weighted_spikes(spikes, layer_a, "binary", mask),
        weighted_spikes(spikes, layer_b, "binary", mask),
    )


def test_spike_alphabet_validation(monkeypatch):
    # a checked forward checks every spiking layer's hard spikes, the last
    # layer's included; soft spikes and an unchecked forward are not checked
    cfg = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1,
                        spike_mode="binary")
    net = init_network(cfg, np.random.default_rng(0))
    emb = np.random.default_rng(1).normal(size=(1, 3, 2))

    real_lif_step = layers.lif_step

    def last_layer_fires_half(prev, drive, params, cfg, soft=False, *, out):
        spk, state = real_lif_step(prev, drive, params, cfg, soft, out=out)
        if params is net[-2]:
            spk[...] = 0.5
        return spk, state

    monkeypatch.setattr(layers, "lif_step", last_layer_fires_half)
    with pytest.raises(ValidationError):
        forward(emb, net, cfg, checked=True)
    forward(emb, net, cfg, checked=False)
    forward(emb, net, cfg, soft=True, checked=True)


def test_output_logits_cases():
    rng = np.random.default_rng(2)
    layer = LayerParams(kernels=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
    zero = np.zeros((2, 5, 4))
    assert np.allclose(output_logits(zero, layer), layer.bias)

    ident = LayerParams(kernels=np.eye(3), bias=np.zeros(3))
    spikes = rng.integers(-1, 2, size=(1, 4, 3)).astype(float)
    assert np.array_equal(output_logits(spikes, ident), spikes)

    spikes = rng.integers(-1, 2, size=(2, 6, 4)).astype(float)
    out = output_logits(spikes, layer)
    for i in range(2):
        for j in range(6):
            expected = layer.kernels @ spikes[i, j] + layer.bias
            assert np.allclose(out[i, j], expected)


def full_net(cfg, seed=0, dtype=np.float64):
    return init_network(cfg, np.random.default_rng(seed), dtype=dtype)


def test_forward_prob_sums_to_time_steps(small_net_cfg, small_net):
    rng = np.random.default_rng(5)
    emb = rng.normal(scale=0.4, size=(2, 6, 5)).astype(np.float32)
    mask = np.ones((2, 6), dtype=np.float32)
    prob, _ = forward(emb, small_net, small_net_cfg, mask=mask)
    assert np.allclose(prob.sum(axis=-1), small_net_cfg.time_steps, atol=1e-5)


def test_forward_prob_sum_tight_in_float64(small_net_cfg):
    net = full_net(small_net_cfg)
    rng = np.random.default_rng(6)
    emb = rng.normal(scale=0.4, size=(1, 4, 5))
    prob, _ = forward(emb, net, small_net_cfg)
    assert np.allclose(prob.sum(axis=-1), small_net_cfg.time_steps, atol=1e-10)


def test_forward_output_bias_dominates_when_weights_zero():
    cfg = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1,
                        time_steps=1, spike_mode="ternary")
    net = full_net(cfg)
    for layer in net:
        layer.kernels[...] = 0.0
        layer.bias[...] = 0.0
    net[-1].bias[...] = np.asarray([0.0, 10.0, -10.0])
    emb = np.random.default_rng(0).normal(size=(1, 5, 2))
    prob, _ = forward(emb, net, cfg)
    assert prob.argmax(axis=-1).flatten().tolist() == [1] * 5
    assert np.all(prob[:, :, 1] > 0.999)


def test_forward_doubling_T_doubles_prob_for_static_net():
    cfg4 = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1,
                         time_steps=4, spike_mode="binary")
    cfg8 = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1,
                         time_steps=8, spike_mode="binary")
    net = full_net(cfg4)
    for layer in net:
        layer.kernels[...] = 0.0
        layer.bias[...] = 0.0
    emb = np.zeros((1, 3, 2))
    p4, _ = forward(emb, net, cfg4)
    p8, _ = forward(emb, net, cfg8)
    assert np.allclose(2.0 * p4, p8)


def test_sequence_length_preserved_through_stack():
    cfg = NetworkConfig(embedding_dim=3, channels=2, n_spiking_conv=2,
                        time_steps=2, spike_mode="ternary")
    net = full_net(cfg)
    rng = np.random.default_rng(0)
    for r in (1, 2, 7, 83):
        emb = rng.normal(size=(1, r, 3))
        prob, trace = forward(emb, net, cfg)
        assert prob.shape == (1, r, 3)
        for per_layer in trace.spk:
            assert all(s.shape[1] == r for s in per_layer)


@pytest.fixture
def lif_step_returns(monkeypatch):
    """Every (spikes, state) pair layers.lif_step returns, in call order."""
    returned = []
    real_lif_step = layers.lif_step

    def spy(*args, **kwargs):
        out = real_lif_step(*args, **kwargs)
        returned.append(out)
        return out

    monkeypatch.setattr(layers, "lif_step", spy)
    return returned


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("soft", [False, True])
def test_trace_keeps_the_arrays_lif_step_returned(lif_step_returns, small_net_cfg, soft,
                                                  dtype):
    rng = np.random.default_rng(3)
    emb = rng.normal(scale=0.5, size=(2, 6, 5)).astype(dtype)
    mask = np.ones((2, 6), dtype=dtype)
    mask[1, 4:] = 0.0
    net = full_net(small_net_cfg, dtype=dtype)
    _, trace = forward(emb, net, small_net_cfg, mask=mask, soft=soft)
    t_steps = small_net_cfg.time_steps
    n_layers = small_net_cfg.n_spiking_conv + 1
    assert len(lif_step_returns) == n_layers * t_steps
    for li in range(n_layers):
        assert type(trace.spk[li]) is np.ndarray and trace.spk[li].dtype == dtype
        assert trace.spk[li].shape == (t_steps, 2, 6, small_net_cfg.channels)
        assert len(trace.isc[li]) == len(trace.v[li]) == t_steps
        for t in range(t_steps):
            spk, state = lif_step_returns[li * t_steps + t]
            assert np.array_equal(trace.spk[li][t], spk)
            assert trace.isc[li][t] is state.isc
            assert trace.v[li][t] is state.v


def test_forward_runs_in_the_networks_dtype(lif_step_returns, small_net_cfg):
    rng = np.random.default_rng(4)
    emb = rng.normal(scale=0.5, size=(2, 6, 5)).astype(np.float32)
    net = full_net(small_net_cfg, dtype=np.float64)
    _, trace = forward(emb, net, small_net_cfg, soft=True)
    t_steps = small_net_cfg.time_steps
    for li in range(small_net_cfg.n_spiking_conv + 1):
        assert trace.spk[li].dtype == np.float64
        for t in range(t_steps):
            assert trace.isc[li][t].dtype == trace.v[li][t].dtype == np.float64
            spk, _ = lif_step_returns[li * t_steps + t]
            assert np.array_equal(trace.spk[li][t], spk)


def test_spike_alphabet_everywhere(small_net_cfg, small_net):
    rng = np.random.default_rng(1)
    emb = rng.normal(scale=0.5, size=(2, 5, 5)).astype(np.float32)
    for mode in ("binary", "ternary"):
        cfg = dataclasses.replace(small_net_cfg, spike_mode=mode)
        _, trace = forward(emb, small_net, cfg, checked=True)
        allowed = {0.0, 1.0} if mode == "binary" else {-1.0, 0.0, 1.0}
        for per_layer in trace.spk:
            for spk in per_layer:
                assert set(np.unique(spk)).issubset(allowed)


def test_forward_deterministic(small_net_cfg):
    rng = np.random.default_rng(2)
    emb = rng.normal(scale=0.5, size=(2, 6, 5)).astype(np.float32)
    p1, _ = forward(emb, full_net(small_net_cfg, seed=7), small_net_cfg)
    p2, _ = forward(emb, full_net(small_net_cfg, seed=7), small_net_cfg)
    assert np.array_equal(p1, p2)


@pytest.mark.parametrize("mode", ["ternary", "binary"])
def test_forward_masks_padding_against_batch_composition(mode, monkeypatch):
    # a sentence's outputs must not depend on how much padding its batch has,
    # nor, bit for bit, on whether the forward keeps its trace or splits its
    # rows across two threads
    cfg = NetworkConfig(embedding_dim=4, channels=3, n_spiking_conv=2,
                        time_steps=3, spike_mode=mode)
    net = full_net(cfg)
    net[0].bias[...] = 0.3  # nonzero bias would otherwise drive pad positions
    rng = np.random.default_rng(4)
    emb = rng.normal(scale=0.5, size=(1, 4, 4))
    alone_prob, _ = forward(emb, net, cfg, mask=np.ones((1, 4)))
    padded = np.zeros((1, 9, 4))
    padded[:, :4] = emb
    mask = np.zeros((1, 9))
    mask[:, :4] = 1.0
    padded_prob, _ = forward(padded, net, cfg, mask=mask)
    assert np.allclose(alone_prob[0, :4], padded_prob[0, :4], atol=1e-12)

    batch = np.concatenate([padded, rng.normal(scale=0.5, size=(1, 9, 4))]).astype(np.float32)
    batch_mask = np.concatenate([mask, np.ones((1, 9))])
    net32 = full_net(cfg, dtype=np.float32)
    traced_prob, _ = forward(batch, net32, cfg, mask=batch_mask)
    prob, trace = forward(batch, net32, cfg, mask=batch_mask, keep_trace=False)
    assert np.array_equal(prob, traced_prob)
    assert trace.spk == trace.isc == trace.v == []

    # at the split gate (B*R*C = 2**15), with padded rows in both halves
    monkeypatch.setattr(layers, "USABLE_CORES", 2)
    cfg = NetworkConfig(embedding_dim=4, channels=128, n_spiking_conv=1,
                        time_steps=2, spike_mode=mode)
    net32 = full_net(cfg, dtype=np.float32)
    batch = rng.normal(scale=0.5, size=(32, 8, 4)).astype(np.float32)
    batch_mask = np.ones((32, 8), dtype=np.float32)
    for row, length in ((1, 3), (7, 5), (16, 1), (30, 6)):
        batch_mask[row, length:] = 0.0
    assert 32 * 8 * 128 == layers.SPLIT_MIN_ELEMENTS
    prob, trace = forward(batch, net32, cfg, mask=batch_mask, keep_trace=False)
    halves = [forward(batch[rows], net32, cfg, mask=batch_mask[rows])[0]
              for rows in (slice(None, 16), slice(16, None))]
    assert np.array_equal(prob, np.concatenate(halves))
    assert trace.probs_t.shape == (2, 32, 8, N_CLASSES)
    assert np.array_equal(trace.probs_t.sum(axis=0), prob)
    traced_prob, _ = forward(batch, net32, cfg, mask=batch_mask)
    assert decode_bio(prob, batch_mask) == decode_bio(traced_prob, batch_mask)


@pytest.mark.parametrize("keep_trace, cores, parts", [(True, 2, 1), (False, 1, 1), (False, 2, 2)],
                         ids=["traced", "serial", "split"])
def test_forward_without_a_mask_is_forward_with_a_ones_mask(monkeypatch, keep_trace, cores,
                                                            parts):
    # forward makes the missing mask once, at its boundary; every layer below
    # runs with it, so the outputs are those of an explicit ones mask
    cfg = NetworkConfig(embedding_dim=4, channels=128, n_spiking_conv=2, time_steps=3)
    net = full_net(cfg, dtype=np.float32)
    emb = np.random.default_rng(9).normal(scale=0.5, size=(32, 8, 4)).astype(np.float32)
    assert 32 * 8 * 128 == layers.SPLIT_MIN_ELEMENTS
    monkeypatch.setattr(layers, "USABLE_CORES", cores)
    encoded = []  # the rows of every encode_step call
    real = layers.encode_step

    def spy(embeddings, *args, **kwargs):
        encoded.append(embeddings.shape[0])
        return real(embeddings, *args, **kwargs)

    monkeypatch.setattr(layers, "encode_step", spy)
    prob, trace = forward(emb, net, cfg, keep_trace=keep_trace)
    assert len(encoded) == parts
    ones_prob, ones_trace = forward(emb, net, cfg, mask=np.ones((32, 8), np.float32),
                                    keep_trace=keep_trace)
    assert prob.tobytes() == ones_prob.tobytes()
    for name in ("embeddings", "mask", "probs_t"):
        assert getattr(trace, name).tobytes() == getattr(ones_trace, name).tobytes()
    assert len(trace.spk) == len(ones_trace.spk) == (3 if keep_trace else 0)
    for li, spk in enumerate(trace.spk):
        assert spk.tobytes() == ones_trace.spk[li].tobytes()
        for t in range(cfg.time_steps):
            assert trace.isc[li][t].tobytes() == ones_trace.isc[li][t].tobytes()
            assert trace.v[li][t].tobytes() == ones_trace.v[li][t].tobytes()


@pytest.mark.parametrize("b, r, cores, keep_trace, threads", [
    (128, 64, 2, False, 2),   # B*R*C = 2**15: split, one half on each thread
    (128, 63, 2, False, 1),   # one row per sentence short of the gate
    (1, 8192, 2, False, 1),   # a single sentence is never split
    (128, 64, 2, True, 1),    # a traced forward is never split
    (128, 64, 1, False, 1),   # nor is one on a one-core host
])
def test_untraced_forward_splits_only_at_or_above_the_gate(monkeypatch, b, r, cores,
                                                           keep_trace, threads):
    cfg = NetworkConfig(embedding_dim=2, channels=4, kernel=3, n_spiking_conv=1,
                        time_steps=1)
    net = full_net(cfg, dtype=np.float32)
    monkeypatch.setattr(layers, "USABLE_CORES", cores)
    seen = []  # the thread of every encode_step call
    real = layers.encode_step

    def spy(*args, **kwargs):
        seen.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(layers, "encode_step", spy)
    forward(np.ones((b, r, 2), dtype=np.float32), net, cfg, keep_trace=keep_trace)
    assert len(seen) == threads == len(set(seen))
    if threads == 1:
        assert seen == [threading.get_ident()]
    else:
        assert threading.get_ident() in seen


@pytest.mark.parametrize("failing_rows", [17, 16], ids=["worker", "caller"])
def test_a_failing_half_raises_from_forward_and_leaves_no_thread(monkeypatch,
                                                                failing_rows):
    # B=33 splits into the calling thread's 16 rows and the worker's 17
    class HalfFailed(Exception):
        pass

    cfg = NetworkConfig(embedding_dim=2, channels=128, kernel=3, n_spiking_conv=1,
                        time_steps=1)
    net = full_net(cfg, dtype=np.float32)
    monkeypatch.setattr(layers, "USABLE_CORES", 2)
    real = layers.encode_step

    def encode_step(embeddings, *args, **kwargs):
        if embeddings.shape[0] == failing_rows:
            raise HalfFailed(threading.current_thread().name)
        return real(embeddings, *args, **kwargs)

    monkeypatch.setattr(layers, "encode_step", encode_step)
    before = threading.active_count()
    with pytest.raises(HalfFailed) as failed:
        forward(np.ones((33, 8, 2), dtype=np.float32), net, cfg, keep_trace=False)
    on_caller = str(failed.value) == threading.current_thread().name
    assert on_caller == (failing_rows == 16)
    assert threading.active_count() == before


@pytest.mark.parametrize("mode", ["ternary", "binary"])
def test_split_of_a_sorted_batch_trims_each_part_and_matches_the_serial_forward(
        monkeypatch, toy_corpus, toy_table, mode):
    # one batch of 32 sentences of 3 to 17 tokens, sorted as inference batches
    # are; T=6 keeps each part's decoder GEMM in the row-count range where
    # OpenBLAS rounds a row the same way whatever the row count
    monkeypatch.setattr(layers, "USABLE_CORES", 2)
    ordered = sorted(toy_corpus, key=lambda ex: len(ex.tokens))
    examples = ordered[::len(ordered) // 32][:32]
    (batch,) = batchify(examples, toy_table, 32)
    lengths = batch.mask.sum(axis=1).astype(int)
    b, r = batch.mask.shape
    cfg = NetworkConfig(embedding_dim=toy_table.dim, channels=128, n_spiking_conv=1,
                        spike_mode=mode)
    assert b * r * cfg.channels >= layers.SPLIT_MIN_ELEMENTS
    assert (lengths[0], lengths[-1]) == (3, r) and np.all(np.diff(lengths) >= 0)
    net = full_net(cfg, dtype=np.float32)
    rng = np.random.default_rng(9)
    for layer in (net[0], net[-1]):  # drive padded positions; decode them to non-uniform
        layer.bias[...] = rng.normal(scale=0.5, size=layer.bias.shape)
    traced_prob, traced = forward(batch.embeddings, net, cfg, mask=batch.mask)

    parts = []  # (thread, embeddings shape) of every encode_step call
    real = layers.encode_step

    def spy(embeddings, *args, **kwargs):
        parts.append((threading.get_ident(), embeddings.shape))
        return real(embeddings, *args, **kwargs)

    monkeypatch.setattr(layers, "encode_step", spy)
    prob, trace = forward(batch.embeddings, net, cfg, mask=batch.mask, keep_trace=False)
    assert np.array_equal(prob, traced_prob)
    assert np.array_equal(trace.probs_t, traced.probs_t)

    (h, first_len, _), = [shape for thread, shape in parts
                           if thread == threading.get_ident()]
    (rest, second_len, _), = [shape for thread, shape in parts
                              if thread != threading.get_ident()]
    assert h + rest == b
    assert first_len == lengths[:h].max() < r and second_len == lengths[h:].max()

    def work(split):
        return max(split * lengths[:split].max(), (b - split) * lengths[split:].max())

    assert work(h) == min(work(split) for split in range(1, b)) < work(b // 2)


@pytest.mark.parametrize("empty_from", [0, 20], ids=["all-rows", "last-rows"])
def test_split_runs_rows_without_a_real_position(monkeypatch, empty_from):
    # a row whose mask is all zero has no real length; its part still runs
    # one position, and every position matches the traced serial forward
    monkeypatch.setattr(layers, "USABLE_CORES", 2)
    cfg = NetworkConfig(embedding_dim=4, channels=128, n_spiking_conv=1)
    net = full_net(cfg, dtype=np.float32)
    net[-1].bias[...] = [0.3, -0.2, 0.1]
    emb = np.random.default_rng(5).normal(size=(32, 8, 4)).astype(np.float32)
    mask = np.ones((32, 8), dtype=np.float32)
    mask[empty_from:] = 0.0
    traced_prob, traced = forward(emb, net, cfg, mask=mask)
    prob, trace = forward(emb, net, cfg, mask=mask, keep_trace=False)
    assert np.array_equal(prob, traced_prob)
    assert np.array_equal(trace.probs_t, traced.probs_t)


def test_ternary_weighting_holds_at_most_two_new_blocks():
    rng = np.random.default_rng(2)
    spk = rng.integers(-1, 2, size=(6, 16, 32, 128)).astype(np.float32)
    mask = (rng.uniform(size=(16, 32)) < 0.8).astype(np.float32)
    layer = LayerParams(kernels=None, bias=None, w_fv_pos=np.asarray(0.7, np.float32),
                        w_fv_neg=np.asarray(1.3, np.float32))
    tracemalloc.start()
    try:
        wspk = weighted_spikes(spk, layer, "ternary", mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.1 * spk.nbytes
    expected = (layer.w_fv_pos * np.maximum(spk, 0.0)
                + layer.w_fv_neg * np.minimum(spk, 0.0))
    expected *= mask[:, :, None]
    assert wspk.tobytes() == expected.tobytes()


def test_init_network_structure_and_defaults():
    cfg = NetworkConfig(embedding_dim=6, channels=4, n_spiking_conv=3)
    net = full_net(cfg)
    # roles by position: encoder, three spiking convs, decoder
    assert len(net) == 5
    assert net[0].kernels.shape == (4, 6, 5)
    assert all(layer.kernels.shape == (4, 4, 5) for layer in net[1:-1])
    assert all(layer.w_fv_pos is not None for layer in net[1:-1])
    assert net[-1].kernels.shape == (3, 4)
    assert net[-1].w_scd is None
    assert np.all(net[1].w_scd == 0.1)
    assert np.all(net[1].w_vd == 0.1)
    assert float(net[1].w_fv_pos) == 1.0
    assert float(net[1].w_fv_neg) == 1.0
    assert net[0].w_fv_pos is None


def test_forward_fires_at_the_configs_threshold():
    # the threshold is the config's: a net built at v_thr 0.1 run at 0.4 fires at 0.4
    cfg = NetworkConfig(embedding_dim=3, channels=4, kernel=3, n_spiking_conv=1,
                        time_steps=4, spike_mode="ternary")
    net = full_net(cfg)
    emb = np.random.default_rng(8).normal(size=(2, 6, 3))
    _, trace = forward(emb, net, dataclasses.replace(cfg, v_thr=0.4))
    v = np.stack(trace.v[0])
    assert np.any((np.abs(v) >= 0.1) & (np.abs(v) < 0.4))  # where 0.1 and 0.4 differ
    assert np.array_equal(trace.spk[0], ternary_threshold(v, 0.4))


def test_forward_refuses_a_net_deeper_or_shallower_than_the_config():
    cfg = NetworkConfig(embedding_dim=3, channels=2, kernel=3, n_spiking_conv=2,
                        time_steps=2)
    net = full_net(cfg)
    emb = np.zeros((1, 4, 3))
    for n_spiking_conv in (1, 3):
        with pytest.raises(ConfigError, match="4 layers"):
            forward(emb, net, dataclasses.replace(cfg, n_spiking_conv=n_spiking_conv))


def reference_forward(emb, net, cfg, mask):
    """Timestep-major forward built only from the test oracles.

    Each timestep runs every layer with conv1d_naive, one ScalarLIF per
    neuron and softmax_closed_form per token; returns per-layer (T, B, R, C)
    spikes, currents and potentials, and the summed class scores.
    """
    emb = emb * mask[:, :, None]
    b, r, _ = emb.shape
    spiking = net[:-1]
    out_layer = net[-1]
    lifs = [
        [[[ScalarLIF(float(layer.w_scd[c]), float(layer.w_vd[c]),
                     cfg.v_thr, cfg.spike_mode)
           for c in range(layer.kernels.shape[0])] for _ in range(r)] for _ in range(b)]
        for layer in spiking
    ]
    shape = (cfg.time_steps, b, r, cfg.channels)
    spk, isc, v = ([np.zeros(shape) for _ in spiking] for _ in range(3))
    prob = np.zeros((b, r, N_CLASSES))
    for t in range(cfg.time_steps):
        x = emb
        for li, layer in enumerate(spiking):
            if li > 0:  # a spiking conv reads the weighted spikes of layer li - 1
                n = layer
                w_neg = n.w_fv_pos if cfg.spike_mode == "binary" else n.w_fv_neg
                x = np.where(x > 0, float(n.w_fv_pos) * x, float(w_neg) * x)
            drive = conv1d_naive(x, layer.kernels, layer.bias, (cfg.kernel - 1) // 2)
            for i in range(b):
                for j in range(r):
                    for c in range(cfg.channels):
                        out = lifs[li][i][j][c].step(drive[i, j, c])
                        spk[li][t, i, j, c], isc[li][t, i, j, c], v[li][t, i, j, c] = out
            x = spk[li][t] * mask[:, :, None]
        for i in range(b):
            for j in range(r):
                logits = matvec_naive(out_layer.kernels.tolist(), x[i, j].tolist(),
                                      out_layer.bias.tolist())
                prob[i, j] += softmax_closed_form(logits)
    return spk, isc, v, prob


def test_forward_matches_timestep_major_oracle():
    for mode in ("binary", "ternary"):
        cfg = NetworkConfig(embedding_dim=3, channels=3, kernel=3, n_spiking_conv=2,
                            time_steps=4, spike_mode=mode)
        rng = np.random.default_rng(21)
        net = full_net(cfg, seed=5)
        for layer in net[:-1]:
            layer.bias[...] = rng.normal(scale=0.2, size=layer.bias.shape)
            layer.w_scd[...] = rng.uniform(-0.5, 0.9, size=cfg.channels)
            layer.w_vd[...] = rng.uniform(-0.5, 0.9, size=cfg.channels)
        for layer in net[1:-1]:
            layer.w_fv_pos[...] = 0.8
            if mode == "ternary":  # a binary layer has no w_fv_neg
                layer.w_fv_neg[...] = 1.3
        emb = rng.normal(size=(2, 5, 3))
        mask = np.ones((2, 5))
        mask[1, 3:] = 0.0
        prob, trace = forward(emb, net, cfg, mask=mask)
        spk, isc, v, ref_prob = reference_forward(emb, net, cfg, mask)
        for li in range(len(net) - 1):
            assert np.array_equal(trace.spk[li], spk[li]), (mode, li)
            assert np.allclose(trace.isc[li], isc[li], rtol=0, atol=1e-12), (mode, li)
            assert np.allclose(trace.v[li], v[li], rtol=0, atol=1e-12), (mode, li)
            assert np.any(spk[li] != 0) and np.any(spk[li] == 0), (mode, li)
        assert np.allclose(prob, ref_prob, rtol=0, atol=1e-12), mode
        if mode == "ternary":
            assert any(np.any(s < 0) for s in spk)
