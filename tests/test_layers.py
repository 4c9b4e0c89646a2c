import numpy as np
import pytest

from oracles import ScalarLIF, conv1d_naive, matvec_naive, softmax_closed_form
from spiketag import layers
from spiketag.errors import ConfigError, ValidationError
from spiketag.layers import (
    ENCODING,
    N_CLASSES,
    OUTPUT,
    SPIKING_CONV,
    LayerParams,
    NetworkConfig,
    encode_step,
    forward,
    init_network,
    output_logits,
    spiking_conv_step,
    weighted_spikes,
)
from spiketag.neuron import NeuronParams
from spiketag.tensorops import conv1d_same


def make_encoding_layer(c, e, k, rng, decay=0.1, v_thr=0.1, bias=None):
    return LayerParams(
        kind=ENCODING,
        kernels=rng.normal(size=(c, e, k)),
        bias=np.zeros(c) if bias is None else bias,
        neuron=NeuronParams(
            w_scd=np.full(c, decay), w_vd=np.full(c, decay), v_thr=v_thr
        ),
    )


def test_network_config_validation():
    NetworkConfig(embedding_dim=4).validate()
    with pytest.raises(ConfigError):
        NetworkConfig(n_spiking_conv=5).validate()
    with pytest.raises(ConfigError):
        NetworkConfig(n_spiking_conv=0).validate()
    with pytest.raises(ConfigError):
        NetworkConfig(time_steps=0).validate()
    with pytest.raises(ConfigError):
        NetworkConfig(spike_mode="analog").validate()


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
        kind=ENCODING,
        kernels=np.full((1, 1, 1), kernel),
        bias=np.asarray([0.05]),
        neuron=NeuronParams(w_scd=np.asarray([0.3]), w_vd=np.asarray([0.4]), v_thr=0.1),
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
    drive = conv1d_same(emb, layer.kernels, layer.bias, padding=1)
    spk = encode_step(emb, layer, cfg).spk[0]
    assert np.array_equal(spk, (drive - 0.1 >= 0).astype(float))


def test_spiking_conv_zero_in_zero_out():
    rng = np.random.default_rng(4)
    cfg = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1,
                        time_steps=3, spike_mode="ternary")
    layer = LayerParams(
        kind=SPIKING_CONV,
        kernels=rng.normal(size=(2, 2, 3)),
        bias=np.zeros(2),
        neuron=NeuronParams(
            w_scd=np.full(2, 0.1), w_vd=np.full(2, 0.1),
            w_fv_pos=np.asarray(1.0), w_fv_neg=np.asarray(1.0), v_thr=0.1,
        ),
    )
    states = spiking_conv_step(np.zeros((cfg.time_steps, 1, 4, 2)), layer, cfg)
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
    neuron = NeuronParams(
        w_scd=np.full(3, 0.1), w_vd=np.full(3, 0.1),
        w_fv_pos=np.asarray(0.37), w_fv_neg=np.asarray(0.37), v_thr=0.1,
    )
    ternary = weighted_spikes(spikes, neuron, "ternary")
    binary_formula = weighted_spikes(spikes, neuron, "binary")
    assert np.array_equal(ternary, binary_formula)


def test_binary_mode_ignores_negative_postsynaptic_weight():
    rng = np.random.default_rng(6)
    spikes = rng.integers(0, 2, size=(1, 5, 2)).astype(np.float64)
    neuron_a = NeuronParams(
        w_scd=np.full(2, 0.1), w_vd=np.full(2, 0.1),
        w_fv_pos=np.asarray(0.8), w_fv_neg=np.asarray(0.2), v_thr=0.1,
    )
    neuron_b = NeuronParams(
        w_scd=np.full(2, 0.1), w_vd=np.full(2, 0.1),
        w_fv_pos=np.asarray(0.8), w_fv_neg=np.asarray(-55.0), v_thr=0.1,
    )
    assert np.array_equal(
        weighted_spikes(spikes, neuron_a, "binary"),
        weighted_spikes(spikes, neuron_b, "binary"),
    )


def test_spike_alphabet_validation():
    cfg = NetworkConfig(embedding_dim=2, channels=2, kernel=3, n_spiking_conv=1,
                        spike_mode="binary")
    rng = np.random.default_rng(0)
    layer = LayerParams(
        kind=SPIKING_CONV,
        kernels=rng.normal(size=(2, 2, 3)),
        bias=np.zeros(2),
        neuron=NeuronParams(
            w_scd=np.full(2, 0.1), w_vd=np.full(2, 0.1),
            w_fv_pos=np.asarray(1.0), w_fv_neg=np.asarray(1.0), v_thr=0.1,
        ),
    )
    bad = np.full((cfg.time_steps, 1, 3, 2), 0.5)
    with pytest.raises(ValidationError):
        spiking_conv_step(bad, layer, cfg, checked=True)


def test_output_logits_cases():
    rng = np.random.default_rng(2)
    layer = LayerParams(kind=OUTPUT, kernels=rng.normal(size=(3, 4)),
                        bias=rng.normal(size=3))
    zero = np.zeros((2, 5, 4))
    assert np.allclose(output_logits(zero, layer), layer.bias)

    ident = LayerParams(kind=OUTPUT, kernels=np.eye(3), bias=np.zeros(3))
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
        small_net_cfg.spike_mode = mode
        _, trace = forward(emb, small_net, small_net_cfg, checked=True)
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


def test_forward_masks_padding_against_batch_composition():
    # a sentence's outputs must not depend on how much padding its batch has
    cfg = NetworkConfig(embedding_dim=4, channels=3, n_spiking_conv=2,
                        time_steps=3, spike_mode="ternary")
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


def test_init_network_structure_and_defaults():
    cfg = NetworkConfig(embedding_dim=6, channels=4, n_spiking_conv=3)
    net = full_net(cfg)
    kinds = [layer.kind for layer in net]
    assert kinds == [ENCODING] + [SPIKING_CONV] * 3 + [OUTPUT]
    assert net[0].kernels.shape == (4, 6, 5)
    assert net[1].kernels.shape == (4, 4, 5)
    assert net[-1].kernels.shape == (3, 4)
    assert np.all(net[1].neuron.w_scd == 0.1)
    assert np.all(net[1].neuron.w_vd == 0.1)
    assert float(net[1].neuron.w_fv_pos) == 1.0
    assert float(net[1].neuron.w_fv_neg) == 1.0
    assert net[0].neuron.w_fv_pos is None


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
        [[[ScalarLIF(float(layer.neuron.w_scd[c]), float(layer.neuron.w_vd[c]),
                     layer.neuron.v_thr, cfg.spike_mode)
           for c in range(layer.kernels.shape[0])] for _ in range(r)] for _ in range(b)]
        for layer in spiking
    ]
    shape = (cfg.time_steps, b, r, cfg.channels)
    spk, isc, v = ([np.zeros(shape) for _ in spiking] for _ in range(3))
    prob = np.zeros((b, r, N_CLASSES))
    for t in range(cfg.time_steps):
        x = emb
        for li, layer in enumerate(spiking):
            if layer.kind == SPIKING_CONV:
                n = layer.neuron
                w_neg = n.w_fv_pos if cfg.spike_mode == "binary" else n.w_fv_neg
                x = np.where(x > 0, float(n.w_fv_pos) * x, float(w_neg) * x)
            drive = conv1d_naive(x, layer.kernels, layer.bias, cfg.padding)
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
            layer.neuron.w_scd[...] = rng.uniform(-0.5, 0.9, size=cfg.channels)
            layer.neuron.w_vd[...] = rng.uniform(-0.5, 0.9, size=cfg.channels)
        for layer in net[1:-1]:
            layer.neuron.w_fv_pos[...] = 0.8
            layer.neuron.w_fv_neg[...] = 1.3
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
