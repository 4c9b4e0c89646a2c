import numpy as np
import pytest

from spiketag.data import batchify
from spiketag.energy import (
    ENERGY_PER_SOP,
    LayerProfile,
    dnn_energy,
    firing_rate,
    flops_conv,
    flops_fc,
    layer_energy,
    profile_network,
)
from spiketag.layers import NetworkConfig, init_network

# FLOPs column (x1e9) and published mJ for the dense baselines
DNN_TABLE = [
    ("HAST", 0.5232e9, 6.5412),
    ("Seq2Seq4ATE", 2.4888e9, 31.1104),
    ("DECNN", 0.2580e9, 3.2256),
    ("CDA", 8.5409e9, 106.7618),
    ("SoftProtoE", 0.2580e9, 3.2256),
    ("BERT-RC", 7.6448e9, 95.5599),
    ("BERT-PT", 7.6451e9, 95.5636),
    ("Self-Training", 7.6451e9, 95.5636),
]


def test_flops_conv_cases():
    assert flops_conv(1, 1, 1, 1, 1, 1) == 2
    assert flops_conv(2, 3, 4, 1, 5, 1) == 240
    assert flops_conv(128, 300, 83, 1, 5, 1) == 128 * 300 * 83 * 5 * 2


def test_flops_fc_cases():
    assert flops_fc(3, 4) == 24
    assert flops_fc(1, 1) == 2
    assert flops_fc(3, 128) == 768


def test_firing_rate_silent_and_saturated():
    t = 6
    silent = [np.zeros((1, 2, 3)) for _ in range(t)]
    assert firing_rate(silent) == 0.0
    full = [np.ones((1, 2, 3)) for _ in range(t)]
    assert firing_rate(full) == 1.0


def test_firing_rate_counts_negative_spikes():
    t = 6
    trace = [np.full((1, 1, 1), -1.0) if i < 3 else np.zeros((1, 1, 1))
             for i in range(t)]
    assert firing_rate(trace) == pytest.approx(0.5)


def test_firing_rate_respects_mask():
    t = 2
    spk = np.asarray([[[1.0], [1.0]]])
    mask = np.asarray([[1.0, 0.0]])
    assert firing_rate([spk] * t, mask) == 1.0


def test_dnn_energy_matches_published_rows():
    for name, flops, published_mj in DNN_TABLE:
        ours_mj = dnn_energy(flops) * 1e3
        rel = abs(ours_mj - published_mj) / published_mj
        assert rel < 0.002, (name, ours_mj, published_mj)


def test_layer_energy_snn_sop_cost():
    prof = LayerProfile(name="x", kind="conv", flops=0.0, sop_costed=True,
                        sops=1000.0)
    assert layer_energy(prof) == pytest.approx(7.7e-11)
    prof.neg_sops = 100.0
    assert layer_energy(prof) == pytest.approx(
        7.7e-11 + 3.7e-12 * 100.0
    )


def toy_profile(mode="ternary", silence=False):
    cfg = NetworkConfig(embedding_dim=4, channels=3, n_spiking_conv=2,
                        time_steps=6, spike_mode=mode)
    net = init_network(cfg, np.random.default_rng(0), dtype=np.float32)
    if silence:
        for layer in net[:-1]:
            layer.kernels[...] = 0.0
            layer.bias[...] = 0.0
    from spiketag.data import EmbeddingTable, Example

    vocab = {c: np.random.default_rng(1).normal(scale=0.5, size=4).astype(np.float32)
             for c in "abcdef"}
    table = EmbeddingTable(dim=4, vectors=vocab, unk=np.zeros(4, np.float32))
    examples = [Example(tokens=list("abc"), labels=["O", "B", "I"]),
                Example(tokens=list("fedab"), labels=["O"] * 5)]
    batch = batchify(examples, table, 2, rng=None)[0]
    return profile_network(net, batch, cfg), cfg


def test_profile_silent_network_costs_flops_only():
    report, _ = toy_profile(silence=True)
    assert report.total_sops == 0.0
    flop_layers = [lp for lp in report.layers if not lp.sop_costed]
    assert report.total_energy == pytest.approx(
        sum(12.5e-12 * lp.flops for lp in flop_layers)
    )


def test_profile_totals_are_sums():
    report, _ = toy_profile()
    assert report.total_energy == pytest.approx(sum(lp.energy for lp in report.layers))
    assert report.total_sops == pytest.approx(sum(lp.sops for lp in report.layers))


def test_profile_doubling_T_doubles_sops_at_fixed_gamma():
    report6, _ = toy_profile()
    for lp in report6.layers:
        if lp.sop_costed:
            assert lp.sops == pytest.approx(6 * lp.gamma * lp.flops)


def test_profile_encoding_and_output_are_flop_costed():
    report, _ = toy_profile()
    assert not report.layers[0].sop_costed  # encoding
    assert not report.layers[-1].sop_costed  # decoder
    assert report.layers[0].sops == 0.0
    for lp in report.layers[1:-1]:
        assert lp.sop_costed


def test_binary_network_pays_no_sign_cost():
    report, _ = toy_profile(mode="binary")
    for lp in report.layers:
        assert lp.neg_sops == 0.0
        if lp.sop_costed:
            assert lp.sops > 0
            assert lp.energy == ENERGY_PER_SOP * lp.sops


def test_energy_monotone_in_gamma_t_flops():
    base = LayerProfile(name="x", kind="conv", flops=1e6, sop_costed=True)
    t, gamma = 6, 0.25
    base.sops = t * gamma * base.flops
    e0 = layer_energy(base)
    for t2, g2, f2 in ((8, 0.25, 1e6), (6, 0.5, 1e6), (6, 0.25, 2e6)):
        other = LayerProfile(name="y", kind="conv", flops=f2, sop_costed=True,
                             sops=t2 * g2 * f2)
        assert layer_energy(other) >= e0


def test_report_rows_include_total():
    report, _ = toy_profile()
    rows = report.rows().splitlines()
    assert rows[0].startswith("name\tkind")
    assert rows[-1].startswith("TOTAL")
    assert len(rows) == len(report.layers) + 2
