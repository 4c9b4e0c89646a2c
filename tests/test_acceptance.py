"""Acceptance gate: every release-blocking criterion, one test each.

Each test prints one `ACCEPT ok ...` line on success (visible with -s/-rA)
and asserts its stated runtime budget where one applies. Budgets are wall
clock on a single desktop core.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from oracles import ScalarLIF
from spiketag.cli import main
from spiketag.data import load_corpus, split_validation
from spiketag.energy import dnn_energy
from spiketag.layers import LayerParams, NetworkConfig, forward, init_network
from spiketag.metrics import extract_spans, span_f1
from spiketag.neuron import NeuronState, lif_step
from spiketag.persistence import checkpoint_from_training, load, restore_network, save
from spiketag.toygen import generate_corpus, generate_embeddings
from spiketag.training import (
    TrainConfig,
    backward,
    cross_entropy,
    evaluate,
    grad_check,
    named_parameters,
    tiny_gradcheck_config,
    train,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

PARAM_CLASSES = ("kernels", "bias", "w_scd", "w_vd", "w_fv_pos", "w_fv_neg")


def report(name):
    print(f"ACCEPT ok {name}")


def test_c1_gradient_validation():
    t0 = time.monotonic()
    worst = 0.0
    for mode in ("binary", "ternary"):
        for centering in ("zero", "threshold"):
            cfg = tiny_gradcheck_config(mode, centering)
            net = init_network(cfg, np.random.default_rng(0), dtype=np.float64)
            present = {n.split(".")[1] for n in named_parameters(net)}
            # a binary spike is never -1, so a binary net has no w_fv_neg
            assert present == set(PARAM_CLASSES) - ({"w_fv_neg"} if mode == "binary" else set())
            for seed in range(5):
                err = grad_check(cfg, seed=seed)
                assert err < 1e-4, (mode, centering, seed, err)
                worst = max(worst, err)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(f"criterion-1 gradient-validation worst={worst:.2e} ({elapsed:.1f}s)")


def test_c2_lif_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    for mode in ("binary", "ternary"):
        for _ in range(100):
            t_steps = int(rng.integers(1, 17))
            w_scd = float(rng.uniform(-0.8, 1.1))
            w_vd = float(rng.uniform(-0.8, 1.1))
            v_thr = float(rng.uniform(0.02, 0.6))
            drives = rng.normal(scale=0.6, size=t_steps)
            params = LayerParams(kernels=None, bias=None, w_scd=np.asarray([w_scd]),
                                 w_vd=np.asarray([w_vd]))
            oracle = ScalarLIF(w_scd, w_vd, v_thr, mode)
            state = NeuronState.zeros((1,), dtype=np.float64)
            cfg = NetworkConfig(spike_mode=mode, v_thr=v_thr)
            for t in range(t_steps):
                o_spk, o_isc, o_v = oracle.step(float(drives[t]))
                spk, state = lif_step(state, drives[t : t + 1], params, cfg, out=state)
                assert spk[0] == o_spk and state.isc[0] == o_isc and state.v[0] == o_v
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(f"criterion-2 lif-oracle-equivalence 2x100 configs bit-exact ({elapsed:.1f}s)")


def test_c3_energy_arithmetic_vs_published_rows():
    t0 = time.monotonic()
    rows = [
        ("HAST", 0.5232e9, 6.5412),
        ("Seq2Seq4ATE", 2.4888e9, 31.1104),
        ("DECNN", 0.2580e9, 3.2256),
        ("CDA", 8.5409e9, 106.7618),
        ("SoftProtoE", 0.2580e9, 3.2256),
        ("BERT-RC", 7.6448e9, 95.5599),
        ("BERT-PT", 7.6451e9, 95.5636),
        ("Self-Training", 7.6451e9, 95.5636),
    ]
    for name, flops, published_mj in rows:
        ours = dnn_energy(flops) * 1e3
        rel = abs(ours - published_mj) / published_mj
        assert rel < 0.002, (name, ours, published_mj, rel)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(f"criterion-3 energy-arithmetic 8/8 rows within 0.2% ({elapsed:.2f}s)")


def test_c4_case_study_fixtures():
    t0 = time.monotonic()
    gold = load_corpus(os.path.join(FIXTURES, "review_cases.tsv"))
    pred = load_corpus(os.path.join(FIXTURES, "review_cases_pred.tsv"), mode="lenient")
    expected_f1 = (1.0, 1.0, 0.0)
    for i, (g, p, want) in enumerate(zip(gold, pred, expected_f1), start=1):
        g_spans = [(0, s, e) for s, e in extract_spans(g.labels)]
        p_spans = [(0, s, e) for s, e in extract_spans(p.labels)]
        _, _, f1, *_ = span_f1(g_spans, p_spans)
        assert f1 == pytest.approx(want), (i, f1)
    assert extract_spans(gold[0].labels) == [(7, 7)]
    assert extract_spans(gold[1].labels) == [(1, 3), (15, 16)]
    assert extract_spans(gold[2].labels) == [(3, 7)]
    assert extract_spans(pred[2].labels) == [(5, 7)]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(f"criterion-4 case-study fixtures F1 = 1.0/1.0/0.0 ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def acceptance_corpus():
    corpus = generate_corpus(200, seed=11)
    table = generate_embeddings(16, seed=11)
    assert len(corpus) == 200
    from spiketag.toygen import VOCABULARY

    assert len(VOCABULARY) == 60
    for ex in corpus:
        for start, end in extract_spans(ex.labels):
            assert 1 <= end - start + 1 <= 3
    return corpus, table


def test_c5_toy_corpus_learning(acceptance_corpus):
    # training the default configuration for 10 epochs lower-bounds the
    # criterion's 50-epoch allowance: the trajectory is epoch-identical
    t0 = time.monotonic()
    corpus, table = acceptance_corpus
    train_set, val_set = split_validation(corpus, 40, seed=0)
    net_cfg = NetworkConfig(embedding_dim=16)  # ternary, C=128, T=6, K=5
    cfg = TrainConfig(epochs=10, seed=0)       # batch 8, lr 1e-4, adam
    result = train(train_set, val_set, table, net_cfg, cfg)
    best = max(row[4] for row in result.log_rows)
    elapsed = time.monotonic() - t0
    assert best >= 0.90, result.log_rows
    assert elapsed < 600.0
    report(f"criterion-5 toy-learning val-F1 {best:.3f} within {cfg.epochs} epochs "
           f"({elapsed:.0f}s)")


@pytest.mark.slow
def test_c6_ablation_direction(acceptance_corpus):
    # Non-inferiority at margin 0.01: ternary vs binary spikes at each T, and
    # T=6 vs T=4 in each mode. Each run's final parameters are scored on a
    # held-out toy sample, and the four comparisons use the mean per-seed
    # paired difference: a seed fixes the initial weights and the batch order
    # for every configuration. The 40-sentence validation F1 cannot carry the
    # comparison, since one span error there moves a run by about 0.011 and
    # half the runs reach 1.0. 13 seeds put the widest pilot spread (SD 0.0076
    # at a mean of -0.0035, seeds 0-5) 3 standard errors inside the margin.
    t0 = time.monotonic()
    corpus, table = acceptance_corpus
    train_set, val_set = split_validation(corpus, 40, seed=0)
    held_out = generate_corpus(1000, seed=99)
    seen = {tuple(ex.tokens) for ex in corpus}
    assert not any(tuple(ex.tokens) in seen for ex in held_out)
    n_spans = sum(len(extract_spans(ex.labels)) for ex in held_out)
    assert n_spans >= 900, n_spans

    seeds = range(13)
    f1 = {}
    for mode in ("ternary", "binary"):
        for t_steps in (6, 4):
            net_cfg = NetworkConfig(embedding_dim=16, channels=32,
                                    spike_mode=mode, time_steps=t_steps)
            scores = []
            for seed in seeds:
                result = train(train_set, val_set, table, net_cfg,
                               TrainConfig(epochs=20, seed=seed))
                scores.append(evaluate(held_out, table, result.params, net_cfg)[2])
            f1[(mode, t_steps)] = scores

    margin = -0.01
    comparisons = ((("ternary", 6), ("binary", 6)), (("ternary", 4), ("binary", 4)),
                   (("ternary", 6), ("ternary", 4)), (("binary", 6), ("binary", 4)))
    lines = []
    below = []
    for a, b in comparisons:
        diff = np.subtract(f1[a], f1[b])
        mean = diff.mean()
        se = diff.std(ddof=1) / np.sqrt(len(diff))
        name = f"{a[0]}@T{a[1]} - {b[0]}@T{b[1]}"
        lines.append(f"  {name} = {mean:+.4f} +- {se:.4f}")
        for key in (a, b):
            lines.append(f"    {key[0]}@T{key[1]}: "
                         + " ".join(f"{v:.4f}" for v in f1[key]))
        if mean < margin:
            below.append(name)
    detail = "\n".join(lines)
    assert not below, (f"paired mean below margin {margin} for {below}; "
                       f"held-out F1 per seed {list(seeds)} on {n_spans} spans:\n"
                       + detail)
    elapsed = time.monotonic() - t0
    report(f"criterion-6 ablation-direction held-out F1 on {n_spans} spans, "
           f"{len(seeds)} seeds paired, margin {margin} ({elapsed:.0f}s)\n" + detail)


def test_c7_structural_invariants(tmp_path, acceptance_corpus):
    t0 = time.monotonic()
    corpus, table = acceptance_corpus
    cfg = NetworkConfig(embedding_dim=16, channels=6, n_spiking_conv=2,
                        time_steps=6, spike_mode="ternary")
    net = init_network(cfg, np.random.default_rng(3), dtype=np.float32)

    # sequence length preserved, alphabet pure, prob sums to T
    rng = np.random.default_rng(0)
    for r in (1, 2, 7, 83):
        emb = rng.normal(scale=0.4, size=(2, r, 16)).astype(np.float32)
        prob, trace = forward(emb, net, cfg, checked=True)
        assert prob.shape == (2, r, 3)
        assert np.allclose(prob.sum(axis=-1), cfg.time_steps, atol=1e-5)
        for per_layer in trace.spk:
            for spk in per_layer:
                assert spk.shape[1] == r
                assert set(np.unique(spk)).issubset({-1.0, 0.0, 1.0})

    # masked-token gradient isolation
    emb = rng.normal(scale=0.4, size=(1, 6, 16)).astype(np.float32)
    labels = rng.integers(0, 3, size=(1, 6))
    mask = np.ones((1, 6), dtype=np.float32)
    mask[0, 4] = 0.0
    _, tr1 = forward(emb, net, cfg, mask=mask)
    g1 = backward(tr1, labels, mask, net, cfg)
    emb2 = emb.copy()
    emb2[0, 4, :] = 123.0
    _, tr2 = forward(emb2, net, cfg, mask=mask)
    g2 = backward(tr2, labels, mask, net, cfg)
    for name in g1:
        assert np.array_equal(g1[name], g2[name])

    # loss/gradient invariance under /T normalization (float64 for 1e-10):
    # the gradients of the /T-scaled scores are the plain gradients times T
    cfg64 = NetworkConfig(embedding_dim=16, channels=4, n_spiking_conv=1,
                          time_steps=6, spike_mode="ternary")
    net64 = init_network(cfg64, np.random.default_rng(5), dtype=np.float64)
    emb64 = np.random.default_rng(6).normal(scale=0.4, size=(2, 5, 16))
    labels64 = np.random.default_rng(7).integers(0, 3, size=(2, 5))
    mask64 = np.ones((2, 5))
    prob64, tr64 = forward(emb64, net64, cfg64, mask=mask64)
    plain = backward(tr64, labels64, mask64, net64, cfg64)
    scaled = backward(dataclasses.replace(tr64, prob_class=tr64.prob_class / 6.0),
                      labels64, mask64, net64, cfg64)
    for name in plain:
        assert np.allclose(plain[name], scaled[name] / 6.0, atol=1e-10)
    assert cross_entropy(prob64 / 6.0, labels64, mask64) == pytest.approx(
        cross_entropy(prob64, labels64, mask64) + np.log(6.0), abs=1e-10
    )

    # checkpoint bit-exact round trip
    ckpt = checkpoint_from_training(net, cfg, TrainConfig(), meta={"epoch": 1})
    path = tmp_path / "inv.ckpt"
    save(ckpt, str(path))
    loaded = load(str(path))
    for name, arr in ckpt.tensors.items():
        assert np.array_equal(loaded.tensors[name],
                              np.asarray(arr, dtype=np.float32))
    restored, _ = restore_network(loaded)
    for name, p in named_parameters(net).items():
        assert np.array_equal(p, named_parameters(restored)[name])

    # deterministic rerun end to end
    train_set, val_set = split_validation(corpus[:30], 6, seed=1)
    tcfg = TrainConfig(epochs=2, seed=4)
    run_a = train(train_set, val_set, table,
                  NetworkConfig(embedding_dim=16, channels=4, n_spiking_conv=1),
                  tcfg)
    run_b = train(train_set, val_set, table,
                  NetworkConfig(embedding_dim=16, channels=4, n_spiking_conv=1),
                  tcfg)
    assert run_a.log_rows == run_b.log_rows
    for name, p in named_parameters(run_a.params).items():
        assert np.array_equal(p, named_parameters(run_b.params)[name])

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(f"criterion-7 structural-invariants all green ({elapsed:.0f}s)")


GOLDEN_DEFAULT_ECHO = """adam_beta1=0.9
adam_beta2=0.999
adam_eps=1e-08
alpha=2.0
batch_size=8
channels=128
ckpt=
corpus_mode=strict
data=
decay_init=0.1
embedding_dim=0
embeddings=
epochs=50
kernel=5
lr=0.0001
n_spiking_conv=3
optimizer=adam
out=
seed=0
spike_mode=ternary
surrogate_centering=zero
time_steps=6
v_thr=0.1
val_size=150"""


def test_c8_hyperparameter_conformance(capsys):
    code = main(["energy", "--dnn-flops", "0.2580e9"])
    out = capsys.readouterr().out
    assert code == 0
    echo = "\n".join(out.strip().splitlines()[:-1])
    assert echo == GOLDEN_DEFAULT_ECHO
    for needle in ("batch_size=8", "lr=0.0001", "v_thr=0.1", "decay_init=0.1",
                   "time_steps=6", "alpha=2.0"):
        assert needle in echo
    report("criterion-8 hyperparameter-conformance golden echo matches")
