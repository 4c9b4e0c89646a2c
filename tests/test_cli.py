import argparse
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from spiketag import cli
from spiketag.cli import main
from spiketag.errors import ConfigError, DimensionError
from spiketag.layers import NetworkConfig
from spiketag.persistence import load, restore_network, save
from spiketag.runconfig import KEYS, RunConfig
from spiketag.training import TrainConfig, named_parameters

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
TOY_CORPUS = os.path.join(FIXTURES, "toy40.tsv")
TOY_EMB = os.path.join(FIXTURES, "toy_embeddings.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_config(tmp_path, **extra):
    lines = {
        "data": TOY_CORPUS,
        "embeddings": TOY_EMB,
        "out": str(tmp_path),
        "channels": 8,
        "n_spiking_conv": 1,
        "epochs": 2,
        "val_size": 8,
    }
    lines.update(extra)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
    return str(path)


def test_dnn_flops_matches_published_row(capsys):
    code, out, _ = run(capsys, "energy", "--dnn-flops", "0.2580e9")
    assert code == 0
    assert out.strip().endswith("3.2250 mJ")


@pytest.mark.parametrize("flops", ["-1", "-0", "nan", "inf"])
def test_dnn_flops_must_be_finite_and_not_negative(capsys, flops):
    code, out, err = run(capsys, "energy", "--dnn-flops", flops)
    assert code == 1
    assert out == ""
    assert "--dnn-flops" in err


def test_effective_config_is_echoed_and_flags_override(capsys, tmp_path):
    cfg_path = small_config(tmp_path, seed=5)
    code, out, _ = run(capsys, "energy", "--config", cfg_path,
                       "--seed", "9", "--dnn-flops", "1e9")
    assert code == 0
    assert "seed=9" in out  # flag beats file
    assert "channels=8" in out  # file beats default
    assert "batch_size=8" in out


def test_unknown_config_key_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key=1\n")
    code, _, err = run(capsys, "energy", "--config", str(path),
                       "--dnn-flops", "1e9")
    assert code == 1
    assert "no_such_key" in err


def test_missing_embeddings_path_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "train", "--data", TOY_CORPUS,
                       "--embeddings", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path))
    assert code == 2
    assert "nope.txt" in err


def test_train_eval_predict_smoke(capsys, tmp_path):
    cfg_path = small_config(tmp_path, epochs=3)
    code, out, err = run(capsys, "train", "--config", cfg_path)
    assert code == 0, err
    ckpt_path = str(tmp_path / "model.ckpt")
    assert os.path.exists(ckpt_path)
    assert os.path.exists(tmp_path / "train.log")
    log_lines = (tmp_path / "train.log").read_text().strip().splitlines()
    assert len(log_lines) == 3
    for line in log_lines:
        parts = line.split("\t")
        assert len(parts) == 5

    code, out, _ = run(capsys, "eval", "--config", cfg_path, "--ckpt", ckpt_path)
    assert code == 0
    assert "P\tR\tF1" in out

    sentences = tmp_path / "raw.txt"
    sentences.write_text("we\nloved\nthe\nbattery\n.\n\nso\nvery\nnice\n!\n")
    code, out, _ = run(capsys, "predict", "--config", cfg_path,
                       "--ckpt", ckpt_path, str(sentences))
    assert code == 0
    body = [b for b in out.split("\n\n") if "\t" in b]
    assert len(body) == 2
    first = [line.split("\t") for line in body[0].splitlines() if "\t" in line]
    assert [t for t, _ in first] == ["we", "loved", "the", "battery", "."]
    assert all(lab in ("O", "B", "I") for _, lab in first)

    code, out, _ = run(capsys, "energy", "--config", cfg_path, "--ckpt", ckpt_path)
    assert code == 0
    assert "TOTAL" in out
    assert "total_energy_mJ" in out


def test_zero_lr_checkpoint_equals_initialization(capsys, tmp_path):
    cfg_path = small_config(tmp_path, epochs=1)
    code, _, err = run(capsys, "train", "--config", cfg_path, "--lr", "0")
    assert code == 0, err
    ckpt = load(str(tmp_path / "model.ckpt"))
    net, _ = restore_network(ckpt)
    from spiketag.layers import init_network

    reference = init_network(ckpt.net_cfg, np.random.default_rng([0, 1]),
                             dtype=np.float32)
    for name, p in named_parameters(reference).items():
        assert np.array_equal(p, named_parameters(net)[name])


def test_eval_table4_prediction_fixture(capsys, tmp_path):
    # forced-gold predictions score 1.0; the review3 miss scores 0 by itself
    from spiketag.data import load_corpus
    from spiketag.metrics import extract_spans, span_f1

    gold = load_corpus(os.path.join(FIXTURES, "review_cases.tsv"))
    pred = load_corpus(os.path.join(FIXTURES, "review_cases_pred.tsv"),
                       mode="lenient")
    all_gold, all_pred = [], []
    for i, (g, p) in enumerate(zip(gold, pred)):
        all_gold.extend((i, s, e) for s, e in extract_spans(g.labels))
        all_pred.extend((i, s, e) for s, e in extract_spans(p.labels))
    _, _, f1_self, *_ = span_f1(all_gold, all_gold)
    assert f1_self == 1.0
    precision, recall, f1, tp, fp, fn = span_f1(all_gold, all_pred)
    assert tp == 3 and fp == 1 and fn == 1  # review3's span mismatches


def test_gradcheck_command_passes(capsys):
    code, out, _ = run(capsys, "gradcheck")
    assert code == 0
    assert out.count("gradcheck\t") == 4
    assert "OK max relative error" in out


def test_inspect_counts_match_trace_recount(capsys, tmp_path):
    cfg_path = small_config(tmp_path, epochs=1)
    code, _, err = run(capsys, "train", "--config", cfg_path)
    assert code == 0, err
    ckpt_path = str(tmp_path / "model.ckpt")
    sentence = "we loved the battery ."
    code, out, _ = run(capsys, "inspect", "--config", cfg_path,
                       "--ckpt", ckpt_path, sentence)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines() if "\t" in line][1:]
    assert [r[0] for r in rows] == sentence.split()

    # independent recount straight from a fresh forward trace
    from spiketag.data import load_embeddings
    from spiketag.layers import forward

    table = load_embeddings(TOY_EMB)
    net, net_cfg = restore_network(load(ckpt_path))[0], load(ckpt_path).net_cfg
    tokens = sentence.split()
    emb = table.matrix[[table.row(t) for t in tokens]][None]
    _, trace = forward(emb, net, net_cfg, mask=np.ones((1, len(tokens)), np.float32))
    t_steps = net_cfg.time_steps
    channels = net_cfg.channels
    for j, (tok, pos, neg) in enumerate((r[0], int(r[1]), int(r[2])) for r in rows):
        expected_pos = sum(int((spk[0, j] > 0).sum()) for spk in trace.spk[-1])
        expected_neg = sum(int((spk[0, j] < 0).sum()) for spk in trace.spk[-1])
        assert pos == expected_pos
        assert neg == expected_neg
        assert 0 <= pos <= t_steps * channels
        assert 0 <= neg <= t_steps * channels


def test_subcommand_output_is_deterministic(capsys, tmp_path):
    cfg_path = small_config(tmp_path, epochs=2)
    code1, out1, _ = run(capsys, "train", "--config", cfg_path)
    os.replace(tmp_path / "model.ckpt", tmp_path / "first.ckpt")
    code2, out2, _ = run(capsys, "train", "--config", cfg_path)
    assert code1 == code2 == 0
    assert out1 == out2
    assert (tmp_path / "first.ckpt").read_bytes() == (tmp_path / "model.ckpt").read_bytes()


def predicted_blocks(out):
    """token<TAB>label lines of a predict run, one list per sentence."""
    return [[line for line in block.splitlines() if "\t" in line]
            for block in out.split("\n\n") if "\t" in block]


def test_predict_batches_by_length_and_answers_in_input_order(capsys, tmp_path,
                                                             monkeypatch):
    cfg_path = small_config(tmp_path, epochs=1, batch_size=2)
    code, _, err = run(capsys, "train", "--config", cfg_path)
    assert code == 0, err
    ckpt_path = str(tmp_path / "model.ckpt")
    sentences = [
        "we loved the crispy garlic bread and the thai soup again today".split(),
        "so !".split(),
        "it had a really wireless retina screen .".split(),
        "i liked pizza".split(),
    ]
    raw = tmp_path / "raw.txt"
    raw.write_text("\n\n".join("\n".join(toks) for toks in sentences) + "\n")

    from spiketag import training

    widths = []
    real_forward = training.forward

    def spy(emb, *args, **kwargs):
        widths.append(emb.shape[:2])
        return real_forward(emb, *args, **kwargs)

    monkeypatch.setattr(training, "forward", spy)
    code, out, _ = run(capsys, "predict", "--config", cfg_path, "--ckpt", ckpt_path, str(raw))
    assert code == 0
    assert widths == [(2, 3), (2, 12)]  # lengths 2 and 3, then 8 and 12

    alone = []
    for i, toks in enumerate(sentences):
        one = tmp_path / f"one{i}.txt"
        one.write_text("\n".join(toks) + "\n")
        code, out_one, _ = run(capsys, "predict", "--config", cfg_path,
                               "--ckpt", ckpt_path, str(one))
        assert code == 0
        alone.extend(predicted_blocks(out_one))
    blocks = predicted_blocks(out)
    assert [[line.split("\t")[0] for line in b] for b in blocks] == sentences
    assert blocks == alone


def test_a_predict_input_line_holding_a_tab_is_a_data_error(capsys, tmp_path,
                                                            trained_ckpt):
    # a labeled-corpus line would print as three columns, token, label, prediction
    raw = tmp_path / "labeled.txt"
    raw.write_text("we\tO\nloved\tO\n\nthe\tO\nbattery\tB\n")
    code, out, err = run(capsys, "predict", "--config", small_config(tmp_path),
                         "--ckpt", trained_ckpt, str(raw))
    assert code == 2
    assert f"{raw}:1:" in err and "tab" in err
    assert "\t" not in out


def test_checkpoint_optimizer_state_is_the_best_epochs(capsys, tmp_path):
    # at learning rate 0 validation F1 is flat, so epoch 0 stays the best
    cfg_path = small_config(tmp_path, epochs=3)
    code, _, err = run(capsys, "train", "--config", cfg_path, "--lr", "0")
    assert code == 0, err
    ckpt = load(str(tmp_path / "model.ckpt"))
    assert ckpt.meta["epoch"] == 0

    from spiketag.data import load_corpus, load_embeddings, split_validation
    from spiketag.training import train

    train_set, val_set = split_validation(load_corpus(TOY_CORPUS), 8, ckpt.meta["seed"])
    one_epoch = train(train_set, val_set, load_embeddings(TOY_EMB), ckpt.net_cfg,
                      dataclasses.replace(ckpt.train_cfg, epochs=1))
    batches_per_epoch = -(-len(train_set) // ckpt.train_cfg.batch_size)
    assert ckpt.meta["optimizer_step"] == one_epoch.opt_state.step == batches_per_epoch
    for name, m in one_epoch.opt_state.m.items():
        assert np.array_equal(ckpt.tensors[f"adam_m.{name}"], m)
        assert np.array_equal(ckpt.tensors[f"adam_v.{name}"], one_epoch.opt_state.v[name])


def drop_one_second_moment(ckpt):
    del ckpt.tensors["adam_v.0.bias"]


def non_integer_step(ckpt):
    ckpt.meta["optimizer_step"] = "x"


def one_element_first_moment(ckpt):
    ckpt.tensors["adam_m.0.kernels"] = np.zeros(1, dtype=np.float32)


def a_layer_the_network_lacks(ckpt):
    ckpt.tensors["9.kernels"] = np.zeros((2, 2), dtype=np.float32)
    ckpt.tensors["adam_m.9.kernels"] = np.zeros((2, 2), dtype=np.float32)


@pytest.mark.parametrize("edit, message", [
    (drop_one_second_moment, "missing tensor adam_v.0.bias"),
    (non_integer_step, "optimizer_step 'x'"),
    (one_element_first_moment, "adam_m.0.kernels shape (1,)"),
    (a_layer_the_network_lacks, "tensor 9.kernels, which its network lacks"),
])
def test_a_malformed_optimizer_state_is_a_data_error(capsys, tmp_path, edit, message):
    cfg_path = small_config(tmp_path, epochs=1)
    code, _, err = run(capsys, "train", "--config", cfg_path)
    assert code == 0, err
    ckpt = load(str(tmp_path / "model.ckpt"))
    edit(ckpt)
    edited = str(tmp_path / "edited.ckpt")
    save(ckpt, edited)
    code, out, err = run(capsys, "eval", "--config", cfg_path, "--ckpt", edited)
    assert code == 2
    assert "data error" in err and message in err
    assert "Traceback" not in err and "TP\tFP\tFN" not in out


def test_every_config_key_reaches_the_checkpoint(capsys, tmp_path):
    # one non-default value per NetworkConfig / TrainConfig field, set by its key
    values = {
        "time_steps": 2, "spike_mode": "binary", "channels": 4, "kernel": 3,
        "n_spiking_conv": 2, "v_thr": 0.2, "decay_init": 0.3, "alpha": 3.0,
        "embedding_dim": 16, "surrogate_centering": "threshold",
        "batch_size": 4, "lr": 0.001, "epochs": 1, "seed": 3, "optimizer": "sgd",
        "adam_beta1": 0.8, "adam_beta2": 0.99, "adam_eps": 1e-07,
    }
    key = {"learning_rate": "lr"}
    net_keys = [key.get(f.name, f.name) for f in dataclasses.fields(NetworkConfig)]
    train_keys = [key.get(f.name, f.name) for f in dataclasses.fields(TrainConfig)]
    assert sorted(values) == sorted(net_keys + train_keys)

    code, out, err = run(capsys, "train", "--config", small_config(tmp_path, **values))
    assert code == 0, err
    run_keys = {"data", "embeddings", "ckpt", "out", "corpus_mode", "val_size"}
    echoed = [line.partition("=")[0] for line in out.splitlines()[:len(values) + 6]]
    assert echoed == sorted(set(values) | run_keys)

    ckpt = load(str(tmp_path / "model.ckpt"))
    stored = dataclasses.asdict(ckpt.net_cfg) | dataclasses.asdict(ckpt.train_cfg)
    assert {key.get(name, name): value for name, value in stored.items()} == values


def non_utf8(path):
    path.write_bytes(b"caf\xe9\tO\n")
    return str(path)


@pytest.mark.parametrize("reader, expected_code", [
    ("corpus", 2), ("embeddings", 2), ("input", 2), ("config", 1),
])
def test_non_utf8_input_exits_with_its_code(capsys, tmp_path, reader, expected_code):
    cfg_path = small_config(tmp_path, epochs=1)
    code, _, err = run(capsys, "train", "--config", cfg_path)
    assert code == 0, err
    bad = non_utf8(tmp_path / "bad.txt")
    ckpt = ["--ckpt", str(tmp_path / "model.ckpt")]
    argv = {
        "corpus": ["eval", "--config", cfg_path, "--data", bad, *ckpt],
        "embeddings": ["eval", "--config", cfg_path, "--embeddings", bad, *ckpt],
        "input": ["predict", "--config", cfg_path, *ckpt, bad],
        "config": ["energy", "--config", bad, "--dnn-flops", "1e9"],
    }[reader]
    code, _, err = run(capsys, *argv)
    assert code == expected_code
    assert bad in err and "UTF-8" in err


def write_table(path, dim):
    rng = np.random.default_rng(0)
    words = ["we", "loved", "the", "battery", "."]
    path.write_text("".join(
        w + " " + " ".join(f"{x:.4f}" for x in rng.normal(size=dim)) + "\n" for w in words
    ))
    return str(path)


@pytest.mark.parametrize("command", ["eval", "predict", "inspect", "energy"])
def test_embedding_table_narrower_than_checkpoint_is_a_data_error(capsys, tmp_path,
                                                                 command):
    cfg_path = small_config(tmp_path, epochs=1)
    code, _, err = run(capsys, "train", "--config", cfg_path)
    assert code == 0, err
    narrow = write_table(tmp_path / "narrow.txt", 8)
    sentences = tmp_path / "raw.txt"
    sentences.write_text("we\nloved\nthe\nbattery\n.\n")
    extra = {"predict": [str(sentences)], "inspect": ["we loved the battery ."]}
    code, _, err = run(capsys, command, "--config", cfg_path, "--embeddings", narrow,
                       "--ckpt", str(tmp_path / "model.ckpt"), *extra.get(command, []))
    assert code == 2
    assert "data error" in err and "dim 8" in err and "embedding_dim 16" in err


@pytest.mark.parametrize("command", ["eval", "energy"])
def test_commands_that_load_a_checkpoint_ignore_a_config_embedding_dim(capsys, tmp_path,
                                                                        command):
    # the network, its input width included, comes from the checkpoint
    code, _, err = run(capsys, "train", "--config", small_config(tmp_path, epochs=1))
    assert code == 0, err
    ckpt = ["--ckpt", str(tmp_path / "model.ckpt")]
    code, plain, _ = run(capsys, command, "--config", small_config(tmp_path), *ckpt)
    assert code == 0
    code, keyed, err = run(capsys, command, "--config",
                           small_config(tmp_path, embedding_dim=8), *ckpt)
    assert code == 0, err
    assert "embedding_dim=8" in keyed

    def report(out):
        return [line for line in out.splitlines() if not line.startswith("embedding_dim=")]

    assert report(keyed) == report(plain)


def test_train_refuses_a_config_embedding_dim_other_than_the_tables(capsys, tmp_path):
    code, _, err = run(capsys, "train", "--config", small_config(tmp_path, embedding_dim=8))
    assert code == 1
    assert "embedding_dim 8" in err and "table dim 16" in err
    assert not (tmp_path / "model.ckpt").exists()


def test_energy_on_an_empty_corpus_is_a_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "train", "--config", small_config(tmp_path, epochs=1))
    assert code == 0, err
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    code, _, err = run(capsys, "energy", "--config", small_config(tmp_path),
                       "--data", str(empty), "--ckpt", str(tmp_path / "model.ckpt"))
    assert code == 2
    assert "data error" in err and str(empty) in err


@pytest.mark.parametrize("command, val_size", [("eval", 8), ("train", 8), ("train", 0)])
def test_an_empty_corpus_is_a_data_error_naming_the_file(capsys, tmp_path, command,
                                                         val_size):
    argv = []
    if command == "eval":
        code, _, err = run(capsys, "train", "--config", small_config(tmp_path, epochs=1))
        assert code == 0, err
        argv = ["--ckpt", str(tmp_path / "trained.ckpt")]
        (tmp_path / "model.ckpt").rename(argv[1])
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n\n")
    code, out, err = run(capsys, command, "--config", small_config(tmp_path, val_size=val_size),
                         "--data", str(empty), *argv)
    assert code == 2
    assert "data error" in err and "no sentences" in err and str(empty) in err
    assert "TP\tFP\tFN" not in out and not (tmp_path / "model.ckpt").exists()


def test_train_refuses_an_empty_validation_set(capsys, tmp_path):
    code, _, err = run(capsys, "train", "--config", small_config(tmp_path, val_size=0))
    assert code == 1
    assert "validation set is empty" in err
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("refused", [{"epochs": 0}, {"epochs": -3}, {"val_size": 0}])
def test_a_refused_train_leaves_the_previous_run_untouched(capsys, tmp_path, refused):
    code, _, err = run(capsys, "train", "--config", small_config(tmp_path))
    assert code == 0, err
    before = {name: (tmp_path / name).read_bytes() for name in ("model.ckpt", "train.log")}
    assert all(before.values())

    code, _, err = run(capsys, "train", "--config", small_config(tmp_path, **refused))
    assert code == 1
    assert "configuration error" in err
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("flag", [("--epochs", "0"), ("--time-steps", "0"), ("--lr", "nan"),
                                  ("--lr", "inf")])
def test_train_checks_its_config_before_reading_the_data(capsys, tmp_path, flag):
    code, _, err = run(capsys, "train", "--data", TOY_CORPUS,
                       "--embeddings", str(tmp_path / "missing.txt"),
                       "--out", str(tmp_path), *flag)
    assert code == 1
    assert "configuration error" in err and "missing.txt" not in err


@pytest.mark.parametrize("flag, key, value", [("--seed", "seed", "x"), ("--lr", "lr", "abc"),
                                             ("--epochs", "epochs", "2.5")])
def test_a_flag_value_is_parsed_as_the_same_value_in_a_config_file(capsys, tmp_path, flag,
                                                                  key, value):
    # a flag's value goes through its key's field type, as a file value does
    file_run = run(capsys, "train", "--config", small_config(tmp_path, **{key: value}))
    flag_run = run(capsys, "train", "--config", small_config(tmp_path), flag, value)
    assert file_run[0] == flag_run[0] == 1
    assert file_run[2] == flag_run[2]
    assert flag_run[2].startswith("configuration error: ") and flag_run[2].count("\n") == 1


# each of these trained a network that never fires, stopped on a non-finite
# gradient after the first step, or divided by zero in the adam update
EARLIER_CASES = [
    ("v_thr", "nan"), ("v_thr", "inf"), ("alpha", "nan"), ("decay_init", "nan"),
    ("lr", "nan"), ("adam_beta1", "1.0"), ("adam_beta1", "1.5"), ("adam_beta2", "-1"),
    ("adam_eps", "0"), ("adam_eps", "inf"),
]
# Every key gets each of these values. An oversized integer is left to
# test_running_out_of_memory_is_a_config_error: an oversized epochs would only run long.
WALK_VALUES = ("-1", "0", "nan", "inf", "x")
PATH_KEYS = ("data", "embeddings", "ckpt", "out")
# the walked values inside each key's domain; a path key takes every one
INSIDE = {"val_size": {"0"}, "decay_init": {"-1", "0"}, "embedding_dim": {"0"}, "lr": {"0"},
          "seed": {"0"}, "adam_beta1": {"0"}, "adam_beta2": {"0"}}


def walk_cases():
    cases = [pytest.param("train", key, value, id=f"{key}-{value}")
             for key, value in EARLIER_CASES]
    for command in ("train", "eval"):
        for key in KEYS:
            cases.extend(pytest.param(command, key, value, id=f"{command}-{key}-{value}")
                         for value in WALK_VALUES
                         if command == "eval" or (key, value) not in EARLIER_CASES)
    return cases


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory):
    """A C=8, one-conv checkpoint trained for one epoch on toy40."""
    out = tmp_path_factory.mktemp("trained")
    assert main(["train", "--config", small_config(out, epochs=1)]) == 0
    return str(out / "model.ckpt")


@pytest.mark.parametrize("command, key, value", walk_cases())
def test_train_checks_its_config_file_before_reading_the_data(capsys, tmp_path, monkeypatch,
                                                             trained_ckpt, command, key,
                                                             value):
    """Every key on train and eval: a value outside its domain is a config error
    reported before the table is read, and one inside it runs."""
    monkeypatch.chdir(tmp_path)  # a path value names a file or directory in here
    inside = key in PATH_KEYS or value in INSIDE.get(key, ())
    settings = {"epochs": 1, "embeddings": TOY_EMB if inside else tmp_path / "missing.txt"}
    if command == "eval":
        settings["ckpt"] = trained_ckpt
    settings[key] = value
    code, out, err = run(capsys, command, "--config", small_config(tmp_path, **settings))
    assert "Traceback" not in err and "RuntimeWarning" not in err
    if not inside:
        field = "learning_rate" if key == "lr" else key
        assert code == 1
        assert "configuration error" in err and f"{field} must be" in err
        assert "missing.txt" not in err
    elif key in ("data", "embeddings") or (command, key) == ("eval", "ckpt"):
        assert code == 2
        assert "data error" in err and "does not exist" in err
    elif (command, key) == ("train", "val_size"):
        assert code == 1
        assert "validation set is empty" in err
    else:
        assert code == 0, err
        assert ("checkpoint written to" if command == "train" else "P\tR\tF1") in out


@pytest.mark.parametrize("command", ["train", "gradcheck", "energy"])
def test_a_negative_seed_is_a_config_error(capsys, tmp_path, trained_ckpt, command):
    code, out, err = run(capsys, command, "--config", small_config(tmp_path, ckpt=trained_ckpt),
                         "--seed", "-1")
    assert code == 1
    assert "configuration error: seed must be an integer >= 0, got -1" in err
    assert "Traceback" not in err and "\t" not in out


@pytest.mark.parametrize("asked", [{"time_steps": 10**7}, {"channels": 10**6}],
                         ids=["time_steps", "channels"])
def test_running_out_of_memory_is_a_config_error(tmp_path, asked):
    # the child caps its own address space at about 3 GB before numpy is imported,
    # so the tens of GiB asked for are refused without touching the host's memory
    child = ("import resource, sys; limit = 3 * 10**9; "
             "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
             "from spiketag.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-c", child, "train", "--config",
                           small_config(tmp_path, epochs=1, **asked)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("configuration error: out of memory: Unable to allocate")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "model.ckpt").exists()


def test_the_readme_lists_every_key_with_its_domain():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    for key, (_, f) in KEYS.items():
        assert f"- `{key}`: {f.metadata['domain']}" in readme, key


@pytest.mark.parametrize("cls, f", [
    pytest.param(cls, f, id=f"{cls.__name__}-{f.name}")
    for cls in (NetworkConfig, TrainConfig, RunConfig) for f in dataclasses.fields(cls)
])
def test_a_config_is_a_frozen_value_checked_when_made(cls, f):
    made = cls()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(made, f.name, getattr(made, f.name))
    if dataclasses.is_dataclass(f.type):  # a nested config was checked when it was made
        return
    outside = 1 if f.type is str else "x"  # the type is part of every domain
    with pytest.raises(ConfigError, match=f"^{f.name} must be .*, got {outside!r}$"):
        cls(**{f.name: outside})
    with pytest.raises(ConfigError, match=f"^{f.name} must be .*, got {outside!r}$"):
        dataclasses.replace(made, **{f.name: outside})


@pytest.mark.parametrize("parent", ["nodir", "a_file"])
def test_train_refuses_a_checkpoint_outside_a_directory_before_the_first_epoch(
        capsys, tmp_path, parent):
    (tmp_path / "a_file").write_text("not a directory\n")
    before = {"train.log": b"0\tprevious run\n", "model.ckpt": b"previous checkpoint"}
    for name, content in before.items():
        (tmp_path / name).write_bytes(content)
    ckpt = tmp_path / parent / "model.ckpt"
    code, out, err = run(capsys, "train", "--config", small_config(tmp_path),
                         "--ckpt", str(ckpt))
    assert code == 2
    assert "data error" in err and str(ckpt) in err
    assert "\t" not in out  # no epoch row
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


def test_train_on_a_zero_width_table_is_a_data_error_naming_it(capsys, tmp_path):
    table = tmp_path / "emb.txt"
    table.write_text("3 0\nwe\nloved\nit\n")
    code, _, err = run(capsys, "train", "--config", small_config(tmp_path),
                       "--embeddings", str(table))
    assert code == 2
    assert "data error" in err and str(table) in err
    assert not (tmp_path / "model.ckpt").exists()


def test_a_value_overflowing_float32_is_only_a_data_error_on_stderr(tmp_path):
    # a fresh interpreter, so numpy's warning would reach stderr as a user sees it
    table = tmp_path / "emb.txt"
    table.write_text("we 1 2\nloved 1e39 3\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "spiketag.cli", "eval", "--data", TOY_CORPUS,
         "--embeddings", str(table), "--ckpt", str(tmp_path / "model.ckpt")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"data error: {table}:2: non-finite vector value\n"


def test_a_non_finite_gradient_exits_three_naming_the_parameter(tmp_path):
    # a fresh interpreter, as a user runs it, so a numpy warning would reach stderr
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "spiketag.cli", "train", "--config",
         small_config(tmp_path, epochs=1, lr="1e38")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == "numeric error: non-finite gradient in 0.kernels\n"
    assert not (tmp_path / "model.ckpt").exists()


def test_non_finite_validation_scores_exit_three_without_a_checkpoint(tmp_path):
    # one step per epoch: the step's gradient is finite, but lr=1e38 leaves parameters
    # near float32's limit, and the validation pass's class scores overflow; with no
    # numpy warning on stderr, and no checkpoint of a run that scored nothing
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "spiketag.cli", "train", "--config",
         small_config(tmp_path, epochs=1, lr="1e38", batch_size=32)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric error: inference forward: ")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "model.ckpt").exists()


def test_a_failed_gradient_check_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(cli, "grad_check", lambda cfg, seed: 2e-4)
    code, out, err = run(capsys, "gradcheck")
    assert code == 3
    assert out.count("gradcheck\t") == 4 and "OK" not in out
    assert err == "FAIL max relative error 2.000e-04 >= 1e-04\n"


def test_any_other_package_error_exits_one(capsys, monkeypatch):
    def mismatched(cfg, seed):
        raise DimensionError("kernel (2, 2, 3) does not fit input (1, 3, 5)")

    monkeypatch.setattr(cli, "grad_check", mismatched)
    code, out, err = run(capsys, "gradcheck")
    assert code == 1
    assert err == "error: kernel (2, 2, 3) does not fit input (1, 3, 5)\n"


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: spiketag") and err == ""


COMMAND_FLAGS = {
    "train": ["--config", "--data", "--embeddings", "--ckpt", "--out", "--seed", "--lr",
              "--epochs", "--spike-mode", "--time-steps"],
    "eval": ["--config", "--data", "--embeddings", "--ckpt"],
    "predict": ["--config", "--embeddings", "--ckpt"],
    "energy": ["--config", "--data", "--embeddings", "--ckpt", "--seed", "--dnn-flops"],
    "gradcheck": ["--config", "--seed"],
    "inspect": ["--config", "--embeddings", "--ckpt"],
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_command_takes_only_the_flags_it_reads(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = [a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]
    assert [a.option_strings for a in flags] == [[flag] for flag in COMMAND_FLAGS[command]]
    # argparse's dest for a flag is the config key it overrides
    assert all(a.dest in KEYS for a in flags if a.dest not in ("config", "dnn_flops"))


@pytest.mark.parametrize("argv", [
    ["eval", "--time-steps", "4"],
    ["gradcheck", "--ckpt", "x"],
    ["predict", "in.txt", "--data", "x"],
    ["inspect", "we loved it", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_an_unread_flag_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert out == "" and "Traceback" not in err


def test_a_binary_checkpoint_holds_no_w_fv_neg_and_one_holding_it_is_refused(capsys,
                                                                             tmp_path):
    cfg_path = small_config(tmp_path, epochs=1, spike_mode="binary")
    assert run(capsys, "train", "--config", cfg_path)[0] == 0
    ckpt_path = str(tmp_path / "model.ckpt")
    ckpt = load(ckpt_path)
    assert {name for name in ckpt.tensors if "w_fv_neg" in name} == set()
    assert "1.w_fv_pos" in ckpt.tensors and "adam_m.1.w_fv_pos" in ckpt.tensors
    ckpt.tensors["1.w_fv_neg"] = np.ones((), np.float32)
    save(ckpt, ckpt_path)
    code, out, err = run(capsys, "inspect", "--config", cfg_path, "--ckpt", ckpt_path,
                         "we loved it")
    assert code == 2
    assert err == "data error: checkpoint holds tensor 1.w_fv_neg, which its network lacks\n"
