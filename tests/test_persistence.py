import dataclasses
import errno
import json
import os

import numpy as np
import pytest

from spiketag.cli import main
from spiketag.data import split_validation
from spiketag.errors import CheckpointError
from spiketag.layers import NetworkConfig, init_network
from spiketag import persistence
from spiketag.persistence import (
    MAGIC,
    Checkpoint,
    checkpoint_from_training,
    load,
    restore_network,
    save,
)
from spiketag.training import OptimizerState, TrainConfig, named_parameters, train

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def make_checkpoint(seed=0):
    net_cfg = NetworkConfig(embedding_dim=4, channels=3, n_spiking_conv=2)
    net = init_network(net_cfg, np.random.default_rng(seed), dtype=np.float32)
    opt = OptimizerState.for_network(net)
    opt.step = 17
    for name in opt.m:
        opt.m[name][...] = np.random.default_rng(1).normal(size=opt.m[name].shape)
    return checkpoint_from_training(net, net_cfg, TrainConfig(), opt,
                                    meta={"epoch": 3, "val_f1": 0.5, "seed": seed}), net


def test_round_trip_bit_exact(tmp_path):
    ckpt, net = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save(ckpt, str(path))
    loaded = load(str(path))
    assert loaded.version == ckpt.version
    assert loaded.net_cfg == ckpt.net_cfg
    assert loaded.train_cfg == ckpt.train_cfg
    assert loaded.meta["epoch"] == 3
    assert set(loaded.tensors) == set(ckpt.tensors)
    for name, arr in ckpt.tensors.items():
        stored = loaded.tensors[name]
        assert stored.dtype == np.float32
        assert np.array_equal(stored, np.asarray(arr, dtype=np.float32))
        assert stored.tobytes() == np.ascontiguousarray(arr, "<f4").tobytes()


def test_restore_network_reproduces_parameters(tmp_path):
    ckpt, net = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save(ckpt, str(path))
    restored, opt = restore_network(load(str(path)))
    for name, p in named_parameters(net).items():
        assert np.array_equal(p, named_parameters(restored)[name])
    assert opt.step == 17
    for name in opt.m:
        assert np.array_equal(opt.m[name], ckpt.tensors[f"adam_m.{name}"])


def test_bad_magic_rejected(tmp_path):
    ckpt, _ = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save(ckpt, str(path))
    blob = bytearray(path.read_bytes())
    blob[:8] = b"XXXXXXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load(str(path))


def test_unknown_version_rejected(tmp_path):
    ckpt, _ = make_checkpoint()
    ckpt.version = 99
    path = tmp_path / "model.ckpt"
    save(ckpt, str(path))
    with pytest.raises(CheckpointError, match="version"):
        load(str(path))


def test_truncated_payload_names_section(tmp_path):
    ckpt, _ = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save(ckpt, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 40])
    with pytest.raises(CheckpointError, match="payload"):
        load(str(path))


def test_truncated_header_names_section(tmp_path):
    ckpt, _ = make_checkpoint()
    path = tmp_path / "model.ckpt"
    save(ckpt, str(path))
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(CheckpointError, match="header"):
        load(str(path))


def test_magic_is_the_documented_eight_bytes(tmp_path):
    ckpt, _ = make_checkpoint()
    path = tmp_path / "m.ckpt"
    save(ckpt, str(path))
    assert path.read_bytes()[:8] == MAGIC == b"SPIKEAT1"


def test_resume_reproduces_uninterrupted_run(tmp_path, toy_corpus, toy_table):
    train_set, val_set = split_validation(toy_corpus[:30], 6, seed=2)
    net_cfg = NetworkConfig(embedding_dim=16, channels=4, n_spiking_conv=1,
                            time_steps=2)

    full_cfg = TrainConfig(epochs=4, seed=3)
    full = train(train_set, val_set, toy_table, net_cfg, full_cfg)

    half_cfg = TrainConfig(epochs=2, seed=3)
    half = train(train_set, val_set, toy_table, net_cfg, half_cfg)
    path = tmp_path / "mid.ckpt"
    save(checkpoint_from_training(half.params, net_cfg, half_cfg, half.opt_state),
         str(path))

    net, opt = restore_network(load(str(path)))
    resumed = train(train_set, val_set, toy_table, net_cfg,
                    TrainConfig(epochs=4, seed=3), net=net, opt_state=opt,
                    start_epoch=2)
    assert [r[1] for r in resumed.log_rows] == [r[1] for r in full.log_rows[2:]]
    for name, p in named_parameters(full.params).items():
        assert np.array_equal(p, named_parameters(resumed.params)[name])


def rewritten(path, edit):
    """Rewrite the checkpoint at path: edit(header, payload) changes its JSON
    header in place and returns the new payload."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + n])
    payload = edit(header, blob[16 + n :])
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + len(new).to_bytes(8, "little") + new + payload)
    return str(path)


def saved_with_header_edit(tmp_path, edit):
    """Save a checkpoint, then rewrite its JSON header with edit(header)."""
    ckpt, _ = make_checkpoint()
    path = tmp_path / "edited.ckpt"
    save(ckpt, str(path))

    def edit_header(header, payload):
        edit(header)
        return payload

    return rewritten(path, edit_header)


def assert_data_error(path, match, capsys):
    with pytest.raises(CheckpointError, match=match):
        load(path)
    code = main(["eval", "--data", os.path.join(FIXTURES, "toy40.tsv"),
                 "--embeddings", os.path.join(FIXTURES, "toy_embeddings.txt"),
                 "--ckpt", path])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error: ") and path in err and "Traceback" not in err


def test_header_without_tensor_manifest_rejected(tmp_path, capsys):
    path = saved_with_header_edit(tmp_path, lambda h: h.pop("tensors"))
    assert_data_error(path, "tensors", capsys)


def test_unknown_network_key_rejected(tmp_path, capsys):
    path = saved_with_header_edit(tmp_path, lambda h: h["network"].update(depth=9))
    assert_data_error(path, "depth", capsys)


def test_invalid_stored_network_config_rejected(tmp_path, capsys):
    path = saved_with_header_edit(tmp_path, lambda h: h["network"].update(time_steps=0))
    assert_data_error(path, "time_steps", capsys)


@pytest.mark.parametrize("section, key, value", [
    ("network", "v_thr", float("nan")), ("network", "decay_init", float("inf")),
    ("train", "adam_beta1", 1.0), ("train", "adam_eps", 0.0),
    # a stored value of the wrong type
    ("network", "time_steps", 6.5), ("network", "channels", 8.0), ("network", "kernel", True),
    ("train", "batch_size", 2.5),
    # an integer literal beyond float range
    pytest.param("network", "v_thr", 10**400, id="network-v_thr-1e400"),
    pytest.param("network", "decay_init", 10**400, id="network-decay_init-1e400"),
])
def test_stored_config_outside_the_trainable_range_rejected(tmp_path, capsys, section, key,
                                                            value):
    path = saved_with_header_edit(tmp_path, lambda h: h[section].update({key: value}))
    assert_data_error(path, key, capsys)


@pytest.mark.parametrize("section, key", [
    *(("network", f.name) for f in dataclasses.fields(NetworkConfig)),
    *(("train", f.name) for f in dataclasses.fields(TrainConfig)),
])
def test_stored_config_missing_a_field_rejected(tmp_path, capsys, section, key):
    # a missing field would otherwise load as the dataclass default
    path = saved_with_header_edit(tmp_path, lambda h: h[section].pop(key))
    assert_data_error(path, f"{section}.*{key}", capsys)


def test_tensor_named_twice_in_the_manifest_rejected(tmp_path, capsys):
    # the later entry would otherwise replace the earlier one unnoticed
    def duplicate_bias(header):
        kernels = next(e for e in header["tensors"] if e["name"] == "0.kernels")
        header["tensors"].append(dict(kernels, name="0.bias"))

    path = saved_with_header_edit(tmp_path, duplicate_bias)
    assert_data_error(path, "0.bias", capsys)


def toy40_checkpoint(tmp_path, edit):
    """A C=3 checkpoint that `spiketag eval` runs on the toy40 fixtures, saved
    and then rewritten by edit (see rewritten)."""
    net_cfg = NetworkConfig(embedding_dim=16, channels=3, n_spiking_conv=1)
    net = init_network(net_cfg, np.random.default_rng(0), dtype=np.float32)
    path = tmp_path / "toy40.ckpt"
    save(checkpoint_from_training(net, net_cfg, TrainConfig()), str(path))
    return rewritten(path, edit)


def entry(header, name):
    return next(e for e in header["tensors"] if e["name"] == name)


def trailing_bytes(header, payload):
    return payload + bytes(100)


def overlapping_bias(header, payload):
    entry(header, "0.bias")["offset"] -= 4  # its first float is the kernels' last
    return payload


def gap_before_bias(header, payload):
    bias = entry(header, "0.bias")["offset"]
    for e in header["tensors"]:
        e["offset"] += 4 * (e["offset"] >= bias)
    return payload[:bias] + bytes(4) + payload[bias:]


def wrapping_int64_size(header, payload):
    entry(header, "0.bias").update(shape=[2**62, 4], nbytes=0)
    return payload


def overflowing_c_long(header, payload):
    entry(header, "0.bias").update(shape=[2**70], nbytes=2**72)
    return payload


TILING = r"tensor 0\.bias starts at payload byte \d+, not \d+: the manifest's tensors must tile"


@pytest.mark.parametrize("edit, match", [pytest.param(*case, id=case[0].__name__) for case in [
    (trailing_bytes, r"100 payload bytes follow the end of the last tensor, 2\.bias$"),
    (overlapping_bias, TILING),
    (gap_before_bias, TILING),
    (wrapping_int64_size, r"tensor 0\.bias declares shape \(4611686018427387904, 4\) but 0 bytes"),
    (overflowing_c_long, r"truncated inside the payload at 0\.bias$"),
]])
def test_the_manifest_tiles_the_payload_exactly(tmp_path, capsys, edit, match):
    assert_data_error(toy40_checkpoint(tmp_path, edit), match, capsys)


def raw(blob):
    def write(tmp_path):
        (tmp_path / "raw.ckpt").write_bytes(blob)
        return str(tmp_path / "raw.ckpt")
    return write


def a_directory(tmp_path):
    (tmp_path / "model.ckpt").mkdir()
    return str(tmp_path / "model.ckpt")


def header_edit(edit):
    return lambda tmp_path: saved_with_header_edit(tmp_path, edit)


@pytest.mark.parametrize("write, match", [pytest.param(*case[1:], id=case[0]) for case in [
    ("a-directory", a_directory, "cannot read checkpoint"),
    ("truncated-before-header-length", raw(MAGIC + bytes(3)), "before the header length"),
    ("header-not-json", raw(MAGIC + (9).to_bytes(8, "little") + b"{not json"), "not valid JSON"),
    ("header-not-an-object", raw(MAGIC + (6).to_bytes(8, "little") + b"[1, 2]"),
     "not a JSON object"),
    ("nbytes-disagrees-with-shape", header_edit(lambda h: h["tensors"][1].update(nbytes=8)),
     "declares shape"),
    ("meta-not-a-dict", header_edit(lambda h: h.update(meta=[1])), "'meta' is not a dict"),
    ("entry-lacks-a-key", header_edit(lambda h: h["tensors"][0].pop("offset")),
     "malformed tensor manifest entry"),
    ("negative-shape", header_edit(lambda h: h["tensors"][0].update(shape=[-3, 4, 5])),
     "non-integer or negative shape"),
    ("non-integer-shape", header_edit(lambda h: h["tensors"][0].update(shape=[1.5])),
     "non-integer or negative shape"),
]])
def test_every_refused_checkpoint_is_a_data_error_naming_it(tmp_path, capsys, write, match):
    assert_data_error(write(tmp_path), match, capsys)


def test_checkpoint_of_a_run_with_no_epochs_rejected(tmp_path, capsys):
    path = saved_with_header_edit(tmp_path, lambda h: h["train"].update(epochs=0))
    assert_data_error(path, "epochs", capsys)


class DiskFullAfter:
    """A binary file whose writes stop with ENOSPC once `room` bytes are in."""

    def __init__(self, fh, room):
        self.fh = fh
        self.room = room

    def write(self, data):
        n = min(len(data), self.room)
        self.fh.write(data[:n])
        self.room -= n
        if n < len(data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def save_on_full_disk(monkeypatch, checkpoint, path):
    with monkeypatch.context() as patch:
        patch.setattr(persistence, "open",
                      lambda file, mode: DiskFullAfter(open(file, mode), 100),
                      raising=False)
        with pytest.raises(CheckpointError, match="model.ckpt"):
            save(checkpoint, path)


def test_failed_save_leaves_previous_checkpoint_and_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_on_full_disk(monkeypatch, make_checkpoint(seed=0)[0], str(path))
    assert os.listdir(tmp_path) == []

    save(make_checkpoint(seed=0)[0], str(path))
    before = path.read_bytes()
    save_on_full_disk(monkeypatch, make_checkpoint(seed=1)[0], str(path))
    assert os.listdir(tmp_path) == ["model.ckpt"]
    assert path.read_bytes() == before
    save(make_checkpoint(seed=1)[0], str(path))
    assert path.read_bytes() != before
