"""Golden outputs: the bytes a fixed set of runs writes and prints.

An 8-run toy40 training matrix (ternary/binary x C=8/32 x adam/sgd, two
spiking convs, 3 epochs, val_size=8) runs in process through cli.main. For
each run fixtures/golden.json holds the SHA-256 of model.ckpt and the
train.log text. It also holds the stdout of eval, predict, energy and inspect
on one ternary and one binary checkpoint, the stdout of gradcheck, and the
environment that recorded them: numpy version, BLAS name and version, CPU
model. Paths in the stdout are written as <tmp> and <fixtures>.

train.log is compared everywhere: at C <= 32 it does not move with the BLAS
thread count. Checkpoint hashes and stdout are compared only on the recording
environment; elsewhere that test is skipped, its reason naming both
environments. A change that moves any byte regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile

import numpy as np
import pytest

from spiketag.cli import main
from spiketag.data import load_corpus

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden.json")
TOY_CORPUS = os.path.join(FIXTURES, "toy40.tsv")
TOY_EMB = os.path.join(FIXTURES, "toy_embeddings.txt")
RUNS = [f"{mode}-c{channels}-{optimizer}" for mode in ("ternary", "binary")
        for channels in (8, 32) for optimizer in ("adam", "sgd")]
READ_ONLY_RUNS = ("ternary-c32-adam", "binary-c32-adam")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu}


def run_command(*argv):
    """stdout of one successful command, which must print nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def record(tmp):
    """Run the matrix and the read-only commands under directory tmp;
    returns what golden.json holds."""
    def portable(text):
        return text.replace(tmp, "<tmp>").replace(FIXTURES, "<fixtures>")

    runs = {}
    for name in RUNS:
        mode, channels, optimizer = name.split("-")
        out = os.path.join(tmp, name)
        os.makedirs(out)
        settings = {"data": TOY_CORPUS, "embeddings": TOY_EMB, "out": out,
                    "ckpt": os.path.join(out, "model.ckpt"), "spike_mode": mode,
                    "channels": channels[1:], "n_spiking_conv": 2, "optimizer": optimizer,
                    "lr": 0.01, "epochs": 3, "val_size": 8}
        with open(os.path.join(out, "run.cfg"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{key}={value}\n" for key, value in settings.items())
        run_command("train", "--config", os.path.join(out, "run.cfg"))
        with open(settings["ckpt"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(out, "train.log"), encoding="utf-8") as fh:
            runs[name] = {"model.ckpt sha256": digest, "train.log": fh.read()}

    sentences = [ex.tokens for ex in load_corpus(TOY_CORPUS)]
    raw = os.path.join(tmp, "sentences.txt")
    with open(raw, "w", encoding="utf-8") as fh:
        fh.writelines("".join(f"{tok}\n" for tok in toks) + "\n" for toks in sentences)
    stdout = {"gradcheck": run_command("gradcheck")}
    for name in READ_ONLY_RUNS:
        config = ("--config", os.path.join(tmp, name, "run.cfg"))
        for command, *rest in (("eval",), ("predict", raw), ("energy",),
                               ("inspect", " ".join(sentences[0]))):
            stdout[f"{command} {name}"] = portable(run_command(command, *config, *rest))
    return {"environment": environment(), "runs": runs, "stdout": stdout}


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return record(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_train_log_matches_the_golden_file(observed, golden):
    logs = {name: run["train.log"] for name, run in observed["runs"].items()}
    assert logs == {name: run["train.log"] for name, run in golden["runs"].items()}


def test_checkpoints_and_stdout_match_the_golden_file_on_its_recording_environment(
        observed, golden):
    if observed["environment"] != golden["environment"]:
        pytest.skip(f"only train.log compared: recorded on {golden['environment']}, "
                    f"running on {observed['environment']}")
    hashes = {name: run["model.ckpt sha256"] for name, run in observed["runs"].items()}
    assert hashes == {name: run["model.ckpt sha256"] for name, run in golden["runs"].items()}
    assert observed["stdout"] == golden["stdout"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        content = record(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(content, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
