"""Operator command line: train, eval, predict, energy, gradcheck, inspect.

Every subcommand reads an optional --config key=value file, applies the
flags it takes (only those it reads), echoes the effective configuration,
checks every key against its domain, and then runs. Exit codes: 0 success,
1 usage or configuration problem (running out of memory included), 2 data
problem, 3 numeric failure.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

from .data import (
    Example,
    batchify,
    load_corpus,
    load_embeddings,
    read_blocks,
    split_validation,
)
from .energy import dnn_energy, profile_network
from .errors import (
    CheckpointError,
    ConfigError,
    NumericError,
    ParseError,
    SpiketagError,
)
from .layers import forward
from .metrics import format_report
from .neuron import CENTERINGS, SPIKE_MODES
from .persistence import checkpoint_from_training, load, restore_network, save
from .runconfig import KEYS, build, load_config_file, parse
from .training import evaluate, grad_check, predict, tiny_gradcheck_config, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

GRADCHECK_TOLERANCE = 1e-4

# flag -> add_argument options; argparse's dest (--spike-mode: spike_mode) is its key,
# whose field type parses the value, as for a file value
FLAGS = {
    "--data": {"help": "corpus path (token<TAB>label)"},
    "--embeddings": {"help": "embedding table path"},
    "--ckpt": {"help": "checkpoint path"},
    "--out": {"help": "output directory"},
    "--seed": {}, "--lr": {}, "--epochs": {}, "--spike-mode": {}, "--time-steps": {},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spiketag",
        description="Spiking-network BIO aspect tagger: training, evaluation, "
        "prediction, energy profiling, gradient checks, spike inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, help, *flags):
        """The command's parser: --config, then the FLAGS it reads."""
        p = sub.add_parser(command, help=help)
        p.add_argument("--config", help="key=value configuration file")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        return p

    add("train", "train and write the best checkpoint", *FLAGS)
    add("eval", "score a checkpoint on a labeled corpus", "--data", "--embeddings", "--ckpt")
    add("predict", "label raw sentences", "--embeddings", "--ckpt").add_argument(
        "input", help="token-per-line sentences, blank-line separated")
    add("energy", "profile inference cost", "--data", "--embeddings", "--ckpt",
        "--seed").add_argument("--dnn-flops", type=float, help="print the dense-model "
                               "energy for this FLOP count and exit")
    add("gradcheck", "finite-difference gradient validation", "--seed")
    add("inspect", "per-token spike counts for one sentence", "--embeddings",
        "--ckpt").add_argument("sentence", help="whitespace-tokenized sentence")
    return parser


def effective_config(args):
    values = {key: f.default for key, (_, f) in KEYS.items()}
    if args.config:
        values.update(load_config_file(args.config))
    values.update((key, parse(key, flag)) for key, flag in vars(args).items()
                  if key in KEYS and flag is not None)
    print("\n".join(f"{key}={values[key]}" for key in sorted(values)))
    return build(values)


def require_path(path, what):
    if not path:
        raise ConfigError(f"no {what} path configured")
    if not os.path.exists(path):
        raise ParseError(f"{what} path does not exist", path=path)
    return path


def load_dataset(cfg):
    corpus = load_corpus(require_path(cfg.data, "corpus"), mode=cfg.corpus_mode)
    if not corpus:
        raise ParseError("corpus holds no sentences", path=cfg.data)
    table = load_embeddings(require_path(cfg.embeddings, "embeddings"))
    return corpus, table


def cmd_train(args):
    cfg = effective_config(args)
    net_cfg, train_cfg = cfg.network, cfg.train
    corpus, table = load_dataset(cfg)
    if net_cfg.embedding_dim and net_cfg.embedding_dim != table.dim:
        raise ConfigError(
            f"configured embedding_dim {net_cfg.embedding_dim} != table dim {table.dim}"
        )
    net_cfg = dataclasses.replace(net_cfg, embedding_dim=table.dim)
    train_set, val_set = split_validation(corpus, cfg.val_size, train_cfg.seed)
    out_dir = cfg.out or "."
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = cfg.ckpt or os.path.join(out_dir, "model.ckpt")
    ckpt_dir = os.path.dirname(ckpt_path) or "."
    if not os.path.isdir(ckpt_dir):
        raise CheckpointError(f"cannot write checkpoint {ckpt_path}: "
                              f"{ckpt_dir} is not a directory")
    log_path = os.path.join(out_dir, "train.log")
    log_mode = "w"  # the first epoch's row replaces a previous run's log

    def log_fn(row):
        nonlocal log_mode
        print(row)
        with open(log_path, log_mode, encoding="utf-8") as log_fh:
            log_fh.write(row + "\n")
        log_mode = "a"

    result = train(train_set, val_set, table, net_cfg, train_cfg, log_fn=log_fn)
    meta = {"epoch": result.best_epoch, "val_f1": result.best_f1,
            "seed": train_cfg.seed}
    save(
        checkpoint_from_training(result.best_params, net_cfg, train_cfg,
                                 result.best_opt_state, meta),
        ckpt_path,
    )
    print(f"checkpoint written to {ckpt_path} (best epoch {result.best_epoch}, "
          f"val_f1 {result.best_f1:.4f})")
    return EXIT_OK


def load_model(cfg, table):
    """The checkpoint's network and its config; the table must match its input width."""
    ckpt = load(require_path(cfg.ckpt, "checkpoint"))
    if table.dim != ckpt.net_cfg.embedding_dim:
        raise ParseError(
            f"embedding table dim {table.dim} != checkpoint embedding_dim "
            f"{ckpt.net_cfg.embedding_dim}", path=cfg.embeddings,
        )
    net, _ = restore_network(ckpt)
    return net, ckpt.net_cfg


def cmd_eval(args):
    cfg = effective_config(args)
    corpus, table = load_dataset(cfg)
    net, net_cfg = load_model(cfg, table)
    precision, recall, f1, tp, fp, fn = evaluate(corpus, table, net, net_cfg,
                                                 cfg.train.batch_size)
    print(format_report(precision, recall, f1, tp, fp, fn))
    return EXIT_OK


def cmd_predict(args):
    cfg = effective_config(args)
    table = load_embeddings(require_path(cfg.embeddings, "embeddings"))
    net, net_cfg = load_model(cfg, table)
    blocks = list(read_blocks(require_path(args.input, "input")))
    for line_no, line in (pair for block in blocks for pair in block):
        if "\t" in line.strip():  # its output line would have three columns
            raise ParseError("a predict input line holds a tab", path=args.input, line=line_no)
    sentences = [[line.strip() for _, line in block] for block in blocks]
    examples = [Example(tokens=toks, labels=["O"] * len(toks)) for toks in sentences]
    labels = dict(predict(examples, table, net, net_cfg, cfg.train.batch_size))
    for i, toks in enumerate(sentences):
        for tok, lab in zip(toks, labels[i]):
            print(f"{tok}\t{lab}")
        print()
    return EXIT_OK


def cmd_energy(args):
    flops = args.dnn_flops
    # copysign: "-0" would print as "-0.0000 mJ"
    if flops is not None and not (math.isfinite(flops) and math.copysign(1.0, flops) > 0):
        raise ConfigError(f"--dnn-flops must be a finite, non-negative count, got {flops}")
    cfg = effective_config(args)
    if flops is not None:
        print(f"{dnn_energy(flops) * 1e3:.4f} mJ")
        return EXIT_OK
    corpus, table = load_dataset(cfg)
    net, net_cfg = load_model(cfg, table)
    # gamma sample: the validation split when one fits, else the whole corpus
    n_val = cfg.val_size if cfg.val_size < len(corpus) else 0
    _, val_set = split_validation(corpus, n_val, cfg.train.seed)
    sample = val_set if val_set else corpus
    batch = batchify(sample, table, len(sample))[0]
    report = profile_network(net, batch, net_cfg)
    print(report.rows())
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args):
    cfg = effective_config(args)
    worst = 0.0
    for mode in SPIKE_MODES:
        for centering in CENTERINGS:
            err = grad_check(tiny_gradcheck_config(mode, centering),
                             seed=cfg.train.seed)
            print(f"gradcheck\t{mode}\t{centering}\t{err:.3e}")
            worst = max(worst, err)
    if worst >= GRADCHECK_TOLERANCE:
        print(f"FAIL max relative error {worst:.3e} >= {GRADCHECK_TOLERANCE:.0e}",
              file=sys.stderr)
        return EXIT_NUMERIC
    print(f"OK max relative error {worst:.3e}")
    return EXIT_OK


def cmd_inspect(args):
    cfg = effective_config(args)
    table = load_embeddings(require_path(cfg.embeddings, "embeddings"))
    net, net_cfg = load_model(cfg, table)
    tokens = args.sentence.split()
    if not tokens:
        raise ConfigError("inspect needs a non-empty sentence")
    batch = batchify([Example(tokens, ["O"] * len(tokens))], table, 1)[0]
    _, trace = forward(batch.embeddings, net, net_cfg, mask=batch.mask)
    final = trace.spk[-1]  # last spiking layer, (T, 1, R, C)
    pos = (final > 0).sum(axis=(0, 3))[0]
    neg = (final < 0).sum(axis=(0, 3))[0]
    print("token\tpos_spikes\tneg_spikes")
    for i, tok in enumerate(tokens):
        print(f"{tok}\t{int(pos[i])}\t{int(neg[i])}")
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "energy": cmd_energy,
    "gradcheck": cmd_gradcheck,
    "inspect": cmd_inspect,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:  # numpy's message names the array's shape and size
        print(f"configuration error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SpiketagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
