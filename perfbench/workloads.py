"""The three benchmark workloads.

Each one drives spiketag through the entry points the CLI uses
(`data.load_*`, `persistence.load`/`save`, `training.train`,
`training.evaluate`, `energy.profile_network`); the training loop itself is
never re-implemented here. Training runs one `training.train` call per
epoch, resuming from the previous epoch's network and optimizer state, which
replays exactly the batches a single multi-epoch call would see.

A run has a fixed minimum of work (it fixes the quality figures and the
traced run) and, untraced, keeps adding epochs or passes until --seconds
have gone by. In the traced run even-numbered units (epochs, sweep rounds,
inference passes) are traced and odd ones are not, so the tracing overhead
is measured on the same process and inputs.
"""

import copy
import dataclasses
import statistics
import time
from contextlib import contextmanager

import numpy as np

import inputs
from spiketag import data, energy, layers, metrics, persistence, training
from spiketag.errors import ValidationError
from spiketag.layers import NetworkConfig, init_network
from spiketag.training import OptimizerState, TrainConfig
from tracer import LayerTracer, Recorder, clock_bindings

C5_BAR = 0.90


@dataclasses.dataclass
class Model:
    """One network being trained, with the state its next epoch resumes from."""

    name: str
    net_cfg: NetworkConfig
    train_cfg: TrainConfig
    net: list
    opt: OptimizerState
    best_f1: float = -1.0
    best_net: list = None
    rows: list = dataclasses.field(default_factory=list)


class Run:
    def __init__(self, seed, seconds, trace, work):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = LayerTracer() if trace else None
        self.units = []          # (kind, traced, clock Recorder, model name)
        self.epoch_s = []
        self.setup_s = []
        self.checks = []         # (name, ok, detail)
        self.info = {}

    @contextmanager
    def unit(self, kind, traced, group):
        clock = Recorder()
        clock.install(clock_bindings(clock))
        if traced:
            self.tracer.install()
        try:
            yield
        finally:
            if traced:
                self.tracer.uninstall()
            clock.uninstall()
            self.units.append((kind, traced, clock, group))

    @contextmanager
    def traced(self):
        """Trace set-up and bookkeeping calls in the traced run only."""
        if self.tracer is None:
            yield
            return
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def keep_going(self, done, minimum, t_start):
        """Fixed minimum first; untraced runs then fill --seconds."""
        if done < minimum:
            return True
        return not self.trace and time.perf_counter() - t_start < self.seconds


def _timed_setup(run, fn):
    """One set-up repetition; setup_s is the median over a run's repetitions."""
    t0 = time.perf_counter()
    with run.traced():
        result = fn()
    run.setup_s.append(time.perf_counter() - t0)
    return result


def _setup_burst(run, fn):
    """SETUP_BURST more (discarded) set-ups between timed units, untraced runs only."""
    if not run.trace:
        for _ in range(SETUP_BURST):
            _timed_setup(run, fn)


def _new_model(name, net_cfg, train_cfg):
    net = init_network(net_cfg, np.random.default_rng([train_cfg.seed, 1]), dtype=np.float32)
    return Model(name, net_cfg, train_cfg, net, OptimizerState.for_network(net))


def _warmup_step(run, model, examples, table):
    """Time one training step on a throwaway copy before any timed unit.

    With two BLAS threads a fresh process's first backward stalled for
    about a second, too unsteady to sit inside setup_s or the step figures.
    """
    batch = data.batchify(examples[: model.train_cfg.batch_size], table,
                          model.train_cfg.batch_size)[0]
    net = copy.deepcopy(model.net)
    opt = OptimizerState.for_network(net)
    t0 = time.perf_counter()
    _, trace = layers.forward(batch.embeddings, net, model.net_cfg, mask=batch.mask)
    training.cross_entropy(trace.prob_class, batch.labels, batch.mask)
    grads = training.backward(trace, batch.labels, batch.mask, net, model.net_cfg)
    training.optimizer_step(net, grads, opt, model.train_cfg)
    run.info.setdefault("warmup_step_s", time.perf_counter() - t0)


def _train_epoch(run, model, train_set, val_set, table, epoch, traced):
    cfg = dataclasses.replace(model.train_cfg, epochs=epoch + 1)
    t0 = time.perf_counter()
    with run.unit("train", traced, model.name):
        result = training.train(train_set, val_set, table, model.net_cfg, cfg,
                                net=model.net, opt_state=model.opt, start_epoch=epoch)
    elapsed = time.perf_counter() - t0
    row = result.log_rows[-1]
    model.rows.append(row)
    if row[4] > model.best_f1:
        model.best_f1 = row[4]
        model.best_net = result.best_params
    return elapsed


def _check_batch(run, model_name, net, net_cfg, batch):
    """Output checks on one batch, outside every timed unit."""
    t_steps = net_cfg.time_steps
    real = batch.mask > 0
    prob, trace = layers.forward(batch.embeddings, net, net_cfg, mask=batch.mask,
                                 checked=True)
    run.check(f"{model_name}: sequence length preserved",
              prob.shape == batch.labels.shape + (layers.N_CLASSES,), str(prob.shape))
    sums = prob.sum(axis=-1)[real]
    run.check(f"{model_name}: prob_class sums to T per real token",
              np.allclose(sums, t_steps, atol=1e-4),
              f"max |sum - T| = {float(np.max(np.abs(sums - t_steps))):.2e}")
    try:
        for spikes in trace.spk:
            for spk in spikes:
                layers.validate_spike_alphabet(spk, net_cfg.spike_mode)
        run.check(f"{model_name}: spikes in the {net_cfg.spike_mode} alphabet", True)
    except ValidationError as exc:
        run.check(f"{model_name}: spikes in the {net_cfg.spike_mode} alphabet", False, str(exc))
    rows = metrics.decode_bio(prob, batch.mask)
    n_tok = batch.mask.sum(axis=1).astype(int).tolist()
    run.check(f"{model_name}: one label per input token",
              len(rows) == len(n_tok) and all(len(r) == n for r, n in zip(rows, n_tok)))
    loss = training.cross_entropy(prob, batch.labels, batch.mask)
    grads = training.backward(trace, batch.labels, batch.mask, net, net_cfg)
    run.check(f"{model_name}: loss and gradients finite",
              np.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads.values()),
              f"loss {loss:.6f}")


def _roundtrip(run, model, net, path):
    """Save `net` as the CLI saves its best network, load it back, compare tensors."""
    meta = {"val_f1": model.best_f1, "seed": run.seed}
    with run.traced():
        persistence.save(persistence.checkpoint_from_training(
            net, model.net_cfg, model.train_cfg, model.opt, meta), path)
        loaded, _ = persistence.restore_network(persistence.load(path))
    same = all(np.array_equal(a, b) for a, b in zip(
        training.named_parameters(net).values(), training.named_parameters(loaded).values()))
    run.check(f"{model.name}: checkpoint round trip is exact", same)


def _profile(run, net, net_cfg, batch):
    """One energy profile outside the timed units; returns per-layer gamma."""
    with run.traced():
        report = energy.profile_network(net, batch, net_cfg)
    return {f"L{i}": (lp.gamma, lp.gamma_neg) for i, lp in enumerate(report.layers[:-1])}


def _data_counts(run, examples, table, batch_size):
    """OOV share of one embedding pass over `examples` (EmbeddingTable.oov_tokens)."""
    before = table.oov_tokens
    batches = data.batchify(examples, table, batch_size)
    tokens = sum(float(b.mask.sum()) for b in batches)
    run.info["oov_rate"] = (table.oov_tokens - before) / tokens
    return batches


# --- workloads -----------------------------------------------------------
#
# Inference passes, set-up repetitions (and, on infer-wide, training epochs)
# are interleaved through the whole run rather than run in one block, so
# every figure averages over the same stretch of machine time: on a shared
# host, speed flips by 30% and more every few seconds. Besides the one that
# starts a run, set-ups run in the untraced run only: SETUP_BURST of them
# after each epoch or round (one after each pass on infer-wide, whose set-up
# takes over a second). Run back to back at the start, all of a run's
# set-ups would sample one moment of the host.

SETUP_BURST = 3
TOY_MIN_EPOCHS = 4
SWEEP_ROUNDS = 20
SWEEP_EVAL_EVERY = 4     # rounds between corpus evaluate passes
SWEEP_SHAPES = [("ternary", 6), ("ternary", 4), ("binary", 6), ("binary", 4)]
WIDE_CKPT_EPOCHS = 2
WIDE_MIN_PASSES = 2
WIDE_BATCH = 32


def _load_toy(run, corpus_path, emb_path):
    corpus = data.load_corpus(corpus_path)
    table = data.load_embeddings(emb_path)
    train_set, val_set = inputs.split(corpus)
    return corpus, table, train_set, val_set


def _eval_pass(run, model, corpus, table, traced):
    """`spiketag eval` on the whole corpus: the train workloads' inference figures.

    The 40-sentence validation split is too small for them: five batches
    an epoch are too few samples for a steady median.
    """
    with run.unit("infer", traced, model.name):
        training.evaluate(corpus, table, model.net, model.net_cfg, model.train_cfg.batch_size)


def train_toy(run):
    """Criterion-5 configuration: ternary, C=128, T=6, K=5, 3 convs, batch 8."""
    run.info["primary_unit"] = "train"
    _, corpus_path, emb_path = inputs.toy_files(run.work, run.seed, 16)

    def setup():
        corpus, table, train_set, val_set = _load_toy(run, corpus_path, emb_path)
        net_cfg = NetworkConfig(embedding_dim=table.dim)
        model = _new_model("ternary C128 T6", net_cfg, TrainConfig(seed=run.seed))
        return corpus, table, train_set, val_set, model

    corpus, table, train_set, val_set, model = _timed_setup(run, setup)
    _warmup_step(run, model, train_set, table)
    t_start = time.perf_counter()
    epoch = 0
    while run.keep_going(epoch, TOY_MIN_EPOCHS, t_start):
        run.epoch_s.append(_train_epoch(run, model, train_set, val_set, table, epoch,
                                        run.trace and epoch % 2 == 0))
        _eval_pass(run, model, corpus, table, run.trace and epoch % 2 == 0)
        epoch += 1
        _setup_burst(run, setup)

    quality = model.rows[:TOY_MIN_EPOCHS]
    run.info["val_f1"] = max(row[4] for row in quality)
    run.info["train_loss"] = quality[-1][1]
    run.check(f"train-toy reaches the criterion-5 bar (best val F1 >= {C5_BAR})",
              run.info["val_f1"] >= C5_BAR, f"{run.info['val_f1']:.4f}")
    _roundtrip(run, model, model.best_net, run.work / "model.ckpt")
    val_batch = _data_counts(run, val_set, table, len(val_set))[0]
    run.info["gamma"] = _profile(run, model.net, model.net_cfg, val_batch)
    _check_batch(run, model.name, model.net, model.net_cfg, val_batch)


def sweep_narrow(run):
    """Criterion-6 shapes back to back: C=32, {ternary, binary} x {T=6, T=4}."""
    run.info["primary_unit"] = "train"
    _, corpus_path, emb_path = inputs.toy_files(run.work, run.seed, 16)

    def setup():
        corpus, table, train_set, val_set = _load_toy(run, corpus_path, emb_path)
        models = [
            _new_model(f"{mode} C32 T{t}",
                       NetworkConfig(embedding_dim=table.dim, channels=32,
                                     spike_mode=mode, time_steps=t),
                       TrainConfig(seed=run.seed))
            for mode, t in SWEEP_SHAPES
        ]
        return corpus, table, train_set, val_set, models

    corpus, table, train_set, val_set, models = _timed_setup(run, setup)
    for model in models:
        _warmup_step(run, model, train_set, table)
    t_start = time.perf_counter()
    rnd = passes = 0
    while run.keep_going(rnd, SWEEP_ROUNDS, t_start):
        traced = run.trace and rnd % 2 == 0
        spent = sum(_train_epoch(run, m, train_set, val_set, table, rnd, traced)
                    for m in models)
        run.epoch_s.append(spent / len(models))
        rnd += 1
        if rnd % SWEEP_EVAL_EVERY == 0:
            for model in models:
                _eval_pass(run, model, corpus, table, run.trace and passes % 2 == 0)
            passes += 1
        _setup_burst(run, setup)

    run.info["val_f1"] = statistics.fmean(
        max(row[4] for row in m.rows[:SWEEP_ROUNDS]) for m in models)
    run.info["train_loss"] = statistics.fmean(m.rows[SWEEP_ROUNDS - 1][1] for m in models)
    val_batch = _data_counts(run, val_set, table, len(val_set))[0]
    gammas = []
    for i, model in enumerate(models):
        _roundtrip(run, model, model.best_net, run.work / f"model{i}.ckpt")
        gammas.append(_profile(run, model.net, model.net_cfg, val_batch))
        _check_batch(run, model.name, model.net, model.net_cfg, val_batch)
    run.info["gamma"] = {
        label: tuple(statistics.fmean(g[label][j] for g in gammas) for j in (0, 1))
        for label in gammas[0]
    }


def infer_wide(run):
    """Forward-only tagging of long held-out inputs with an E=300 checkpoint.

    The checkpoint is an input: the best network of the first
    WIDE_CKPT_EPOCHS epochs of an E=300 training run. In the untraced run
    that training goes on, one epoch after each inference pass, only to time
    the train_* figures of this configuration, and each pass is also
    followed by one more (discarded) set-up repetition.
    """
    run.info["primary_unit"] = "infer"
    corpus = inputs.matched_corpus(inputs.CORPUS_SENTENCES, run.seed)
    train_table, emb_path = inputs.wide_table(run.work, run.seed)
    heldout_path = inputs.heldout_file(run.work, run.seed)
    ckpt_path = run.work / "model.ckpt"

    train_set, val_set = inputs.split(corpus)
    model = _new_model("ternary C128 T6 E300", NetworkConfig(embedding_dim=inputs.WIDE_DIM),
                       TrainConfig(seed=run.seed))
    _warmup_step(run, model, train_set, train_table)

    def train_one_epoch():
        epoch = len(model.rows)
        run.epoch_s.append(_train_epoch(run, model, train_set, val_set, train_table,
                                        epoch, run.trace and epoch % 2 == 0))

    for _ in range(WIDE_CKPT_EPOCHS):
        train_one_epoch()
    run.info["train_loss"] = model.rows[-1][1]
    _roundtrip(run, model, model.best_net, ckpt_path)

    def setup():
        table = data.load_embeddings(emb_path)
        heldout = data.load_corpus(heldout_path)
        net, _ = persistence.restore_network(ckpt := persistence.load(ckpt_path))
        return table, heldout, net, ckpt.net_cfg

    table, heldout, net, net_cfg = _timed_setup(run, setup)
    results = []
    t_start = time.perf_counter()
    while run.keep_going(len(results), WIDE_MIN_PASSES, t_start):
        with run.unit("infer", run.trace and len(results) % 2 == 0, "infer-wide"):
            results.append(training.evaluate(heldout, table, net, net_cfg, WIDE_BATCH))
        if not run.trace:
            train_one_epoch()
            _timed_setup(run, setup)

    run.info["val_f1"] = results[0][2]
    run.check("infer-wide: every pass gives the same P/R/F1 and counts",
              all(r == results[0] for r in results), str(results[0]))
    first = _data_counts(run, heldout, table, WIDE_BATCH)[0]
    run.info["gamma"] = _profile(run, net, net_cfg, first)
    _check_batch(run, "infer-wide", net, net_cfg, first)


WORKLOADS = {
    "train-toy": train_toy,
    "sweep-narrow": sweep_narrow,
    "infer-wide": infer_wide,
}
