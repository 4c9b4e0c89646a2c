"""Seeded benchmark inputs, written as the files a user would hand the CLI.

Everything here is a function of the run's --seed. Sentences come from
spiketag's toy grammar; the wide embedding table adds synthetic words so its
size (and parse time) resembles a real pretrained table.

Only the content changes with the seed, not the shapes: every corpus has
the sentence lengths, in order, of the reference seed's corpus, so padded
batch shapes (and with them the work per epoch and per batch) are the same
for every seed. Left to the seed, the median padded batch length of a
corpus pass moved in whole tokens, between 12 and 15, and the per-batch
figures moved with it.
"""

from collections import Counter

import numpy as np

from spiketag import data, toygen
from spiketag.data import EmbeddingTable, Example

REFERENCE_SEED = 11
CORPUS_SENTENCES = 200
VAL_SENTENCES = 40
HELDOUT_SEED_OFFSET = 7919

WIDE_DIM = 300
WIDE_WORDS = 20000
HELDOUT_INPUTS = 256
VALUE_DECIMALS = 5
CAPITALISE_P = 0.012     # per token; lookups fall back to lowercase
EXTRA_WORD_P = 0.08      # per joined sentence, one extra word before its closer


def matched_corpus(n_sentences, seed, reference_seed=REFERENCE_SEED):
    """Toy sentences drawn with `seed`, with the lengths of `reference_seed`'s.

    Sentence i has the length of sentence i of the reference corpus; it is
    the next unused sentence of that length in the seed's own stream. For
    the reference seed this is exactly `toygen.generate_corpus`.
    """
    want = [len(ex.tokens) for ex in toygen.generate_corpus(n_sentences, reference_seed)]
    need = Counter(want)
    size = 8 * n_sentences
    while True:
        by_len = {}
        for ex in toygen.generate_corpus(size, seed):
            by_len.setdefault(len(ex.tokens), []).append(ex)
        if all(len(by_len.get(n, ())) >= k for n, k in need.items()):
            break
        size *= 2
    picks = {n: iter(exs) for n, exs in by_len.items()}
    return [next(picks[n]) for n in want]


def split(corpus):
    """Validation split at the reference seed's positions, so its shapes are fixed too."""
    return data.split_validation(corpus, VAL_SENTENCES, REFERENCE_SEED)


def toy_files(work, seed, dim):
    """200-sentence toy corpus and a toy-vocabulary table of width `dim`."""
    corpus = matched_corpus(CORPUS_SENTENCES, seed)
    corpus_path = work / "corpus.tsv"
    emb_path = work / f"emb{dim}.txt"
    data.write_corpus(corpus, corpus_path)
    toygen.write_embedding_file(toygen.generate_embeddings(dim, seed), emb_path)
    return corpus, corpus_path, emb_path


def wide_table(work, seed):
    """Write a WIDE_WORDS x WIDE_DIM text table; return it and its path.

    The toy vocabulary keeps its clustered vectors (so the task stays
    learnable); the rest are synthetic words with unclustered vectors of the
    same scale. Values are written with VALUE_DECIMALS decimals and the
    returned table holds exactly the float32 values a parse would give.
    Its unk vector is the plain mean, which training never uses (the toy
    corpus has no OOV token); inference loads the file.
    """
    rng = np.random.default_rng([seed, 21])
    toy = toygen.generate_embeddings(WIDE_DIM, seed)
    step = 10.0 ** -VALUE_DECIMALS
    limit = 1.5
    grid = np.arange(-round(limit / step), round(limit / step) + 1) * step
    text = np.array([f"{v:.{VALUE_DECIMALS}f}" for v in grid], dtype=object)
    values = np.array([float(s) for s in text], dtype=np.float32)

    def quantise(vec):
        idx = np.rint(np.clip(vec, -limit, limit) / step).astype(np.int64)
        return idx + (len(grid) - 1) // 2

    rows = [(tok, quantise(vec)) for tok, vec in toy.vectors.items()]
    scale = float(np.std(np.stack(list(toy.vectors.values()))))
    synth = rng.normal(0.0, scale, size=(WIDE_WORDS - len(rows), WIDE_DIM))
    rows.extend((f"syn{i:05d}", quantise(vec)) for i, vec in enumerate(synth))

    path = work / f"emb{WIDE_DIM}.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {WIDE_DIM}\n")
        for tok, idx in rows:
            fh.write(tok + " " + " ".join(text[idx]) + "\n")
    vectors = {tok: values[idx] for tok, idx in rows}
    unk = np.mean(np.stack(list(vectors.values())), axis=0).astype(np.float32)
    return EmbeddingTable(dim=WIDE_DIM, vectors=vectors, unk=unk), path


def heldout_file(work, seed):
    """Long held-out inputs: 2-6 fresh toy sentences joined per input.

    Lengths vary in file order, so batches carry padding. About 1% of tokens
    are capitalised; before some sentence closers an extra O-labelled word is
    inserted, half from the synthetic part of the table, half unseen. The
    sentences per input and where extra words go are drawn with the
    reference seed, so input lengths do not change with the seed.
    """
    rng = np.random.default_rng([seed, 22])
    shape_rng = np.random.default_rng([REFERENCE_SEED, 22])
    counts = shape_rng.integers(2, 7, size=HELDOUT_INPUTS)
    pool = matched_corpus(int(counts.sum()), seed + HELDOUT_SEED_OFFSET,
                          REFERENCE_SEED + HELDOUT_SEED_OFFSET)
    inputs = []
    pos = 0
    for n in counts:
        tokens, labels = [], []
        for ex in pool[pos:pos + n]:
            toks = [t.capitalize() if rng.random() < CAPITALISE_P else t for t in ex.tokens]
            labs = list(ex.labels)
            if shape_rng.random() < EXTRA_WORD_P:
                if rng.random() < 0.5:
                    extra = f"syn{int(rng.integers(0, WIDE_WORDS - len(toygen.VOCABULARY))):05d}"
                else:
                    extra = f"unseen{int(rng.integers(0, 10**6))}"
                toks.insert(len(toks) - 1, extra)
                labs.insert(len(labs) - 1, "O")
            tokens.extend(toks)
            labels.extend(labs)
        pos += n
        inputs.append(Example(tokens=tokens, labels=labels))
    path = work / "heldout.tsv"
    data.write_corpus(inputs, path)
    return path
