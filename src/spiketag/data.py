"""Corpus and embedding ingestion, batching, and train/validation splitting.

Corpus wire format: UTF-8 text, one "token<TAB>label" per line with labels
in {O, B, I}, blank line between sentences. Embedding files are text: an
optional "count dim" header line, then "token v1 ... vE" per line.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError

LABELS = ("O", "B", "I")
LABEL_TO_ID = {lab: i for i, lab in enumerate(LABELS)}


@dataclass
class Example:
    tokens: list
    labels: list  # strings from LABELS, same length as tokens


@dataclass
class EmbeddingTable:
    dim: int
    vectors: dict  # token -> np.ndarray (dim,)
    unk: np.ndarray
    oov_tokens: int = 0
    duplicate_tokens: int = 0

    def lookup(self, token):
        """Case-sensitive first, lowercase fallback, then the unk vector."""
        vec = self.vectors.get(token)
        if vec is None:
            vec = self.vectors.get(token.lower())
        if vec is None:
            self.oov_tokens += 1
            return self.unk
        return vec


@dataclass
class Batch:
    embeddings: np.ndarray  # (B, R_max, E) float32, zero rows at padding
    labels: np.ndarray      # (B, R_max) int64, 0 at padding
    mask: np.ndarray        # (B, R_max) float32, 1 on real tokens
    index: np.ndarray       # (B,) int64, position in `examples` of each row


def utf8_lines(path):
    """The lines of a UTF-8 text file; undecodable bytes are a ParseError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None


def read_blocks(path):
    """Blank-line separated blocks of a UTF-8 text file, each a list of
    (1-based line number, line without its newline) pairs."""
    block = []
    for line_no, line in enumerate(utf8_lines(path), start=1):
        line = line.rstrip("\n")
        if line.strip():
            block.append((line_no, line))
        elif block:
            yield block
            block = []
    if block:
        yield block


def load_corpus(path, mode="strict"):
    """Read token/label sentences; returns examples in file order.

    Lines are checked as they are read, so an error names the first bad
    line in the file. strict mode rejects an I that follows O or starts a
    sentence; lenient mode rewrites it to B (the repair count is tallied on
    the function attribute `last_repairs` for reporting).
    """
    if mode not in ("strict", "lenient"):
        raise ConfigError(f"unknown corpus mode {mode!r}")
    examples = []
    repairs = 0
    for block in read_blocks(path):
        tokens, labels = [], []
        prev = "O"
        for line_no, line in block:
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0]:
                raise ParseError(
                    f"expected 'token<TAB>label', got {line!r}", path=path, line=line_no
                )
            token, label = parts
            if label not in LABEL_TO_ID:
                raise ParseError(f"illegal label {label!r}", path=path, line=line_no)
            if label == "I" and prev == "O":
                if mode == "strict":
                    raise ParseError(
                        "label I follows O or sentence start", path=path, line=line_no
                    )
                label = "B"
                repairs += 1
            tokens.append(token)
            labels.append(label)
            prev = label
        examples.append(Example(tokens=tokens, labels=labels))
    load_corpus.last_repairs = repairs
    return examples


load_corpus.last_repairs = 0


def write_corpus(examples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            for token, label in zip(ex.tokens, ex.labels):
                fh.write(f"{token}\t{label}\n")
            fh.write("\n")


def load_embeddings(path):
    """Parse a text embedding table; unk is the mean of all loaded vectors."""
    vectors = {}
    dim = None
    duplicates = 0
    total = None
    for line_no, line in enumerate(utf8_lines(path), start=1):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        if line_no == 1 and len(parts) == 2:
            try:
                int(parts[0])
                dim = int(parts[1])
                continue  # header "count dim"
            except ValueError:
                pass
        token, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise ParseError("no vector values", path=path, line=line_no)
        if len(values) != dim:
            raise ParseError(
                f"expected {dim} values, got {len(values)}", path=path, line=line_no
            )
        if token in vectors:
            duplicates += 1
            continue  # keep the first occurrence
        try:
            vec = np.asarray([float(v) for v in values], dtype=np.float32)
        except ValueError:
            raise ParseError("non-numeric vector value", path=path, line=line_no)
        if not np.all(np.isfinite(vec)):
            raise ParseError("non-finite vector value", path=path, line=line_no)
        vectors[token] = vec
        if total is None:
            total = vec.astype(np.float64)
        else:
            total += vec
    if not vectors:
        raise ParseError("embedding file holds no vectors", path=path, line=0)
    unk = (total / len(vectors)).astype(np.float32)
    return EmbeddingTable(
        dim=dim, vectors=vectors, unk=unk, duplicate_tokens=duplicates
    )


def embed_example(ex, table):
    return np.stack([table.lookup(tok) for tok in ex.tokens]).astype(np.float32)


def batchify(examples, table, batch_size, rng=None):
    """Group examples into padded batches; each batch pads to its own max length.

    Pass a generator to shuffle first (training; deterministic for a given
    seed). rng=None is the inference order: examples are stably sorted by
    token count, so each batch holds sentences of similar length and pads
    little. Either way `batch.index` gives the position in `examples` of each
    row, which is how callers put results back in input order. Padded
    positions get zero embeddings, label 0, and mask 0.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if rng is None:
        order = sorted(range(len(examples)), key=lambda i: len(examples[i].tokens))
    else:
        order = list(range(len(examples)))
        rng.shuffle(order)
    batches = []
    for start in range(0, len(order), batch_size):
        index = np.asarray(order[start : start + batch_size], dtype=np.int64)
        chunk = [examples[i] for i in index]
        r_max = max(len(ex.tokens) for ex in chunk)
        b = len(chunk)
        emb = np.zeros((b, r_max, table.dim), dtype=np.float32)
        labels = np.zeros((b, r_max), dtype=np.int64)
        mask = np.zeros((b, r_max), dtype=np.float32)
        for i, ex in enumerate(chunk):
            n = len(ex.tokens)
            emb[i, :n] = embed_example(ex, table)
            labels[i, :n] = [LABEL_TO_ID[lab] for lab in ex.labels]
            mask[i, :n] = 1.0
        batches.append(Batch(embeddings=emb, labels=labels, mask=mask, index=index))
    return batches


def split_validation(examples, n_val, seed):
    """Seeded uniform held-out sample; both partitions keep corpus order."""
    if n_val < 0:
        raise ConfigError(f"validation size must be >= 0, got {n_val}")
    if n_val == 0:
        return list(examples), []
    if n_val >= len(examples):
        raise ConfigError(
            f"validation size {n_val} must be smaller than the corpus ({len(examples)})"
        )
    rng = np.random.default_rng([seed, 4])
    chosen = set(rng.choice(len(examples), size=n_val, replace=False).tolist())
    train = [ex for i, ex in enumerate(examples) if i not in chosen]
    val = [ex for i, ex in enumerate(examples) if i in chosen]
    return train, val
