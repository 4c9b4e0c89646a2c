"""Corpus and embedding ingestion, batching, and train/validation splitting.

Corpus wire format: UTF-8 text, one "token<TAB>label" per line with labels
in {O, B, I}, blank line between sentences. Embedding files are text: an
optional "count dim" header line, then "token v1 ... vE" per line.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError

LABELS = ("O", "B", "I")
CORPUS_MODES = ("strict", "lenient")
LABEL_TO_ID = {lab: i for i, lab in enumerate(LABELS)}
# Table lines per np.loadtxt call. This bounds loadtxt's float64 copy and the
# pending value text; each parsed chunk then goes straight into the table.
CHUNK_LINES = 2048


@dataclass
class Example:
    tokens: list
    labels: list  # strings from LABELS, same length as tokens


@dataclass
class EmbeddingTable:
    """Token vectors as the rows of one (V + 1, dim) float32 matrix.

    Row `rows[token]` of `matrix` is that token's vector and the last row is
    `unk`. A table built from a token -> vector dict stacks it once; pass
    `matrix` (the vectors' rows, then unk's) to adopt it without a copy.
    Either way `vectors` and `unk` are then row views of `matrix`.
    """

    dim: int
    vectors: dict  # token -> (dim,) float32
    unk: np.ndarray
    oov_tokens: int = 0
    duplicate_tokens: int = 0
    matrix: np.ndarray = field(default=None, repr=False)
    rows: dict = field(init=False, repr=False)  # token -> row of matrix

    def __post_init__(self):
        if self.matrix is None:
            self.matrix = np.stack([*self.vectors.values(), self.unk], dtype=np.float32)
        self.rows = {tok: i for i, tok in enumerate(self.vectors)}
        self.vectors = dict(zip(self.rows, self.matrix))
        self.unk = self.matrix[-1]

    def row(self, token):
        """Case-sensitive first, lowercase fallback, then the unk row (an OOV token)."""
        i = self.rows.get(token)
        if i is None:
            i = self.rows.get(token.lower())
        if i is None:
            self.oov_tokens += 1
            return len(self.rows)
        return i


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
    sentence; lenient mode rewrites it to B.
    """
    if mode not in CORPUS_MODES:
        raise ConfigError(f"unknown corpus mode {mode!r}")
    examples = []
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
            tokens.append(token)
            labels.append(label)
            prev = label
        examples.append(Example(tokens=tokens, labels=labels))
    return examples


def write_corpus(examples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            for token, label in zip(ex.tokens, ex.labels):
                fh.write(f"{token}\t{label}\n")
            fh.write("\n")


def load_embeddings(path):
    """Parse a text embedding table; unk is the mean of all loaded vectors.

    Lines are checked in file order, so an error names the first bad line:
    every line's value count, and a first occurrence's values (numeric and
    finite; a duplicate token keeps its first vector). numpy's C parser
    reads the values CHUNK_LINES lines at a time, as float64 rounded to
    float32 like Python's float(). A chunk it rejects is re-read line by
    line with float(), which names the bad line or accepts a numeral numpy
    does not read (such as "1_0"). Each parsed chunk is written into the one
    table matrix, which grows as chunks arrive; a header's count sizes nothing.
    """
    rows = {}  # token -> row, first occurrences in file order
    dim = None
    duplicates = 0
    matrix = None  # (capacity, dim) float32; rows :len(rows) - len(pending) are parsed
    pending = []  # (line number, value text) of first occurrences not yet parsed
    for line_no, line in enumerate(utf8_lines(path), start=1):
        parts = line.split(None, 1)
        if not parts:
            continue
        if line_no == 1 and len(line.split()) == 2:
            try:
                _, dim = int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:  # header "count dim"
                if dim < 1:
                    raise ParseError(f"header dim {dim} is below 1", path=path, line=line_no)
                continue
        token = parts[0]
        rest = parts[1] if len(parts) == 2 else ""
        if dim is None:
            dim = len(rest.split())
            if dim == 0:
                raise ParseError("no vector values", path=path, line=line_no)
        duplicate = token in rows
        if duplicate or not rest:  # loadtxt counts the other lines' values
            count = len(rest.split())
            if count != dim:
                if pending:
                    _parse_values(pending, dim, path)  # an earlier bad line comes first
                raise _width_error(dim, count, path, line_no)
            if duplicate:
                duplicates += 1
                continue  # keep the first occurrence
        rows[token] = len(rows)
        pending.append((line_no, rest))
        if len(pending) == CHUNK_LINES:
            matrix = _store(matrix, len(rows) - len(pending), _parse_values(pending, dim, path))
            pending = []
    if pending:
        matrix = _store(matrix, len(rows) - len(pending), _parse_values(pending, dim, path))
    if not rows:
        raise ParseError("embedding file holds no vectors", path=path, line=0)
    if len(matrix) != len(rows) + 1:
        matrix.resize((len(rows) + 1, dim), refcheck=False)  # no view of it exists
    matrix[-1] = mean_vector(matrix[:-1])
    return EmbeddingTable(dim=dim, vectors=dict(zip(rows, matrix)), unk=matrix[-1],
                          duplicate_tokens=duplicates, matrix=matrix)


def _store(matrix, at, values):
    """matrix with values written from row `at`, allocated or grown to fit
    them and a spare row for unk.

    The first chunk allocates its rows and unk's. A matrix that is full grows
    by a quarter, or to fit the chunk if that is more; load_embeddings trims
    the spare rows at the end.
    """
    n, dim = values.shape
    need = at + n + 1
    if matrix is None:
        matrix = np.empty((need, dim), dtype=np.float32)
    elif need > len(matrix):
        matrix.resize((max(need, len(matrix) + len(matrix) // 4), dim), refcheck=False)
    matrix[at:at + n] = values
    return matrix


def mean_vector(vectors):
    """The float32 unk of an (N, dim) stack of float32 vectors: their mean,
    summed in row order as a running float64 total."""
    # -0.0 is the identity that keeps an all -0.0 column's sign, and a single
    # column's sum would be pairwise
    if vectors.shape[1] == 1:
        total = np.cumsum(vectors[:, 0], dtype=np.float64)[-1:]
    else:
        total = vectors.sum(axis=0, dtype=np.float64, initial=-0.0)
    return (total / len(vectors)).astype(np.float32)


def _width_error(dim, count, path, line_no):
    return ParseError(f"expected {dim} values, got {count}", path=path, line=line_no)


def _parse_values(pending, dim, path):
    """(len(pending), dim) float32 values of (line number, value text) pairs."""
    try:
        values = np.loadtxt([rest for _, rest in pending], dtype=np.float64,
                            comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is not None and values.shape == (len(pending), dim):
        with np.errstate(over="ignore"):  # float32 overflow is caught as non-finite
            values = values.astype(np.float32)
        if np.isfinite(values).all():
            return values
    out = []  # allocated as lines pass, so a header's bad dim cannot size it
    for line_no, rest in pending:
        fields = rest.split()
        if len(fields) != dim:
            raise _width_error(dim, len(fields), path, line_no)
        try:
            with np.errstate(over="ignore"):  # float32 overflow is caught as non-finite
                vec = np.asarray([float(v) for v in fields], dtype=np.float32)
        except ValueError:
            raise ParseError("non-numeric vector value", path=path, line=line_no)
        if not np.all(np.isfinite(vec)):
            raise ParseError("non-finite vector value", path=path, line=line_no)
        out.append(vec)
    return np.stack(out)


def batchify(examples, table, batch_size, rng=None):
    """Group examples into padded batches; each batch pads to its own max length.

    Pass a generator to shuffle first (training; deterministic for a given
    seed). rng=None is the inference order: examples are stably sorted by
    token count, so each batch holds sentences of similar length and pads
    little. Either way `batch.index` gives the position in `examples` of each
    row, which is how callers put results back in input order. Padded
    positions get zero embeddings, label 0, and mask 0.
    """
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
        rows = np.zeros((b, r_max), dtype=np.intp)
        labels = np.zeros((b, r_max), dtype=np.int64)
        mask = np.zeros((b, r_max), dtype=np.float32)
        for i, ex in enumerate(chunk):
            n = len(ex.tokens)
            rows[i, :n] = [table.row(tok) for tok in ex.tokens]
            labels[i, :n] = [LABEL_TO_ID[lab] for lab in ex.labels]
            mask[i, :n] = 1.0
        emb = table.matrix[rows]
        emb[mask == 0] = 0.0
        batches.append(Batch(embeddings=emb, labels=labels, mask=mask, index=index))
    return batches


def split_validation(examples, n_val, seed):
    """Seeded uniform held-out sample; both partitions keep corpus order."""
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
