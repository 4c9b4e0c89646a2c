import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import load_embeddings_line_by_line

from spiketag import data
from spiketag.data import (
    LABEL_TO_ID,
    EmbeddingTable,
    Example,
    batchify,
    load_corpus,
    load_embeddings,
    split_validation,
    write_corpus,
)
from spiketag.errors import ConfigError, ParseError
from spiketag.toygen import generate_embeddings, write_embedding_file

REVIEW1_TOKENS = ["it", "is", "super", "fast", "and", "has", "outstanding",
                  "graphics", "."]
REVIEW1_LABELS = ["O", "O", "O", "O", "O", "O", "O", "B", "O"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_review1_fixture(tmp_path):
    body = "\n".join(f"{t}\t{l}" for t, l in zip(REVIEW1_TOKENS, REVIEW1_LABELS))
    path = write(tmp_path, "r1.tsv", body + "\n")
    examples = load_corpus(path)
    assert len(examples) == 1
    assert examples[0].tokens == REVIEW1_TOKENS
    assert examples[0].labels == REVIEW1_LABELS


def test_load_empty_file(tmp_path):
    assert load_corpus(write(tmp_path, "empty.tsv", "")) == []


def test_load_rejects_bad_label(tmp_path):
    path = write(tmp_path, "bad.tsv", "foo\tX\n")
    with pytest.raises(ParseError) as err:
        load_corpus(path)
    assert "X" in str(err.value)
    assert err.value.line == 1


def test_load_rejects_malformed_line(tmp_path):
    with pytest.raises(ParseError):
        load_corpus(write(tmp_path, "bad.tsv", "token-without-label\n"))


def test_strict_rejects_leading_i_lenient_repairs(tmp_path):
    body = "a\tI\nb\tI\nc\tO\n"
    path = write(tmp_path, "lead.tsv", body)
    with pytest.raises(ParseError):
        load_corpus(path, mode="strict")
    examples = load_corpus(path, mode="lenient")
    assert examples[0].labels == ["B", "I", "O"]
    assert load_corpus.last_repairs == 1


@pytest.mark.parametrize("body, bad_line", [
    # an I after O in a middle sentence, followed by more sentences
    ("a\tO\nb\tB\n\nc\tO\nd\tI\ne\tO\n\nf\tB\n", 5),
    # an I after O on the last line of a file with no trailing blank line
    ("a\tB\n\nb\tO\nc\tO\nd\tI", 5),
    # a later malformed line in the same sentence does not take precedence
    ("a\tO\nb\tI\nc\tX\n", 2),
])
def test_strict_error_names_the_line_of_the_i(tmp_path, body, bad_line):
    path = write(tmp_path, "bio.tsv", body)
    with pytest.raises(ParseError) as err:
        load_corpus(path, mode="strict")
    assert err.value.line == bad_line
    assert "label I follows O" in str(err.value)


def test_corpus_round_trip(tmp_path, toy_corpus):
    path = tmp_path / "round.tsv"
    write_corpus(toy_corpus[:25], str(path))
    reloaded = load_corpus(str(path))
    assert reloaded == toy_corpus[:25]


def test_load_embeddings_basics(tmp_path):
    path = write(tmp_path, "emb.txt", "alpha 1 2 3\nbeta 4 5 6\n")
    table = load_embeddings(path)
    assert table.dim == 3
    assert np.allclose(table.lookup("alpha"), [1, 2, 3])
    assert np.allclose(table.lookup("beta"), [4, 5, 6])


def test_load_embeddings_header_and_duplicates(tmp_path):
    path = write(tmp_path, "emb.txt", "3 2\nx 1 0\nx 9 9\ny 0 1\n")
    table = load_embeddings(path)
    assert table.dim == 2
    assert np.allclose(table.lookup("x"), [1, 0])  # first occurrence wins
    assert table.duplicate_tokens == 1


def test_unk_is_mean_of_vectors(tmp_path):
    path = write(tmp_path, "emb.txt", "a 1 1\nb 2 2\nc 6 0\n")
    table = load_embeddings(path)
    assert np.allclose(table.unk, [3.0, 1.0])
    before = table.oov_tokens
    assert np.allclose(table.lookup("never-seen"), [3.0, 1.0])
    assert table.oov_tokens == before + 1


def test_lowercase_fallback(tmp_path):
    path = write(tmp_path, "emb.txt", "word 1 2\n")
    table = load_embeddings(path)
    assert np.allclose(table.lookup("Word"), [1, 2])
    assert table.oov_tokens == 0


def test_embeddings_inconsistent_length(tmp_path):
    path = write(tmp_path, "emb.txt", "a 1 2\nb 1 2 3\n")
    with pytest.raises(ParseError) as err:
        load_embeddings(path)
    assert err.value.line == 2


def outcome(load, path):
    """A parse's result as comparable values: the ParseError, or the table's bits."""
    try:
        table = load(path)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    return ("table", table.dim, table.duplicate_tokens, list(table.vectors),
            [(v.dtype, v.shape, v.tobytes()) for v in table.vectors.values()],
            (table.unk.dtype, table.unk.shape, table.unk.tobytes()))


def assert_parses_like_line_by_line(path, chunk_lines):
    expected = outcome(load_embeddings_line_by_line, path)
    with mock.patch.object(data, "CHUNK_LINES", chunk_lines):
        assert outcome(load_embeddings, path) == expected
    return expected


NUMERALS = st.one_of(
    st.integers(-999, 999).map(str),
    st.floats(-10, 10).map(lambda v: f"{v:.5f}"),
    st.floats(-10, 10).map(repr),
    st.floats(1e-30, 1e30).map(lambda v: f"{v:e}"),
)
ODD_VALUES = st.sampled_from([
    "nan", "-inf", "Infinity", "1e39", "-3.4e38", "1e-50", "1_0", "-2_5.5", "abc",
    "1.2.3", "0x10", "\u0661\u0662", "--1", "1e", ".", "#1",
])
SEPARATORS = st.sampled_from([" ", " ", "\t", "  ", " \t ", "\x0c", "\xa0", "\u3000"])


@st.composite
def embedding_files(draw):
    """Table text (with or without a header, blank lines, duplicates and
    mixed whitespace) whose values are mostly numerals, some odd."""
    dim = draw(st.integers(1, 3))
    lines = []
    header = draw(st.sampled_from([None, None, None, dim, dim, dim, dim + 1, 0, -dim, 10**12]))
    if header is not None:
        lines.append(f"{draw(st.integers(0, 9))} {header}")
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.integers(0, 39))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        token = draw(st.sampled_from(["w", "W", "x", "y", "z", "Zz", "3", "\u00e9"]))
        width = dim if kind > 1 else draw(st.sampled_from([0, dim - 1, dim + 1]))
        values = [draw(ODD_VALUES) if draw(st.integers(0, 24)) == 0 else draw(NUMERALS)
                  for _ in range(width)]
        sep = draw(SEPARATORS)
        lines.append(draw(SEPARATORS.filter(str.isspace)) * draw(st.integers(0, 1))
                     + sep.join([token] + values) + draw(st.sampled_from(["", " "])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=embedding_files(), chunk_lines=st.integers(1, 4))
def test_table_parse_matches_the_line_by_line_parser(table_dir, text, chunk_lines):
    path = table_dir / "table.txt"
    path.write_text(text, encoding="utf-8")
    assert_parses_like_line_by_line(str(path), chunk_lines)


@pytest.mark.parametrize("text, chunk_lines, bad_line", [
    # a bad value early in the pending chunk beats a later wrong-width duplicate
    ("a 1 2\nb 1 x\nc 3 4\na 1 2 3\n", 100, 2),
    # ... and a later line with no values at all
    ("a 1 2\nb inf 2\nc\n", 100, 2),
    # a non-finite value in one chunk beats a width error in the next
    ("a 1 2\nb 1 nan\nc 1 2 3\n", 2, 2),
    ("a 1 2\nb 1 2\nc 1e39 2\nd 1\n", 3, 3),
    # a value count error beats a bad value later in its chunk
    ("2 2\na 1 2\nb 1\nc x y\n", 100, 3),
    # a header's negative or huge dim is a value count error, not an allocation
    ("2 -2\na 1 2\n", 100, 2),
    ("2 1000000000000\na 1 2\n", 100, 2),
])
def test_table_errors_name_the_first_bad_line(tmp_path, text, chunk_lines, bad_line):
    path = write(tmp_path, "emb.txt", text)
    assert assert_parses_like_line_by_line(path, chunk_lines)[:2] == ("error", bad_line)


def test_numerals_only_python_reads_take_the_line_by_line_path(tmp_path):
    path = write(tmp_path, "emb.txt", "a 1_0 2\nb \u0663 -4_0.5\nc 1 2\n")
    expected = assert_parses_like_line_by_line(path, 2)
    assert expected[0] == "table"
    table = load_embeddings(path)
    assert table.lookup("a").tolist() == [10.0, 2.0]
    assert table.lookup("b").tolist() == [3.0, -40.5]


def test_single_column_unk_is_the_running_sum_not_the_pairwise_one(tmp_path):
    # a running float64 sum absorbs every 1 into 2**60; numpy's pairwise sum
    # of a single column adds the 1s up first
    column = np.array([2.0**60] + [1.0] * 1000 + [-(2.0**60)], dtype=np.float32)
    assert column[:, None].sum(axis=0, dtype=np.float64)[0] != 0.0
    text = "".join(f"t{i} {float(v)!r}\n" for i, v in enumerate(column))
    path = write(tmp_path, "emb.txt", text)
    assert assert_parses_like_line_by_line(path, 128)[0] == "table"
    assert load_embeddings(path).unk.tolist() == [0.0]


@pytest.mark.parametrize("text", ["a -0 1\nb -0.0 2\n", "a -0 1\n"])
def test_unk_of_a_column_of_negative_zeros_is_negative_zero(tmp_path, text):
    assert assert_parses_like_line_by_line(write(tmp_path, "emb.txt", text), 128)[0] == "table"
    assert np.signbit(load_embeddings(write(tmp_path, "emb.txt", text)).unk[0])


def test_fixture_table_parses_like_the_line_by_line_parser():
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "toy_embeddings.txt")
    assert_parses_like_line_by_line(fixture, data.CHUNK_LINES)
    assert_parses_like_line_by_line(fixture, 5)


@pytest.mark.parametrize("dim", [1, 16, 300])
def test_generated_table_has_the_unk_of_its_written_and_loaded_copy(tmp_path, dim):
    table = generate_embeddings(dim, seed=11)
    path = tmp_path / "emb.txt"
    write_embedding_file(table, path)
    loaded = load_embeddings(path)
    assert loaded.matrix[:-1].tobytes() == table.matrix[:-1].tobytes()
    assert loaded.unk.dtype == table.unk.dtype == np.float32
    assert loaded.unk.tobytes() == table.unk.tobytes()


def two_sentence_examples():
    return [
        Example(tokens=["a", "b", "c"], labels=["O", "B", "I"]),
        Example(tokens=["d", "e", "f", "g", "h"], labels=["O", "O", "B", "O", "O"]),
    ]


def table_for(tokens, dim=2):
    vectors = {t: np.full(dim, float(i + 1), dtype=np.float32)
               for i, t in enumerate(tokens)}
    return EmbeddingTable(dim=dim, vectors=vectors, unk=np.zeros(dim, np.float32))


def test_batchify_pads_to_batch_max():
    table = table_for("abcdefgh")
    batches = batchify(two_sentence_examples(), table, 2, rng=None)
    assert len(batches) == 1
    batch = batches[0]
    assert batch.embeddings.shape == (2, 5, 2)
    assert batch.mask.sum(axis=1).tolist() == [3.0, 5.0]
    assert not batch.embeddings[0, 3:].any()
    assert batch.labels[0, 3:].tolist() == [0, 0]


def test_batchify_single_sentence_batches():
    table = table_for("abcdefgh")
    batches = batchify(two_sentence_examples(), table, 1, rng=None)
    assert len(batches) == 2
    assert batches[0].embeddings.shape == (1, 3, 2)
    assert batches[1].embeddings.shape == (1, 5, 2)
    for batch in batches:
        assert batch.mask.all()


def test_batchify_masked_rows_exactly_zero(toy_corpus, toy_table):
    batches = batchify(toy_corpus[:16], toy_table, 4, np.random.default_rng(0))
    for batch in batches:
        pad = batch.mask == 0
        assert not batch.embeddings[pad].any()
        assert not batch.labels[pad].any()
        for i, row in enumerate(batch.mask):
            n = int(row.sum())
            assert row[:n].all() and not row[n:].any()


def test_batchify_keeps_short_final_batch(toy_corpus, toy_table):
    batches = batchify(toy_corpus[:5], toy_table, 2, rng=None)
    assert [b.labels.shape[0] for b in batches] == [2, 2, 1]


def test_batchify_deterministic_given_seed(toy_corpus, toy_table):
    b1 = batchify(toy_corpus[:20], toy_table, 4, np.random.default_rng(123))
    b2 = batchify(toy_corpus[:20], toy_table, 4, np.random.default_rng(123))
    for x, y in zip(b1, b2):
        assert np.array_equal(x.embeddings, y.embeddings)
        assert np.array_equal(x.labels, y.labels)


def test_batchify_inference_order_sorts_by_length_and_indexes_rows(toy_corpus, toy_table):
    examples = toy_corpus[:37]
    assert len({len(ex.tokens) for ex in examples}) > 1
    batches = batchify(examples, toy_table, 4)
    index = np.concatenate([b.index for b in batches]).tolist()
    assert sorted(index) == list(range(len(examples)))
    keys = [(len(examples[i].tokens), i) for i in index]
    assert keys == sorted(keys)  # by length, ties in input order
    widths = [b.mask.shape[1] for b in batches]
    assert widths == sorted(widths)
    for b in batches:
        for row, i in enumerate(b.index):
            ex = examples[i]
            n = len(ex.tokens)
            assert b.mask[row].sum() == n
            expected = np.stack([toy_table.lookup(t) for t in ex.tokens])
            assert np.array_equal(b.embeddings[row, :n], expected)
            assert b.labels[row, :n].tolist() == [LABEL_TO_ID[lab] for lab in ex.labels]


def test_batchify_counts_each_oov_occurrence(tmp_path):
    table = load_embeddings(write(tmp_path, "emb.txt", "word 1 2\nother 3 4\n"))
    examples = [Example(["word", "Word", "zzz", "ZZZ"], ["O"] * 4),
                Example(["OTHER", "zzz"], ["O"] * 2),
                Example(["oTher"], ["O"])]
    batches = batchify(examples, table, 2)  # padding is not looked up
    assert table.oov_tokens == 3
    emb = {int(i): b.embeddings[row] for b in batches for row, i in enumerate(b.index)}
    assert emb[0].tolist() == [[1, 2], [1, 2], [2, 3], [2, 3]]
    assert emb[1].tolist() == [[3, 4], [2, 3]]
    assert emb[2].tolist() == [[3, 4], [0, 0]]
    batchify(examples, table, 3, np.random.default_rng(0))
    assert table.oov_tokens == 6


def test_table_built_from_a_dict_batches_like_the_loaded_file(tmp_path, toy_corpus, toy_table):
    path = tmp_path / "toy.txt"
    write_embedding_file(toy_table, path)
    loaded = load_embeddings(str(path))
    assert list(loaded.vectors) == list(toy_table.vectors)
    assert loaded.matrix[:-1].tobytes() == toy_table.matrix[:-1].tobytes()
    examples = toy_corpus[:30] + [Example([t.upper() for t in toy_corpus[0].tokens],
                                          toy_corpus[0].labels)]
    for rng_seed in (None, 4):
        built, read = (batchify(examples, table, 4, rng_seed and np.random.default_rng(rng_seed))
                       for table in (toy_table, loaded))
        for x, y in zip(built, read, strict=True):
            assert np.array_equal(x.index, y.index)
            assert x.embeddings.tobytes() == y.embeddings.tobytes()
            assert np.array_equal(x.labels, y.labels) and np.array_equal(x.mask, y.mask)


def test_batchify_training_order_is_the_seeded_shuffle(toy_corpus, toy_table):
    order = list(range(20))
    np.random.default_rng(123).shuffle(order)
    batches = batchify(toy_corpus[:20], toy_table, 4, np.random.default_rng(123))
    assert np.concatenate([b.index for b in batches]).tolist() == order


def test_split_validation_sizes_and_disjoint():
    examples = [Example(tokens=[f"t{i}"], labels=["O"]) for i in range(3045)]
    train, val = split_validation(examples, 150, seed=0)
    assert len(train) == 2895 and len(val) == 150
    train_ids = {id(e) for e in train}
    val_ids = {id(e) for e in val}
    assert not train_ids & val_ids


def test_split_validation_identity_and_determinism(toy_corpus):
    train, val = split_validation(toy_corpus, 0, seed=5)
    assert train == list(toy_corpus) and val == []
    t1, v1 = split_validation(toy_corpus, 40, seed=9)
    t2, v2 = split_validation(toy_corpus, 40, seed=9)
    assert t1 == t2 and v1 == v2
    for seed in range(5):
        t, v = split_validation(toy_corpus, 40, seed=seed)
        assert len(v) == 40 and len(t) == 160


def test_split_validation_rejects_oversize(toy_corpus):
    with pytest.raises(ConfigError):
        split_validation(toy_corpus, len(toy_corpus), seed=0)
