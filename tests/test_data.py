import numpy as np
import pytest

from spiketag.data import (
    LABEL_TO_ID,
    Example,
    batchify,
    embed_example,
    load_corpus,
    load_embeddings,
    split_validation,
    write_corpus,
)
from spiketag.errors import ConfigError, ParseError

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


def two_sentence_examples():
    return [
        Example(tokens=["a", "b", "c"], labels=["O", "B", "I"]),
        Example(tokens=["d", "e", "f", "g", "h"], labels=["O", "O", "B", "O", "O"]),
    ]


def table_for(tokens, dim=2):
    vectors = {t: np.full(dim, float(i + 1), dtype=np.float32)
               for i, t in enumerate(tokens)}
    from spiketag.data import EmbeddingTable

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
            assert np.array_equal(b.embeddings[row, :n], embed_example(ex, toy_table))
            assert b.labels[row, :n].tolist() == [LABEL_TO_ID[lab] for lab in ex.labels]


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
