import numpy as np
import pytest

from oracles import render_bio
from spiketag.metrics import (
    decode_bio,
    extract_spans,
    format_report,
    span_f1,
)

REVIEW2_LABELS = ["O", "B", "I", "I", "O", "O", "O", "O", "O", "O", "O", "O",
                  "O", "O", "O", "B", "I", "O"]


def one_hot_probs(labels, scale=1.0):
    ids = {"O": 0, "B": 1, "I": 2}
    out = np.zeros((1, len(labels), 3))
    for j, lab in enumerate(labels):
        out[0, j, ids[lab]] = scale
    return out


def test_decode_one_hot_reproduces_labels():
    prob = one_hot_probs(REVIEW2_LABELS, scale=6.0)
    mask = np.ones((1, len(REVIEW2_LABELS)))
    assert decode_bio(prob, mask) == [REVIEW2_LABELS]


def test_decode_tie_prefers_outside():
    prob = np.ones((1, 2, 3)) * 0.7
    assert decode_bio(prob, np.ones((1, 2))) == [["O", "O"]]


def test_decode_drops_masked_positions():
    prob = one_hot_probs(["B", "I", "O", "O"])
    mask = np.asarray([[1.0, 1.0, 0.0, 0.0]])
    assert decode_bio(prob, mask) == [["B", "I"]]


def test_extract_review1_span():
    labels = ["O", "O", "O", "O", "O", "O", "O", "B", "O"]
    assert extract_spans(labels) == [(7, 7)]


def test_extract_review2_spans():
    assert extract_spans(REVIEW2_LABELS) == [(1, 3), (15, 16)]


def test_extract_lenient_leading_i():
    assert extract_spans(["I", "I", "O"]) == [(0, 1)]
    assert extract_spans(["O", "I", "O"]) == [(1, 1)]


def test_extract_adjacent_and_trailing_spans():
    assert extract_spans(["B", "B", "I"]) == [(0, 0), (1, 2)]
    assert extract_spans(["O", "B", "I"]) == [(1, 2)]
    assert extract_spans(["B"]) == [(0, 0)]


def test_render_then_extract_is_identity():
    rng = np.random.default_rng(3)
    for _ in range(200):
        length = int(rng.integers(1, 15))
        spans = []
        pos = 0
        while pos < length:
            if rng.random() < 0.4:
                end = min(length - 1, pos + int(rng.integers(0, 3)))
                spans.append((pos, end))
                pos = end + 2
            else:
                pos += 1
        labels = render_bio(spans, length)
        assert extract_spans(labels) == spans


def test_span_f1_review3_exact_match_scores_zero():
    gold = [(0, 3, 7)]  # "thai style fried sea bass"
    pred = [(0, 5, 7)]  # "fried sea bass" only
    precision, recall, f1, tp, fp, fn = span_f1(gold, pred)
    assert (precision, recall, f1) == (0.0, 0.0, 0.0)
    assert (tp, fp, fn) == (0, 1, 1)


def test_span_f1_perfect_and_partial():
    gold = [(0, 0, 1), (0, 4, 4)]
    assert span_f1(gold, list(gold))[:3] == (1.0, 1.0, 1.0)
    precision, recall, f1, *_ = span_f1(gold, [(0, 0, 1)])
    assert precision == 1.0
    assert recall == 0.5
    assert f1 == pytest.approx(2 / 3)


def test_span_f1_degenerate_conventions():
    assert span_f1([], [])[:3] == (1.0, 1.0, 1.0)
    assert span_f1([(0, 1, 2)], [])[:3] == (0.0, 0.0, 0.0)
    assert span_f1([], [(0, 1, 2)])[:3] == (0.0, 0.0, 0.0)


def test_swapping_gold_and_pred_swaps_p_and_r():
    rng = np.random.default_rng(11)
    for _ in range(50):
        gold = {(0, int(s), int(s) + int(rng.integers(0, 3)))
                for s in rng.integers(0, 30, size=rng.integers(0, 6))}
        pred = {(0, int(s), int(s) + int(rng.integers(0, 3)))
                for s in rng.integers(0, 30, size=rng.integers(0, 6))}
        p1, r1, f1_a, *_ = span_f1(sorted(gold), sorted(pred))
        p2, r2, f1_b, *_ = span_f1(sorted(pred), sorted(gold))
        assert p1 == pytest.approx(r2)
        assert r1 == pytest.approx(p2)
        assert f1_a == pytest.approx(f1_b)
        for v in (p1, r1, f1_a):
            assert 0.0 <= v <= 1.0


def test_report_format():
    report = format_report(0.5, 0.25, 1 / 3, 1, 1, 3)
    lines = report.split("\n")
    assert lines[0] == "P\tR\tF1\tTP\tFP\tFN"
    assert lines[1] == "0.5000\t0.2500\t0.3333\t1\t1\t3"
