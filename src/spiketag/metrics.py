"""BIO decoding, span extraction, and exact-match span-level P/R/F1.

Scoring is micro-averaged over the corpus: a predicted span counts only if
its (sentence, start, end) triple matches a gold span exactly.
"""

import numpy as np

from .data import LABELS


def decode_bio(prob_class, mask):
    """Per-token argmax labels; ties go to the smallest class index (O first).

    Returns one label-string list per sentence, padding dropped.
    """
    prob_class = np.asarray(prob_class)
    mask = np.asarray(mask)
    ids = prob_class.argmax(axis=-1)  # first max wins on ties
    out = []
    for i in range(ids.shape[0]):
        n = int(mask[i].sum())
        out.append([LABELS[c] for c in ids[i, :n]])
    return out


def extract_spans(labels):
    """(start, end) inclusive spans from a BIO sequence.

    A span opens at each B and extends through consecutive I. An I after O or
    at sentence start also opens a span (lenient handling of illegal decoder
    output); O closes any open span.
    """
    spans = []
    start = None
    for i, lab in enumerate(labels):
        if lab == "B":
            if start is not None:
                spans.append((start, i - 1))
            start = i
        elif lab == "I":
            if start is None:
                start = i
        else:
            if start is not None:
                spans.append((start, i - 1))
                start = None
    if start is not None:
        spans.append((start, len(labels) - 1))
    return spans


def span_counts(gold, pred):
    gold_set = set(gold)
    pred_set = set(pred)
    tp = len(gold_set & pred_set)
    return tp, len(pred_set) - tp, len(gold_set) - tp


def span_f1(gold, pred):
    """Exact-match precision, recall, F1 plus TP/FP/FN counts.

    Both empty means a perfect (vacuous) score of 1; one side empty scores 0.
    """
    tp, fp, fn = span_counts(gold, pred)
    if tp + fp == 0:
        precision = 1.0 if tp + fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if tp + fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1, tp, fp, fn


def format_report(precision, recall, f1, tp, fp, fn):
    return (
        f"P\tR\tF1\tTP\tFP\tFN\n"
        f"{precision:.4f}\t{recall:.4f}\t{f1:.4f}\t{tp}\t{fp}\t{fn}"
    )
