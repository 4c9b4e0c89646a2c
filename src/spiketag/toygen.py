"""Seeded synthetic corpus for smoke tests and the learning acceptance run.

Sentences come from a small trigger grammar over a 60-token vocabulary:
an opinion trigger is always followed by an aspect span of one to three
tokens (optional modifiers, then a head noun), embedded in filler words.
Aspect vocabulary never occurs outside spans, so the task is learnable by
a local model, while the B-versus-I distinction still requires context.
"""

import numpy as np

from .data import EmbeddingTable, Example, mean_vector

FILLERS = [
    "the", "a", "we", "i", "it", "was", "is", "and", "but", "with",
    "very", "really", "quite", "so", "too", "also", "had", "have",
    "this", "that", "for", "on", "at", "my", "our", "their", "again",
    "today",
]
TRIGGERS = ["loved", "hated", "liked", "disliked"]
NOUNS = [
    "battery", "screen", "keyboard", "pizza", "soup", "service",
    "design", "camera", "speaker", "coffee", "salad", "interface",
    "charger", "touchpad", "bread", "dessert",
]
MODIFIERS = [
    "thai", "crispy", "backlit", "retina", "wireless", "fried",
    "garlic", "style",
]
CLOSERS = [".", "!", "?", ";"]

VOCABULARY = FILLERS + TRIGGERS + NOUNS + MODIFIERS + CLOSERS  # 60 tokens

# A toy vector is EMBEDDING_SCALE * (its group's direction + EMBEDDING_NOISE *
# per-token noise); the scale keeps drives near the firing threshold, where
# the surrogate gradient is most informative.
EMBEDDING_SCALE = 0.3
EMBEDDING_NOISE = 0.35


def _fillers(rng, low, high):
    n = int(rng.integers(low, high + 1))
    return [FILLERS[i] for i in rng.integers(0, len(FILLERS), size=n)]


def _aspect_span(rng):
    n_mod = int(rng.integers(0, 3))
    toks = [MODIFIERS[i] for i in rng.integers(0, len(MODIFIERS), size=n_mod)]
    toks.append(NOUNS[int(rng.integers(0, len(NOUNS)))])
    return toks


def generate_corpus(n_sentences, seed):
    """Deterministic list of Examples; ~10% of sentences carry no aspect."""
    rng = np.random.default_rng([seed, 7])
    examples = []
    for _ in range(n_sentences):
        draw = rng.random()
        n_spans = 0 if draw < 0.1 else (2 if draw > 0.9 else 1)
        tokens = _fillers(rng, 2, 5)
        labels = ["O"] * len(tokens)
        for _ in range(n_spans):
            trigger = TRIGGERS[int(rng.integers(0, len(TRIGGERS)))]
            tokens.append(trigger)
            labels.append("O")
            span = _aspect_span(rng)
            tokens.extend(span)
            labels.extend(["B"] + ["I"] * (len(span) - 1))
            tail = _fillers(rng, 1, 3)
            tokens.extend(tail)
            labels.extend(["O"] * len(tail))
        closer = CLOSERS[int(rng.integers(0, len(CLOSERS)))]
        tokens.append(closer)
        labels.append("O")
        examples.append(Example(tokens=tokens, labels=labels))
    return examples


def generate_embeddings(dim, seed):
    """Embedding table over the toy vocabulary.

    Each word-class group (filler/trigger/noun/modifier/closer) shares a
    common direction plus per-token Gaussian noise, mimicking how distributional
    embeddings cluster by syntactic role.
    """
    rng = np.random.default_rng([seed, 8])
    groups = (FILLERS, TRIGGERS, NOUNS, MODIFIERS, CLOSERS)
    vectors = {}
    for group in groups:
        center = rng.normal(0.0, 1.0, size=dim)
        for tok in group:
            vec = EMBEDDING_SCALE * (center + EMBEDDING_NOISE * rng.normal(0.0, 1.0, size=dim))
            vectors[tok] = vec.astype(np.float32)
    unk = mean_vector(np.stack(list(vectors.values())))
    return EmbeddingTable(dim=dim, vectors=vectors, unk=unk)


def write_embedding_file(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.vectors)} {table.dim}\n")
        for tok, vec in table.vectors.items():
            values = " ".join(repr(float(v)) for v in vec)
            fh.write(f"{tok} {values}\n")
