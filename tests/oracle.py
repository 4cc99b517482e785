"""Independent reference implementations used as test oracles.

Nothing here imports from promptloop: hashing, embedding, cosine, archive
selection and sentence segmentation are re-derived from their definitions so
the tests check the package against genuinely separate code.
"""

import math
import statistics


def fnv1a64_ref(data: bytes) -> int:
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) % 2**64
    return h


def bigram_counts_ref(text: str, dim: int) -> list[float]:
    raw = text.encode("utf-8")
    vec = [0.0] * dim
    for a, b in zip(raw, raw[1:]):
        vec[fnv1a64_ref(bytes((a, b))) % dim] += 1.0
    return vec


def embed_ref(text: str, dim: int) -> list[float]:
    vec = bigram_counts_ref(text, dim)
    norm = math.sqrt(sum(x * x for x in vec))
    if norm == 0.0:
        return vec
    return [x / norm for x in vec]


def cosine_ref(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def corpus_score_ref(text: str, documents: list[str], dim: int = 64) -> float:
    cand = embed_ref(text, dim)
    return statistics.mean(cosine_ref(cand, embed_ref(doc, dim)) for doc in documents)


def top_k_ref(stream, k):
    """Brute-force top-k of a score stream; earlier arrivals win ties.

    ``stream`` is a list of scores in arrival order; returns the selected
    (arrival_index, score) pairs ranked best first.
    """
    indexed = list(enumerate(stream))
    ranked = sorted(indexed, key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


def bottom_k_ref(stream, k):
    indexed = list(enumerate(stream))
    ranked = sorted(indexed, key=lambda pair: (pair[1], pair[0]))
    return ranked[:k]


_TERMINATORS = ".!?"


def segment_ref(text: str) -> tuple[str, ...]:
    """Sentence split, one character at a time: a sentence ends at '.', '!'
    or '?' followed by whitespace and an uppercase letter or digit.

    Raises ValueError on whitespace-only text.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("cannot segment whitespace-only text")
    sentences: list[str] = []
    buffer: list[str] = []
    i = 0
    n = len(stripped)
    while i < n:
        char = stripped[i]
        buffer.append(char)
        i += 1
        if char in _TERMINATORS:
            j = i
            while j < n and stripped[j].isspace():
                j += 1
            if j > i and j < n and (stripped[j].isupper() or stripped[j].isdigit()):
                sentences.append("".join(buffer).strip())
                buffer = []
                i = j
    tail = "".join(buffer).strip()
    if tail:
        sentences.append(tail)
    return tuple(sentences)
