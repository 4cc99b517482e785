import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeResponse, make_corpus, write_corpus_file
from oracle import corpus_score_ref, embed_ref
from promptloop.errors import CorpusError, DegenerateInputError, DimensionMismatchError
from promptloop.gateway import BackendDescriptor, HttpBackend, MockBackend
from promptloop.scoring import (
    EMBED_BATCH,
    CorpusEvaluator,
    EmbeddingCache,
    ReferenceCorpus,
    corpus_score,
    cosine,
    load_corpus,
)

# Two strings whose bigram-count vectors give exact cosines 0.8 and 0.6
# against the pure-"aa" candidate "aaa" (norms 5, 5, and 2).
DOC_COS_08 = "aaaaabbaba"
DOC_COS_06 = "aaaabcbcbaba"


def component_vectors(dim):
    """Vectors whose nonzero components sit in a range where squaring neither
    underflows nor overflows, so norm arithmetic stays well-conditioned."""
    magnitude = st.floats(min_value=1e-3, max_value=1e6)
    component = st.one_of(st.just(0.0), st.builds(lambda m, s: m * s, magnitude, st.sampled_from([-1.0, 1.0])))
    return st.lists(component, min_size=dim, max_size=dim)


class TestCosine:
    def test_identical_direction(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_small_integer_example(self):
        expected = 32 / math.sqrt(1078)
        assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.974631846, abs=1e-9)
        assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(expected, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DegenerateInputError):
            cosine([1.0, 0.0], [0.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_antiparallel_clamped_to_minus_one(self):
        assert cosine([1e-8, 1.0], [-1e-8, -1.0]) >= -1.0

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(min_value=2, max_value=64).flatmap(
            lambda d: st.tuples(component_vectors(d), component_vectors(d))
        )
    )
    def test_symmetry_and_range(self, pair):
        u, v = pair
        if not any(u) or not any(v):
            return
        left = cosine(u, v)
        right = cosine(v, u)
        assert left == right
        assert -1.0 <= left <= 1.0

    @settings(max_examples=500, deadline=None)
    @given(
        component_vectors(3),
        component_vectors(3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_positive_scale_invariance(self, u, v, a, b):
        if not any(u) or not any(v):
            return
        base = cosine(u, v)
        scaled = cosine([a * x for x in u], [b * x for x in v])
        assert scaled == pytest.approx(base, abs=1e-9)


class TestCorpusScore:
    def test_mean_of_two_known_cosines(self, cache):
        corpus = make_corpus(cache, [DOC_COS_08, DOC_COS_06])
        assert corpus_score("aaa", corpus, cache) == 0.7

    def test_identical_single_document_scores_one(self, cache):
        corpus = make_corpus(cache, ["Der Patient ist stabil."])
        assert corpus_score("Der Patient ist stabil.", corpus, cache) == 1.0

    def test_matches_bruteforce_oracle(self, cache):
        corpus = make_corpus(cache, ["abab", "zzzz"])
        got = corpus_score("abab", corpus, cache)
        assert got == pytest.approx(corpus_score_ref("abab", ["abab", "zzzz"]), abs=1e-12)

    def test_empty_candidate_rejected(self, cache):
        corpus = make_corpus(cache)
        with pytest.raises(DegenerateInputError):
            corpus_score("", corpus, cache)

    def test_zero_embedding_candidate_rejected(self, cache):
        corpus = make_corpus(cache)
        with pytest.raises(DegenerateInputError):
            corpus_score("x", corpus, cache)

    def test_mock_scores_stay_in_unit_interval(self, cache):
        corpus = make_corpus(cache)
        for text in ("abc", "Der Brief.", "zzzz", "Entlassung morgen"):
            assert 0.0 <= corpus_score(text, corpus, cache) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(list(range(4))))
    def test_permutation_invariance(self, order):
        cache = EmbeddingCache(MockBackend(BackendDescriptor()))
        texts = ["Der Patient.", "Die Entlassung.", "Befund folgt.", "Alles stabil."]
        base = corpus_score("Der Befund.", make_corpus(cache, texts), cache)
        permuted = corpus_score("Der Befund.", make_corpus(cache, [texts[i] for i in order]), cache)
        assert permuted == base

    def test_cache_transparency(self, mock_backend):
        texts = ["Der Patient.", "Die Entlassung."]
        cold = EmbeddingCache(mock_backend)
        score_cold = corpus_score("Befund da.", make_corpus(cold, texts), cold)
        warm = EmbeddingCache(mock_backend)
        corpus = make_corpus(warm, texts)
        first = corpus_score("Befund da.", corpus, warm)
        second = corpus_score("Befund da.", corpus, warm)
        assert score_cold == first == second

    def test_cache_hit_identical_to_fresh_embed(self, mock_backend):
        cache = EmbeddingCache(mock_backend)
        hit = cache.embed_one("Der Patient.")
        again = cache.embed_one("Der Patient.")
        fresh = mock_backend.embed(["Der Patient."])[0]
        assert np.array_equal(hit, again)
        assert np.array_equal(hit, fresh)
        assert len(cache) == 1


class TestReferenceCorpus:
    def test_length_mismatch_rejected(self, cache):
        with pytest.raises(CorpusError):
            ReferenceCorpus(documents=["a b"], embeddings=[])

    def test_zero_document_embedding_rejected(self, cache):
        with pytest.raises(DegenerateInputError):
            ReferenceCorpus(documents=["x"], embeddings=[np.zeros(8)])

    def test_dimension_disagreement_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ReferenceCorpus(
                documents=["ab", "cd"], embeddings=[np.ones(4), np.ones(8)]
            )

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            ReferenceCorpus(documents=[], embeddings=[])


class TestLoadCorpus:
    def test_truncation_to_max_documents(self, tmp_path, cache):
        path = write_corpus_file(tmp_path, ["Eins zwei.", "Drei vier.", "Fünf sechs."])
        corpus = load_corpus(path, cache, max_documents=2)
        assert corpus.documents == ["Eins zwei.", "Drei vier."]

    def test_empty_file_rejected(self, tmp_path, cache):
        path = write_corpus_file(tmp_path, [])
        with pytest.raises(CorpusError):
            load_corpus(path, cache)

    def test_single_record(self, tmp_path, cache):
        path = write_corpus_file(tmp_path, ["Hallo."])
        corpus = load_corpus(path, cache)
        assert corpus.documents == ["Hallo."]

    def test_unknown_fields_ignored(self, tmp_path, cache):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "Hallo.", "id": 7, "source": "x"}\n', encoding="utf-8")
        corpus = load_corpus(path, cache)
        assert corpus.documents == ["Hallo."]

    def test_malformed_json_line_rejected(self, tmp_path, cache):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "ok."}\nnot json\n', encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(path, cache)

    def test_missing_text_field_rejected(self, tmp_path, cache):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"body": "ok."}\n', encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(path, cache)

    def test_unreadable_path_rejected(self, tmp_path, cache):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "missing.jsonl", cache)

    def test_embeddings_cached_once(self, tmp_path, mock_backend):
        cache = EmbeddingCache(mock_backend)
        path = write_corpus_file(tmp_path, ["Eins zwei.", "Eins zwei."])
        corpus = load_corpus(path, cache)
        assert len(cache) == 1
        assert np.array_equal(corpus.embeddings[0], corpus.embeddings[1])


class EmbedSession:
    """Stub Ollama endpoint answering ``/api/embed`` with the oracle's
    bigram embedding of each input, and recording every request body."""

    def __init__(self, dim=64):
        self.dim = dim
        self.inputs = []

    def post(self, url, json=None, timeout=None):
        assert url.endswith("/api/embed")
        self.inputs.append(json["input"])
        return FakeResponse({"embeddings": [embed_ref(text, self.dim) for text in json["input"]]})


class CountingBackend(MockBackend):
    def __init__(self):
        super().__init__(BackendDescriptor())
        self.batches = []

    def embed(self, texts):
        self.batches.append(list(texts))
        return super().embed(texts)


class TestBatchedEmbedding:
    def test_corpus_goes_out_in_file_order_chunks(self, tmp_path):
        documents = [f"Dokument {i}: Der Befund ist stabil." for i in range(129)]
        documents.insert(100, documents[5])
        session = EmbedSession()
        backend = HttpBackend(BackendDescriptor(kind="http", base_url="http://stub"), session)
        corpus = load_corpus(write_corpus_file(tmp_path, documents), EmbeddingCache(backend))
        assert EMBED_BATCH == 64 and len(documents) == 130
        assert session.inputs == [
            documents[:64],
            documents[64:100] + documents[101:128],
            documents[128:],
        ]
        assert sum(batch.count(documents[5]) for batch in session.inputs) == 1
        assert [v.tolist() for v in corpus.embeddings] == [embed_ref(d, 64) for d in documents]

    def test_batched_vectors_equal_single_embeds(self, tmp_path):
        documents = [f"Satz {i} über die Medikation." for i in range(EMBED_BATCH + 3)]
        backend = MockBackend(BackendDescriptor())
        corpus = load_corpus(write_corpus_file(tmp_path, documents), EmbeddingCache(backend))
        single = EmbeddingCache(backend)
        for document, vector in zip(documents, corpus.embeddings):
            assert np.array_equal(vector, single.embed_one(document))

    def test_misses_sent_once_in_first_seen_order(self):
        backend = CountingBackend()
        cache = EmbeddingCache(backend)
        cache.embed_one("b")
        vectors = cache.embed_many(["c", "b", "a", "c"])
        assert backend.batches == [["b"], ["c", "a"]]
        assert np.array_equal(vectors[0], vectors[3])
        assert np.array_equal(vectors[1], cache.embed_one("b"))

    def test_warm_cache_makes_no_backend_call(self):
        backend = CountingBackend()
        cache = EmbeddingCache(backend)
        first = cache.embed_many(["Eins zwei.", "Drei vier."])
        again = cache.embed_many(["Drei vier.", "Eins zwei.", "Drei vier."])
        assert backend.batches == [["Eins zwei.", "Drei vier."]]
        assert [v is w for v, w in zip(again, [first[1], first[0], first[1]])] == [True] * 3
        assert cache.embed_many([]) == [] and len(backend.batches) == 1


class TestEvaluator:
    def test_score_equals_corpus_score(self, cache):
        corpus = make_corpus(cache, [DOC_COS_08, DOC_COS_06])
        evaluator = CorpusEvaluator(corpus, cache)
        assert evaluator.score("aaa") == corpus_score("aaa", corpus, cache) == 0.7
