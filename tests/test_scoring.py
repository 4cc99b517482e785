import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import FakeResponse, make_corpus, write_corpus_file
from oracle import corpus_score_ref, embed_ref
from promptloop.config import corpus_digest
from promptloop.errors import CorpusError, DegenerateInputError, DimensionMismatchError
from promptloop.gateway import EMBED_BATCH, BackendDescriptor, HttpBackend, MockBackend
from promptloop.scoring import (
    CorpusEvaluator,
    EmbeddingCache,
    ReferenceCorpus,
    corpus_score,
    cosine,
    load_corpus,
    read_corpus,
)

# Two strings whose bigram-count vectors give exact cosines 0.8 and 0.6
# against the pure-"aa" candidate "aaa" (norms 5, 5, and 2).
DOC_COS_08 = "aaaaabbaba"
DOC_COS_06 = "aaaabcbcbaba"


def generated_documents(count, seed):
    """``count`` distinct short clinical sentences drawn from a fixed seed."""
    rng = random.Random(seed)
    words = ["Patient", "Befund", "stabil", "Entlassung", "Medikation", "morgen", "kardial",
             "unverändert", "Kontrolle", "Labor", "Blutdruck", "Therapie", "Verlauf", "Aufnahme"]
    return [f"Dokument {i}: " + " ".join(rng.choices(words, k=rng.randint(3, 9))) + "."
            for i in range(count)]


GENERATED_DOCUMENTS = generated_documents(120, seed=7)


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


@st.composite
def norm_vectors(draw):
    """float64 vectors of 1 to 1,024 components, each a mantissa of 0.5 to
    1 in magnitude times 2**e, with e at most 8 below a top exponent drawn
    from -1,074 (subnormal) to 511, or from near the top, where 2**511 is
    about 6.7e153 and the dot product of the larger vectors overflows."""
    size = draw(st.integers(1, 1024))
    top = draw(st.integers(-1074, 511) | st.integers(504, 511))
    mantissas = draw(arrays(np.float64, size, elements=st.floats(0.5, 1.0) | st.floats(-1.0, -0.5)))
    exponents = draw(arrays(np.int32, size, elements=st.integers(top - 8, top)))
    return np.ldexp(mantissas, exponents)


@given(norm_vectors())
def test_sqrt_of_the_dot_is_numpys_norm(vector):
    """``corpus_score`` takes ``|c|`` as ``math.sqrt(c.dot(c))``, numpy's own
    formula for a 1-D real vector's 2-norm; a numpy whose ``norm`` differs
    by a bit would move every score."""
    # No @settings: CI runs this under the "kernels" profile, which a
    # max_examples here would override.
    with np.errstate(over="ignore"):  # the overflowing dot products are drawn on purpose
        assert math.sqrt(vector.dot(vector)).hex() == float(np.linalg.norm(vector)).hex()


class TestCorpusScore:
    def test_mean_of_two_known_cosines(self, cache):
        corpus = make_corpus(cache, [DOC_COS_08, DOC_COS_06])
        assert corpus_score("aaa", corpus.centroid, cache) == 0.7

    def test_identical_single_document_scores_one(self, cache):
        corpus = make_corpus(cache, ["Der Patient ist stabil."])
        assert corpus_score("Der Patient ist stabil.", corpus.centroid, cache) == 1.0

    def test_matches_bruteforce_oracle(self, cache):
        corpus = make_corpus(cache, ["abab", "zzzz"])
        got = corpus_score("abab", corpus.centroid, cache)
        assert got == pytest.approx(corpus_score_ref("abab", ["abab", "zzzz"]), abs=1e-12)

    def test_empty_candidate_rejected(self, cache):
        corpus = make_corpus(cache)
        with pytest.raises(DegenerateInputError):
            corpus_score("", corpus.centroid, cache)

    def test_zero_embedding_candidate_rejected(self, cache):
        corpus = make_corpus(cache)
        with pytest.raises(DegenerateInputError):
            corpus_score("x", corpus.centroid, cache)

    def test_mock_scores_stay_in_unit_interval(self, cache):
        corpus = make_corpus(cache)
        for text in ("abc", "Der Brief.", "zzzz", "Entlassung morgen"):
            assert 0.0 <= corpus_score(text, corpus.centroid, cache) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(list(range(4))))
    def test_permutation_invariance(self, order):
        cache = EmbeddingCache(MockBackend(BackendDescriptor()))
        texts = ["Der Patient.", "Die Entlassung.", "Befund folgt.", "Alles stabil."]
        base = corpus_score("Der Befund.", make_corpus(cache, texts).centroid, cache)
        permuted = corpus_score("Der Befund.", make_corpus(cache, [texts[i] for i in order]).centroid, cache)
        assert permuted == base

    @settings(max_examples=100, deadline=None)
    @given(st.permutations(list(range(len(GENERATED_DOCUMENTS)))))
    def test_permutation_invariance_large_corpus(self, order):
        cache = EmbeddingCache(MockBackend(BackendDescriptor()))
        texts = GENERATED_DOCUMENTS
        assert len(texts) == 120 and len(set(texts)) == 120
        base = make_corpus(cache, texts)
        permuted = make_corpus(cache, [texts[i] for i in order])
        for candidate in ("Der Befund.", "Die Medikation wird fortgeführt.", "zzzz"):
            assert corpus_score(candidate, permuted.centroid, cache) == corpus_score(candidate, base.centroid, cache)

    def test_large_corpus_matches_oracle(self):
        cache = EmbeddingCache(MockBackend(BackendDescriptor(mock_embedding_dim=128)))
        documents = generated_documents(200, seed=11)
        corpus = make_corpus(cache, documents)
        assert corpus.centroid.shape == (128,)
        for candidate in ("Der Befund.", "Die Medikation wird fortgeführt.", "Entlassung morgen früh."):
            expected = corpus_score_ref(candidate, documents, dim=128)
            assert corpus_score(candidate, corpus.centroid, cache) == pytest.approx(expected, abs=1e-12)

    def test_candidate_dimension_must_match_corpus(self):
        corpus_cache = EmbeddingCache(MockBackend(BackendDescriptor(mock_embedding_dim=8)))
        corpus = make_corpus(corpus_cache, ["Der Patient.", "Die Entlassung."])
        candidate_cache = EmbeddingCache(MockBackend(BackendDescriptor(mock_embedding_dim=64)))
        with pytest.raises(DimensionMismatchError):
            corpus_score("Der Befund.", corpus.centroid, candidate_cache)

    def test_cache_transparency(self, mock_backend):
        texts = ["Der Patient.", "Die Entlassung."]
        cold = EmbeddingCache(mock_backend)
        score_cold = corpus_score("Befund da.", make_corpus(cold, texts).centroid, cold)
        warm = EmbeddingCache(mock_backend)
        corpus = make_corpus(warm, texts)
        first = corpus_score("Befund da.", corpus.centroid, warm)
        second = corpus_score("Befund da.", corpus.centroid, warm)
        assert score_cold == first == second

    def test_cache_hit_identical_to_fresh_embed(self, mock_backend):
        backend = CountingBackend()
        cache = EmbeddingCache(backend)
        hit = cache.embed_one("Der Patient.")
        again = cache.embed_one("Der Patient.")
        fresh = mock_backend.embed(["Der Patient."])[0]
        assert np.array_equal(hit, again)
        assert np.array_equal(hit, fresh)
        assert backend.batches == [["Der Patient."]]


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

    def test_blank_lines_are_skipped(self, tmp_path, cache):
        """Empty and whitespace-only lines hold no document: the corpus, and
        the digest a resume checks it by, are the file's without them."""
        plain = write_corpus_file(tmp_path, ["Eins.", "Zwei."], name="plain.jsonl")
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text('\n{"text": "Eins."}\n \t\n\n{"text": "Zwei."}\n\n', encoding="utf-8")
        assert load_corpus(spaced, cache).documents == ["Eins.", "Zwei."]
        assert corpus_digest(read_corpus(spaced)) == corpus_digest(read_corpus(plain))

    def test_malformed_json_line_rejected(self, tmp_path, cache):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "ok."}\nnot json\n', encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(path, cache)

    def test_invalid_utf8_rejected(self, tmp_path, cache):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'{"text": "ok."}\n{"text": "\xff"}\n')
        with pytest.raises(CorpusError, match="cannot read corpus file"):
            load_corpus(path, cache)

    def test_integer_past_the_digit_limit_rejected(self, tmp_path, cache):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "ok.", "id": ' + "9" * 5000 + "}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="invalid JSON"):
            load_corpus(path, cache)

    def test_missing_text_field_rejected(self, tmp_path, cache):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"body": "ok."}\n', encoding="utf-8")
        with pytest.raises(CorpusError):
            load_corpus(path, cache)

    def test_unreadable_path_rejected(self, tmp_path, cache):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "missing.jsonl", cache)

    def test_embeddings_cached_once(self, tmp_path):
        backend = CountingBackend()
        cache = EmbeddingCache(backend)
        path = write_corpus_file(tmp_path, ["Eins zwei.", "Eins zwei."])
        vectors = cache.embed_many(load_corpus(path, cache).documents)
        assert backend.batches == [["Eins zwei."]]
        assert np.array_equal(vectors[0], vectors[1])


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
        cache = EmbeddingCache(backend)
        vectors = cache.embed_many(load_corpus(write_corpus_file(tmp_path, documents), cache).documents)
        assert EMBED_BATCH == 64 and len(documents) == 130
        # The chunks split the distinct documents; their requests run
        # concurrently, so they may arrive in any order.
        assert sorted(session.inputs, key=lambda chunk: documents.index(chunk[0])) == [
            documents[:64],
            documents[64:100] + documents[101:129],
            documents[129:],
        ]
        assert sum(batch.count(documents[5]) for batch in session.inputs) == 1
        assert [v.tolist() for v in vectors] == [embed_ref(d, 64) for d in documents]

    def test_batched_vectors_equal_single_embeds(self, tmp_path):
        documents = [f"Satz {i} über die Medikation." for i in range(EMBED_BATCH + 3)]
        backend = MockBackend(BackendDescriptor())
        cache = EmbeddingCache(backend)
        corpus = load_corpus(write_corpus_file(tmp_path, documents), cache)
        assert corpus.documents == documents
        single = EmbeddingCache(backend)
        for document, vector in zip(documents, cache.embed_many(documents)):
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
        evaluator = CorpusEvaluator(corpus.centroid, cache)
        assert evaluator.score_batch(["aaa"]) == [corpus_score("aaa", corpus.centroid, cache)] == [0.7]
