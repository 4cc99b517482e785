import threading
import time

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeResponse
from oracle import embed_ref, fnv1a64_ref
from promptloop.engine import EngineConfig
from promptloop.errors import (
    BackendUnavailableError,
    ConfigError,
    EmptyResponseError,
    ProtocolError,
)
from promptloop import gateway
from promptloop.gateway import (
    FAILURE_MARKER,
    MAX_CHAT_WORKERS,
    BackendDescriptor,
    ChatExchange,
    HttpBackend,
    MockBackend,
    fnv1a64,
)
from promptloop.roles import DEFAULT_ROLE_PARAMS, ModelRole, SamplingParams


def exchange(role=ModelRole.ACTOR, text="Schreib einen Brief"):
    return ChatExchange(role=role, system_prompt="sys", messages=(("user", text),))


PARAMS = DEFAULT_ROLE_PARAMS[ModelRole.ACTOR]


class TestChatExchange:
    def test_requires_messages(self):
        with pytest.raises(ValueError):
            ChatExchange(role=ModelRole.ACTOR, system_prompt="", messages=())

    def test_last_speaker_must_be_user(self):
        with pytest.raises(ValueError):
            ChatExchange(
                role=ModelRole.ACTOR,
                system_prompt="",
                messages=(("user", "a"), ("assistant", "b")),
            )

    def test_unknown_speaker_rejected(self):
        with pytest.raises(ValueError):
            ChatExchange(role=ModelRole.ACTOR, system_prompt="", messages=(("system", "a"),))


class TestMockChat:
    def test_scripted_queue_pop(self):
        backend = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: ["Befund A"]})
        assert backend.chat(exchange(), PARAMS) == "Befund A"

    def test_fallback_echoes_last_user_message(self):
        backend = MockBackend(BackendDescriptor())
        assert backend.chat(exchange(), PARAMS) == "ECHO: Schreib einen Brief"

    def test_queues_are_per_role(self):
        backend = MockBackend(BackendDescriptor(), {ModelRole.SUMMARIZER: ["kurz"]})
        assert backend.chat(exchange(), PARAMS) == "ECHO: Schreib einen Brief"
        assert backend.chat(exchange(role=ModelRole.SUMMARIZER), PARAMS) == "kurz"

    def test_failure_marker_raises(self):
        backend = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: [FAILURE_MARKER, "ok"]})
        with pytest.raises(BackendUnavailableError):
            backend.chat(exchange(), PARAMS)
        assert backend.chat(exchange(), PARAMS) == "ok"

    def test_empty_completion_raises(self):
        backend = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: [""]})
        with pytest.raises(EmptyResponseError):
            backend.chat(exchange(), PARAMS)

    def test_whitespace_only_completion_raises(self):
        backend = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: [" \n\t "]})
        with pytest.raises(EmptyResponseError):
            backend.chat(exchange(), PARAMS)

    def test_chat_many_runs_in_index_order(self):
        backend = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: ["a", "b"]})
        calls = [(exchange(text=f"call {i}"), PARAMS) for i in range(3)]
        assert backend.chat_many(calls) == ["a", "b", "ECHO: call 2"]

    def test_failed_batch_consumes_every_call(self):
        # a resumed run skips a failed batch's replies by its call count, so
        # the batch must pop one reply per call even after the first failure
        backend = MockBackend(
            BackendDescriptor(), {ModelRole.ACTOR: ["a", FAILURE_MARKER, "", "d", "e"]}
        )
        with pytest.raises(BackendUnavailableError):
            backend.chat_many([(exchange(), PARAMS)] * 4)
        assert len(backend.calls) == 4
        assert backend.remaining(ModelRole.ACTOR) == 1

    def test_repeat_calls_deterministic(self):
        first = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: ["a", "b"]})
        second = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: ["a", "b"]})
        seq1 = [first.chat(exchange(), PARAMS) for _ in range(3)]
        seq2 = [second.chat(exchange(), PARAMS) for _ in range(3)]
        assert seq1 == seq2 == ["a", "b", "ECHO: Schreib einen Brief"]

    def test_advance_skips_consumed_items(self):
        backend = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: ["a", "b", "c"]})
        backend.advance(ModelRole.ACTOR, 2)
        assert backend.chat(exchange(), PARAMS) == "c"
        backend.advance(ModelRole.ACTOR, 5)  # over-advance past the end is a no-op
        assert backend.chat(exchange(), PARAMS).startswith("ECHO: ")


class TestMockEmbedding:
    def test_single_bigram_lands_in_fnv_bucket(self):
        backend = MockBackend(BackendDescriptor(mock_embedding_dim=8))
        [vec] = backend.embed(["ab"])
        bucket = fnv1a64_ref(b"ab") % 8
        assert vec[bucket] == 1.0
        assert np.count_nonzero(vec) == 1
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_empty_text_embeds_to_zero_vector(self):
        backend = MockBackend(BackendDescriptor(mock_embedding_dim=16))
        [vec] = backend.embed([""])
        assert vec.shape == (16,)
        assert not vec.any()

    def test_single_byte_text_embeds_to_zero_vector(self):
        backend = MockBackend(BackendDescriptor())
        [vec] = backend.embed(["x"])
        assert not vec.any()

    def test_identical_texts_identical_vectors(self):
        backend = MockBackend(BackendDescriptor())
        u, v = backend.embed(["x", "x"])
        assert np.array_equal(u, v)

    def test_order_preserved_and_one_vector_per_text(self):
        backend = MockBackend(BackendDescriptor())
        vectors = backend.embed(["ab", "cd", "ab"])
        assert len(vectors) == 3
        assert np.array_equal(vectors[0], vectors[2])
        assert not np.array_equal(vectors[0], vectors[1])

    def test_empty_batch_rejected(self):
        backend = MockBackend(BackendDescriptor())
        with pytest.raises(ValueError):
            backend.embed([])

    def test_fnv_matches_reference(self):
        for data in (b"", b"a", b"ab", "Entlassung".encode(), bytes(range(256))):
            assert fnv1a64(data) == fnv1a64_ref(data)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40), st.sampled_from([4, 8, 64]))
    def test_embedding_matches_independent_oracle(self, text, dim):
        backend = MockBackend(BackendDescriptor(mock_embedding_dim=dim))
        [vec] = backend.embed([text])
        expected = embed_ref(text, dim)
        assert vec == pytest.approx(expected, abs=1e-12)
        raw_is_zero = len(text.encode("utf-8")) < 2
        if not raw_is_zero:
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [8, 64, 768])
    def test_embedding_equals_oracle_bit_for_bit(self, dim):
        backend = MockBackend(BackendDescriptor(mock_embedding_dim=dim))
        texts = ["", "a", "Herzinsuffizienz – Grüße, 心臓 😀", "Der Befund ist stabil. " * 89]
        assert len(texts[-1].encode("utf-8")) > 2000
        for text, vec in zip(texts, backend.embed(texts)):
            assert vec.tolist() == embed_ref(text, dim)


class FakeSession:
    """Records requests and serves queued responses or exceptions."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, timeout=None):
        self.requests.append({"url": url, "json": json, "timeout": timeout})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def get(self, url, timeout=None):
        self.requests.append({"url": url, "timeout": timeout})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def tags(*names):
    """An ``/api/tags`` reply listing the given model names."""
    return {"models": [{"name": name} for name in names]}


def http_descriptor(**overrides):
    defaults = dict(kind="http", base_url="http://localhost:11434", retry_backoff=0.0)
    defaults.update(overrides)
    return BackendDescriptor(**defaults)


class TestHttpChat:
    def test_request_body_carries_role_options(self):
        session = FakeSession([FakeResponse({"message": {"content": "Plan"}})])
        backend = HttpBackend(http_descriptor(), session)
        params = DEFAULT_ROLE_PARAMS[ModelRole.PROMPTING]
        out = backend.chat(exchange(role=ModelRole.PROMPTING, text="Aufgabe"), params)
        assert out == "Plan"
        request = session.requests[0]
        assert request["url"].endswith("/api/chat")
        body = request["json"]
        assert body["options"] == {"temperature": 0.5, "top_k": 40, "top_p": 0.85, "seed": 42}
        assert body["model"] == "llama3.1"
        assert body["stream"] is False
        assert body["messages"][0] == {"role": "system", "content": "sys"}
        assert body["messages"][-1] == {"role": "user", "content": "Aufgabe"}

    def test_empty_completion_raises(self):
        session = FakeSession([FakeResponse({"message": {"content": ""}})])
        backend = HttpBackend(http_descriptor(), session)
        with pytest.raises(EmptyResponseError):
            backend.chat(exchange(), PARAMS)

    def test_missing_content_is_protocol_error(self):
        session = FakeSession([FakeResponse({"message": {}})])
        backend = HttpBackend(http_descriptor(), session)
        with pytest.raises(ProtocolError):
            backend.chat(exchange(), PARAMS)

    def test_retry_bound_is_max_retries_plus_one(self):
        failures = [requests.ConnectionError("down")] * 10
        session = FakeSession(failures)
        backend = HttpBackend(http_descriptor(max_retries=2), session)
        with pytest.raises(BackendUnavailableError):
            backend.chat(exchange(), PARAMS)
        assert len(session.requests) == 3

    def test_transient_failure_then_success(self):
        session = FakeSession(
            [requests.ConnectionError("down"), FakeResponse({"message": {"content": "ok"}})]
        )
        backend = HttpBackend(http_descriptor(max_retries=1), session)
        assert backend.chat(exchange(), PARAMS) == "ok"
        assert len(session.requests) == 2

    def test_whitespace_only_completion_raises(self):
        session = FakeSession([FakeResponse({"message": {"content": "  \n"}})])
        backend = HttpBackend(http_descriptor(), session)
        with pytest.raises(EmptyResponseError):
            backend.chat(exchange(), PARAMS)

    def test_client_error_is_not_retried(self):
        session = FakeSession([FakeResponse({"error": "model not found"}, status=404)] * 3)
        backend = HttpBackend(http_descriptor(max_retries=2), session)
        with pytest.raises(BackendUnavailableError, match="404"):
            backend.chat(exchange(), PARAMS)
        assert len(session.requests) == 1

    def test_server_error_is_retried(self):
        session = FakeSession([FakeResponse({}, status=503)] * 3)
        backend = HttpBackend(http_descriptor(max_retries=2), session)
        with pytest.raises(BackendUnavailableError):
            backend.chat(exchange(), PARAMS)
        assert len(session.requests) == 3

    def test_rate_limit_is_retried(self):
        session = FakeSession(
            [FakeResponse({}, status=429), FakeResponse({"message": {"content": "ok"}})]
        )
        backend = HttpBackend(http_descriptor(max_retries=1), session)
        assert backend.chat(exchange(), PARAMS) == "ok"
        assert len(session.requests) == 2


class ReverseOrderSession:
    """Thread-safe fake for a batch of chat calls whose user messages end in
    their index. Call i replies only after call i+1 has replied, the order a
    per-request delay falling with the index gives, so replies complete in
    reverse order. A call left waiting 5 s means the batch is not concurrent."""

    def __init__(self, size, statuses=None):
        self.replied = [threading.Event() for _ in range(size)]
        self.statuses = statuses or {}
        self.lock = threading.Lock()
        self.completed = []

    def post(self, url, json=None, timeout=None):
        index = int(json["messages"][-1]["content"].split()[-1])
        if index + 1 < len(self.replied) and not self.replied[index + 1].wait(5):
            raise AssertionError(f"call {index} waited for call {index + 1}: batch ran in sequence")
        with self.lock:
            self.completed.append(index)
        self.replied[index].set()
        return FakeResponse({"message": {"content": f"reply {index}"}}, self.statuses.get(index, 200))


class PooledSession:
    """Thread-safe fake that holds every request for a moment, long enough
    for a pool wider than the cap to have more than the cap in flight. It
    records the most requests in flight at once."""

    HOLD_S = 0.05

    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.in_flight = 0
        self.peak = 0

    def post(self, url, json=None, timeout=None):
        with self.lock:
            self.requests += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.HOLD_S)
            index = json["messages"][-1]["content"].split()[-1]
            return FakeResponse({"message": {"content": f"reply {index}"}})
        finally:
            with self.lock:
                self.in_flight -= 1


class TestHttpChatMany:
    def test_replies_come_back_in_input_order(self):
        session = ReverseOrderSession(4)
        backend = HttpBackend(http_descriptor(), session)
        calls = [(exchange(text=f"call {i}"), PARAMS) for i in range(4)]
        assert backend.chat_many(calls) == [f"reply {i}" for i in range(4)]
        assert session.completed == [3, 2, 1, 0]

    def test_failed_batch_issues_every_call_and_raises_first_failure(self):
        session = ReverseOrderSession(4, statuses={1: 404, 3: 400})
        backend = HttpBackend(http_descriptor(), session)
        calls = [(exchange(text=f"call {i}"), PARAMS) for i in range(4)]
        with pytest.raises(BackendUnavailableError, match="404"):
            backend.chat_many(calls)
        assert session.completed == [3, 2, 1, 0]

    def test_batch_wider_than_the_pool_keeps_input_order(self):
        session = PooledSession()
        backend = HttpBackend(http_descriptor(), session)
        size = 3 * MAX_CHAT_WORKERS
        calls = [(exchange(text=f"call {i}"), PARAMS) for i in range(size)]
        assert backend.chat_many(calls) == [f"reply {i}" for i in range(size)]
        assert session.requests == size
        assert session.peak <= MAX_CHAT_WORKERS

    def test_interrupt_drops_calls_not_yet_started(self, monkeypatch):
        release = threading.Event()
        started = []

        class BlockingSession:
            def post(self, url, json=None, timeout=None):
                started.append(json["messages"][-1]["content"])
                release.wait(5)
                return FakeResponse({"message": {"content": "late"}})

        def interrupted_wait(futures):
            raise KeyboardInterrupt

        monkeypatch.setattr(gateway, "wait", interrupted_wait)
        backend = HttpBackend(http_descriptor(), BlockingSession())
        calls = [(exchange(text=f"call {i}"), PARAMS) for i in range(3 * MAX_CHAT_WORKERS)]
        with pytest.raises(KeyboardInterrupt):
            backend.chat_many(calls)
        release.set()
        for thread in threading.enumerate():
            if thread.name.startswith("promptloop-chat"):
                thread.join(5)
        assert len(started) <= MAX_CHAT_WORKERS


class TestHttpEmbed:
    def test_embed_posts_model_and_input(self):
        session = FakeSession([FakeResponse({"embeddings": [[1.0, 0.0], [0.0, 1.0]]})])
        backend = HttpBackend(http_descriptor(), session)
        vectors = backend.embed(["a", "b"])
        request = session.requests[0]
        assert request["url"].endswith("/api/embed")
        assert request["json"] == {"model": "jina-embeddings-v2-base-de", "input": ["a", "b"]}
        assert [v.tolist() for v in vectors] == [[1.0, 0.0], [0.0, 1.0]]

    def test_batch_dimension_mismatch_is_protocol_error(self):
        session = FakeSession([FakeResponse({"embeddings": [[1.0, 0.0], [0.0, 1.0, 0.5]]})])
        backend = HttpBackend(http_descriptor(), session)
        with pytest.raises(ProtocolError):
            backend.embed(["a", "b"])

    def test_wrong_count_is_protocol_error(self):
        session = FakeSession([FakeResponse({"embeddings": [[1.0, 0.0]]})])
        backend = HttpBackend(http_descriptor(), session)
        with pytest.raises(ProtocolError):
            backend.embed(["a", "b"])


class TestHealthCheck:
    def test_mock_reports_ok(self, mock_backend):
        report = mock_backend.health_check()
        assert report.status == "ok"
        assert report.kind == "mock"

    def test_http_unreachable_reports_cause(self):
        session = FakeSession([requests.ConnectionError("refused")])
        backend = HttpBackend(http_descriptor(), session)
        report = backend.health_check()
        assert report.status == "unavailable"
        assert "refused" in report.cause

    def test_http_reachable_echoes_model_name(self):
        session = FakeSession([FakeResponse(tags("llama3.1", "jina-embeddings-v2-base-de"))])
        backend = HttpBackend(http_descriptor(model_name="llama3.1"), session)
        report = backend.health_check()
        assert report.status == "ok"
        assert report.model_name == "llama3.1"

    @pytest.mark.parametrize("listed", [
        ("llama3.1:latest", "jina-embeddings-v2-base-de:latest", "mistral:7b"),
        ("llama3.1", "jina-embeddings-v2-base-de"),
    ])
    def test_http_both_models_listed_is_ok(self, listed):
        session = FakeSession([FakeResponse(tags(*listed))])
        backend = HttpBackend(http_descriptor(), session)
        report = backend.health_check()
        assert report.status == "ok" and report.cause is None
        assert session.requests[0]["url"] == "http://localhost:11434/api/tags"

    def test_http_missing_model_is_named(self):
        session = FakeSession([FakeResponse(tags("llama3.1:latest", "llama3.1:8b"))])
        backend = HttpBackend(http_descriptor(), session)
        report = backend.health_check()
        assert report.status == "unavailable"
        assert "jina-embeddings-v2-base-de" in report.cause
        assert "llama3.1" not in report.cause

    def test_http_tag_must_match(self):
        session = FakeSession([FakeResponse(tags("llama3.1:8b", "jina-embeddings-v2-base-de"))])
        backend = HttpBackend(http_descriptor(), session)
        report = backend.health_check()
        assert report.status == "unavailable"
        assert "llama3.1" in report.cause

    def test_http_malformed_tags_reply_is_unavailable(self):
        session = FakeSession([FakeResponse({"tags": []})])
        backend = HttpBackend(http_descriptor(), session)
        assert backend.health_check().status == "unavailable"


class TestDescriptor:
    def test_http_requires_base_url(self):
        with pytest.raises(ConfigError):
            BackendDescriptor(kind="http")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            BackendDescriptor(kind="grpc")

    def test_sampling_params_validation(self):
        with pytest.raises(ValueError):
            SamplingParams(temperature=-0.1, top_k=5, top_p=0.5)
        with pytest.raises(ValueError):
            SamplingParams(temperature=0.1, top_k=0, top_p=0.5)
        with pytest.raises(ValueError):
            SamplingParams(temperature=0.1, top_k=5, top_p=0.0)
        with pytest.raises(ValueError):
            SamplingParams(temperature=0.1, top_k=5, top_p=1.2)


class TestRoleParamsTotality:
    def test_defaults_cover_every_role(self):
        assert set(DEFAULT_ROLE_PARAMS) == set(ModelRole)
        EngineConfig().validate()

    def test_missing_role_rejected(self):
        params = dict(DEFAULT_ROLE_PARAMS)
        del params[ModelRole.MUTATOR]
        with pytest.raises(ConfigError):
            EngineConfig(role_params=params).validate()
