import base64
import json
import os
import subprocess
import sys
import threading
import time
from urllib.parse import urlsplit

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeResponse, RecordingBackend
from oracle import embed_ref, fnv1a64_ref
from promptloop.config import resolve_config
from promptloop.errors import (
    BackendUnavailableError,
    ConfigError,
    EmptyResponseError,
    ProtocolError,
)
from promptloop import gateway
from promptloop.gateway import (
    EMBED_BATCH,
    FAILURE_MARKER,
    MAX_IN_FLIGHT,
    BackendDescriptor,
    ChatExchange,
    HttpBackend,
    MockBackend,
    call_seed,
    fnv1a64,
)
from promptloop.roles import DEFAULT_ROLE_PARAMS, ModelRole


def exchange(role=ModelRole.ACTOR, text="Schreib einen Brief", index=0):
    return ChatExchange(role=role, index=index, system_prompt="sys", messages=(("user", text),))


PARAMS = DEFAULT_ROLE_PARAMS[ModelRole.ACTOR]

#: Seeds of the first three prompting calls at base seed 42.
GOLDEN_SEEDS = [292906096, 764168745, 1289699210]


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
        assert backend.chat(exchange(index=1), PARAMS) == "ok"

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
        calls = [(exchange(text=f"call {i}", index=i), PARAMS) for i in range(3)]
        assert backend.chat_many(calls) == ["a", "b", "ECHO: call 2"]

    def test_reply_is_the_script_item_at_the_index(self):
        # a resumed run starts at each role's logged call count, so the reply
        # to index i must not depend on the calls before it, failed or not
        backend = RecordingBackend(
            BackendDescriptor(), {ModelRole.ACTOR: ["a", FAILURE_MARKER, "", "d"]}
        )
        a, failed, empty, d = backend.chat_many([(exchange(index=i), PARAMS) for i in range(4)])
        assert (a, d) == ("a", "d")
        assert type(failed) is BackendUnavailableError and str(failed) == "scripted failure for role actor"
        assert type(empty) is EmptyResponseError and str(empty) == "empty completion for role actor"
        assert len(backend.calls) == 4  # a mock batch issues every call
        assert backend.chat(exchange(index=3), PARAMS) == "d"
        assert backend.chat(exchange(index=0), PARAMS) == "a"
        assert backend.chat(exchange(index=4), PARAMS) == "ECHO: Schreib einen Brief"
        fresh = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: ["a", FAILURE_MARKER, "", "d"]})
        assert fresh.chat(exchange(index=3), PARAMS) == "d"

    def test_failed_batch_consumes_every_call(self):
        # a resumed run goes on at the failed batch's end, so the call after
        # it gets the reply at its index however far the batch got
        script = ["a", FAILURE_MARKER, "", "d", "e"]
        backend = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: script})
        outcomes = backend.chat_many([(exchange(index=i), PARAMS) for i in range(4)])
        assert [type(outcome) for outcome in outcomes] == [str, BackendUnavailableError, EmptyResponseError, str]
        assert backend.chat(exchange(index=4), PARAMS) == "e"
        fresh = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: script})
        assert fresh.chat(exchange(index=4), PARAMS) == "e"

    def test_advance_skips_consumed_items(self):
        # a call at index i skips the i script items before it
        backend = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: ["a", "b", "c"]})
        assert backend.chat(exchange(index=2), PARAMS) == "c"
        assert backend.chat(exchange(index=7), PARAMS).startswith("ECHO: ")  # past the end

    def test_batch_propagates_an_error_that_is_not_the_backends(self):
        class Broken(MockBackend):
            def chat(self, exchange, params):
                raise RuntimeError("bug")

        with pytest.raises(RuntimeError, match="bug"):
            Broken(BackendDescriptor()).chat_many([(exchange(), PARAMS)])

    def test_repeat_calls_deterministic(self):
        first = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: ["a", "b"]})
        second = MockBackend(BackendDescriptor(), {ModelRole.ACTOR: ["a", "b"]})
        seq1 = [first.chat(exchange(index=i), PARAMS) for i in range(3)]
        seq2 = [second.chat(exchange(index=i), PARAMS) for i in range(3)]
        assert seq1 == seq2 == ["a", "b", "ECHO: Schreib einen Brief"]
        assert first.chat(exchange(index=1), PARAMS) == "b"


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


class TestCallSeed:
    def test_golden_values(self):
        # fixed literals: the seed must not depend on the process (no hash())
        assert [call_seed(42, ModelRole.PROMPTING, i) for i in range(3)] == GOLDEN_SEEDS

    def test_seeds_are_31_bit_and_distinct_per_call(self):
        seeds = {
            call_seed(base, role, index)
            for base in (0, 42, 2**40)
            for role in ModelRole
            for index in range(50)
        }
        assert len(seeds) == 3 * len(ModelRole) * 50
        assert all(0 <= seed < 2**31 for seed in seeds)


class TestHttpChat:
    def test_request_body_carries_role_options(self):
        session = FakeSession([FakeResponse({"message": {"content": "Plan"}})])
        backend = HttpBackend(http_descriptor(), session)
        params = DEFAULT_ROLE_PARAMS[ModelRole.PROMPTING]
        out = backend.chat(exchange(role=ModelRole.PROMPTING, text="Aufgabe", index=3), params)
        assert out == "Plan"
        request = session.requests[0]
        assert request["url"].endswith("/api/chat")
        body = request["json"]
        seed = call_seed(42, ModelRole.PROMPTING, 3)
        assert body["options"] == {"temperature": 0.5, "top_k": 40, "top_p": 0.85, "seed": seed}
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

    @pytest.mark.parametrize("reply", [[], "Plan", None, {"message": "Plan"}, {"message": ["Plan"]}])
    def test_reply_or_message_that_is_not_an_object_is_protocol_error(self, reply):
        session = FakeSession([FakeResponse(reply)])
        backend = HttpBackend(http_descriptor(max_retries=2), session)
        with pytest.raises(ProtocolError):
            backend.chat(exchange(), PARAMS)
        assert len(session.requests) == 1

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

    def test_client_error_carries_the_server_reason(self):
        """The ``error`` string of a JSON-object body, cut at 200 characters;
        any other body adds nothing."""
        cases = [
            ({"error": "x" * 300}, "; not retried: " + "x" * 200),
            ({"error": 5}, "; not retried"),
            (["error"], "; not retried"),
            (ValueError("not JSON"), "; not retried"),
        ]
        for payload, suffix in cases:
            backend = HttpBackend(http_descriptor(max_retries=2), FakeSession([FakeResponse(payload, status=400)]))
            with pytest.raises(BackendUnavailableError) as info:
                backend.chat(exchange(), PARAMS)
            assert str(info.value).endswith("answered HTTP 400" + suffix), payload

    def test_server_error_is_retried(self):
        session = FakeSession([FakeResponse({}, status=503)] * 3)
        backend = HttpBackend(http_descriptor(max_retries=2), session)
        with pytest.raises(BackendUnavailableError):
            backend.chat(exchange(), PARAMS)
        assert len(session.requests) == 3

    def test_retries_back_off_exponentially(self, monkeypatch):
        """``retry_backoff`` seconds before the second attempt, twice that
        before the third, and no sleep after the last."""
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        session = FakeSession([FakeResponse({}, status=503)] * 3)
        backend = HttpBackend(http_descriptor(max_retries=2, retry_backoff=0.5), session)
        with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
            backend.chat(exchange(), PARAMS)
        assert sleeps == [0.5, 1.0]

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

    def test_failed_batch_issues_every_call_and_returns_each_failure(self):
        session = ReverseOrderSession(4, statuses={1: 404, 3: 400})
        backend = HttpBackend(http_descriptor(), session)
        calls = [(exchange(text=f"call {i}"), PARAMS) for i in range(4)]
        first, not_found, third, refused = backend.chat_many(calls)
        assert (first, third) == ("reply 0", "reply 2")
        for error, status in ((not_found, 404), (refused, 400)):
            assert type(error) is BackendUnavailableError
            assert str(error) == f"http://localhost:11434/api/chat answered HTTP {status}; not retried"
        assert session.completed == [3, 2, 1, 0]

    def test_batch_wider_than_the_pool_keeps_input_order(self):
        session = PooledSession()
        backend = HttpBackend(http_descriptor(), session)
        size = 3 * MAX_IN_FLIGHT
        calls = [(exchange(text=f"call {i}"), PARAMS) for i in range(size)]
        assert backend.chat_many(calls) == [f"reply {i}" for i in range(size)]
        assert session.requests == size
        assert session.peak <= MAX_IN_FLIGHT

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
        calls = [(exchange(text=f"call {i}"), PARAMS) for i in range(3 * MAX_IN_FLIGHT)]
        with pytest.raises(KeyboardInterrupt):
            backend.chat_many(calls)
        release.set()
        for thread in threading.enumerate():
            if thread.name.startswith("promptloop-http"):
                thread.join(5)
        assert len(started) <= MAX_IN_FLIGHT


class EmbedPoolSession:
    """Thread-safe fake ``/api/embed`` endpoint: text ``t<i>`` embeds to
    ``[i, 1]``. The ``k``-th request of a batch is held ``hold(k)`` seconds,
    by default less for later ones, so requests sent together overlap and
    finish in reverse order; one that carries a text named in ``statuses``
    answers that status at once. Records each request's texts, the most
    requests in flight at once, and how many have finished."""

    HOLD_S = 0.05

    def __init__(self, statuses=None, hold=lambda k: EmbedPoolSession.HOLD_S / (1 + k)):
        self.statuses = statuses or {}
        self.hold = hold
        self.lock = threading.Lock()
        self.inputs = []
        self.in_flight = self.peak = self.finished = 0

    def post(self, url, json=None, timeout=None):
        texts = json["input"]
        with self.lock:
            self.inputs.append(texts)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            status = next((self.statuses[t] for t in texts if t in self.statuses), 200)
            if status == 200:
                time.sleep(self.hold(int(texts[0][1:]) // EMBED_BATCH))
            return FakeResponse({"embeddings": [[float(t[1:]), 1.0] for t in texts]}, status)
        finally:
            with self.lock:
                self.in_flight -= 1
                self.finished += 1


#: Three full embed requests of 64 texts and a short one.
POOL_TEXTS = [f"t{i}" for i in range(3 * 64 + 5)]


class TestHttpEmbed:
    def test_no_request_carries_more_than_a_batch(self):
        session = EmbedPoolSession()
        HttpBackend(http_descriptor(), session).embed(POOL_TEXTS)
        assert sorted(len(texts) for texts in session.inputs) == [5, 64, 64, 64]
        assert sorted(t for texts in session.inputs for t in texts) == sorted(POOL_TEXTS)

    def test_requests_overlap_up_to_the_in_flight_bound(self, monkeypatch):
        session = EmbedPoolSession()
        HttpBackend(http_descriptor(), session).embed(POOL_TEXTS)
        assert 1 < session.peak <= MAX_IN_FLIGHT
        monkeypatch.setattr(gateway, "MAX_IN_FLIGHT", 2)  # fewer slots than requests
        narrow = EmbedPoolSession()
        HttpBackend(http_descriptor(), narrow).embed(POOL_TEXTS)
        assert narrow.peak == 2 and len(narrow.inputs) == 4

    def test_vectors_come_back_in_input_order(self):
        vectors = HttpBackend(http_descriptor(), EmbedPoolSession()).embed(POOL_TEXTS)
        assert [v.tolist() for v in vectors] == [[float(i), 1.0] for i in range(len(POOL_TEXTS))]

    def test_failing_middle_request_raises_after_every_request_finished(self):
        # The second and the last request fail at once. The third is held
        # longest, so it is still in flight when the second one's failure is
        # first readable.
        session = EmbedPoolSession(
            statuses={"t70": 404, "t195": 400}, hold=lambda k: EmbedPoolSession.HOLD_S * (1 + k)
        )
        backend = HttpBackend(http_descriptor(max_retries=2), session)
        with pytest.raises(BackendUnavailableError, match="404"):
            backend.embed(POOL_TEXTS)
        assert session.finished == len(session.inputs) == 4

    def test_requests_of_different_dimensions_are_protocol_error(self):
        class TwoDimensions(EmbedPoolSession):
            def post(self, url, json=None, timeout=None):
                texts = json["input"]
                return FakeResponse({"embeddings": [[1.0] * (2 if len(texts) == 5 else 3)] * len(texts)})

        backend = HttpBackend(http_descriptor(), TwoDimensions())
        with pytest.raises(ProtocolError, match=r"disagree on dimension: \[2, 3\]"):
            backend.embed(POOL_TEXTS)

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

    @pytest.mark.parametrize(
        "reply",
        [
            [],
            {"embeddings": [["x", 0.0], [0.0, 1.0]]},
            {"embeddings": [[{"x": 1.0}, 0.0], [0.0, 1.0]]},
            {"embeddings": [[None, 0.0], [0.0, 1.0]]},
            {"embeddings": [[1.0, [0.0]], [0.0, 1.0]]},
        ],
    )
    def test_malformed_reply_is_protocol_error(self, reply):
        session = FakeSession([FakeResponse(reply)])
        backend = HttpBackend(http_descriptor(), session)
        with pytest.raises(ProtocolError):
            backend.embed(["a", "b"])

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_is_protocol_error(self, value):
        # Python's json parses these, so they reach the backend as floats.
        reply = json.loads(f'{{"embeddings": [[1.0, 0.0], [0.5, {value}]]}}')
        session = FakeSession([FakeResponse(reply)])
        backend = HttpBackend(http_descriptor(), session)
        with pytest.raises(ProtocolError, match="non-finite"):
            backend.embed(["a", "b"])


class TestHealthCheck:
    def test_mock_reports_ok(self, mock_backend):
        assert mock_backend.health_check() is None

    def test_http_unreachable_reports_cause(self):
        session = FakeSession([requests.ConnectionError("refused")])
        backend = HttpBackend(http_descriptor(), session)
        cause = backend.health_check()
        assert "refused" in cause

    def test_http_reachable_echoes_model_name(self):
        session = FakeSession([FakeResponse(tags("llama3.1", "jina-embeddings-v2-base-de"))])
        backend = HttpBackend(http_descriptor(model_name="llama3.1"), session)
        assert backend.health_check() is None

    @pytest.mark.parametrize("listed", [
        ("llama3.1:latest", "jina-embeddings-v2-base-de:latest", "mistral:7b"),
        ("llama3.1", "jina-embeddings-v2-base-de"),
    ])
    def test_http_both_models_listed_is_ok(self, listed):
        session = FakeSession([FakeResponse(tags(*listed))])
        backend = HttpBackend(http_descriptor(), session)
        assert backend.health_check() is None
        assert session.requests[0]["url"] == "http://localhost:11434/api/tags"

    def test_http_missing_model_is_named(self):
        session = FakeSession([FakeResponse(tags("llama3.1:latest", "llama3.1:8b"))])
        backend = HttpBackend(http_descriptor(), session)
        cause = backend.health_check()
        assert "jina-embeddings-v2-base-de" in cause
        assert "llama3.1" not in cause

    def test_http_tag_must_match(self):
        session = FakeSession([FakeResponse(tags("llama3.1:8b", "jina-embeddings-v2-base-de"))])
        backend = HttpBackend(http_descriptor(), session)
        cause = backend.health_check()
        assert "llama3.1" in cause

    def test_http_malformed_tags_reply_is_unavailable(self):
        session = FakeSession([FakeResponse({"tags": []})])
        backend = HttpBackend(http_descriptor(), session)
        assert "malformed reply" in backend.health_check()

    @pytest.mark.parametrize("name", [None, 5, ["a"]])
    def test_http_model_name_that_is_not_a_string_is_malformed(self, name):
        session = FakeSession([FakeResponse(tags("llama3.1", name))])
        backend = HttpBackend(http_descriptor(), session)
        assert "malformed reply" in backend.health_check()


#: Imports a CLI process makes, then a mock demo run, then an HTTP backend:
#: prints the HTTP-stack modules loaded after each step.
CLIENT_LOADING = """
import sys
HTTP_STACK = ("requests", "urllib3", "idna", "charset_normalizer")
loaded = lambda: [name for name in HTTP_STACK if name in sys.modules]
import promptloop.cli, promptloop.pipeline
from promptloop.demo import run_demo
from promptloop.gateway import BackendDescriptor, HttpBackend
print(loaded())
run_demo(sys.argv[1])
print(loaded())
HttpBackend(BackendDescriptor(kind="http", base_url="http://localhost:1"))
print("requests" in sys.modules)
"""


class EchoAdapter:
    """Transport adapter answering every ``/api`` request of an
    :class:`HttpBackend` well-formed, recording the URL, ``proxies``,
    ``verify`` and ``Authorization`` header each request reached it with."""

    def __init__(self):
        self.lock = threading.Lock()
        self.sent = []

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        with self.lock:
            self.sent.append((request.url, proxies, verify, request.headers.get("Authorization")))
        path = urlsplit(request.url).path
        if path == "/api/chat":
            body = {"message": {"content": "Befund"}}
        elif path == "/api/embed":
            body = {"embeddings": [[1.0, 0.0] for _ in json.loads(request.body)["input"]]}
        else:
            body = tags("llama3.1", "jina-embeddings-v2-base-de")
        response = requests.Response()
        response.status_code = 200
        response._content = json.dumps(body).encode("utf-8")
        response.url = request.url
        response.request = request
        return response

    def close(self):
        pass


class TestHttpSession:
    def test_http_client_loads_only_when_an_http_backend_is_built(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-c", CLIENT_LOADING, os.fspath(tmp_path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "[]", "True"]

    def test_environment_is_read_once_per_backend(self, tmp_path, monkeypatch):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine model.example login arzt password geheim\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("HTTP_PROXY", "http://proxy.example:3128")
        monkeypatch.setenv("NO_PROXY", "localhost")
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", os.fspath(tmp_path / "bundle.pem"))
        monkeypatch.setenv("NETRC", os.fspath(netrc))
        reads = []
        real = requests.utils.get_environ_proxies

        def counted(*args, **kwargs):
            reads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(requests.utils, "get_environ_proxies", counted)
        monkeypatch.setattr(requests.sessions, "get_environ_proxies", counted)
        for base_url, proxied in (("http://model.example:11434", True), ("http://localhost:11434", False)):
            reads.clear()
            backend = HttpBackend(http_descriptor(base_url=base_url))
            adapter = EchoAdapter()
            backend.session.mount("http://", adapter)
            calls = [(exchange(text=f"call {i}", index=i), PARAMS) for i in range(4)]
            assert backend.chat_many(calls) == ["Befund"] * 4
            assert len(backend.embed(["a", "b"])) == 2
            assert backend.health_check() is None
            assert len(adapter.sent) == 6
            assert len(reads) <= 1
            fresh = requests.Session()
            for url, proxies, verify, authorization in adapter.sent:
                expected = fresh.merge_environment_settings(url, {}, None, None, None)
                assert (proxies, verify) == (expected["proxies"], expected["verify"]), url
                assert verify == os.fspath(tmp_path / "bundle.pem")
                assert bool(proxies) is proxied
                assert (authorization is not None) is proxied  # netrc names model.example only
            if proxied:
                assert proxies["http"] == "http://proxy.example:3128"
                assert authorization == "Basic " + base64.b64encode(b"arzt:geheim").decode("ascii")

    def test_given_session_is_used_as_it_is(self, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", "http://proxy.example:3128")
        session = requests.Session()
        backend = HttpBackend(http_descriptor(), session)
        assert backend.session is session
        assert session.trust_env is True
        assert session.proxies == {} and session.verify is True and session.auth is None

    def test_one_item_batch_runs_on_the_calling_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-item batch started a pool")

        monkeypatch.setattr(gateway, "ThreadPoolExecutor", no_pool)
        threads = []

        class ThreadSession(FakeSession):
            def post(self, url, json=None, timeout=None):
                threads.append(threading.current_thread())
                return super().post(url, json, timeout)

        session = ThreadSession([
            FakeResponse({"message": {"content": "Befund"}}),
            FakeResponse({"embeddings": [[1.0, 0.0], [0.0, 1.0]]}),
        ])
        backend = HttpBackend(http_descriptor(), session)
        assert backend.chat_many([(exchange(), PARAMS)]) == ["Befund"]
        assert len(backend.embed(["a", "b"])) == 2
        assert threads == [threading.current_thread()] * 2


def resolved(backend=None, role_params=None):
    """The config of a document with the given backend and role_params
    sections."""
    doc = {"corpus_path": "c"}
    if backend is not None:
        doc["backend"] = backend
    if role_params is not None:
        doc["engine"] = {"role_params": role_params}
    return resolve_config(doc, env={})


class TestDescriptor:
    def test_http_requires_base_url(self):
        with pytest.raises(ConfigError):
            resolved(backend={"kind": "http"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            resolved(backend={"kind": "grpc"})

    def test_sampling_params_validation(self):
        with pytest.raises(ConfigError):
            resolved(role_params={"actor": {"temperature": -0.1, "top_k": 5, "top_p": 0.5}})
        with pytest.raises(ConfigError):
            resolved(role_params={"actor": {"temperature": 0.1, "top_k": 0, "top_p": 0.5}})
        with pytest.raises(ConfigError):
            resolved(role_params={"actor": {"temperature": 0.1, "top_k": 5, "top_p": 0.0}})
        with pytest.raises(ConfigError):
            resolved(role_params={"actor": {"temperature": 0.1, "top_k": 5, "top_p": 1.2}})


class TestRoleParamsTotality:
    def test_defaults_cover_every_role(self):
        assert set(DEFAULT_ROLE_PARAMS) == set(ModelRole)
        engine = resolved(role_params={"actor": {"top_k": 3}}).engine
        assert set(engine.role_params) == set(engine.system_prompts) == set(ModelRole)

    def test_missing_role_rejected(self):
        with pytest.raises(ConfigError):
            resolved(role_params={"mutator": None})
