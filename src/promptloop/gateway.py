"""Chat and embedding access behind one small interface.

Two backends implement it: an HTTP client for any Ollama-compatible REST
endpoint, and a fully offline scripted mock whose outputs are a pure function
of its scripts and inputs. Both expose ``chat``, ``chat_many``, ``embed``,
``health_check`` and the resume hook ``advance``.

``chat_many`` sends a batch of independent calls: concurrently over HTTP, in
index order on the mock. Either way every call of the batch is issued, the
replies come back in input order, and the first failure in index order is
raised only once the whole batch is done, so a failed batch consumes exactly
as many scripted replies as it has calls.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import requests

from .errors import (
    BackendUnavailableError,
    ConfigError,
    EmptyResponseError,
    PromptloopError,
    ProtocolError,
)
from .roles import ModelRole, SamplingParams

#: Scripted queue item that makes the mock raise a backend failure when popped.
FAILURE_MARKER = "<<BACKEND-FAILURE>>"

#: Client errors worth another attempt: request timeout and rate limiting.
_RETRYABLE_4XX = (408, 429)

#: Most chat requests an HTTP batch keeps in flight. Ollama serves at most
#: ``OLLAMA_NUM_PARALLEL`` requests per model at once, by default 4 or 1
#: depending on available memory (Ollama FAQ); more would only queue on the
#: server, where the wait counts against each request's ``timeout``. It also
#: stays below the 10 connections of the default ``requests`` adapter pool.
MAX_CHAT_WORKERS = 4

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class ChatExchange:
    """One chat request: a role, its system prompt, and the message history.

    ``messages`` is an ordered tuple of (speaker, text) pairs with speakers
    "user" or "assistant"; the last message must come from the user.
    """

    role: ModelRole
    system_prompt: str
    messages: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("exchange needs at least one message")
        for speaker, _ in self.messages:
            if speaker not in ("user", "assistant"):
                raise ValueError(f"unknown speaker {speaker!r}")
        if self.messages[-1][0] != "user":
            raise ValueError("last message must come from the user")

    @property
    def last_user_text(self) -> str:
        return self.messages[-1][1]


#: One chat request of a batch.
ChatCall = tuple[ChatExchange, SamplingParams]


@dataclass(frozen=True)
class BackendDescriptor:
    """Where and how to reach the chat/embedding backend."""

    kind: str = "mock"
    base_url: str = ""
    model_name: str = "llama3.1"
    embedding_model_name: str = "jina-embeddings-v2-base-de"
    timeout: float = 120.0
    max_retries: int = 2
    retry_backoff: float = 0.5
    mock_embedding_dim: int = 64

    def __post_init__(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ConfigError(f"backend.kind must be 'http' or 'mock', got {self.kind!r}")
        if self.kind == "http" and not self.base_url:
            raise ConfigError("backend.base_url is required for kind 'http'")
        for name in ("timeout", "max_retries", "retry_backoff", "mock_embedding_dim"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"backend.{name} must be a number, got {value!r}")
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ConfigError("backend.max_retries must be an integer >= 0")
        if not isinstance(self.mock_embedding_dim, int) or self.mock_embedding_dim < 1:
            raise ConfigError("backend.mock_embedding_dim must be an integer >= 1")
        if self.timeout <= 0:
            raise ConfigError("backend.timeout must be positive")
        if self.retry_backoff < 0:
            raise ConfigError("backend.retry_backoff must be >= 0")


@dataclass
class HealthReport:
    status: str  # "ok" | "unavailable"
    kind: str
    model_name: str
    embedding_model_name: str
    cause: str | None = None


@dataclass
class RecordedCall:
    """Chat call captured by the mock, for assertions in tests."""

    role: ModelRole
    params: SamplingParams
    system_prompt: str
    messages: tuple[tuple[str, str], ...]


class MockBackend:
    """Deterministic offline backend.

    Chat pops per-role FIFO script queues; an empty queue falls back to
    "ECHO: " plus the last user message, so unscripted runs stay fully
    deterministic. A popped :data:`FAILURE_MARKER` raises a backend failure,
    a popped empty or whitespace-only string raises an empty-response error.

    Embeddings count the UTF-8 byte bigrams of the text, bucket each bigram
    at ``fnv1a64(bigram) % dim``, and L2-normalize the counts unless the raw
    vector is zero (texts shorter than two bytes).
    """

    def __init__(
        self,
        descriptor: BackendDescriptor,
        scripts: dict[ModelRole, Sequence[str]] | None = None,
    ) -> None:
        self.descriptor = descriptor
        self.dim = descriptor.mock_embedding_dim
        scripts = scripts or {}
        self._queues: dict[ModelRole, deque[str]] = {
            role: deque(scripts.get(role, ())) for role in ModelRole
        }
        self._lock = threading.Lock()
        self.calls: list[RecordedCall] = []

    def chat(self, exchange: ChatExchange, params: SamplingParams) -> str:
        with self._lock:
            self.calls.append(
                RecordedCall(exchange.role, params, exchange.system_prompt, exchange.messages)
            )
            queue = self._queues[exchange.role]
            text = queue.popleft() if queue else "ECHO: " + exchange.last_user_text
        if text == FAILURE_MARKER:
            raise BackendUnavailableError(f"scripted failure for role {exchange.role.value}")
        if not text.strip():
            raise EmptyResponseError(f"empty completion for role {exchange.role.value}")
        return text

    def chat_many(self, calls: Sequence[ChatCall]) -> list[str]:
        """Run the calls one after another in index order, through :meth:`chat`."""
        replies: list[str] = []
        failures: list[PromptloopError] = []
        for exchange, params in calls:
            try:
                replies.append(self.chat(exchange, params))
            except PromptloopError as exc:
                failures.append(exc)
        if failures:
            raise failures[0]
        return replies

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise ValueError("embed needs at least one text")
        return [self._embed_one(t) for t in texts]

    def _embed_one(self, text: str) -> np.ndarray:
        raw = text.encode("utf-8")
        vec = np.zeros(self.dim, dtype=np.float64)
        for i in range(len(raw) - 1):
            vec[fnv1a64(raw[i : i + 2]) % self.dim] += 1.0
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec

    def health_check(self) -> HealthReport:
        return HealthReport(
            status="ok",
            kind="mock",
            model_name=self.descriptor.model_name,
            embedding_model_name=self.descriptor.embedding_model_name,
        )

    def advance(self, role: ModelRole, count: int) -> None:
        """Discard ``count`` queued items, as a resumed run fast-forwards past
        completions an earlier process already consumed. Pops past the end of
        a queue are no-ops, matching the fallback path which consumes nothing.
        """
        with self._lock:
            queue = self._queues[role]
            for _ in range(count):
                if not queue:
                    break
                queue.popleft()

    def remaining(self, role: ModelRole) -> int:
        with self._lock:
            return len(self._queues[role])


class HttpBackend:
    """Client for an Ollama-compatible REST endpoint.

    Chat posts to ``/api/chat`` (non-streaming) with per-request sampling
    options; embeddings post to ``/api/embed``. Transport failures, HTTP 5xx,
    408 and 429 are retried up to ``max_retries`` times with exponential
    backoff, so each call makes at most ``max_retries + 1`` attempts; any
    other 4xx is final after one attempt.
    """

    def __init__(self, descriptor: BackendDescriptor, session: requests.Session | None = None):
        self.descriptor = descriptor
        self.session = session or requests.Session()

    def chat(self, exchange: ChatExchange, params: SamplingParams) -> str:
        messages = []
        if exchange.system_prompt:
            messages.append({"role": "system", "content": exchange.system_prompt})
        for speaker, text in exchange.messages:
            messages.append({"role": speaker, "content": text})
        payload = {
            "model": self.descriptor.model_name,
            "messages": messages,
            "stream": False,
            "options": params.as_options(),
        }
        data = self._post("/api/chat", payload)
        content = data.get("message", {}).get("content")
        if not isinstance(content, str):
            raise ProtocolError(f"chat response missing message.content: {data!r}")
        if not content.strip():
            raise EmptyResponseError(f"empty completion for role {exchange.role.value}")
        return content

    def chat_many(self, calls: Sequence[ChatCall]) -> list[str]:
        """Run the calls concurrently through :meth:`chat`, at most
        :data:`MAX_CHAT_WORKERS` at a time, all sharing this backend's session."""
        if not calls:
            return []
        pool = ThreadPoolExecutor(
            max_workers=min(len(calls), MAX_CHAT_WORKERS), thread_name_prefix="promptloop-chat"
        )
        try:
            futures = [pool.submit(self.chat, exchange, params) for exchange, params in calls]
            wait(futures)
        finally:
            # On an interrupt, drop the calls not yet started; the ones in
            # flight still finish before the interpreter exits.
            pool.shutdown(wait=False, cancel_futures=True)
        return [future.result() for future in futures]

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise ValueError("embed needs at least one text")
        payload = {"model": self.descriptor.embedding_model_name, "input": list(texts)}
        data = self._post("/api/embed", payload)
        rows = data.get("embeddings")
        if not isinstance(rows, list) or len(rows) != len(texts):
            raise ProtocolError(
                f"expected {len(texts)} embeddings, got {rows if rows is None else len(rows)}"
            )
        vectors = [np.asarray(row, dtype=np.float64) for row in rows]
        dims = {v.shape for v in vectors}
        if len(dims) != 1 or vectors[0].ndim != 1:
            raise ProtocolError(f"inconsistent embedding dimensions in batch: {sorted(dims)}")
        return vectors

    def _post(self, path: str, payload: dict) -> dict:
        url = self.descriptor.base_url.rstrip("/") + path
        attempts = self.descriptor.max_retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            try:
                response = self.session.post(url, json=payload, timeout=self.descriptor.timeout)
                status = response.status_code
                if 400 <= status < 500 and status not in _RETRYABLE_4XX:
                    raise BackendUnavailableError(f"{url} answered HTTP {status}; not retried")
                response.raise_for_status()
            except requests.RequestException as exc:
                last_error = exc
                if attempt + 1 < attempts and self.descriptor.retry_backoff > 0:
                    time.sleep(self.descriptor.retry_backoff * (2**attempt))
                continue
            try:
                return response.json()
            except ValueError as exc:
                raise ProtocolError(f"non-JSON response from {url}") from exc
        raise BackendUnavailableError(
            f"{url} unreachable after {attempts} attempts: {last_error}"
        ) from last_error

    def health_check(self) -> HealthReport:
        url = self.descriptor.base_url.rstrip("/") + "/api/tags"
        try:
            response = self.session.get(url, timeout=self.descriptor.timeout)
            response.raise_for_status()
        except requests.RequestException as exc:
            return HealthReport(
                status="unavailable",
                kind="http",
                model_name=self.descriptor.model_name,
                embedding_model_name=self.descriptor.embedding_model_name,
                cause=str(exc),
            )
        return HealthReport(
            status="ok",
            kind="http",
            model_name=self.descriptor.model_name,
            embedding_model_name=self.descriptor.embedding_model_name,
        )

    def advance(self, role: ModelRole, count: int) -> None:
        """No queue state to fast-forward on a live backend."""


def build_backend(
    descriptor: BackendDescriptor,
    scripts: dict[ModelRole, Sequence[str]] | None = None,
) -> MockBackend | HttpBackend:
    if descriptor.kind == "mock":
        return MockBackend(descriptor, scripts)
    if scripts:
        raise ConfigError("scripts are only valid for the mock backend")
    return HttpBackend(descriptor)
