"""Chat and embedding access behind one small interface.

Two backends implement it: an HTTP client for any Ollama-compatible REST
endpoint, and a fully offline scripted mock whose outputs are a pure function
of its scripts and inputs. Both expose ``chat``, ``chat_many``, ``embed`` and
``health_check``, which returns why the backend cannot serve a run, or None.

Every chat call carries its identity: its role and the role's call index.
The mock looks its reply up by that index, and the HTTP backend derives the
request's sampling seed from it, so a resumed run repeats exactly the calls
of the uninterrupted one.

``chat_many`` sends a batch of independent calls, every one of them, and
returns each call's outcome in input order: its reply, or the backend error
it failed with (an instance of :data:`~promptloop.errors.BACKEND_ERRORS`;
any other exception propagates). The caller decides what a failure means.
``embed`` returns the vectors of its texts in input order and raises the
first failure in input order once all its requests are done. Over HTTP the
chat calls and the embed requests of :data:`EMBED_BATCH` texts each run
concurrently, at most :data:`MAX_IN_FLIGHT` at a time, and a batch of one
request is sent on the calling thread. The mock runs chat calls in index
order.

The HTTP client, ``requests``, is imported only when an :class:`HttpBackend`
is built, so mock runs, reports and config checks never load it.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import BACKEND_ERRORS, BackendUnavailableError, EmptyResponseError, ProtocolError
from .roles import ModelRole, SamplingParams
from .state import SplitMix64

if TYPE_CHECKING:
    import requests

#: Scripted reply that makes the mock raise a backend failure.
FAILURE_MARKER = "<<BACKEND-FAILURE>>"

#: Client errors worth another attempt: request timeout and rate limiting.
_RETRYABLE_4XX = (408, 429)

#: Most requests an HTTP batch keeps in flight, chat or embed. Ollama serves
#: at most ``OLLAMA_NUM_PARALLEL`` requests per model at once, by default 4 or
#: 1 depending on available memory (Ollama FAQ); more would only queue on the
#: server, where the wait counts against each request's ``timeout``. It also
#: stays below the 10 connections of the default ``requests`` adapter pool.
MAX_IN_FLIGHT = 4

#: Most texts one embed request carries. At Ollama's documented 13.1 ms per
#: text a full request is about 0.84 s of server time, far inside the default
#: 120 s ``timeout``, and the bound keeps the request body of a large corpus
#: small.
EMBED_BATCH = 64

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


@functools.lru_cache(maxsize=None)
def _bigram_buckets(dim: int) -> np.ndarray:
    """Bucket of every byte bigram ``(a, b)`` at index ``a * 256 + b``: the
    table form of ``fnv1a64(bytes((a, b))) % dim``, in the smallest unsigned
    dtype that holds ``dim - 1``. uint64 arithmetic wraps mod 2**64 as
    :func:`fnv1a64` does."""
    byte = np.arange(256, dtype=np.uint64)
    prime, modulus = np.uint64(_FNV_PRIME), np.uint64(dim)
    first = (np.uint64(_FNV_OFFSET) ^ byte) * prime
    table = np.empty(256 * 256, dtype=np.min_scalar_type(dim - 1))
    for a in range(256):  # row by row, so no 65,536-entry uint64 temporary
        table[a * 256 : (a + 1) * 256] = ((first[a] ^ byte) * prime) % modulus
    table.flags.writeable = False
    return table


def call_seed(base: int, role: ModelRole, index: int) -> int:
    """Sampling seed of a role's ``index``-th call, in 0..2**31-1: a SplitMix64
    draw keyed by the configured seed, the role and the index, so the calls
    of a run get distinct seeds that every process derives alike."""
    key = fnv1a64(f"{base}:{role.value}:{index}".encode("utf-8"))
    return SplitMix64(key).next_u64() >> 33


class ChatExchange(NamedTuple):
    """One chat request: a role, the role's call index, its system prompt,
    and the message history.

    ``index`` counts the role's earlier calls in the run, from 0. ``messages``
    is an ordered tuple of (speaker, text) pairs with speakers "user" or
    "assistant" (the config checks the example turns), ending in the user
    message the engine adds.

    A NamedTuple: immutable, compared by value, and built as one tuple
    allocation, which the engine does for every call. Being a tuple, it
    also equals a plain tuple of its four fields.
    """

    role: ModelRole
    index: int
    system_prompt: str
    messages: tuple[tuple[str, str], ...]


#: One chat request of a batch.
ChatCall = tuple[ChatExchange, SamplingParams]


def _outcome(chat, call: ChatCall) -> str | Exception:
    """``chat`` of one call: its reply, or the backend error it raised."""
    try:
        return chat(*call)
    except BACKEND_ERRORS as exc:
        return exc


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


class MockBackend:
    """Deterministic offline backend.

    The reply to a call is its role's script item at the call's index; an
    index past the end of the script falls back to "ECHO: " plus the last
    user message, so unscripted runs stay fully deterministic. A
    :data:`FAILURE_MARKER` item raises a backend failure, an empty or
    whitespace-only item raises an empty-response error. Seeds are ignored.

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
        self._buckets = _bigram_buckets(self.dim)
        self._scripts = {role: tuple(items) for role, items in (scripts or {}).items()}

    def chat(self, exchange: ChatExchange, params: SamplingParams) -> str:
        script = self._scripts.get(exchange.role, ())
        if exchange.index < len(script):
            text = script[exchange.index]
        else:
            text = "ECHO: " + exchange.messages[-1][1]
        if text == FAILURE_MARKER:
            raise BackendUnavailableError(f"scripted failure for role {exchange.role.value}")
        if not text.strip():
            raise EmptyResponseError(f"empty completion for role {exchange.role.value}")
        return text

    def chat_many(self, calls: Sequence[ChatCall]) -> list[str | Exception]:
        """Run every call through :meth:`chat`, one after another in input
        order; each call's reply or backend error, in that order."""
        return [_outcome(self.chat, call) for call in calls]

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        if not texts:
            raise ValueError("embed needs at least one text")
        return [self._embed_one(t) for t in texts]

    def _embed_one(self, text: str) -> np.ndarray:
        raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        bigrams = (raw[:-1].astype(np.uint16) << 8) | raw[1:]
        vec = np.bincount(self._buckets[bigrams], minlength=self.dim).astype(np.float64)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec

    def health_check(self) -> str | None:
        return None


class HttpBackend:
    """Client for an Ollama-compatible REST endpoint.

    Chat posts to ``/api/chat`` (non-streaming) with the role's sampling
    options, its seed replaced by :func:`call_seed`; embeddings post to
    ``/api/embed``, at most :data:`EMBED_BATCH` texts per request. Transport
    failures, HTTP 5xx, 408 and 429 are retried up to ``max_retries`` times
    with exponential backoff, so each request makes at most
    ``max_retries + 1`` attempts; any other 4xx is final after one attempt.

    Without a ``session`` the backend makes one that reads the environment
    once: its proxies, ``verify`` and netrc auth are resolved for
    ``base_url`` here, as ``requests`` would on every request, and
    ``trust_env`` is then off. All requests go to that one host. A given
    session is used as it is.
    """

    def __init__(self, descriptor: BackendDescriptor, session: requests.Session | None = None):
        import requests

        self.descriptor = descriptor
        if session is None:
            session = requests.Session()
            settings = session.merge_environment_settings(descriptor.base_url, {}, None, None, None)
            session.proxies = settings["proxies"]
            session.verify = settings["verify"]
            session.auth = requests.utils.get_netrc_auth(descriptor.base_url)
            session.trust_env = False
        self.session = session

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
            "options": {
                **params.as_options(),
                "seed": call_seed(params.seed, exchange.role, exchange.index),
            },
        }
        data = self._post("/api/chat", payload)
        message = data.get("message")
        content = message.get("content") if isinstance(message, dict) else None
        if not isinstance(content, str):
            raise ProtocolError(f"chat response missing message.content: {data!r}")
        if not content.strip():
            raise EmptyResponseError(f"empty completion for role {exchange.role.value}")
        return content

    def chat_many(self, calls: Sequence[ChatCall]) -> list[str | Exception]:
        """Run every call concurrently through :meth:`chat`, all sharing this
        backend's session; each call's reply or backend error, in input
        order."""
        return self._in_flight(functools.partial(_outcome, self.chat), calls)

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Vectors of ``texts`` in input order, embedded :data:`EMBED_BATCH`
        texts per request, the requests sent concurrently."""
        if not texts:
            raise ValueError("embed needs at least one text")
        chunks = [texts[start : start + EMBED_BATCH] for start in range(0, len(texts), EMBED_BATCH)]
        matrices = self._in_flight(self._embed_chunk, chunks)
        dims = sorted({matrix.shape[1] for matrix in matrices})
        if len(dims) != 1:
            raise ProtocolError(f"embedding requests disagree on dimension: {dims}")
        return [row for matrix in matrices for row in matrix]

    def _in_flight(self, send, items: Sequence) -> list:
        """``send`` of every item on a pool of at most :data:`MAX_IN_FLIGHT`
        threads; the results in input order. Every item is sent, and the
        first exception ``send`` raised, in input order, is raised once all
        have finished. A single item is sent on the calling thread, which a
        pool would only keep waiting."""
        if len(items) <= 1:
            return [send(item) for item in items]
        pool = ThreadPoolExecutor(
            max_workers=min(len(items), MAX_IN_FLIGHT), thread_name_prefix="promptloop-http"
        )
        try:
            futures = [pool.submit(send, item) for item in items]
            wait(futures)
        finally:
            # On an interrupt, drop the requests not yet started; the ones in
            # flight still finish before the interpreter exits.
            pool.shutdown(wait=False, cancel_futures=True)
        return [future.result() for future in futures]

    def _embed_chunk(self, texts: Sequence[str]) -> np.ndarray:
        """One ``/api/embed`` request: the checked matrix of the texts' vectors."""
        payload = {"model": self.descriptor.embedding_model_name, "input": list(texts)}
        data = self._post("/api/embed", payload)
        rows = data.get("embeddings")
        if not isinstance(rows, list) or len(rows) != len(texts):
            raise ProtocolError(
                f"expected {len(texts)} embeddings, got {rows if rows is None else len(rows)}"
            )
        try:
            matrix = np.asarray(rows)
        except ValueError as exc:  # rows of different lengths or depths
            raise ProtocolError(f"inconsistent embedding dimensions in batch: {exc}") from exc
        if matrix.ndim != 2:
            raise ProtocolError(f"inconsistent embedding dimensions in batch: shape {matrix.shape}")
        # Strings, objects, nulls and integers beyond int64 give other dtypes.
        if matrix.dtype.kind not in "iuf":
            raise ProtocolError(f"embeddings hold non-numeric values (dtype {matrix.dtype})")
        matrix = matrix.astype(np.float64, copy=False)
        # Python's json accepts NaN and Infinity, which would poison the scores.
        if not np.isfinite(matrix).all():
            raise ProtocolError("embeddings hold a non-finite value")
        return matrix

    def _post(self, path: str, payload: dict) -> dict:
        import requests

        url = self.descriptor.base_url.rstrip("/") + path
        attempts = self.descriptor.max_retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            try:
                response = self.session.post(url, json=payload, timeout=self.descriptor.timeout)
                status = response.status_code
                if 400 <= status < 500 and status not in _RETRYABLE_4XX:
                    raise BackendUnavailableError(f"{url} answered HTTP {status}; not retried{_reason(response)}")
                response.raise_for_status()
            except requests.RequestException as exc:
                last_error = exc
                if attempt + 1 < attempts and self.descriptor.retry_backoff > 0:
                    time.sleep(self.descriptor.retry_backoff * (2**attempt))
                continue
            try:
                data = response.json()
            except ValueError as exc:
                raise ProtocolError(f"non-JSON response from {url}") from exc
            if not isinstance(data, dict):
                raise ProtocolError(f"{url} answered JSON that is not an object: {data!r:.80}")
            return data
        raise BackendUnavailableError(
            f"{url} unreachable after {attempts} attempts: {last_error}"
        ) from last_error

    def health_check(self) -> str | None:
        """Why the backend is unusable, or None once ``/api/tags`` answers and
        lists both configured models."""
        import requests

        url = self.descriptor.base_url.rstrip("/") + "/api/tags"
        try:
            response = self.session.get(url, timeout=self.descriptor.timeout)
            response.raise_for_status()
            served = {_tagged(model["name"]) for model in response.json()["models"]}
        except requests.RequestException as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed reply from {url}: {exc!r}"
        names = (self.descriptor.model_name, self.descriptor.embedding_model_name)
        missing = [name for name in names if _tagged(name) not in served]
        if missing:
            return f"{url} does not list model {', '.join(missing)}"
        return None


def _reason(response) -> str:
    """``": <error>"`` from a refusal whose body is a JSON object with an
    ``error`` string (Ollama's form), capped at 200 characters; else ``""``."""
    try:
        error = response.json().get("error")
    except (ValueError, AttributeError):
        return ""
    return f": {error:.200}" if isinstance(error, str) else ""


def _tagged(name: str) -> str:
    """A model name with its tag; Ollama lists a bare ``llama3.1`` as
    ``llama3.1:latest``."""
    if not isinstance(name, str):  # a listed name comes from the server
        raise TypeError(f"model name {name!r:.80} is not a string")
    return name if ":" in name.rsplit("/", 1)[-1] else name + ":latest"
