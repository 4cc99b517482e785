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

Each backend class says in ``in_flight`` how many chat calls of one batch
it runs at once: :data:`MAX_IN_FLIGHT` over HTTP, 1 for the mock. The
engine fills a batch that carries a mutation rewrite with speculative
rewrites only up to that number, so the mock never speculates.

Over HTTP a :class:`Transport` of the standard library's ``http.client``
keeps idle connections alive between requests. It and the modules it needs
(``http.client``, ``ssl``, ``netrc``, ``urllib.request``) are imported only
when an :class:`HttpBackend` is built, so mock runs, reports and config
checks never load them.
"""

from __future__ import annotations

import base64
import functools
import json
import os
import select
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple, Sequence
from urllib.parse import unquote, urlsplit

import numpy as np

from .errors import BACKEND_ERRORS, BackendUnavailableError, ConfigError, EmptyResponseError, ProtocolError
from .roles import ModelRole, SamplingParams
from .state import SplitMix64

#: Scripted reply that makes the mock raise a backend failure.
FAILURE_MARKER = "<<BACKEND-FAILURE>>"

#: Client errors worth another attempt: request timeout and rate limiting.
_RETRYABLE_4XX = (408, 429)

#: Most requests an HTTP batch keeps in flight, chat or embed. Ollama serves
#: at most ``OLLAMA_NUM_PARALLEL`` requests per model at once, by default 4 or
#: 1 depending on available memory (Ollama FAQ); more would only queue on the
#: server, where the wait counts against each request's ``timeout``. A
#: :class:`Transport` keeps as many idle connections, so every thread of a
#: batch finds one open from the batches before.
MAX_IN_FLIGHT = 4

#: A request body's JSON text, ``json.dumps(payload, allow_nan=False)`` from
#: one encoder for every request. A server whose reply depends on the body
#: bytes (a seeded model, a cache) sees the same bytes from run to run.
_encode_json = json.JSONEncoder(allow_nan=False).encode

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
    A batch's calls run one after another, so ``in_flight`` is 1.

    Embeddings count the UTF-8 byte bigrams of the text, bucket each bigram
    at ``fnv1a64(bigram) % dim``, and L2-normalize the counts unless the raw
    vector is zero (texts shorter than two bytes).
    """

    #: Chat calls of one batch run at once.
    in_flight = 1

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

    Without a ``session`` the backend builds a :class:`Transport` for
    ``base_url``, which reads the environment once; all requests go to that
    one host. A given session, anything with the transport's ``post`` and
    ``get``, is used as it is.
    """

    #: Chat calls of one batch run at once.
    in_flight = MAX_IN_FLIGHT

    def __init__(self, descriptor: BackendDescriptor, session: Transport | None = None):
        self.descriptor = descriptor
        self.session = Transport(descriptor.base_url) if session is None else session

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
        return self._pooled(functools.partial(_outcome, self.chat), calls)

    def embed(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Vectors of ``texts`` in input order, embedded :data:`EMBED_BATCH`
        texts per request, the requests sent concurrently."""
        if not texts:
            raise ValueError("embed needs at least one text")
        chunks = [texts[start : start + EMBED_BATCH] for start in range(0, len(texts), EMBED_BATCH)]
        matrices = self._pooled(self._embed_chunk, chunks)
        dims = sorted({matrix.shape[1] for matrix in matrices})
        if len(dims) != 1:
            raise ProtocolError(f"embedding requests disagree on dimension: {dims}")
        return [row for matrix in matrices for row in matrix]

    def _pooled(self, send, items: Sequence) -> list:
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
        import http.client

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
            except (OSError, http.client.HTTPException) as exc:
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
        import http.client

        url = self.descriptor.base_url.rstrip("/") + "/api/tags"
        try:
            response = self.session.get(url, timeout=self.descriptor.timeout)
            response.raise_for_status()
            served = {_tagged(model["name"]) for model in response.json()["models"]}
        except (OSError, http.client.HTTPException) as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed reply from {url}: {exc!r}"
        names = (self.descriptor.model_name, self.descriptor.embedding_model_name)
        missing = [name for name in names if _tagged(name) not in served]
        if missing:
            return f"{url} does not list model {', '.join(missing)}"
        return None


class HttpStatusError(OSError):
    """A reply whose HTTP status is 400 or more, raised by
    :meth:`Reply.raise_for_status`."""


class Reply(NamedTuple):
    """A whole HTTP reply, read off its connection."""

    status_code: int
    url: str
    content: bytes

    def json(self):
        return json.loads(self.content)

    def raise_for_status(self) -> None:
        if self.status_code >= 400:
            raise HttpStatusError(f"HTTP {self.status_code} for url: {self.url}")


class Transport:
    """Keep-alive HTTP/1.1 client on ``http.client`` for the one host of
    ``base_url``: ``post(url, json=, timeout=)`` sends ``json`` as a UTF-8
    JSON body and ``get(url, timeout=)`` sends none; both return a
    :class:`Reply`. Every ``url`` starts with ``base_url``. ``timeout``
    bounds the connect and every read.

    The environment is read once, here, for ``base_url``: its proxy
    (``HTTP_PROXY``, ``HTTPS_PROXY`` or ``ALL_PROXY``, unless ``NO_PROXY``
    names the host), reached in absolute form for an http target and
    through a CONNECT tunnel for an https one; the CA bundle of an https
    target (``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE``, a file or a
    directory, else the system store); and netrc Basic auth for its host
    (``NETRC``, else ``~/.netrc``; a missing or unparsable file is ignored),
    else the URL's own user and password.

    A request takes the last idle connection off a lock-guarded stack, or
    opens one. It pushes the connection back once the reply is read, unless
    the reply says ``Connection: close`` or :data:`MAX_IN_FLIGHT` are idle
    already. An idle connection whose socket reads as ready was closed by
    the server and is dropped before anything is sent on it. A request that
    fails closes its connection and raises; retries are the caller's.
    """

    def __init__(self, base_url: str) -> None:
        import http.client
        import urllib.request

        target = urlsplit(base_url)
        if target.scheme not in ("http", "https") or not target.hostname:
            raise ConfigError(f"backend.base_url {base_url!r} is not an http:// or https:// URL")
        host = target.netloc.rpartition("@")[2]
        self._https = target.scheme == "https"
        self._class = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
        self._ca = (os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")) if self._https else None
        # A request's target is ``_origin`` (the scheme and host in absolute
        # form, through an http proxy) plus its url past the first ``_cut``
        # characters, the scheme and host of ``base_url``.
        self._address, self._tunnel, self._origin = host, None, ""
        self._headers = _basic("Authorization", _netrc_login(target.hostname) or _userinfo(target))
        proxies = urllib.request.getproxies_environment()
        proxy = proxies.get(target.scheme) or proxies.get("all")
        if proxy and not urllib.request.proxy_bypass_environment(host, proxies):
            via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            self._address = via.netloc.rpartition("@")[2]
            proxy_headers = _basic("Proxy-Authorization", _userinfo(via))
            if self._https:
                self._tunnel = (host, None, proxy_headers)
            else:
                self._origin = f"http://{host}"
                self._headers.update(proxy_headers)
        self._json_headers = {**self._headers, "Content-Type": "application/json"}
        self._cut = len(f"{target.scheme}://{target.netloc}")
        self._lock = threading.Lock()
        self._idle: list = []

    def post(self, url: str, json=None, timeout: float | None = None) -> Reply:
        return self._send("POST", url, _encode_json(json).encode("utf-8"), self._json_headers, timeout)

    def get(self, url: str, timeout: float | None = None) -> Reply:
        return self._send("GET", url, None, self._headers, timeout)

    def _send(self, method: str, url: str, body: bytes | None, headers: dict, timeout: float | None) -> Reply:
        connection = self._checkout(timeout)
        try:
            connection.request(method, self._origin + (url[self._cut :] or "/"), body, headers)
            response = connection.getresponse()
            content = response.read()
        except BaseException:
            connection.close()
            raise
        with self._lock:
            kept = not response.will_close and len(self._idle) < MAX_IN_FLIGHT
            if kept:
                self._idle.append(connection)
        if not kept:
            connection.close()
        return Reply(response.status, url, content)

    def _checkout(self, timeout: float | None):
        """An idle connection the server has not closed, or a new one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                connection = self._idle.pop()
            if not _readable(connection.sock):
                connection.sock.settimeout(timeout)
                return connection
            connection.close()
        connection = self._class(self._address, timeout=timeout, **({"context": self._tls} if self._https else {}))
        if self._tunnel:
            connection.set_tunnel(*self._tunnel)
        return connection

    @functools.cached_property
    def _tls(self):
        """The SSL context of an https target, built at its first connect,
        so a CA bundle that cannot be loaded fails a request, as an
        unreachable host does."""
        import ssl

        folder = self._ca is not None and os.path.isdir(self._ca)
        return ssl.create_default_context(cafile=None if folder else self._ca, capath=self._ca if folder else None)


def _readable(sock) -> bool:
    """Whether ``sock`` reads as ready at zero timeout. For an idle
    connection that means the server closed it (or sent what no request
    asked for), as urllib3 checks."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _netrc_login(host: str) -> tuple[str, str] | None:
    """Login and password that the netrc file (``NETRC``, else ``~/.netrc``)
    holds for ``host``, or None; a missing or unparsable file holds none."""
    import netrc

    try:
        entry = netrc.netrc(os.environ.get("NETRC") or os.path.expanduser("~/.netrc")).authenticators(host)
    except (OSError, UnicodeDecodeError, netrc.NetrcParseError):
        return None
    return (entry[0], entry[2]) if entry else None


def _userinfo(url) -> tuple[str, str] | None:
    """User and password of a split URL, unquoted, or None without a user."""
    return None if url.username is None else (unquote(url.username), unquote(url.password or ""))


def _basic(header: str, login: tuple[str, str] | None) -> dict[str, str]:
    """``header`` carrying Basic auth for a (user, password) pair; no header
    without one."""
    return {header: "Basic " + base64.b64encode(":".join(login).encode("utf-8")).decode()} if login else {}


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
