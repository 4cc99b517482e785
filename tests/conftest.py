import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock
from urllib.parse import urlsplit

import numpy as np
import pytest
import requests
from hypothesis import settings

from promptloop.config import (
    CliConfig,
    config_digest,
    corpus_digest,
    resolve_config,
    run_id_for,
)
from promptloop.engine import Engine
from promptloop.errors import BACKEND_ERRORS, BackendUnavailableError
from promptloop.gateway import BackendDescriptor, MockBackend
from promptloop.mutation import draw_picks
from promptloop.roles import ModelRole, SamplingParams
from promptloop.runstore import EventLog, build_manifest, canonical_json, read_log
from promptloop.scoring import CorpusEvaluator, EmbeddingCache, ReferenceCorpus
from promptloop.state import MUTATION_KINDS, apply

DEFAULT_TASK = "Schreibe einen Arztbrief aus der Kardiologie."

CORPUS_TEXTS = [
    "Der Patient ist kardial stabil. Die Entlassung erfolgt morgen.",
    "Die Medikation wird unverändert fortgeführt.",
]

FIXED_CREATED_AT = "2026-01-01T00:00:00+00:00"

#: Many more examples for the equivalence properties of the sentence splitter
#: and the round mean (``--hypothesis-profile=kernels``); the default profile
#: is unchanged.
settings.register_profile("kernels", max_examples=20_000, deadline=None)


@dataclass
class RecordedCall:
    """One chat call a RecordingBackend saw."""

    role: ModelRole
    params: SamplingParams
    system_prompt: str
    messages: tuple[tuple[str, str], ...]


class RecordingBackend(MockBackend):
    """The scripted mock, recording every chat call it receives (a failing
    one included) in ``calls``."""

    def __init__(self, descriptor, scripts=None):
        super().__init__(descriptor, scripts)
        self.calls: list[RecordedCall] = []

    def chat(self, exchange, params):
        self.calls.append(RecordedCall(exchange.role, params, exchange.system_prompt, exchange.messages))
        return super().chat(exchange, params)


@contextmanager
def mock_requests():
    """The chat and embed calls every MockBackend gets inside the block, in
    order, as ("chat", role) and ("embed", text count). A context manager
    rather than a fixture, so a Hypothesis example can take a fresh one."""
    seen = []
    chat, embed = MockBackend.chat, MockBackend.embed

    def counted_chat(self, exchange, params):
        seen.append(("chat", exchange.role))
        return chat(self, exchange, params)

    def counted_embed(self, texts):
        seen.append(("embed", len(texts)))
        return embed(self, texts)

    with mock.patch.object(MockBackend, "chat", counted_chat), mock.patch.object(MockBackend, "embed", counted_embed):
        yield seen


@pytest.fixture
def mock_backend():
    return MockBackend(BackendDescriptor(kind="mock"))


@pytest.fixture
def cache(mock_backend):
    return EmbeddingCache(mock_backend)


def make_corpus(cache, texts=None):
    texts = list(texts or CORPUS_TEXTS)
    return ReferenceCorpus(documents=texts, embeddings=[cache.embed_one(t) for t in texts])


@dataclass
class Harness:
    """One fully wired engine over the scripted mock, ready to run."""

    engine: Engine
    backend: RecordingBackend
    cache: EmbeddingCache
    corpus: ReferenceCorpus
    evaluator: CorpusEvaluator
    config: CliConfig
    log_path: str
    config_digest: str
    corpus_digest: str
    task: str

    def run(self):
        result = self.engine.run(self.manifest())
        self.engine.log.close()
        return result

    def manifest(self):
        run_id = run_id_for(self.config_digest, self.corpus_digest, self.task)
        return build_manifest(
            run_id=run_id,
            config_digest=self.config_digest,
            corpus_digest=self.corpus_digest,
            backend={"kind": "mock", "model_name": self.config.backend.model_name},
            created_at=FIXED_CREATED_AT,
        )

    def events(self):
        _, events, _ = read_log(self.log_path)
        return events

    def evaluator_for(self, centroid):
        """The scorer a resume builds: this harness's cache over the logged centroid."""
        return CorpusEvaluator(centroid, self.cache)


def scripted_plans(max_rounds, stem="Schritt eins. Schritt zwei. Schritt drei."):
    """Short scripted plans for every regeneration, so plans stay bounded."""
    return [f"Plan {i}: {stem}" for i in range(max_rounds + 1)]


def make_harness(
    tmp_path,
    *,
    engine=None,
    scripts=None,
    corpus_texts=None,
    task=DEFAULT_TASK,
    name="run",
    evaluator=None,
):
    """Build a Harness from plain config-dict overrides."""
    engine_section = {
        "samples_per_round": 2,
        "best_capacity": 3,
        "worst_capacity": 3,
        "max_rounds": 4,
        "mutation_budget": 0,
        "seed": 42,
    }
    engine_section.update(engine or {})
    doc = {
        "version": 1,
        "backend": {"kind": "mock"},
        "engine": engine_section,
        "corpus_path": "unused",
    }
    if scripts:
        doc["scripts"] = {role.value: list(items) for role, items in scripts.items()}
    config = resolve_config(doc, env={})
    backend = RecordingBackend(config.backend, config.scripts)
    cache = EmbeddingCache(backend)
    corpus = make_corpus(cache, corpus_texts)
    if evaluator is None:
        evaluator = CorpusEvaluator(corpus.centroid, cache)
    log_path = os.path.join(tmp_path, f"{name}.jsonl")
    eng = Engine(backend, evaluator, config.engine, EventLog(log_path), task)
    return Harness(
        engine=eng,
        backend=backend,
        cache=cache,
        corpus=corpus,
        evaluator=evaluator,
        config=config,
        log_path=log_path,
        config_digest=config_digest(config),
        corpus_digest=corpus_digest(corpus.documents),
        task=task,
    )


class FakeEvaluator:
    """Scorer stub: pops a scripted score queue, then repeats the last one.
    Its centroid only fills the manifest's ``corpus_centroid``."""

    centroid = np.ones(1)

    def __init__(self, scores):
        self.scores = list(scores)
        self.served = []

    def score_batch(self, texts):
        return [self._score(text) for text in texts]

    def _score(self, text):
        value = self.scores.pop(0) if len(self.scores) > 1 else self.scores[0]
        self.served.append((text, value))
        return value


class OneShotFault:
    """Backend proxy that fails once: the ``at``-th call (1-based) of kind
    ``op`` ("chat" or "embed") reaches the wrapped backend, like a request
    that fails after the server answered, and then raises ``error``.
    ``at=None`` only counts calls.

    A batch issues every call and returns each call's reply or backend
    error, the way both backends do.
    """

    def __init__(self, backend, op="chat", at=None, error=BackendUnavailableError):
        self.backend = backend
        self.op = op
        self.at = at
        self.error = error
        self.counts = {"chat": 0, "embed": 0}

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def _count(self, op):
        self.counts[op] += 1
        if op == self.op and self.counts[op] == self.at:
            raise self.error(f"injected fault at {op} call {self.at}")

    def chat(self, exchange, params):
        reply = self.backend.chat(exchange, params)
        self._count("chat")
        return reply

    def chat_many(self, calls):
        outcomes = []
        for exchange, params in calls:
            try:
                outcomes.append(self.chat(exchange, params))
            except BACKEND_ERRORS as exc:
                outcomes.append(exc)
        return outcomes

    def embed(self, texts):
        vectors = self.backend.embed(texts)
        self._count("embed")
        return vectors


class FakeResponse:
    """Stand-in for a ``requests`` response with a JSON payload and a status."""

    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class OllamaStub:
    """An Ollama server behind ``requests.Session``, installed by the
    ``ollama`` fixture. A chat reply is a digest of the request body, seed
    included, so a resumed run gets the replies the uninterrupted run got;
    an embedding is the default mock backend's vector of the text; ``/api/tags``
    lists the default models. ``requests`` holds the path and JSON body of
    every request, in arrival order."""

    def __init__(self):
        self.requests = []
        self._embedder = MockBackend(BackendDescriptor(kind="mock"))

    def get(self, url, timeout=None):
        self.requests.append((urlsplit(url).path, None))
        return FakeResponse({"models": [{"name": "llama3.1:latest"},
                                        {"name": "jina-embeddings-v2-base-de:latest"}]})

    def post(self, url, json=None, timeout=None):
        path = urlsplit(url).path
        self.requests.append((path, json))
        if path == "/api/embed":
            return FakeResponse({"embeddings": [v.tolist() for v in self._embedder.embed(json["input"])]})
        digest = hashlib.sha256(canonical_json(json).encode("utf-8")).hexdigest()
        return FakeResponse({"message": {"role": "assistant",
                                         "content": f"Antwort {digest[:8]} folgt. Zweiter Satz {digest[8:16]}."}})

    def bodies(self, path):
        return [body for p, body in self.requests if p == path]


@pytest.fixture
def ollama(monkeypatch):
    stub = OllamaStub()
    monkeypatch.setattr(requests.Session, "get", lambda session, url, **kwargs: stub.get(url, **kwargs))
    monkeypatch.setattr(requests.Session, "post", lambda session, url, **kwargs: stub.post(url, **kwargs))
    return stub


def events_by_kind(events, kind):
    return [e for e in events if e.kind == kind]


def fold_best_floors(state, events):
    """Fold events through ``apply`` from ``state``, the run state before
    the first of them; returns the best archive's lowest score before the
    first event and after each MutationApplied."""
    floors = [state.best.entries[-1].score]
    for event in events:
        picks = draw_picks(state) if event.kind in MUTATION_KINDS else None
        apply(state, event, picks)
        if event.kind == "MutationApplied":
            floors.append(state.best.entries[-1].score)
    return floors


def round_of(events, candidate_id):
    for event in events:
        if event.kind == "RoundStarted" and event.payload["candidate_id"] == candidate_id:
            return event.payload["round"]
    return None


def write_config_file(tmp_path, doc, name="config.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, ensure_ascii=False)
    return path


def write_corpus_file(tmp_path, texts, name="corpus.jsonl"):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as handle:
        for text in texts:
            handle.write(json.dumps({"text": text}, ensure_ascii=False) + "\n")
    return path
