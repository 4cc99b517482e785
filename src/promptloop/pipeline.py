"""End-to-end wiring: config -> backend -> corpus -> engine -> event log.

These are the library entry points the CLI shells out to; everything the CLI
can do is reachable here with identical results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import CliConfig, config_digest, corpus_digest, run_id_for
from .engine import Engine
from .errors import ConfigError, LogError
from .gateway import HttpBackend, MockBackend
from .runstore import EventLog, build_manifest
from .scoring import CorpusEvaluator, EmbeddingCache, embed_corpus, load_corpus, read_corpus


@dataclass
class Runtime:
    backend: MockBackend | HttpBackend
    evaluator: CorpusEvaluator
    config_digest: str
    corpus_digest: str


def _check_corpus_path(config: CliConfig, corpus_texts) -> None:
    if corpus_texts is None and not os.path.isfile(config.corpus_path):
        raise ConfigError(f"corpus_path does not exist: {config.corpus_path}")


def _backend(config: CliConfig) -> MockBackend | HttpBackend:
    if config.backend.kind == "mock":
        return MockBackend(config.backend, config.scripts)
    return HttpBackend(config.backend)


def build_runtime(config: CliConfig, corpus_texts=None) -> Runtime:
    """Wire a backend, embedding cache, corpus, and evaluator from a config.

    ``corpus_texts`` bypasses ``corpus_path`` with in-memory documents (the
    bundled demo uses this). Paths are validated before any backend call.
    """
    _check_corpus_path(config, corpus_texts)
    backend = _backend(config)
    cache = EmbeddingCache(backend)
    if corpus_texts is None:
        corpus = load_corpus(config.corpus_path, cache, config.max_documents)
    else:
        corpus = embed_corpus(list(corpus_texts), cache)
    return Runtime(
        backend=backend,
        evaluator=CorpusEvaluator(corpus.centroid, cache),
        config_digest=config_digest(config),
        corpus_digest=corpus_digest(corpus.documents),
    )


def _backend_summary(config: CliConfig) -> dict:
    summary = {
        "kind": config.backend.kind,
        "model_name": config.backend.model_name,
        "embedding_model_name": config.backend.embedding_model_name,
    }
    if config.backend.kind == "http":
        summary["base_url"] = config.backend.base_url
    return summary


def run_optimization(
    config: CliConfig,
    task_prompt: str,
    *,
    corpus_texts=None,
) -> str:
    """Run the full pipeline for one task prompt; returns the log's path.

    The log lands at ``output_dir/<run_id>.jsonl``; the run id is a digest
    of config, corpus, and prompt, so repeated identical runs share a name
    and identical event bytes. ``output_dir`` is made, or refused, before
    any backend request.
    """
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output_dir {config.output_dir}: {exc}") from exc
    runtime = build_runtime(config, corpus_texts)
    run_id = run_id_for(runtime.config_digest, runtime.corpus_digest, task_prompt)
    log_path = os.path.join(config.output_dir, f"{run_id}.jsonl")
    manifest = build_manifest(
        run_id=run_id,
        config_digest=runtime.config_digest,
        corpus_digest=runtime.corpus_digest,
        backend=_backend_summary(config),
    )
    engine = Engine(runtime.backend, runtime.evaluator, config.engine, EventLog(log_path), task_prompt)
    try:
        engine.run(manifest)
    finally:
        engine.log.close()
    return log_path


def resume_optimization(
    config: CliConfig,
    log_path,
    *,
    corpus_texts=None,
    expected_task_prompt: str | None = None,
) -> str:
    """Continue an interrupted run from its log; returns the log's path.

    The task prompt comes from the log; if ``expected_task_prompt`` is given
    it must match. Config and corpus must digest to the manifest's values.
    The corpus is read only for its digest: scores use the centroid the
    manifest records, so the log is checked before any backend request and
    the corpus is not embedded again. A mock backend's centroid must have
    ``mock_embedding_dim`` values; an ``http`` one is checked against the
    first scored batch (see :class:`CorpusEvaluator`). A log without a
    centroid gets the one setup would build.
    """
    _check_corpus_path(config, corpus_texts)
    documents = read_corpus(config.corpus_path, config.max_documents) if corpus_texts is None else list(corpus_texts)
    backend = _backend(config)
    cache = EmbeddingCache(backend)

    def evaluator_for(centroid):
        if centroid is None:
            return CorpusEvaluator(embed_corpus(documents, cache).centroid, cache)
        if config.backend.kind == "mock" and len(centroid) != config.backend.mock_embedding_dim:
            raise LogError(
                f"log {log_path}: its corpus centroid has {len(centroid)} values,"
                f" the mock backend embeds in {config.backend.mock_embedding_dim}"
            )
        return CorpusEvaluator(centroid, cache, os.fspath(log_path))

    engine = Engine.resumed(
        backend,
        evaluator_for,
        config.engine,
        log_path,
        config_digest(config),
        corpus_digest(documents),
        expected_task_prompt,
    )
    try:
        engine.resume()
    finally:
        engine.log.close()
    return engine.log.path
