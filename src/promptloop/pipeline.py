"""End-to-end wiring: config -> backend -> corpus -> engine -> result.

These are the library entry points the CLI shells out to; everything the CLI
can do is reachable here with identical results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import (
    CliConfig,
    build_backend_from_config,
    config_digest,
    corpus_digest,
    run_id_for,
)
from .engine import Engine, OptimizationResult
from .errors import ConfigError
from .gateway import HttpBackend, MockBackend
from .runstore import EventLog, build_manifest
from .scoring import CorpusEvaluator, EmbeddingCache, ReferenceCorpus, embed_corpus, load_corpus


@dataclass
class Runtime:
    config: CliConfig
    backend: MockBackend | HttpBackend
    cache: EmbeddingCache
    corpus: ReferenceCorpus
    evaluator: CorpusEvaluator
    config_digest: str
    corpus_digest: str


def build_runtime(config: CliConfig, corpus_texts=None) -> Runtime:
    """Wire a backend, embedding cache, corpus, and evaluator from a config.

    ``corpus_texts`` bypasses ``corpus_path`` with in-memory documents (the
    bundled demo uses this). Paths are validated before any backend call.
    """
    if corpus_texts is None and not os.path.isfile(config.corpus_path):
        raise ConfigError(f"corpus_path does not exist: {config.corpus_path}")
    backend = build_backend_from_config(config)
    cache = EmbeddingCache(backend)
    if corpus_texts is None:
        corpus = load_corpus(config.corpus_path, cache, config.max_documents)
    else:
        corpus = embed_corpus(list(corpus_texts), cache)
    return Runtime(
        config=config,
        backend=backend,
        cache=cache,
        corpus=corpus,
        evaluator=CorpusEvaluator(corpus, cache),
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
    log_path=None,
) -> OptimizationResult:
    """Run the full pipeline for one task prompt.

    The log lands at ``output_dir/<run_id>.jsonl`` unless ``log_path`` is
    given; the run id is a digest of config, corpus, and prompt, so repeated
    identical runs share a name and identical event bytes.
    """
    runtime = build_runtime(config, corpus_texts)
    run_id = run_id_for(runtime.config_digest, runtime.corpus_digest, task_prompt)
    if log_path is None:
        os.makedirs(config.output_dir, exist_ok=True)
        log_path = os.path.join(config.output_dir, f"{run_id}.jsonl")
    manifest = build_manifest(
        run_id=run_id,
        config_digest=runtime.config_digest,
        corpus_digest=runtime.corpus_digest,
        backend=_backend_summary(config),
    )
    engine = Engine(runtime.backend, runtime.evaluator, config.engine, EventLog(log_path), task_prompt)
    try:
        return engine.run(manifest)
    finally:
        engine.log.close()


def resume_optimization(
    config: CliConfig,
    log_path,
    *,
    corpus_texts=None,
    expected_task_prompt: str | None = None,
) -> OptimizationResult:
    """Continue an interrupted run from its log.

    The task prompt comes from the log; if ``expected_task_prompt`` is given
    it must match. Config and corpus must digest to the manifest's values.
    """
    runtime = build_runtime(config, corpus_texts)
    engine = Engine.resumed(
        runtime.backend,
        runtime.evaluator,
        config.engine,
        log_path,
        runtime.config_digest,
        runtime.corpus_digest,
    )
    if expected_task_prompt is not None and expected_task_prompt != engine.task_prompt:
        engine.log.close()
        raise ConfigError(
            "the given prompt differs from the task prompt recorded in the log"
        )
    try:
        return engine.resume()
    finally:
        engine.log.close()
