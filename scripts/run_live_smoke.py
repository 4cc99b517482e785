#!/usr/bin/env python3
"""One optimization round against a live Ollama-compatible endpoint.

Usage:
    PROMPTLOOP_BASE_URL=http://localhost:11434 python scripts/run_live_smoke.py

Needs a running endpoint with a chat model and an embedding model; writes the
round's event log into a temporary directory and prints the round summary.
This is the manual counterpart of the `live`-marked acceptance test.
"""

import os
import sys
import tempfile

from promptloop.config import config_digest, corpus_digest, resolve_config, run_id_for
from promptloop.demo import DEMO_CORPUS
from promptloop.engine import Engine
from promptloop.gateway import build_backend
from promptloop.runstore import EventLog, build_manifest, summarize_log
from promptloop.scoring import CorpusEvaluator, EmbeddingCache, ReferenceCorpus

TASK = "Schreibe einen realistischen Arztbrief aus der Kardiologie."


def main() -> int:
    base_url = os.environ.get("PROMPTLOOP_BASE_URL", "http://localhost:11434")
    config = resolve_config(
        {
            "version": 1,
            "backend": {"kind": "http", "base_url": base_url, "timeout": 180.0},
            "engine": {"samples_per_round": 1, "max_rounds": 1, "mutation_budget": 0},
            "corpus_path": "unused",
        },
        env={},
    )
    backend = build_backend(config.backend, config.scripts or None)
    cause = backend.health_check()
    if cause is not None:
        print(f"endpoint {base_url} unavailable: {cause}", file=sys.stderr)
        return 3

    cache = EmbeddingCache(backend)
    corpus = ReferenceCorpus(
        documents=list(DEMO_CORPUS),
        embeddings=[cache.embed_one(t) for t in DEMO_CORPUS],
    )
    evaluator = CorpusEvaluator(corpus, cache)
    cfg_digest = config_digest(config)
    cor_digest = corpus_digest(corpus.documents)
    log_path = os.path.join(tempfile.mkdtemp(prefix="promptloop-live-"), "smoke.jsonl")
    manifest = build_manifest(
        run_id=run_id_for(cfg_digest, cor_digest, TASK),
        config_digest=cfg_digest,
        corpus_digest=cor_digest,
        backend={"kind": "http", "model_name": config.backend.model_name},
    )
    engine = Engine(backend, evaluator, config.engine, EventLog(log_path), TASK)
    state = engine.run(manifest)
    engine.log.close()
    summary = summarize_log(log_path)
    print(f"log: {log_path}")
    for row in summary["rounds"]:
        print(f"round {row['round']}: mean={row['mean_score']!r} threshold={row['threshold']!r}")
    print(f"best score: {state.best.top_score()!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
