#!/usr/bin/env python3
"""One optimization round against a live Ollama-compatible endpoint.

Usage:
    PROMPTLOOP_BASE_URL=http://localhost:11434 python scripts/run_live_smoke.py

Needs a running endpoint with a chat model and an embedding model. The round
runs the path ``promptloop optimize`` runs (``pipeline.run_optimization``):
the bundled demo corpus is embedded in one batched call and the event log
lands in a temporary directory under its run id. Prints the round summary;
exits 3 when the endpoint is unavailable. This is the manual counterpart of
the `live`-marked acceptance test.
"""

import os
import sys
import tempfile

from promptloop.config import resolve_config
from promptloop.demo import DEMO_CORPUS
from promptloop.errors import BackendUnavailableError
from promptloop.pipeline import run_optimization
from promptloop.runstore import summarize_log

TASK = "Schreibe einen realistischen Arztbrief aus der Kardiologie."


def main() -> int:
    base_url = os.environ.get("PROMPTLOOP_BASE_URL", "http://localhost:11434")
    config = resolve_config(
        {
            "version": 1,
            "backend": {"kind": "http", "base_url": base_url, "timeout": 180.0},
            "engine": {"samples_per_round": 1, "max_rounds": 1, "mutation_budget": 0},
            "corpus_path": "unused",
            "output_dir": tempfile.mkdtemp(prefix="promptloop-live-"),
        },
        env={},
    )
    try:
        log_path = run_optimization(config, TASK, corpus_texts=DEMO_CORPUS)
    except BackendUnavailableError as exc:
        print(f"endpoint {base_url} unavailable: {exc}", file=sys.stderr)
        os.rmdir(config.output_dir)  # nothing was written into it
        return 3
    summary = summarize_log(log_path)
    print(f"log: {log_path}")
    for row in summary["rounds"]:
        print(f"round {row['round']}: mean={row['mean_score']!r} threshold={row['threshold']!r}")
    print(f"best score: {summary['best_score']!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
