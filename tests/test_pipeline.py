import json
import os

import pytest
import requests

from conftest import FakeResponse, write_config_file, write_corpus_file
from promptloop.config import load_config
from promptloop.errors import ConfigError, ProtocolError
from promptloop.pipeline import build_runtime, resume_optimization, run_optimization
from promptloop.runstore import read_log

CORPUS = [
    "Der Patient ist kardial stabil. Die Entlassung erfolgt morgen.",
    "Die Medikation wird unverändert fortgeführt.",
]


def library_config(tmp_path, **overrides):
    corpus_path = write_corpus_file(tmp_path, CORPUS)
    doc = {
        "version": 1,
        "backend": {"kind": "mock"},
        "engine": {
            "samples_per_round": 1,
            "max_rounds": 2,
            "mutation_budget": 0,
            "seed": 42,
        },
        "corpus_path": corpus_path,
        "output_dir": os.path.join(tmp_path, "runs"),
    }
    doc.update(overrides)
    return load_config(write_config_file(tmp_path, doc))


class TestRunOptimization:
    def test_happy_path_creates_named_log(self, tmp_path):
        config = library_config(tmp_path)
        result = run_optimization(config, "Schreibe einen Arztbrief")
        assert os.path.isfile(result.log_path)
        manifest, events = read_log(result.log_path)
        assert manifest["run_id"] in result.log_path
        assert events[-1].kind == "RunFinished"
        assert result.rounds_completed == 2
        assert 0.0 <= result.best.score <= 1.0

    def test_missing_corpus_path_fails_before_backend_use(self, tmp_path):
        config = library_config(tmp_path, corpus_path=os.path.join(tmp_path, "nope.jsonl"))
        with pytest.raises(ConfigError, match="corpus_path"):
            run_optimization(config, "Aufgabe")

    def test_in_memory_corpus_bypasses_path(self, tmp_path):
        config = library_config(tmp_path, corpus_path="ignored-because-texts-given")
        result = run_optimization(config, "Aufgabe", corpus_texts=CORPUS)
        assert os.path.isfile(result.log_path)

    def test_same_inputs_same_run_id_and_bytes(self, tmp_path):
        config = library_config(tmp_path)
        first = run_optimization(config, "Aufgabe")
        first_lines = open(first.log_path, encoding="utf-8").read().splitlines()
        second = run_optimization(config, "Aufgabe")
        second_lines = open(second.log_path, encoding="utf-8").read().splitlines()
        assert first.log_path == second.log_path
        assert first_lines[1:] == second_lines[1:]


class TestResumeOptimization:
    def _truncated(self, tmp_path):
        config = library_config(
            tmp_path,
            scripts={
                "prompting": [f"Plan {i}. Zwei Sätze pro Plan." for i in range(4)],
                "actor": ["Der Patient ist stabil.", "Die Medikation bleibt.", "Befund gut."],
            },
            engine={"samples_per_round": 1, "max_rounds": 3, "mutation_budget": 0, "seed": 42},
        )
        result = run_optimization(config, "Aufgabe")
        original = open(result.log_path, encoding="utf-8").read()
        lines = original.splitlines()
        cut = next(
            i for i, line in enumerate(lines[1:], start=1)
            if json.loads(line)["kind"] == "PromptRegenerated"
            and json.loads(line)["payload"]["round"] == 1
        )
        with open(result.log_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[: cut + 1]) + "\n")
        return config, result.log_path, original

    def test_resume_completes_interrupted_run(self, tmp_path):
        config, log, original = self._truncated(tmp_path)
        result = resume_optimization(config, log)
        assert result.rounds_completed == 3
        _, events = read_log(log)
        assert events[-1].kind == "RunFinished"
        assert open(log, encoding="utf-8").read() == original

    def test_resume_rejects_foreign_prompt(self, tmp_path):
        config, log, _ = self._truncated(tmp_path)
        with pytest.raises(ConfigError, match="differs"):
            resume_optimization(config, log, expected_task_prompt="Andere Aufgabe")

    def test_scripted_failure_repeats_deterministically_on_resume(self, tmp_path):
        # a failure scripted into the queue is part of the config digest, so a
        # resume replays into the same failure rather than silently diverging
        config = library_config(
            tmp_path,
            scripts={"actor": ["Der Patient ist stabil.", "<<BACKEND-FAILURE>>"]},
            engine={"samples_per_round": 1, "max_rounds": 2, "mutation_budget": 0, "seed": 42},
        )
        from promptloop.errors import RunAbortedError

        with pytest.raises(RunAbortedError):
            run_optimization(config, "Aufgabe")
        runs = os.path.join(tmp_path, "runs")
        log = next(os.path.join(runs, n) for n in os.listdir(runs) if n.endswith(".jsonl"))
        with pytest.raises(RunAbortedError):
            resume_optimization(config, log)


HTTP_BACKEND = {"kind": "http", "base_url": "http://stub", "retry_backoff": 0.0}


class TestBuildRuntime:
    def test_short_embed_batch_is_protocol_error(self, tmp_path, monkeypatch):
        def one_row(session, url, json=None, timeout=None):
            return FakeResponse({"embeddings": [[1.0, 0.0]]})

        monkeypatch.setattr(requests.Session, "post", one_row)
        with pytest.raises(ProtocolError, match="expected 2 embeddings, got 1"):
            build_runtime(library_config(tmp_path, backend=HTTP_BACKEND))

    def test_in_memory_corpus_is_embedded_in_batches(self, tmp_path, monkeypatch):
        sizes = []

        def embed(session, url, json=None, timeout=None):
            sizes.append(len(json["input"]))
            return FakeResponse({"embeddings": [[1.0, float(len(t))] for t in json["input"]]})

        monkeypatch.setattr(requests.Session, "post", embed)
        texts = [f"Text {i}." for i in range(70)]
        runtime = build_runtime(library_config(tmp_path, backend=HTTP_BACKEND), corpus_texts=texts)
        assert sizes == [64, 6]
        assert runtime.corpus.documents == texts

    def test_runtime_pieces_are_consistent(self, tmp_path):
        config = library_config(tmp_path)
        runtime = build_runtime(config)
        assert runtime.corpus.documents == CORPUS
        score = runtime.evaluator.score(CORPUS[0])
        assert 0.0 < score <= 1.0
        assert len(runtime.config_digest) == 64
        assert len(runtime.corpus_digest) == 64
