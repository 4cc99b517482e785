import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import write_config_file, write_corpus_file
from promptloop.cli import main

CORPUS = [
    "Der Patient ist kardial stabil. Die Entlassung erfolgt morgen.",
    "Die Medikation wird unverändert fortgeführt.",
]


@pytest.fixture
def runner():
    return CliRunner()


def small_config(tmp_path, **overrides):
    corpus_path = write_corpus_file(tmp_path, CORPUS)
    doc = {
        "version": 1,
        "backend": {"kind": "mock"},
        "engine": {
            "samples_per_round": 1,
            "best_capacity": 5,
            "worst_capacity": 5,
            "max_rounds": 2,
            "mutation_budget": 0,
            "seed": 42,
        },
        "corpus_path": corpus_path,
        "output_dir": os.path.join(tmp_path, "runs"),
    }
    doc.update(overrides)
    return write_config_file(tmp_path, doc)


class TestOptimize:
    def test_happy_path_writes_log_and_report(self, runner, tmp_path):
        config = small_config(tmp_path)
        result = runner.invoke(main, ["optimize", config, "--prompt", "Schreibe einen Arztbrief"])
        assert result.exit_code == 0, result.output + str(result.exception)
        runs = os.listdir(os.path.join(tmp_path, "runs"))
        assert any(name.endswith(".jsonl") for name in runs)
        assert any(name.endswith(".report.json") for name in runs)
        assert "best score:" in result.output
        assert "best prompt:" in result.output

    def test_both_prompt_sources_is_usage_error(self, runner, tmp_path):
        config = small_config(tmp_path)
        prompt_file = os.path.join(tmp_path, "prompt.txt")
        open(prompt_file, "w").write("Aufgabe")
        result = runner.invoke(
            main,
            ["optimize", config, "--prompt", "x", "--prompt-file", prompt_file],
        )
        assert result.exit_code == 2

    def test_missing_prompt_is_usage_error(self, runner, tmp_path):
        config = small_config(tmp_path)
        result = runner.invoke(main, ["optimize", config])
        assert result.exit_code == 2

    def test_prompt_file_source(self, runner, tmp_path):
        config = small_config(tmp_path)
        prompt_file = os.path.join(tmp_path, "prompt.txt")
        open(prompt_file, "w", encoding="utf-8").write("Schreibe einen Arztbrief\n")
        result = runner.invoke(main, ["optimize", config, "--prompt-file", prompt_file])
        assert result.exit_code == 0, result.output

    def test_empty_prompt_rejected(self, runner, tmp_path):
        config = small_config(tmp_path)
        result = runner.invoke(main, ["optimize", config, "--prompt", "   "])
        assert result.exit_code == 2

    def test_resume_digest_mismatch_names_digest(self, runner, tmp_path):
        config = small_config(tmp_path)
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe eins"])
        assert result.exit_code == 0, result.output
        runs_dir = os.path.join(tmp_path, "runs")
        log = next(
            os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")
        )
        changed = small_config(tmp_path, engine={
            "samples_per_round": 1, "best_capacity": 5, "worst_capacity": 5,
            "max_rounds": 2, "mutation_budget": 0, "seed": 43,
        })
        result = runner.invoke(main, ["optimize", changed, "--resume", log])
        assert result.exit_code == 2
        assert "config digest" in result.stderr

    def test_resume_of_finished_run_rejected(self, runner, tmp_path):
        config = small_config(tmp_path)
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe eins"])
        assert result.exit_code == 0
        runs_dir = os.path.join(tmp_path, "runs")
        log = next(
            os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")
        )
        result = runner.invoke(main, ["optimize", config, "--resume", log])
        assert result.exit_code == 2
        assert "finished" in result.stderr

    def test_missing_corpus_file_is_config_error(self, runner, tmp_path):
        config = small_config(tmp_path, corpus_path=os.path.join(tmp_path, "nope.jsonl"))
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe"])
        assert result.exit_code == 2
        assert "corpus_path" in result.stderr

    def test_mid_flight_backend_failure_exits_four_and_keeps_log(self, runner, tmp_path):
        config = small_config(
            tmp_path,
            scripts={"actor": ["<<BACKEND-FAILURE>>"]},
        )
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe"])
        assert result.exit_code == 4
        assert "resume" in result.stderr
        runs_dir = os.path.join(tmp_path, "runs")
        logs = [n for n in os.listdir(runs_dir) if n.endswith(".jsonl")]
        assert len(logs) == 1
        last_line = open(os.path.join(runs_dir, logs[0])).read().splitlines()[-1]
        assert json.loads(last_line)["kind"] == "BackendFailure"

    def test_rerun_after_abort_keeps_the_log(self, runner, tmp_path):
        config = small_config(tmp_path, scripts={"actor": ["<<BACKEND-FAILURE>>"]})
        command = ["optimize", config, "--prompt", "Aufgabe"]
        assert runner.invoke(main, command).exit_code == 4
        runs_dir = os.path.join(tmp_path, "runs")
        [log] = [os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")]
        before = Path(log).read_bytes()
        result = runner.invoke(main, command)
        assert result.exit_code == 2
        assert "--resume" in result.stderr
        assert Path(log).read_bytes() == before

    def test_whitespace_only_plan_aborts_resumably(self, runner, tmp_path):
        # a one-slot best archive sends the whitespace plan straight into the
        # mutation phase, where it used to crash sentence segmentation
        config = small_config(
            tmp_path,
            engine={"samples_per_round": 1, "best_capacity": 1, "worst_capacity": 1,
                    "max_rounds": 2, "mutation_budget": 1, "seed": 42},
            scripts={"prompting": ["   "]},
        )
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe"])
        assert result.exit_code == 4, result.output + str(result.exception)
        runs_dir = os.path.join(tmp_path, "runs")
        log = next(n for n in os.listdir(runs_dir) if n.endswith(".jsonl"))
        last_line = open(os.path.join(runs_dir, log)).read().splitlines()[-1]
        assert json.loads(last_line)["kind"] == "BackendFailure"

    def test_resume_with_mismatching_prompt_rejected(self, runner, tmp_path):
        config = small_config(tmp_path, scripts={"actor": ["<<BACKEND-FAILURE>>"]})
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe"])
        assert result.exit_code == 4
        runs_dir = os.path.join(tmp_path, "runs")
        log = next(
            os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")
        )
        result = runner.invoke(
            main, ["optimize", config, "--prompt", "Andere Aufgabe", "--resume", log]
        )
        assert result.exit_code == 2
        assert "differs" in result.stderr

    def test_mock_backend_never_touches_the_network(self, runner, tmp_path, monkeypatch):
        import requests

        def explode(*args, **kwargs):
            raise AssertionError("network touched with mock backend")

        monkeypatch.setattr(requests.Session, "post", explode)
        monkeypatch.setattr(requests.Session, "get", explode)
        monkeypatch.setattr(requests, "post", explode)
        monkeypatch.setattr(requests, "get", explode)
        config = small_config(tmp_path)
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe"])
        assert result.exit_code == 0, result.output


class TestScore:
    def test_identical_text_prints_one(self, runner, tmp_path):
        corpus_path = write_corpus_file(tmp_path, ["Der Patient ist stabil."], name="single.jsonl")
        config = small_config(tmp_path)
        result = runner.invoke(
            main,
            ["score", config, "--text", "Der Patient ist stabil.", "--corpus", corpus_path],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "1.0"

    def test_exact_mean_of_two_known_cosines(self, runner, tmp_path):
        corpus_path = write_corpus_file(
            tmp_path, ["aaaaabbaba", "aaaabcbcbaba"], name="crafted.jsonl"
        )
        config = small_config(tmp_path)
        result = runner.invoke(main, ["score", config, "--text", "aaa", "--corpus", corpus_path])
        assert result.exit_code == 0
        assert result.output.strip() == "0.7"

    def test_empty_text_is_degenerate(self, runner, tmp_path):
        config = small_config(tmp_path)
        result = runner.invoke(main, ["score", config, "--text", ""])
        assert result.exit_code == 2

    def test_corpus_defaults_to_config(self, runner, tmp_path):
        config = small_config(tmp_path)
        result = runner.invoke(main, ["score", config, "--text", CORPUS[0]])
        assert result.exit_code == 0
        assert 0.0 < float(result.output.strip()) <= 1.0

    def test_cli_matches_library_result(self, runner, tmp_path):
        from promptloop.gateway import BackendDescriptor, MockBackend
        from promptloop.scoring import CorpusEvaluator, EmbeddingCache, ReferenceCorpus

        config = small_config(tmp_path)
        result = runner.invoke(main, ["score", config, "--text", "Der Befund folgt."])
        cache = EmbeddingCache(MockBackend(BackendDescriptor(kind="mock")))
        corpus = ReferenceCorpus(
            documents=list(CORPUS), embeddings=[cache.embed_one(t) for t in CORPUS]
        )
        expected = CorpusEvaluator(corpus, cache).score("Der Befund folgt.")
        assert result.output.strip() == repr(expected)


class TestValidateConfig:
    def test_missing_corpus_path_named(self, runner, tmp_path):
        path = write_config_file(tmp_path, {"version": 1, "backend": {"kind": "mock"}})
        result = runner.invoke(main, ["validate-config", path])
        assert result.exit_code == 2
        assert "corpus_path" in result.stderr

    def test_unknown_field_named(self, runner, tmp_path):
        path = write_config_file(
            tmp_path, {"version": 1, "corpus_path": "c.jsonl", "tempreature": 1}
        )
        result = runner.invoke(main, ["validate-config", path])
        assert result.exit_code == 2
        assert "tempreature" in result.stderr

    def test_normalized_output_contains_role_defaults(self, runner, tmp_path):
        path = write_config_file(tmp_path, {"version": 1, "corpus_path": "c.jsonl", "engine": {}})
        result = runner.invoke(main, ["validate-config", path])
        assert result.exit_code == 0
        normalized = json.loads(result.output)
        role_params = normalized["engine"]["role_params"]
        assert role_params["prompting"] == {"temperature": 0.5, "top_k": 40, "top_p": 0.85, "seed": 42}
        assert role_params["actor"] == {"temperature": 0.8, "top_k": 50, "top_p": 0.9, "seed": 42}

    def test_env_var_overrides_base_url(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("PROMPTLOOP_BASE_URL", "http://ollama.internal:11434")
        path = write_config_file(
            tmp_path,
            {"version": 1, "corpus_path": "c.jsonl", "backend": {"kind": "http", "base_url": "http://old"}},
        )
        result = runner.invoke(main, ["validate-config", path])
        assert result.exit_code == 0
        normalized = json.loads(result.output)
        assert normalized["backend"]["base_url"] == "http://ollama.internal:11434"

    def test_invalid_json_rejected(self, runner, tmp_path):
        path = os.path.join(tmp_path, "broken.json")
        open(path, "w").write("{not json")
        result = runner.invoke(main, ["validate-config", path])
        assert result.exit_code == 2


class TestReportAndDemo:
    def test_demo_exit_zero_with_increasing_trajectory(self, runner, tmp_path):
        out_dir = os.path.join(tmp_path, "demo")
        result = runner.invoke(main, ["demo", "--output-dir", out_dir])
        assert result.exit_code == 0, result.output
        rows = [
            line for line in result.output.splitlines() if line.strip() and line.split()[0].isdigit()
        ]
        means = [float(line.split()[1]) for line in rows]
        assert len(means) >= 3
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_report_json_on_demo_log(self, runner, tmp_path):
        out_dir = os.path.join(tmp_path, "demo")
        assert runner.invoke(main, ["demo", "--output-dir", out_dir]).exit_code == 0
        log = next(
            os.path.join(out_dir, n) for n in os.listdir(out_dir) if n.endswith(".jsonl")
        )
        result = runner.invoke(main, ["report", log, "--format", "json"])
        assert result.exit_code == 0
        parsed = json.loads(result.output)
        assert parsed["finished"] is True
        assert len(parsed["rounds"]) == 3

    def test_report_markdown_format(self, runner, tmp_path):
        out_dir = os.path.join(tmp_path, "demo")
        assert runner.invoke(main, ["demo", "--output-dir", out_dir]).exit_code == 0
        log = next(
            os.path.join(out_dir, n) for n in os.listdir(out_dir) if n.endswith(".jsonl")
        )
        result = runner.invoke(main, ["report", log, "--format", "markdown"])
        assert result.exit_code == 0
        assert "| round |" in result.output

    def test_report_to_output_file(self, runner, tmp_path):
        out_dir = os.path.join(tmp_path, "demo")
        assert runner.invoke(main, ["demo", "--output-dir", out_dir]).exit_code == 0
        log = next(
            os.path.join(out_dir, n) for n in os.listdir(out_dir) if n.endswith(".jsonl")
        )
        target = os.path.join(tmp_path, "report.json")
        result = runner.invoke(main, ["report", log, "--output", target])
        assert result.exit_code == 0
        assert json.load(open(target))["finished"] is True

    def test_report_on_garbage_is_config_error(self, runner, tmp_path):
        path = os.path.join(tmp_path, "junk.jsonl")
        open(path, "w").write("junk\n")
        result = runner.invoke(main, ["report", path])
        assert result.exit_code == 2
