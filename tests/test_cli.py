import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import FakeResponse, write_config_file, write_corpus_file
from promptloop import cli
from promptloop.cli import main
from promptloop.errors import LogError
from promptloop.runstore import EventLog, emit_report, replay_log

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


def replayed_stdout(log):
    """What ``optimize`` prints for a finished log, from its replayed state."""
    state = replay_log(log).state
    best = state.best.entries[0]
    lines = [
        f"log: {log}",
        f"report: {log[: -len('.jsonl')]}.report.json",
        f"rounds completed: {state.round}",
        f"mutations applied/rejected: {state.mutations_applied}/{state.mutations_rejected}",
        f"best score: {best.score!r}",
        "best prompt:",
        best.step_plan,
    ]
    return "\n".join(lines) + "\n"


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

    def test_failed_report_keeps_the_previous_report(self, runner, tmp_path, monkeypatch):
        config = small_config(tmp_path)
        command = ["optimize", config, "--prompt", "Schreibe einen Arztbrief"]
        assert runner.invoke(main, command).exit_code == 0
        runs_dir = os.path.join(tmp_path, "runs")
        [log] = [os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")]
        report = Path(log[: -len(".jsonl")] + ".report.json")
        before = report.read_bytes()
        assert before == emit_report(log, "json").encode("utf-8")

        def tampered(*args, **kwargs):
            raise LogError("log tampered")

        monkeypatch.setattr(cli, "emit_report", tampered)
        result = runner.invoke(main, command)
        assert result.exit_code == 2
        assert "log tampered" in result.stderr
        assert report.read_bytes() == before
        assert sorted(os.listdir(runs_dir)) == sorted([os.path.basename(log), report.name])

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

    def test_prompt_file_that_is_not_utf8_exits_two(self, runner, tmp_path):
        config = small_config(tmp_path)
        prompt_file = tmp_path / "prompt.txt"
        prompt_file.write_bytes(b"Schreibe \xff")
        result = runner.invoke(main, ["optimize", config, "--prompt-file", str(prompt_file)])
        assert result.exit_code == 2, result.output + repr(result.exception)
        assert f"cannot read prompt file {prompt_file}" in result.stderr

    def test_output_dir_that_is_a_file_exits_two(self, runner, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        config = small_config(tmp_path, output_dir=str(taken))
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe"])
        assert result.exit_code == 2, result.output + repr(result.exception)
        assert f"cannot create output_dir {taken}" in result.stderr
        assert taken.read_text() == "not a directory"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_output_dir_that_is_a_file_exits_two_before_any_request(self, runner, tmp_path, ollama):
        # the corpus is not embedded for a run that cannot write its log
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        config = small_config(tmp_path, output_dir=str(taken), backend={"kind": "http", "base_url": "http://stub"})
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe"])
        assert result.exit_code == 2, result.output + repr(result.exception)
        assert f"cannot create output_dir {taken}" in result.stderr
        assert ollama.requests == []

    def test_empty_prompt_rejected(self, runner, tmp_path):
        config = small_config(tmp_path)
        result = runner.invoke(main, ["optimize", config, "--prompt", "   "])
        assert result.exit_code == 2

    def test_stdout_is_the_replayed_final_state(self, runner, tmp_path):
        config = small_config(tmp_path, engine={
            "samples_per_round": 1, "best_capacity": 2, "worst_capacity": 2,
            "max_rounds": 3, "mutation_budget": 2, "seed": 42,
        })
        fresh = runner.invoke(main, ["optimize", config, "--prompt", "Schreibe einen Arztbrief"])
        assert fresh.exit_code == 0, fresh.output + repr(fresh.exception)
        runs_dir = os.path.join(tmp_path, "runs")
        [log] = [os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")]
        assert fresh.stdout == replayed_stdout(log)
        assert "mutations applied/rejected: 0/0" not in fresh.stdout

        lines = Path(log).read_text(encoding="utf-8").splitlines()
        cut = next(i for i, line in enumerate(lines) if '"kind":"PromptRegenerated"' in line)
        Path(log).write_text("\n".join(lines[: cut + 1]) + "\n", encoding="utf-8")
        resumed = runner.invoke(main, ["optimize", config, "--resume", log])
        assert resumed.exit_code == 0, resumed.output + repr(resumed.exception)
        assert resumed.stdout == replayed_stdout(log) == fresh.stdout

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

    def test_resume_checks_the_log_before_any_request(self, runner, tmp_path, ollama):
        """A finished, mismatched or corrupt log exits 2 naming what is wrong
        with it, without a request to the backend."""
        backend = {"kind": "http", "base_url": "http://127.0.0.1:9"}
        config = small_config(tmp_path, backend=backend)
        assert runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe eins"]).exit_code == 0
        runs_dir = os.path.join(tmp_path, "runs")
        [log] = [os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")]
        with open(config, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["engine"]["seed"] = 43
        changed = write_config_file(tmp_path, doc, "changed.json")
        lines = Path(log).read_text(encoding="utf-8").splitlines()
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(lines[:3] + ["{"] + lines[3:-1]) + "\n", encoding="utf-8")
        fixture = str(Path(__file__).parent / "fixtures" / "demo-0.2.0.jsonl")
        ollama.requests.clear()
        for config_path, log_path, expected in [
            (config, log, "already finished"),
            (changed, log, "config digest mismatch"),
            (config, str(corrupt), "corrupt event line"),
            (config, fixture, "config digest mismatch"),
        ]:
            result = runner.invoke(main, ["optimize", config_path, "--resume", log_path])
            assert result.exit_code == 2, result.output + repr(result.exception)
            assert expected in result.stderr
        assert ollama.requests == []

    def test_resume_of_a_log_another_run_appends_to_exits_two(self, runner, tmp_path):
        config = small_config(tmp_path)
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe eins"])
        assert result.exit_code == 0
        runs_dir = os.path.join(tmp_path, "runs")
        log = next(
            os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")
        )
        lines = Path(log).read_text(encoding="utf-8").splitlines()
        Path(log).write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        holder = EventLog(log)
        holder.lock()
        try:
            result = runner.invoke(main, ["optimize", config, "--resume", log])
        finally:
            holder.close()
        assert result.exit_code == 2, result.output + repr(result.exception)
        assert "another run" in result.stderr
        assert Path(log).read_text(encoding="utf-8").splitlines() == lines[:-1]

    def test_resume_of_non_numeric_score_exits_two(self, runner, tmp_path):
        config = small_config(tmp_path)
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe eins"])
        assert result.exit_code == 0
        runs_dir = os.path.join(tmp_path, "runs")
        log = next(
            os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")
        )
        lines = Path(log).read_text(encoding="utf-8").splitlines()
        scored = next(i for i, line in enumerate(lines) if '"SampleScored"' in line)
        event = json.loads(lines[scored])
        event["payload"]["score"] = "0.5x"
        lines[scored] = json.dumps(event)
        Path(log).write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["optimize", config, "--resume", log])
        assert result.exit_code == 2, result.output + repr(result.exception)
        assert f"event {event['seq']}: SampleScored score '0.5x'" in result.stderr

    def test_missing_score_exits_two_on_resume_and_report(self, runner, tmp_path):
        config = small_config(tmp_path)
        assert runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe eins"]).exit_code == 0
        runs_dir = os.path.join(tmp_path, "runs")
        log = next(
            os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")
        )
        lines = Path(log).read_text(encoding="utf-8").splitlines()[:-1]  # unfinished
        scored = next(i for i, line in enumerate(lines) if '"SampleScored"' in line)
        event = json.loads(lines[scored])
        del event["payload"]["score"]
        lines[scored] = json.dumps(event)
        Path(log).write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = f"event {event['seq']}: SampleScored payload has no 'score'"
        for command in (["optimize", config, "--resume", log], ["report", log]):
            result = runner.invoke(main, command)
            assert result.exit_code == 2, result.output + repr(result.exception)
            assert expected in result.stderr

    def test_malformed_embed_reply_during_setup_exits_three(self, runner, tmp_path, monkeypatch):
        import requests

        replies = [
            ('{"embeddings": [[1.0, 0.0]]}', "expected 2 embeddings, got 1"),
            ("[]", "not an object"),
            ('{"embeddings": [["a", 0.0], [0.0, 1.0]]}', "non-numeric"),
            ('{"embeddings": [[{"a": 1}, 0.0], [0.0, 1.0]]}', "non-numeric"),
            ('{"embeddings": [[NaN, 0.0], [0.0, 1.0]]}', "non-finite"),
            ('{"embeddings": [[1.0, 0.0], [Infinity, 1.0]]}', "non-finite"),
            ('{"embeddings": [[1.0, -Infinity], [0.0, 1.0]]}', "non-finite"),
        ]

        class Reply:
            status_code = 200

            def __init__(self, text):
                self.text = text

            def raise_for_status(self):
                pass

            def json(self):
                return json.loads(self.text)

        config = small_config(tmp_path, backend={"kind": "http", "base_url": "http://localhost:1"})
        for text, expected in replies:
            monkeypatch.setattr(requests.Session, "post", lambda self, url, **kwargs: Reply(text))
            for command in (["optimize", config, "--prompt", "Aufgabe"], ["score", config, "--text", "x"]):
                result = runner.invoke(main, command)
                assert result.exit_code == 3, text + result.output + repr(result.exception)
                assert expected in result.stderr, text

    def test_embed_requests_of_different_dimensions_during_setup_exit_three(
        self, runner, tmp_path, monkeypatch
    ):
        import requests

        def embed(session, url, json=None, timeout=None):
            # the corpus goes out as one request of 64 texts and one of 1
            dim = 64 if len(json["input"]) > 1 else 32
            return FakeResponse({"embeddings": [[0.5] * dim for _ in json["input"]]})

        monkeypatch.setattr(requests.Session, "post", embed)
        corpus = write_corpus_file(tmp_path, [f"Dokument {i} ist stabil." for i in range(65)], "big.jsonl")
        config = small_config(
            tmp_path, backend={"kind": "http", "base_url": "http://localhost:1"}, corpus_path=corpus
        )
        for command in (["optimize", config, "--prompt", "Aufgabe"], ["score", config, "--text", "x"]):
            result = runner.invoke(main, command)
            assert result.exit_code == 3, result.output + repr(result.exception)
            assert "disagree on dimension: [32, 64]" in result.stderr

    def test_sample_vector_of_another_dimension_exits_four(self, runner, tmp_path, monkeypatch):
        import requests

        def post(session, url, json=None, timeout=None):
            if url.endswith("/api/chat"):
                return FakeResponse({"message": {"content": "Der Befund folgt."}})
            dim = 64 if json["input"] == CORPUS else 32
            return FakeResponse({"embeddings": [[0.5] * dim for _ in json["input"]]})

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setattr(
            requests.Session, "get",
            lambda session, url, timeout=None: FakeResponse(
                {"models": [{"name": "llama3.1"}, {"name": "jina-embeddings-v2-base-de"}]}
            ),
        )
        config = small_config(tmp_path, backend={"kind": "http", "base_url": "http://localhost:1"})
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe"])
        assert result.exit_code == 4, result.output + repr(result.exception)
        runs_dir = os.path.join(tmp_path, "runs")
        [log] = [os.path.join(runs_dir, n) for n in os.listdir(runs_dir) if n.endswith(".jsonl")]
        last = json.loads(Path(log).read_text(encoding="utf-8").splitlines()[-1])
        assert last["kind"] == "BackendFailure"
        assert last["payload"]["message"] == "candidate (32,) vs corpus (64,)"
        # outside a run the same reply is a backend failure too
        result = runner.invoke(main, ["score", config, "--text", "Der Befund folgt."])
        assert result.exit_code == 3, result.output + repr(result.exception)
        assert "candidate (32,) vs corpus (64,)" in result.stderr

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

    @pytest.mark.parametrize("name", [None, 5, ["a"]])
    def test_model_name_that_is_not_a_string_exits_three(self, runner, tmp_path, monkeypatch, name):
        import requests

        def embed(session, url, json=None, timeout=None):
            return FakeResponse({"embeddings": [[0.5, 0.5] for _ in json["input"]]})

        monkeypatch.setattr(requests.Session, "post", embed)
        monkeypatch.setattr(
            requests.Session, "get",
            lambda session, url, timeout=None: FakeResponse({"models": [{"name": "llama3.1"}, {"name": name}]}),
        )
        config = small_config(tmp_path, backend={"kind": "http", "base_url": "http://localhost:1"})
        result = runner.invoke(main, ["optimize", config, "--prompt", "Aufgabe"])
        assert result.exit_code == 3, result.output + repr(result.exception)
        assert "malformed reply" in result.stderr

    def test_refused_setup_request_names_the_server_reason(self, runner, tmp_path, monkeypatch):
        """An embedding model the server lacks: Ollama answers 404 with an
        ``error`` text, which the exit-3 message carries; a 4xx is not retried."""
        import requests

        reason = 'model "jina-embeddings-v2-base-de" not found, try pulling it first'
        posts = []

        def embed(session, url, json=None, timeout=None):
            posts.append(url)
            return FakeResponse({"error": reason}, status=404)

        monkeypatch.setattr(requests.Session, "post", embed)
        config = small_config(tmp_path, backend={"kind": "http", "base_url": "http://localhost:1"})
        for command in (["optimize", config, "--prompt", "Aufgabe"], ["score", config, "--text", "x"]):
            posts.clear()
            result = runner.invoke(main, command)
            assert result.exit_code == 3, result.output + repr(result.exception)
            assert f"answered HTTP 404; not retried: {reason}" in result.stderr
            assert posts == ["http://localhost:1/api/embed"]

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

    def test_corpus_that_is_not_utf8_exits_two(self, runner, tmp_path):
        corpus_path = tmp_path / "bad.jsonl"
        corpus_path.write_bytes(b'{"text": "ok."}\n{"text": "\xff"}\n')
        config = small_config(tmp_path)
        result = runner.invoke(main, ["score", config, "--text", "x y", "--corpus", str(corpus_path)])
        assert result.exit_code == 2, result.output + repr(result.exception)
        assert f"cannot read corpus file {corpus_path}" in result.stderr

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
        expected = CorpusEvaluator(corpus.centroid, cache).score_batch(["Der Befund folgt."])[0]
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

    def test_integer_past_the_digit_limit_rejected(self, runner, tmp_path):
        path = os.path.join(tmp_path, "huge.json")
        Path(path).write_text('{"corpus_path": "c", "max_documents": ' + "9" * 5000 + "}", encoding="utf-8")
        result = runner.invoke(main, ["validate-config", path])
        assert result.exit_code == 2, result.output + repr(result.exception)
        assert "is not valid JSON" in result.stderr


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

    @pytest.mark.parametrize("cut", ["manifest only", "torn manifest", "torn RunStarted"])
    def test_demo_over_a_log_without_a_run_started(self, runner, tmp_path, cut):
        """A crash between the manifest and RunStarted leaves nothing to
        resume: the next demo starts over instead of pointing to --resume."""
        fixture = (Path(__file__).parent / "fixtures" / "demo-0.2.0.jsonl").read_bytes()
        manifest, started = fixture.split(b"\n")[:2]
        prefix = {
            "manifest only": manifest + b"\n",
            "torn manifest": manifest[: len(manifest) // 2],
            "torn RunStarted": manifest + b"\n" + started[: len(started) // 2],
        }[cut]
        out_dir = tmp_path / "demo"
        out_dir.mkdir()
        log = out_dir / "32e6351267ef29a6.jsonl"
        log.write_bytes(prefix)
        result = runner.invoke(main, ["demo", "--output-dir", str(out_dir)])
        assert result.exit_code == 0, result.output + repr(result.exception)
        assert "--resume" not in result.output + result.stderr
        assert log.read_bytes().split(b"\n")[1:] == fixture.split(b"\n")[1:]

    def test_demo_continues_its_unfinished_log(self, runner, tmp_path):
        """A demo log cut after round 1's PromptRegenerated holds an
        unfinished run: the next demo continues it to the fixture's events
        instead of pointing to an option demo does not have."""
        fixture = (Path(__file__).parent / "fixtures" / "demo-0.2.0.jsonl").read_bytes()
        lines = fixture.split(b"\n")
        # Round 0's initial plan, then round 1's refined one.
        at = [i for i, line in enumerate(lines) if b'"kind":"PromptRegenerated"' in line][1]
        out_dir = tmp_path / "demo"
        out_dir.mkdir()
        log = out_dir / "32e6351267ef29a6.jsonl"
        log.write_bytes(b"\n".join(lines[: at + 1]) + b"\n")
        result = runner.invoke(main, ["demo", "--output-dir", str(out_dir)])
        assert result.exit_code == 0, result.output + repr(result.exception)
        assert "--resume" not in result.output + result.stderr
        assert log.read_bytes().split(b"\n")[1:] == lines[1:]

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

    def test_report_into_a_missing_directory_exits_two(self, runner, tmp_path):
        log = str(Path(__file__).parent / "fixtures" / "demo-0.2.0.jsonl")
        target = tmp_path / "nodir" / "r.md"
        result = runner.invoke(main, ["report", log, "--format", "markdown", "--output", str(target)])
        assert result.exit_code == 2, result.output + repr(result.exception)
        assert f"cannot write {target}" in result.stderr
        assert not list(tmp_path.rglob("*.tmp"))

    def test_report_refuses_to_overwrite_its_own_log(self, runner, tmp_path):
        log = tmp_path / "d" / "run.jsonl"
        log.parent.mkdir()
        data = (Path(__file__).parent / "fixtures" / "demo-0.2.0.jsonl").read_bytes()
        log.write_bytes(data)
        for target in (str(log), str(tmp_path / "d" / ".." / "d" / "run.jsonl")):
            result = runner.invoke(main, ["report", str(log), "--output", target])
            assert result.exit_code == 2, result.output + repr(result.exception)
            assert "is the run log itself" in result.stderr
            assert log.read_bytes() == data
        assert runner.invoke(main, ["report", str(log)]).exit_code == 0

    def test_report_on_a_character_cut_and_on_invalid_utf8(self, runner, tmp_path):
        """A last line cut inside a character is a torn write; a 0xFF byte in
        a middle line is a corrupt log, exit 2."""
        data = (Path(__file__).parent / "fixtures" / "demo-0.2.0.jsonl").read_bytes()
        cut = os.path.join(tmp_path, "cut.jsonl")
        Path(cut).write_bytes(data[: data.rindex("ü".encode("utf-8")) + 1])
        result = runner.invoke(main, ["report", cut])
        assert result.exit_code == 0, result.output + repr(result.exception)
        assert json.loads(result.output)["finished"] is False
        lines = data.split(b"\n")
        lines[5] = lines[5][:20] + b"\xff" + lines[5][20:]
        corrupt = os.path.join(tmp_path, "ff.jsonl")
        Path(corrupt).write_bytes(b"\n".join(lines))
        result = runner.invoke(main, ["report", corrupt])
        assert result.exit_code == 2, result.output + repr(result.exception)
        assert "not UTF-8" in result.stderr

    def test_report_on_an_integer_past_the_digit_limit_exits_two(self, runner, tmp_path):
        lines = (Path(__file__).parent / "fixtures" / "demo-0.2.0.jsonl").read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b'"seq":3', b'"seq":' + b"9" * 5000)
        path = os.path.join(tmp_path, "huge.jsonl")
        Path(path).write_bytes(b"\n".join(lines))
        result = runner.invoke(main, ["report", path])
        assert result.exit_code == 2, result.output + repr(result.exception)
        assert "corrupt event line" in result.stderr

    def test_report_on_garbage_is_config_error(self, runner, tmp_path):
        path = os.path.join(tmp_path, "junk.jsonl")
        open(path, "w").write("junk\n")
        result = runner.invoke(main, ["report", path])
        assert result.exit_code == 2
