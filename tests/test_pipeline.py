import json
import os
import threading
from pathlib import Path

import pytest
import requests

from conftest import FakeResponse, write_config_file, write_corpus_file
from promptloop import pipeline
from promptloop.config import corpus_digest, load_config
from promptloop.demo import run_demo
from promptloop.engine import Engine
from promptloop.errors import ConfigError, ProtocolError, RunAbortedError
from promptloop.gateway import call_seed
from promptloop.pipeline import build_runtime, resume_optimization, run_optimization
from promptloop.roles import DEFAULT_ROLE_PARAMS, DEFAULT_SYSTEM_PROMPTS, ModelRole, SamplingParams
from promptloop.runstore import canonical_json, read_log

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
        log_path = run_optimization(config, "Schreibe einen Arztbrief")
        assert os.path.isfile(log_path)
        manifest, events, _ = read_log(log_path)
        assert manifest["run_id"] in log_path
        assert events[-1].kind == "RunFinished"
        assert events[-1].payload["rounds"] == 2
        assert 0.0 <= events[-1].payload["best_score"] <= 1.0

    def test_missing_corpus_path_fails_before_backend_use(self, tmp_path):
        config = library_config(tmp_path, corpus_path=os.path.join(tmp_path, "nope.jsonl"))
        with pytest.raises(ConfigError, match="corpus_path"):
            run_optimization(config, "Aufgabe")

    def test_in_memory_corpus_bypasses_path(self, tmp_path):
        config = library_config(tmp_path, corpus_path="ignored-because-texts-given")
        log_path = run_optimization(config, "Aufgabe", corpus_texts=CORPUS)
        assert os.path.isfile(log_path)

    def test_same_inputs_same_run_id_and_bytes(self, tmp_path):
        config = library_config(tmp_path)
        first = run_optimization(config, "Aufgabe")
        first_lines = open(first, encoding="utf-8").read().splitlines()
        second = run_optimization(config, "Aufgabe")
        second_lines = open(second, encoding="utf-8").read().splitlines()
        assert first == second
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
        log_path = run_optimization(config, "Aufgabe")
        original = open(log_path, encoding="utf-8").read()
        lines = original.splitlines()
        cut = next(
            i for i, line in enumerate(lines[1:], start=1)
            if json.loads(line)["kind"] == "PromptRegenerated"
            and json.loads(line)["payload"]["round"] == 1
        )
        with open(log_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[: cut + 1]) + "\n")
        return config, log_path, original

    def test_resume_completes_interrupted_run(self, tmp_path):
        config, log, original = self._truncated(tmp_path)
        assert resume_optimization(config, log) == log
        _, events, _ = read_log(log)
        assert events[-1].kind == "RunFinished"
        assert events[-1].payload["rounds"] == 3
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
        assert sorted(sizes, reverse=True) == [64, 6]  # the two requests run concurrently
        assert runtime.corpus_digest == corpus_digest(texts)

    def test_runtime_pieces_are_consistent(self, tmp_path):
        config = library_config(tmp_path)
        runtime = build_runtime(config)
        assert runtime.corpus_digest == corpus_digest(CORPUS)
        [score] = runtime.evaluator.score_batch([CORPUS[0]])
        assert 0.0 < score <= 1.0
        assert len(runtime.config_digest) == 64
        assert len(runtime.corpus_digest) == 64


class TestResumeRequests:
    """A resume scores with the centroid its log records, so over HTTP it
    sends no corpus embed request: only the requests of the work left."""

    ENGINE = {"samples_per_round": 2, "best_capacity": 5, "worst_capacity": 5,
              "max_rounds": 2, "mutation_budget": 0, "seed": 42}
    #: More than one 64-text embed request's worth.
    DOCUMENTS = [f"Dokument {i}: Der Patient ist kardial stabil." for i in range(70)]

    def fresh_run(self, tmp_path):
        corpus = write_corpus_file(tmp_path, self.DOCUMENTS, "big.jsonl")
        config = library_config(tmp_path, backend=HTTP_BACKEND, engine=self.ENGINE, corpus_path=corpus)
        log = run_optimization(config, "Schreibe einen Arztbrief.")
        return config, Path(log).read_text(encoding="utf-8").splitlines()

    def resume(self, config, lines, keep, tmp_path):
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[:keep]) + "\n", encoding="utf-8")
        resume_optimization(config, cut)
        assert cut.read_text(encoding="utf-8").splitlines() == lines

    def test_cut_before_the_final_transition_sends_no_request(self, tmp_path, ollama):
        config, lines = self.fresh_run(tmp_path)
        assert max(len(body["input"]) for body in ollama.bodies("/api/embed")) == 64
        at = max(i for i, line in enumerate(lines) if '"PhaseTransition"' in line)
        ollama.requests.clear()
        self.resume(config, lines, at, tmp_path)
        assert ollama.requests == []

    def test_cut_mid_round_sends_that_rounds_requests_only(self, tmp_path, ollama):
        config, lines = self.fresh_run(tmp_path)
        fresh_chats, fresh_embeds = ollama.bodies("/api/chat"), ollama.bodies("/api/embed")
        at = next(i for i, line in enumerate(lines) if '"RoundStarted"' in line and '"round":2,' in line)
        ollama.requests.clear()
        self.resume(config, lines, at + 2, tmp_path)  # round 2's RoundStarted and first sample
        round_calls = 2 + 2 + 1 + 1  # actor samples, feedback, summary, next plan
        chats = ollama.bodies("/api/chat")
        assert sorted(map(canonical_json, chats)) == sorted(map(canonical_json, fresh_chats[-round_calls:]))
        # one request for the round's sample batch, the one the fresh run sent last
        assert ollama.bodies("/api/embed") == [fresh_embeds[-1]]
        assert len(fresh_embeds[-1]["input"]) == 2
        assert len(ollama.requests) == round_calls + 1


class StageCounter:
    """Backend proxy counting each top-level ``chat`` or ``chat_many`` call
    as one sequential stage of the run's critical path, and the chat calls
    of all of them."""

    def __init__(self, backend):
        self.backend = backend
        self.stages = 0
        self.chats = 0

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def chat(self, exchange, params):
        self.stages += 1
        self.chats += 1
        return self.backend.chat(exchange, params)

    def chat_many(self, calls):
        self.stages += 1
        self.chats += len(calls)
        return self.backend.chat_many(calls)


class TestCriticalPath:
    """Sequential chat stages per run: an initial plan, 4 per feedback round
    (actors, feedback, summary, plan) and 2 per mutation step (rewrite,
    actors), less one: step 1's rewrite goes out with the last round's
    plan."""

    @pytest.fixture
    def counters(self, monkeypatch):
        counters, backend = [], pipeline._backend

        def counted(config):
            counters.append(StageCounter(backend(config)))
            return counters[-1]

        monkeypatch.setattr(pipeline, "_backend", counted)
        return counters

    def test_demo(self, tmp_path, counters):
        run_demo(tmp_path)
        [counter] = counters
        assert (counter.stages, counter.chats) == (1 + 3 * 4 + 2 * 2 - 1, 25)

    def test_latency_http_shape(self, tmp_path, counters):
        engine = {"samples_per_round": 4, "best_capacity": 4, "worst_capacity": 4,
                  "max_rounds": 5, "mutation_budget": 4, "seed": 42}
        log = run_optimization(library_config(tmp_path, engine=engine), "Schreibe einen Arztbrief.")
        [counter] = counters
        assert (counter.stages, counter.chats) == (1 + 4 * 4 + 4 * 2 - 1, 61)
        assert read_log(log)[1][-1].payload["rounds"] == 4


ROLE_OF = {prompt: role for role, prompt in DEFAULT_SYSTEM_PROMPTS.items()}


def role_of(body):
    """The role of a chat request body (by its system prompt); None for an
    embed request."""
    messages = body.get("messages") if body else None
    return ROLE_OF.get(messages[0]["content"]) if messages else None


def answer(stub, role, nth, reply):
    """Make ``stub`` answer the ``nth`` distinct request of ``role`` (from 1),
    and every retry of it, with ``reply``."""
    post, seen = stub.post, []

    def post_with_fault(url, json=None, timeout=None):
        if role_of(json) is role:
            if json not in seen:
                seen.append(json)
            if seen.index(json) + 1 == nth:
                return reply
        return post(url, json=json, timeout=timeout)

    stub.post = post_with_fault


def sequential_next_plan(engine, round_no, summary):
    """The last round's plan request sent on its own, as every other."""
    return engine.generate_step_plan(summary)


def event_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()[1:]


class TestFirstRewriteAhead:
    """The last feedback round's plan request and mutation step 1's rewrite
    request go out together over HTTP; each outcome lands where the lone
    call's would. The reference is the same run with the plan request sent
    alone."""

    ENGINE = {"samples_per_round": 2, "best_capacity": 2, "worst_capacity": 2,
              "max_rounds": 3, "mutation_budget": 2, "seed": 42}
    TASK = "Schreibe einen Arztbrief."
    FAILING = FakeResponse({"error": "overloaded"}, 500)

    def config(self, tmp_path, name):
        return library_config(tmp_path, backend=HTTP_BACKEND, engine=self.ENGINE,
                              output_dir=os.path.join(tmp_path, name))

    def both_runs(self, tmp_path, monkeypatch, stub, role, nth, reply):
        """Event lines of the run with the pair, then with the plan alone,
        both under the same fault; the first run's log path."""
        logs = []
        for name in ("paired", "sequential"):
            answer(stub, role, nth, reply)
            with monkeypatch.context() as patch:
                if name == "sequential":
                    patch.setattr(Engine, "_next_plan", sequential_next_plan)
                try:
                    run_optimization(self.config(tmp_path, name), self.TASK)
                except RunAbortedError:
                    pass
            del stub.post
            [log] = (tmp_path / name).glob("*.jsonl")
            logs.append(log)
        assert event_lines(logs[0]) == event_lines(logs[1])
        return logs[0]

    @pytest.mark.parametrize(
        "reply, kinds, message",
        [
            (FakeResponse({"message": {}}), ["BackendFailure", "MutationRejected"],
             "chat response missing message.content: {'message': {}}"),
            (FakeResponse({"message": {"content": " \n "}}), ["MutationRejected"], None),
            (FAILING, ["BackendFailure", "MutationRejected"],
             "http://stub/api/chat unreachable after 3 attempts: status 500"),
        ],
        ids=["malformed", "empty", "failing"],
    )
    def test_failed_rewrite_costs_step_one_only(self, tmp_path, monkeypatch, ollama, reply, kinds, message):
        log = self.both_runs(tmp_path, monkeypatch, ollama, ModelRole.MUTATOR, 1, reply)
        events = read_log(log)[1]
        turn = next(i for i, e in enumerate(events) if e.kind == "PhaseTransition" and e.payload["to"] == "mutation")
        assert [e.kind for e in events[turn - 1 : turn + 1 + len(kinds)]] == ["PromptRegenerated", "PhaseTransition", *kinds]
        assert not [e for e in events[:turn] if e.kind == "BackendFailure"]
        assert events[turn - 1].payload["round"] == 2
        step_one = events[turn + len(kinds)].payload
        assert (step_one["step"], step_one["reason"]) == (1, "backend-failure" if message else "empty-rewrite")
        if message:
            assert events[turn + 1].payload == {"phase": "mutation", "step": 1, "message": message}
        assert events[-1].kind == "RunFinished"

    def test_failed_plan_aborts_the_round_and_resumes_to_the_full_run(self, tmp_path, monkeypatch, ollama):
        full = run_optimization(self.config(tmp_path, "full"), self.TASK)
        # prompting requests: the initial plan, round 1's, then round 2's
        log = self.both_runs(tmp_path, monkeypatch, ollama, ModelRole.PROMPTING, 3, self.FAILING)
        last = read_log(log)[1][-1]
        assert (last.kind, last.payload["phase"], last.payload["round"]) == ("BackendFailure", "feedback_loop", 2)
        resume_optimization(self.config(tmp_path, "paired"), log)
        assert event_lines(log) == event_lines(full)

    def test_plan_and_rewrite_are_in_flight_together(self, tmp_path, ollama):
        post, plans, overlapped = ollama.post, [], []
        rewrite_arrived = threading.Event()

        def post_holding_the_last_plan(url, json=None, timeout=None):
            role = role_of(json)
            if role is ModelRole.MUTATOR:
                rewrite_arrived.set()
            elif role is ModelRole.PROMPTING:
                plans.append(json)
                if len(plans) == 3:  # round 2's plan waits, at most 5 s, for the rewrite
                    overlapped.append(rewrite_arrived.wait(5))
            return post(url, json=json, timeout=timeout)

        ollama.post = post_holding_the_last_plan
        run_optimization(self.config(tmp_path, "paired"), self.TASK)
        assert overlapped == [True]


class TestRoleConfigReachesRequests:
    """Each role's system prompt, example turns and sampling params, as the
    config sets them, reach every ``/api/chat`` body of that role, around
    the user message the engine built for that call."""

    ENGINE = {"samples_per_round": 2, "best_capacity": 2, "worst_capacity": 2,
              "max_rounds": 3, "mutation_budget": 2, "seed": 42,
              "role_params": {"summarizer": {"temperature": 0.15, "top_k": 7, "top_p": 0.6, "seed": 9}}}
    ACTOR_SYSTEM = "Du schreibst Arztbriefe nach Anweisung."
    MUTATOR_TURNS = [["user", "Formuliere um: Der Patient ist stabil."],
                     ["assistant", "Der Zustand des Patienten ist stabil."]]

    def test_every_body_carries_its_roles_config(self, tmp_path, monkeypatch, ollama):
        config = library_config(
            tmp_path, backend=HTTP_BACKEND, engine=self.ENGINE,
            prompts={"system": {"actor": self.ACTOR_SYSTEM}, "examples": {"mutator": self.MUTATOR_TURNS}},
        )
        built, request = set(), Engine._request

        def recording_request(engine, role, user_message):
            built.add((role, user_message))
            return request(engine, role, user_message)

        monkeypatch.setattr(Engine, "_request", recording_request)
        run_optimization(config, "Schreibe einen Arztbrief.")

        systems = {**DEFAULT_SYSTEM_PROMPTS, ModelRole.ACTOR: self.ACTOR_SYSTEM}
        role_by_system = {prompt: role for role, prompt in systems.items()}
        params = {**DEFAULT_ROLE_PARAMS, ModelRole.SUMMARIZER: SamplingParams(0.15, 7, 0.6, seed=9)}
        seeds = {role: [] for role in ModelRole}
        for body in ollama.bodies("/api/chat"):
            system, *turns, user = body["messages"]
            role = role_by_system[system["content"]]
            assert system["role"] == "system"
            examples = self.MUTATOR_TURNS if role is ModelRole.MUTATOR else []
            assert [[turn["role"], turn["content"]] for turn in turns] == examples
            assert user["role"] == "user" and (role, user["content"]) in built
            options = body["options"]
            expected = params[role]
            assert (options["temperature"], options["top_k"], options["top_p"]) == (
                expected.temperature, expected.top_k, expected.top_p
            )
            seeds[role].append(options["seed"])
        for role, sent in seeds.items():
            assert sent, f"no request of role {role.value}"
            base = params[role].seed
            assert sorted(sent) == sorted(call_seed(base, role, index) for index in range(len(sent)))
