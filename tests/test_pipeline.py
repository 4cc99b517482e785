import json
import os
import tempfile
import threading
from pathlib import Path

import pytest
import requests
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FakeResponse, OneShotFault, scripted_plans, write_config_file, write_corpus_file
from promptloop import mutation, pipeline
from promptloop.config import corpus_digest, load_config
from promptloop.demo import run_demo
from promptloop.engine import Engine
from promptloop.errors import BACKEND_ERRORS, ConfigError, ProtocolError, RunAbortedError
from promptloop.gateway import FAILURE_MARKER, HttpBackend, MockBackend, call_seed
from promptloop.pipeline import build_runtime, resume_optimization, run_optimization
from promptloop.roles import DEFAULT_ROLE_PARAMS, DEFAULT_SYSTEM_PROMPTS, ModelRole, SamplingParams
from promptloop.runstore import canonical_json, read_log, replay_log
from promptloop.state import SplitMix64

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
    of all of them. ``sent`` holds each stage's method and the roles of its
    calls."""

    def __init__(self, backend):
        self.backend = backend
        self.stages = 0
        self.chats = 0
        self.sent = []

    def __getattr__(self, name):
        return getattr(self.backend, name)

    def chat(self, exchange, params):
        self.stages += 1
        self.chats += 1
        self.sent.append(("chat", (exchange.role,)))
        return self.backend.chat(exchange, params)

    def chat_many(self, calls):
        self.stages += 1
        self.chats += len(calls)
        self.sent.append(("chat_many", tuple(exchange.role for exchange, _ in calls)))
        return self.backend.chat_many(calls)


class TestCriticalPath:
    """Sequential chat stages per run: an initial plan, 4 per feedback round
    (actors, feedback, summary, plan) and per mutation step its actors, and
    its rewrite when that did not go out ahead. Step 1's rewrite goes out
    with the last round's plan. On the mock, which runs one call at a time,
    nothing else goes ahead, so each later step sends its own rewrite. Over
    HTTP the batches that carry a rewrite fill their free slots, up to
    ``MAX_IN_FLIGHT``, with the next steps' rewrites; a speculative rewrite
    a step cannot use costs one more call, and the step sends its own."""

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

    def test_the_mock_sends_a_later_step_its_rewrite_as_a_lone_call(self, tmp_path, counters):
        """The mock's ``in_flight`` of 1 leaves no slot beside a step's own
        call: only step 1's rewrite rides a batch, the last round's plan
        batch, and no batch holds a single call."""
        run_demo(tmp_path)
        [counter] = counters
        rewrites = [sent for sent in counter.sent if ModelRole.MUTATOR in sent[1]]
        assert rewrites == [("chat_many", (ModelRole.PROMPTING, ModelRole.MUTATOR)), ("chat", (ModelRole.MUTATOR,))]
        assert all(len(roles) > 1 for method, roles in counter.sent if method == "chat_many")

    def test_no_batch_without_a_call_due_at_its_turn(self, tmp_path, counters, monkeypatch):
        """Every archived prompt here is the same text and every mutant
        equals its source, so a step's rewrite request is the same whatever
        its picks. Step 2's picks differ from the ones its rewrite went
        ahead with, as step 1's mutant replaced the picked entry, yet the
        request is the one sent ahead: step 2 takes its outcome and sends
        nothing, and step 4, past the plan batch's slots, sends its rewrite
        alone."""
        low = "Heute scheint die Sonne über dem weiten Park."
        high = "Der Patient ist kardial stabil. Die Entlassung erfolgt morgen."
        engine = {"samples_per_round": 1, "best_capacity": 2, "worst_capacity": 2, "max_rounds": 3,
                  "mutation_budget": 4, "seed": 7}
        scripts = {"prompting": ["Eins. Eins."] * 3, "actor": [low, low] + [high] * 10, "mutator": ["Eins."] * 6}
        logs = []
        for in_flight in (4, 1):
            monkeypatch.setattr(MockBackend, "in_flight", in_flight)
            config = library_config(tmp_path, engine=engine, scripts=scripts,
                                    output_dir=os.path.join(tmp_path, f"in-flight-{in_flight}"))
            logs.append(run_optimization(config, "Schreibe einen Arztbrief."))
        assert event_lines(logs[0]) == event_lines(logs[1])
        counter = counters[0]
        actor, plan, mutator = ModelRole.ACTOR, ModelRole.PROMPTING, ModelRole.MUTATOR
        feedback, summary = ModelRole.GENERAL_FEEDBACK, ModelRole.SUMMARIZER
        round_stages = [("chat_many", (actor,)), ("chat_many", (feedback,)), ("chat", (summary,))]
        assert counter.sent == [
            ("chat", (plan,)), *round_stages, ("chat", (plan,)), *round_stages,
            ("chat_many", (plan, mutator, mutator, mutator)),
            ("chat_many", (actor,)), ("chat_many", (actor,)), ("chat_many", (actor,)),
            ("chat", (mutator,)), ("chat_many", (actor,)),
        ]
        assert (counter.stages, counter.chats) == (14, 17)
        assert all(roles for _, roles in counter.sent)

    def test_latency_http_shape(self, tmp_path, counters):
        engine = {"samples_per_round": 4, "best_capacity": 4, "worst_capacity": 4,
                  "max_rounds": 5, "mutation_budget": 4, "seed": 42}
        log = run_optimization(library_config(tmp_path, engine=engine), "Schreibe einen Arztbrief.")
        [counter] = counters
        assert (counter.stages, counter.chats) == (1 + 4 * 4 + 4 * 2 - 1, 61)
        assert read_log(log)[1][-1].payload["rounds"] == 4

    @pytest.mark.parametrize("seed, rewrites, chats", [(3, 1, 61), (1, 1, 62)], ids=["all-hold", "one-misses"])
    def test_latency_http_shape_over_http(self, tmp_path, counters, ollama, seed, rewrites, chats):
        # The last round's plan carries the rewrites of steps 1 to 3. With
        # seed 3 each of them holds, and step 4 sends its own. With seed 1 one
        # of them misses: its step sends its own with step 4's behind it.
        engine = {"samples_per_round": 4, "best_capacity": 4, "worst_capacity": 4,
                  "max_rounds": 5, "mutation_budget": 4, "seed": seed}
        config = library_config(tmp_path, backend=HTTP_BACKEND, engine=engine)
        log = run_optimization(config, "Schreibe einen Arztbrief.")
        [counter] = counters
        assert (counter.stages, counter.chats) == (1 + 4 * 4 + 4 + rewrites, chats)
        assert read_log(log)[1][-1].payload["rounds"] == 4


ROLE_OF = {prompt: role for role, prompt in DEFAULT_SYSTEM_PROMPTS.items()}


def role_of(body):
    """The role of a chat request body (by its system prompt); None for an
    embed request."""
    messages = body.get("messages") if body else None
    return ROLE_OF.get(messages[0]["content"]) if messages else None


def call_index(body, role):
    """The call index of a ``role`` request body, read from its seed."""
    base = DEFAULT_ROLE_PARAMS[role].seed
    return next(index for index in range(1000) if call_seed(base, role, index) == body["options"]["seed"])


def answer(stub, role, index, reply):
    """Make ``stub`` answer every request of ``role``'s call ``index`` (from
    0), every retry included, with ``reply``. The call is known by its seed,
    so the fault does not depend on the order in which a batch's requests
    arrive, and it hits a speculative request and a later one of the same
    call alike."""
    post, seed = stub.post, call_seed(DEFAULT_ROLE_PARAMS[role].seed, role, index)

    def post_with_fault(url, json=None, timeout=None):
        if role_of(json) is role and json["options"]["seed"] == seed:
            return reply
        return post(url, json=json, timeout=timeout)

    stub.post = post_with_fault


def sequential_next_plan(engine, round_no, summary):
    """The last round's plan request sent on its own, as every other."""
    return engine.generate_step_plan(summary)


def send_alone(patch):
    """Make ``patch`` send every chat request on its own: the last round's
    plan request alone, and no rewrite speculated ahead."""
    patch.setattr(Engine, "_next_plan", sequential_next_plan)
    patch.setattr(HttpBackend, "in_flight", 1)


def event_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()[1:]


class TestFirstRewriteAhead:
    """The last feedback round's plan request and mutation step 1's rewrite
    request go out together over HTTP, with the next steps' speculative
    rewrites; each outcome lands where the lone call's would. The reference
    is the same run with every request sent alone."""

    ENGINE = {"samples_per_round": 2, "best_capacity": 2, "worst_capacity": 2,
              "max_rounds": 3, "mutation_budget": 2, "seed": 42}
    TASK = "Schreibe einen Arztbrief."
    FAILING = FakeResponse({"error": "overloaded"}, 500)

    def config(self, tmp_path, name, **engine):
        return library_config(tmp_path, backend=HTTP_BACKEND, engine={**self.ENGINE, **engine},
                              output_dir=os.path.join(tmp_path, name))

    def both_runs(self, tmp_path, monkeypatch, stub, role, index, reply, **engine):
        """Event lines of the run with the pair, then with every request
        alone, both under the same fault; the first run's log path."""
        logs = []
        for name in ("paired", "sequential"):
            answer(stub, role, index, reply)
            with monkeypatch.context() as patch:
                if name == "sequential":
                    send_alone(patch)
                try:
                    run_optimization(self.config(tmp_path, name, **engine), self.TASK)
                except RunAbortedError:
                    pass
            del stub.post
            [log] = (tmp_path / name).glob("*.jsonl")
            logs.append(log)
        assert event_lines(logs[0]) == event_lines(logs[1])
        return logs[0]

    #: A bad rewrite reply, the kinds of the events that close its step, and
    #: the BackendFailure's message, if any.
    REWRITE_FAULTS = pytest.mark.parametrize(
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

    @REWRITE_FAULTS
    def test_failed_rewrite_costs_step_one_only(self, tmp_path, monkeypatch, ollama, reply, kinds, message):
        log = self.both_runs(tmp_path, monkeypatch, ollama, ModelRole.MUTATOR, 0, reply)
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

    @REWRITE_FAULTS
    @pytest.mark.parametrize("step", [2, 3])
    def test_failed_speculative_rewrite_costs_its_step_only(self, tmp_path, monkeypatch, ollama, step, reply, kinds,
                                                            message):
        # With a budget of 4 the last round's plan carries the rewrites of
        # steps 1 to 3, so the fault reaches steps 2 and 3 speculatively.
        log = self.both_runs(tmp_path, monkeypatch, ollama, ModelRole.MUTATOR, step - 1, reply, mutation_budget=4)
        events = read_log(log)[1]
        closing = next(i for i, e in enumerate(events) if e.kind.startswith("Mutation") and e.payload["step"] == step)
        assert [e.kind for e in events[closing + 1 - len(kinds) : closing + 1]] == kinds
        assert events[closing].payload["reason"] == ("backend-failure" if message else "empty-rewrite")
        failures = [e.payload for e in events if e.kind == "BackendFailure"]
        assert failures == ([{"phase": "mutation", "step": step, "message": message}] if message else [])
        assert [e.payload["step"] for e in events if e.kind.startswith("Mutation")] == [1, 2, 3, 4]
        assert events[-1].kind == "RunFinished"

    def test_rewrites_sent_for_steps_that_never_run_leave_no_trace(self, tmp_path, monkeypatch, ollama):
        # At seed 33 step 4's mutant beats every archived score, and step 4
        # sends its own rewrite with those of steps 5 and 6 behind it.
        engine = {"mutation_budget": 6, "seed": 33}
        full = read_log(run_optimization(self.config(tmp_path, "full", **engine), self.TASK))[1]
        scores = [e.payload["score"] for e in full if e.kind in ("ArchivesUpdated", "MutationApplied")]
        step_four = next(e.payload["score"] for e in full if e.kind == "MutationApplied" and e.payload["step"] == 4)
        assert step_four == max(scores) > max(scores[: scores.index(step_four)])
        logs = []
        for name in ("ahead", "alone"):
            ollama.requests.clear()
            with monkeypatch.context() as patch:
                if name == "alone":
                    send_alone(patch)
                logs.append(run_optimization(self.config(tmp_path, name, score_target=step_four, **engine), self.TASK))
            sent = [call_index(body, ModelRole.MUTATOR) for body in ollama.bodies("/api/chat")
                    if role_of(body) is ModelRole.MUTATOR]
            assert max(sent) == (5 if name == "ahead" else 3)
        assert event_lines(logs[0]) == event_lines(logs[1])
        events = read_log(logs[0])[1]
        assert [e.payload["step"] for e in events if e.kind.startswith("Mutation")] == [1, 2, 3, 4]
        assert [e.payload["chat_calls"]["mutator"] for e in events if "chat_calls" in e.payload][-1] == 4

    def test_no_rewrite_goes_out_past_the_budget(self, tmp_path, ollama):
        # The last round's plan batch has room for a third rewrite, but the
        # budget is 2 steps.
        run_optimization(self.config(tmp_path, "paired"), self.TASK)
        sent = [call_index(body, ModelRole.MUTATOR) for body in ollama.bodies("/api/chat")
                if role_of(body) is ModelRole.MUTATOR]
        assert sorted(set(sent)) == [0, 1]

    def test_failed_plan_aborts_the_round_and_resumes_to_the_full_run(self, tmp_path, monkeypatch, ollama):
        full = run_optimization(self.config(tmp_path, "full"), self.TASK)
        # prompting calls: the initial plan, round 1's, then round 2's
        log = self.both_runs(tmp_path, monkeypatch, ollama, ModelRole.PROMPTING, 2, self.FAILING)
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


#: A run's shape: samples, archive capacities, mutation budget and seed.
SHAPES = {"samples": st.integers(1, 4), "capacity": st.integers(1, 3), "budget": st.integers(1, 6),
          "seed": st.integers(0, 2**31 - 1)}


def shape_config(root, name, samples, capacity, budget, seed, **overrides):
    """A config of the drawn shape, one round past the one that fills the
    best archive, logging into ``root/name``."""
    engine = {"samples_per_round": samples, "best_capacity": capacity, "worst_capacity": capacity,
              "max_rounds": capacity + 1, "mutation_budget": budget, "seed": seed}
    return library_config(root, engine=engine, output_dir=os.path.join(root, name), **overrides)


def assert_resumes_from_each_step(config, log, root):
    """A resume of ``log`` cut after each mutation step's closing event
    gives its event lines."""
    lines = Path(log).read_text(encoding="utf-8").splitlines()
    cut = Path(root) / "cut.jsonl"
    steps = [at for at, line in enumerate(lines) if '"kind":"Mutation' in line]
    assert steps
    for at in steps:
        cut.write_text("\n".join(lines[: at + 1]) + "\n", encoding="utf-8")
        resume_optimization(config, cut)
        assert event_lines(cut) == lines[1:]


def uneven_below(rng, n, below=SplitMix64.below):
    """``SplitMix64.below`` that takes ``n - 1`` draws more for a bound of
    ``n``. The real one rejects a draw only with odds ``n / 2**64``, so a
    step's two picks leave the same generator state whatever they picked;
    with this one the state a step leaves depends on its source's sentence
    count, so picks chained from a speculation that missed start from a
    stale state."""
    for _ in range(n - 1):
        rng.next_u64()
    return below(rng, n)


class Requested(str):
    """A mutator reply that knows the user message of its request."""

    request: str


def tagging(chat):
    """``MockBackend.chat`` that tags each mutator reply, or the backend
    error it raises, with the user message of its request."""

    def tagged_chat(backend, exchange, params):
        message = exchange.messages[-1][1]
        try:
            reply = chat(backend, exchange, params)
        except BACKEND_ERRORS as exc:
            exc.request = message
            raise
        if exchange.role is ModelRole.MUTATOR:
            reply = Requested(reply)
            reply.request = message
        return reply

    return tagged_chat


def recording(rewrite, used):
    """``mutation.rewrite_sentence`` that appends to ``used``, for each
    step, its rewrite request's user message and that of the request whose
    outcome the step took."""

    def recorded(chat, picks):
        def traced(role, message):
            try:
                reply = chat(role, message)
            except BACKEND_ERRORS as exc:
                used.append((message, exc.request))
                raise
            used.append((message, reply.request))
            return str(reply)  # the log takes exact strs only

        return rewrite(traced, picks)

    return recorded


class TestSpeculationLeavesNoTrace:
    """A run that sends rewrites ahead logs what the same run logs with the
    backend's ``in_flight`` at 1, and a resume from each mutation step's
    commit, which starts with an empty ahead map, gives the uninterrupted
    run's lines."""

    TASK = "Schreibe einen Arztbrief."
    SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

    @pytest.mark.parametrize("below", [SplitMix64.below, uneven_below], ids=["two-draws", "draws-by-bound"])
    @SETTINGS
    @given(**SHAPES)
    def test_over_http(self, tmp_path, monkeypatch, ollama, below, samples, capacity, budget, seed):
        monkeypatch.setattr(SplitMix64, "below", below)
        root = tempfile.mkdtemp(dir=tmp_path)
        shape = (samples, capacity, budget, seed)
        config = shape_config(root, "ahead", *shape, backend=HTTP_BACKEND)
        log = run_optimization(config, self.TASK)
        with monkeypatch.context() as patch:
            patch.setattr(HttpBackend, "in_flight", 1)
            alone = run_optimization(shape_config(root, "alone", *shape, backend=HTTP_BACKEND), self.TASK)
        assert event_lines(log) == event_lines(alone)
        assert_resumes_from_each_step(config, log, root)

    @SETTINGS
    @given(**SHAPES, rewrites=st.lists(st.sampled_from(["Neu formuliert.", "Kurz und klar!", FAILURE_MARKER, "  "]),
                                       min_size=6, max_size=6))
    def test_on_the_mock(self, tmp_path, monkeypatch, samples, capacity, budget, seed, rewrites):
        # The mock's reply depends on the call's role and index only, so an
        # outcome taken for the wrong request shows in the requests alone.
        root = tempfile.mkdtemp(dir=tmp_path)
        shape = (samples, capacity, budget, seed)
        scripts = {"prompting": scripted_plans(capacity + 1), "mutator": rewrites}
        logs, used = [], []
        for in_flight in (4, 1):
            used.append([])
            with monkeypatch.context() as patch:
                patch.setattr(MockBackend, "in_flight", in_flight)
                patch.setattr(MockBackend, "chat", tagging(MockBackend.chat))
                patch.setattr(mutation, "rewrite_sentence", recording(mutation.rewrite_sentence, used[-1]))
                config = shape_config(root, f"in-flight-{in_flight}", *shape, scripts=scripts)
                logs.append(run_optimization(config, self.TASK))
                if in_flight > 1:
                    assert_resumes_from_each_step(config, logs[-1], root)
        assert event_lines(logs[0]) == event_lines(logs[1])
        # Each step of the run and of its resumes took its own request's outcome.
        assert used[0][: budget] == used[1] and len(used[1]) == budget
        assert all(message == request for message, request in used[0])


#: The mutator's replies by call index: a rewrite, a backend failure or a
#: blank reply, six of them for the largest budget.
REWRITES = st.lists(st.sampled_from(["Neu formuliert.", FAILURE_MARKER, "  "]), min_size=6, max_size=6)


class TestPicksDrawnOverAFullArchive:
    """Every draw of a mutation step's picks is over a best archive of
    ``best_capacity`` entries: a step's own draw, a chain of speculative
    picks, the last round's plan batch and replay alike. The mutation phase
    starts on a full archive and a MutationApplied into it evicts an entry,
    so picks sent ahead are drawn over an archive of the length the step
    would draw over, and a chain of them draws the archive picks the steps
    would draw if the archive stays as it is."""

    TASK = "Schreibe einen Arztbrief."
    SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

    @SETTINGS
    @given(**SHAPES, rewrites=REWRITES)
    def test_on_the_mock(self, tmp_path, monkeypatch, samples, capacity, budget, seed, rewrites):
        root = tempfile.mkdtemp(dir=tmp_path)
        scripts = {"prompting": scripted_plans(capacity + 1), "mutator": rewrites}
        draw, drawn = mutation.draw, []

        def checked(entries, rng_state, step):
            assert len(entries) == capacity
            drawn.append(step)
            return draw(entries, rng_state, step)

        for in_flight in (1, 4):
            with monkeypatch.context() as patch:
                patch.setattr(MockBackend, "in_flight", in_flight)
                patch.setattr(mutation, "draw", checked)
                log = run_optimization(shape_config(root, f"in-flight-{in_flight}", samples, capacity, budget, seed,
                                                    scripts=scripts), self.TASK)
                assert set(drawn) == set(range(1, budget + 1))
                drawn.clear()
                replay_log(log)
                assert drawn == list(range(1, budget + 1))
                drawn.clear()


class TestEveryCutResumes:
    """A log cut at any byte from the end of its RunStarted line to its
    RunFinished, a torn last line included, resumes to the uninterrupted
    run's event lines. A resume starts with an empty ahead map, so at an
    ``in_flight`` of 4 this also checks that no step depends on a rewrite
    sent ahead before the cut."""

    TASK = "Schreibe einen Arztbrief."
    SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

    @SETTINGS
    @given(**SHAPES, rewrites=REWRITES, in_flight=st.sampled_from([1, 4]), data=st.data())
    def test_on_the_mock(self, tmp_path, monkeypatch, samples, capacity, budget, seed, rewrites, in_flight, data):
        root = tempfile.mkdtemp(dir=tmp_path)
        scripts = {"prompting": scripted_plans(capacity + 1), "mutator": rewrites}
        with monkeypatch.context() as patch:
            patch.setattr(MockBackend, "in_flight", in_flight)
            config = shape_config(root, "full", samples, capacity, budget, seed, scripts=scripts)
            log = Path(run_optimization(config, self.TASK))
            full = log.read_bytes()
            started = full.index(b"\n", full.index(b"\n") + 1) + 1  # the manifest's and RunStarted's lines
            # A cut that keeps RunFinished's whole JSON, newline or not, leaves a finished run.
            at = data.draw(st.integers(started, len(full) - 2), label="cut")
            cut = Path(root) / "cut.jsonl"
            cut.write_bytes(full[:at])
            resume_optimization(config, cut)
        assert event_lines(cut) == event_lines(log)

    @SETTINGS
    @given(**SHAPES, rewrites=REWRITES, in_flight=st.sampled_from([1, 4]), data=st.data())
    def test_of_an_aborted_run_on_the_mock(self, tmp_path, monkeypatch, samples, capacity, budget, seed, rewrites,
                                           in_flight, data):
        """A fault at a drawn chat call of the feedback loop, the calls up to
        the last plan's, aborts the run. The aborted log, cut at a drawn byte
        from the end of its RunStarted line to its end, resumes without the
        fault to the fault-free run's event lines."""
        root = tempfile.mkdtemp(dir=tmp_path)
        shape = (samples, capacity, budget, seed)
        scripts = {"prompting": scripted_plans(capacity + 1), "mutator": rewrites}
        backend = pipeline._backend
        with monkeypatch.context() as patch:
            patch.setattr(MockBackend, "in_flight", in_flight)
            full = run_optimization(shape_config(root, "full", *shape, scripts=scripts), self.TASK)
            plans = [e.payload for e in read_log(full)[1] if e.kind == "PromptRegenerated"]
            fault = data.draw(st.integers(1, sum(plans[-1]["chat_calls"].values())), label="fault")
            patch.setattr(pipeline, "_backend", lambda config: OneShotFault(backend(config), "chat", fault))
            config = shape_config(root, "aborted", *shape, scripts=scripts)
            with pytest.raises(RunAbortedError):
                run_optimization(config, self.TASK)
            patch.setattr(pipeline, "_backend", backend)
            [log] = Path(root, "aborted").glob("*.jsonl")
            aborted = log.read_bytes()
            started = aborted.index(b"\n", aborted.index(b"\n") + 1) + 1  # the manifest's and RunStarted's lines
            log.write_bytes(aborted[: data.draw(st.integers(started, len(aborted)), label="cut")])
            resume_optimization(config, log)
        assert event_lines(log) == event_lines(full)


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

        def recording_request(engine, role, user_message, *ahead):
            built.add((role, user_message))
            return request(engine, role, user_message, *ahead)

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
