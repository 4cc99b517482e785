import hashlib
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeEvaluator, FakeResponse, events_by_kind, make_harness, scripted_plans
from oracle import bottom_k_ref, top_k_ref
from promptloop.engine import (
    ArchiveEntry,
    Engine,
    EngineConfig,
    EngineState,
    PromptArchive,
    PromptCandidate,
    SplitMix64,
    check_transition,
    route_feedback,
    update_archives,
)
from promptloop.errors import RunAbortedError
from promptloop.gateway import FAILURE_MARKER, BackendDescriptor, HttpBackend
from promptloop.roles import DEFAULT_SYSTEM_PROMPTS, ModelRole
from promptloop.runstore import EventLog


def candidate(cid="cand-0001", plan="Schritt eins. Schritt zwei.", score=None, round=1):
    return PromptCandidate(
        id=cid,
        task_prompt="Aufgabe",
        step_plan=plan,
        origin="initial",
        round=round,
        score=score,
    )


class TestSplitMix64:
    def test_reproducible_from_seed(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_state_roundtrip(self):
        a = SplitMix64(42)
        a.next_u64()
        b = SplitMix64(0)
        b.state = a.state
        assert a.next_u64() == b.next_u64()

    def test_below_in_range(self):
        rng = SplitMix64(7)
        draws = [rng.below(5) for _ in range(200)]
        assert set(draws) <= {0, 1, 2, 3, 4}
        assert len(set(draws)) == 5  # all residues show up in 200 draws

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)


class TestRouteFeedback:
    def test_below_threshold_goes_diagnostic(self):
        assert route_feedback(0.39, 0.40) == "diagnostic"

    def test_above_threshold_goes_general(self):
        assert route_feedback(0.41, 0.40) == "general"

    def test_tie_goes_general(self):
        assert route_feedback(0.40, 0.40) == "general"


class TestArchives:
    def run_stream(self, scores, best_cap=3, worst_cap=3):
        best = PromptArchive(best_cap, keep="best")
        worst = PromptArchive(worst_cap, keep="worst")
        for arrival, score in enumerate(scores, start=1):
            update_archives(best, worst, candidate(f"c{arrival}", score=score), arrival)
        return best, worst

    def test_spec_stream(self):
        best, worst = self.run_stream([0.5, 0.9, 0.1, 0.7, 0.3, 0.8])
        assert sorted(e.score for e in best.entries) == [0.7, 0.8, 0.9]
        assert sorted(e.score for e in worst.entries) == [0.1, 0.3, 0.5]

    def test_full_best_ignores_lower_score(self):
        best, _ = self.run_stream([0.6, 0.7, 0.9, 0.4])
        assert sorted(e.score for e in best.entries) == [0.6, 0.7, 0.9]

    def test_full_best_replaces_minimum(self):
        best, _ = self.run_stream([0.6, 0.7, 0.9, 0.65])
        assert sorted(e.score for e in best.entries) == [0.65, 0.7, 0.9]

    def test_tie_keeps_incumbent(self):
        best, _ = self.run_stream([0.5, 0.5, 0.5], best_cap=2)
        assert [e.candidate_id for e in best.ranked()] == ["c1", "c2"]

    def test_ranked_prefers_earlier_arrival_on_ties(self):
        best, _ = self.run_stream([0.5, 0.9, 0.5], best_cap=3)
        assert [e.candidate_id for e in best.ranked()] == ["c2", "c1", "c3"]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=40).map(lambda n: n / 40), max_size=60),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_bruteforce_on_every_prefix(self, scores, best_cap, worst_cap):
        best = PromptArchive(best_cap, keep="best")
        worst = PromptArchive(worst_cap, keep="worst")
        for arrival, score in enumerate(scores, start=1):
            update_archives(best, worst, candidate(f"c{arrival}", score=score), arrival)
            prefix = scores[:arrival]
            expected_best = {f"c{i + 1}" for i, _ in top_k_ref(prefix, best_cap)}
            expected_worst = {f"c{i + 1}" for i, _ in bottom_k_ref(prefix, worst_cap)}
            assert {e.candidate_id for e in best.entries} == expected_best
            assert {e.candidate_id for e in worst.entries} == expected_worst

    def test_best_floor_never_decreases_once_full(self):
        best = PromptArchive(2, keep="best")
        floors = []
        for arrival, score in enumerate([0.4, 0.2, 0.6, 0.1, 0.5, 0.3], start=1):
            best.offer(ArchiveEntry(f"c{arrival}", "p", score, arrival))
            if best.is_full:
                floors.append(best.boundary_score())
        assert floors == sorted(floors)


class TestCheckTransition:
    def make_state(self, round, best_scores, best_cap=3):
        best = PromptArchive(best_cap, keep="best")
        for arrival, score in enumerate(best_scores, start=1):
            best.offer(ArchiveEntry(f"c{arrival}", "p", score, arrival))
        return EngineState(
            best=best,
            worst=PromptArchive(best_cap, keep="worst"),
            rng=SplitMix64(0),
            round=round,
        )

    def test_full_best_archive_triggers_mutation(self):
        state = self.make_state(4, [0.5, 0.6, 0.7])
        assert check_transition(state, EngineConfig(max_rounds=10, best_capacity=3)) == "mutation"

    def test_round_budget_exhausted_finishes(self):
        state = self.make_state(6, [0.5, 0.6])
        assert check_transition(state, EngineConfig(max_rounds=6, best_capacity=3)) == "finished"

    def test_score_target_finishes(self):
        state = self.make_state(2, [0.95])
        config = EngineConfig(max_rounds=10, best_capacity=3, score_target=0.9)
        assert check_transition(state, config) == "finished"

    def test_otherwise_stays_in_feedback_loop(self):
        state = self.make_state(1, [0.5])
        assert check_transition(state, EngineConfig(max_rounds=10, best_capacity=3)) == "feedback_loop"


class TestGenerateStepPlan:
    def test_round_zero_composition_is_task_alone(self, tmp_path):
        h = make_harness(tmp_path)
        plan = h.engine.generate_step_plan(None, h.engine.state.best, h.engine.state.worst)
        assert plan == "ECHO: " + h.task

    def test_scripted_prompting_queue(self, tmp_path):
        h = make_harness(tmp_path, scripts={ModelRole.PROMPTING: ["PLAN v2"]})
        plan = h.engine.generate_step_plan(None, h.engine.state.best, h.engine.state.worst)
        assert plan == "PLAN v2"

    def test_composition_lists_archives_once_best_before_worst(self, tmp_path):
        h = make_harness(tmp_path)
        best = PromptArchive(3, keep="best")
        worst = PromptArchive(3, keep="worst")
        best.offer(ArchiveEntry("b1", "Guter Plan A.", 0.9, 1))
        best.offer(ArchiveEntry("b2", "Guter Plan B.", 0.8, 2))
        worst.offer(ArchiveEntry("w1", "Schwacher Plan C.", 0.1, 3))
        h.engine.generate_step_plan("Zusammenfassung X", best, worst)
        message = h.backend.calls[-1].messages[-1][1]
        for plan in ("Guter Plan A.", "Guter Plan B.", "Schwacher Plan C."):
            assert message.count(plan) == 1
        assert message.index("Guter Plan A.") < message.index("Schwacher Plan C.")
        assert message.index("Guter Plan B.") < message.index("Schwacher Plan C.")
        assert "Zusammenfassung X" in message
        assert message.count(h.task) == 1

    def test_prompting_params_are_role_defaults(self, tmp_path):
        h = make_harness(tmp_path)
        h.engine.generate_step_plan(None, h.engine.state.best, h.engine.state.worst)
        call = h.backend.calls[-1]
        assert call.role is ModelRole.PROMPTING
        assert (call.params.temperature, call.params.top_k, call.params.top_p) == (0.5, 40, 0.85)


def run_single_round(tmp_path, scores, threshold_after_expected=None, **engine_overrides):
    overrides = {"samples_per_round": len(scores), "max_rounds": 8}
    overrides.update(engine_overrides)
    h = make_harness(
        tmp_path,
        engine=overrides,
        scripts={ModelRole.PROMPTING: scripted_plans(9)},
        evaluator=FakeEvaluator(list(scores) + [scores[-1]]),
    )
    h.engine.log.start(h.manifest())
    h.engine.log.emit("RunStarted", {"run_id": "t", "task_prompt": h.task, "seed": 42,
                                     "samples_per_round": overrides["samples_per_round"],
                                     "max_rounds": overrides["max_rounds"], "best_capacity": 3,
                                     "worst_capacity": 3, "mutation_budget": 0,
                                     "score_target": None, "mutation_trigger": "best-archive-full"})
    h.engine._generate_initial_plan()
    return h


def logged_round(h, round_no):
    """The mean a round archived and the threshold events it logged."""
    events = h.events()
    archived = next(
        e for e in events_by_kind(events, "ArchivesUpdated") if e.payload["round"] == round_no
    )
    thresholds = [
        e.payload for e in events_by_kind(events, "ThresholdUpdated") if e.payload["round"] == round_no
    ]
    return archived.payload["score"], thresholds


class TestRunRound:
    def test_round_one_mean_sets_threshold(self, tmp_path):
        h = run_single_round(tmp_path, [0.2, 0.4, 0.6])
        h.engine.run_round()
        mean, thresholds = logged_round(h, 1)
        assert mean == pytest.approx(0.4, abs=1e-15)
        archived = next(e for e in h.engine.state.best.entries if e.candidate_id == "cand-0001")
        assert archived.score == mean
        assert h.engine.state.threshold == mean
        assert thresholds[0]["previous"] is None

    def test_threshold_keeps_higher_value(self, tmp_path):
        h = run_single_round(tmp_path, [0.2, 0.4, 0.6])
        h.engine.run_round()
        h.engine.evaluator.scores = [0.35, 0.35, 0.35]
        h.engine.run_round()
        mean, _ = logged_round(h, 2)
        assert mean == pytest.approx(0.35)
        assert h.engine.state.threshold == pytest.approx(0.4, abs=1e-15)

    def test_threshold_raised_by_better_round(self, tmp_path):
        h = run_single_round(tmp_path, [0.2, 0.4, 0.6])
        h.engine.run_round()
        h.engine.evaluator.scores = [0.5, 0.5, 0.5]
        h.engine.run_round()
        assert h.engine.state.threshold == pytest.approx(0.5, abs=1e-15)

    def test_round_one_threshold_event_precedes_feedback(self, tmp_path):
        h = run_single_round(tmp_path, [0.2, 0.4, 0.6])
        h.engine.run_round()
        h.engine.log.close()
        events = h.events()
        kinds = [e.kind for e in events]
        assert kinds.index("ThresholdUpdated") < kinds.index("FeedbackIssued")
        threshold = events_by_kind(events, "ThresholdUpdated")[0]
        scored = [e.payload["score"] for e in events_by_kind(events, "SampleScored")]
        assert threshold.payload["value"] == pytest.approx(sum(scored) / 3, abs=1e-12)

    def test_round_one_routes_against_fresh_threshold(self, tmp_path):
        h = run_single_round(tmp_path, [0.2, 0.4, 0.6])
        h.engine.run_round()
        h.engine.log.close()
        routes = [e.payload["route"] for e in events_by_kind(h.events(), "FeedbackIssued")]
        assert routes == ["diagnostic", "general", "general"]  # 0.2 < 0.4, 0.4 ==, 0.6 >

    def test_later_round_routes_against_old_threshold(self, tmp_path):
        h = run_single_round(tmp_path, [0.2, 0.4, 0.6])
        h.engine.run_round()
        h.engine.evaluator.scores = [0.39, 0.41, 0.40]
        h.engine.run_round()
        h.engine.log.close()
        feedback = events_by_kind(h.events(), "FeedbackIssued")
        routes = [e.payload["route"] for e in feedback if e.payload["round"] == 2]
        assert routes == ["diagnostic", "general", "general"]

    def test_routing_partition_covers_all_samples(self, tmp_path):
        h = run_single_round(tmp_path, [0.2, 0.4, 0.6])
        h.engine.run_round()
        h.engine.log.close()
        feedback = events_by_kind(h.events(), "FeedbackIssued")
        assert len(feedback) == 3
        assert {e.payload["sample_index"] for e in feedback} == {0, 1, 2}

    def test_feedback_context_contains_score_verbatim(self, tmp_path):
        h = run_single_round(tmp_path, [0.2, 0.4, 0.6])
        h.engine.run_round()
        feedback_calls = [
            c for c in h.backend.calls
            if c.role in (ModelRole.DIAGNOSTIC_FEEDBACK, ModelRole.GENERAL_FEEDBACK)
        ]
        assert len(feedback_calls) == 3
        for call, score in zip(feedback_calls, [0.2, 0.4, 0.6]):
            assert repr(score) in call.messages[-1][1]

    def test_feedback_roles_use_their_params(self, tmp_path):
        h = run_single_round(tmp_path, [0.2, 0.4, 0.6])
        h.engine.run_round()
        for call in h.backend.calls:
            if call.role is ModelRole.GENERAL_FEEDBACK:
                assert (call.params.temperature, call.params.top_k, call.params.top_p) == (0.3, 5, 0.5)
            if call.role is ModelRole.DIAGNOSTIC_FEEDBACK:
                assert (call.params.temperature, call.params.top_k, call.params.top_p) == (0.3, 5, 0.5)

    def test_summarizer_gets_feedback_in_sample_order(self, tmp_path):
        scripts = {
            ModelRole.PROMPTING: scripted_plans(9),
            ModelRole.DIAGNOSTIC_FEEDBACK: ["FB-niedrig"],
            ModelRole.GENERAL_FEEDBACK: ["FB-mitte", "FB-hoch"],
        }
        h = make_harness(
            tmp_path,
            engine={"samples_per_round": 3, "max_rounds": 8},
            scripts=scripts,
            evaluator=FakeEvaluator([0.2, 0.4, 0.6, 0.6]),
        )
        h.engine.log.start(h.manifest())
        h.engine.log.emit("RunStarted", {"run_id": "t", "task_prompt": h.task, "seed": 42,
                                         "samples_per_round": 3, "max_rounds": 8,
                                         "best_capacity": 3, "worst_capacity": 3,
                                         "mutation_budget": 0, "score_target": None,
                                         "mutation_trigger": "best-archive-full"})
        h.engine._generate_initial_plan()
        h.engine.run_round()
        summarizer_calls = [c for c in h.backend.calls if c.role is ModelRole.SUMMARIZER]
        assert len(summarizer_calls) == 1
        message = summarizer_calls[0].messages[-1][1]
        assert message.index("Feedback 1:") < message.index("Feedback 2:") < message.index("Feedback 3:")
        assert message.index("FB-niedrig") < message.index("FB-mitte") < message.index("FB-hoch")
        assert (summarizer_calls[0].params.temperature, summarizer_calls[0].params.top_k,
                summarizer_calls[0].params.top_p) == (0.2, 5, 0.5)

    def test_scripted_diagnostic_feedback_text(self, tmp_path):
        h = make_harness(
            tmp_path,
            engine={"samples_per_round": 1, "max_rounds": 8},
            scripts={
                ModelRole.PROMPTING: scripted_plans(9),
                ModelRole.DIAGNOSTIC_FEEDBACK: ["too generic"],
            },
            evaluator=FakeEvaluator([0.2]),
        )
        h.engine.log.start(h.manifest())
        h.engine.log.emit("RunStarted", {"run_id": "t", "task_prompt": h.task, "seed": 42,
                                         "samples_per_round": 1, "max_rounds": 8,
                                         "best_capacity": 3, "worst_capacity": 3,
                                         "mutation_budget": 0, "score_target": None,
                                         "mutation_trigger": "best-archive-full"})
        h.engine._generate_initial_plan()
        sample = PromptCandidate("cand-0001", h.task, "Plan.", "initial", 1)
        from promptloop.engine import ScoredSample

        scored = ScoredSample("cand-0001", 0, "Ausgabe", 0.2, route="diagnostic")
        assert h.engine.collect_feedback([scored], sample) == ["too generic"]


class TestAtomicRounds:
    def test_failed_round_restores_pre_round_state(self, tmp_path):
        scripts = {
            ModelRole.PROMPTING: scripted_plans(9),
            ModelRole.ACTOR: ["Erste Ausgabe da.", FAILURE_MARKER],
        }
        h = make_harness(
            tmp_path,
            engine={"samples_per_round": 2, "max_rounds": 8},
            scripts=scripts,
        )
        h.engine.log.start(h.manifest())
        h.engine.log.emit("RunStarted", {"run_id": "t", "task_prompt": h.task, "seed": 42,
                                         "samples_per_round": 2, "max_rounds": 8,
                                         "best_capacity": 3, "worst_capacity": 3,
                                         "mutation_budget": 0, "score_target": None,
                                         "mutation_trigger": "best-archive-full"})
        h.engine._generate_initial_plan()
        before = h.engine.state.clone()
        with pytest.raises(RunAbortedError):
            h.engine.run_round()
        h.engine.log.close()
        after = h.engine.state
        assert after.round == before.round
        assert after.threshold == before.threshold
        assert after.current.id == before.current.id
        assert after.current.score == before.current.score is None
        assert [e.candidate_id for e in after.best.entries] == []
        assert after.rng.state == before.rng.state
        assert h.events()[-1].kind == "BackendFailure"


    def test_failure_at_regeneration_also_rolls_back(self, tmp_path):
        # the regeneration call is the last backend call of a round; a failure
        # there must undo the score, threshold, and archive updates already made
        scripts = {
            ModelRole.PROMPTING: ["Plan 0. Zwei Sätze hier.", FAILURE_MARKER],
            ModelRole.ACTOR: ["Der Patient ist stabil.", "Die Medikation bleibt."],
        }
        h = make_harness(
            tmp_path,
            engine={"samples_per_round": 2, "max_rounds": 8},
            scripts=scripts,
        )
        h.engine.log.start(h.manifest())
        h.engine.log.emit("RunStarted", {"run_id": "t", "task_prompt": h.task, "seed": 42,
                                         "samples_per_round": 2, "max_rounds": 8,
                                         "best_capacity": 3, "worst_capacity": 3,
                                         "mutation_budget": 0, "score_target": None,
                                         "mutation_trigger": "best-archive-full"})
        h.engine._generate_initial_plan()
        before = h.engine.state.clone()
        with pytest.raises(RunAbortedError):
            h.engine.run_round()
        h.engine.log.close()
        after = h.engine.state
        assert after.threshold is None and before.threshold is None
        assert after.current.score is None
        assert len(after.best.entries) == 0
        assert len(after.worst.entries) == 0
        assert after.arrival_counter == before.arrival_counter


class TestRunOptimization:
    def scripted(self, tmp_path, name, max_rounds=5, budget=3, caps=(3, 3)):
        scripts = {
            ModelRole.PROMPTING: scripted_plans(max_rounds),
            ModelRole.ACTOR: [
                f"Ausgabe {i}: Der Patient ist stabil und die Medikation bleibt."
                for i in range(2 * max_rounds + 2 * budget)
            ],
            ModelRole.MUTATOR: [f"Neuer Satz {i}." for i in range(budget)],
        }
        return make_harness(
            tmp_path,
            engine={
                "samples_per_round": 2,
                "best_capacity": caps[0],
                "worst_capacity": caps[1],
                "max_rounds": max_rounds,
                "mutation_budget": budget,
                "seed": 42,
            },
            scripts=scripts,
            name=name,
        )

    def test_two_runs_byte_identical(self, tmp_path):
        first = self.scripted(tmp_path, "first")
        second = self.scripted(tmp_path, "second")
        first.run()
        second.run()
        lines_a = open(first.log_path, encoding="utf-8").read().splitlines()
        lines_b = open(second.log_path, encoding="utf-8").read().splitlines()
        assert lines_a == lines_b  # manifests too: run_id and created_at are pinned

    def test_single_round_budget(self, tmp_path):
        h = make_harness(
            tmp_path,
            engine={"samples_per_round": 2, "max_rounds": 1, "mutation_budget": 0},
            scripts={
                ModelRole.PROMPTING: scripted_plans(2),
                ModelRole.ACTOR: ["Der Patient ist stabil.", "Die Medikation bleibt."],
            },
        )
        result = h.run()
        events = h.events()
        assert len(events_by_kind(events, "RoundStarted")) == 1
        assert result.rounds_completed == 1
        assert h.engine.state.phase == "finished"
        assert result.best.candidate_id == "cand-0001"
        assert events[-1].kind == "RunFinished"

    def test_transition_to_mutation_when_best_full(self, tmp_path):
        h = self.scripted(tmp_path, "mut", max_rounds=6, budget=2, caps=(3, 3))
        h.run()
        transitions = [
            (e.payload["from"], e.payload["to"])
            for e in events_by_kind(h.events(), "PhaseTransition")
        ]
        assert ("feedback_loop", "mutation") in transitions
        assert transitions[-1] == ("mutation", "finished")
        rounds = events_by_kind(h.events(), "RoundStarted")
        assert len(rounds) == 3  # best_capacity rounds fill the archive

    def test_unavailable_backend_creates_no_log(self, tmp_path, monkeypatch):
        h = self.scripted(tmp_path, "nolog")
        from promptloop.gateway import HealthReport

        monkeypatch.setattr(
            h.backend,
            "health_check",
            lambda: HealthReport("unavailable", "mock", "m", "e", cause="down"),
        )
        from promptloop.errors import BackendUnavailableError

        with pytest.raises(BackendUnavailableError):
            h.run()
        import os

        assert not os.path.exists(h.log_path)

    def test_score_target_stops_early(self, tmp_path):
        h = make_harness(
            tmp_path,
            engine={
                "samples_per_round": 1,
                "max_rounds": 10,
                "mutation_budget": 5,
                "score_target": 0.5,
            },
            scripts={ModelRole.PROMPTING: scripted_plans(11)},
            evaluator=FakeEvaluator([0.95]),
        )
        result = h.run()
        assert result.rounds_completed == 1
        assert h.engine.state.phase == "finished"
        assert result.mutations_applied == 0

    def test_chat_calls_recorded_per_role(self, tmp_path):
        h = self.scripted(tmp_path, "calls", max_rounds=6, budget=2, caps=(3, 3))
        h.run()
        regen = events_by_kind(h.events(), "PromptRegenerated")
        final_counts = regen[-1].payload["chat_calls"]
        assert final_counts["actor"] == 6  # 3 rounds x 2 samples at the last regeneration
        assert final_counts["prompting"] == 4  # initial + one per round
        assert final_counts["summarizer"] == 3


class InFlightSession:
    """Thread-safe fake Ollama endpoint for a whole engine run.

    A chat reply is a digest of the request body, so it does not depend on
    the order in which requests arrive. Actor requests wait at a barrier of
    ``batch`` parties, which only a batch sent concurrently passes. The
    session records the most requests in flight at once, overall and as seen
    by actor requests.
    """

    def __init__(self, batch):
        self.barrier = threading.Barrier(batch, timeout=5)
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.actor_peak = 0
        self.actor_requests = 0

    def get(self, url, timeout=None):
        return FakeResponse({"models": [{"name": "llama3.1:latest"},
                                        {"name": "jina-embeddings-v2-base-de:latest"}]})

    def post(self, url, json=None, timeout=None):
        is_actor = json["messages"][0]["content"] == DEFAULT_SYSTEM_PROMPTS[ModelRole.ACTOR]
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            if is_actor:
                self.actor_requests += 1
                self.actor_peak = max(self.actor_peak, self.in_flight)
        try:
            if is_actor:
                self.barrier.wait()
            digest = hashlib.sha256(_json_bytes(json)).hexdigest()
            reply = f"Antwort {digest[:8]} folgt. Zweiter Satz {digest[8:16]}."
            return FakeResponse({"message": {"role": "assistant", "content": reply}})
        finally:
            with self.lock:
                self.in_flight -= 1


def _json_bytes(payload):
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class TestConcurrentBatches:
    SAMPLES = 3

    def run_over_http(self, tmp_path, name):
        h = make_harness(
            tmp_path,
            engine={
                "samples_per_round": self.SAMPLES,
                "best_capacity": 2,
                "worst_capacity": 2,
                "max_rounds": 4,
                "mutation_budget": 2,
            },
            name=name,
            evaluator=FakeEvaluator([0.4, 0.6, 0.5, 0.7, 0.3, 0.8, 0.55]),
        )
        session = InFlightSession(self.SAMPLES)
        backend = HttpBackend(
            BackendDescriptor(kind="http", base_url="http://stub", retry_backoff=0.0), session
        )
        engine = Engine(backend, h.evaluator, h.config.engine, EventLog(h.log_path), h.task)
        engine.run(h.manifest())
        engine.log.close()
        return h, session

    def test_actor_batches_run_concurrently_and_log_is_deterministic(self, tmp_path):
        first, session = self.run_over_http(tmp_path, "first")
        second, _ = self.run_over_http(tmp_path, "second")
        events = first.events()
        steps = len(events_by_kind(events, "MutationApplied")) + len(
            events_by_kind(events, "MutationRejected")
        )
        assert steps == 2
        rounds = len(events_by_kind(events, "RoundStarted"))
        assert session.actor_requests == self.SAMPLES * (rounds + steps)
        assert session.actor_peak == self.SAMPLES
        assert session.peak == self.SAMPLES
        assert _lines(first.log_path) == _lines(second.log_path)


def _lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()
