import hashlib
import json
import math
import statistics
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORPUS_TEXTS,
    FakeEvaluator,
    FakeResponse,
    events_by_kind,
    make_corpus,
    make_harness,
    scripted_plans,
)
from oracle import bottom_k_ref, embed_ref, top_k_ref
from promptloop.engine import Engine
from promptloop.errors import RunAbortedError
from promptloop.gateway import FAILURE_MARKER, BackendDescriptor, HttpBackend
from promptloop.roles import DEFAULT_SYSTEM_PROMPTS, ModelRole
from promptloop.runstore import EventLog
from promptloop.scoring import CorpusEvaluator, EmbeddingCache, corpus_score
from promptloop.state import (
    ArchiveEntry,
    EngineState,
    PromptArchive,
    SplitMix64,
    check_transition,
    round_mean,
    route_feedback,
)


def offer(best, worst, cid, score, arrival):
    entry = ArchiveEntry(cid, "Schritt eins. Schritt zwei.", score, arrival)
    best.offer(entry)
    worst.offer(entry)


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


#: Finite scores: any finite float, subnormals, signed zeros, magnitudes from
#: about 1e-300 to 1, and ints.
MEAN_INPUTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.integers(-(2**52), 2**52), st.just(-1074)),
    st.sampled_from([0.0, -0.0]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-996, 0)),
    st.integers(-(10**9), 10**9),
)


class TestRoundMean:
    @given(st.lists(MEAN_INPUTS, min_size=1, max_size=64))
    def test_matches_statistics_mean(self, scores):
        # No @settings: CI runs this under the "kernels" profile, which a
        # max_examples here would override.
        expected = statistics.mean(scores)
        mean = round_mean(scores)
        assert mean == expected
        assert math.copysign(1.0, mean) == math.copysign(1.0, expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            round_mean([])


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
            offer(best, worst, f"c{arrival}", score, arrival)
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
        assert [e.candidate_id for e in best.entries] == ["c1", "c2"]

    def test_ranked_prefers_earlier_arrival_on_ties(self):
        best, _ = self.run_stream([0.5, 0.9, 0.5], best_cap=3)
        assert [e.candidate_id for e in best.entries] == ["c2", "c1", "c3"]

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
            offer(best, worst, f"c{arrival}", score, arrival)
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
                floors.append(best.entries[-1].score)
        assert floors == sorted(floors)


class TestCheckTransition:
    def make_state(self, round, best_scores, best_cap=3, max_rounds=10, score_target=None):
        best = PromptArchive(best_cap, keep="best")
        for arrival, score in enumerate(best_scores, start=1):
            best.offer(ArchiveEntry(f"c{arrival}", "p", score, arrival))
        return EngineState(
            best=best,
            worst=PromptArchive(best_cap, keep="worst"),
            rng=SplitMix64(0),
            task_prompt="Aufgabe",
            samples_per_round=4,
            max_rounds=max_rounds,
            mutation_budget=10,
            score_target=score_target,
            round=round,
        )

    def test_full_best_archive_triggers_mutation(self):
        state = self.make_state(4, [0.5, 0.6, 0.7], max_rounds=10)
        assert check_transition(state) == "mutation"

    def test_round_budget_exhausted_finishes(self):
        state = self.make_state(6, [0.5, 0.6], max_rounds=6)
        assert check_transition(state) == "finished"

    def test_score_target_finishes(self):
        state = self.make_state(2, [0.95], max_rounds=10, score_target=0.9)
        assert check_transition(state) == "finished"

    def test_otherwise_stays_in_feedback_loop(self):
        state = self.make_state(1, [0.5], max_rounds=10)
        assert check_transition(state) == "feedback_loop"


#: The prompting request of ``test_full_archives_request_is_the_formula``,
#: as the per-request rendering of every archived prompt wrote it.
FULL_ARCHIVES_REQUEST_SHA256 = "e93927fd21834614cc3264e03f711d3ba3a06a7ac73268ab3b0378454ccdfe37"


class TestGenerateStepPlan:
    def test_round_zero_composition_is_task_alone(self, tmp_path):
        h = make_harness(tmp_path)
        plan = h.engine.generate_step_plan(None)
        assert plan == "ECHO: " + h.task

    def test_scripted_prompting_queue(self, tmp_path):
        h = make_harness(tmp_path, scripts={ModelRole.PROMPTING: ["PLAN v2"]})
        plan = h.engine.generate_step_plan(None)
        assert plan == "PLAN v2"

    def test_composition_lists_archives_once_best_before_worst(self, tmp_path):
        h = make_harness(tmp_path)
        best = PromptArchive(3, keep="best")
        worst = PromptArchive(3, keep="worst")
        best.offer(ArchiveEntry("b1", "Guter Plan A.", 0.9, 1))
        best.offer(ArchiveEntry("b2", "Guter Plan B.", 0.8, 2))
        worst.offer(ArchiveEntry("w1", "Schwacher Plan C.", 0.1, 3))
        h.engine.state.best, h.engine.state.worst = best, worst
        h.engine.generate_step_plan("Zusammenfassung X")
        message = h.backend.calls[-1].messages[-1][1]
        for plan in ("Guter Plan A.", "Guter Plan B.", "Schwacher Plan C."):
            assert message.count(plan) == 1
        assert message.index("Guter Plan A.") < message.index("Schwacher Plan C.")
        assert message.index("Guter Plan B.") < message.index("Schwacher Plan C.")
        assert "Zusammenfassung X" in message
        assert message.count(h.task) == 1

    def test_full_archives_request_is_the_formula(self, tmp_path):
        """Sixty best and sixty worst archived prompts of about 1 KB: every
        request lists each as ``{i}. (score={score!r}) {plan}``, whether its
        line was rendered for an earlier request or not."""
        h = make_harness(tmp_path)
        state = h.engine.state
        state.best, state.worst = PromptArchive(60, keep="best"), PromptArchive(60, keep="worst")
        for arrival in range(1, 121):
            plan = f"Plan {arrival}. " + "Nenne Zustand, Medikation und Entlassung. " * 24
            entry = ArchiveEntry(f"cand-{arrival:04d}", plan, (arrival * 0.1) % 1 + 1 / 3, arrival)
            (state.best if arrival % 2 else state.worst).offer(entry)

        def block(entries):
            return "\n".join(f"{i}. (score={e.score!r}) {e.step_plan}" for i, e in enumerate(entries, start=1))

        for summary in ("Zusammenfassung 1", "Zusammenfassung 2"):
            h.engine.generate_step_plan(summary)
            assert h.backend.calls[-1].messages[-1][1] == "\n\n".join([
                h.task,
                "Feedback summary of the last round:\n" + summary,
                "Highest-scoring prompts so far:\n" + block(state.best.entries),
                "Lowest-scoring prompts so far:\n" + block(state.worst.entries),
                "Write an improved step-by-step prompt that keeps what worked and fixes what fell short.",
            ])
        message = h.backend.calls[-1].messages[-1][1]
        assert len(message) > 120_000
        assert hashlib.sha256(message.encode("utf-8")).hexdigest() == FULL_ARCHIVES_REQUEST_SHA256

    def test_prompting_params_are_role_defaults(self, tmp_path):
        h = make_harness(tmp_path)
        h.engine.generate_step_plan(None)
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
        assert h.engine.collect_feedback([("Ausgabe", 0.2)], ["diagnostic"], "Plan.") == ["too generic"]


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
        assert after.current == before.current
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
        assert after.current == before.current
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
        state = h.run()
        events = h.events()
        assert len(events_by_kind(events, "RoundStarted")) == 1
        assert state.round == 1
        assert h.engine.state.phase == "finished"
        assert state.best.entries[0].candidate_id == "cand-0001"
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
        monkeypatch.setattr(h.backend, "health_check", lambda: "down")
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
        state = h.run()
        assert state.round == 1
        assert h.engine.state.phase == "finished"
        assert state.mutations_applied == 0

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
    by actor requests, and the seed of each request per role, in arrival order.
    """

    def __init__(self, batch):
        self.barrier = threading.Barrier(batch, timeout=5)
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.actor_peak = 0
        self.actor_requests = 0
        self.seeds = {role: [] for role in ModelRole}

    def get(self, url, timeout=None):
        return FakeResponse({"models": [{"name": "llama3.1:latest"},
                                        {"name": "jina-embeddings-v2-base-de:latest"}]})

    def post(self, url, json=None, timeout=None):
        role = ROLE_OF_SYSTEM_PROMPT[json["messages"][0]["content"]]
        is_actor = role is ModelRole.ACTOR
        with self.lock:
            self.seeds[role].append(json["options"]["seed"])
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


ROLE_OF_SYSTEM_PROMPT = {text: role for role, text in DEFAULT_SYSTEM_PROMPTS.items()}


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


class TestPerCallSeeds:
    """Each HTTP chat request carries a seed derived from its role and call
    index. The stub's replies digest the request, seed included, so the
    samples of a round differ and a resumed run must reproduce every seed."""

    SAMPLES = 3
    ENGINE = {"samples_per_round": SAMPLES, "best_capacity": 2, "worst_capacity": 2,
              "max_rounds": 4, "mutation_budget": 2}

    def run_over_http(self, h, log_path, resume=False):
        session = InFlightSession(self.SAMPLES)
        backend = HttpBackend(
            BackendDescriptor(kind="http", base_url="http://stub", retry_backoff=0.0), session
        )
        if resume:
            engine = Engine.resumed(backend, h.evaluator_for, h.config.engine, log_path,
                                    h.config_digest, h.corpus_digest)
            engine.resume()
        else:
            engine = Engine(backend, h.evaluator, h.config.engine, EventLog(log_path), h.task)
            engine.run(h.manifest())
        engine.log.close()
        return session

    def test_each_rounds_actor_samples_get_distinct_seeds(self, tmp_path):
        h = make_harness(tmp_path, engine=self.ENGINE)
        session = self.run_over_http(h, h.log_path)
        actor = session.seeds[ModelRole.ACTOR]
        assert len(actor) == len(events_by_kind(h.events(), "SampleScored"))
        for start in range(0, len(actor), self.SAMPLES):
            assert len(set(actor[start:start + self.SAMPLES])) == self.SAMPLES
        texts = [e.payload["text"] for e in events_by_kind(h.events(), "SampleGenerated")]
        assert len(set(texts[: self.SAMPLES])) == self.SAMPLES

    def test_identical_runs_send_identical_seeds(self, tmp_path):
        h = make_harness(tmp_path, engine=self.ENGINE)
        first = self.run_over_http(h, h.log_path)
        second = self.run_over_http(h, tmp_path / "second.jsonl")
        for role in ModelRole:
            assert sorted(first.seeds[role]) == sorted(second.seeds[role]), role
        assert _lines(h.log_path)[1:] == _lines(tmp_path / "second.jsonl")[1:]

    def test_resumed_run_sends_the_uninterrupted_seeds(self, tmp_path):
        h = make_harness(tmp_path, engine=self.ENGINE)
        full = self.run_over_http(h, h.log_path)
        lines = _lines(h.log_path)
        cut = next(
            k for k, line in enumerate(lines)
            if '"kind":"PromptRegenerated"' in line and json.loads(line)["payload"]["round"] == 1
        )
        cut_path = tmp_path / "cut.jsonl"
        cut_path.write_text("\n".join(lines[: cut + 1]) + "\n", encoding="utf-8")
        resumed = self.run_over_http(h, cut_path, resume=True)
        assert resumed.seeds[ModelRole.ACTOR]
        for role in ModelRole:
            # batches go out one after another, so the calls after the cut are
            # the last ones of each role in arrival order
            tail = full.seeds[role][len(full.seeds[role]) - len(resumed.seeds[role]):]
            assert sorted(resumed.seeds[role]) == sorted(tail), role
        assert _lines(cut_path) == lines


class MalformedSession:
    """Fake Ollama endpoint for a whole engine run: chat replies name the
    role's call, embeddings are the oracle's. The ``at``-th request of
    ``target`` (a role, or "embed") gets ``reply`` instead."""

    def __init__(self, target, at, reply):
        self.target, self.at, self.reply = target, at, reply
        self.lock = threading.Lock()
        self.counts = {}

    def get(self, url, timeout=None):
        return FakeResponse({"models": [{"name": "llama3.1:latest"},
                                        {"name": "jina-embeddings-v2-base-de:latest"}]})

    def post(self, url, json=None, timeout=None):
        embed = url.endswith("/api/embed")
        target = "embed" if embed else ROLE_OF_SYSTEM_PROMPT[json["messages"][0]["content"]]
        with self.lock:
            self.counts[target] = count = self.counts.get(target, 0) + 1
        if (target, count) == (self.target, self.at):
            return FakeResponse(self.reply)
        if embed:
            return FakeResponse({"embeddings": [embed_ref(text, 64) for text in json["input"]]})
        return FakeResponse({"message": {"content": f"Antwort {target} {count}. Zweiter Satz."}})


class TestMalformedHttpReplies:
    """A malformed reply is a ProtocolError, and a sample vector of another
    length than the corpus's a DimensionMismatchError; both are contained like
    any other backend failure: logged, aborting a round and skipping a
    mutation step."""

    ENGINE = {"samples_per_round": 2, "best_capacity": 1, "worst_capacity": 1, "max_rounds": 3,
              "mutation_budget": 2}

    def run_over_http(self, h, target, at, reply):
        backend = HttpBackend(
            BackendDescriptor(kind="http", base_url="http://stub", retry_backoff=0.0),
            MalformedSession(target, at, reply),
        )
        cache = EmbeddingCache(backend)
        evaluator = CorpusEvaluator(make_corpus(cache).centroid, cache)
        engine = Engine(backend, evaluator, h.config.engine, EventLog(h.log_path), h.task)
        try:
            engine.run(h.manifest())
        finally:
            engine.log.close()

    @pytest.mark.parametrize(
        "target, reply, cause",
        [
            (ModelRole.SUMMARIZER, [], "not an object"),
            (ModelRole.SUMMARIZER, {"message": "Text."}, "missing message.content"),
            (ModelRole.SUMMARIZER, {"message": ["Text."]}, "missing message.content"),
            ("embed", [], "not an object"),
            ("embed", {"embeddings": [["x"] * 64, [0.5] * 64]}, "non-numeric"),
            ("embed", {"embeddings": [[{"x": 1.0}] * 64, [0.5] * 64]}, "non-numeric"),
            ("embed", {"embeddings": [[math.nan] + [0.5] * 63, [0.5] * 64]}, "non-finite"),
            ("embed", {"embeddings": [[0.5] * 64, [0.5] * 63 + [-math.inf]]}, "non-finite"),
            ("embed", {"embeddings": [[0.5] * 32, [0.5] * 32]}, "candidate (32,) vs corpus (64,)"),
        ],
    )
    def test_mid_round_reply_is_logged_and_aborts_the_run(self, tmp_path, target, reply, cause):
        # The corpus takes the first two embed requests, one per document;
        # the third carries round 1's two samples.
        at = 3 if target == "embed" else 1
        h = make_harness(tmp_path, engine=self.ENGINE)
        with pytest.raises(RunAbortedError):
            self.run_over_http(h, target, at, reply)
        events = h.events()
        last = events[-1]
        assert last.kind == "BackendFailure"
        assert last.payload["phase"] == "feedback_loop"
        assert cause in last.payload["message"]
        if target == "embed":
            # a batch is scored before any of its samples is logged
            assert [e.kind for e in events[-2:]] == ["RoundStarted", "BackendFailure"]

    @pytest.mark.parametrize(
        "target, at, reply, applied, rejected",
        [
            (ModelRole.MUTATOR, 1, [], [], [1, 2]),
            (ModelRole.MUTATOR, 1, {"message": "Text."}, [], [1, 2]),
            (ModelRole.MUTATOR, 1, {"message": ["Text."]}, [], [1, 2]),
            # round 1 fills the one-slot archive, so the fourth embed request
            # carries the first mutation step's samples
            ("embed", 4, {"embeddings": [[0.5] * 32, [0.5] * 32]}, [2], [1]),
        ],
    )
    def test_mutation_step_reply_skips_the_step(self, tmp_path, target, at, reply, applied, rejected):
        h = make_harness(tmp_path, engine=self.ENGINE)
        self.run_over_http(h, target, at, reply)
        events = h.events()
        assert [e.payload["phase"] for e in events_by_kind(events, "BackendFailure")] == ["mutation"]
        steps = [e.payload["step"] for e in events if e.kind in ("MutationApplied", "MutationRejected")]
        assert steps == [1, 2]
        assert [e.payload["step"] for e in events_by_kind(events, "MutationApplied")] == applied
        assert [e.payload["step"] for e in events_by_kind(events, "MutationRejected")] == rejected
        assert events_by_kind(events, "MutationRejected")[0].payload["reason"] == "backend-failure"
        assert events[-1].kind == "RunFinished"


class TestBatchScoring:
    """A round's samples are embedded together: one request for the texts
    the cache does not hold yet, each text once."""

    def test_one_embed_request_per_round_each_text_once(self, tmp_path):
        samples = ["Befund eins folgt.", "Befund zwei folgt.", "Befund eins folgt.", CORPUS_TEXTS[0]]
        h = make_harness(
            tmp_path,
            engine={"samples_per_round": 4, "max_rounds": 2},
            scripts={ModelRole.ACTOR: samples + ["Befund drei folgt."] * 4},
        )
        requests = []
        embed = h.backend.embed

        def recording_embed(texts):
            requests.append(list(texts))
            return embed(texts)

        h.backend.embed = recording_embed
        h.run()
        assert requests == [samples[:2], ["Befund drei folgt."]]
        scores = [e.payload["score"] for e in events_by_kind(h.events(), "SampleScored")]
        assert scores[0] == scores[2]
        assert scores[3] == corpus_score(CORPUS_TEXTS[0], h.corpus.centroid, h.cache)


def _lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()
