import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeEvaluator, events_by_kind, fold_best_floors, make_harness, scripted_plans
from oracle import segment_ref
from promptloop import mutation
from promptloop.demo import run_demo
from promptloop.errors import DegenerateInputError, EmptyResponseError
from promptloop.gateway import FAILURE_MARKER
from promptloop.mutation import draw_picks, rewrite_sentence, run_mutation_phase, segment_sentences
from promptloop.roles import ModelRole
from promptloop.state import ArchiveEntry, EngineState, apply_rewrite


def normalize_ws(text):
    return re.sub(r"\s+", " ", text).strip()


#: Terminators; ASCII and Unicode whitespace; upper- and title-case letters;
#: digit-likes that ``\d`` or ``str.isdigit`` disagree on; lower case.
SEGMENT_ALPHABET = (
    list(".!?")
    + list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000")
    + list("AZÜǅ")
    + list("7²٣Ⅷ")
    + list("aü")
)


class TestSegmentation:
    def test_two_plain_sentences(self):
        seg = segment_sentences("Der Patient ist stabil. Entlassung morgen.")
        assert seg == ("Der Patient ist stabil.", "Entlassung morgen.")

    def test_no_terminator_is_one_sentence(self):
        assert segment_sentences("Hallo") == ("Hallo",)

    def test_abbreviation_limitation_splits(self):
        # Terminator followed by whitespace+uppercase splits, abbreviations
        # included; the rule output is frozen here.
        seg = segment_sentences("Dr. Meier kommt. Dann Visite.")
        assert seg == ("Dr.", "Meier kommt.", "Dann Visite.")

    def test_whitespace_only_rejected(self):
        with pytest.raises(DegenerateInputError):
            segment_sentences("   \n\t ")

    def test_terminators_retained(self):
        seg = segment_sentences("Was nun? Alles gut! Ende.")
        assert seg == ("Was nun?", "Alles gut!", "Ende.")

    def test_consecutive_terminators_stay_together(self):
        assert segment_sentences("Wirklich?!") == ("Wirklich?!",)

    def test_ellipsis_splits_only_at_the_end(self):
        seg = segment_sentences("Er zoegert... Dann geht er.")
        assert seg == ("Er zoegert...", "Dann geht er.")

    def test_digit_after_terminator_splits(self):
        seg = segment_sentences("Siehe Punkt 1. 2 Tage spaeter kam er.")
        assert seg == ("Siehe Punkt 1.", "2 Tage spaeter kam er.")

    def test_decimal_number_does_not_split(self):
        assert segment_sentences("Dosis 2.5 mg taeglich.") == ("Dosis 2.5 mg taeglich.",)

    def test_lowercase_after_terminator_does_not_split(self):
        assert segment_sentences("z. b. hier bleibt alles zusammen.") == (
            "z. b. hier bleibt alles zusammen.",
        )

    def test_no_empty_sentences_and_joiner_roundtrip(self):
        text = "Eins.  Zwei drei.\nVier!   Fuenf?"
        seg = segment_sentences(text)
        assert all(s for s in seg)
        assert normalize_ws(" ".join(seg)) == normalize_ws(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(
            alphabet=st.sampled_from(list("abcDEF äöü .!?\n\t0123456789")),
            min_size=1,
            max_size=120,
        )
    )
    def test_roundtrip_modulo_whitespace(self, text):
        if not text.strip():
            return
        seg = segment_sentences(text)
        assert all(s.strip() == s and s for s in seg)
        assert normalize_ws(" ".join(seg)) == normalize_ws(text)

    @given(st.text(alphabet=st.sampled_from(SEGMENT_ALPHABET), max_size=60))
    def test_matches_reference(self, text):
        # No @settings: CI runs this under the "kernels" profile, which a
        # max_examples here would override.
        if text.strip():
            assert segment_sentences(text) == segment_ref(text)
        else:
            with pytest.raises(ValueError):
                segment_ref(text)
            with pytest.raises(DegenerateInputError):
                segment_sentences(text)

    def test_roundtrip_over_corpus_texts(self):
        from conftest import CORPUS_TEXTS
        from promptloop.demo import DEMO_CORPUS

        for text in list(CORPUS_TEXTS) + list(DEMO_CORPUS):
            seg = segment_sentences(text)
            assert normalize_ws(" ".join(seg)) == normalize_ws(text)


def chat_with_script(rewrites):
    queue = list(rewrites)

    def chat(role, message):
        assert role is ModelRole.MUTATOR
        return queue.pop(0)

    return chat


def mutate(plan, seed, rewrites):
    """One mutation step on a one-entry archive holding ``plan``: the picks,
    rewrite and splice of run_mutation_phase, with a scripted mutator."""
    state = EngineState.started({"task_prompt": "Aufgabe", "seed": seed, "best_capacity": 1, "worst_capacity": 5,
                                 "samples_per_round": 1, "max_rounds": 1, "mutation_budget": 1, "score_target": None})
    state.best.offer(ArchiveEntry("cand-0003", plan, 0.5, 1))
    picks = draw_picks(state)
    rewritten = rewrite_sentence(chat_with_script(rewrites), picks)
    return picks, apply_rewrite(picks.sentences, picks.sentence_index, rewritten)


class TestMutateOnce:
    def test_single_sentence_always_index_zero(self):
        picks, outcome = mutate("Nur ein Satz ohne Ende", 42, ["Ein anderer Satz ohne Ende"])
        assert picks.sentence_index == 0
        assert " ".join(outcome) == "Ein anderer Satz ohne Ende"
        assert picks.source.candidate_id == "cand-0003"

    def test_locality_on_three_sentences(self):
        plan = "Erster Satz hier. Zweiter Satz dort. Dritter Satz folgt."
        picks, outcome = mutate(plan, 42, ["Schreibe praezise Befunde."])
        original = segment_sentences(plan)
        assert len(outcome) == 3
        for i, (before, after) in enumerate(zip(original, outcome)):
            if i == picks.sentence_index:
                assert after == "Schreibe praezise Befunde."
            else:
                assert after == before

    def test_multi_sentence_rewrite_occupies_one_slot(self):
        plan = "Eins hier. Zwei dort."
        _, outcome = mutate(plan, 1, ["Neu. Und noch neuer."])
        assert len(outcome) == 2
        assert "Neu. Und noch neuer." in outcome

    def test_empty_rewrite_rejected(self):
        picks, _ = mutate("Satz eins. Satz zwei.", 1, ["Neu."])
        assert rewrite_sentence(chat_with_script(["   "]), picks) is None

    def test_empty_completion_is_no_rewrite(self):
        picks, _ = mutate("Satz eins. Satz zwei.", 1, ["Neu."])

        def empty(role, message):
            raise EmptyResponseError("empty completion for role mutator")

        assert rewrite_sentence(empty, picks) is None

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["Der Befund liegt vor.", "Alles bleibt stabil.", "Morgen folgt die Visite.",
                 "Die Werte sind gut!", "Was fehlt noch?"]
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_locality_fuzz(self, sentences, seed):
        plan = " ".join(sentences)
        base = segment_sentences(plan)
        picks, outcome = mutate(plan, seed, ["Ersatzsatz hier."])
        assert len(outcome) == len(base)
        differing = [
            i for i, (a, b) in enumerate(zip(base, outcome)) if a != b
        ]
        assert differing == [picks.sentence_index] or (
            base[picks.sentence_index] == "Ersatzsatz hier." and differing == []
        )
        for i in range(len(base)):
            if i != picks.sentence_index:
                assert outcome[i] == base[i]


def mutation_harness(tmp_path, archive_scores, mutant_scores, budget=1, mutator_scripts=None,
                     actor_scripts=None, samples=2, name="run"):
    """Engine parked in the mutation phase with a preloaded best archive."""
    scripts = {ModelRole.PROMPTING: scripted_plans(2)}
    if mutator_scripts is not None:
        scripts[ModelRole.MUTATOR] = mutator_scripts
    if actor_scripts is not None:
        scripts[ModelRole.ACTOR] = actor_scripts
    served = []
    for value in mutant_scores:
        served.extend([value] * samples)
    served.append(served[-1] if served else 0.0)
    h = make_harness(
        tmp_path,
        engine={
            "samples_per_round": samples,
            "best_capacity": len(archive_scores),
            "worst_capacity": 3,
            "max_rounds": 9,
            "mutation_budget": budget,
        },
        scripts=scripts,
        evaluator=FakeEvaluator(served or [0.0]),
        name=name,
    )
    h.engine.log.start(h.manifest())
    h.engine.log.emit("RunStarted", {"run_id": "t", "task_prompt": h.task, "seed": 42,
                                     "samples_per_round": samples, "max_rounds": 9,
                                     "best_capacity": len(archive_scores), "worst_capacity": 3,
                                     "mutation_budget": budget, "score_target": None,
                                     "mutation_trigger": "best-archive-full"})
    state = h.engine.state
    for arrival, score in enumerate(archive_scores, start=1):
        plan = f"Archivplan {arrival} Satz eins. Archivplan {arrival} Satz zwei."
        entry = ArchiveEntry(f"cand-{arrival:04d}", plan, score, arrival)
        state.best.offer(entry)
        # the regeneration event records the plan text replay resolves later
        h.engine.log.emit("PromptRegenerated", {
            "round": arrival - 1, "candidate_id": entry.candidate_id, "origin": "refined",
            "step_plan": plan, "for_round": arrival, "chat_calls": dict(h.engine.state.chat_calls),
        })
    state.arrival_counter = len(archive_scores)
    state.round = len(archive_scores)
    state.phase = "mutation"
    h.engine.log.emit("PhaseTransition", {"round": state.round, "from": "feedback_loop", "to": "mutation"})
    return h


class TestMutationPhase:
    def test_improving_mutant_replaces_minimum(self, tmp_path):
        h = mutation_harness(tmp_path, [0.70, 0.75, 0.80], [0.72])
        run_mutation_phase(h.engine)
        scores = sorted(e.score for e in h.engine.state.best.entries)
        assert scores == [0.72, 0.75, 0.80]
        assert h.engine.state.mutations_applied == 1
        applied = events_by_kind(h.events(), "MutationApplied")
        assert applied[0].payload["evicted_candidate_id"] == "cand-0001"

    def test_mutator_uses_its_role_params(self, tmp_path):
        h = mutation_harness(tmp_path, [0.70, 0.75, 0.80], [0.72])
        run_mutation_phase(h.engine)
        mutator_calls = [c for c in h.backend.calls if c.role is ModelRole.MUTATOR]
        assert mutator_calls
        for call in mutator_calls:
            assert (call.params.temperature, call.params.top_k, call.params.top_p) == (0.7, 20, 0.9)
            assert call.params.seed == 42

    def test_mutator_request_contains_plan_and_chosen_sentence(self, tmp_path):
        h = mutation_harness(tmp_path, [0.70, 0.75, 0.80], [0.72])
        run_mutation_phase(h.engine)
        call = next(c for c in h.backend.calls if c.role is ModelRole.MUTATOR)
        message = call.messages[-1][1]
        event = next(
            e for e in h.events() if e.kind in ("MutationApplied", "MutationRejected")
        )
        plan = message.split("Full prompt:\n", 1)[1].split("\n\nRewrite", 1)[0]
        sentence = message.rsplit("meaning:\n", 1)[1]
        assert segment_sentences(plan)[event.payload["sentence_index"]] == sentence

    def test_worse_mutant_leaves_archive_unchanged(self, tmp_path):
        h = mutation_harness(tmp_path, [0.70, 0.75, 0.80], [0.69])
        run_mutation_phase(h.engine)
        assert sorted(e.score for e in h.engine.state.best.entries) == [0.70, 0.75, 0.80]
        rejected = events_by_kind(h.events(), "MutationRejected")
        assert rejected[0].payload["reason"] == "below-archive-minimum"
        assert rejected[0].payload["score"] == 0.69

    def test_tie_with_minimum_is_rejected(self, tmp_path):
        h = mutation_harness(tmp_path, [0.70, 0.75, 0.80], [0.70])
        run_mutation_phase(h.engine)
        assert h.engine.state.mutations_applied == 0

    def test_zero_budget_only_finishes_phase(self, tmp_path):
        h = mutation_harness(tmp_path, [0.70, 0.75], [], budget=0)
        before = h.engine.state.clone()
        run_mutation_phase(h.engine)
        after = h.engine.state
        assert after.phase == "finished"
        assert [e.candidate_id for e in after.best.entries] == [
            e.candidate_id for e in before.best.entries
        ]
        assert after.mutation_step == 0
        assert events_by_kind(h.events(), "PhaseTransition")[-1].payload["to"] == "finished"

    def test_empty_rewrite_logs_rejection_and_continues(self, tmp_path):
        h = mutation_harness(
            tmp_path,
            [0.70, 0.75, 0.80],
            [0.72],
            budget=2,
            mutator_scripts=["   ", "Besserer Satz."],
        )
        run_mutation_phase(h.engine)
        rejected = events_by_kind(h.events(), "MutationRejected")
        assert rejected[0].payload["reason"] == "empty-rewrite"
        assert h.engine.state.mutations_applied == 1
        assert h.engine.state.mutations_rejected == 1

    def test_backend_failure_skips_step_without_aborting(self, tmp_path):
        h = mutation_harness(
            tmp_path,
            [0.70, 0.75, 0.80],
            [0.72],
            budget=2,
            mutator_scripts=[FAILURE_MARKER, "Besserer Satz."],
        )
        run_mutation_phase(h.engine)
        events = h.events()
        assert events_by_kind(events, "BackendFailure")
        reasons = [e.payload["reason"] for e in events_by_kind(events, "MutationRejected")]
        assert reasons == ["backend-failure"]
        assert h.engine.state.mutations_applied == 1
        assert h.engine.state.phase == "finished"

    def test_archive_floor_never_decreases_through_phase(self, tmp_path):
        h = mutation_harness(
            tmp_path, [0.70, 0.75, 0.80], [0.72, 0.71, 0.90, 0.10], budget=4
        )
        before, logged = h.engine.state.clone(), len(h.events())
        run_mutation_phase(h.engine)
        floors = fold_best_floors(before, h.events()[logged:])
        floors.append(h.engine.state.best.entries[-1].score)
        assert floors == sorted(floors)

    def test_rng_picks_reproducible_from_seed(self, tmp_path):
        runs = []
        for name in ("a", "b"):
            h = mutation_harness(
                tmp_path, [0.70, 0.75, 0.80], [0.72, 0.73, 0.74], budget=3, name=name,
            )
            run_mutation_phase(h.engine)
            picks = [
                (e.payload["archive_index"], e.payload["sentence_index"])
                for e in h.events()
                if e.kind in ("MutationApplied", "MutationRejected")
            ]
            runs.append(picks)
        assert runs[0] == runs[1]
        assert len(runs[0]) == 3

    def test_a_run_draws_each_steps_picks_once(self, tmp_path, monkeypatch):
        """Step 1's picks come with the rewrite sent ahead with the last
        round's plan request, so the demo's two steps segment a picked prompt
        once each."""
        segmented = []

        def counted(text):
            segmented.append(text)
            return segment_sentences(text)

        monkeypatch.setattr(mutation, "segment_sentences", counted)
        run_demo(tmp_path)
        assert len(segmented) == 2
