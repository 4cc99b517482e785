"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything runs offline on the scripted mock except the final live smoke
test, which is opt-in via ``-m live`` and an Ollama-compatible endpoint.
"""

import bisect
import json
import os
import random
import time

import numpy as np
import pytest

from conftest import events_by_kind, fold_best_floors, make_harness, scripted_plans
from oracle import corpus_score_ref, cosine_ref
from promptloop.demo import DEMO_CORPUS, run_demo
from promptloop.engine import Engine
from promptloop.mutation import segment_sentences
from promptloop.roles import ModelRole
from promptloop.runstore import read_log, summarize_log
from promptloop.scoring import cosine
from promptloop.state import ArchiveEntry, PromptArchive, PromptCandidate, SplitMix64, apply_rewrite


def ok(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


WORDS = [
    "Patient", "stabil.", "Entlassung", "morgen.", "Medikation", "Befund",
    "kardial", "unauffällig.", "Blutdruck", "gut.", "Visite", "heute.",
]


def random_text(rng, lo=2, hi=8):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def acceptance_scripts(max_rounds, samples, budget, rng):
    actor_needed = samples * (max_rounds + budget) + samples
    return {
        ModelRole.PROMPTING: scripted_plans(max_rounds + 1),
        ModelRole.ACTOR: [random_text(rng) for _ in range(actor_needed)],
        ModelRole.MUTATOR: [random_text(rng, 2, 4) for _ in range(budget + 1)],
    }


class TestCriterion1Determinism:
    def test_byte_identical_logs_under_five_seconds(self, tmp_path):
        started = time.monotonic()
        rng = random.Random(1)
        scripts = acceptance_scripts(5, 4, 5, rng)
        logs = []
        for name in ("first", "second"):
            h = make_harness(
                tmp_path,
                engine={
                    "samples_per_round": 4,
                    "best_capacity": 3,
                    "worst_capacity": 3,
                    "max_rounds": 5,
                    "mutation_budget": 5,
                    "seed": 42,
                },
                scripts={role: list(items) for role, items in scripts.items()},
                name=name,
            )
            from promptloop.config import run_id_for
            from promptloop.runstore import build_manifest

            manifest = build_manifest(
                run_id=run_id_for(h.config_digest, h.corpus_digest, h.task),
                config_digest=h.config_digest,
                corpus_digest=h.corpus_digest,
                backend={"kind": "mock", "model_name": h.config.backend.model_name},
            )  # real wall-clock in the manifest, as in production
            h.engine.run(manifest)
            h.engine.log.close()
            logs.append(open(h.log_path, encoding="utf-8").read().splitlines())
        elapsed = time.monotonic() - started
        # event lines are compared byte for byte; line 1 is the manifest,
        # which carries the wall clock and is compared modulo created_at
        assert logs[0][1:] == logs[1][1:]
        assert len(logs[0]) > 40
        man_a, man_b = (json.loads(lines[0]) for lines in logs)
        man_a.pop("created_at"), man_b.pop("created_at")
        assert man_a == man_b
        assert elapsed < 5.0, f"two runs took {elapsed:.2f}s"
        ok(1, "determinism")


class TestCriterion2CosineOracle:
    def test_thousand_pairs_and_property_suites(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            dim = int(rng.integers(2, 257))
            u = rng.normal(scale=rng.uniform(0.1, 100.0), size=dim)
            v = rng.normal(scale=rng.uniform(0.1, 100.0), size=dim)
            got = cosine(u, v)
            expected = cosine_ref(u.tolist(), v.tolist())
            assert abs(got - expected) <= 1e-9
        for _ in range(500):
            dim = int(rng.integers(2, 65))
            u = rng.normal(size=dim)
            v = rng.normal(size=dim)
            assert cosine(u, v) == cosine(v, u)
        for _ in range(500):
            dim = int(rng.integers(2, 65))
            u = rng.normal(size=dim)
            v = rng.normal(size=dim)
            a = float(rng.uniform(1e-3, 1e3))
            b = float(rng.uniform(1e-3, 1e3))
            assert abs(cosine(a * u, b * v) - cosine(u, v)) <= 1e-9
        ok(2, "cosine oracle")


class _IncrementalSelection:
    """Brute-force top-k/bottom-k maintained with a fully sorted arrival list."""

    def __init__(self):
        self.best_ranked = []
        self.worst_ranked = []

    def add(self, score, arrival, cid):
        bisect.insort(self.best_ranked, (-score, arrival, cid))
        bisect.insort(self.worst_ranked, (score, arrival, cid))

    def top_ids(self, k):
        return {cid for _, _, cid in self.best_ranked[:k]}

    def bottom_ids(self, k):
        return {cid for _, _, cid in self.worst_ranked[:k]}


class TestCriterion3ArchiveOracle:
    def test_thousand_fuzzed_streams(self):
        rng = random.Random(42)
        for _ in range(1000):
            length = rng.randint(0, 200)
            best_cap = rng.randint(1, 10)
            worst_cap = rng.randint(1, 10)
            best = PromptArchive(best_cap, keep="best")
            worst = PromptArchive(worst_cap, keep="worst")
            oracle = _IncrementalSelection()
            for arrival in range(1, length + 1):
                score = rng.randint(0, 25) / 25  # coarse grid provokes ties
                cid = f"c{arrival}"
                entry = ArchiveEntry(cid, "p", score, arrival)
                best.offer(entry)
                worst.offer(entry)
                oracle.add(score, arrival, cid)
                assert {e.candidate_id for e in best.entries} == oracle.top_ids(best_cap)
                assert {e.candidate_id for e in worst.entries} == oracle.bottom_ids(worst_cap)
        ok(3, "archive oracle")


def fuzz_run(tmp_path, rng, index):
    samples = rng.randint(1, 3)
    max_rounds = rng.randint(1, 20)
    best_cap = rng.randint(1, 4)
    worst_cap = rng.randint(1, 4)
    budget = rng.randint(0, 3)
    scripts = acceptance_scripts(max_rounds, samples, budget, rng)
    h = make_harness(
        tmp_path,
        engine={
            "samples_per_round": samples,
            "best_capacity": best_cap,
            "worst_capacity": worst_cap,
            "max_rounds": max_rounds,
            "mutation_budget": budget,
            "seed": rng.randint(0, 2**32),
        },
        scripts=scripts,
        name=f"fuzz{index}",
    )
    h.run()
    return h, samples


def check_round_invariants(events, samples_per_round):
    """Threshold monotone; round-1 ordering; routing partition and rule."""
    thresholds = [e.payload["value"] for e in events_by_kind(events, "ThresholdUpdated")]
    assert thresholds == sorted(thresholds), "threshold decreased"

    first_threshold = next(e for e in events if e.kind == "ThresholdUpdated")
    first_feedback = next(e for e in events if e.kind == "FeedbackIssued")
    assert first_threshold.seq < first_feedback.seq

    round1_scores = [
        e.payload["score"]
        for e in events_by_kind(events, "SampleScored")
        if e.payload["candidate_id"] == "cand-0001"
    ]
    assert abs(first_threshold.payload["value"] - sum(round1_scores) / len(round1_scores)) <= 1e-12

    scores = {
        (e.payload["candidate_id"], e.payload["sample_index"]): e.payload["score"]
        for e in events_by_kind(events, "SampleScored")
    }
    current_threshold = None
    feedback_per_round = {}
    for event in events:
        if event.kind == "ThresholdUpdated":
            current_threshold = event.payload["value"]
        elif event.kind == "FeedbackIssued":
            payload = event.payload
            feedback_per_round.setdefault(payload["round"], set()).add(payload["sample_index"])
            score = scores[(payload["candidate_id"], payload["sample_index"])]
            expected_route = "diagnostic" if score < current_threshold else "general"
            assert payload["route"] == expected_route
    rounds_started = {e.payload["round"] for e in events_by_kind(events, "RoundStarted")}
    finished_rounds = {e.payload["round"] for e in events_by_kind(events, "ArchivesUpdated")}
    for round_no in finished_rounds:
        assert feedback_per_round[round_no] == set(range(samples_per_round))
    assert finished_rounds <= rounds_started


class TestCriterion4And5FuzzedRuns:
    def test_two_hundred_fuzzed_runs(self, tmp_path):
        rng = random.Random(4242)
        for index in range(200):
            h, samples = fuzz_run(tmp_path, rng, index)
            check_round_invariants(h.events(), samples)
        ok(4, "threshold monotonicity and routing partition, 200 fuzzed runs")
        ok(5, "round-1 threshold precedes feedback and equals the round-1 mean")


class TestCriterion6MutationLocality:
    def test_five_hundred_fuzzed_mutations(self):
        rng = random.Random(7)
        for _ in range(500):
            sentence_pool = [random_text(rng, 2, 5) + "." for _ in range(rng.randint(1, 8))]
            plan = " ".join(sentence_pool)
            base = segment_sentences(plan)
            rewrite = random_text(rng, 2, 5) + "."
            candidate = PromptCandidate("cand-0001", plan, "refined")
            sentences = segment_sentences(candidate.step_plan)
            sentence_index = SplitMix64(rng.randint(0, 2**62)).below(len(sentences))
            outcome = apply_rewrite(sentences, sentence_index, rewrite)
            assert len(outcome) == len(base)
            for i in range(len(base)):
                if i == sentence_index:
                    assert outcome[i] == rewrite
                else:
                    assert outcome[i] == base[i]
        ok(6, "mutation locality, 500 fuzzed mutations")

    def test_archive_floor_monotone_through_fuzzed_phases(self, tmp_path):
        from promptloop.mutation import run_mutation_phase
        from conftest import FakeEvaluator

        rng = random.Random(99)
        for index in range(40):
            budget = rng.randint(1, 6)
            archive_scores = sorted(rng.randint(10, 30) / 40 for _ in range(3))
            mutant_scores = [rng.randint(0, 40) / 40 for _ in range(budget)]
            served = []
            for value in mutant_scores:
                served.extend([value, value])
            h = make_harness(
                tmp_path,
                engine={
                    "samples_per_round": 2,
                    "best_capacity": 3,
                    "worst_capacity": 3,
                    "max_rounds": 9,
                    "mutation_budget": budget,
                    "seed": rng.randint(0, 2**31),
                },
                scripts={ModelRole.PROMPTING: scripted_plans(2)},
                evaluator=FakeEvaluator(served + [0.0]),
                name=f"floor{index}",
            )
            h.engine.log.start(h.manifest())
            h.engine.log.emit("RunStarted", {"run_id": "t", "task_prompt": h.task, "seed": 1,
                                             "samples_per_round": 2, "max_rounds": 9,
                                             "best_capacity": 3, "worst_capacity": 3,
                                             "mutation_budget": budget, "score_target": None,
                                             "mutation_trigger": "best-archive-full"})
            for arrival, score in enumerate(archive_scores, start=1):
                plan = f"Archivsatz {arrival} eins. Archivsatz {arrival} zwei."
                h.engine.state.best.offer(ArchiveEntry(f"cand-{arrival:04d}", plan, score, arrival))
                h.engine.log.emit("PromptRegenerated", {
                    "round": arrival - 1, "candidate_id": f"cand-{arrival:04d}",
                    "origin": "refined", "step_plan": plan, "for_round": arrival,
                    "chat_calls": dict(h.engine.state.chat_calls),
                })
            h.engine.state.arrival_counter = 3
            h.engine.state.round = 3
            h.engine.state.phase = "mutation"
            h.engine.log.emit("PhaseTransition", {"round": 3, "from": "feedback_loop", "to": "mutation"})
            before, logged = h.engine.state.clone(), len(h.events())
            run_mutation_phase(h.engine)
            floors = fold_best_floors(before, h.events()[logged:])
            floors.append(h.engine.state.best.entries[-1].score)
            h.engine.log.close()
            assert floors == sorted(floors)


class TestCriterion7PlantedImprovement:
    def test_demo_trajectory_strictly_improves(self, tmp_path):
        log_path = run_demo(tmp_path)
        summary = summarize_log(log_path)
        best_max = [row["best_max"] for row in summary["rounds"]]
        means = [row["mean_score"] for row in summary["rounds"]]
        assert len(best_max) >= 3
        assert all(b > a for a, b in zip(best_max, best_max[1:]))
        assert summary["best_score"] > means[0] + 0.05
        # the trajectory is a property of the scripted texts; cross-check the
        # engine's round means against the independent embedding oracle
        _, events, _ = read_log(log_path)
        outputs = {}
        for event in events:
            if event.kind == "SampleGenerated":
                outputs[(event.payload["candidate_id"], event.payload["sample_index"])] = (
                    event.payload["text"]
                )
        for event in events:
            if event.kind == "SampleScored":
                text = outputs[(event.payload["candidate_id"], event.payload["sample_index"])]
                expected = corpus_score_ref(text, DEMO_CORPUS)
                assert abs(event.payload["score"] - expected) <= 1e-9
        ok(7, "planted improvement in the bundled demo")


class TestCriterion8ResumeEquivalence:
    def _full_run(self, tmp_path, name, budget=0, caps=(6, 6)):
        rng = random.Random(8)
        scripts = acceptance_scripts(5, 4, budget, rng)
        h = make_harness(
            tmp_path,
            engine={
                "samples_per_round": 4,
                "best_capacity": caps[0],
                "worst_capacity": caps[1],
                "max_rounds": 5,
                "mutation_budget": budget,
                "seed": 42,
            },
            scripts={role: list(items) for role, items in scripts.items()},
            name=name,
        )
        h.run()
        return h, scripts

    def _resume_from(self, tmp_path, h, scripts, keep_lines, name):
        from promptloop.gateway import MockBackend

        truncated = os.path.join(tmp_path, f"{name}.jsonl")
        with open(truncated, "w", encoding="utf-8") as handle:
            handle.write("\n".join(keep_lines) + "\n")
        backend = MockBackend(h.config.backend, {r: list(v) for r, v in scripts.items()})
        resumed = Engine.resumed(
            backend, h.evaluator_for, h.config.engine, truncated, h.config_digest, h.corpus_digest
        )
        resumed.resume()
        resumed.log.close()
        return truncated

    def test_truncate_after_round_three_and_resume(self, tmp_path):
        h, scripts = self._full_run(tmp_path, "full5")
        lines = open(h.log_path, encoding="utf-8").read().splitlines()
        cut = next(
            i for i, line in enumerate(lines[1:], start=1)
            if json.loads(line)["kind"] == "PromptRegenerated"
            and json.loads(line)["payload"]["round"] == 3
        )
        truncated = self._resume_from(tmp_path, h, scripts, lines[: cut + 1], "resumed5")
        assert open(truncated).read() == open(h.log_path).read()
        ok(8, "resume equivalence after truncation at round 3")

    def test_truncate_inside_mutation_phase_and_resume(self, tmp_path):
        h, scripts = self._full_run(tmp_path, "fullmut", budget=3, caps=(3, 3))
        lines = open(h.log_path, encoding="utf-8").read().splitlines()
        mutation_commits = [
            i for i, line in enumerate(lines[1:], start=1)
            if json.loads(line)["kind"] in ("MutationApplied", "MutationRejected")
        ]
        assert mutation_commits, "scenario must reach the mutation phase"
        cut = mutation_commits[0]
        truncated = self._resume_from(tmp_path, h, scripts, lines[: cut + 1], "resumedmut")
        assert open(truncated).read() == open(h.log_path).read()


class TestCriterion9GoldenDefaultConfig:
    GOLDEN_ENGINE = {
        "samples_per_round": 4,
        "best_capacity": 5,
        "worst_capacity": 5,
        "max_rounds": 20,
        "score_target": None,
        "mutation_trigger": "best-archive-full",
        "mutation_budget": 10,
        "seed": 42,
        "role_params": {
            "prompting": {"temperature": 0.5, "top_k": 40, "top_p": 0.85, "seed": 42},
            "actor": {"temperature": 0.8, "top_k": 50, "top_p": 0.9, "seed": 42},
            "diagnostic_feedback": {"temperature": 0.3, "top_k": 5, "top_p": 0.5, "seed": 42},
            "general_feedback": {"temperature": 0.3, "top_k": 5, "top_p": 0.5, "seed": 42},
            "summarizer": {"temperature": 0.2, "top_k": 5, "top_p": 0.5, "seed": 42},
            "mutator": {"temperature": 0.7, "top_k": 20, "top_p": 0.9, "seed": 42},
        },
    }

    def test_empty_engine_section_resolves_to_golden_defaults(self):
        from promptloop.config import normalize_config, resolve_config

        config = resolve_config(
            {"version": 1, "backend": {"kind": "mock"}, "engine": {}, "corpus_path": "c.jsonl"},
            env={},
        )
        normalized = normalize_config(config)
        assert normalized["engine"] == self.GOLDEN_ENGINE
        assert normalized["backend"]["model_name"] == "llama3.1"
        assert normalized["backend"]["embedding_model_name"] == "jina-embeddings-v2-base-de"
        ok(9, "default config resolves to the documented sampling parameters")


@pytest.mark.live
class TestCriterion10LiveSmoke:
    def test_one_round_against_live_endpoint(self, tmp_path):
        from promptloop.config import resolve_config
        from promptloop.errors import BackendUnavailableError
        from promptloop.pipeline import run_optimization

        base_url = os.environ.get("PROMPTLOOP_BASE_URL", "http://localhost:11434")
        config = resolve_config(
            {
                "version": 1,
                "backend": {"kind": "http", "base_url": base_url, "timeout": 180.0},
                "engine": {"samples_per_round": 1, "max_rounds": 1, "mutation_budget": 0},
                "corpus_path": "unused",
                "output_dir": str(tmp_path),
            },
            env={},
        )
        try:
            log_path = run_optimization(config, "Schreibe einen Arztbrief.", corpus_texts=DEMO_CORPUS)
        except BackendUnavailableError as exc:
            pytest.skip(f"no live endpoint at {base_url}: {exc}")
        _, events, _ = read_log(log_path)
        kinds = [e.kind for e in events]
        for kind in ("RunStarted", "RoundStarted", "SampleGenerated", "SampleScored",
                     "ThresholdUpdated", "FeedbackIssued", "RoundSummarized",
                     "ArchivesUpdated", "PromptRegenerated", "RunFinished"):
            assert kind in kinds
        finished = events[kinds.index("RunFinished")].payload
        assert finished["rounds"] == 1
        assert -1.0 <= finished["best_score"] <= 1.0
        ok(10, "live backend smoke test")
