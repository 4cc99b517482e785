import json
import os

import pytest

from conftest import FIXED_CREATED_AT, events_by_kind, make_harness, scripted_plans
from promptloop.engine import Engine
from promptloop.errors import DigestMismatchError, LogError
from promptloop.gateway import FAILURE_MARKER
from promptloop.roles import ModelRole
from promptloop.runstore import (
    EventLog,
    RunEvent,
    build_manifest,
    emit_report,
    read_log,
    replay_log,
    summarize_log,
)


def manifest():
    return build_manifest("rid", "cfg", "corp", {"kind": "mock"}, created_at=FIXED_CREATED_AT)


def started_log(tmp_path, name="log.jsonl"):
    log = EventLog(os.path.join(tmp_path, name))
    log.start(manifest())
    return log


class TestAppendRules:
    def test_first_event_must_be_run_started(self, tmp_path):
        log = started_log(tmp_path)
        with pytest.raises(LogError):
            log.emit("RoundStarted", {})
        log.emit("RunStarted", {"task_prompt": "t"})

    def test_sequence_gap_rejected(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        with pytest.raises(LogError, match="sequence gap"):
            log.append(RunEvent(seq=3, ts=3, kind="RoundStarted", payload={}))

    def test_append_after_finished_rejected(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        log.emit("RunFinished", {})
        with pytest.raises(LogError):
            log.emit("RoundStarted", {})

    def test_logical_timestamp_must_match_seq(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        with pytest.raises(LogError):
            log.append(RunEvent(seq=2, ts=7, kind="RoundStarted", payload={}))

    def test_unknown_kind_rejected(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        with pytest.raises(LogError):
            log.emit("SomethingElse", {})

    def test_duplicate_run_started_rejected(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        with pytest.raises(LogError):
            log.emit("RunStarted", {})


class TestCanonicalSerialization:
    def test_serializing_twice_is_identical(self):
        event = RunEvent(seq=1, ts=1, kind="SampleScored", payload={"score": 0.1 + 0.2, "b": "ü"})
        assert event.to_line() == event.to_line()

    def test_golden_line(self):
        event = RunEvent(
            seq=2, ts=2, kind="ThresholdUpdated", payload={"round": 1, "previous": None, "value": 0.4}
        )
        assert event.to_line() == (
            '{"kind":"ThresholdUpdated","payload":{"previous":null,"round":1,"value":0.4},"seq":2,"ts":2}'
        )

    def test_floats_round_trip_through_lines(self):
        for value in (0.1, 1 / 3, 0.7000000000000001, 1.0, 5e-324):
            event = RunEvent(seq=1, ts=1, kind="SampleScored", payload={"score": value})
            back = RunEvent.from_line(event.to_line())
            assert back.payload["score"] == value

    def test_non_ascii_stays_readable(self):
        event = RunEvent(seq=1, ts=1, kind="RoundSummarized", payload={"text": "unverändert"})
        assert "unverändert" in event.to_line()


class TestReadLog:
    def test_roundtrip(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {"task_prompt": "t"})
        log.emit("RunFinished", {"best_candidate_id": None, "best_score": None,
                                 "best_step_plan": None, "rounds": 0,
                                 "mutations_applied": 0, "mutations_rejected": 0})
        log.close()
        man, events = read_log(log.path)
        assert man["run_id"] == "rid"
        assert [e.kind for e in events] == ["RunStarted", "RunFinished"]

    def test_trailing_partial_line_dropped(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        log.emit("RoundStarted", {"round": 1, "candidate_id": "c", "step_plan": "p", "origin": "initial"})
        log.close()
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "ts": 3, "kind": "Sam')  # torn write
        _, events = read_log(log.path)
        assert len(events) == 2

    def test_corrupt_middle_line_rejected(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        log.emit("RunFinished", {})
        log.close()
        lines = open(log.path).read().splitlines()
        lines[1] = "garbage"
        open(log.path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(LogError):
            read_log(log.path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(LogError):
            read_log(path)

    def test_missing_manifest_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 1, "ts": 1, "kind": "RunStarted", "payload": {}}\n')
        with pytest.raises(LogError):
            read_log(path)


def finished_run(tmp_path, name="run", max_rounds=5, budget=2, caps=(3, 3)):
    scripts = {
        ModelRole.PROMPTING: scripted_plans(max_rounds),
        ModelRole.ACTOR: [
            f"Ausgabe {i}: Der Patient ist stabil, Medikation bleibt."
            for i in range(2 * (max_rounds + budget))
        ],
        ModelRole.MUTATOR: [f"Neuer Satz {i}." for i in range(budget)],
    }
    h = make_harness(
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
    result = h.run()
    return h, result


def cut_after_round(log_path, round_no):
    """Index of the PromptRegenerated line closing the given round."""
    lines = open(log_path, encoding="utf-8").read().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        event = json.loads(line)
        if event["kind"] == "PromptRegenerated" and event["payload"]["round"] == round_no:
            return lines, i
    raise AssertionError(f"round {round_no} not found")


class TestResume:
    def test_finished_run_refuses_resume(self, tmp_path):
        h, _ = finished_run(tmp_path)
        fresh, _ = finished_run(tmp_path, name="fresh")
        with pytest.raises(LogError, match="finished"):
            Engine.resumed(
                fresh.backend, fresh.evaluator, fresh.config.engine,
                h.log_path, h.config_digest, h.corpus_digest,
            )

    def test_digest_mismatch_names_the_digest(self, tmp_path):
        h, _ = finished_run(tmp_path)
        fresh, _ = finished_run(tmp_path, name="fresh")
        with pytest.raises(DigestMismatchError, match="config digest"):
            Engine.resumed(
                fresh.backend, fresh.evaluator, fresh.config.engine,
                h.log_path, "deadbeef", h.corpus_digest,
            )
        with pytest.raises(DigestMismatchError, match="corpus digest"):
            Engine.resumed(
                fresh.backend, fresh.evaluator, fresh.config.engine,
                h.log_path, h.config_digest, "deadbeef",
            )

    def test_resume_completes_with_identical_tail(self, tmp_path):
        h, _ = finished_run(tmp_path, name="full", max_rounds=5, budget=2, caps=(6, 6))
        lines, cut = cut_after_round(h.log_path, 3)
        truncated = os.path.join(tmp_path, "truncated.jsonl")
        with open(truncated, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[: cut + 1]) + "\n")

        fresh, _ = finished_run(tmp_path, name="driver", max_rounds=5, budget=2, caps=(6, 6))
        # fresh backend with untouched scripts for the resumed process
        resumed = Engine.resumed(
            make_fresh_backend(tmp_path), fresh.evaluator, fresh.config.engine,
            truncated, h.config_digest, h.corpus_digest,
        )
        resumed.resume()
        resumed.log.close()
        assert open(truncated).read() == open(h.log_path).read()

    def test_mid_round_truncation_restores_pre_round_snapshot(self, tmp_path):
        h, _ = finished_run(tmp_path, name="full2", max_rounds=5, budget=0, caps=(6, 6))
        lines, cut = cut_after_round(h.log_path, 2)
        # keep two extra events: a partial round 3 (RoundStarted + one sample)
        partial = os.path.join(tmp_path, "partial.jsonl")
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[: cut + 3]) + "\n")
        replay = replay_log(partial, h.config.engine)
        assert replay.state.round == 2
        assert replay.state.current.id == "cand-0003"
        assert replay.committed_seq == json.loads(lines[cut])["seq"]

        fresh, _ = finished_run(tmp_path, name="driver2", max_rounds=5, budget=0, caps=(6, 6))
        resumed = Engine.resumed(
            make_fresh_backend(tmp_path), fresh.evaluator, fresh.config.engine,
            partial, h.config_digest, h.corpus_digest,
        )
        resumed.resume()
        resumed.log.close()
        assert open(partial).read() == open(h.log_path).read()

    def test_resume_after_failed_actor_batch_in_mutation(self, tmp_path):
        # actor sample 0 of the first mutation step fails; the batch still
        # consumes both scripted replies, so a resume from the step's
        # MutationRejected continues with the replies the live run used
        def harness(name):
            scripts = {
                ModelRole.PROMPTING: scripted_plans(5),
                ModelRole.ACTOR: [f"Ausgabe {i}: Der Patient ist stabil." for i in range(6)]
                + [FAILURE_MARKER]
                + [f"Ausgabe {i}: Die Medikation bleibt." for i in range(7, 12)],
                ModelRole.MUTATOR: [f"Neuer Satz {i}." for i in range(3)],
            }
            return make_harness(
                tmp_path,
                engine={"samples_per_round": 2, "best_capacity": 3, "worst_capacity": 3,
                        "max_rounds": 5, "mutation_budget": 3},
                scripts=scripts,
                name=name,
            )

        h = harness("full")
        h.run()
        events = h.events()
        failure = events_by_kind(events, "BackendFailure")
        assert [e.payload.get("step") for e in failure] == [1]
        rejected = events_by_kind(events, "MutationRejected")[0]
        assert rejected.payload["step"] == 1
        assert rejected.payload["reason"] == "backend-failure"

        with open(h.log_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        truncated = os.path.join(tmp_path, "cut.jsonl")
        with open(truncated, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[: rejected.seq + 1]) + "\n")
        fresh = harness("fresh")
        resumed = Engine.resumed(
            fresh.backend, fresh.evaluator, fresh.config.engine,
            truncated, h.config_digest, h.corpus_digest,
        )
        resumed.resume()
        resumed.log.close()
        with open(truncated, encoding="utf-8") as handle:
            assert handle.read().splitlines()[1:] == lines[1:]

    def test_replay_matches_live_final_state(self, tmp_path):
        h, result = finished_run(tmp_path, name="live")
        replay = replay_log(h.log_path, h.config.engine)
        live = h.engine.state
        assert replay.finished
        assert replay.state.round == live.round
        assert replay.state.threshold == live.threshold
        assert replay.state.best.snapshot() == live.best.snapshot()
        assert replay.state.worst.snapshot() == live.worst.snapshot()
        assert replay.state.mutation_step == live.mutation_step
        assert replay.state.mutations_applied == live.mutations_applied
        assert replay.state.rng_state == live.rng_state

    def test_tampered_score_detected(self, tmp_path):
        h, _ = finished_run(tmp_path, name="tamper")
        lines = open(h.log_path).read().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            event = json.loads(line)
            if event["kind"] == "ThresholdUpdated":
                event["payload"]["value"] += 0.01
                lines[i] = json.dumps(event, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
                break
        open(h.log_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(LogError):
            replay_log(h.log_path, h.config.engine)


def make_fresh_backend(tmp_path):
    """A mock with the same scripts finished_run uses, fully rewound."""
    from promptloop.gateway import BackendDescriptor, MockBackend

    scripts = {
        ModelRole.PROMPTING: scripted_plans(5),
        ModelRole.ACTOR: [
            f"Ausgabe {i}: Der Patient ist stabil, Medikation bleibt." for i in range(14)
        ],
        ModelRole.MUTATOR: [f"Neuer Satz {i}." for i in range(2)],
    }
    return MockBackend(BackendDescriptor(kind="mock"), scripts)


class TestReport:
    def test_round_means_listed_in_order(self, tmp_path):
        h, _ = finished_run(tmp_path, name="rep", max_rounds=3, budget=0, caps=(6, 6))
        summary = summarize_log(h.log_path)
        assert [row["round"] for row in summary["rounds"]] == [1, 2, 3]
        means_from_log = [
            e.payload["score"] for e in events_by_kind(h.events(), "ArchivesUpdated")
        ]
        assert [row["mean_score"] for row in summary["rounds"]] == means_from_log

    def test_json_report_round_trips_against_log(self, tmp_path):
        h, result = finished_run(tmp_path, name="rt")
        parsed = json.loads(emit_report(h.log_path, "json"))
        summary = summarize_log(h.log_path)
        assert parsed == json.loads(json.dumps(summary))
        assert parsed["best_score"] == result.best.score
        assert parsed["mutations_applied"] == result.mutations_applied
        assert parsed["finished"] is True

    def test_markdown_report_contains_trajectory_table(self, tmp_path):
        h, _ = finished_run(tmp_path, name="md", max_rounds=3, budget=0, caps=(6, 6))
        doc = emit_report(h.log_path, "markdown")
        assert "| round | mean score | threshold | best max |" in doc
        assert doc.count("\n| ") >= 4  # header separator + 3 rounds

    def test_empty_log_errors(self, tmp_path):
        log = started_log(tmp_path, name="noevents.jsonl")
        log.close()
        with pytest.raises(LogError):
            emit_report(log.path, "json")

    def test_unknown_format_rejected(self, tmp_path):
        h, _ = finished_run(tmp_path, name="fmt", max_rounds=2, budget=0)
        with pytest.raises(ValueError):
            emit_report(h.log_path, "xml")

    def test_threshold_trajectory_non_decreasing(self, tmp_path):
        h, _ = finished_run(tmp_path, name="thr")
        trajectory = summarize_log(h.log_path)["threshold_trajectory"]
        assert trajectory == sorted(trajectory)
