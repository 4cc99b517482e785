import base64
import builtins
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    FIXED_CREATED_AT,
    FakeEvaluator,
    OneShotFault,
    events_by_kind,
    make_harness,
    mock_requests,
    scripted_plans,
)
from promptloop import pipeline
from promptloop.config import config_digest, corpus_digest, resolve_config, run_id_for
from promptloop.demo import DEMO_CONFIG_DOC, DEMO_CORPUS, DEMO_TASK_PROMPT, run_demo
from promptloop.engine import Engine
from promptloop.errors import (
    BackendUnavailableError,
    DigestMismatchError,
    ConfigError,
    LogError,
    ProtocolError,
    RunAbortedError,
)
from promptloop.gateway import FAILURE_MARKER, MockBackend
from promptloop.pipeline import resume_optimization
from promptloop.roles import ModelRole
from promptloop.runstore import (
    EventLog,
    RunEvent,
    _parse_event,
    build_manifest,
    canonical_json,
    check_next,
    decode_centroid,
    emit_report,
    encode_centroid,
    read_log,
    replay_log,
    summarize_log,
)
from promptloop.scoring import CorpusEvaluator, EmbeddingCache, embed_corpus


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
        started = log.emit("RunStarted", {})
        with pytest.raises(LogError, match="sequence gap"):
            check_next(started, RunEvent(seq=3, ts=3, kind="RoundStarted", payload={}))

    def test_append_after_finished_rejected(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        log.emit("RunFinished", {})
        with pytest.raises(LogError):
            log.emit("RoundStarted", {})

    def test_logical_timestamp_must_match_seq(self, tmp_path):
        log = started_log(tmp_path)
        started = log.emit("RunStarted", {})
        with pytest.raises(LogError):
            check_next(started, RunEvent(seq=2, ts=7, kind="RoundStarted", payload={}))

    @pytest.mark.parametrize("kind", ["SomethingElse", 'RunFinished","x":"', "Sample\"Generated"])
    def test_unknown_kind_rejected(self, tmp_path, kind):
        """``to_line`` writes the kind verbatim, so only a kind of the
        payload table may reach it: one holding a quote is refused, and no
        byte of it is written."""
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        before = Path(log.path).read_bytes()
        with pytest.raises(LogError, match="unknown event kind"):
            log.emit(kind, {})
        assert Path(log.path).read_bytes() == before

    def test_duplicate_run_started_rejected(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        with pytest.raises(LogError):
            log.emit("RunStarted", {})

    def test_a_partial_write_is_completed(self, tmp_path):
        """The OS may take fewer bytes than it is given: emit writes the
        rest, here through a handle that takes 7 bytes a call."""
        log = started_log(tmp_path)
        handle = log._handle

        class Trickle:
            def write(self, data):
                return handle.write(data[:7])

        log._handle = Trickle()
        log.emit("RunStarted", {"task_prompt": "Zustand ü" * 5})
        log._handle = handle
        log.close()
        assert read_log(log.path)[1][0].payload == {"task_prompt": "Zustand ü" * 5}

    def test_one_write_per_event(self, tmp_path):
        """When the OS takes the whole line, each emit is one write call
        with that line, and nothing else is called on the handle."""
        log = started_log(tmp_path)
        handle = log._handle
        calls = []

        class Recorder:
            def write(self, data):
                calls.append(("write", bytes(data)))
                return handle.write(data)

        log._handle = Recorder()
        log.emit("RunStarted", {"task_prompt": "Zustand ü"})
        log.emit("SampleGenerated", {"text": "Der Patient ist stabil."})
        log._handle = handle
        log.close()
        lines = Path(log.path).read_bytes().split(b"\n")[1:-1]
        assert calls == [("write", line + b"\n") for line in lines]


class TestStart:
    def test_unfinished_log_is_kept(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {"task_prompt": "t"})
        log.close()
        before = Path(log.path).read_bytes()
        with pytest.raises(LogError, match="--resume"):
            EventLog(log.path).start(manifest())
        assert Path(log.path).read_bytes() == before

    def test_log_with_a_partial_last_line_is_kept(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {"task_prompt": "t"})
        log.close()
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"RunFinished","payload":{')
        with pytest.raises(LogError, match="unfinished"):
            EventLog(log.path).start(manifest())

    @pytest.mark.parametrize("tail", [b"\n", b"", b'\n{"kind":"RunStarted","payload":{"se'],
                             ids=["manifest only", "torn manifest", "torn RunStarted"])
    def test_log_without_a_run_started_is_replaced(self, tmp_path, tail):
        """A crash before RunStarted was written leaves no backend output,
        so there is nothing to resume: a fresh start replaces the log."""
        path = tmp_path / "log.jsonl"
        line = canonical_json(manifest()).encode("utf-8")
        path.write_bytes(line if tail else line[: len(line) // 2])
        with open(path, "ab") as handle:
            handle.write(tail)
        log = EventLog(path)
        log.start(manifest())
        log.emit("RunStarted", {"task_prompt": "t"})
        log.close()
        started = RunEvent(1, 1, "RunStarted", {"task_prompt": "t"}).to_line().encode("utf-8")
        assert path.read_bytes() == line + b"\n" + started + b"\n"

    def test_unterminated_run_started_is_kept(self, tmp_path):
        """A RunStarted line that lacks only its newline is an event a
        resume continues from."""
        log = started_log(tmp_path)
        log.emit("RunStarted", {"task_prompt": "t"})
        log.close()
        path = Path(log.path)
        path.write_bytes(path.read_bytes()[:-1])
        before = path.read_bytes()
        with pytest.raises(LogError, match="unfinished"):
            EventLog(log.path).start(manifest())
        assert path.read_bytes() == before

    def test_finished_log_is_replaced(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {"task_prompt": "t"})
        log.emit("RunFinished", {"plan": "x" * 100_000})  # a last line longer than one read
        log.close()
        again = EventLog(log.path)
        again.start(manifest())
        again.close()
        assert Path(log.path).read_bytes().count(b"\n") == 1


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


def dumps_canonical(value):
    return json.dumps(value, sort_keys=True, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


#: JSON values: nested objects and arrays of strings (``st.text()`` draws
#: control characters in about 40% of them and non-ASCII in about 90%), ints
#: far past 64 bits, and floats with their edge cases.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e308])
    | st.text(),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=10,
)


class TestCanonicalJsonIsJsonDumps:
    @given(json_values)
    def test_same_text(self, value):
        assert canonical_json(value) == dumps_canonical(value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), {"a": [1, float("nan")]}])
    def test_non_finite_float_is_a_value_error(self, value):
        for encode in (canonical_json, dumps_canonical):
            with pytest.raises(ValueError):
                encode(value)

    @pytest.mark.parametrize("value", [object(), {"a": {1, 2}}, [b"bytes"]])
    def test_unsupported_object_is_a_type_error(self, value):
        for encode in (canonical_json, dumps_canonical):
            with pytest.raises(TypeError):
                encode(value)

    def test_two_threads_encode_one_dict(self):
        """The one encoder keeps no state between calls: two threads
        encoding one shared dict at once both get its text. Its keys compare
        in Python code, so a thread may switch while the encoder sorts them."""

        class Key(str):
            def __lt__(self, other):
                return str.__lt__(self, other)

        shared = {Key(f"key {i}"): [i, "ü", {"nested": i / 7}] for i in range(20_000)}
        expected = dumps_canonical(shared)
        start = threading.Barrier(2)
        results, errors = [], []

        def encode():
            start.wait()
            for _ in range(3):
                try:
                    results.append(canonical_json(shared))
                except ValueError as exc:  # "Circular reference detected"
                    errors.append(exc)

        threads = [threading.Thread(target=encode) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert results == [expected] * 6


class TestReadLog:
    def test_roundtrip(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {"task_prompt": "t"})
        log.emit("RunFinished", {"best_candidate_id": None, "best_score": None,
                                 "best_step_plan": None, "rounds": 0,
                                 "mutations_applied": 0, "mutations_rejected": 0})
        log.close()
        man, events, _ = read_log(log.path)
        assert man["run_id"] == "rid"
        assert [e.kind for e in events] == ["RunStarted", "RunFinished"]

    def test_trailing_partial_line_dropped(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        log.emit("RoundStarted", {"round": 1, "candidate_id": "c", "step_plan": "p", "origin": "initial"})
        log.close()
        with open(log.path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "ts": 3, "kind": "Sam')  # torn write
        _, events, _ = read_log(log.path)
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

    def test_timestamp_other_than_seq_rejected(self, tmp_path):
        log = started_log(tmp_path)
        log.emit("RunStarted", {})
        log.emit("RoundStarted", {})
        log.emit("RunFinished", {})
        log.close()
        lines = open(log.path).read().splitlines()
        event = json.loads(lines[2])
        event["ts"] = 7
        lines[2] = json.dumps(event)
        open(log.path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(LogError, match="ts 7"):
            read_log(log.path)

    @pytest.mark.parametrize("seq, ts", [(True, True), (1, True)])
    def test_boolean_seq_or_ts_rejected(self, tmp_path, seq, ts):
        path = run_demo(tmp_path / "demo")
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        event = json.loads(lines[1])
        event["seq"], event["ts"] = seq, ts
        lines[1] = json.dumps(event, ensure_ascii=False)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    state = h.run()
    return h, state


def cut_after_round(log_path, round_no):
    """Index of the PromptRegenerated line closing the given round."""
    lines = open(log_path, encoding="utf-8").read().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        event = json.loads(line)
        if event["kind"] == "PromptRegenerated" and event["payload"]["round"] == round_no:
            return lines, i
    raise AssertionError(f"round {round_no} not found")


def _kind(kind):
    return lambda event: event["kind"] == kind


def _bump(key, by=0.01):
    return lambda payload: payload.update({key: payload[key] + by})


def _edit_first(picked, change):
    """Change the payload of the first event ``picked`` selects."""
    def edit(events):
        change(next(e for e in events if picked(e))["payload"])
        return events
    return edit


def _edit_and_cut(picked, change):
    """Change the payload of the first event ``picked`` selects and drop
    the events after it, so no later event can give the edit away."""
    def edit(events):
        index = next(i for i, e in enumerate(events) if picked(e))
        change(events[index]["payload"])
        return events[: index + 1]
    return edit


def _rejected_mutant_scores(value):
    """Give the rejected mutant's samples and mean a score of ``value``."""
    def edit(events):
        for event in events:
            if event["kind"] in ("SampleScored", "MutationRejected") and (
                event["payload"].get("candidate_id") == "mut-0002"
            ):
                event["payload"]["score"] = value
        return events
    return edit


def _scored_rejection(event):
    return event["kind"] == "MutationRejected" and "score" in event["payload"]


def _round_two_sample(event):
    return event["kind"] == "SampleGenerated" and event["payload"]["candidate_id"] == "cand-0002"


def _failure(payload):
    return {"kind": "BackendFailure", "payload": {**payload, "message": "status 500"}}


def _failure_before(picked, payload, cut=False):
    """Insert a BackendFailure of ``payload`` before the first event
    ``picked`` selects; with ``cut``, drop that event and the ones after."""
    def edit(events):
        index = next(i for i, e in enumerate(events) if picked(e))
        return events[:index] + [_failure(payload)] + ([] if cut else events[index:])
    return edit


def _step_one_failing(*payloads):
    """Mutation step 1 closed as a backend-failure rejection with its picks,
    after a BackendFailure of each of ``payloads``; the log ends there."""
    def edit(events):
        start = next(i for i, e in enumerate(events) if e["kind"] == "PhaseTransition")
        applied = next(e for e in events if e["kind"] == "MutationApplied")["payload"]
        picks = {key: applied[key] for key in
                 ("step", "source_candidate_id", "archive_index", "sentence_index", "chat_calls")}
        rejected = {"kind": "MutationRejected", "payload": {**picks, "reason": "backend-failure"}}
        return events[: start + 1] + [_failure(payload) for payload in payloads] + [rejected]
    return edit


def _regenerated(round_no):
    return lambda event: event["kind"] == "PromptRegenerated" and event["payload"]["round"] == round_no


def _forged_transition(events):
    """The log cut after round 1's commit, with a PhaseTransition to the
    mutation phase appended: the best archive holds 1 of 3 prompts and 4 of
    5 rounds are left, so no transition is due."""
    at = next(i for i, e in enumerate(events) if _regenerated(1)(e))
    transition = {"kind": "PhaseTransition", "payload": {"from": "feedback_loop", "round": 1, "to": "mutation"}}
    return events[: at + 1] + [transition]


def _first(events, kind):
    """The index of the first event of ``kind``."""
    return next(i for i, e in enumerate(events) if e["kind"] == kind)


def _round_started_in_mutation(events):
    """Round 1's RoundStarted copied after the PhaseTransition to mutation."""
    at = next(i for i, e in enumerate(events) if e["kind"] == "PhaseTransition" and e["payload"]["to"] == "mutation")
    return events[: at + 1] + [dict(events[_first(events, "RoundStarted")])] + events[at + 1 :]


def _duplicated_last_feedback(events):
    """Round 1's last FeedbackIssued logged twice."""
    at = _first(events, "RoundSummarized")
    return events[:at] + [dict(events[at - 1])] + events[at:]


def _repeated_sample_text(events):
    """Round 1's SampleGenerated 0 logged twice in a row and its
    SampleGenerated 1 dropped, so each sample index is scored once."""
    first = _first(events, "SampleGenerated")
    second = first + 1 + _first(events[first + 1 :], "SampleGenerated")
    return events[: first + 1] + [dict(events[first])] + events[first + 1 : second] + events[second + 1 :]


def _duplicated_sample_pair(events):
    """Round 1 logs a third sample, a copy of its second (same score, so the
    same mean), numbered as the next one."""
    at = next(i for i, e in enumerate(events) if e["kind"] == "ThresholdUpdated")
    pair = json.loads(json.dumps(events[at - 2 : at]))
    for event in pair:
        event["payload"]["sample_index"] = 2
    return events[:at] + pair + events[at:]


#: Edits that keep the BackendFailure events of a log where the engine could
#: have written them; the log replays.
FAILURES_IN_PLACE = {
    "round-two": _failure_before(_round_two_sample, {"phase": "feedback_loop", "round": 2}, cut=True),
    "step-one": _step_one_failing({"phase": "mutation", "step": 1}),
}


#: name -> an edit of a finished log's events; the test renumbers them after
TAMPERS = {
    "threshold-value": _edit_first(_kind("ThresholdUpdated"), _bump("value")),
    "archived-score": _edit_first(_kind("ArchivesUpdated"), _bump("score")),
    "archived-candidate-id": _edit_first(
        _kind("ArchivesUpdated"), lambda p: p.update(candidate_id="cand-0002")
    ),
    "archived-round": _edit_first(_kind("ArchivesUpdated"), _bump("round", 1)),
    "phase-target-bogus": _edit_first(_kind("PhaseTransition"), lambda p: p.update(to="bogus")),
    "mutant-id": _edit_first(_kind("MutationApplied"), lambda p: p.update(candidate_id="mut-0002")),
    "evicted-id": _edit_first(
        _kind("MutationApplied"), lambda p: p.update(evicted_candidate_id="cand-0001")
    ),
    "rejected-mutant-the-archive-takes": _rejected_mutant_scores(0.9),
    "round-started-round": _edit_first(_kind("RoundStarted"), _bump("round", 1)),
    "round-started-origin": _edit_first(_kind("RoundStarted"), lambda p: p.update(origin="refined")),
    "threshold-previous": _edit_first(_kind("ThresholdUpdated"), lambda p: p.update(previous=0.5)),
    "threshold-round": _edit_first(_kind("ThresholdUpdated"), _bump("round", 1)),
    "regenerated-round": _edit_and_cut(
        lambda e: e["kind"] == "PromptRegenerated" and e["payload"]["round"] == 1,
        lambda p: p.update(round=3),
    ),
    "regenerated-candidate-id": _edit_and_cut(
        _kind("PromptRegenerated"), lambda p: p.update(candidate_id="cand-0002")
    ),
    "regenerated-for-round": _edit_first(_kind("PromptRegenerated"), _bump("for_round", 1)),
    "regenerated-origin": _edit_first(_kind("PromptRegenerated"), lambda p: p.update(origin="refined")),
    "applied-original-sentence": _edit_first(
        _kind("MutationApplied"), lambda p: p.update(original_sentence="Ein anderer Satz.")
    ),
    "applied-rewritten-sentence": _edit_first(
        _kind("MutationApplied"), lambda p: p.update(rewritten_sentence="Ein anderer Satz.")
    ),
    "applied-step-plan": _edit_first(
        _kind("MutationApplied"), lambda p: p.update(step_plan="Plan 9: Schritt eins.")
    ),
    **{
        f"finished-{key}": _edit_first(_kind("RunFinished"), change)
        for key, change in {
            "best-candidate-id": lambda p: p.update(best_candidate_id="cand-0002"),
            "best-score": _bump("best_score"),
            "best-step-plan": lambda p: p.update(best_step_plan="Plan 9: Schritt eins."),
            "rounds": _bump("rounds", 1),
            "mutations-applied": _bump("mutations_applied", 1),
            "mutations-rejected": _bump("mutations_rejected", 1),
        }.items()
    },
    "rejected-sentence-index": _edit_first(_kind("MutationRejected"), _bump("sentence_index", 1)),
    "rejected-mutant-id": _edit_first(_scored_rejection, lambda p: p.update(candidate_id="mut-0001")),
    "rejected-reason": _edit_first(_scored_rejection, lambda p: p.update(reason="bogus")),
    "rejected-unscored": _edit_first(
        _scored_rejection, lambda p: [p.pop(key) for key in ("score", "candidate_id")]
    ),
    "chat-calls-negative": _edit_and_cut(
        lambda e: e["kind"] == "PromptRegenerated" and e["payload"]["round"] == 2,
        lambda p: p["chat_calls"].update(actor=-2),
    ),
    "chat-calls-missing": _edit_and_cut(
        lambda e: e["kind"] == "PromptRegenerated" and e["payload"]["round"] == 2,
        lambda p: p.pop("chat_calls"),
    ),
    "chat-calls-missing-role": _edit_and_cut(
        _kind("PromptRegenerated"), lambda p: p["chat_calls"].pop("actor")
    ),
    "chat-calls-unknown-role": _edit_first(
        _kind("MutationApplied"), lambda p: p["chat_calls"].update(critic=1)
    ),
    "applied-score": _edit_first(_kind("MutationApplied"), _bump("score")),
    "sample-in-round-keeping-threshold": _edit_first(
        lambda e: e["kind"] == "SampleScored" and e["payload"]["candidate_id"] == "cand-0002",
        lambda p: p.update(score=0.9),
    ),
    "dropped-mutation-transition": lambda events: [
        e for e in events
        if not (e["kind"] == "PhaseTransition" and e["payload"]["to"] == "mutation")
    ],
    **{
        f"sample-score-{name}": _edit_first(_kind("SampleScored"), lambda p, v=value: p.update(score=v))
        for name, value in {
            "string": "0.5x",
            "null": None,
            "list": [1],
            "bool": True,
            "nan": float("nan"),
            "infinity": float("inf"),
            "minus-infinity": float("-inf"),
            "int-beyond-float-range": 10**400,
        }.items()
    },
    "sample-score-missing": _edit_first(_kind("SampleScored"), lambda p: p.pop("score")),
    "run-started-task-prompt-empty": _edit_first(_kind("RunStarted"), lambda p: p.update(task_prompt="")),
    "payload-not-object": lambda events: [
        {**e, "payload": []} if e["kind"] == "SampleScored" else e for e in events
    ],
    # A step's samples are logged only once the whole batch is scored, so no
    # backend call of a step whose samples are logged failed.
    "failure-after-scored-samples": _failure_before(_scored_rejection, {"phase": "mutation", "step": 2}),
    "failure-in-the-wrong-phase": _failure_before(_scored_rejection, {"phase": "feedback_loop", "step": 7}),
    "failure-round-off-by-one": _failure_before(_round_two_sample, {"phase": "feedback_loop", "round": 3}, cut=True),
    "failure-step-off-by-one": _step_one_failing({"phase": "mutation", "step": 2}),
    "failure-phase-missing": _step_one_failing({"step": 1}),
    "failure-then-the-round-goes-on": _failure_before(_round_two_sample, {"phase": "feedback_loop", "round": 2}),
    "failure-twice-in-a-step": _step_one_failing({"phase": "mutation", "step": 1}, {"phase": "mutation", "step": 1}),
    # Ids, indices and routes of the events between commits, a chat count
    # other than the one the round's events call for, and a round with a
    # sample too many.
    "chat-calls-actor-plus-one": _edit_first(
        _regenerated(2), lambda p: p["chat_calls"].update(actor=p["chat_calls"]["actor"] + 1)
    ),
    "sample-generated-index": _edit_first(_kind("SampleGenerated"), _bump("sample_index", 1)),
    "sample-scored-candidate-id": _edit_first(_kind("SampleScored"), lambda p: p.update(candidate_id="cand-0002")),
    "summarized-round": _edit_first(_kind("RoundSummarized"), _bump("round", 1)),
    "feedback-route-flipped": _edit_first(_kind("FeedbackIssued"), lambda p: p.update(route="diagnostic")),
    "duplicated-sample-pair": _duplicated_sample_pair,
    # Phase transitions that are not the due one; and RunStarted's limits
    # lowered, so that round 3's RoundStarted comes past max_rounds and step
    # 2 past the mutation budget.
    "phase-transition-round": _edit_first(_kind("PhaseTransition"), lambda p: p.update(round=99)),
    "forged-early-transition": _forged_transition,
    "round-started-past-max-rounds": _edit_first(_kind("RunStarted"), lambda p: p.update(max_rounds=2)),
    "step-past-budget": _edit_first(_kind("RunStarted"), lambda p: p.update(mutation_budget=1)),
    # The derived value, as a JSON value of another type that compares equal.
    "rejected-archive-index-false": _edit_first(_kind("MutationRejected"), lambda p: p.update(archive_index=False)),
    "rejected-sentence-index-float": _edit_first(_kind("MutationRejected"), lambda p: p.update(sentence_index=0.0)),
    "failure-round-true": _failure_before(_kind("SampleGenerated"), {"phase": "feedback_loop", "round": True}, cut=True),
    # An archive that holds nothing, events out of their phase or order, a
    # feedback past the round's samples, and samples whose texts are not
    # logged one to a score.
    "run-started-capacity-zero": _edit_first(_kind("RunStarted"), lambda p: p.update(best_capacity=0)),
    "round-started-in-mutation": _round_started_in_mutation,
    "round-started-before-plan": lambda events: events[:1] + [dict(events[_first(events, "RoundStarted")])],
    "feedback-issued-past-samples": _duplicated_last_feedback,
    "sample-texts-dropped": lambda events: [e for e in events if e["kind"] != "SampleGenerated"],
    "sample-generated-repeated": _repeated_sample_text,
}


class TestResume:
    def test_finished_run_refuses_resume(self, tmp_path):
        h, _ = finished_run(tmp_path)
        fresh, _ = finished_run(tmp_path, name="fresh")
        with pytest.raises(LogError, match="finished"):
            Engine.resumed(
                fresh.backend, fresh.evaluator_for, fresh.config.engine,
                h.log_path, h.config_digest, h.corpus_digest,
            )

    def test_digest_mismatch_names_the_digest(self, tmp_path):
        h, _ = finished_run(tmp_path)
        fresh, _ = finished_run(tmp_path, name="fresh")
        with pytest.raises(DigestMismatchError, match="config digest"):
            Engine.resumed(
                fresh.backend, fresh.evaluator_for, fresh.config.engine,
                h.log_path, "deadbeef", h.corpus_digest,
            )
        with pytest.raises(DigestMismatchError, match="corpus digest"):
            Engine.resumed(
                fresh.backend, fresh.evaluator_for, fresh.config.engine,
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
            make_fresh_backend(tmp_path), fresh.evaluator_for, fresh.config.engine,
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
        replay = replay_log(partial)
        assert replay.state.round == 2
        assert replay.state.current.id == "cand-0003"
        assert replay.committed.seq == json.loads(lines[cut])["seq"]

        fresh, _ = finished_run(tmp_path, name="driver2", max_rounds=5, budget=0, caps=(6, 6))
        resumed = Engine.resumed(
            make_fresh_backend(tmp_path), fresh.evaluator_for, fresh.config.engine,
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
            fresh.backend, fresh.evaluator_for, fresh.config.engine,
            truncated, h.config_digest, h.corpus_digest,
        )
        resumed.resume()
        resumed.log.close()
        with open(truncated, encoding="utf-8") as handle:
            assert handle.read().splitlines()[1:] == lines[1:]

    def test_replay_matches_live_final_state(self, tmp_path):
        h, _ = finished_run(tmp_path, name="live")
        replay = replay_log(h.log_path)
        live = h.engine.state
        assert replay.finished
        assert replay.state.round == live.round
        assert replay.state.threshold == live.threshold
        assert replay.state.best.entries == live.best.entries
        assert replay.state.worst.entries == live.worst.entries
        assert replay.state.mutation_step == live.mutation_step
        assert replay.state.mutations_applied == live.mutations_applied
        assert replay.state.rng.state == live.rng.state

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_tampered_score_detected(self, tmp_path, tamper):
        h = make_harness(
            tmp_path,
            engine={"samples_per_round": 2, "best_capacity": 3, "worst_capacity": 3,
                    "max_rounds": 5, "mutation_budget": 2},
            scripts={ModelRole.PROMPTING: scripted_plans(5)},
            # rounds 0.6, 0.2, 0.3 (only round 1 sets the threshold), then a
            # mutant that enters the archive and one that does not
            evaluator=FakeEvaluator([0.6, 0.6, 0.2, 0.2, 0.3, 0.3, 0.5, 0.5, 0.1, 0.1]),
            name="tamper",
        )
        h.run()
        replay_log(h.log_path)
        lines = open(h.log_path).read().splitlines()
        events = TAMPERS[tamper]([json.loads(line) for line in lines[1:]])
        for seq, event in enumerate(events, start=1):
            event["seq"] = event["ts"] = seq
        body = [json.dumps(e, sort_keys=True, ensure_ascii=False, separators=(",", ":")) for e in events]
        open(h.log_path, "w").write("\n".join([lines[0]] + body) + "\n")
        with pytest.raises(LogError):
            replay_log(h.log_path)


    def _rewritten(self, tmp_path, edit, max_rounds=5,
                   scores=(0.2, 0.2, 0.6, 0.6, 0.3, 0.3, 0.5, 0.5, 0.1, 0.1)):
        """A finished run whose event lines ``edit`` rewrites, renumbered."""
        h = make_harness(
            tmp_path,
            engine={"samples_per_round": 2, "best_capacity": 3, "worst_capacity": 3,
                    "max_rounds": max_rounds, "mutation_budget": 2},
            scripts={ModelRole.PROMPTING: scripted_plans(5)},
            evaluator=FakeEvaluator(scores),
            name="rewritten",
        )
        h.run()
        lines = open(h.log_path).read().splitlines()
        events = edit([json.loads(line) for line in lines[1:]])
        for seq, event in enumerate(events, start=1):
            event["seq"] = event["ts"] = seq
        body = [json.dumps(e, sort_keys=True, ensure_ascii=False, separators=(",", ":")) for e in events]
        open(h.log_path, "w").write("\n".join([lines[0]] + body) + "\n")
        return h

    def test_dropped_threshold_raise_detected(self, tmp_path):
        # round 2 (mean 0.6) raises the threshold set by round 1 (mean 0.2)
        h = self._rewritten(tmp_path, lambda events: [
            e for e in events
            if not (e["kind"] == "ThresholdUpdated" and e["payload"]["round"] == 2)
        ])
        with pytest.raises(LogError, match="threshold update is missing"):
            replay_log(h.log_path)

    def test_threshold_update_that_does_not_raise_it_detected(self, tmp_path):
        # every round's mean is 0.6, so round 1 sets the threshold and no later round raises it
        def insert(events):
            at = next(i for i, e in enumerate(events)
                      if e["kind"] == "ArchivesUpdated" and e["payload"]["round"] == 2)
            update = {"kind": "ThresholdUpdated", "payload": {"round": 2, "previous": 0.6, "value": 0.6}}
            return events[:at] + [update] + events[at:]

        h = self._rewritten(tmp_path, insert, max_rounds=3, scores=[0.6] * 6)
        with pytest.raises(LogError, match="does not raise the threshold"):
            replay_log(h.log_path)

    def test_second_run_started_detected(self, tmp_path):
        def insert(events):
            at = next(i for i, e in enumerate(events) if e["kind"] == "PromptRegenerated") + 1
            injected = json.loads(json.dumps(events[0]))
            injected["payload"]["task_prompt"] = "Eine andere Aufgabe"
            return events[:at] + [injected] + events[at:]

        h = self._rewritten(tmp_path, insert)
        with pytest.raises(LogError, match="duplicate RunStarted"):
            replay_log(h.log_path)

    def test_mutation_step_before_any_archived_prompt_detected(self, tmp_path):
        h = self._rewritten(tmp_path, lambda events: [
            events[0], next(e for e in events if e["kind"] == "MutationRejected")
        ])
        with pytest.raises(LogError, match="before any archived prompt"):
            replay_log(h.log_path)


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
        h, state = finished_run(tmp_path, name="rt")
        parsed = json.loads(emit_report(h.log_path, "json"))
        summary = summarize_log(h.log_path)
        assert parsed == json.loads(json.dumps(summary))
        assert parsed["best_score"] == state.best.entries[0].score
        assert parsed["mutations_applied"] == state.mutations_applied
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


def demo_cut_points(log_text):
    """Every crash point of a log: after each event line, after each event
    line with its newline missing, and halfway through the following line.
    Yields (label, prefix text, whether the prefix holds a written RunFinished)."""
    lines = log_text.split("\n")[:-1]
    for k in range(2, len(lines) + 1):
        head = "\n".join(lines[:k])
        finished = json.loads(lines[k - 1])["kind"] == "RunFinished"
        yield f"after line {k}", head + "\n", finished
        yield f"line {k} without newline", head, finished
        if k < len(lines):
            half = lines[k][: len(lines[k]) // 2]
            yield f"halfway through line {k + 1}", head + "\n" + half, False


class TestResumeFromEveryCut:
    def test_demo_resumes_to_the_same_events_from_every_cut(self, tmp_path):
        from promptloop.config import resolve_config
        from promptloop.demo import DEMO_CONFIG_DOC, DEMO_CORPUS, run_demo
        from promptloop.pipeline import resume_optimization

        full_path = run_demo(tmp_path / "full")
        with open(full_path, encoding="utf-8") as handle:
            full = handle.read()
        doc = dict(DEMO_CONFIG_DOC, output_dir=os.fspath(tmp_path / "unused"))
        config = resolve_config(doc, env={})
        cut_path = tmp_path / "cut.jsonl"
        resumed = refused = 0
        for label, prefix, finished in demo_cut_points(full):
            cut_path.write_text(prefix, encoding="utf-8")
            if finished:
                with pytest.raises(LogError, match="already finished"):
                    resume_optimization(config, cut_path, corpus_texts=DEMO_CORPUS)
                refused += 1
                continue
            resume_optimization(config, cut_path, corpus_texts=DEMO_CORPUS)
            assert cut_path.read_text(encoding="utf-8") == full, label
            resumed += 1
        events = full.count("\n") - 1
        assert refused == 2
        assert resumed == 3 * events - 1 - refused


def demo_config(tmp_path, **engine):
    doc = dict(DEMO_CONFIG_DOC, output_dir=os.fspath(tmp_path / "unused"))
    doc["engine"] = {**doc["engine"], **engine}
    return resolve_config(doc, env={})


def cut_demo_log(tmp_path):
    """The demo log cut after its last PromptRegenerated, the reference
    demo log, and the cut's seq."""
    path = run_demo(tmp_path / "demo")
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    at = max(i for i, line in enumerate(lines) if '"PromptRegenerated"' in line)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join(lines[: at + 1]) + "\n", encoding="utf-8")
    return cut, path, at


class TestOneAppender:
    """A log has one appender at a time: each EventLog takes an exclusive
    flock on the file before it reads or truncates it."""

    def test_second_start_is_refused_while_the_first_appends(self, tmp_path):
        first = started_log(tmp_path)
        first.emit("RunStarted", {"task_prompt": "t"})
        with pytest.raises(LogError, match="another run"):
            EventLog(first.path).start(manifest())
        first.emit("RoundStarted", {})
        first.close()
        assert [e.kind for e in read_log(first.path)[1]] == ["RunStarted", "RoundStarted"]

    def test_two_resumes_of_one_log_do_not_both_append(self, tmp_path):
        cut, _, at = cut_demo_log(tmp_path)
        first = EventLog(cut)
        first.lock()
        replay = replay_log(cut)
        first.resume_at(replay.committed_end, replay.committed)
        with pytest.raises(LogError, match="another run"):
            EventLog(cut).lock()
        before = cut.read_bytes()
        with pytest.raises(LogError, match="another run"):
            resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert cut.read_bytes() == before
        first.emit("PhaseTransition", {"round": 3, "from": "feedback_loop", "to": "mutation"})
        first.close()
        assert read_log(cut)[1][-1].seq == at + 1

    def test_resume_is_refused_while_another_process_holds_the_lock(self, tmp_path):
        cut, full, _ = cut_demo_log(tmp_path)
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from promptloop.runstore import EventLog;"
             " log = EventLog(sys.argv[1]); log.lock(); print('locked', flush=True);"
             " sys.stdin.read()",
             os.fspath(cut)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            assert holder.stdout.readline() == b"locked\n"
            before = cut.read_bytes()
            with pytest.raises(LogError, match="another run"):
                resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
            assert cut.read_bytes() == before
        finally:
            holder.stdin.close()
            holder.wait(timeout=30)
            holder.stdout.close()
        resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert event_lines(cut) == event_lines(full)


class TestPhaseTarget:
    def test_cut_demo_log_with_a_bogus_phase_is_rejected(self, tmp_path):
        """The demo log up to its first PhaseTransition, which says it goes
        to a phase that does not exist."""
        path = run_demo(tmp_path / "demo")
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if '"PhaseTransition"' in line)
        event = json.loads(lines[at])
        event["payload"]["to"] = "bogus"
        lines[at] = json.dumps(event, ensure_ascii=False)
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[: at + 1]) + "\n", encoding="utf-8")
        before = cut.read_bytes()
        with pytest.raises(LogError, match="bogus"):
            replay_log(cut)
        with pytest.raises(LogError, match="bogus"):
            resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert cut.read_bytes() == before


FIXTURES = Path(__file__).parent / "fixtures"


class TestGoldenDemoLog:
    """The demo log as format 0.2.0 first wrote it, before the sample embeds
    were batched: a fresh demo must reproduce its event lines byte for byte."""

    def test_fresh_demo_matches_the_fixture(self, tmp_path):
        path = run_demo(tmp_path)
        fixture = FIXTURES / "demo-0.2.0.jsonl"
        assert os.path.basename(path) == "32e6351267ef29a6.jsonl"
        assert read_log(path)[0]["run_id"] == "32e6351267ef29a6"
        assert event_lines(path) == event_lines(fixture)


class TestLineBytes:
    """Lines end at b"\\n" only and are decoded as UTF-8 one at a time, by
    the reader and the resume's truncate alike."""

    fixture = FIXTURES / "demo-0.2.0.jsonl"

    def test_cut_inside_each_multibyte_character_resumes(self, tmp_path):
        data = self.fixture.read_bytes()
        leads = [i for i, byte in enumerate(data) if byte >= 0xC0]
        assert len(leads) == 18
        config = demo_config(tmp_path)
        cut = tmp_path / "cut.jsonl"
        for lead in leads:
            cut.write_bytes(data[: lead + 1])
            assert not summarize_log(cut)["finished"], lead
            resume_optimization(config, cut, corpus_texts=DEMO_CORPUS)
            assert event_lines(cut) == event_lines(self.fixture), lead

    def test_invalid_utf8_in_a_middle_line_is_a_log_error(self, tmp_path):
        lines = self.fixture.read_bytes().split(b"\n")
        lines[5] = lines[5][:20] + b"\xff" + lines[5][20:]
        path = tmp_path / "ff.jsonl"
        path.write_bytes(b"\n".join(lines))
        for read in (read_log, replay_log, summarize_log):
            with pytest.raises(LogError, match="not UTF-8"):
                read(path)

    def test_integer_past_the_digit_limit_is_a_log_error(self, tmp_path):
        """``json.loads`` refuses an int of more than 4,300 digits with a
        plain ValueError, in an event line and in the manifest alike."""
        huge = b"9" * 5000
        lines = self.fixture.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b'"seq":3', b'"seq":' + huge)
        event = tmp_path / "seq.jsonl"
        event.write_bytes(b"\n".join(lines))
        lines = self.fixture.read_bytes().split(b"\n")
        lines[0] = lines[0][:-1] + b',"extra":' + huge + b"}"
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_bytes(b"\n".join(lines))
        for path, what in ((event, "corrupt event line"), (manifest, "corrupt manifest line")):
            for read in (read_log, replay_log, summarize_log):
                with pytest.raises(LogError, match=what):
                    read(path)

    def test_terminated_last_line_that_is_no_event_is_a_log_error(self, tmp_path):
        """The RunFinished line replaced with ``null``: its newline shows the
        line was written whole, so it is a corrupt event, not a torn write
        to drop, and a resume must not write RunFinished in its place."""
        lines = self.fixture.read_bytes().split(b"\n")
        assert lines[-1] == b"" and b'"kind":"RunFinished"' in lines[-2]
        lines[-2] = b"null"
        path = tmp_path / "null.jsonl"
        path.write_bytes(b"\n".join(lines))
        before = path.read_bytes()
        for read in (read_log, replay_log, lambda p: emit_report(p, "json"), lambda p: emit_report(p, "markdown")):
            with pytest.raises(LogError, match="event line missing fields"):
                read(path)
        with pytest.raises(LogError, match="event line missing fields"):
            resume_optimization(demo_config(tmp_path), path, corpus_texts=DEMO_CORPUS)
        assert path.read_bytes() == before

    def test_lone_carriage_return_between_events_is_rejected(self, tmp_path):
        """The manifest and events 1 to 3, with a \\r in place of the
        newline after event 1: one corrupt line, not two events."""
        lines = self.fixture.read_bytes().split(b"\n")
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(lines[0] + b"\n" + lines[1] + b"\r" + lines[2] + b"\n" + lines[3] + b"\n")
        before = cut.read_bytes()
        with pytest.raises(LogError, match="corrupt event line"):
            replay_log(cut)
        with pytest.raises(LogError, match="corrupt event line"):
            resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert cut.read_bytes() == before

    def test_crlf_copy_replays_reports_and_resumes(self, tmp_path):
        data = self.fixture.read_bytes()
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(data.replace(b"\n", b"\r\n"))
        assert replay_log(crlf).finished
        for format in ("json", "markdown"):
            assert emit_report(crlf, format) == emit_report(self.fixture, format)
        lines = data.split(b"\n")
        at = max(i for i, line in enumerate(lines) if b'"PromptRegenerated"' in line)
        prefix = b"\r\n".join(lines[: at + 1]) + b"\r\n"
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(prefix + lines[at + 1][:30])
        resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert cut.read_bytes().startswith(prefix)
        assert event_lines(cut) == event_lines(self.fixture)

    def test_resume_opens_the_log_for_reading_once(self, tmp_path, monkeypatch):
        cut, full, _ = cut_demo_log(tmp_path)
        reads = []
        real_open, real_os_open = builtins.open, os.open

        def counting_open(file, mode="r", *args, **kwargs):
            if not isinstance(file, int) and os.fspath(file) == os.fspath(cut) and ("r" in mode or "+" in mode):
                reads.append(mode)
            return real_open(file, mode, *args, **kwargs)

        def counting_os_open(path, flags, *args, **kwargs):
            if os.fspath(path) == os.fspath(cut) and flags & os.O_ACCMODE != os.O_WRONLY:
                reads.append(flags)
            return real_os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(os, "open", counting_os_open)
        resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        monkeypatch.undo()
        assert reads == ["rb"]
        assert event_lines(cut) == event_lines(full)


def parsed(parse, line):
    """What ``parse`` makes of ``line``: the event's repr (NaN payloads
    compare by it), or the LogError's message."""
    try:
        return repr(parse(line))
    except LogError as exc:
        return f"LogError: {exc}"


class TestFastDecode:
    """The reader's fast path gives ``RunEvent.from_line``'s value or
    LogError for every line."""

    event = '{"kind":"RunStarted","payload":{"seed":42},"seq":1,"ts":1}'

    @pytest.mark.parametrize(
        "line",
        [
            " " + event,
            event + " ",
            "\t" + event + "\r",
            event + "\r",
            "\r" + event,
            "\ufeff" + event,
            '{"kind":"X","payload":{"v":NaN,"w":-Infinity},"seq":Infinity,"ts":1}',
            '{"kind":"A","kind":"B","payload":{},"payload":[],"seq":1,"ts":1,"seq":2}',
            '{"kind":"X","payload":{},"seq":1,"ts":1,"extra":true}',
            "[1, 2]",
            '"seq ts kind payload"',
            "5",
            "null",
            '{"kind":"RunStarted","seq":1,"ts":1}',
            '{"payload":{},"seq":1,"ts":1}',
            event[: len(event) // 2],
            event[:-1],
            event + event,
            event + "x",
            "",
            "{}",
            '{"kind":"\\ud800","payload":"\\u00fc","seq":1.0,"ts":true}',
        ],
    )
    def test_hand_made_line(self, line):
        assert parsed(lambda text: _parse_event(text.encode("utf-8")), line) == parsed(RunEvent.from_line, line)

    def test_every_fixture_line(self):
        for fixture in ("demo-0.1.0.jsonl", "demo-0.2.0.jsonl"):
            for line in (FIXTURES / fixture).read_text(encoding="utf-8").split("\n"):
                assert parsed(lambda text: _parse_event(text.encode("utf-8")), line) == parsed(
                    RunEvent.from_line, line
                )


class TestFormat010Log:
    """The demo log as format 0.1.0 wrote it, archive snapshots and all."""

    def test_replays(self):
        replay = replay_log(FIXTURES / "demo-0.1.0.jsonl")
        assert replay.finished
        assert replay.manifest["artifact_version"] == "0.1.0"
        assert [e.candidate_id for e in replay.state.best.entries] == ["cand-0003", "mut-0001", "cand-0002"]

    @pytest.mark.parametrize("format, suffix", [("json", "json"), ("markdown", "md")])
    def test_report_is_the_one_format_0_1_wrote(self, format, suffix):
        expected = (FIXTURES / f"demo-0.1.0.report.{suffix}").read_text(encoding="utf-8")
        assert emit_report(FIXTURES / "demo-0.1.0.jsonl", format) == expected

    @pytest.mark.parametrize("commit", ["PromptRegenerated", "MutationApplied"])
    def test_resume_from_a_cut_finishes(self, tmp_path, commit):
        lines = (FIXTURES / "demo-0.1.0.jsonl").read_text(encoding="utf-8").splitlines()
        at = max(i for i, line in enumerate(lines) if f'"{commit}"' in line)
        prefix = "\n".join(lines[: at + 1]) + "\n"
        cut = tmp_path / "cut.jsonl"
        cut.write_text(prefix, encoding="utf-8")
        path = resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert read_log(path)[1][-1].payload["best_candidate_id"] == "cand-0003"
        current = run_demo(tmp_path / "demo")
        text = cut.read_text(encoding="utf-8")
        assert text.startswith(prefix)
        assert text[len(prefix):].split("\n") == event_lines(current)[at:] + [""]


class TestResumeChecksTheRunStarted:
    """Replay reads the seed and capacities from the log, so a config that
    disagrees with the log fails as a config mismatch, not as a bad log."""

    def cut_demo(self, tmp_path, **started):
        """The demo log without its RunFinished line, its RunStarted payload
        updated with ``started``."""
        path = run_demo(tmp_path / "demo")
        lines = Path(path).read_text(encoding="utf-8").splitlines()[:-1]
        event = json.loads(lines[1])
        event["payload"].update(started)
        lines[1] = json.dumps(event, ensure_ascii=False)
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return cut

    @pytest.mark.parametrize("changed", [{"seed": 43}, {"best_capacity": 2}])
    def test_changed_config_is_a_config_digest_mismatch(self, tmp_path, changed):
        cut = self.cut_demo(tmp_path)
        with pytest.raises(DigestMismatchError, match="config digest"):
            resume_optimization(demo_config(tmp_path, **changed), cut, corpus_texts=DEMO_CORPUS)

    def test_run_started_unlike_the_config_rejected(self, tmp_path):
        cut = self.cut_demo(tmp_path, samples_per_round=3)
        before = cut.read_bytes()
        with pytest.raises(LogError, match="RunStarted"):
            resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert cut.read_bytes() == before


def demo_fault_run(config, log_path, op="chat", at=None, error=BackendUnavailableError):
    """Run the demo scenario over a OneShotFault of its scripted mock, armed
    once the corpus is embedded. Returns the fault proxy and whether the run
    aborted."""
    fault = OneShotFault(MockBackend(config.backend, config.scripts), op, None, error)
    cache = EmbeddingCache(fault)
    corpus = embed_corpus(list(DEMO_CORPUS), cache)
    fault.counts["embed"] = 0
    fault.at = at
    config_dig, corpus_dig = config_digest(config), corpus_digest(corpus.documents)
    manifest = build_manifest(
        run_id_for(config_dig, corpus_dig, DEMO_TASK_PROMPT), config_dig, corpus_dig,
        {"kind": "mock"}, created_at=FIXED_CREATED_AT,
    )
    engine = Engine(
        fault, CorpusEvaluator(corpus.centroid, cache), config.engine, EventLog(log_path), DEMO_TASK_PROMPT
    )
    try:
        engine.run(manifest)
    except RunAbortedError:
        return fault, True
    finally:
        engine.log.close()
    return fault, False


def event_lines(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()[1:]


class TestBackendFaultSweep:
    """One backend fault after each backend call of the demo, in turn. A fault
    in the feedback loop aborts the run, and resuming gives the uninterrupted
    run's events; a fault in the mutation phase costs its step only."""

    @pytest.mark.parametrize(
        "op, error, calls, aborting",
        [
            ("chat", BackendUnavailableError, 25, 19),
            ("chat", ProtocolError, 25, 19),
            ("embed", BackendUnavailableError, 5, 3),
            ("embed", ProtocolError, 5, 3),
        ],
    )
    def test_fault_after_every_call(self, tmp_path, op, error, calls, aborting):
        full_path = run_demo(tmp_path / "full")
        full = event_lines(full_path)
        config = demo_config(tmp_path)
        fault, aborted = demo_fault_run(config, tmp_path / "clean.jsonl")
        assert not aborted and fault.counts[op] == calls
        assert event_lines(tmp_path / "clean.jsonl") == full
        for at in range(1, calls + 1):
            path = tmp_path / f"{op}-{at}.jsonl"
            _, aborted = demo_fault_run(config, path, op, at, error)
            events = read_log(path)[1]
            if at <= aborting:
                assert aborted, at
                assert events[-1].kind == "BackendFailure", at
                resume_optimization(config, path, corpus_texts=DEMO_CORPUS)
                assert event_lines(path) == full, at
            else:
                assert not aborted, at
                assert len(events_by_kind(events, "BackendFailure")) == 1, at
                assert events[-1].kind == "RunFinished", at


class TestBackendFailureEvents:
    """Replay derives a BackendFailure's phase and its round or step, and
    nothing but its step's closing event may follow one."""

    def tamper_log(self, tmp_path, edit):
        """The tamper test's finished run, its events rewritten by ``edit``."""
        h = make_harness(
            tmp_path,
            engine={"samples_per_round": 2, "best_capacity": 3, "worst_capacity": 3,
                    "max_rounds": 5, "mutation_budget": 2},
            scripts={ModelRole.PROMPTING: scripted_plans(5)},
            evaluator=FakeEvaluator([0.6, 0.6, 0.2, 0.2, 0.3, 0.3, 0.5, 0.5, 0.1, 0.1]),
            name="failures",
        )
        h.run()
        lines = open(h.log_path).read().splitlines()
        events = edit([json.loads(line) for line in lines[1:]])
        for seq, event in enumerate(events, start=1):
            event["seq"] = event["ts"] = seq
        open(h.log_path, "w").write("\n".join([lines[0]] + [canonical_json(e) for e in events]) + "\n")
        return h.log_path

    @pytest.mark.parametrize("edit", sorted(FAILURES_IN_PLACE))
    def test_failure_where_the_engine_writes_one_replays(self, tmp_path, edit):
        replay = replay_log(self.tamper_log(tmp_path, FAILURES_IN_PLACE[edit]))
        assert not replay.finished

    ENGINE = {"samples_per_round": 2, "best_capacity": 2, "worst_capacity": 2, "max_rounds": 3, "mutation_budget": 1}

    def harness(self, tmp_path, name, failing=None):
        """A run of three rounds and one mutation step; ``failing`` is the
        role and call index whose scripted reply is FAILURE_MARKER."""
        scripts = {
            ModelRole.PROMPTING: scripted_plans(3),
            ModelRole.ACTOR: [f"Ausgabe {i}: Der Patient ist stabil." for i in range(8)],
        }
        if failing is not None:
            role, index = failing
            scripts[role][index] = FAILURE_MARKER
        return make_harness(tmp_path, engine=self.ENGINE, scripts=scripts, name=name)

    @pytest.mark.parametrize(
        "role, index, round_no",
        [(ModelRole.PROMPTING, 0, 1), (ModelRole.ACTOR, 2, 2)],
        ids=["initial-plan", "round-2-actor"],
    )
    def test_aborted_log_replays_and_its_resume_cuts_the_failure(self, tmp_path, role, index, round_no):
        full = self.harness(tmp_path, "full")
        full.run()
        h = self.harness(tmp_path, "aborted", (role, index))
        with pytest.raises(RunAbortedError, match="aborted"):
            h.run()
        h.engine.log.close()
        events = h.events()
        failure = events[-1]
        assert failure.kind == "BackendFailure"
        assert failure.payload.keys() - {"message"} == {"phase", "round"}
        assert (failure.payload["phase"], failure.payload["round"]) == ("feedback_loop", round_no)
        replay = replay_log(h.log_path)
        assert replay.state.round == round_no - 1
        assert replay.committed.kind == ("RunStarted" if round_no == 1 else "PromptRegenerated")

        fresh = self.harness(tmp_path, "fresh")
        resumed = Engine.resumed(fresh.backend, fresh.evaluator_for, fresh.config.engine,
                                 h.log_path, h.config_digest, h.corpus_digest)
        resumed.resume()
        resumed.log.close()
        # The scripts are part of the config digest, so only the run ids differ.
        assert event_lines(h.log_path)[1:] == event_lines(full.log_path)[1:]
        assert not events_by_kind(h.events(), "BackendFailure")


class TestResumeInPlace:
    def test_committed_prefix_keeps_its_bytes(self, tmp_path):
        h, _ = finished_run(tmp_path, name="spaced", max_rounds=5, budget=2, caps=(6, 6))
        lines, cut = cut_after_round(h.log_path, 3)
        # the same events, written with non-canonical spacing
        respaced = [json.dumps(json.loads(line), ensure_ascii=False) for line in lines[: cut + 1]]
        prefix = "\n".join(respaced) + "\n"
        partial = tmp_path / "partial.jsonl"
        partial.write_text(prefix + lines[cut + 1] + "\n" + lines[cut + 2][:10], encoding="utf-8")
        fresh, _ = finished_run(tmp_path, name="driver3", max_rounds=5, budget=2, caps=(6, 6))
        resumed = Engine.resumed(
            make_fresh_backend(tmp_path), fresh.evaluator_for, fresh.config.engine,
            partial, h.config_digest, h.corpus_digest,
        )
        resumed.resume()
        resumed.log.close()
        text = partial.read_text(encoding="utf-8")
        assert text.startswith(prefix)
        assert text[len(prefix):].split("\n") == lines[cut + 1:] + [""]


class PerturbedCorpusBackend(MockBackend):
    """The demo's mock, except that each corpus document no demo sample
    repeats embeds to its vector reversed: a server that answers the corpus
    differently the second time."""

    TEXTS = set(DEMO_CORPUS) - set(DEMO_CONFIG_DOC["scripts"][ModelRole.ACTOR.value])

    def embed(self, texts):
        vectors = super().embed(texts)
        return [v[::-1].copy() if text in self.TEXTS else v for text, v in zip(texts, vectors)]


def cut_in_round(lines, round_no, tmp_path):
    """A copy of ``lines`` that ends with the first sample of round ``round_no``."""
    at = next(i for i, line in enumerate(lines) if '"RoundStarted"' in line and f'"round":{round_no},' in line)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join(lines[: at + 2]) + "\n", encoding="utf-8")
    return cut


class TestLoggedCentroid:
    """A fresh run records the centroid it scores with in the manifest; a
    resume scores with that centroid and does not embed the corpus again."""

    FIXTURE = FIXTURES / "demo-0.2.0.jsonl"

    def test_manifest_holds_the_scoring_centroid(self, tmp_path):
        path = run_demo(tmp_path)
        logged = read_log(path)[0]["corpus_centroid"]
        centroid = embed_corpus(list(DEMO_CORPUS), EmbeddingCache(MockBackend(demo_config(tmp_path).backend))).centroid
        assert logged == encode_centroid(centroid)
        assert decode_centroid(logged).tobytes() == centroid.tobytes()
        assert replay_log(path).centroid.tobytes() == centroid.tobytes()
        assert event_lines(path) == event_lines(self.FIXTURE)

    def test_perturbed_corpus_backend_differs_on_the_corpus(self, tmp_path):
        assert PerturbedCorpusBackend.TEXTS
        descriptor = demo_config(tmp_path).backend
        backend, plain = PerturbedCorpusBackend(descriptor), MockBackend(descriptor)
        for text in PerturbedCorpusBackend.TEXTS:
            assert not (backend.embed([text])[0] == plain.embed([text])[0]).all()

    def test_resume_scores_with_the_logged_centroid(self, tmp_path, monkeypatch):
        lines = Path(run_demo(tmp_path / "demo")).read_text(encoding="utf-8").splitlines()
        cut = cut_in_round(lines, 2, tmp_path)
        monkeypatch.setattr(pipeline, "MockBackend", PerturbedCorpusBackend)
        resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert event_lines(cut) == event_lines(self.FIXTURE)

    @pytest.mark.parametrize("backend, same", [(MockBackend, True), (PerturbedCorpusBackend, False)])
    def test_log_without_a_centroid_embeds_the_corpus(self, tmp_path, monkeypatch, backend, same):
        lines = self.FIXTURE.read_text(encoding="utf-8").splitlines()
        assert "corpus_centroid" not in json.loads(lines[0])
        cut = cut_in_round(lines, 2, tmp_path)
        monkeypatch.setattr(pipeline, "MockBackend", backend)
        resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert (event_lines(cut) == event_lines(self.FIXTURE)) is same

    @pytest.mark.parametrize(
        "value, message",
        [
            (5, "not a string"),
            (None, "not a string"),
            ([1.0], "not a string"),
            ("", "does not encode float64"),
            ("AAAAAAAAAA==", "does not encode float64"),  # 7 bytes
            ("not base64!", "not base64"),
            ("AAAAAAAAAAA", "not base64"),  # padding missing
            ("Zöllner=", "not base64"),
            (base64.b64encode(np.array([0.5, np.nan], dtype="<f8").tobytes()).decode(), "non-finite"),
            (base64.b64encode(np.array([np.inf], dtype="<f8").tobytes()).decode(), "non-finite"),
        ],
    )
    def test_bad_centroid_is_a_log_error(self, tmp_path, value, message):
        lines = Path(run_demo(tmp_path / "demo")).read_text(encoding="utf-8").splitlines()
        manifest = json.loads(lines[0])
        manifest["corpus_centroid"] = value
        lines[0] = json.dumps(manifest, ensure_ascii=False)
        cut = cut_in_round(lines, 2, tmp_path)
        before = cut.read_bytes()
        with pytest.raises(LogError, match=message):
            replay_log(cut)
        with pytest.raises(LogError, match=message):
            resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert cut.read_bytes() == before

    def http_cut(self, tmp_path, centroid):
        """The demo's engine over the ``ollama`` stub, whose vectors have 64
        values: the config, and the log cut in round 2 with ``centroid`` in
        its manifest."""
        doc = {key: value for key, value in DEMO_CONFIG_DOC.items() if key != "scripts"}
        doc.update(backend={"kind": "http", "base_url": "http://stub", "retry_backoff": 0.0},
                   output_dir=os.fspath(tmp_path / "runs"))
        config = resolve_config(doc, env={})
        lines = Path(pipeline.run_optimization(config, DEMO_TASK_PROMPT, corpus_texts=DEMO_CORPUS)).read_text(
            encoding="utf-8").splitlines()
        manifest = json.loads(lines[0])
        manifest["corpus_centroid"] = encode_centroid(centroid)
        lines[0] = json.dumps(manifest, ensure_ascii=False)
        return config, cut_in_round(lines, 2, tmp_path)

    def test_http_centroid_of_another_length(self, tmp_path, ollama):
        """Caught at the first scored batch, without a probe: the log is
        wrong, not the backend, so no BackendFailure is logged."""
        config, cut = self.http_cut(tmp_path, np.ones(8))
        message = f"log {cut}: its corpus centroid has 8 values, the backend embeds in 64"
        with pytest.raises(LogError, match=re.escape(message)):
            resume_optimization(config, cut, corpus_texts=DEMO_CORPUS)
        assert '"BackendFailure"' not in cut.read_text(encoding="utf-8")

    def test_http_centroid_of_the_right_length_resumes(self, tmp_path, ollama):
        config, cut = self.http_cut(tmp_path, np.ones(64))
        resume_optimization(config, cut, corpus_texts=DEMO_CORPUS)
        assert read_log(cut)[1][-1].kind == "RunFinished"


class TestRefusedResumeLeavesTheLog:
    """A resume that refuses a log does so before it cuts the log's
    uncommitted tail and before any backend request."""

    def cut(self, tmp_path, centroid=None):
        """The demo log cut after round 1's first SampleScored, its manifest
        recording ``centroid`` if one is given."""
        lines = Path(run_demo(tmp_path / "demo")).read_text(encoding="utf-8").splitlines()
        if centroid is not None:
            manifest = json.loads(lines[0])
            manifest["corpus_centroid"] = encode_centroid(centroid)
            lines[0] = json.dumps(manifest, ensure_ascii=False)
        at = next(i for i, line in enumerate(lines) if '"SampleScored"' in line)
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[: at + 1]) + "\n", encoding="utf-8")
        assert replay_log(cut).committed_end < len(cut.read_bytes()) - 1  # an uncommitted tail
        return cut

    def test_foreign_task_prompt(self, tmp_path):
        cut = self.cut(tmp_path)
        before = cut.read_bytes()
        with mock_requests() as sent, pytest.raises(ConfigError, match="differs from the task prompt"):
            resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS,
                                expected_task_prompt="Andere Aufgabe")
        assert cut.read_bytes() == before
        assert sent == []

    def test_mock_centroid_of_another_length(self, tmp_path):
        """Eight values where the mock embeds in 64: the log is wrong, not
        the backend, so no BackendFailure is logged."""
        cut = self.cut(tmp_path, centroid=np.ones(8))
        before = cut.read_bytes()
        with mock_requests() as sent, pytest.raises(LogError, match=f"{cut}: its corpus centroid has 8 values"):
            resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert cut.read_bytes() == before
        assert sent == []

    def test_mock_centroid_of_the_right_length_resumes(self, tmp_path):
        cut = self.cut(tmp_path, centroid=np.ones(64))
        resume_optimization(demo_config(tmp_path), cut, corpus_texts=DEMO_CORPUS)
        assert read_log(cut)[1][-1].kind == "RunFinished"
