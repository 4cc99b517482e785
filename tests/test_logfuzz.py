"""Single-value tamper fuzzer over finished event logs.

Each example replaces one JSON value of one log line (the manifest or an
event, at any depth, the line itself included) with another JSON value: one
that compares unequal to it, or an equal one of another type (``1``,
``1.0`` and ``true``). Reading, replaying and reporting the edited log may
fail only with :class:`LogError`, and replay must reject every edit of an
event but those of the free paths :data:`FREE` lists, of a RunStarted
setting to another value of its type, and of a score that leaves every
mean the log records as it is.

The logs are the committed demo log of format 0.1.0, the demo log this
version writes, a small log shaped like the ``resume-long`` benchmark
workload (a full archive after a few rounds, then as many mutation steps,
over a pool of repeating samples), and, for the single-value edits, a log
whose mutation steps end in a BackendFailure and a blank rewrite.

A resume of an edited log, cut after any line, either completes or refuses
with the file as it was and no backend request sent.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CORPUS_TEXTS, make_harness, mock_requests, scripted_plans
from promptloop.config import resolve_config
from promptloop.demo import DEMO_CONFIG_DOC, DEMO_CORPUS, run_demo
from promptloop.errors import ConfigError, DigestMismatchError, LogError
from promptloop.gateway import FAILURE_MARKER
from promptloop.pipeline import resume_optimization
from promptloop.roles import ModelRole
from promptloop.runstore import RunEvent, canonical_json, check_next, emit_report, read_log, replay_log
from promptloop.state import KINDS

FIXTURES = Path(__file__).parent / "fixtures"

#: Payload fields no event derives, with every value below them: free text,
#: the plans the prompting role writes, the rewritten sentence, failure
#: messages, the task prompt and run id, and format 0.1.0's archive
#: listings, which nothing reads. Replay must reject an edit of any other
#: value of an event line.
FREE = {
    "RunStarted": {"task_prompt", "run_id"},
    "SampleGenerated": {"text"},
    "FeedbackIssued": {"text"},
    "RoundSummarized": {"text"},
    "PromptRegenerated": {"step_plan"},
    "ArchivesUpdated": {"best", "worst"},
    "MutationApplied": {"rewritten_sentence", "best", "worst"},
    "BackendFailure": {"message"},
}

#: Where each kind of event records the mean of the scores logged since the
#: latest commit.
MEAN_FIELDS = {
    "ThresholdUpdated": "value",
    "ArchivesUpdated": "score",
    "MutationApplied": "score",
    "MutationRejected": "score",
}


def long_harness(directory):
    """A run shaped like ``resume-long``: six rounds fill both archives, then
    six mutation steps, four samples each from a pool of six actor outputs."""
    rounds = budget = 6
    pool = [f"Ausgabe {i}: Der Patient ist stabil. Die Medikation bleibt." for i in range(6)]
    return make_harness(
        directory,
        engine={"samples_per_round": 4, "best_capacity": rounds, "worst_capacity": rounds,
                "max_rounds": rounds + 1, "mutation_budget": budget, "seed": 1},
        scripts={
            ModelRole.PROMPTING: scripted_plans(rounds),
            ModelRole.ACTOR: [pool[i % len(pool)] for i in range(4 * (rounds + budget))],
            ModelRole.MUTATOR: [f"Neuer Satz {i}." for i in range(budget)],
        },
        name="long",
    )


def long_log(directory):
    h = long_harness(directory)
    h.run()
    return Path(h.log_path)


def failure_log(directory):
    """A run whose two mutation steps are both rejected unscored: step 1's
    rewrite request fails, step 2's rewrite is blank."""
    h = make_harness(
        directory,
        engine={"samples_per_round": 2, "best_capacity": 3, "worst_capacity": 3,
                "max_rounds": 4, "mutation_budget": 2},
        scripts={ModelRole.PROMPTING: scripted_plans(4), ModelRole.MUTATOR: [FAILURE_MARKER, "   "]},
        name="backend-failure",
    )
    h.run()
    return Path(h.log_path)


class Logs(dict):
    def __repr__(self):  # a falsifying example names the log, not its lines
        return f"Logs({sorted(self)})"


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """name -> the log's lines, without the final newline."""
    directory = tmp_path_factory.mktemp("logs")
    paths = {
        "demo-0.1.0": FIXTURES / "demo-0.1.0.jsonl",
        "demo": Path(run_demo(directory / "demo")),
        "long": long_log(directory),
        "backend-failure": failure_log(directory),
    }
    return Logs(
        (name, path.read_text(encoding="utf-8").split("\n")[:-1]) for name, path in paths.items()
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("edited")


@pytest.fixture(scope="module")
def resume_inputs(tmp_path_factory):
    """name -> the config and corpus whose digests a resume of that log
    checks against its manifest."""
    directory = tmp_path_factory.mktemp("configs")
    demo = resolve_config(dict(DEMO_CONFIG_DOC, output_dir=str(directory)), env={})
    return {
        "demo-0.1.0": (demo, DEMO_CORPUS),
        "demo": (demo, DEMO_CORPUS),
        "long": (long_harness(directory).config, CORPUS_TEXTS),
    }


def paths_in(value, prefix=()):
    """Every path into a JSON value, the empty path to the value itself first."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths_in(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from paths_in(item, prefix + (index,))


def scalars_in(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from scalars_in(item)
    elif isinstance(value, list):
        for item in value:
            yield from scalars_in(item)
    else:
        yield value


def replaced(value, path, new):
    if not path:
        return new
    head, *rest = path
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[head] = replaced(value[head], rest, new)
    return copy


def lookup(value, path):
    for key in path:
        value = value[key]
    return value


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(),
    st.text(max_size=12),
)
ANY_VALUE = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=6), SCALARS, max_size=3),
)


def same_json(a, b) -> bool:
    """Whether two JSON values are equal and of one type at every depth, so
    that ``1``, ``1.0`` and ``true`` differ."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(same_json(a[key], b[key]) for key in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b


def replacements(old, log_scalars):
    """Values other than ``old``: any JSON value, a value the same log holds
    elsewhere, one of the same type, a neighbour of a number, or an equal
    number of another type."""
    options = [ANY_VALUE, st.sampled_from(log_scalars)]
    twins = [value for value in (0, False, 0.0, 1, True, 1.0) if value == old]
    if twins:
        options.append(st.sampled_from(twins))
    if type(old) is bool:
        options.append(st.just(not old))
    elif type(old) is int:
        options.append(st.sampled_from([old - 1, old + 1]))
        options.append(st.integers(min_value=-(10**30), max_value=10**30))
    elif type(old) is float:
        options.append(st.sampled_from([math.nextafter(old, -math.inf), math.nextafter(old, math.inf)]))
        options.append(st.floats())
    elif type(old) is str:
        options.append(st.text())
    return st.one_of(options).filter(lambda new: not same_json(new, old))


def exact_mean(scores):
    return float(sum(map(Fraction, scores)) / len(scores))


def changes_a_checked_mean(events, position, new):
    """Whether replacing the score of the SampleScored at ``position`` with
    ``new`` is caught: a value that is not a finite number always is, a
    number when it changes a mean that an event of its group records."""
    if type(new) not in (int, float) or not abs(new) <= sys.float_info.max:
        return True
    start = position
    while not KINDS[events[start - 1]["kind"]].commit:
        start -= 1
    end = position
    while not KINDS[events[end]["kind"]].commit:
        end += 1
    group = events[start : end + 1]
    means = [
        e["payload"][MEAN_FIELDS[e["kind"]]]
        for e in group
        if MEAN_FIELDS.get(e["kind"]) in e["payload"]
    ]
    if not means:
        return False
    scores = [new if e is events[position] else e["payload"]["score"]
              for e in group if e["kind"] == "SampleScored"]
    return exact_mean(scores) != means[0]


def cross_checked(events, index, path, new):
    """Whether replay must reject the edit of line ``index`` (0 is the
    manifest, which a resume checks against its config and corpus) at
    ``path``. A RunStarted setting is an input of the run: another value
    of its type shows only where a later event depends on it."""
    if index == 0:
        return False
    if len(path) < 2 or path[0] != "payload":
        return True
    kind, key = events[index - 1]["kind"], path[1]
    if key in FREE.get(kind, ()):
        return False
    if kind == "RunStarted":
        return type(new) not in KINDS[kind].fields.get(key, (type(new),))
    if (kind, key) == ("SampleScored", "score"):
        return changes_a_checked_mean(events, index - 1, new)
    return True


READERS = (
    read_log,
    replay_log,
    lambda path: emit_report(path, "json"),
    lambda path: emit_report(path, "markdown"),
)


def draw_edit(data, lines):
    """Draw one single-value edit of ``lines``; returns the parsed lines,
    the edited line's index, the path into it, the old and new values, and
    the edited lines."""
    parsed = [json.loads(line) for line in lines]
    log_scalars = sorted(
        {(type(v).__name__, repr(v)): v for line in parsed for v in scalars_in(line)}.items()
    )
    index = data.draw(st.integers(min_value=0, max_value=len(lines) - 1), label="line")
    path = data.draw(st.sampled_from(list(paths_in(parsed[index]))), label="path")
    old = lookup(parsed[index], path)
    new = data.draw(replacements(old, [v for _, v in log_scalars]), label="new")
    edited = list(lines)
    edited[index] = json.dumps(replaced(parsed[index], path, new), ensure_ascii=False)
    return parsed, index, path, old, new, edited


@pytest.mark.parametrize("name", ["demo-0.1.0", "demo", "long", "backend-failure"])
@given(data=st.data())
def test_single_value_edit_is_a_log_error_or_harmless(logs, workdir, name, data):
    parsed, index, path, old, new, edited = draw_edit(data, logs[name])
    log = workdir / f"{name}.jsonl"
    log.write_text("\n".join(edited) + "\n", encoding="utf-8")

    replay_rejected = False
    for read in READERS:
        try:
            read(log)
        except LogError:
            replay_rejected = replay_rejected or read is replay_log
    if cross_checked(parsed[1:], index, path, new):
        assert replay_rejected, f"line {index + 1} at {path}: {old!r} -> {new!r} replays"


@pytest.mark.parametrize("name", ["demo-0.1.0", "demo", "long"])
@given(data=st.data())
def test_resume_of_an_edited_cut_completes_or_leaves_it_untouched(logs, workdir, resume_inputs, name, data):
    """The log cut after a drawn line, then one value of it edited: a resume
    runs it to RunFinished, or refuses it before it writes a byte or sends
    a request."""
    keep = data.draw(st.integers(min_value=1, max_value=len(logs[name])), label="lines kept")
    *_, edited = draw_edit(data, logs[name][:keep])
    log = workdir / f"{name}-resumed.jsonl"
    log.write_text("\n".join(edited) + "\n", encoding="utf-8")
    before = log.read_bytes()
    config, corpus = resume_inputs[name]
    with mock_requests() as sent:
        try:
            resume_optimization(config, log, corpus_texts=corpus)
        except (LogError, DigestMismatchError, ConfigError):
            assert log.read_bytes() == before
            assert sent == []
            return
    assert read_log(log)[1][-1].kind == "RunFinished"


def test_blank_mutant_plan_is_a_log_error(logs, workdir):
    """A blank prompt has no sentence to pick: found by hand, as the
    property rarely edits a mutant that a later step picks."""
    lines = logs["long"]
    applied = [i for i, line in enumerate(lines) if '"MutationApplied"' in line]
    rejected = 0
    for index in applied:
        event = json.loads(lines[index])
        event["payload"]["step_plan"] = " "
        log = workdir / "blank.jsonl"
        edited = lines[:index] + [json.dumps(event, ensure_ascii=False)] + lines[index + 1:]
        log.write_text("\n".join(edited) + "\n", encoding="utf-8")
        try:
            replay_log(log)
        except LogError:
            rejected += 1
    assert rejected


def test_blank_last_plan_is_a_log_error(logs, workdir):
    """The last plan of a cut log, which no logged round has run: blank, it
    once replayed, and the resumed run archived it and failed in the
    mutation phase after writing events (found by the resume property)."""
    lines = logs["demo"]
    regenerated = [i for i, line in enumerate(lines) if '"PromptRegenerated"' in line]
    assert regenerated
    for index in regenerated:
        event = json.loads(lines[index])
        event["payload"]["step_plan"] = ""
        log = workdir / "blank-plan.jsonl"
        log.write_text("\n".join(lines[:index] + [json.dumps(event, ensure_ascii=False)]) + "\n", encoding="utf-8")
        with pytest.raises(LogError, match="PromptRegenerated step_plan is blank"):
            replay_log(log)


def test_unscored_rejection_edits_are_log_errors(logs, workdir):
    """An unscored step's reason follows from its events: backend-failure
    after the step's BackendFailure, empty-rewrite without one. Swapped,
    either is a LogError that names the reason, and so is a score."""
    swap = {"backend-failure": "empty-rewrite", "empty-rewrite": "backend-failure"}
    edits = {
        "derived reason": lambda p: p.update(reason=swap[p["reason"]]),
        "an unscored MutationRejected": lambda p: p.update(score=0.5),
    }
    lines = logs["backend-failure"]
    rejected = [i for i, line in enumerate(lines) if '"MutationRejected"' in line]
    assert [json.loads(lines[i])["payload"]["reason"] for i in rejected] == ["backend-failure", "empty-rewrite"]
    for index in rejected:
        for message, edit in edits.items():
            event = json.loads(lines[index])
            edit(event["payload"])
            log = workdir / "unscored.jsonl"
            edited = lines[:index] + [json.dumps(event, ensure_ascii=False)] + lines[index + 1:]
            log.write_text("\n".join(edited) + "\n", encoding="utf-8")
            with pytest.raises(LogError, match=message):
                replay_log(log)


def test_the_logs_replay_unedited(logs, workdir):
    for name, lines in logs.items():
        log = workdir / f"{name}-clean.jsonl"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for read in READERS:
            read(log)
        assert read_log(log)[1][-1].kind == "RunFinished"


def test_logged_kinds_are_the_payload_table_keys(logs):
    """The payload table is the one list of event kinds: every kind the logs
    hold is a key, and only BackendFailure, which a run writes when its
    backend fails, is missing from them."""
    kinds = {json.loads(line)["kind"] for name in ("demo", "long") for line in logs[name][1:]}
    assert kinds <= KINDS.keys()
    assert KINDS.keys() - kinds == {"BackendFailure"}


def test_check_next_rejects_a_kind_the_table_lacks(logs):
    first, second = (RunEvent.from_line(line) for line in logs["demo"][1:3])
    check_next(first, second)
    second.kind = "SampleDiscarded"
    with pytest.raises(LogError, match="unknown event kind 'SampleDiscarded'"):
        check_next(first, second)


#: A manifest stand-in, then a BackendFailure event line, which no fixture
#: log holds, in canonical JSON: its message carries quotes, a backslash and
#: a non-ASCII character.
BACKEND_FAILURE_LINES = [
    "{}",
    '{"kind":"BackendFailure","payload":{"message":"http://stub/api/chat answered HTTP 400; not retried:'
    ' \\"Modell \\\\ überlastet\\"","phase":"feedback_loop","round":2},"seq":41,"ts":41}',
]


@pytest.mark.parametrize("name", ["demo-0.2.0", "demo-0.1.0", "demo", "long", "backend-failure"])
def test_to_line_is_the_canonical_json_of_the_event(logs, name):
    """``to_line`` writes the envelope and the kind around the encoded
    payload by hand; it must be the canonical JSON of all four fields, which
    is what every line these logs hold is."""
    if name == "backend-failure":
        lines = BACKEND_FAILURE_LINES
    elif name in logs:
        lines = logs[name]
    else:
        lines = (FIXTURES / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        event = RunEvent.from_line(line)
        fields = {"seq": event.seq, "ts": event.ts, "kind": event.kind, "payload": event.payload}
        assert event.to_line() == canonical_json(fields) == line
