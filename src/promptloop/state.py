"""Run state, the one derivation of each value its events record, and the
one function that changes it.

:meth:`EngineState.started` builds a run's state from its RunStarted payload:
the archives, the generator, the task prompt and the run's limits.
:func:`apply` takes the state and one logged event and moves the state on.
The engine applies every event it emits, and replay folds a log through the
same function, so a resumed run restarts from exactly the state the live run
had, and it is the only code that changes an archive. The engine writes every
event field but free text (sample, feedback and summary texts, plans, the
rewritten sentence, failure messages) with its derivation here, and
``apply`` derives it again and raises :class:`LogError` when the event
disagrees in value or JSON type.

:data:`KINDS` has one row per event kind: the phases it may occur in,
whether it is a commit point, the kinds that may come directly after it
where the engine's order fixes them, and its typed payload fields. The
fold, replay, the report and the log's order rule read their rules about a
kind from that row alone.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import LogError
from .roles import ModelRole

_MASK64 = (1 << 64) - 1
_FLOAT_MAX = sys.float_info.max

class SplitMix64:
    """Portable deterministic generator with a single 64-bit word of state.

    All stochastic choices of a run (archive pick, sentence pick, in that
    order per mutation step) draw from one instance seeded from the config.
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


def round_mean(scores) -> float:
    """Exact arithmetic mean of finite int or float scores, rounded once.

    Every ratio's denominator is a power of two, so the largest one is a
    common denominator; the exact sum over it divided by the count in one
    int / int true division (correctly rounded) gives the float
    ``statistics.mean`` gives, without its Fractions.
    """
    ratios = [score.as_integer_ratio() for score in scores]
    if not ratios:
        raise ValueError("round_mean requires at least one score")
    denominator = max([d for _, d in ratios])
    total = 0
    for numerator, d in ratios:
        total += numerator * (denominator // d)
    return total / (denominator * len(ratios))


@dataclass(frozen=True)
class PromptCandidate:
    id: str
    step_plan: str
    origin: str  # "initial" | "refined"


@dataclass(frozen=True)
class ArchiveEntry:
    candidate_id: str
    step_plan: str
    score: float
    arrival: int

    @cached_property
    def listing(self) -> str:
        """``(score=…) step_plan``, the entry's line in a prompting request
        (see :func:`promptloop.templates.compose_step_plan_request`),
        rendered on first use and kept as long as the entry is."""
        return f"(score={self.score!r}) {self.step_plan}"


class PromptArchive:
    """Bounded archive of the highest- (keep="best") or lowest- (keep="worst")
    scoring candidates seen so far.

    A full archive replaces its boundary entry only on strict improvement;
    on score ties the incumbent is retained. Among tied boundary scores the
    latest arrival is the one evicted, so the archive always equals the
    brute-force top-k (or bottom-k) of the arrival stream.
    """

    def __init__(self, capacity: int, keep: str = "best") -> None:
        self.capacity = capacity
        self.keep = keep
        self.entries: list[ArchiveEntry] = []  # in rank order, best first

    def _rank_key(self, entry: ArchiveEntry):
        # Lower key = better rank. Earlier arrivals outrank ties.
        if self.keep == "best":
            return (-entry.score, entry.arrival)
        return (entry.score, entry.arrival)

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    def top_score(self) -> float | None:
        return self.entries[0].score if self.entries else None

    def admits(self, score: float) -> tuple[bool, ArchiveEntry | None]:
        """Whether an entry of this score would go in, and the entry it would
        evict; the archive is left as it is."""
        if not self.is_full:
            return True, None
        weakest = self.entries[-1]
        improves = score > weakest.score if self.keep == "best" else score < weakest.score
        return (True, weakest) if improves else (False, None)

    def offer(self, entry: ArchiveEntry) -> tuple[bool, ArchiveEntry | None]:
        """Insert the entry if it belongs; returns (inserted, evicted)."""
        inserted, evicted = self.admits(entry.score)
        if evicted is not None:
            self.entries.pop()
        if inserted:
            bisect.insort(self.entries, entry, key=self._rank_key)
        return inserted, evicted

    def clone(self) -> "PromptArchive":
        copy = PromptArchive(self.capacity, self.keep)
        copy.entries = list(self.entries)
        return copy


def apply_rewrite(sentences: tuple[str, ...], sentence_index: int, rewritten: str) -> tuple[str, ...]:
    """Replace exactly one sentence slot; if the rewrite contains several
    sentences the full text still occupies the single slot."""
    updated = list(sentences)
    updated[sentence_index] = rewritten
    return tuple(updated)


def _mutant_id(step: int) -> str:
    """The candidate id of mutation step ``step``'s mutant."""
    return f"mut-{step:04d}"


@dataclass(frozen=True)
class Picks:
    """The two RNG draws of one mutation step, with the generator state they
    leave behind and the sentences of the picked prompt."""

    step: int
    source: ArchiveEntry
    archive_index: int
    sentence_index: int
    rng_after: int
    sentences: tuple[str, ...]

    @property
    def original(self) -> str:
        """The picked sentence."""
        return self.sentences[self.sentence_index]

    def applied(self, rewritten: str) -> dict:
        """MutationApplied's fields the rewrite fixes; ``step_plan`` is the
        picked prompt with the picked sentence replaced by ``rewritten``."""
        return {
            "candidate_id": _mutant_id(self.step),
            "original_sentence": self.original,
            "rewritten_sentence": rewritten,
            "step_plan": " ".join(apply_rewrite(self.sentences, self.sentence_index, rewritten)),
        }

    def payload(self) -> dict:
        """The picks as the step's event records them."""
        return {
            "step": self.step,
            "source_candidate_id": self.source.candidate_id,
            "archive_index": self.archive_index,
            "sentence_index": self.sentence_index,
        }


#: RunStarted's fields the state holds as they are.
_HELD = ("task_prompt", "samples_per_round", "max_rounds", "mutation_budget", "score_target")


@dataclass
class EngineState:
    best: PromptArchive
    worst: PromptArchive
    rng: SplitMix64
    task_prompt: str
    #: The run's limits, as its RunStarted records them.
    samples_per_round: int
    max_rounds: int
    mutation_budget: int
    score_target: float | None
    round: int = 0
    threshold: float | None = None
    current: PromptCandidate | None = None
    phase: str = "feedback_loop"  # "feedback_loop" | "mutation" | "finished"
    arrival_counter: int = 0
    mutation_step: int = 0
    mutations_applied: int = 0
    mutations_rejected: int = 0
    #: Chat calls per role: the engine counts each call here before it is
    #: made, and each commit event that records them sets them.
    chat_calls: dict[str, int] = field(default_factory=lambda: {role.value: 0 for role in ModelRole})
    #: The counts the latest commit event records, which replay derives the
    #: next one's from.
    committed_calls: dict[str, int] = field(default_factory=lambda: {role.value: 0 for role in ModelRole})
    #: Scores logged since the latest commit event (the open round or step).
    scores: list[float] = field(default_factory=list)
    #: FeedbackIssued events logged since the latest commit event, and how
    #: many of them took the diagnostic route.
    feedbacks: int = 0
    diagnostic: int = 0
    #: The kind of the last event applied.
    last: str | None = None

    @classmethod
    def started(cls, payload: dict) -> "EngineState":
        """The state a run starts in, from its RunStarted payload: empty
        archives of its capacities (each at least 1), the generator at its
        seed, its task prompt and its limits."""
        check_payload("RunStarted", payload)
        if min(payload["best_capacity"], payload["worst_capacity"]) < 1:
            raise LogError("event 1: RunStarted archive capacities must be >= 1")
        if not payload["task_prompt"]:
            raise LogError("event 1: RunStarted task_prompt is empty")
        archives = PromptArchive(payload["best_capacity"], "best"), PromptArchive(payload["worst_capacity"], "worst")
        return cls(*archives, SplitMix64(payload["seed"]), **{name: payload[name] for name in _HELD})

    def arrive(self, candidate_id: str, step_plan: str, score: float) -> ArchiveEntry:
        """The archive entry of the run's next scored prompt."""
        self.arrival_counter += 1
        return ArchiveEntry(candidate_id, step_plan, score, self.arrival_counter)

    def reached(self) -> bool:
        """Whether the best archive's top score meets the score target (never
        without a target or an archived prompt)."""
        top = self.best.top_score()
        return self.score_target is not None and top is not None and top >= self.score_target

    def totals(self) -> dict:
        """What RunFinished records: the best archive's top prompt and the
        run's counts."""
        best = self.best.entries[0] if self.best.entries else None
        return {
            "best_candidate_id": best.candidate_id if best else None,
            "best_score": best.score if best else None,
            "best_step_plan": best.step_plan if best else None,
            "rounds": self.round,
            "mutations_applied": self.mutations_applied,
            "mutations_rejected": self.mutations_rejected,
        }

    def clone(self) -> "EngineState":
        return replace(
            self,
            best=self.best.clone(),
            worst=self.worst.clone(),
            rng=SplitMix64(self.rng.state),
            chat_calls=dict(self.chat_calls),
            scores=list(self.scores),
        )


def route_feedback(score: float, threshold: float) -> str:
    """Diagnostic strictly below the threshold; general at or above it."""
    return "diagnostic" if score < threshold else "general"


def check_transition(state: EngineState) -> str:
    """The feedback loop's next phase: finished on the round limit or the
    score target, mutation once the best archive is full, otherwise
    unchanged."""
    if state.round >= state.max_rounds or state.reached():
        return "finished"
    if state.best.is_full:
        return "mutation"
    return "feedback_loop"


def step_due(state: EngineState) -> bool:
    """Whether the mutation phase runs another step: budget is left and the
    score target is not reached."""
    return state.mutation_step < state.mutation_budget and not state.reached()


def phase_transition(state: EngineState) -> dict | None:
    """The PhaseTransition payload that is due in the feedback loop or the
    mutation phase, or None. One is due only between rounds or steps: the
    feedback loop goes on to :func:`check_transition`'s phase, and the
    mutation phase finishes once no step is due."""
    to = check_transition(state) if state.phase == "feedback_loop" else ("mutation" if step_due(state) else "finished")
    if to == state.phase or state.scores:
        return None
    return {"round": state.round, "from": state.phase, "to": to}


def round_ids(state: EngineState) -> dict:
    """The open round's number and the id of the prompt it runs, as each of
    the round's events records them."""
    return {"round": state.round + 1, "candidate_id": state.current.id}


def sample_ids(state: EngineState) -> dict:
    """The ids a sample's SampleGenerated and SampleScored record: the open
    round's prompt or the open step's mutant, and the number of samples
    scored before it."""
    candidate_id = _mutant_id(state.mutation_step + 1) if state.phase == "mutation" else state.current.id
    return {"candidate_id": candidate_id, "sample_index": len(state.scores)}


def feedback_issued(state: EngineState) -> dict:
    """FeedbackIssued's fields but its text: the open round's ids, the index
    of the sample it answers (the round's feedback so far) and its route,
    from that sample's logged score and the threshold."""
    index = state.feedbacks
    return {**round_ids(state), "sample_index": index, "route": route_feedback(state.scores[index], state.threshold)}


def archives_updated(state: EngineState) -> dict:
    """ArchivesUpdated's payload: the open round's ids and the mean of its
    logged scores, the score its prompt is archived with."""
    return {**round_ids(state), "score": round_mean(state.scores)}


def round_started(state: EngineState) -> dict:
    """RoundStarted's payload: the round after the last one runs the current
    prompt."""
    current = state.current
    return {**round_ids(state), "step_plan": current.step_plan, "origin": current.origin}


def threshold_update(state: EngineState) -> dict | None:
    """The ThresholdUpdated payload the mean of the open round's logged
    scores calls for, or None: round 1 sets the threshold, and a later round
    raises it only when its mean strictly beats it."""
    mean = round_mean(state.scores)
    if state.threshold is not None and mean <= state.threshold:
        return None
    return {"round": state.round + 1, "previous": state.threshold, "value": mean}


def prompt_regenerated(state: EngineState) -> dict:
    """PromptRegenerated's fields but the plan. The initial plan is round
    0's; each later one closes the open round. ``chat_calls`` are the
    engine's counts (see :func:`apply` for the rule replay checks them by)."""
    round_no = 0 if state.current is None else state.round + 1
    origin = "refined" if round_no else "initial"
    return {"round": round_no, "candidate_id": f"cand-{round_no + 1:04d}", "for_round": round_no + 1, "origin": origin,
            "chat_calls": dict(state.chat_calls)}


def backend_failure(state: EngineState) -> dict:
    """BackendFailure's payload but its ``message``: the phase, and the open
    round of the feedback loop or the open step of the mutation phase."""
    if state.phase == "mutation":
        return {"phase": "mutation", "step": state.mutation_step + 1}
    return {"phase": state.phase, "round": state.round + 1}


def step_closing(state: EngineState, picks: Picks, rewritten: str | None) -> tuple[str, dict]:
    """The kind and payload of the event that closes the open mutation
    step, with the engine's ``chat_calls``. Unscored, it is a rejection:
    ``backend-failure`` if it logged a BackendFailure, else
    ``empty-rewrite``. Scored, it applies the mutant ``rewritten`` makes if
    the best archive would take its mean."""
    fields = {**picks.payload(), "chat_calls": dict(state.chat_calls)}
    if not state.scores:
        reason = "backend-failure" if state.last == "BackendFailure" else "empty-rewrite"
        return "MutationRejected", {**fields, "reason": reason}
    fields["score"] = round_mean(state.scores)
    inserted, evicted = state.best.admits(fields["score"])
    if not inserted:
        return "MutationRejected", {**fields, "reason": "below-archive-minimum", "candidate_id": _mutant_id(picks.step)}
    evicted_id = evicted.candidate_id if evicted else None
    return "MutationApplied", {**fields, **picks.applied(rewritten), "evicted_candidate_id": evicted_id}


_LOOP, _OPEN = ("feedback_loop",), ("feedback_loop", "mutation")
_INT, _NUMBER, _TEXT, _NONE, _OBJECT = (int,), (int, float), (str,), (type(None),), (dict,)


@dataclass(frozen=True)
class KindRow:
    """What the log's rules say about one event kind."""

    #: The phases an event of the kind may occur in.
    phases: tuple[str, ...]
    #: The payload fields the fold or the report reads, with the exact types
    #: each may hold (so a bool is not a number). The fields :func:`apply`
    #: only compares with a derivation are typed by that check.
    fields: dict[str, tuple[type, ...]]
    #: Whether the state is durably consistent at it: replay restores the
    #: state as of the latest commit, an aborted round rolls back to it, and
    #: :class:`promptloop.runstore.EventLog` writes the lines since the one
    #: before with it, in one write.
    commit: bool = False
    #: The kinds that may come directly after it, where the engine's order
    #: fixes them; None where it does not, and then any kind of
    #: :data:`_UNFIXED` may.
    next: tuple[str, ...] | None = None


#: Every event kind, with its row.
KINDS = {
    "RunStarted": KindRow(_LOOP, {
        "task_prompt": _TEXT, "seed": _INT, "best_capacity": _INT, "worst_capacity": _INT,
        "samples_per_round": _INT, "max_rounds": _INT, "mutation_budget": _INT, "score_target": _NUMBER + _NONE,
    }, commit=True, next=("PromptRegenerated", "BackendFailure")),
    "RoundStarted": KindRow(_LOOP, {"round": _INT, "candidate_id": _TEXT, "step_plan": _TEXT, "origin": _TEXT}),
    "SampleGenerated": KindRow(_OPEN, {}, next=("SampleScored",)),
    "SampleScored": KindRow(_OPEN, {"score": _NUMBER}),
    "FeedbackIssued": KindRow(_LOOP, {}),
    "RoundSummarized": KindRow(_LOOP, {}),
    "ThresholdUpdated": KindRow(_LOOP, {"round": _INT, "previous": _NUMBER + _NONE, "value": _NUMBER}),
    "ArchivesUpdated": KindRow(_LOOP, {"round": _INT, "candidate_id": _TEXT, "score": _NUMBER}),
    "PromptRegenerated": KindRow(_LOOP, {
        "round": _INT, "candidate_id": _TEXT, "step_plan": _TEXT, "origin": _TEXT, "for_round": _INT,
        "chat_calls": _OBJECT,
    }, commit=True),
    "PhaseTransition": KindRow(_OPEN, {}, commit=True),
    "MutationApplied": KindRow(("mutation",), {
        "step": _INT, "original_sentence": _TEXT, "rewritten_sentence": _TEXT,
        "candidate_id": _TEXT, "step_plan": _TEXT, "score": _NUMBER, "evicted_candidate_id": _TEXT + _NONE,
        "chat_calls": _OBJECT,
    }, commit=True),
    "MutationRejected": KindRow(("mutation",), {"step": _INT, "chat_calls": _OBJECT}, commit=True),
    "BackendFailure": KindRow(_OPEN, {"phase": _TEXT}, next=("MutationApplied", "MutationRejected")),
    "RunFinished": KindRow(("finished",), {
        "best_candidate_id": _TEXT + _NONE, "best_score": _NUMBER + _NONE, "best_step_plan": _TEXT + _NONE,
        "rounds": _INT, "mutations_applied": _INT, "mutations_rejected": _INT,
    }, commit=True),
}

#: Events that close a mutation step, the ones a BackendFailure is followed
#: by; each one carries the step's RNG picks.
MUTATION_KINDS = frozenset(KINDS["BackendFailure"].next)

#: The kinds that may follow one whose row fixes no successors: all but
#: SampleScored, which comes only directly after its SampleGenerated.
_UNFIXED = frozenset(KINDS) - {"SampleScored"}


def check_payload(kind: str, payload: dict, seq: int = 1) -> dict:
    """Return event ``seq``'s payload once each field its :data:`KINDS` row
    lists is present with one of its types."""
    for key, types in KINDS[kind].fields.items():
        if key not in payload:
            raise LogError(f"event {seq}: {kind} payload has no {key!r}")
        value = payload[key]
        if type(value) not in types:
            expected = " or ".join(t.__name__ for t in types)
            raise LogError(f"event {seq}: {kind} {key} {value!r} is not {expected}")
    return payload


def _take_calls(state: EngineState, event, derived: dict) -> None:
    """Take a commit's ``chat_calls`` as the state's counts, in place of the
    engine's ones in ``derived``; refuse them unless they are the counts the
    rule in :func:`apply` derives from the latest commit's."""
    del derived["chat_calls"]
    calls = dict(state.committed_calls)
    if event.kind == "PromptRegenerated":
        calls["prompting"] += 1
        if state.current is not None:
            calls["summarizer"] += 1
            calls["diagnostic_feedback"] += state.diagnostic
            calls["general_feedback"] += state.feedbacks - state.diagnostic
    else:
        calls["mutator"] += 1
    if state.scores:
        calls["actor"] += state.samples_per_round
    with_batch = {**calls, "actor": calls["actor"] + state.samples_per_round}
    allowed = [calls, with_batch] if state.last == "BackendFailure" else [calls]
    logged = event.payload["chat_calls"]
    if logged not in allowed or any(type(n) is not int for n in logged.values()):
        options = " or ".join(map(repr, allowed))
        raise LogError(f"event {event.seq}: {event.kind} chat_calls {logged!r} are not the derived {options}")
    state.committed_calls, state.chat_calls = logged, dict(logged)


def _all_logged(event, count: int, wanted: int, what: str) -> None:
    """Refuse an event that reads its round's or step's ``what`` unless
    exactly ``wanted`` of them are logged."""
    if count != wanted:
        raise LogError(f"event {event.seq}: {event.kind} after {count} {what}, not RunStarted's {wanted}")


def apply(state: EngineState, event, picks: Picks | None = None) -> None:
    """Move the state on by one logged event.

    ``picks`` are the RNG draws of the mutation step a MutationApplied or
    MutationRejected event closes. Every payload field but free text is
    compared with its derivation from the state and the picks, in value and
    in JSON type, in one check; RunStarted's fields are the state's own, as
    :meth:`EngineState.started` built it. Each commit's ``chat_calls`` must
    be the latest commit's plus the calls its round or step made: the
    plan's prompting call, a round's summarizer call and one feedback call
    per FeedbackIssued on its route's role, a step's mutator call, and
    ``samples_per_round`` actor calls for a batch of samples. A step that
    logged a BackendFailure may have sent its actor batch or not, so both
    counts pass.

    Refused as well: an event outside its :data:`KINDS` row's phases, or
    directly after an event whose row does not let it follow (see
    :attr:`KindRow.next`): only the first plan or its BackendFailure
    follows RunStarted, each SampleGenerated is directly followed by its
    SampleScored and nothing else is, and only the step's closing event
    follows a BackendFailure. Refused too: a PhaseTransition that is not
    due, and a RoundStarted when one is; a step's closing event when no
    step is due; a round or scored step with other than
    ``samples_per_round`` samples, and a round with other than that many
    feedbacks. A BackendFailure ends its round or step: it comes before any
    sample of a mutation step is logged, at most once per step, and nothing
    follows one in the feedback loop, where no step closes.
    """
    kind, payload = event.kind, check_payload(event.kind, event.payload, event.seq)
    if state.phase not in KINDS[kind].phases:
        raise LogError(f"event {event.seq}: {kind} in phase {state.phase!r}")
    fixed = KINDS[state.last].next if state.last else None
    if kind not in (fixed or _UNFIXED):
        raise LogError(f"event {event.seq}: {kind} may not directly follow {state.last}")
    if kind in ("PromptRegenerated", "MutationApplied") and not payload["step_plan"].strip():
        # Both backends refuse a blank reply, and a mutation step could pick no sentence of it.
        raise LogError(f"event {event.seq}: {kind} step_plan is blank")
    logged, wanted = len(state.scores), state.samples_per_round
    derived = None
    if kind in ("SampleGenerated", "SampleScored"):
        derived = sample_ids(state)
        if kind == "SampleGenerated" and logged == wanted:
            raise LogError(f"event {event.seq}: SampleGenerated past RunStarted's {wanted} samples")
        if kind == "SampleScored":
            score = payload["score"]
            # NaN fails the comparison, and an int is finite only within float range.
            if not abs(score) <= _FLOAT_MAX:
                raise LogError(f"event {event.seq}: SampleScored score {score!r} is not a finite number")
            state.scores.append(score)
    elif kind == "FeedbackIssued":
        _all_logged(event, logged, wanted, "samples")
        if state.feedbacks == wanted:
            raise LogError(f"event {event.seq}: FeedbackIssued past RunStarted's {wanted} feedbacks")
        derived = feedback_issued(state)
        state.feedbacks += 1
        state.diagnostic += derived["route"] == "diagnostic"
    elif kind == "RoundSummarized":
        _all_logged(event, state.feedbacks, wanted, "feedbacks")
        derived = round_ids(state)
    elif kind == "BackendFailure":
        if state.phase == "mutation" and state.scores:
            raise LogError(f"event {event.seq}: BackendFailure after its step's logged samples")
        derived = backend_failure(state)
    elif kind == "RoundStarted":
        if phase_transition(state) is not None:
            raise LogError(f"event {event.seq}: RoundStarted when a PhaseTransition is due")
        derived = round_started(state)
    elif kind == "ThresholdUpdated":
        _all_logged(event, logged, wanted, "samples")
        derived = threshold_update(state)
        if derived is None:
            raise LogError(f"event {event.seq}: round {state.round + 1}'s mean does not raise the threshold")
        state.threshold = derived["value"]
    elif kind == "ArchivesUpdated":
        _all_logged(event, logged, wanted, "samples")
        if threshold_update(state) is not None:
            raise LogError(f"event {event.seq}: the round's threshold update is missing")
        derived = archives_updated(state)
        entry = state.arrive(state.current.id, state.current.step_plan, derived["score"])
        state.best.offer(entry)
        state.worst.offer(entry)
    elif kind == "PromptRegenerated":
        derived = prompt_regenerated(state)
        _take_calls(state, event, derived)
        state.current = PromptCandidate(derived["candidate_id"], payload["step_plan"], derived["origin"])
        state.round = derived["round"]
    elif kind == "PhaseTransition":
        derived = phase_transition(state)
        if derived is None:
            raise LogError(f"event {event.seq}: no PhaseTransition is due in phase {state.phase!r}")
        state.phase = derived["to"]
    elif kind in MUTATION_KINDS:
        if not step_due(state):
            raise LogError(f"event {event.seq}: {kind} closes a step past the budget or the score target")
        if logged:
            _all_logged(event, logged, wanted, "samples")
        rewritten = payload["rewritten_sentence"] if kind == "MutationApplied" else ""
        closing, derived = step_closing(state, picks, rewritten)
        _take_calls(state, event, derived)
        if (kind, "score" in payload) != (closing, bool(logged)):
            scored = "a scored" if logged else "an unscored"
            raise LogError(f"event {event.seq}: the step's logged samples make it {scored} {closing}, not this {kind}")
        state.rng.state = picks.rng_after
        state.mutation_step = picks.step
        if kind == "MutationApplied":
            state.best.offer(state.arrive(derived["candidate_id"], derived["step_plan"], derived["score"]))
            state.mutations_applied += 1
        else:
            state.mutations_rejected += 1
    elif kind == "RunFinished":
        derived = state.totals()
    if derived is not None:
        for key, value in derived.items():
            if key not in payload or type(payload[key]) is not type(value) or payload[key] != value:
                raise LogError(f"event {event.seq}: {kind} logs {payload.get(key)!r}, not the derived {key} {value!r}")
    if KINDS[kind].commit:
        state.scores = []
        state.feedbacks = state.diagnostic = 0
    state.last = kind
