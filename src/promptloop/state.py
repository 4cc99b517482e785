"""Run state, the one derivation of each value its events repeat, and the
one function that changes it.

:func:`apply` takes the state and one logged event and moves the state on.
The engine applies every event it emits, and replay folds a log through the
same function, so a resumed run restarts from exactly the state the live run
had, and it is the only code that changes an archive. The engine writes each
repeated value (round numbers, ids, origins, the threshold a round's mean
calls for, a mutation step's closing event, the round or step a backend
failure ends) with its derivation here, and
``apply`` derives it again and raises :class:`LogError` when the event
disagrees.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import LogError
from .roles import ModelRole

_MASK64 = (1 << 64) - 1
_ROLES = frozenset(role.value for role in ModelRole)
_FLOAT_MAX = sys.float_info.max

#: Event kinds at which the state is durably consistent: replay restores the
#: state as of the latest one, and an aborted round rolls back to it.
COMMIT_KINDS = frozenset(
    {
        "RunStarted",
        "PromptRegenerated",
        "PhaseTransition",
        "MutationApplied",
        "MutationRejected",
        "RunFinished",
    }
)

#: Events that close a mutation step; each one carries the step's RNG picks.
MUTATION_KINDS = frozenset({"MutationApplied", "MutationRejected"})


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

    @property
    def mutant_id(self) -> str:
        """The candidate id of the step's mutant."""
        return f"mut-{self.step:04d}"

    def applied(self, rewritten: str) -> dict:
        """MutationApplied's fields the rewrite fixes; ``step_plan`` is the
        picked prompt with the picked sentence replaced by ``rewritten``."""
        return {
            "candidate_id": self.mutant_id,
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


@dataclass
class EngineState:
    best: PromptArchive
    worst: PromptArchive
    rng: SplitMix64
    task_prompt: str = ""
    round: int = 0
    threshold: float | None = None
    current: PromptCandidate | None = None
    phase: str = "feedback_loop"  # "feedback_loop" | "mutation" | "finished"
    arrival_counter: int = 0
    mutation_step: int = 0
    mutations_applied: int = 0
    mutations_rejected: int = 0
    #: Chat calls per role: the engine counts each call here, and replay
    #: takes the counts from each commit event that records them.
    chat_calls: dict[str, int] = field(default_factory=lambda: {role.value: 0 for role in ModelRole})
    #: Scores logged since the latest commit event (the open round or step).
    scores: list[float] = field(default_factory=list)
    #: Whether a BackendFailure was logged since the latest commit event.
    failed: bool = False

    @classmethod
    def initial(cls, seed: int, best_capacity: int, worst_capacity: int) -> "EngineState":
        return cls(
            best=PromptArchive(best_capacity, keep="best"),
            worst=PromptArchive(worst_capacity, keep="worst"),
            rng=SplitMix64(seed),
        )

    def arrive(self, candidate_id: str, step_plan: str, score: float) -> ArchiveEntry:
        """The archive entry of the run's next scored prompt."""
        self.arrival_counter += 1
        return ArchiveEntry(candidate_id, step_plan, score, self.arrival_counter)

    def reached(self, target: float | None) -> bool:
        """Whether the best archive's top score meets the score target (never
        without a target or an archived prompt)."""
        top = self.best.top_score()
        return target is not None and top is not None and top >= target

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


def round_ids(state: EngineState) -> dict:
    """The open round's number and the id of the prompt it runs, as each of
    the round's events records them."""
    return {"round": state.round + 1, "candidate_id": state.current.id}


def round_started(state: EngineState) -> dict:
    """RoundStarted's payload: the round after the last one runs the current
    prompt."""
    current = state.current
    return {**round_ids(state), "step_plan": current.step_plan, "origin": current.origin}


def threshold_update(state: EngineState, mean: float) -> dict | None:
    """The ThresholdUpdated payload the open round's ``mean`` calls for, or
    None: round 1 sets the threshold, and a later round raises it only when
    its mean strictly beats it."""
    if state.threshold is not None and mean <= state.threshold:
        return None
    return {"round": state.round + 1, "previous": state.threshold, "value": mean}


def prompt_regenerated(state: EngineState) -> dict:
    """PromptRegenerated's fields other than the plan and the call counts.
    The initial plan is round 0's; each later one closes the open round."""
    round_no = 0 if state.current is None else state.round + 1
    origin = "refined" if round_no else "initial"
    return {"round": round_no, "candidate_id": f"cand-{round_no + 1:04d}", "for_round": round_no + 1, "origin": origin}


def backend_failure(state: EngineState) -> dict:
    """BackendFailure's payload but its ``message``: the phase, and the open
    round of the feedback loop or the open step of the mutation phase."""
    if state.phase == "mutation":
        return {"phase": "mutation", "step": state.mutation_step + 1}
    return {"phase": state.phase, "round": state.round + 1}


def step_closing(state: EngineState, picks: Picks, rewritten: str | None) -> tuple[str, dict]:
    """The kind and payload, but ``chat_calls``, of the event that closes the
    open mutation step. Unscored, it is a rejection: ``backend-failure`` if
    it logged a BackendFailure, else ``empty-rewrite``. Scored, it applies
    the mutant ``rewritten`` makes if the best archive would take its mean."""
    fields = picks.payload()
    if not state.scores:
        return "MutationRejected", {**fields, "reason": "backend-failure" if state.failed else "empty-rewrite"}
    fields["score"] = round_mean(state.scores)
    inserted, evicted = state.best.admits(fields["score"])
    if not inserted:
        return "MutationRejected", {**fields, "reason": "below-archive-minimum", "candidate_id": picks.mutant_id}
    evicted_id = evicted.candidate_id if evicted else None
    return "MutationApplied", {**fields, **picks.applied(rewritten), "evicted_candidate_id": evicted_id}


#: The phase an event of each kind may occur in. A PhaseTransition must start
#: from the current phase and go to one of its successors.
_PHASE_OF = {
    "RoundStarted": "feedback_loop",
    "MutationApplied": "mutation",
    "MutationRejected": "mutation",
}
_SUCCESSORS = {"feedback_loop": ("mutation", "finished"), "mutation": ("finished",)}


_INT, _NUMBER, _TEXT, _NONE, _OBJECT = (int,), (int, float), (str,), (type(None),), (dict,)

#: Every event kind, with the payload fields the fold or the report reads and
#: the exact types each may hold (so a bool is not a number). The kinds that
#: only carry text have none.
PAYLOAD_FIELDS = {
    "RunStarted": {"task_prompt": _TEXT, "seed": _INT, "best_capacity": _INT, "worst_capacity": _INT},
    "RoundStarted": {"round": _INT, "candidate_id": _TEXT, "step_plan": _TEXT, "origin": _TEXT},
    "SampleGenerated": {},
    "SampleScored": {"score": _NUMBER},
    "FeedbackIssued": {},
    "RoundSummarized": {},
    "ThresholdUpdated": {"round": _INT, "previous": _NUMBER + _NONE, "value": _NUMBER},
    "ArchivesUpdated": {"round": _INT, "candidate_id": _TEXT, "score": _NUMBER},
    "PromptRegenerated": {
        "round": _INT, "candidate_id": _TEXT, "step_plan": _TEXT, "origin": _TEXT, "for_round": _INT,
        "chat_calls": _OBJECT,
    },
    "PhaseTransition": {"to": _TEXT},
    "MutationApplied": {
        "step": _INT, "original_sentence": _TEXT, "rewritten_sentence": _TEXT,
        "candidate_id": _TEXT, "step_plan": _TEXT, "score": _NUMBER, "evicted_candidate_id": _TEXT + _NONE,
        "chat_calls": _OBJECT,
    },
    "MutationRejected": {"step": _INT, "chat_calls": _OBJECT},
    "BackendFailure": {"phase": _TEXT},
    "RunFinished": {
        "best_candidate_id": _TEXT + _NONE, "best_score": _NUMBER + _NONE, "best_step_plan": _TEXT + _NONE,
        "rounds": _INT, "mutations_applied": _INT, "mutations_rejected": _INT,
    },
}
#: The kinds with no such field, which :func:`apply` leaves the state as it is for.
_TEXT_ONLY = frozenset(kind for kind, fields in PAYLOAD_FIELDS.items() if not fields)


def check_payload(event) -> dict:
    """Return the event's payload once each field :data:`PAYLOAD_FIELDS`
    lists for its kind is present with one of its types."""
    payload = event.payload
    for key, types in PAYLOAD_FIELDS[event.kind].items():
        if key not in payload:
            raise LogError(f"event {event.seq}: {event.kind} payload has no {key!r}")
        value = payload[key]
        if type(value) not in types:
            expected = " or ".join(t.__name__ for t in types)
            raise LogError(f"event {event.seq}: {event.kind} {key} {value!r} is not {expected}")
    return payload


def _mean(event, scores: list[float]) -> float:
    """The mean of the open round's or step's logged scores."""
    if not scores:
        raise LogError(f"event {event.seq}: {event.kind} has no logged samples to average")
    return round_mean(scores)


def apply(state: EngineState, event, picks: Picks | None = None) -> None:
    """Move the state on by one logged event.

    ``picks`` are the RNG draws of the mutation step a MutationApplied or
    MutationRejected event closes. The fields an event repeats are compared
    with their derivations from the state and the picks in one check.
    Events that only carry text (samples, feedback, summaries) leave the
    state as it is: they return right after the phase and failure checks,
    without walking the kind chain below. A BackendFailure ends its round
    or step: it comes before any sample of a mutation step is logged, at
    most once per step, and only the step's closing event may follow it,
    so nothing follows one in the feedback loop.
    """
    kind, payload = event.kind, check_payload(event)
    expected = payload.get("from") if kind == "PhaseTransition" else _PHASE_OF.get(kind, state.phase)
    if expected != state.phase:
        raise LogError(f"event {event.seq}: {kind} in phase {state.phase!r}, expected {expected!r}")
    if state.failed and kind not in MUTATION_KINDS:
        raise LogError(f"event {event.seq}: {kind} after a BackendFailure, which only a step's closing event follows")
    if kind in _TEXT_ONLY:
        return
    if kind in ("PromptRegenerated", "MutationApplied") and not payload["step_plan"].strip():
        # Both backends refuse a blank reply, and a mutation step could pick no sentence of it.
        raise LogError(f"event {event.seq}: {kind} step_plan is blank")
    derived = None
    if kind == "SampleScored":
        score = payload["score"]
        # NaN fails the comparison, and an int is finite only within float range.
        if not abs(score) <= _FLOAT_MAX:
            raise LogError(f"event {event.seq}: SampleScored score {score!r} is not a finite number")
        state.scores.append(score)
    elif kind == "BackendFailure":
        if state.phase == "mutation" and state.scores:
            raise LogError(f"event {event.seq}: BackendFailure after its step's logged samples")
        derived = backend_failure(state)
        state.failed = True
    elif kind == "RunStarted":
        if not payload["task_prompt"]:
            raise LogError(f"event {event.seq}: RunStarted task_prompt is empty")
        state.task_prompt = payload["task_prompt"]
    elif kind in ("RoundStarted", "ArchivesUpdated") and state.current is None:
        raise LogError(f"event {event.seq}: {kind} before the run's first plan")
    elif kind == "RoundStarted":
        derived = round_started(state)
    elif kind == "ThresholdUpdated":
        derived = threshold_update(state, _mean(event, state.scores))
        if derived is None:
            raise LogError(f"event {event.seq}: round {state.round + 1}'s mean does not raise the threshold")
        state.threshold = derived["value"]
    elif kind == "ArchivesUpdated":
        mean = _mean(event, state.scores)
        if threshold_update(state, mean) is not None:
            raise LogError(f"event {event.seq}: the round's threshold update is missing")
        derived = {**round_ids(state), "score": mean}
        entry = state.arrive(state.current.id, state.current.step_plan, mean)
        state.best.offer(entry)
        state.worst.offer(entry)
    elif kind == "PromptRegenerated":
        derived = prompt_regenerated(state)
        state.current = PromptCandidate(derived["candidate_id"], payload["step_plan"], derived["origin"])
        state.round = derived["round"]
    elif kind == "PhaseTransition":
        if payload["to"] not in _SUCCESSORS.get(state.phase, ()):
            raise LogError(f"event {event.seq}: no transition from {state.phase!r} to {payload['to']!r}")
        state.phase = payload["to"]
    elif kind in MUTATION_KINDS:
        rewritten = payload["rewritten_sentence"] if kind == "MutationApplied" else ""
        closing, derived = step_closing(state, picks, rewritten)
        if (kind, "score" in payload) != (closing, bool(state.scores)):
            scored = "a scored" if state.scores else "an unscored"
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
        state.phase = "finished"
    if derived is not None and not derived.items() <= payload.items():
        wrong = ", ".join(key for key, value in derived.items() if payload.get(key) != value)
        raise LogError(f"event {event.seq}: {kind} does not record the derived {wrong}")
    if kind in COMMIT_KINDS:
        state.scores = []
        state.failed = False
        if "chat_calls" in PAYLOAD_FIELDS[kind]:
            calls = payload["chat_calls"]
            if calls.keys() != _ROLES or any(type(n) is not int or n < 0 for n in calls.values()):
                raise LogError(f"event {event.seq}: {kind} chat_calls {calls!r} is not a count >= 0 per role")
            state.chat_calls = dict(calls)
