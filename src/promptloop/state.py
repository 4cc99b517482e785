"""Run state and the one function that changes it.

:func:`apply` takes the state and one logged event and moves the state on.
The engine applies every event it emits, and replay folds a log through the
same function, so a resumed run restarts from exactly the state the live run
had. Events repeat values the engine derived (round means, archive
snapshots, RNG picks); ``apply`` recomputes each one and raises
:class:`LogError` when the event disagrees, so a tampered or corrupt log is
rejected rather than replayed.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass, field, replace

from .errors import LogError

_MASK64 = (1 << 64) - 1

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
    """Exact arithmetic mean of the given scores."""
    return statistics.mean(scores)


@dataclass(frozen=True)
class PromptCandidate:
    id: str
    task_prompt: str
    step_plan: str
    origin: str  # "initial" | "refined"
    round: int
    score: float | None = None


@dataclass(frozen=True)
class ArchiveEntry:
    candidate_id: str
    step_plan: str
    score: float
    arrival: int


class PromptArchive:
    """Bounded archive of the highest- (keep="best") or lowest- (keep="worst")
    scoring candidates seen so far.

    A full archive replaces its boundary entry only on strict improvement;
    on score ties the incumbent is retained. Among tied boundary scores the
    latest arrival is the one evicted, so the archive always equals the
    brute-force top-k (or bottom-k) of the arrival stream.
    """

    def __init__(self, capacity: int, keep: str = "best") -> None:
        if capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        if keep not in ("best", "worst"):
            raise ValueError(f"keep must be 'best' or 'worst', got {keep!r}")
        self.capacity = capacity
        self.keep = keep
        self.entries: list[ArchiveEntry] = []  # in rank order, best first

    def _rank_key(self, entry: ArchiveEntry):
        # Lower key = better rank. Earlier arrivals outrank ties.
        if self.keep == "best":
            return (-entry.score, entry.arrival)
        return (entry.score, entry.arrival)

    def ranked(self) -> list[ArchiveEntry]:
        return list(self.entries)

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    def boundary_score(self) -> float | None:
        """Worst retained score: the minimum for a best archive, the maximum
        for a worst archive; None while empty."""
        return self.entries[-1].score if self.entries else None

    def top_score(self) -> float | None:
        return self.entries[0].score if self.entries else None

    def offer(self, entry: ArchiveEntry) -> tuple[bool, ArchiveEntry | None]:
        """Insert the entry if it belongs; returns (inserted, evicted)."""
        evicted = None
        if self.is_full:
            weakest = self.entries[-1]
            improves = entry.score > weakest.score if self.keep == "best" else entry.score < weakest.score
            if not improves:
                return False, None
            evicted = self.entries.pop()
        bisect.insort(self.entries, entry, key=self._rank_key)
        return True, evicted

    def snapshot(self) -> list[dict]:
        return [
            {"candidate_id": e.candidate_id, "score": e.score, "arrival": e.arrival}
            for e in self.entries
        ]

    def clone(self) -> "PromptArchive":
        copy = PromptArchive(self.capacity, self.keep)
        copy.entries = list(self.entries)
        return copy

    def __len__(self) -> int:
        return len(self.entries)


def update_archives(
    best: PromptArchive, worst: PromptArchive, candidate: PromptCandidate, arrival: int
) -> tuple[PromptArchive, PromptArchive]:
    """Offer a scored candidate to both archives."""
    if candidate.score is None:
        raise ValueError("candidate must be scored before archiving")
    entry = ArchiveEntry(
        candidate_id=candidate.id,
        step_plan=candidate.step_plan,
        score=candidate.score,
        arrival=arrival,
    )
    best.offer(entry)
    worst.offer(entry)
    return best, worst


@dataclass(frozen=True)
class Picks:
    """The two RNG draws of one mutation step, with the generator state they
    leave behind."""

    step: int
    source: ArchiveEntry
    archive_index: int
    sentence_index: int
    rng_after: int

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
    #: Chat calls per role as of the latest commit event.
    chat_calls: dict[str, int] = field(default_factory=dict)
    #: Scores logged since the latest commit event (the open round or step).
    scores: list[float] = field(default_factory=list)

    @classmethod
    def initial(cls, config) -> "EngineState":
        return cls(
            best=PromptArchive(config.best_capacity, keep="best"),
            worst=PromptArchive(config.worst_capacity, keep="worst"),
            rng=SplitMix64(config.seed),
        )

    def clone(self) -> "EngineState":
        return replace(
            self,
            best=self.best.clone(),
            worst=self.worst.clone(),
            rng=SplitMix64(self.rng.state),
            chat_calls=dict(self.chat_calls),
            scores=list(self.scores),
        )


#: The phase an event of each kind may occur in. A PhaseTransition must start
#: from the current phase.
_PHASE_OF = {
    "RoundStarted": "feedback_loop",
    "MutationApplied": "mutation",
    "MutationRejected": "mutation",
}


def _check_mean(event, scores: list[float], value: float) -> None:
    if not scores or value != round_mean(scores):
        raise LogError(
            f"event {event.seq}: {event.kind} score {value!r} is not the mean of its logged samples"
        )


def apply(state: EngineState, event, picks: Picks | None = None) -> None:
    """Move the state on by one logged event.

    ``picks`` are the RNG draws of the mutation step a MutationApplied or
    MutationRejected event closes; the event must record the same ones.
    Events that only carry text (samples, feedback, summaries, failures)
    leave the state as it is.
    """
    kind, payload = event.kind, event.payload
    expected = payload.get("from") if kind == "PhaseTransition" else _PHASE_OF.get(kind, state.phase)
    if expected != state.phase:
        raise LogError(f"event {event.seq}: {kind} in phase {state.phase!r}, expected {expected!r}")
    if kind == "RunStarted":
        state.task_prompt = payload["task_prompt"]
    elif kind == "RoundStarted":
        current = state.current
        if current is None or (current.id, current.step_plan) != (
            payload["candidate_id"],
            payload["step_plan"],
        ):
            raise LogError(f"event {event.seq}: the round does not run the current prompt")
    elif kind == "SampleScored":
        state.scores.append(payload["score"])
    elif kind == "ThresholdUpdated":
        value = payload["value"]
        _check_mean(event, state.scores, value)
        if state.threshold is not None and value < state.threshold:
            raise LogError(f"event {event.seq}: threshold decreased")
        state.threshold = value
    elif kind == "ArchivesUpdated":
        _check_mean(event, state.scores, payload["score"])
        if state.threshold is None or payload["score"] > state.threshold:
            raise LogError(f"event {event.seq}: the round's threshold update is missing")
        state.arrival_counter += 1
        scored = replace(state.current, score=payload["score"])
        update_archives(state.best, state.worst, scored, state.arrival_counter)
        if state.best.snapshot() != payload["best"] or state.worst.snapshot() != payload["worst"]:
            raise LogError(f"event {event.seq}: archive snapshot mismatch")
    elif kind == "PromptRegenerated":
        state.current = PromptCandidate(
            id=payload["candidate_id"],
            task_prompt=state.task_prompt,
            step_plan=payload["step_plan"],
            origin=payload["origin"],
            round=payload["for_round"],
        )
        state.round = payload["round"]
    elif kind == "PhaseTransition":
        state.phase = payload["to"]
    elif kind in MUTATION_KINDS:
        if picks is None or any(payload.get(key) != value for key, value in picks.payload().items()):
            raise LogError(f"event {event.seq}: RNG draws do not match the recorded picks")
        state.rng.state = picks.rng_after
        if "score" in payload:
            _check_mean(event, state.scores, payload["score"])
        if kind == "MutationApplied":
            state.arrival_counter += 1
            entry = ArchiveEntry(
                candidate_id=payload["candidate_id"],
                step_plan=payload["step_plan"],
                score=payload["score"],
                arrival=state.arrival_counter,
            )
            inserted, _ = state.best.offer(entry)
            if not inserted or state.best.snapshot() != payload["best"]:
                raise LogError(f"event {event.seq}: mutation archive mismatch")
            state.mutations_applied += 1
        else:
            state.mutations_rejected += 1
        state.mutation_step = payload["step"]
    elif kind == "RunFinished":
        state.phase = "finished"
    if kind in COMMIT_KINDS:
        state.scores = []
        if "chat_calls" in payload:
            state.chat_calls = dict(payload["chat_calls"])


class Fold:
    """A run state folded from events, and a copy of it as of the latest
    commit event: the state a resumed run restarts from and the state an
    aborted round rolls back to."""

    def __init__(self, state: EngineState) -> None:
        self.state = state
        self.committed = state.clone()
        self.committed_seq = 0

    def apply(self, event, picks: Picks | None = None) -> None:
        apply(self.state, event, picks)
        if event.kind in COMMIT_KINDS:
            self.committed = self.state.clone()
            self.committed_seq = event.seq

    def rollback(self) -> None:
        """Drop every change made since the latest commit event."""
        self.state = self.committed.clone()
