"""Guided mutation: rewrite one random sentence of a high-scoring prompt.

Sentences are split at '.', '!' or '?' when followed by whitespace and an
uppercase letter or digit (or at end of text). The rule is deterministic and
language-agnostic; abbreviations like "Dr." followed by an uppercase word do
split — a documented limitation accepted for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from . import templates
from .errors import DegenerateInputError, EmptyResponseError, MutationRejectedError
from .roles import ModelRole

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine, PromptCandidate, SplitMix64

_TERMINATORS = ".!?"

#: Chat callable signature used by the mutation operations.
ChatFn = Callable[[ModelRole, str], str]


@dataclass(frozen=True)
class SentenceSegmentation:
    sentences: tuple[str, ...]
    joiner: str = " "

    def join(self) -> str:
        return self.joiner.join(self.sentences)


def segment_sentences(text: str) -> SentenceSegmentation:
    """Split text into sentences, keeping terminators on their sentence.

    Joining the sentences with a single space reproduces the source content
    in order, up to whitespace normalization.
    """
    stripped = text.strip()
    if not stripped:
        raise DegenerateInputError("cannot segment whitespace-only text")
    sentences: list[str] = []
    buffer: list[str] = []
    i = 0
    n = len(stripped)
    while i < n:
        char = stripped[i]
        buffer.append(char)
        i += 1
        if char in _TERMINATORS:
            j = i
            while j < n and stripped[j].isspace():
                j += 1
            if j > i and j < n and (stripped[j].isupper() or stripped[j].isdigit()):
                sentences.append("".join(buffer).strip())
                buffer = []
                i = j
    tail = "".join(buffer).strip()
    if tail:
        sentences.append(tail)
    return SentenceSegmentation(sentences=tuple(sentences))


@dataclass
class MutationOutcome:
    mutant: "PromptCandidate"
    sentence_index: int
    original_sentence: str
    rewritten_sentence: str
    sentences: tuple[str, ...]


def rewrite_sentence(chat: ChatFn, step_plan: str, sentence: str) -> str:
    """Ask the mutator role for a meaning-preserving rewrite; empty or
    whitespace-only rewrites raise MutationRejectedError."""
    try:
        rewritten = chat(ModelRole.MUTATOR, templates.compose_mutation_request(step_plan, sentence))
    except EmptyResponseError as exc:
        raise MutationRejectedError("mutator returned an empty rewrite") from exc
    if not rewritten.strip():
        raise MutationRejectedError("mutator returned a whitespace-only rewrite")
    return rewritten


def apply_rewrite(
    candidate: "PromptCandidate",
    segmentation: SentenceSegmentation,
    sentence_index: int,
    rewritten: str,
    mutant_id: str,
    round_no: int | None = None,
) -> MutationOutcome:
    """Replace exactly one sentence slot; if the rewrite contains several
    sentences the full text still occupies the single slot."""
    from .engine import PromptCandidate

    sentences = list(segmentation.sentences)
    original = sentences[sentence_index]
    sentences[sentence_index] = rewritten
    mutant = PromptCandidate(
        id=mutant_id,
        task_prompt=candidate.task_prompt,
        step_plan=segmentation.joiner.join(sentences),
        origin="mutated",
        round=candidate.round if round_no is None else round_no,
    )
    return MutationOutcome(
        mutant=mutant,
        sentence_index=sentence_index,
        original_sentence=original,
        rewritten_sentence=rewritten,
        sentences=tuple(sentences),
    )


def mutate_once(
    candidate: "PromptCandidate",
    rng: "SplitMix64",
    chat: ChatFn,
    mutant_id: str = "mut-0001",
    round_no: int | None = None,
) -> MutationOutcome:
    """Mutate one uniformly chosen sentence of the candidate's step plan."""
    segmentation = segment_sentences(candidate.step_plan)
    index = rng.below(len(segmentation.sentences))
    rewritten = rewrite_sentence(chat, candidate.step_plan, segmentation.sentences[index])
    return apply_rewrite(candidate, segmentation, index, rewritten, mutant_id, round_no)


def run_mutation_phase(engine: "Engine") -> None:
    """Drive the whole mutation phase on the engine.

    Each step: pick an archive prompt and a sentence (two RNG draws, in that
    order), rewrite, evaluate the mutant with the usual per-round sampling,
    and replace the archive minimum when strictly beaten. Backend failures
    skip the step; the phase itself never aborts the run.
    """
    from .engine import BACKEND_ERRORS, ArchiveEntry, round_mean

    state = engine.state
    config = engine.config
    if state.phase != "mutation":
        raise MutationRejectedError(f"mutation phase entered in phase {state.phase!r}")
    while state.mutation_step < config.mutation_budget:
        top = state.best.top_score()
        if config.score_target is not None and top is not None and top >= config.score_target:
            break
        step = state.mutation_step + 1
        ranked = state.best.ranked()
        archive_index = engine.rng.below(len(ranked))
        source = ranked[archive_index]
        segmentation = segment_sentences(source.step_plan)
        sentence_index = engine.rng.below(len(segmentation.sentences))
        picks = {
            "step": step,
            "source_candidate_id": source.candidate_id,
            "archive_index": archive_index,
            "sentence_index": sentence_index,
        }
        mutant_id = f"mut-{step:04d}"

        def reject(reason: str, extra: dict | None = None) -> None:
            state.mutation_step = step
            state.mutations_rejected += 1
            state.rng_state = engine.rng.state
            payload = dict(picks)
            payload.update(extra or {})
            payload["reason"] = reason
            payload["chat_calls"] = dict(engine.chat_calls)
            engine.log.emit("MutationRejected", payload)

        try:
            rewritten = rewrite_sentence(
                engine._chat, source.step_plan, segmentation.sentences[sentence_index]
            )
        except MutationRejectedError:
            reject("empty-rewrite")
            continue
        except BACKEND_ERRORS as exc:
            engine.log.emit(
                "BackendFailure", {"phase": "mutation", "step": step, "message": str(exc)}
            )
            reject("backend-failure")
            continue

        source_candidate = _entry_as_candidate(source, engine.task_prompt, state.round)
        outcome = apply_rewrite(
            source_candidate, segmentation, sentence_index, rewritten, mutant_id
        )
        try:
            samples = engine.draw_samples(mutant_id, outcome.mutant.step_plan)
        except BACKEND_ERRORS as exc:
            engine.log.emit(
                "BackendFailure", {"phase": "mutation", "step": step, "message": str(exc)}
            )
            reject("backend-failure")
            continue

        mutant_score = round_mean([sample.score for sample in samples])
        entry = ArchiveEntry(
            candidate_id=mutant_id,
            step_plan=outcome.mutant.step_plan,
            score=mutant_score,
            arrival=state.arrival_counter + 1,
        )
        inserted, evicted = state.best.offer(entry)
        if inserted:
            state.arrival_counter += 1
            state.mutation_step = step
            state.mutations_applied += 1
            state.rng_state = engine.rng.state
            payload = dict(picks)
            payload.update(
                {
                    "original_sentence": outcome.original_sentence,
                    "rewritten_sentence": outcome.rewritten_sentence,
                    "candidate_id": mutant_id,
                    "step_plan": outcome.mutant.step_plan,
                    "score": mutant_score,
                    "evicted_candidate_id": evicted.candidate_id if evicted else None,
                    "best": state.best.snapshot(),
                    "chat_calls": dict(engine.chat_calls),
                }
            )
            engine.log.emit("MutationApplied", payload)
        else:
            reject(
                "below-archive-minimum",
                {"candidate_id": mutant_id, "score": mutant_score},
            )
    engine.log.emit(
        "PhaseTransition", {"round": state.round, "from": "mutation", "to": "finished"}
    )
    state.phase = "finished"


def _entry_as_candidate(entry, task_prompt: str, round_no: int):
    from .engine import PromptCandidate

    return PromptCandidate(
        id=entry.candidate_id,
        task_prompt=task_prompt,
        step_plan=entry.step_plan,
        origin="refined",
        round=round_no,
        score=entry.score,
    )
