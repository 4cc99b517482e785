"""Guided mutation: rewrite one random sentence of a high-scoring prompt.

Sentences are split at '.', '!' or '?' when followed by whitespace and an
uppercase letter or digit (or at end of text). The rule is deterministic and
language-agnostic; abbreviations like "Dr." followed by an uppercase word do
split — a documented limitation accepted for reproducibility.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Callable, Iterator

from . import templates
from .errors import BACKEND_ERRORS, DegenerateInputError, EmptyResponseError
from .roles import ModelRole
from .state import Picks, SplitMix64, backend_failure, phase_transition, step_closing, step_due

#: A terminator and the whitespace after it. For str patterns ``\s`` is
#: exactly ``str.isspace``; the test on the character that follows stays in
#: Python, because ``\d`` and ``[A-Z]`` disagree with ``str.isdigit`` and
#: ``str.isupper`` on characters such as "²", "Ⅷ" and "Ü".
_BOUNDARY = re.compile(r"[.!?]\s+")


def segment_sentences(text: str) -> tuple[str, ...]:
    """Split text into sentences, keeping terminators on their sentence.

    Joining the sentences with a single space reproduces the source content
    in order, up to whitespace normalization.
    """
    stripped = text.strip()
    if not stripped:
        raise DegenerateInputError("cannot segment whitespace-only text")
    sentences: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(stripped):
        # The stripped text never ends in whitespace, so a character follows.
        following = stripped[match.end()]
        if following.isupper() or following.isdigit():
            sentences.append(stripped[start : match.start() + 1])
            start = match.end()
    sentences.append(stripped[start:])
    return tuple(sentences)


def rewrite_request(picks: Picks) -> tuple[ModelRole, str]:
    """A mutation step's rewrite request: the mutator role, asked about the
    picked prompt and its picked sentence."""
    return ModelRole.MUTATOR, templates.compose_mutation_request(picks.source.step_plan, picks.original)


def rewrite_sentence(chat: Callable[[ModelRole, str], str], picks: Picks) -> str | None:
    """Ask the mutator role for a meaning-preserving rewrite of the picked
    sentence; None for an empty or whitespace-only one. Any other backend
    error is raised."""
    try:
        rewritten = chat(*rewrite_request(picks))
    except EmptyResponseError:
        return None
    return rewritten if rewritten.strip() else None


def draw(entries, rng_state: int, step: int) -> Picks:
    """Draw step ``step``'s archive pick from the best archive's ``entries``,
    then its sentence pick, on a generator at ``rng_state``: the state the
    step's outcome event leaves is the picks' ``rng_after``."""
    rng = SplitMix64(rng_state)
    archive_index = rng.below(len(entries))
    source = entries[archive_index]
    sentences = segment_sentences(source.step_plan)
    sentence_index = rng.below(len(sentences))
    return Picks(step, source, archive_index, sentence_index, rng.state, sentences)


def draw_picks(state) -> Picks:
    """Draw the next mutation step's picks from the run's generator state;
    the state moves on only when the step's outcome event is applied."""
    return draw(state.best.entries, state.rng.state, state.mutation_step + 1)


def picks_ahead(state, picks: Picks) -> Iterator[tuple[tuple[int, int], Picks]]:
    """``picks``, drawn from the state as it is, then the picks of each later
    step while :func:`promptloop.state.step_due` would hold, each drawn from
    the generator state the one before leaves, over the best archive as it
    is: the steps' picks if the steps in between leave the archive alone.
    Each comes with what it was drawn from: the generator state and the
    archive's length. Lazy, so only the picks taken are drawn."""
    entries = state.best.entries
    drawn_from = (state.rng.state, len(entries))
    while True:
        yield drawn_from, picks
        if not step_due(replace(state, mutation_step=picks.step)):
            return
        drawn_from = (picks.rng_after, len(entries))
        picks = draw(entries, picks.rng_after, picks.step + 1)


def run_mutation_phase(engine) -> None:
    """Drive the whole mutation phase on the engine.

    Each step: take the step's picks (two RNG draws, archive then sentence)
    from the engine (see :meth:`promptloop.engine.Engine.step_picks`),
    rewrite through :meth:`promptloop.engine.Engine.rewrite`, which hands
    out the outcome of a request sent ahead or sends it at the step's turn,
    evaluate the mutant, and log the event
    :func:`promptloop.state.step_closing` derives. A step's rewrite is a
    text, None (no usable rewrite, so nothing to evaluate) or a backend
    error, which is logged and ends the step; the run goes on. The phase
    ends with the PhaseTransition :func:`promptloop.state.phase_transition`
    derives once no step is due.
    """
    state = engine.state
    while step_due(state):
        picks = engine.step_picks()
        rewritten = None
        try:
            rewritten = rewrite_sentence(engine.rewrite, picks)
            if rewritten is not None:
                engine.draw_samples(picks.applied(rewritten)["step_plan"])
        except BACKEND_ERRORS as exc:
            engine.record("BackendFailure", {**backend_failure(state), "message": str(exc)})
        engine.record(*step_closing(state, picks, rewritten), picks)
    engine.record("PhaseTransition", phase_transition(state))
