"""Guided mutation: rewrite one random sentence of a high-scoring prompt.

Sentences are split at '.', '!' or '?' when followed by whitespace and an
uppercase letter or digit (or at end of text). The rule is deterministic and
language-agnostic; abbreviations like "Dr." followed by an uppercase word do
split — a documented limitation accepted for reproducibility.
"""

from __future__ import annotations

import re
from typing import Callable

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


def draw_picks(state) -> Picks:
    """Draw the next mutation step's archive pick, then its sentence pick.

    The draws run on a copy of the run's generator: the state moves on only
    when the step's outcome event is applied.
    """
    rng = SplitMix64(state.rng.state)
    entries = state.best.entries
    archive_index = rng.below(len(entries))
    source = entries[archive_index]
    sentences = segment_sentences(source.step_plan)
    sentence_index = rng.below(len(sentences))
    return Picks(state.mutation_step + 1, source, archive_index, sentence_index, rng.state, sentences)


def run_mutation_phase(engine) -> None:
    """Drive the whole mutation phase on the engine.

    Each step: pick an archive prompt and a sentence (two RNG draws, in that
    order; step 1's come with its rewrite sent ahead), rewrite, evaluate the
    mutant, and log the event :func:`promptloop.state.step_closing` derives.
    A step's rewrite is a text, None (no usable rewrite, so nothing to
    evaluate) or a backend error, which is logged and ends the step; the run
    goes on. The phase ends with the PhaseTransition
    :func:`promptloop.state.phase_transition` derives once no step is due.
    """
    state = engine.state
    while step_due(state):
        picks = engine._ahead[0] if engine._ahead else draw_picks(state)
        rewritten = None
        try:
            rewritten = rewrite_sentence(engine._chat, picks)
            if rewritten is not None:
                engine.draw_samples(picks.applied(rewritten)["step_plan"])
        except BACKEND_ERRORS as exc:
            engine.record("BackendFailure", {**backend_failure(state), "message": str(exc)})
        engine.record(*step_closing(state, picks, rewritten), picks)
    engine.record("PhaseTransition", phase_transition(state))
