"""Fixed user-message composition for each role request.

These templates are part of the determinism contract: given the same inputs
they produce byte-identical request texts. Scores are embedded with their
shortest round-trip decimal form.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def compose_step_plan_request(
    task_prompt: str,
    feedback_summary: str | None = None,
    best_entries: Sequence = (),
    worst_entries: Sequence = (),
) -> str:
    """Context for the prompting role: the task, the latest feedback summary,
    and the archived prompts with scores (best before worst, each exactly
    once, as the entry's ``listing``: ``(score=…) step_plan``). With no
    summary and empty archives this is the task alone."""
    parts = [task_prompt]
    if feedback_summary is not None:
        parts.append("Feedback summary of the last round:\n" + feedback_summary)
    if best_entries:
        parts.append("Highest-scoring prompts so far:\n" + _entry_block(best_entries))
    if worst_entries:
        parts.append("Lowest-scoring prompts so far:\n" + _entry_block(worst_entries))
    if len(parts) > 1:
        parts.append(
            "Write an improved step-by-step prompt that keeps what worked"
            " and fixes what fell short."
        )
    return "\n\n".join(parts)


def _entry_block(entries: Iterable) -> str:
    """One numbered line per entry, its ``listing`` rendered once per entry."""
    return "\n".join(f"{i}. {entry.listing}" for i, entry in enumerate(entries, start=1))


def compose_feedback_request(step_plan: str, output_text: str, score: float) -> str:
    """Context for both feedback roles: prompt, output, and the score verbatim."""
    return (
        "Prompt:\n"
        + step_plan
        + "\n\nGenerated output:\n"
        + output_text
        + "\n\nSimilarity score: "
        + repr(score)
    )


def compose_summary_request(feedback_texts: Sequence[str]) -> str:
    """Context for the summarizer: all feedback items in sample order."""
    return "\n\n".join(
        f"Feedback {i}:\n{text}" for i, text in enumerate(feedback_texts, start=1)
    )


def compose_mutation_request(step_plan: str, sentence: str) -> str:
    """Context for the mutator: the full prompt plus the one sentence to rewrite."""
    return (
        "Full prompt:\n"
        + step_plan
        + "\n\nRewrite exactly this sentence, preserving its meaning:\n"
        + sentence
    )
