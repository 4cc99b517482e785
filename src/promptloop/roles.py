"""The six pipeline model roles and their decoding parameters.

Every chat request is issued on behalf of exactly one role; each role has one
set of sampling parameters and one system prompt. The defaults below are the
zero-config behavior and can be overridden per role in the config file.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

DEFAULT_SEED = 42


class ModelRole(enum.Enum):
    PROMPTING = "prompting"
    ACTOR = "actor"
    DIAGNOSTIC_FEEDBACK = "diagnostic_feedback"
    GENERAL_FEEDBACK = "general_feedback"
    SUMMARIZER = "summarizer"
    MUTATOR = "mutator"


@dataclass(frozen=True)
class SamplingParams:
    """Decoding parameters attached to a single chat request."""

    temperature: float
    top_k: int
    top_p: float
    seed: int = DEFAULT_SEED

    def as_options(self) -> dict:
        """Options block for the wire protocol."""
        return {
            "temperature": self.temperature,
            "top_k": self.top_k,
            "top_p": self.top_p,
            "seed": self.seed,
        }


#: Default sampling parameters per role.
DEFAULT_ROLE_PARAMS: dict[ModelRole, SamplingParams] = {
    ModelRole.PROMPTING: SamplingParams(temperature=0.5, top_k=40, top_p=0.85),
    ModelRole.ACTOR: SamplingParams(temperature=0.8, top_k=50, top_p=0.9),
    ModelRole.DIAGNOSTIC_FEEDBACK: SamplingParams(temperature=0.3, top_k=5, top_p=0.5),
    ModelRole.GENERAL_FEEDBACK: SamplingParams(temperature=0.3, top_k=5, top_p=0.5),
    ModelRole.SUMMARIZER: SamplingParams(temperature=0.2, top_k=5, top_p=0.5),
    ModelRole.MUTATOR: SamplingParams(temperature=0.7, top_k=20, top_p=0.9),
}

#: Default system prompts per role. These are plain defaults, not tuned values;
#: override them in the config file for serious runs.
DEFAULT_SYSTEM_PROMPTS: dict[ModelRole, str] = {
    ModelRole.PROMPTING: (
        "You write step-by-step writing instructions. Break the given task into"
        " a numbered sequence of concrete steps a text generator can follow."
        " When a feedback summary and example prompts with scores are given,"
        " keep what scored well and fix what scored poorly."
        " Reply with the instructions only."
    ),
    ModelRole.ACTOR: (
        "You are a text generator. Follow the given step-by-step instructions"
        " exactly and produce one complete document."
        " Reply with the document only."
    ),
    ModelRole.DIAGNOSTIC_FEEDBACK: (
        "You review a generated document that scored below the quality"
        " threshold. Name the specific weaknesses of the prompt and the output,"
        " and state concretely what the prompt must change."
    ),
    ModelRole.GENERAL_FEEDBACK: (
        "You review a generated document that met the quality threshold."
        " Name the elements of the prompt that worked and must be preserved."
    ),
    ModelRole.SUMMARIZER: (
        "You merge several feedback notes on one round of generated documents"
        " into a short summary of the common trends. Keep every actionable"
        " point, drop repetition."
    ),
    ModelRole.MUTATOR: (
        "You rewrite exactly one sentence so that its meaning is preserved"
        " while the wording changes. Reply with the rewritten sentence only."
    ),
}
