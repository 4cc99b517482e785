"""Bundled offline demonstration scenario.

A scripted mock run in which each round's feedback summary injects domain
vocabulary, the scripted actor outputs pick it up, and the similarity to the
reference corpus rises strictly round over round. Everything is offline and
byte-reproducible; the score trajectory is a consequence of the scripted
texts under the bigram mock embedding, not of hardcoded numbers.
"""

from __future__ import annotations

import os

from .config import resolve_config
from .errors import UnfinishedLogError
from .pipeline import resume_optimization, run_optimization
from .roles import ModelRole

DEMO_TASK_PROMPT = "Schreibe einen realistischen Arztbrief aus der Kardiologie."

DEMO_CORPUS = [
    "Der Patient ist kardial stabil. Die Entlassung erfolgt morgen.",
    "Die Medikation wird unverändert fortgeführt.",
]

_PLANS = [
    "Schreibe einen kurzen Brief. Nenne den Anlass. Schließe freundlich.",
    "Schreibe einen Arztbrief. Nenne den Zustand des Patienten. Nenne die Medikation.",
    "Schreibe einen Arztbrief. Beschreibe den stabilen Zustand. Nenne Medikation und Entlassung.",
    "Schreibe einen Arztbrief. Übernimm die übliche Formulierung zu Zustand, Medikation und Entlassung.",
]

_ACTOR_ROUNDS = [
    "Heute scheint die Sonne über dem weiten Park.",
    "Der Brief an den Hausarzt folgt in Kürze.",
    "Der Patient bleibt stabil und erhält die Medikation weiter.",
    "Die Entlassung des Patienten erfolgt nach der Visite.",
    "Der Patient ist kardial stabil. Die Entlassung erfolgt morgen früh.",
    "Die Medikation wird unverändert fortgeführt. Der Patient ist stabil.",
]

_ACTOR_MUTATION = [
    # step 1: accepted (beats the archive minimum, the round-1 mean)
    "Der Patient ist kardial stabil. Die Entlassung erfolgt morgen.",
    "Die Medikation wird unverändert weitergeführt.",
    # step 2: rejected (falls below the new archive minimum)
    "Heute Regen und Wind im Park.",
    "Der Zug nach Berlin hat Verspätung.",
]

_DIAGNOSTIC = [
    "Der Text hat keinen medizinischen Bezug; es fehlen Zustand, Medikation und Entlassung.",
]

_GENERAL = [
    "Die Briefform stimmt; der Bezug zum Hausarzt ist ein guter Anfang.",
    "Zustand und Medikation sind nun benannt; diesen Wortschatz beibehalten.",
    "Die Entlassung ist erwähnt; Struktur des Satzes passt zum Zielbild.",
    "Formulierung liegt nah an typischen Briefen; kardial stabil ist der richtige Ton.",
    "Medikationssatz ist nahezu deckungsgleich mit dem Zielbild; beibehalten.",
]

_SUMMARIES = [
    "Es fehlt medizinischer Wortschatz: Zustand des Patienten, Medikation, Entlassung ergänzen.",
    "Wortschatz stimmt zunehmend; Formulierungen weiter an typische Arztbriefe angleichen.",
    "Formulierungen sind nahezu deckungsgleich; nur noch Feinschliff an einzelnen Sätzen.",
]

_MUTATIONS = [
    "Verwende die übliche Formulierung zu Zustand, Medikation und Entlassung.",
    "Formuliere den Schlusssatz des Briefes knapper.",
]

DEMO_CONFIG_DOC = {
    "version": 1,
    "backend": {"kind": "mock"},
    "engine": {
        "samples_per_round": 2,
        "best_capacity": 3,
        "worst_capacity": 3,
        "max_rounds": 4,
        "mutation_budget": 2,
        "seed": 42,
    },
    "scripts": {
        ModelRole.PROMPTING.value: _PLANS,
        ModelRole.ACTOR.value: _ACTOR_ROUNDS + _ACTOR_MUTATION,
        ModelRole.DIAGNOSTIC_FEEDBACK.value: _DIAGNOSTIC,
        ModelRole.GENERAL_FEEDBACK.value: _GENERAL,
        ModelRole.SUMMARIZER.value: _SUMMARIES,
        ModelRole.MUTATOR.value: _MUTATIONS,
    },
    "corpus_path": "<bundled>",
    "output_dir": "runs",
}


def run_demo(output_dir) -> str:
    """Run the bundled scenario into ``output_dir``; returns the log path.
    A demo log there that holds an unfinished run is continued instead."""
    doc = dict(DEMO_CONFIG_DOC)
    doc["output_dir"] = os.fspath(output_dir)
    cli_config = resolve_config(doc, env={})
    try:
        return run_optimization(cli_config, DEMO_TASK_PROMPT, corpus_texts=DEMO_CORPUS)
    except UnfinishedLogError as exc:
        return resume_optimization(
            cli_config, exc.path, corpus_texts=DEMO_CORPUS, expected_task_prompt=DEMO_TASK_PROMPT
        )
