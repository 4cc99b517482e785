"""Benchmark workloads and their seeded inputs.

Each workload is a fixed shape (corpus size, document length, rounds,
mutation steps, backend); the seed only chooses the words. So the amount of
work a run does is the same for every seed, and run-to-run spread measures
the machine rather than the inputs. The program sees only what
:func:`build_inputs` writes: a corpus file, a config document with scripts,
and a task prompt.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass

_SYLLABLES = (
    "ka", "re", "di", "an", "lo", "tum", "ber", "ich", "sen", "ga", "mo", "ri",
    "pa", "tel", "us", "ver", "ab", "schl", "ung", "ke", "it", "no", "ü", "ö",
)


@dataclass(frozen=True)
class Latency:
    """Modelled delays of the HTTP stub, in seconds.

    ``chat`` is slept per chat request, ``embed + embed_per_text * n`` per
    embed request of ``n`` texts, all multiplied by ``scale``.
    """

    chat: float
    embed: float
    embed_per_text: float
    scale: float = 1.0

    def scaled(self) -> tuple[float, float, float]:
        return self.chat * self.scale, self.embed * self.scale, self.embed_per_text * self.scale


#: Remote-model delays taken from the example responses in Ollama's REST API
#: documentation (docs/api.md of github.com/ollama/ollama). A non-streaming
#: ``/api/chat`` reply of 298 generated tokens reports ``total_duration``
#: 5.19 s. An ``/api/embed`` request of one short input reports
#: ``total_duration`` 14.1 ms, of which ``load_duration`` is 1.0 ms. That
#: example has one input, so it does not say how the time splits between
#: request and text; the split below charges the load time per request and
#: the rest per text. The benchmark runs them at 1/100 to fit a run of tens
#: of seconds; the scale keeps every ratio between chat and embed time.
OLLAMA_DOC_LATENCY = Latency(chat=5.19, embed=0.0010, embed_per_text=0.0131, scale=0.01)


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "mock" | "http"
    documents: int
    doc_bytes: int
    dim: int
    samples_per_round: int
    rounds: int  # archive capacity: the best archive fills after this many rounds
    mutation_steps: int
    plan_bytes: int
    actor_bytes: int
    actor_pool: int | None  # None: every actor output distinct (cache misses)
    setup_reps: int  # setup calls per cycle; the last one's runtime is optimized
    resume_reps: int
    report_reps: int
    latency: Latency | None = None

    def small(self) -> "Workload":
        """A reduced copy for the smoke test: same layers, little work."""
        latency = self.latency and Latency(0.001, 0.001, 0.0)
        return dataclasses.replace(
            self,
            documents=min(self.documents, 12),
            doc_bytes=min(self.doc_bytes, 300),
            rounds=min(self.rounds, 3),
            mutation_steps=min(self.mutation_steps, 2),
            setup_reps=1,
            resume_reps=1,
            report_reps=1,
            latency=latency,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="latency-http",
            backend="http",
            documents=200,
            doc_bytes=600,
            dim=128,
            samples_per_round=4,
            rounds=4,
            mutation_steps=4,
            plan_bytes=600,
            actor_bytes=500,
            actor_pool=None,
            setup_reps=3,
            resume_reps=3,
            report_reps=12,
            latency=OLLAMA_DOC_LATENCY,
        ),
        Workload(
            name="corpus-1k",
            backend="mock",
            documents=1000,
            doc_bytes=2000,
            dim=768,
            samples_per_round=8,
            rounds=3,
            mutation_steps=3,
            plan_bytes=600,
            actor_bytes=1000,
            actor_pool=None,
            setup_reps=1,
            resume_reps=1,
            report_reps=10,
        ),
        Workload(
            name="resume-long",
            backend="mock",
            documents=6,
            doc_bytes=400,
            dim=64,
            samples_per_round=4,
            rounds=60,
            mutation_steps=60,
            plan_bytes=1000,
            actor_bytes=800,
            actor_pool=6,
            setup_reps=10,
            resume_reps=1,
            report_reps=2,
        ),
    )
}


class TextGen:
    """Seeded pseudo-German prose: sentences start upper-case and end in a
    full stop, so the program's sentence splitter sees real boundaries."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.words = [
            "".join(self.rng.choice(_SYLLABLES) for _ in range(self.rng.randint(1, 4)))
            for _ in range(600)
        ]

    def sentence(self) -> str:
        words = [self.rng.choice(self.words) for _ in range(self.rng.randint(5, 14))]
        return words[0].capitalize() + " " + " ".join(words[1:]) + "."

    def text(self, nbytes: int) -> str:
        sentences: list[str] = []
        size = -1
        while size < nbytes:
            sentences.append(self.sentence())
            size += len(sentences[-1].encode("utf-8")) + 1
        return " ".join(sentences)


@dataclass
class Inputs:
    corpus_path: str
    config: dict
    task_prompt: str


def build_inputs(workload: Workload, seed: int, workdir: str, base_url: str = "") -> Inputs:
    """Write the corpus file and return the config and task prompt."""
    gen = TextGen(seed)
    corpus_path = f"{workdir}/corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as handle:
        for _ in range(workload.documents):
            record = {"text": gen.text(workload.doc_bytes)}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")

    w = workload
    config = {
        "version": 1,
        "engine": {
            "samples_per_round": w.samples_per_round,
            "best_capacity": w.rounds,
            "worst_capacity": w.rounds,
            "max_rounds": w.rounds + 1,
            "mutation_budget": w.mutation_steps,
            "seed": seed,
        },
        "corpus_path": corpus_path,
        "output_dir": workdir,
    }
    if w.backend == "http":
        config["backend"] = {"kind": "http", "base_url": base_url, "timeout": 30.0}
    else:
        config["backend"] = {"kind": "mock", "mock_embedding_dim": w.dim}
        config["scripts"] = _scripts(w, gen)
    return Inputs(corpus_path, config, gen.sentence())


def _scripts(w: Workload, gen: TextGen) -> dict:
    """Enough scripted replies for every call of the run, so the mock never
    falls back to echoing its requests. Routing is score-dependent, so both
    feedback queues get one reply per sample."""
    actor_calls = w.samples_per_round * (w.rounds + w.mutation_steps)
    if w.actor_pool is None:
        actor = [gen.text(w.actor_bytes) for _ in range(actor_calls)]
    else:
        pool = [gen.text(w.actor_bytes) for _ in range(w.actor_pool)]
        actor = [pool[i % len(pool)] for i in range(actor_calls)]
    feedback = w.samples_per_round * w.rounds
    return {
        "prompting": [gen.text(w.plan_bytes) for _ in range(w.rounds + 1)],
        "actor": actor,
        "diagnostic_feedback": [gen.text(200) for _ in range(feedback)],
        "general_feedback": [gen.text(200) for _ in range(feedback)],
        "summarizer": [gen.text(300) for _ in range(w.rounds)],
        "mutator": [gen.sentence() for _ in range(w.mutation_steps)],
    }
