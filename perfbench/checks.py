"""Output checks run on every repeat, with an embedding written apart from
the program's.

:class:`BigramEmbedder` derives the byte-bigram embedding from its
definition (FNV-1a-64 of each UTF-8 byte pair, bucketed modulo the
dimension, L2-normalized) through a 65,536-entry lookup table. The HTTP stub
serves the same vectors, so every recorded score of every workload can be
recomputed here.
"""

from __future__ import annotations

import json

import numpy as np

SCORE_TOLERANCE = 1e-12


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's expectation."""


def _fnv1a64(data: bytes) -> int:
    h = 14695981039346656037
    for byte in data:
        h = ((h ^ byte) * 1099511628211) % 2**64
    return h


class BigramEmbedder:
    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.table = np.array(
            [_fnv1a64(bytes((a, b))) % dim for a in range(256) for b in range(256)],
            dtype=np.intp,
        )

    def embed(self, text: str) -> np.ndarray:
        raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.intp)
        counts = np.bincount(self.table[raw[:-1] * 256 + raw[1:]], minlength=self.dim)
        vec = counts.astype(np.float64)
        norm = np.sqrt(np.dot(vec, vec))
        return vec / norm if norm > 0 else vec


class ScoreOracle:
    """Mean cosine of a text against the corpus, memoized by text."""

    def __init__(self, documents: list[str], dim: int) -> None:
        self.embedder = BigramEmbedder(dim)
        self.matrix = np.stack([self.embedder.embed(doc) for doc in documents])
        self._scores: dict[str, float] = {}

    def score(self, text: str) -> float:
        if text not in self._scores:
            self._scores[text] = float(np.mean(self.matrix @ self.embedder.embed(text)))
        return self._scores[text]


def read_lines(path: str) -> tuple[dict, list[str]]:
    """The manifest without its wall-clock ``created_at``, and the event lines."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    manifest = json.loads(lines[0])
    manifest.pop("created_at", None)
    return manifest, [line for line in lines[1:] if line]


def check_scores(event_lines: list[str], oracle: ScoreOracle) -> int:
    """Every SampleScored score equals the oracle's score of its sample text;
    returns the number of scores checked."""
    texts: dict[tuple[str, int], str] = {}
    checked = 0
    for line in event_lines:
        event = json.loads(line)
        payload = event["payload"]
        key = (payload.get("candidate_id"), payload.get("sample_index"))
        if event["kind"] == "SampleGenerated":
            texts[key] = payload["text"]
        elif event["kind"] == "SampleScored":
            expected = oracle.score(texts[key])
            if abs(payload["score"] - expected) > SCORE_TOLERANCE:
                raise CheckFailed(
                    f"event {event['seq']}: score {payload['score']!r} != oracle {expected!r}"
                )
            checked += 1
    if not checked:
        raise CheckFailed("log holds no SampleScored events")
    return checked


def check_same_log(actual: tuple[dict, list[str]], expected: tuple[dict, list[str]], what: str) -> None:
    if actual[0] != expected[0]:
        raise CheckFailed(f"{what}: manifest differs")
    if actual[1] != expected[1]:
        mismatch = next(
            (i for i, (a, b) in enumerate(zip(actual[1], expected[1])) if a != b),
            min(len(actual[1]), len(expected[1])),
        )
        raise CheckFailed(
            f"{what}: event lines differ from event {mismatch + 1}"
            f" ({len(actual[1])} vs {len(expected[1])} events)"
        )


def check_report(report_text: str, event_lines: list[str]) -> None:
    finished = json.loads(event_lines[-1])
    if finished["kind"] != "RunFinished":
        raise CheckFailed("log does not end in RunFinished")
    report = json.loads(report_text)
    final = finished["payload"]
    if report.get("best_score") != final["best_score"]:
        raise CheckFailed(f"report best_score {report.get('best_score')!r} != {final['best_score']!r}")
    if len(report.get("rounds", ())) != final["rounds"]:
        raise CheckFailed(f"report has {len(report.get('rounds', ()))} rounds, run had {final['rounds']}")


def cut_before_final_transition(finished_path: str, cut_path: str) -> None:
    """Copy a finished log up to, not including, its last PhaseTransition."""
    with open(finished_path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    last = max(
        i for i, line in enumerate(lines[1:], start=1)
        if line and json.loads(line)["kind"] == "PhaseTransition"
    )
    with open(cut_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines[:last]) + "\n")
