"""Append-only, replayable event log of an optimization run.

The log file is UTF-8 JSONL: the first line is the run manifest, every
following line one event. Events are canonically serialized (sorted keys,
compact separators, shortest round-trip decimals), so log equality is a byte
comparison. Timestamps inside events are logical (equal to the sequence
number); wall-clock time appears only in the manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import DigestMismatchError, LogError
from .mutation import draw_picks
from .state import MUTATION_KINDS, EngineState, Fold

ARTIFACT_VERSION = "0.1.0"

EVENT_KINDS = frozenset(
    {
        "RunStarted",
        "RoundStarted",
        "SampleGenerated",
        "SampleScored",
        "FeedbackIssued",
        "RoundSummarized",
        "ThresholdUpdated",
        "ArchivesUpdated",
        "PromptRegenerated",
        "PhaseTransition",
        "MutationApplied",
        "MutationRejected",
        "BackendFailure",
        "RunFinished",
    }
)


def canonical_json(value) -> str:
    return json.dumps(
        value, sort_keys=True, ensure_ascii=False, separators=(",", ":"), allow_nan=False
    )


@dataclass(frozen=True)
class RunEvent:
    seq: int
    ts: int
    kind: str
    payload: dict

    def to_line(self) -> str:
        return canonical_json({"seq": self.seq, "ts": self.ts, "kind": self.kind, "payload": self.payload})

    @classmethod
    def from_line(cls, line: str) -> "RunEvent":
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogError(f"corrupt event line: {exc}") from exc
        try:
            event = cls(seq=raw["seq"], ts=raw["ts"], kind=raw["kind"], payload=raw["payload"])
        except (KeyError, TypeError) as exc:
            raise LogError(f"event line missing fields: {line[:80]!r}") from exc
        if event.kind not in EVENT_KINDS:
            raise LogError(f"unknown event kind {event.kind!r}")
        return event


def build_manifest(
    run_id: str,
    config_digest: str,
    corpus_digest: str,
    backend: dict,
    created_at: str | None = None,
) -> dict:
    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {
        "run_id": run_id,
        "config_digest": config_digest,
        "corpus_digest": corpus_digest,
        "backend": backend,
        "artifact_version": ARTIFACT_VERSION,
        "created_at": created_at,
    }


class EventLog:
    """Single-appender event log bound to one file path.

    ``start`` creates the file with the manifest line; ``emit`` appends the
    next event and flushes before returning, so the engine never advances past
    an unwritten event. Appends are validated: sequence numbers must be
    contiguous from 1, the first event must be RunStarted, and nothing may
    follow RunFinished.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._handle = None
        self._last_seq = 0
        self._finished = False
        self._started = False

    def start(self, manifest: dict) -> None:
        if self._handle is not None:
            raise LogError("log already open")
        self._handle = open(self.path, "w", encoding="utf-8", newline="\n")
        self._handle.write(canonical_json(manifest) + "\n")
        self._handle.flush()

    def resume_at(self, keep_seq: int) -> None:
        """Reopen the log for appending after event ``keep_seq``.

        Any later (uncommitted) lines are cut off in place with a truncate;
        the kept lines are never rewritten, so a crash here cannot lose them.
        A kept last line without its newline gets one.
        """
        if self._handle is not None:
            raise LogError("log already open")
        with open(self.path, "rb") as handle:
            for _ in range(keep_seq + 1):  # the manifest, then the kept events
                line = handle.readline()
            end = handle.tell()
        os.truncate(self.path, end)
        self._handle = open(self.path, "a", encoding="utf-8", newline="\n")
        if not line.endswith(b"\n"):
            self._handle.write("\n")
            self._handle.flush()
        self._last_seq = keep_seq
        self._started = keep_seq > 0
        last = RunEvent.from_line(line.decode("utf-8")) if self._started else None
        self._finished = last is not None and last.kind == "RunFinished"

    def append(self, event: RunEvent) -> None:
        if self._handle is None:
            raise LogError("log is not open")
        if self._finished:
            raise LogError("cannot append after RunFinished")
        if event.seq != self._last_seq + 1:
            raise LogError(
                f"sequence gap: expected {self._last_seq + 1}, got {event.seq}"
            )
        if event.ts != event.seq:
            raise LogError("event ts must equal its sequence number")
        if not self._started and event.kind != "RunStarted":
            raise LogError("first event must be RunStarted")
        if self._started and event.kind == "RunStarted":
            raise LogError("duplicate RunStarted")
        if event.kind not in EVENT_KINDS:
            raise LogError(f"unknown event kind {event.kind!r}")
        try:
            self._handle.write(event.to_line() + "\n")
            self._handle.flush()
        except OSError as exc:
            raise LogError(f"cannot append to {self.path}: {exc}") from exc
        self._last_seq = event.seq
        self._started = True
        if event.kind == "RunFinished":
            self._finished = True

    def emit(self, kind: str, payload: dict) -> RunEvent:
        event = RunEvent(seq=self._last_seq + 1, ts=self._last_seq + 1, kind=kind, payload=payload)
        self.append(event)
        return event

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_log(path) -> tuple[dict, list[RunEvent]]:
    """Parse a log file into (manifest, events).

    A half-written final line (the classic crash artifact) is dropped; corrupt
    lines anywhere else raise. Sequence contiguity is enforced.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except OSError as exc:
        raise LogError(f"cannot read log {path}: {exc}") from exc
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise LogError(f"log {path} is empty")
    try:
        manifest = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise LogError(f"corrupt manifest line: {exc}") from exc
    if not isinstance(manifest, dict) or "run_id" not in manifest:
        raise LogError("first line is not a run manifest")
    events: list[RunEvent] = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            event = RunEvent.from_line(line)
        except LogError:
            if i == len(lines):
                break  # trailing partial write
            raise
        expected = events[-1].seq + 1 if events else 1
        if event.seq != expected:
            raise LogError(f"sequence gap at line {i}: expected {expected}, got {event.seq}")
        events.append(event)
    if events:
        if events[0].kind != "RunStarted":
            raise LogError("first event must be RunStarted")
        for event in events[:-1]:
            if event.kind == "RunFinished":
                raise LogError("events found after RunFinished")
    return manifest, events


@dataclass
class ReplayResult:
    """Engine state as of the last commit event of a log."""

    manifest: dict
    state: EngineState
    committed_seq: int
    finished: bool


def replay_log(path, engine_config) -> ReplayResult:
    """Fold a log through the engine's own transition function
    (:func:`promptloop.state.apply`) into the state at its last commit point.

    Each mutation step's RNG picks are drawn again and must equal the logged
    ones; ``apply`` checks every other value the log repeats, so a tampered
    or corrupt log is rejected rather than replayed.
    """
    manifest, events = read_log(path)
    if not events:
        raise LogError(f"log {path} has a manifest but no events")
    fold = Fold(EngineState.initial(engine_config))
    for event in events:
        picks = None
        if event.kind in MUTATION_KINDS:
            if not fold.state.best.entries:
                raise LogError(f"event {event.seq}: mutation step before any archived prompt")
            picks = draw_picks(fold.state)[0]
        fold.apply(event, picks)
    return ReplayResult(
        manifest=manifest,
        state=fold.committed,
        committed_seq=fold.committed_seq,
        finished=events[-1].kind == "RunFinished",
    )


def check_digests(manifest: dict, config_digest: str, corpus_digest: str) -> None:
    if manifest.get("config_digest") != config_digest:
        raise DigestMismatchError(
            f"config digest mismatch: log has {manifest.get('config_digest')}, "
            f"supplied config digests to {config_digest}"
        )
    if manifest.get("corpus_digest") != corpus_digest:
        raise DigestMismatchError(
            f"corpus digest mismatch: log has {manifest.get('corpus_digest')}, "
            f"supplied corpus digests to {corpus_digest}"
        )


def summarize_log(path) -> dict:
    """Project a log into the report structure."""
    manifest, events = read_log(path)
    if not events:
        raise LogError(f"log {path} has no events to report on")
    rounds: list[dict] = []
    threshold_trajectory: list[float] = []
    mutations_applied = 0
    mutations_rejected = 0
    final: dict | None = None
    threshold: float | None = None
    best_max: float | None = None
    for event in events:
        payload = event.payload
        if event.kind == "ThresholdUpdated":
            threshold = payload["value"]
            threshold_trajectory.append(threshold)
        elif event.kind == "ArchivesUpdated":
            best_max = payload["best"][0]["score"] if payload["best"] else None
            rounds.append(
                {
                    "round": payload["round"],
                    "candidate_id": payload["candidate_id"],
                    "mean_score": payload["score"],
                    "threshold": threshold,
                    "best_max": best_max,
                }
            )
        elif event.kind == "MutationApplied":
            mutations_applied += 1
            best_max = payload["best"][0]["score"] if payload["best"] else best_max
        elif event.kind == "MutationRejected":
            mutations_rejected += 1
        elif event.kind == "RunFinished":
            final = payload
    summary = {
        "run_id": manifest["run_id"],
        "finished": final is not None,
        "rounds": rounds,
        "threshold_trajectory": threshold_trajectory,
        "mutations_applied": mutations_applied,
        "mutations_rejected": mutations_rejected,
    }
    if final is not None:
        summary["best_candidate_id"] = final["best_candidate_id"]
        summary["best_score"] = final["best_score"]
        summary["best_step_plan"] = final["best_step_plan"]
    elif best_max is not None:
        summary["best_score"] = best_max
    return summary


def emit_report(path, format: str = "json") -> str:
    """Render a human-readable report of a run log."""
    summary = summarize_log(path)
    if format == "json":
        return json.dumps(summary, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
    if format != "markdown":
        raise ValueError(f"unknown report format {format!r}")
    lines = [
        f"# Run {summary['run_id']}",
        "",
        f"- finished: {str(summary['finished']).lower()}",
        f"- mutations applied: {summary['mutations_applied']}",
        f"- mutations rejected: {summary['mutations_rejected']}",
        "",
        "| round | mean score | threshold | best max |",
        "|------:|-----------:|----------:|---------:|",
    ]
    for row in summary["rounds"]:
        lines.append(
            f"| {row['round']} | {row['mean_score']!r} | {row['threshold']!r} | {row['best_max']!r} |"
        )
    if "best_step_plan" in summary:
        lines += [
            "",
            f"## Best prompt (score {summary['best_score']!r})",
            "",
            summary["best_step_plan"],
        ]
    return "\n".join(lines) + "\n"
