"""Append-only, replayable event log of an optimization run.

The log file is UTF-8 JSONL: the first line is the run manifest, every
following line one event. Events are canonically serialized (sorted keys,
compact separators, shortest round-trip decimals), so log equality is a byte
comparison. Timestamps inside events are logical (equal to the sequence
number); wall-clock time appears only in the manifest.
"""

from __future__ import annotations

import base64
import fcntl
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import LogError, UnfinishedLogError
from .mutation import draw_picks
from .state import KINDS, MUTATION_KINDS, EngineState, apply, check_payload

ARTIFACT_VERSION = "0.2.0"


#: CPython's C encoder with ``json.dumps``'s options ``sort_keys=True,
#: ensure_ascii=False, separators=(",", ":"), allow_nan=False``, built once:
#: ``JSONEncoder.encode`` builds a new one, a markers dict and a float
#: formatter on every call. Without markers (None) it keeps no state between
#: calls, so threads may share it; a value containing itself is not detected.
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring, None, ":", ",", True, False, False
)


def canonical_json(value) -> str:
    """``value``'s canonical JSON text, the text ``json.dumps`` gives with
    the options above: sorted keys, compact separators, non-ASCII kept as
    is, shortest round-trip decimals, ValueError on NaN or an infinity and
    TypeError on a value JSON cannot hold. It encodes each event line, the
    manifest, and the config, corpus and run-id digests."""
    return "".join(_encode(value, 0))


@dataclass(slots=True)
class RunEvent:
    seq: int
    ts: int
    kind: str
    payload: dict

    def to_line(self) -> str:
        """The event's log line: ``canonical_json`` of its four fields. The
        envelope's keys are written in their sorted order around the
        encoded payload, which alone goes through the encoder. ``seq`` and
        ``ts`` are ints, and ``kind`` is a key of
        :data:`promptloop.state.KINDS`, as :func:`check_next`
        requires of every event written or read; those keys are ASCII
        identifiers, whose canonical JSON is the name in double quotes, so
        the kind is written as it is."""
        return (
            f'{{"kind":"{self.kind}","payload":{canonical_json(self.payload)},'
            f'"seq":{self.seq},"ts":{self.ts}}}'
        )

    @classmethod
    def from_line(cls, line: str) -> "RunEvent":
        try:
            raw = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise LogError(f"corrupt event line: {exc}") from exc
        try:
            event = cls(seq=raw["seq"], ts=raw["ts"], kind=raw["kind"], payload=raw["payload"])
        except (KeyError, TypeError) as exc:
            raise LogError(f"event line missing fields: {line[:80]!r}") from exc
        return event


def check_next(last: RunEvent | None, event: RunEvent) -> None:
    """The log's order rule, for writer and reader alike: ``event`` may follow
    ``last`` (None at the start) only if its seq is the next one and equals
    its ts (both ints, so not bools), RunStarted is first and only first,
    nothing follows RunFinished, its kind is a key of
    :data:`promptloop.state.KINDS` and its payload an object."""
    if last is not None and last.kind == "RunFinished":
        raise LogError(f"event {event.seq}: nothing may follow RunFinished")
    expected = last.seq + 1 if last is not None else 1
    if type(event.seq) is not int or event.seq != expected:
        raise LogError(f"sequence gap: expected {expected}, got {event.seq!r}")
    if type(event.ts) is not int or event.ts != event.seq:
        raise LogError(f"event {event.seq}: ts {event.ts!r} must equal its sequence number")
    if type(event.kind) is not str or event.kind not in KINDS:
        raise LogError(f"event {event.seq}: unknown event kind {event.kind!r}")
    if last is None and event.kind != "RunStarted":
        raise LogError("first event must be RunStarted")
    if last is not None and event.kind == "RunStarted":
        raise LogError(f"event {event.seq}: duplicate RunStarted")
    if type(event.payload) is not dict:
        raise LogError(f"event {event.seq}: {event.kind} payload is not an object")


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


def encode_centroid(centroid: np.ndarray) -> str:
    """The manifest's ``corpus_centroid``: base64 of the vector's
    little-endian float64 bytes, so it decodes to the same bits."""
    return base64.b64encode(np.asarray(centroid, dtype="<f8").tobytes()).decode("ascii")


def decode_centroid(value) -> np.ndarray:
    """The vector a manifest's ``corpus_centroid`` encodes; LogError unless it
    is base64 of a non-empty whole number of finite float64 values."""
    if type(value) is not str:
        raise LogError("manifest corpus_centroid is not a string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise LogError(f"manifest corpus_centroid is not base64: {exc}") from exc
    if not raw or len(raw) % 8:
        raise LogError("manifest corpus_centroid does not encode float64 values")
    centroid = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(centroid).all():
        raise LogError("manifest corpus_centroid holds a non-finite value")
    return centroid


class EventLog:
    """Single-appender event log bound to one file path.

    ``lock`` opens the file and takes an exclusive ``flock`` on it, so one
    EventLog, in this process or another, appends to a file at a time; the
    lock holds until :meth:`close`. ``start`` creates the file with the
    manifest line, replacing an earlier log only if that run finished or
    never started (no complete RunStarted line, so no backend output).

    The unit of writing is the commit. ``emit`` checks and encodes each
    event at once but keeps its line pending until a commit event (a kind
    whose :data:`promptloop.state.KINDS` row has ``commit``): that event's
    emit hands the OS every pending line, its own last, in one unbuffered
    write (repeated only for the rest of a partial write) before returning,
    so the engine never advances past a commit the OS has not been given.
    A crash loses only lines after the last commit, which a resume cuts
    anyway; :meth:`close` writes what is still pending, such as an aborted
    round's BackendFailure. Each event must pass :func:`check_next` after
    the last event emitted.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._handle = None
        self._last: RunEvent | None = None
        #: Lines emitted since the last write, without their newlines.
        self._pending: list[str] = []

    def lock(self, create: bool = False) -> None:
        """Open the file for appending and take its lock; a missing file is
        created only if ``create``. Refuses while another EventLog holds it."""
        if self._handle is not None:
            raise LogError("log already open")
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | (os.O_CREAT if create else 0), 0o666)
        except OSError as exc:
            raise LogError(f"cannot open log {self.path}: {exc}") from exc
        handle = open(fd, "ab", buffering=0)
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            handle.close()
            raise LogError(f"{self.path} is being appended to by another run") from exc
        self._handle = handle

    def start(self, manifest: dict) -> None:
        self.lock(create=True)
        if os.fstat(self._handle.fileno()).st_size and not _finished(self.path) and _started(self.path):
            self.close()
            raise UnfinishedLogError(self.path)
        self._handle.truncate(0)
        self._append(canonical_json(manifest) + "\n")

    def resume_at(self, end: int, last: RunEvent) -> None:
        """Append after ``last``, the event whose line ends at byte ``end``
        (its newline excluded), both as :func:`replay_log` read them. The
        caller holds the lock, taken with :meth:`lock` before it read the log.

        Any later (uncommitted) lines are cut off in place with a truncate;
        the kept lines are never rewritten, so a crash here cannot lose them.
        The log is not read again: a kept last line that ends the file
        without its newline gets one.
        """
        if self._handle is None:
            raise LogError("log is not locked")
        if end < os.fstat(self._handle.fileno()).st_size:
            self._handle.truncate(end + 1)  # the kept line's newline is the byte at ``end``
        else:
            self._append("\n")
        self._last = last

    def emit(self, kind: str, payload: dict) -> RunEvent:
        """Append the next event of ``kind`` and return it: written, with
        every line pending before it, if it is a commit event, else pending."""
        if self._handle is None:
            raise LogError("log is not open")
        seq = self._last.seq + 1 if self._last is not None else 1
        event = RunEvent(seq=seq, ts=seq, kind=kind, payload=payload)
        check_next(self._last, event)
        self._pending.append(event.to_line())
        if KINDS[kind].commit:
            self._write_pending()
        self._last = event
        return event

    def _write_pending(self) -> None:
        """Write the pending lines, each with its newline, in one
        :meth:`_append`. They stop being pending first, so a failed write
        is never repeated: it leaves at most a torn batch, as a crash would."""
        text = "\n".join(self._pending) + "\n"
        self._pending.clear()
        try:
            self._append(text)
        except OSError as exc:
            raise LogError(f"cannot append to {self.path}: {exc}") from exc

    def _append(self, text: str) -> None:
        """Hand ``text``'s UTF-8 bytes to the OS in one write, writing the
        rest again after a partial write until all of them are written. It
        is the log's one write path: the manifest, each commit's batch of
        lines and a resume's missing newline."""
        data = text.encode("utf-8")
        rest = len(data) - self._handle.write(data)
        while rest:
            rest -= self._handle.write(memoryview(data)[-rest:])

    def close(self) -> None:
        """Write the pending lines, if any, and release the file; it is
        released even if that write fails."""
        if self._handle is not None:
            try:
                if self._pending:
                    self._write_pending()
            finally:
                self._handle.close()
                self._handle = None


def _started(path) -> bool:
    """Whether the log holds a line after its manifest, which RunStarted
    must be. A second line that is missing, or torn (the last line,
    unterminated and not an event, which :func:`read_log` drops), means the
    run crashed before its first event, with no backend output; a
    terminated second line is kept, and read_log refuses it if it is no
    event. Only the first two lines are read."""
    with open(path, "rb") as handle:
        handle.readline()
        line = handle.readline()
    if line.endswith(b"\n"):
        return True
    try:
        _parse_event(line)
    except LogError:
        return False
    return True


def _finished(path) -> bool:
    """Whether the log's last line is a RunFinished event. Only the tail of
    the file is read, backwards from its end."""
    with open(path, "rb") as handle:
        pos = handle.seek(0, os.SEEK_END)
        tail = b""
        while pos > 0 and b"\n" not in tail.rstrip(b"\n"):
            step = min(pos, 1 << 16)
            pos -= step
            handle.seek(pos)
            tail = handle.read(step) + tail
    last = tail.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    try:
        return _parse_event(last).kind == "RunFinished"
    except LogError:
        return False


#: ``json.loads`` decodes with a default ``JSONDecoder`` too.
_raw_decode = json.JSONDecoder().raw_decode


def _parse_event(line: bytes) -> RunEvent:
    """``RunEvent.from_line`` of a log line's UTF-8 text. A line that is
    exactly one JSON object holding the four fields is decoded directly;
    every other line goes through ``from_line``, for its value or its
    LogError."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LogError(f"event line is not UTF-8: {exc}") from exc
    try:
        raw, stop = _raw_decode(text)
        if stop == len(text) and type(raw) is dict:
            return RunEvent(raw["seq"], raw["ts"], raw["kind"], raw["payload"])
    except (ValueError, KeyError):
        pass
    return RunEvent.from_line(text)


def read_log(path) -> tuple[dict, list[RunEvent], list[int]]:
    """Parse a log file into (manifest, events, ends), where ``ends[i]`` is
    the byte offset at which the line of ``events[i]`` ends, its newline
    excluded.

    The file is read once, as bytes. Lines end at ``\\n`` only, and each is
    decoded as UTF-8 on its own. :class:`EventLog` writes once per commit,
    a batch of lines that ends with the commit event's newline, so a crash
    inside a write leaves complete uncommitted lines, which a resume cuts,
    and at most one last line without its newline, half-written (the
    classic crash artifact, which may stop inside a character): such a
    line is dropped unless it is an event.
    Any other corrupt line raises, the last one too once it is terminated,
    and so does an event that breaks :func:`check_next`.
    """
    try:
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
    except OSError as exc:
        raise LogError(f"cannot read log {path}: {exc}") from exc
    terminated = lines[-1] == b""
    if terminated:
        lines.pop()
    if not lines:
        raise LogError(f"log {path} is empty")
    try:
        manifest = json.loads(lines[0].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, an int past the digit limit
        raise LogError(f"corrupt manifest line: {exc}") from exc
    if not isinstance(manifest, dict) or "run_id" not in manifest:
        raise LogError("first line is not a run manifest")
    events: list[RunEvent] = []
    ends: list[int] = []
    last = None
    end = len(lines[0])
    for i, line in enumerate(lines[1:], start=2):
        end += 1 + len(line)
        try:
            event = _parse_event(line)
        except LogError:
            if i == len(lines) and not terminated:
                break  # trailing partial write
            raise
        check_next(last, event)
        events.append(event)
        ends.append(end)
        last = event
    return manifest, events, ends


@dataclass
class ReplayResult:
    """Engine state as of the last commit event of a log, with that event
    and the byte offset at which its line ends (its newline excluded): a
    resume cuts the log there, without reading it again. ``centroid`` is
    the corpus centroid the manifest records, None in a log from before the
    manifest kept it."""

    manifest: dict
    centroid: np.ndarray | None
    run_started: dict
    state: EngineState
    committed: RunEvent
    committed_end: int
    finished: bool


def replay_log(path) -> ReplayResult:
    """Fold a log through the engine's own transition function
    (:func:`promptloop.state.apply`) into the state at its last commit point.

    The fold starts from the state :meth:`EngineState.started` builds from
    the log's RunStarted payload, the one the engine built its own from, so
    it needs nothing but the log. Each mutation step's RNG picks are drawn
    again and must equal the logged ones; ``apply`` checks every other field
    but free text against its derivation, so a tampered or corrupt log is
    rejected rather than replayed.
    """
    manifest, events, ends = read_log(path)
    if not events:
        raise LogError(f"log {path} has a manifest but no events")
    centroid = decode_centroid(manifest["corpus_centroid"]) if "corpus_centroid" in manifest else None
    state = EngineState.started(events[0].payload)
    committed = next(e for e in reversed(events) if KINDS[e.kind].commit)
    for event in events:
        picks = None
        if event.kind in MUTATION_KINDS:
            if not state.best.entries:
                raise LogError(f"event {event.seq}: mutation step before any archived prompt")
            picks = draw_picks(state)  # apply refuses a blank prompt, so each one has a sentence
        apply(state, event, picks)
        if event is committed:
            committed_state = state.clone()
    return ReplayResult(
        manifest=manifest,
        centroid=centroid,
        run_started=events[0].payload,
        state=committed_state,
        committed=committed,
        committed_end=ends[committed.seq - 1],
        finished=events[-1].kind == "RunFinished",
    )


def summarize_log(path) -> dict:
    """Project a log into the report structure, without folding it; every
    payload must still pass :func:`promptloop.state.check_payload`."""
    manifest, events, _ = read_log(path)
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
        payload = check_payload(event.kind, event.payload, event.seq)
        if event.kind in ("ArchivesUpdated", "MutationApplied"):
            # The best archive's top entry: only a strictly higher score displaces it.
            best_max = payload["score"] if best_max is None else max(best_max, payload["score"])
        if event.kind == "ThresholdUpdated":
            threshold = payload["value"]
            threshold_trajectory.append(threshold)
        elif event.kind == "ArchivesUpdated":
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
    if summary.get("best_step_plan") is not None:
        lines += [
            "",
            f"## Best prompt (score {summary['best_score']!r})",
            "",
            summary["best_step_plan"],
        ]
    return "\n".join(lines) + "\n"
