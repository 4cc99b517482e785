"""Span recorder that times the program's layers from outside.

:class:`Tracer` replaces each public function or method named in
:data:`TARGETS` with a wrapper that records a span (name, start, end,
parent, run id) and restores the originals on exit. A missing target raises
:class:`TargetMissing`, so a rename in the program cannot silently empty a
layer. Targets are patched where the program looks them up: ``pipeline``
imports ``load_corpus`` and the digest functions by name, so those are
patched on ``pipeline``.

Self time of a span is its duration minus the part of it its child spans
cover. Spans stay in memory; :meth:`Tracer.write` saves them as JSON lines.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass

from checks import CheckFailed


class TargetMissing(RuntimeError):
    """A function the tracer must wrap does not exist in the program."""


# (module, attribute path, span name, attribute recorder)
TARGETS = (
    ("promptloop.pipeline", "build_runtime", "pipeline.build_runtime", None),
    ("promptloop.pipeline", "load_corpus", "scoring.load_corpus", None),
    ("promptloop.pipeline", "config_digest", "config.digest", None),
    ("promptloop.pipeline", "corpus_digest", "config.digest", None),
    ("promptloop.scoring", "corpus_score", "scoring.corpus_score", None),
    ("promptloop.scoring", "EmbeddingCache.embed_one", "scoring.cache", None),
    ("promptloop.gateway", "MockBackend.chat", "gateway.chat", None),
    ("promptloop.gateway", "HttpBackend.chat", "gateway.chat", None),
    ("promptloop.gateway", "MockBackend.embed", "gateway.embed", lambda a: len(a[1])),
    ("promptloop.gateway", "HttpBackend.embed", "gateway.embed", lambda a: len(a[1])),
    ("promptloop.engine", "Engine.run", "engine.run", None),
    ("promptloop.engine", "Engine.run_round", "engine.round", None),
    ("promptloop.mutation", "run_mutation_phase", "mutation.phase", None),
    ("promptloop.mutation", "segment_sentences", "mutation.segment", None),
    ("promptloop.runstore", "EventLog.emit", "runstore.emit", lambda a: a[1]),
    ("promptloop.runstore", "EventLog.resume_at", "runstore.resume_at", None),
    ("promptloop.runstore", "read_log", "runstore.read_log", None),
    ("promptloop.runstore", "replay_log", "runstore.replay", None),
    ("promptloop.runstore", "summarize_log", "runstore.summarize", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attr: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        if not hasattr(owner, part):
            raise TargetMissing(f"{module_name}.{path}: {part} not found")
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise TargetMissing(f"{module_name}.{path} not found")
    return owner, name


class Tracer:
    def __init__(self, targets=TARGETS) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._targets = [(*_resolve(module, path), span, attr) for module, path, span, attr in targets]
        self._saved: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, attr=None):
        """Context manager recording one span around a block."""
        return _Block(self, name, attr)

    def _wrap(self, fn, name: str, attr):
        tracer = self

        def traced(*args, **kwargs):
            with _Block(tracer, name, attr(args) if attr else None):
                return fn(*args, **kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        for owner, name, span, attr in self._targets:
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, span, attr))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for s in self.spans:
                handle.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.run, s.attr]) + "\n")


class _Block:
    def __init__(self, tracer: Tracer, name: str, attr) -> None:
        self.tracer, self.name, self.attr = tracer, name, attr

    def __enter__(self) -> None:
        stack = self.tracer._stack()
        self.id = next(self.tracer._ids)
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            Span(self.id, self.name, self.start, end, self.parent, self.tracer.run, self.attr)
        )


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Cycle:
    """The spans of one traced cycle, indexed by phase (setup, optimize,
    resume, report): the bench opens a root span ``bench.<phase>`` per phase
    and sets the run id to ``<cycle>.<phase>``."""

    def __init__(self, spans: list[Span]) -> None:
        self.by_phase: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            self.by_phase.setdefault(s.run.rsplit(".", 1)[1], []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str, *phases: str) -> list[Span]:
        return [s for p in phases for s in self.by_phase.get(p, ()) if s.name == name]

    def self_time(self, span: Span) -> float:
        kids = [(max(c.start, span.start), min(c.end, span.end)) for c in self.children.get(span.id, ())]
        return span.duration - _union([k for k in kids if k[1] > k[0]])

    def total(self, name: str, *phases: str) -> float:
        return sum(s.duration for s in self.named(name, *phases))

    def self_total(self, name: str, *phases: str) -> float:
        return sum(self.self_time(s) for s in self.named(name, *phases))

    def count(self, name: str, *phases: str) -> int:
        return len(self.named(name, *phases))

    def is_miss(self, span: Span) -> bool:
        return any(c.name == "gateway.embed" for c in self.children.get(span.id, ()))


# name -> (unit, better, kind, function of a Cycle). Kinds: "count" must repeat
# exactly across cycles and runs of one seed; "time" is reported as the median
# over traced cycles; "pooled" functions return per-span samples whose median
# over all traced cycles is reported.
def _metrics():
    def chat(c):
        return c.named("gateway.chat", "optimize")

    def parallelism(c):
        spans = chat(c)
        return sum(s.duration for s in spans) / _union((s.start, s.end) for s in spans)

    def cache(c, miss):
        return sum(1 for s in c.named("scoring.cache", "optimize") if c.is_miss(s) == miss)

    def mutation_events(c, kinds):
        return sum(1 for s in c.named("runstore.emit", "optimize") if s.attr in kinds)

    steps = ("MutationApplied", "MutationRejected")
    return {
        "gateway.chat.calls": ("count", "lower", "count", lambda c: len(chat(c))),
        "gateway.chat.busy_s": ("s", "lower", "time", lambda c: _union((s.start, s.end) for s in chat(c))),
        "gateway.chat.p50_ms": ("ms", "lower", "pooled", lambda c: [s.duration * 1e3 for s in chat(c)]),
        "gateway.chat.parallelism": ("ratio", "higher", "time", parallelism),
        "gateway.chat.optimize_frac": ("ratio", "higher", "time",
                                       lambda c: _union((s.start, s.end) for s in chat(c))
                                       / c.total("bench.optimize", "optimize")),
        "gateway.embed.requests": ("count", "lower", "count", lambda c: c.count("gateway.embed", "setup", "optimize")),
        "gateway.embed.texts": ("count", "lower", "count",
                                lambda c: sum(s.attr for s in c.named("gateway.embed", "setup", "optimize"))),
        "gateway.embed.busy_s": ("s", "lower", "time", lambda c: c.total("gateway.embed", "setup", "optimize")),
        "gateway.http.attempts": ("count", "lower", "count", None),
        "gateway.http.request_bytes": ("B", "lower", "count", None),
        "gateway.http.response_bytes": ("B", "lower", "count", None),
        "scoring.load_corpus_s": ("s", "lower", "time", lambda c: c.total("scoring.load_corpus", "setup")),
        "scoring.corpus_score.calls": ("count", "lower", "count", lambda c: c.count("scoring.corpus_score", "optimize")),
        "scoring.corpus_score.self_s": ("s", "lower", "time", lambda c: c.self_total("scoring.corpus_score", "optimize")),
        "scoring.corpus_score.p50_us": ("us", "lower", "pooled",
                                        lambda c: [s.duration * 1e6 for s in c.named("scoring.corpus_score", "optimize")]),
        "scoring.cache.hits": ("count", "higher", "count", lambda c: cache(c, False)),
        "scoring.cache.misses": ("count", "lower", "count", lambda c: cache(c, True)),
        "engine.rounds": ("count", "lower", "count", lambda c: c.count("engine.round", "optimize")),
        "engine.round.p50_s": ("s", "lower", "pooled", lambda c: [s.duration for s in c.named("engine.round", "optimize")]),
        "engine.self_s": ("s", "lower", "time",
                          lambda c: c.self_total("engine.run", "optimize") + c.self_total("engine.round", "optimize")),
        "mutation.steps": ("count", "lower", "count", lambda c: mutation_events(c, steps)),
        "mutation.applied_ratio": ("ratio", "higher", "count",
                                   lambda c: mutation_events(c, steps[:1]) / mutation_events(c, steps)),
        "mutation.segment.calls": ("count", "lower", "count", lambda c: c.count("mutation.segment", "optimize", "resume")),
        "mutation.segment.self_s": ("s", "lower", "time", lambda c: c.self_total("mutation.segment", "optimize", "resume")),
        "runstore.emit.calls": ("count", "lower", "count", lambda c: c.count("runstore.emit", "optimize")),
        "runstore.emit.self_s": ("s", "lower", "time", lambda c: c.self_total("runstore.emit", "optimize")),
        "runstore.log_bytes": ("B", "lower", "count", None),
        "runstore.read_log_s": ("s", "lower", "time", lambda c: c.total("runstore.read_log", "resume")),
        "runstore.replay.self_s": ("s", "lower", "time", lambda c: c.self_total("runstore.replay", "resume")),
        "runstore.resume_at_s": ("s", "lower", "time", lambda c: c.total("runstore.resume_at", "resume")),
        "runstore.summarize_s": ("s", "lower", "time", lambda c: c.total("runstore.summarize", "report")),
        "pipeline.build_runtime.self_s": ("s", "lower", "time", lambda c: c.self_total("pipeline.build_runtime", "setup")),
        "config.digest_s": ("s", "lower", "time", lambda c: c.total("config.digest", "setup")),
        "bench.trace_overhead_frac": ("ratio", "lower", "time", None),
    }


METRICS = _metrics()

#: Spans every traced cycle must contain, whatever the workload.
REQUIRED_SPANS = {
    "setup": ("pipeline.build_runtime", "scoring.load_corpus", "config.digest", "gateway.embed", "scoring.cache"),
    "optimize": ("engine.run", "engine.round", "gateway.chat", "scoring.corpus_score",
                 "mutation.phase", "mutation.segment", "runstore.emit"),
    "resume": ("runstore.replay", "runstore.read_log", "runstore.resume_at"),
    "report": ("runstore.summarize",),
}


def layer_values(cycle: Cycle) -> dict[str, object]:
    """Per-layer values of one traced cycle; metrics the bench supplies
    itself (HTTP stats, log size, overhead) are left out."""
    for phase, names in REQUIRED_SPANS.items():
        for name in names:
            if not cycle.named(name, phase):
                raise TargetMissing(f"no {name} span in the {phase} phase: the layer is no longer reached")
    return {name: spec[3](cycle) for name, spec in METRICS.items() if spec[3] is not None}


def aggregate(per_cycle: list[dict[str, object]]) -> dict[str, float]:
    """Combine per-cycle values: counts must agree, times take the median,
    pooled samples take the median of all samples."""
    out: dict[str, float] = {}
    for name in per_cycle[0]:
        kind = METRICS[name][2]
        values = [v[name] for v in per_cycle]
        if kind == "count":
            if any(v != values[0] for v in values):
                raise CheckFailed(f"{name} differs between traced cycles: {values}")
            out[name] = values[0]
        elif kind == "pooled":
            out[name] = statistics.median([x for v in values for x in v])
        else:
            out[name] = statistics.median(values)
    return out
