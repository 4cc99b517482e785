"""Actor-critic feedback loop over prompt candidates.

One round: generate samples from the current step-by-step prompt, score each
against the reference corpus, route per-sample feedback by threshold,
summarize, update threshold and best/worst archives, regenerate an improved
prompt. The threshold starts as the round-1 mean and only ever increases.
Once the best archive is full the run switches to the guided mutation phase.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace

from . import runstore, templates
from .errors import (
    BackendUnavailableError,
    ConfigError,
    DegenerateInputError,
    EmptyResponseError,
    LogError,
    ProtocolError,
    RunAbortedError,
)
from .gateway import ChatCall, ChatExchange
from .roles import (
    DEFAULT_ROLE_PARAMS,
    DEFAULT_SEED,
    DEFAULT_SYSTEM_PROMPTS,
    ModelRole,
    SamplingParams,
)

_MASK64 = (1 << 64) - 1

#: Backend-side failures that abort a round atomically.
BACKEND_ERRORS = (BackendUnavailableError, EmptyResponseError, ProtocolError, DegenerateInputError)


class SplitMix64:
    """Portable deterministic generator with a single 64-bit word of state.

    All stochastic choices of the engine (archive pick, sentence pick, in that
    order per mutation step) draw from one instance seeded from the config.
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


def round_mean(scores) -> float:
    """Exact arithmetic mean of the given scores."""
    return statistics.mean(scores)


@dataclass
class PromptCandidate:
    id: str
    task_prompt: str
    step_plan: str
    origin: str  # "initial" | "refined" | "mutated"
    round: int
    score: float | None = None


@dataclass
class ScoredSample:
    candidate_id: str
    sample_index: int
    output_text: str
    score: float
    route: str | None = None  # "diagnostic" | "general"
    feedback_text: str | None = None


@dataclass(frozen=True)
class ArchiveEntry:
    candidate_id: str
    step_plan: str
    score: float
    arrival: int


class PromptArchive:
    """Bounded archive of the highest- (keep="best") or lowest- (keep="worst")
    scoring candidates seen so far.

    A full archive replaces its boundary entry only on strict improvement;
    on score ties the incumbent is retained. Among tied boundary scores the
    latest arrival is the one evicted, so the archive always equals the
    brute-force top-k (or bottom-k) of the arrival stream.
    """

    def __init__(self, capacity: int, keep: str = "best") -> None:
        if capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        if keep not in ("best", "worst"):
            raise ValueError(f"keep must be 'best' or 'worst', got {keep!r}")
        self.capacity = capacity
        self.keep = keep
        self.entries: list[ArchiveEntry] = []

    def _rank_key(self, entry: ArchiveEntry):
        # Lower key = better rank. Earlier arrivals outrank ties.
        if self.keep == "best":
            return (-entry.score, entry.arrival)
        return (entry.score, entry.arrival)

    def ranked(self) -> list[ArchiveEntry]:
        return sorted(self.entries, key=self._rank_key)

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    def boundary_score(self) -> float | None:
        """Worst retained score: the minimum for a best archive, the maximum
        for a worst archive; None while empty."""
        if not self.entries:
            return None
        return self.ranked()[-1].score

    def top_score(self) -> float | None:
        if not self.entries:
            return None
        return self.ranked()[0].score

    def offer(self, entry: ArchiveEntry) -> tuple[bool, ArchiveEntry | None]:
        """Insert the entry if it belongs; returns (inserted, evicted)."""
        if len(self.entries) < self.capacity:
            self.entries.append(entry)
            return True, None
        weakest = self.ranked()[-1]
        improves = entry.score > weakest.score if self.keep == "best" else entry.score < weakest.score
        if not improves:
            return False, None
        self.entries.remove(weakest)
        self.entries.append(entry)
        return True, weakest

    def snapshot(self) -> list[dict]:
        return [
            {"candidate_id": e.candidate_id, "score": e.score, "arrival": e.arrival}
            for e in self.ranked()
        ]

    def clone(self) -> "PromptArchive":
        copy = PromptArchive(self.capacity, self.keep)
        copy.entries = list(self.entries)
        return copy

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class EngineConfig:
    samples_per_round: int = 4
    best_capacity: int = 5
    worst_capacity: int = 5
    max_rounds: int = 20
    score_target: float | None = None
    mutation_trigger: str = "best-archive-full"
    mutation_budget: int = 10
    seed: int = DEFAULT_SEED
    role_params: dict[ModelRole, SamplingParams] = field(
        default_factory=lambda: dict(DEFAULT_ROLE_PARAMS)
    )
    system_prompts: dict[ModelRole, str] = field(
        default_factory=lambda: dict(DEFAULT_SYSTEM_PROMPTS)
    )
    example_messages: dict[ModelRole, tuple[tuple[str, str], ...]] = field(default_factory=dict)

    def validate(self) -> None:
        for name in ("samples_per_round", "best_capacity", "worst_capacity",
                     "max_rounds", "mutation_budget", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"engine.{name} must be an integer, got {value!r}")
        if self.samples_per_round < 1:
            raise ConfigError("engine.samples_per_round must be >= 1")
        if self.best_capacity < 1 or self.worst_capacity < 1:
            raise ConfigError("engine archive capacities must be >= 1")
        if self.max_rounds < 1:
            raise ConfigError("engine.max_rounds must be >= 1")
        if self.mutation_budget < 0:
            raise ConfigError("engine.mutation_budget must be >= 0")
        if self.score_target is not None:
            if not isinstance(self.score_target, (int, float)) or isinstance(self.score_target, bool):
                raise ConfigError("engine.score_target must be a number")
            if not 0.0 <= self.score_target <= 1.0:
                raise ConfigError("engine.score_target must lie in [0, 1]")
        if self.mutation_trigger != "best-archive-full":
            raise ConfigError(
                f"unknown mutation_trigger {self.mutation_trigger!r}"
                " (supported: 'best-archive-full')"
            )
        for role in ModelRole:
            if role not in self.role_params:
                raise ConfigError(f"engine.role_params is missing role {role.value!r}")
            if role not in self.system_prompts:
                raise ConfigError(f"system prompt missing for role {role.value!r}")


@dataclass
class EngineState:
    best: PromptArchive
    worst: PromptArchive
    rng_state: int
    round: int = 0
    threshold: float | None = None
    current: PromptCandidate | None = None
    phase: str = "feedback_loop"  # "feedback_loop" | "mutation" | "finished"
    arrival_counter: int = 0
    mutation_step: int = 0
    mutations_applied: int = 0
    mutations_rejected: int = 0

    def clone(self) -> "EngineState":
        copy = replace(self)
        copy.best = self.best.clone()
        copy.worst = self.worst.clone()
        if self.current is not None:
            copy.current = replace(self.current)
        return copy


@dataclass
class RoundRecord:
    round: int
    candidate: PromptCandidate
    samples: list[ScoredSample]
    mean_score: float
    threshold_before: float | None
    threshold_after: float
    summary: str
    next_candidate: PromptCandidate


@dataclass
class OptimizationResult:
    best: ArchiveEntry
    rounds_completed: int
    mutations_applied: int
    mutations_rejected: int
    log_path: str
    state: EngineState


def route_feedback(score: float, threshold: float) -> str:
    """Diagnostic strictly below the threshold; general at or above it."""
    return "diagnostic" if score < threshold else "general"


def update_archives(
    best: PromptArchive, worst: PromptArchive, candidate: PromptCandidate, arrival: int
) -> tuple[PromptArchive, PromptArchive]:
    """Offer a scored candidate to both archives."""
    if candidate.score is None:
        raise ValueError("candidate must be scored before archiving")
    entry = ArchiveEntry(
        candidate_id=candidate.id,
        step_plan=candidate.step_plan,
        score=candidate.score,
        arrival=arrival,
    )
    best.offer(entry)
    worst.offer(entry)
    return best, worst


def check_transition(state: EngineState, config: EngineConfig) -> str:
    """Next phase: finished on budget or target, mutation once the best
    archive is full, otherwise unchanged."""
    if state.phase == "finished":
        return "finished"
    if state.round >= config.max_rounds:
        return "finished"
    top = state.best.top_score()
    if config.score_target is not None and top is not None and top >= config.score_target:
        return "finished"
    if state.phase == "feedback_loop" and state.best.is_full:
        return "mutation"
    return state.phase


class Engine:
    """State machine driving one optimization run.

    The engine talks to the backend only through :meth:`_chat` and
    :meth:`_chat_many` (which count calls per role so a resumed run can
    fast-forward scripted queues) and to the scorer only through
    ``evaluator.score``. Independent calls (a prompt's actor samples, a
    round's per-sample feedback) go out as one ``chat_many`` batch, which the
    HTTP backend runs concurrently; scoring, routing and every event happen
    on the calling thread after the batch returns, in sample-index order.
    Every state change is recorded in the event log before the run proceeds.
    """

    def __init__(self, gateway, evaluator, config: EngineConfig, log: runstore.EventLog, task_prompt: str) -> None:
        config.validate()
        if not task_prompt:
            raise ConfigError("task prompt must be non-empty")
        self.gateway = gateway
        self.evaluator = evaluator
        self.config = config
        self.log = log
        self.task_prompt = task_prompt
        self.rng = SplitMix64(config.seed)
        self.state = EngineState(
            best=PromptArchive(config.best_capacity, keep="best"),
            worst=PromptArchive(config.worst_capacity, keep="worst"),
            rng_state=self.rng.state,
        )
        self.chat_calls: dict[str, int] = {role.value: 0 for role in ModelRole}
        self.rounds: list[RoundRecord] = []

    # ------------------------------------------------------------------ chat

    def _call(self, role: ModelRole, user_message: str) -> ChatCall:
        """Build one chat request and count it against its role."""
        messages = tuple(self.config.example_messages.get(role, ())) + (("user", user_message),)
        exchange = ChatExchange(
            role=role,
            system_prompt=self.config.system_prompts[role],
            messages=messages,
        )
        self.chat_calls[role.value] += 1
        return exchange, self.config.role_params[role]

    def _chat(self, role: ModelRole, user_message: str) -> str:
        return self.gateway.chat(*self._call(role, user_message))

    def _chat_many(self, requests: list[tuple[ModelRole, str]]) -> list[str]:
        """Send independent requests as one batch; every request is counted,
        even when the batch fails, because the backend issues all of them."""
        return self.gateway.chat_many([self._call(role, message) for role, message in requests])

    # ------------------------------------------------------------- round ops

    def generate_step_plan(
        self,
        feedback_summary: str | None,
        best: PromptArchive,
        worst: PromptArchive,
    ) -> str:
        request = templates.compose_step_plan_request(
            self.task_prompt, feedback_summary, best.ranked(), worst.ranked()
        )
        return self._chat(ModelRole.PROMPTING, request)

    def draw_samples(self, candidate_id: str, step_plan: str) -> list[ScoredSample]:
        """Send the actor calls for one prompt as a batch, then score and log
        the samples in index order."""
        outputs = self._chat_many([(ModelRole.ACTOR, step_plan)] * self.config.samples_per_round)
        samples: list[ScoredSample] = []
        for index, output in enumerate(outputs):
            self.log.emit(
                "SampleGenerated",
                {"candidate_id": candidate_id, "sample_index": index, "text": output},
            )
            score = self.evaluator.score(output)
            self.log.emit(
                "SampleScored",
                {"candidate_id": candidate_id, "sample_index": index, "score": score},
            )
            samples.append(ScoredSample(candidate_id, index, output, score))
        return samples

    def collect_feedback(self, samples: list[ScoredSample], prompt: PromptCandidate) -> list[str]:
        """One feedback call per routed sample, sent as a batch."""
        requests = []
        for sample in samples:
            role = (
                ModelRole.DIAGNOSTIC_FEEDBACK
                if sample.route == "diagnostic"
                else ModelRole.GENERAL_FEEDBACK
            )
            request = templates.compose_feedback_request(
                prompt.step_plan, sample.output_text, sample.score
            )
            requests.append((role, request))
        return self._chat_many(requests)

    def summarize_round(self, feedbacks: list[str]) -> str:
        return self._chat(ModelRole.SUMMARIZER, templates.compose_summary_request(feedbacks))

    def run_round(self) -> RoundRecord:
        """Execute one feedback round atomically.

        Any backend failure restores the pre-round state, logs a
        BackendFailure event, and aborts the run (the log stays resumable).
        """
        if self.state.phase != "feedback_loop":
            raise RunAbortedError(f"cannot run a round in phase {self.state.phase!r}")
        snapshot = self.state.clone()
        rng_snapshot = self.rng.state
        round_no = self.state.round + 1
        try:
            return self._run_round_inner(round_no)
        except BACKEND_ERRORS as exc:
            self.state = snapshot
            self.rng.state = rng_snapshot
            self.log.emit(
                "BackendFailure",
                {"phase": "feedback_loop", "round": round_no, "message": str(exc)},
            )
            raise RunAbortedError(f"round {round_no} aborted: {exc}") from exc

    def _run_round_inner(self, round_no: int) -> RoundRecord:
        state = self.state
        candidate = state.current
        self.log.emit(
            "RoundStarted",
            {
                "round": round_no,
                "candidate_id": candidate.id,
                "step_plan": candidate.step_plan,
                "origin": candidate.origin,
            },
        )

        samples = self.draw_samples(candidate.id, candidate.step_plan)
        mean = round_mean([s.score for s in samples])
        threshold_before = state.threshold

        # Round 1 defines the threshold before any routing happens.
        if state.threshold is None:
            state.threshold = mean
            self.log.emit(
                "ThresholdUpdated", {"round": round_no, "previous": None, "value": mean}
            )

        for sample in samples:
            sample.route = route_feedback(sample.score, state.threshold)
        feedbacks = self.collect_feedback(samples, candidate)
        for sample, feedback in zip(samples, feedbacks):
            sample.feedback_text = feedback
            self.log.emit(
                "FeedbackIssued",
                {
                    "round": round_no,
                    "candidate_id": candidate.id,
                    "sample_index": sample.sample_index,
                    "route": sample.route,
                    "text": sample.feedback_text,
                },
            )

        summary = self.summarize_round([s.feedback_text for s in samples])
        self.log.emit(
            "RoundSummarized",
            {"round": round_no, "candidate_id": candidate.id, "text": summary},
        )

        # Later rounds raise the threshold only if the new mean beats it.
        if threshold_before is not None and mean > state.threshold:
            self.log.emit(
                "ThresholdUpdated",
                {"round": round_no, "previous": state.threshold, "value": mean},
            )
            state.threshold = mean

        candidate.score = mean
        state.arrival_counter += 1
        update_archives(state.best, state.worst, candidate, state.arrival_counter)
        self.log.emit(
            "ArchivesUpdated",
            {
                "round": round_no,
                "candidate_id": candidate.id,
                "score": mean,
                "best": state.best.snapshot(),
                "worst": state.worst.snapshot(),
            },
        )

        next_plan = self.generate_step_plan(summary, state.best, state.worst)
        next_candidate = PromptCandidate(
            id=f"cand-{round_no + 1:04d}",
            task_prompt=self.task_prompt,
            step_plan=next_plan,
            origin="refined",
            round=round_no + 1,
        )
        state.round = round_no
        state.current = next_candidate
        state.rng_state = self.rng.state
        self.log.emit(
            "PromptRegenerated",
            {
                "round": round_no,
                "candidate_id": next_candidate.id,
                "origin": "refined",
                "step_plan": next_plan,
                "for_round": round_no + 1,
                "chat_calls": dict(self.chat_calls),
            },
        )

        record = RoundRecord(
            round=round_no,
            candidate=candidate,
            samples=samples,
            mean_score=mean,
            threshold_before=threshold_before,
            threshold_after=state.threshold,
            summary=summary,
            next_candidate=next_candidate,
        )
        self.rounds.append(record)
        return record

    # ------------------------------------------------------------ run driver

    def _generate_initial_plan(self) -> None:
        try:
            plan = self.generate_step_plan(None, self.state.best, self.state.worst)
        except BACKEND_ERRORS as exc:
            self.log.emit(
                "BackendFailure",
                {"phase": "feedback_loop", "round": 1, "message": str(exc)},
            )
            raise RunAbortedError(f"initial plan generation failed: {exc}") from exc
        candidate = PromptCandidate(
            id="cand-0001",
            task_prompt=self.task_prompt,
            step_plan=plan,
            origin="initial",
            round=1,
        )
        self.state.current = candidate
        self.state.rng_state = self.rng.state
        self.log.emit(
            "PromptRegenerated",
            {
                "round": 0,
                "candidate_id": candidate.id,
                "origin": "initial",
                "step_plan": plan,
                "for_round": 1,
                "chat_calls": dict(self.chat_calls),
            },
        )

    def _drive(self) -> OptimizationResult:
        from .mutation import run_mutation_phase

        state = self.state
        if state.current is None and state.phase == "feedback_loop":
            self._generate_initial_plan()
        while state.phase == "feedback_loop":
            next_phase = check_transition(state, self.config)
            if next_phase != state.phase:
                self.log.emit(
                    "PhaseTransition",
                    {"round": state.round, "from": state.phase, "to": next_phase},
                )
                state.phase = next_phase
                break
            self.run_round()
        if state.phase == "mutation":
            run_mutation_phase(self)
        best_entry = state.best.ranked()[0] if state.best.entries else None
        self.log.emit(
            "RunFinished",
            {
                "best_candidate_id": best_entry.candidate_id if best_entry else None,
                "best_score": best_entry.score if best_entry else None,
                "best_step_plan": best_entry.step_plan if best_entry else None,
                "rounds": state.round,
                "mutations_applied": state.mutations_applied,
                "mutations_rejected": state.mutations_rejected,
            },
        )
        state.phase = "finished"
        return OptimizationResult(
            best=best_entry,
            rounds_completed=state.round,
            mutations_applied=state.mutations_applied,
            mutations_rejected=state.mutations_rejected,
            log_path=self.log.path,
            state=state,
        )

    def run(self, manifest: dict) -> OptimizationResult:
        """Run fresh: health-check the backend, then open the log and drive
        the phases to completion. An unreachable backend aborts before any
        log file is created."""
        report = self.gateway.health_check()
        if report.status != "ok":
            raise BackendUnavailableError(f"backend unavailable: {report.cause}")
        self.log.start(manifest)
        self.log.emit(
            "RunStarted",
            {
                "run_id": manifest["run_id"],
                "task_prompt": self.task_prompt,
                "seed": self.config.seed,
                "samples_per_round": self.config.samples_per_round,
                "max_rounds": self.config.max_rounds,
                "best_capacity": self.config.best_capacity,
                "worst_capacity": self.config.worst_capacity,
                "mutation_budget": self.config.mutation_budget,
                "score_target": self.config.score_target,
                "mutation_trigger": self.config.mutation_trigger,
            },
        )
        return self._drive()

    @classmethod
    def resumed(
        cls,
        gateway,
        evaluator,
        config: EngineConfig,
        log_path,
        config_digest: str,
        corpus_digest: str,
    ) -> "Engine":
        """Rebuild an engine from a log: verify digests, replay to the last
        commit point, truncate any uncommitted tail, and fast-forward the
        scripted mock's queues to the live position."""
        result = runstore.replay_log(log_path, config)
        runstore.check_digests(result.manifest, config_digest, corpus_digest)
        if result.finished:
            raise LogError(f"run {result.manifest['run_id']} is already finished")
        engine = cls(
            gateway,
            evaluator,
            config,
            runstore.EventLog(log_path),
            result.task_prompt,
        )
        engine.state = result.state
        engine.rng.state = result.state.rng_state
        for role in ModelRole:
            consumed = result.chat_calls.get(role.value, 0)
            engine.chat_calls[role.value] = consumed
            gateway.advance(role, consumed)
        engine.log.resume_at(result.manifest, result.events, result.committed_seq)
        return engine

    def resume(self) -> OptimizationResult:
        return self._drive()
