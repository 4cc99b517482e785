"""Actor-critic feedback loop over prompt candidates.

One round: generate samples from the current step-by-step prompt, score each
against the reference corpus, route per-sample feedback by threshold,
summarize, update threshold and best/worst archives, regenerate an improved
prompt. The threshold starts as the round-1 mean and only ever increases.
Once the best archive is full the run switches to the guided mutation phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import mutation, runstore, templates
from .errors import (BACKEND_ERRORS, BackendUnavailableError, ConfigError, DigestMismatchError, LogError,
                     RunAbortedError)
from .gateway import ChatCall, ChatExchange
from .roles import (
    DEFAULT_ROLE_PARAMS,
    DEFAULT_SEED,
    DEFAULT_SYSTEM_PROMPTS,
    ModelRole,
    SamplingParams,
)
from .state import (EngineState, Picks, apply, archives_updated, backend_failure, check_transition, feedback_issued,
                    phase_transition, prompt_regenerated, round_ids, round_started, route_feedback, sample_ids,
                    step_due, threshold_update)


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


#: The EngineConfig fields RunStarted records, with the task prompt and the run id.
_SETTINGS = ("seed", "samples_per_round", "max_rounds", "best_capacity", "worst_capacity",
             "mutation_budget", "score_target", "mutation_trigger")


def _reply(outcome: str | Exception) -> str:
    """A batch outcome's reply; a backend error is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class Engine:
    """State machine driving one optimization run.

    The engine talks to the backend only through :meth:`chat`, one call,
    and :meth:`_send`, a batch, which number each call by its role's call
    count in the run state (so a resumed run issues the calls the
    uninterrupted run would have), and to the scorer only through
    ``evaluator.score_batch`` (its ``centroid`` is read once, for the
    manifest).
    Independent calls (a prompt's actor samples, a round's per-sample
    feedback) go out as one ``chat_many`` batch, which the HTTP backend runs
    concurrently; a batch's samples are scored together, and routing and
    every event happen on the calling thread after the batch returns, in
    sample-index order. The engine changes the run state only by logging an
    event and applying it (:meth:`record`), through the same function replay
    folds a log with. Each role's name, system prompt, example turns and
    sampling params are resolved from the config once, into a per-role
    table, so building a request takes one lookup in it; the config's other
    fields make the RunStarted payload, and the state, built from it, holds
    the run's limits, which nothing reads from the config after that. Every
    event is a derivation in :mod:`promptloop.state` plus free values: the
    texts, the plan, a score, a failure's message. A backend failure aborts the
    run from one place, :meth:`_atomically`, which the initial plan and
    every round run through; in the mutation phase it only closes its step.

    The last feedback round's plan request goes out in one batch with
    mutation step 1's rewrite request, whose picks are fixed once the round
    has archived its prompt; the rewrite's outcome waits in the ahead map.
    On a backend with a free slot beside a step's own call (``in_flight``
    above 1), a step whose rewrite request is not in the map sends it with
    the speculative rewrite requests of the following steps, up to
    ``in_flight``, their picks drawn as if the steps in between leave the
    best archive alone. On one without (the mock's 1), nothing goes ahead
    but step 1's rewrite: a step sends its rewrite as one call at its turn.
    A step takes an outcome from the map only for the very request it would
    send, counted at its turn (see :meth:`chat`). So the events and every
    request of the sequential run stay as they are; a speculation that
    misses only costs its request.
    """

    def __init__(self, gateway, evaluator, config: EngineConfig, log: runstore.EventLog, task_prompt: str) -> None:
        if not task_prompt:
            raise ConfigError("task prompt must be non-empty")
        self.gateway = gateway
        self.evaluator = evaluator
        self.log = log
        #: RunStarted's payload but the run id; the state starts from it.
        self._started = {"task_prompt": task_prompt, **{name: getattr(config, name) for name in _SETTINGS}}
        self.state = EngineState.started(self._started)
        #: Per role: its key in ``chat_calls``, system prompt, example turns
        #: and sampling params, fixed for the run.
        self._roles = {
            role: (
                role.value,
                config.system_prompts[role],
                tuple(config.example_messages.get(role, ())),
                config.role_params[role],
            )
            for role in ModelRole
        }
        #: The ahead map: each rewrite call sent before its step's turn,
        #: with its reply or backend error.
        self._ahead: dict[ChatCall, str | Exception] = {}
        #: Step 1's picks, as the last round's plan request drew them.
        self._first_picks: Picks | None = None

    def record(self, kind: str, payload: dict, picks=None) -> None:
        """Log one event, then apply it to the run state."""
        apply(self.state, self.log.emit(kind, payload), picks)

    # ------------------------------------------------------------------ chat

    def _request(self, role: ModelRole, user_message: str, ahead: int = 0) -> ChatCall:
        """Build one chat request at its role's current call index, or
        ``ahead`` calls of the role after it."""
        name, system_prompt, examples, params = self._roles[role]
        exchange = ChatExchange(
            role=role,
            index=self.state.chat_calls[name] + ahead,
            system_prompt=system_prompt,
            messages=examples + (("user", user_message),),
        )
        return exchange, params

    def _call(self, role: ModelRole, user_message: str) -> ChatCall:
        """Build one chat request and count it against its role in the state."""
        call = self._request(role, user_message)
        self.state.chat_calls[self._roles[role][0]] += 1
        return call

    def chat(self, role: ModelRole, user_message: str, picks: Picks | None = None) -> str:
        """One call, counted against its role at its turn: the outcome that
        very call got if it went out ahead, else its reply now, sent alone.
        Given ``picks``, a call not in the ahead map goes out in one
        ``chat_many`` with their step's rewrite request, unless it is this
        call, and, in the slots left up to the backend's ``in_flight``,
        those of the due steps after it, their picks chained from ``picks``
        by :func:`promptloop.mutation.picks_ahead`; with none beside it, it
        goes out alone. Each rewrite sent waits in the map with its
        outcome, at the mutator call index its step's turn gives it (one
        more for each step before it from the open one on), until its
        role's count passes that index."""
        call = self._request(role, user_message)
        outcome = self._ahead.pop(call, None) if self._ahead else None
        batch = [call]
        if picks is not None and outcome is None:
            for step_picks in mutation.picks_ahead(self.state, picks):
                ahead = step_picks.step - self.state.mutation_step - 1
                rewrite = self._request(*mutation.rewrite_request(step_picks), ahead)
                if rewrite != call and rewrite not in self._ahead:
                    batch.append(rewrite)
                if len(batch) >= self.gateway.in_flight:
                    break
        counts = self.state.chat_calls
        counts[self._roles[role][0]] += 1
        self._ahead = {sent: got for sent, got in self._ahead.items() if sent[0].index >= counts[sent[0].role.value]}
        if len(batch) > 1:
            outcomes = self.gateway.chat_many(batch)
            self._ahead.update(zip(batch[1:], outcomes[1:]))
            outcome = outcomes[0]
        return self.gateway.chat(*call) if outcome is None else _reply(outcome)

    def _send(self, requests: list[tuple[ModelRole, str]]) -> list[str]:
        """Send independent requests as one ``chat_many`` batch; the replies,
        or the first failure in input order raised. Every request is counted
        when the batch is built, so the indices stay aligned after a
        failure."""
        batch = [self._call(role, message) for role, message in requests]
        return [_reply(outcome) for outcome in self.gateway.chat_many(batch)]

    # ------------------------------------------------------------- round ops

    def generate_step_plan(self, feedback_summary: str | None, picks: Picks | None = None) -> str:
        """The prompting call for the next plan (see :meth:`chat` for
        ``picks``)."""
        request = templates.compose_step_plan_request(
            self.state.task_prompt, feedback_summary, self.state.best.entries, self.state.worst.entries
        )
        return self.chat(ModelRole.PROMPTING, request, picks)

    def draw_samples(self, step_plan: str) -> list[tuple[str, float]]:
        """Send the actor calls for one prompt as a batch and score the
        samples as a batch, then log them in index order; returns
        (text, score) per sample. A failed scoring logs none of them."""
        outputs = self._send([(ModelRole.ACTOR, step_plan)] * self.state.samples_per_round)
        samples = list(zip(outputs, self.evaluator.score_batch(outputs)))
        for output, score in samples:
            ids = sample_ids(self.state)
            self.record("SampleGenerated", {**ids, "text": output})
            self.record("SampleScored", {**ids, "score": score})
        return samples

    def collect_feedback(self, samples: list[tuple[str, float]], routes: list[str], step_plan: str) -> list[str]:
        """One feedback call per sample, on its route's role, sent as a batch."""
        requests = []
        for (text, score), route in zip(samples, routes):
            role = ModelRole.DIAGNOSTIC_FEEDBACK if route == "diagnostic" else ModelRole.GENERAL_FEEDBACK
            requests.append((role, templates.compose_feedback_request(step_plan, text, score)))
        return self._send(requests)

    def _atomically(self, body) -> None:
        """Run ``body``, a round or the initial plan (round 1's), atomically.
        A backend failure rolls the state back to the commit point it started
        from, logs a BackendFailure of the open round, and aborts the run
        (the log stays resumable)."""
        committed = self.state.clone()
        try:
            body()
        except BACKEND_ERRORS as exc:
            self.state = committed
            failure = backend_failure(committed)
            self.record("BackendFailure", {**failure, "message": str(exc)})
            raise RunAbortedError(f"round {failure['round']} aborted: {exc}") from exc

    def run_round(self) -> None:
        """Execute one feedback round atomically (see :meth:`_atomically`)."""
        self._atomically(self._run_round_inner)

    def _run_round_inner(self) -> None:
        state = self.state
        step_plan = state.current.step_plan
        self.record("RoundStarted", round_started(state))

        samples = self.draw_samples(step_plan)

        # Round 1 defines the threshold before any routing happens.
        if state.threshold is None:
            self.record("ThresholdUpdated", threshold_update(state))

        routes = [route_feedback(score, state.threshold) for _, score in samples]
        feedbacks = self.collect_feedback(samples, routes, step_plan)
        for feedback in feedbacks:
            self.record("FeedbackIssued", {**feedback_issued(state), "text": feedback})

        summary = self.chat(ModelRole.SUMMARIZER, templates.compose_summary_request(feedbacks))
        self.record("RoundSummarized", {**round_ids(state), "text": summary})

        # Later rounds raise the threshold only if the new mean beats it.
        update = threshold_update(state)
        if update is not None:
            self.record("ThresholdUpdated", update)

        self.record("ArchivesUpdated", archives_updated(state))
        self._publish_plan(self._next_plan(round_ids(state)["round"], summary))

    def _next_plan(self, round_no: int, summary: str) -> str:
        """The plan the round after ``round_no`` would run. When the run
        turns to mutation after this round and the phase runs a step, step
        1's rewrite request goes out in one batch with the plan request: its
        picks are fixed once the round has archived its prompt, and step 1
        takes them (see :meth:`step_picks`). The batch's free slots carry
        the next steps' speculative rewrites (see :meth:`chat`), and a
        failed plan request is raised as the lone call's would be."""
        # The state as this round's commit leaves it, in all the checks read.
        committed = replace(self.state, round=round_no)
        if check_transition(committed) == "mutation" and step_due(committed):
            self._first_picks = mutation.draw_picks(self.state)
        return self.generate_step_plan(summary, self._first_picks)

    def step_picks(self) -> Picks:
        """The open mutation step's picks: step 1's as the last round's plan
        request drew them, if it went out in this process (see
        :meth:`_next_plan`), else drawn now."""
        picks, self._first_picks = self._first_picks, None
        return picks or mutation.draw_picks(self.state)

    def _publish_plan(self, plan: str) -> None:
        """Log the prompt the next round runs; this commits the round."""
        self.record("PromptRegenerated", {**prompt_regenerated(self.state), "step_plan": plan})

    # ------------------------------------------------------------ run driver

    def _generate_initial_plan(self) -> None:
        """Log the plan round 1 runs, atomically (see :meth:`_atomically`)."""
        self._atomically(lambda: self._publish_plan(self.generate_step_plan(None)))

    def resume(self) -> EngineState:
        """Drive the phases from the current state to RunFinished; returns
        the final state."""
        if self.state.current is None and self.state.phase == "feedback_loop":
            self._generate_initial_plan()
        while self.state.phase == "feedback_loop":
            transition = phase_transition(self.state)
            if transition is None:
                self.run_round()
            else:
                self.record("PhaseTransition", transition)
        if self.state.phase == "mutation":
            mutation.run_mutation_phase(self)
        self.record("RunFinished", self.state.totals())
        return self.state

    def run(self, manifest: dict) -> EngineState:
        """Run fresh: health-check the backend, then open the log and drive
        the phases to completion; returns the final state. The log's
        manifest is ``manifest`` plus ``corpus_centroid``, the evaluator's
        centroid, from which a resume scores. An unreachable backend aborts
        before any log file is created."""
        cause = self.gateway.health_check()
        if cause is not None:
            raise BackendUnavailableError(f"backend unavailable: {cause}")
        self.log.start({**manifest, "corpus_centroid": runstore.encode_centroid(self.evaluator.centroid)})
        self.record("RunStarted", {"run_id": manifest["run_id"], **self._started})
        return self.resume()

    @classmethod
    def resumed(
        cls,
        gateway,
        evaluator_for,
        config: EngineConfig,
        log_path,
        config_digest: str,
        corpus_digest: str,
        expected_task_prompt: str | None = None,
    ) -> "Engine":
        """Rebuild an engine from a log: lock it, replay it to the last commit
        point, verify the digests, the task prompt (if ``expected_task_prompt``
        is given) and that the log's RunStarted is the one this config
        writes, then take the scorer ``evaluator_for(centroid)`` makes of the
        manifest's corpus centroid (None in a log without one) and cut off
        any uncommitted tail. The log is checked before ``evaluator_for`` is
        called, and a refusal leaves it as it was. The replayed state carries
        each role's call count as of the commit."""
        log = runstore.EventLog(log_path)
        log.lock()
        try:
            result = runstore.replay_log(log_path)
            for name, supplied in (("config", config_digest), ("corpus", corpus_digest)):
                logged = result.manifest.get(f"{name}_digest")
                if logged != supplied:
                    raise DigestMismatchError(
                        f"{name} digest mismatch: log has {logged}, supplied {name} digests to {supplied}"
                    )
            if expected_task_prompt is not None and expected_task_prompt != result.state.task_prompt:
                raise ConfigError("the given prompt differs from the task prompt recorded in the log")
            run_id = result.manifest["run_id"]
            engine = cls(gateway, None, config, log, result.state.task_prompt)
            if result.run_started != {"run_id": run_id, **engine._started}:
                raise LogError(f"run {run_id}: the log's RunStarted differs from the one this config writes")
            if result.finished:
                raise LogError(f"run {run_id} is already finished")
            engine.evaluator = evaluator_for(result.centroid)
            engine.state = result.state
            log.resume_at(result.committed_end, result.committed)
        except BaseException:
            log.close()
            raise
        return engine
