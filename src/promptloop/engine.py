"""Actor-critic feedback loop over prompt candidates.

One round: generate samples from the current step-by-step prompt, score each
against the reference corpus, route per-sample feedback by threshold,
summarize, update threshold and best/worst archives, regenerate an improved
prompt. The threshold starts as the round-1 mean and only ever increases.
Once the best archive is full the run switches to the guided mutation phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

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


class _SentAhead(NamedTuple):
    """A rewrite request sent before its step's turn: the step's picks, the
    generator state and best-archive length they were drawn from, and the
    request's reply or backend error."""

    picks: Picks
    drawn_from: tuple[int, int]
    outcome: str | Exception


def _reply(outcome: str | Exception) -> str:
    """A batch outcome's reply; a backend error is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class Engine:
    """State machine driving one optimization run.

    The engine talks to the backend only through :meth:`_chat`,
    :meth:`_chat_many` and :meth:`_send`, which number each call by its
    role's call count in the run state (so a resumed run issues the calls
    the uninterrupted run would have), and to the scorer only through
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
    has archived its prompt; the rewrite's outcome waits in the ahead map
    (see :meth:`_send`). On a backend with a free slot beside a step's own
    call (``in_flight`` above 1), a step whose rewrite is not in the map
    sends it itself through the map too, and either batch fills its free
    slots, up to ``in_flight``, with speculative rewrite requests of the
    following steps, their picks drawn as if the steps in between leave the
    best archive alone. On one without (the mock's 1), nothing goes ahead
    but step 1's rewrite: a step draws its picks once and sends its rewrite
    as one call at its turn. A step takes picks from the map only where it
    would draw the same ones (see :meth:`step_picks`), and a rewrite is
    counted, and its reply or error handed out, only when the step asks
    :meth:`rewrite` for that very call. So the events and every request of
    the sequential run stay as they are; a speculation that misses only
    costs its request.
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
        #: with its picks, what they were drawn from and the call's outcome.
        self._ahead: dict[ChatCall, _SentAhead] = {}

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

    def _chat(self, role: ModelRole, user_message: str) -> str:
        """One chat call."""
        return self.gateway.chat(*self._call(role, user_message))

    def _chat_many(self, requests: list[tuple[ModelRole, str]]) -> list[str]:
        """Send independent requests as one batch; the replies, or the first
        failure in input order raised. Every request is counted when the
        batch is built, so the indices stay aligned after a failure."""
        outcomes = self.gateway.chat_many([self._call(role, message) for role, message in requests])
        return [_reply(outcome) for outcome in outcomes]

    # ------------------------------------------------------------- round ops

    def _plan_request(self, feedback_summary: str | None) -> str:
        return templates.compose_step_plan_request(
            self.state.task_prompt, feedback_summary, self.state.best.entries, self.state.worst.entries
        )

    def generate_step_plan(self, feedback_summary: str | None) -> str:
        return self._chat(ModelRole.PROMPTING, self._plan_request(feedback_summary))

    def draw_samples(self, step_plan: str) -> list[tuple[str, float]]:
        """Send the actor calls for one prompt as a batch and score the
        samples as a batch, then log them in index order; returns
        (text, score) per sample. A failed scoring logs none of them."""
        outputs = self._chat_many([(ModelRole.ACTOR, step_plan)] * self.state.samples_per_round)
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
        return self._chat_many(requests)

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

        summary = self._chat(ModelRole.SUMMARIZER, templates.compose_summary_request(feedbacks))
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
        picks are fixed once the round has archived its prompt. The batch's
        free slots carry the next steps' speculative rewrites (see
        :meth:`_send`); the picks and outcomes wait in the ahead map for
        their steps, and a failed plan request is raised as the lone call's
        would be."""
        # The state as this round's commit leaves it, in all the checks read.
        committed = replace(self.state, round=round_no)
        if check_transition(committed) != "mutation" or not step_due(committed):
            return self.generate_step_plan(summary)
        plan_call = self._call(ModelRole.PROMPTING, self._plan_request(summary))
        [plan] = self._send([plan_call], mutation.draw_picks(self.state))
        return _reply(plan)

    # -------------------------------------------------------- rewrites ahead

    def _send(self, batch: list[ChatCall], picks: Picks) -> list[str | Exception]:
        """Send ``batch`` in one ``chat_many`` with the rewrite request of
        ``picks``' step and, in the slots left up to the backend's
        ``in_flight``, those of the due steps after it, their picks chained
        from ``picks`` by :func:`promptloop.mutation.picks_ahead`. A call
        already in the ahead map is not sent again. Each rewrite sent goes
        into the map with its picks, what they were drawn from and its
        outcome; returns the outcomes of ``batch``."""
        rewrites = []
        for drawn_from, step_picks in mutation.picks_ahead(self.state, picks):
            call = self._rewrite_call(step_picks)
            if call not in self._ahead:
                rewrites.append((call, drawn_from, step_picks))
                if len(batch) + len(rewrites) >= self.gateway.in_flight:
                    break
        outcomes = self.gateway.chat_many(batch + [call for call, _, _ in rewrites])
        for (call, drawn_from, step_picks), outcome in zip(rewrites, outcomes[len(batch):]):
            self._ahead[call] = _SentAhead(step_picks, drawn_from, outcome)
        return outcomes[: len(batch)]

    def step_picks(self) -> Picks:
        """The open mutation step's picks, its rewrite request sent. Picks
        sent ahead are taken where :func:`promptloop.mutation.draw_picks`
        would draw the same: drawn for this step from this generator state,
        over an archive of this length with this entry at the picked index.
        Otherwise they are drawn now, and on a backend with a free slot
        beside the step's own call the rewrite request goes out, with the
        speculative ones of the steps after it (see :meth:`_send`), unless
        that very call went out ahead; on one without, :meth:`rewrite` sends
        it. The map keeps only the steps from this one on."""
        state, step = self.state, self.state.mutation_step + 1
        entries = state.best.entries
        self._ahead = {call: sent for call, sent in self._ahead.items() if sent.picks.step >= step}
        for sent in self._ahead.values():
            picks = sent.picks
            if (picks.step == step and sent.drawn_from == (state.rng.state, len(entries))
                    and entries[picks.archive_index] == picks.source):
                return picks
        picks = mutation.draw_picks(state)
        if self.gateway.in_flight > 1:
            self._send([], picks)
        return picks

    def rewrite(self, role: ModelRole, user_message: str) -> str:
        """The open step's rewrite call, counted at its turn: the outcome
        that very call got if it went out ahead (see :meth:`step_picks`),
        else the reply of the call sent now."""
        call = self._call(role, user_message)
        sent = self._ahead.get(call) if self._ahead else None
        return self.gateway.chat(*call) if sent is None else _reply(sent.outcome)

    def _rewrite_call(self, picks: Picks) -> ChatCall:
        """The rewrite request of ``picks``' step, at the mutator call index
        its turn gives it: one more for each step before it from the open
        one on."""
        return self._request(*mutation.rewrite_request(picks), picks.step - self.state.mutation_step - 1)

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
