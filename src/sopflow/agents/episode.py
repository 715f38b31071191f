"""The main episode loop: thought, action set, action, observation.

Each step makes up to three backend calls (orchestrator thought, candidate
proposal, orchestrator selection), executes exactly one tool from the bounded
action set, and runs the post-observation hooks (ObAgent then JudgeAgent after
match_observation). On a backend that declares ``concurrent_calls`` (the
remote one) the episode overlaps calls that do not depend on each other,
using one worker thread, so at most two requests are in flight:
- the thought and the proposal are sent together, so a step waits for 2
  serial round trips, not 3;
- the findings an R6 candidate matches, fixed once the action set is built,
  are embedded while the selection is in flight (a prefetch: no retry, no
  event), and the episode's backend holds the vector until a match asks for
  it;
- a knowledge-base match embeds the texts it misses two at a time.
Both pairs go through one primitive, ``_RecordingBackend.both``. Scripted
runs stay strictly sequential, because their replies depend on call order.
Either way the transcript holds the events in the sequential order, and a
failure resolves as it would in that order. A failed completion or
knowledge-base embedding is retried once (after the backend's Retry-After,
capped); failing again aborts the episode, and so does any unexpected
exception raised from a step. Executing speak terminates it with a diagnosis;
running out of the step budget terminates it without one.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import asdict
from pathlib import Path

from ..detector import DetectorConfig
from ..errors import BackendError, EpisodeAborted, ScriptExhaustedError, SopflowError
from ..llm import ChatMessage, ask, render_prompt
from ..prompts import (
    DIRECT_SYSTEM,
    FLOW_GUIDE,
    SELECT_SYSTEM,
    THOUGHT_SYSTEM,
    numbered_candidates,
)
from ..sandbox import EpisodeScenario, render_alert, render_telemetry
from ..schema import write_atomic
from ..tools import SpeakReport, ToolContext, ToolResult, build_registry
from . import roles
from .flow_rules import apply_flow_rules, fallback_candidate
from .types import (
    ActionCandidate,
    ActionSet,
    AgentConfig,
    EpisodeResult,
    EpisodeState,
    OUTCOME_ABORTED,
    OUTCOME_BUDGET,
    OUTCOME_COMPLETED,
    DiagnosisResult,
    PROVENANCE_MAIN,
    StepRecord,
)

_HISTORY_TAIL = 6
_OBSERVATION_SNIPPET = 400
MAX_RETRY_WAIT_S = 10.0  # cap on a backend's Retry-After before the one retry


class _RecordingBackend:
    """Wraps a backend for one episode: completions and embeddings both get
    the retry-once-then-abort policy, and completions go to the transcript
    (``events``: the episode's, or a buffer ``both`` splices in).

    On a backend that declares ``concurrent_calls`` it owns the episode's one
    worker thread (started on first use, for ``both`` and ``prefetch``), so
    the episode has at most two requests in flight: one on the thread that
    runs the step and one on the worker.
    """

    def __init__(self, inner, state: EpisodeState, events: list[dict] | None = None):
        self._inner = inner
        self._state = state
        self._events = state.events if events is None else events
        self.embed_dim = inner.embed_dim
        self.backend_id = inner.backend_id
        # a buffered backend runs on the worker, so it sends one call at a time
        self.concurrent_calls = events is None and getattr(inner, "concurrent_calls", False)
        self._executor: ThreadPoolExecutor | None = None
        self._prefetched: dict[str, object] = {}  # text -> vector, until embed_many uses it

    def _worker(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=1,
                                                thread_name_prefix="sopflow-propose")
        return self._executor

    def close(self) -> None:
        """Stop the worker thread, if one was started; waits for a call in flight."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def both(self, first, second) -> tuple:
        """``(first(self), second(backend))``, with the events and any abort of
        calling one after the other. With ``concurrent_calls``, ``second`` runs
        on the worker while ``first`` runs here, through a backend that logs
        into a buffer; the buffer is spliced in after ``first``'s events, or
        dropped if ``first`` raises. Otherwise ``second`` runs after ``first``."""
        if not self.concurrent_calls:
            return first(self), second(self)
        events: list[dict] = []
        later = self._worker().submit(second,
                                      _RecordingBackend(self._inner, self._state, events))
        try:
            result = first(self)
        finally:
            wait([later])
        self._events.extend(events)
        return result, later.result()

    def _log(self, kind: str, **fields) -> None:
        self._events.append(self._state.event(kind, **fields))

    def _retry_once(self, call, arg):
        try:
            return call(arg)
        except (BackendError, ScriptExhaustedError) as first:
            self._log("llm_retry", error=str(first))
            wait_s = getattr(first, "retry_after_s", None)
            if wait_s:
                time.sleep(min(wait_s, MAX_RETRY_WAIT_S))
            try:
                return call(arg)
            except (BackendError, ScriptExhaustedError) as second:
                raise EpisodeAborted(f"backend failed twice: {second}") from second

    def complete(self, messages: list[ChatMessage]) -> str:
        reply = self._retry_once(self._inner.complete, messages)
        self._log("llm", prompt=render_prompt(messages), reply=reply)
        return reply

    def embed(self, text: str):
        return self._retry_once(self._inner.embed, text)

    def embed_many(self, texts: list[str]) -> list:
        """The vectors of ``texts``, in order. A prefetched text is not sent;
        the others are embedded as ``embed`` does, two at a time through
        ``both``."""
        vectors = {text: self._prefetched.pop(text) for text in texts
                   if text in self._prefetched}
        todo = [text for text in texts if text not in vectors]
        for a, b in zip(todo[0::2], todo[1::2]):
            vectors[a], vectors[b] = self.both(lambda backend: backend.embed(a),
                                               lambda backend: backend.embed(b))
        if len(todo) % 2:
            vectors[todo[-1]] = self.embed(todo[-1])
        return [vectors[text] for text in texts]

    def prefetch(self, text: str) -> Future | None:
        """Embed ``text`` on the worker (None if its vector is already held),
        straight through the inner backend: no retry, no event, and an error is
        dropped, so that ``embed_many`` sends the text as if nothing had been
        sent. The transcript is the same either way."""
        if text in self._prefetched:
            return None

        def fetch() -> None:
            try:
                self._prefetched[text] = self._inner.embed(text)
            except SopflowError:  # embed_many's own embed retries and reports it
                pass

        return self._worker().submit(fetch)


def _history_text(state: EpisodeState) -> str:
    if not state.history:
        return "(no steps yet)"
    lines = []
    for record in state.history[-_HISTORY_TAIL:]:
        args = ", ".join(f"{k}={str(v)[:60]!r}" for k, v in record.chosen.args.items())
        snippet = record.observation[:_OBSERVATION_SNIPPET]
        lines.append(f"step {record.index + 1}: {record.chosen.tool}({args}) -> {snippet}")
    return "\n".join(lines)


def _advisor_notes(state: EpisodeState) -> str:
    lines = []
    if state.ob_hypotheses:
        hypo = "; ".join(f"{label} ({note})" if note else label
                         for label, note in state.ob_hypotheses)
        lines.append(f"fault-type hypotheses: {hypo}")
    if state.judge_verdict is not None:
        lines.append(f"judge: {state.judge_verdict.summary}")
    return "\n".join(lines) or "(none)"


class _Runtime:
    def __init__(self, scenario: EpisodeScenario, config: AgentConfig, backend, kb,
                 detector: DetectorConfig | None = None):
        config.validate()
        self.scenario = scenario
        self.config = config
        self.detector = detector or DetectorConfig()
        self.detector.validate()
        self.registry = build_registry()
        telemetry = render_telemetry(scenario)
        self.alert = render_alert(telemetry, self.detector)
        self.state = EpisodeState(scenario_id=scenario.id, alert=self.alert, config=config)
        self.backend = _RecordingBackend(backend, self.state)
        if not config.ablations.sop_knowledge:
            kb = kb.without_sops()
        self.ctx = ToolContext(
            telemetry=telemetry, kb=kb.using(self.backend), backend=self.backend,
            detector=self.detector, registry=self.registry,
        )

    @property
    def flow_guide(self) -> str:
        if self.config.ablations.flow_rules_active:
            return FLOW_GUIDE
        return ""

    # -- step phases ---------------------------------------------------------

    def _think(self, backend) -> str:
        system = THOUGHT_SYSTEM
        if self.flow_guide:
            system = system + "\n\n" + self.flow_guide
        user = (f"Incident alert:\n{self.state.alert}\n\n"
                f"Investigation so far:\n{_history_text(self.state)}\n\n"
                f"Advisor notes:\n{_advisor_notes(self.state)}")
        return ask(backend, system, user)

    def _propose(self, backend) -> str:
        return roles.action_agent_propose(
            backend, self.registry, self.state.alert,
            _history_text(self.state), self.flow_guide, self.config.action_set_size,
        )

    def _prefetch(self, action_set: ActionSet) -> Future | None:
        """Start embedding the findings of the action set's R6 candidate
        (``match_observation``) while the selection is in flight, if they are
        not cached yet. R8's ``match_sop(alert)`` is not prefetched: no
        measured workload chooses it, so the request would only add load."""
        if not self.backend.concurrent_calls:
            return None
        for candidate in action_set.candidates:
            if candidate.rule == "R6":
                text = str(candidate.args["observation"])
                if text.strip() and not self.ctx.kb.cached(text):
                    return self.backend.prefetch(text)
        return None

    def _build_action_set(self, reply: str | None) -> ActionSet:
        state = self.state
        agent_candidates: list[ActionCandidate] = []
        if reply is not None:
            agent_candidates, notes = roles.parse_candidates(
                reply, self.registry, self.config.action_set_size,
            )
            for note in notes:
                state.log("note", text=note)
        action_set = apply_flow_rules(
            state.step_count, state.last_step, state.judge_verdict,
            state.alert, agent_candidates, self.config,
        )
        state.log("action_set", candidates=[
            {"tool": c.tool, "args": _jsonable_args(c.args),
             "provenance": c.provenance, "rule": c.rule, "rationale": c.rationale}
            for c in action_set.candidates
        ], evicted=[c.tool for c in action_set.evicted], notes=action_set.notes)
        return action_set

    def _select(self, thought: str, action_set: ActionSet) -> tuple[ActionCandidate, int, bool]:
        listing = numbered_candidates(action_set.candidates)
        user = (f"Current thought:\n{thought}\n\nCandidate actions:\n{listing}\n\n"
                f"Reply with the number of the action to execute.")
        reply = ask(self.backend, SELECT_SYSTEM, user)
        index = roles.parse_selection(reply, len(action_set.candidates))
        if index is None:
            chosen = fallback_candidate(action_set)
            position = action_set.candidates.index(chosen) + 1
            self.state.log("note", text="fallback: selection unusable, using "
                                        f"{chosen.tool} (candidate {position})")
            return chosen, position, True
        return action_set.candidates[index - 1], index, False

    def _direct_action(self, thought: str) -> ActionCandidate | None:
        """action_set ablation: the orchestrator names one action itself."""
        user = (f"Current thought:\n{thought}\n\n"
                f"Tool catalog:\n{self.registry.catalog_text()}\n\n"
                f"Investigation so far:\n{_history_text(self.state)}")
        reply = ask(self.backend, DIRECT_SYSTEM, user)
        candidates, _ = roles.parse_candidates(reply, self.registry, max_candidates=1,
                                               provenance=PROVENANCE_MAIN)
        if (candidates and candidates[0].tool == "speak" and self.config.ablations.judge_agent
                and not (self.state.judge_verdict and self.state.judge_verdict.found)):
            self.state.log("note", text="dropped direct speak: judge has not confirmed")
            return None
        return candidates[0] if candidates else None

    # -- post-observation hooks ------------------------------------------------

    def _run_ob_agent(self, observation_text: str, result: ToolResult) -> None:
        incident_lines = []
        for hit in result.payload or []:
            incident = self.ctx.kb.get_incident(hit.item_id)
            incident_lines.append(
                f"- [{incident.fault_type}] {incident.manifestation} (score {hit.score:.4f})"
            )
        reply = roles.ob_agent_classify(
            self.backend, observation_text, "\n".join(incident_lines),
        )
        hypotheses = roles.parse_hypotheses(reply)
        self.state.ob_hypotheses = hypotheses
        self.state.log("hypotheses", items=[list(h) for h in hypotheses])

    def _run_judge(self, trigger: str) -> None:
        reply = roles.judge_agent(
            self.backend, self.state.alert, _history_text(self.state),
            self.state.ob_hypotheses,
        )
        verdict = roles.parse_judge_reply(reply)
        self.state.judge_verdict = verdict
        self.state.log("verdict", trigger=trigger, found=verdict.found,
                       summary=verdict.summary,
                       causes=[[c.location, c.fault_type, c.explanation]
                               for c in verdict.causes])

    def _post_hooks(self, record: StepRecord) -> None:
        tool = record.chosen.tool
        result = record.result
        if tool == "match_observation":
            matched_text = str(record.chosen.args.get("observation", "")) \
                or self.ctx.sop.last_findings or record.observation
            if self.config.ablations.ob_agent:
                self._run_ob_agent(matched_text, result)
            if self.config.ablations.judge_agent:
                self._run_judge(trigger="match_observation")
        elif (tool == "run_sop" and result.success and self.config.judge_after_run_sop
              and self.config.ablations.judge_agent
              and result.payload is not None and result.payload.findings):
            self._run_judge(trigger="run_sop")
        record.verdict_after = self.state.judge_verdict

    # -- one full step -----------------------------------------------------------

    def step(self) -> None:
        state = self.state
        if self.config.ablations.action_set:
            if self.config.ablations.action_agent:
                thought, reply = self.backend.both(self._think, self._propose)
            else:
                thought, reply = self._think(self.backend), None
            action_set = self._build_action_set(reply)
            if not action_set.candidates:
                # nothing proposed and no rule fired; the step is spent
                state.log("note", text="empty action set; step consumed")
                state.step_count += 1
                return
            prefetch = self._prefetch(action_set)
            try:
                chosen, position, fallback = self._select(thought, action_set)
            finally:
                if prefetch is not None:
                    prefetch.result()
        else:
            thought = self._think(self.backend)
            candidate = self._direct_action(thought)
            if candidate is None:
                state.log("note", text="direct action unusable; step consumed")
                state.step_count += 1
                return
            action_set = ActionSet(candidates=[candidate],
                                   max_size=self.config.action_set_size)
            chosen, position, fallback = candidate, 1, False

        state.log("chosen", tool=chosen.tool, args=_jsonable_args(chosen.args),
                  index=position, fallback=fallback)
        result = self.registry.execute(chosen.tool, chosen.args, self.ctx)
        state.log("observation", tool=chosen.tool, success=result.success,
                  text=result.observation)

        record = StepRecord(
            index=state.step_count, thought=thought, action_set=action_set,
            chosen=chosen, chosen_index=position, fallback=fallback,
            result=result, observation=result.observation,
        )
        state.history.append(record)
        self._post_hooks(record)
        state.step_count += 1

        if result.success and isinstance(result.payload, SpeakReport):
            causes = result.payload.causes
            state.diagnosis = DiagnosisResult(
                locations=_dedupe(c.location for c in causes),
                types=_dedupe(c.fault_type for c in causes),
                explanation="; ".join(c.explanation for c in causes if c.explanation),
                path=state.path,
            )
            state.terminated = True
            state.outcome = OUTCOME_COMPLETED


def _dedupe(items) -> tuple:
    seen = []
    for item in items:
        if item not in seen:
            seen.append(item)
    return tuple(seen)


def _jsonable_args(args: dict) -> dict:
    return {k: (v if isinstance(v, (str, int, float, bool)) else str(v))
            for k, v in args.items()}


def run_episode(scenario: EpisodeScenario, config: AgentConfig, backend, kb,
                detector: DetectorConfig | None = None) -> EpisodeResult:
    """Drive one diagnosis episode to termination."""
    rt = _Runtime(scenario, config, backend, kb, detector)
    state = rt.state
    state.log("episode", scenario=scenario.id, alert=rt.alert, config=asdict(config))
    try:
        while not state.terminated and state.step_count < config.max_steps:
            rt.step()
    except Exception as exc:  # a defect in one step costs this episode, never the run
        state.terminated = True
        state.outcome = OUTCOME_ABORTED
        state.abort_reason = (str(exc) if isinstance(exc, EpisodeAborted)
                              else f"internal error: {type(exc).__name__}: {exc}")
    finally:
        rt.backend.close()
    if not state.terminated:
        state.terminated = True
    if state.outcome is None:
        state.outcome = OUTCOME_COMPLETED if state.diagnosis else OUTCOME_BUDGET
    state.log("termination", outcome=state.outcome, steps=state.step_count,
              diagnosis=None if state.diagnosis is None else {
                  "locations": list(state.diagnosis.locations),
                  "types": list(state.diagnosis.types),
                  "explanation": state.diagnosis.explanation,
                  "path": list(state.diagnosis.path),
              },
              abort_reason=state.abort_reason)
    return EpisodeResult(outcome=state.outcome, state=state)


_TRANSCRIPT_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def transcript_lines(state: EpisodeState) -> list[str]:
    """Deterministic JSONL transcript; byte-stable under scripted backends."""
    return [_TRANSCRIPT_ENCODER.encode(event) for event in state.events]


def write_transcript(state: EpisodeState, path: Path | str) -> None:
    write_atomic(path, "\n".join(transcript_lines(state)) + "\n")
