"""The main episode loop: thought, action set, action, observation.

Each step makes up to three backend calls (orchestrator thought, candidate
proposal, orchestrator selection), executes exactly one tool from the bounded
action set, and runs the post-observation hooks (ObAgent then JudgeAgent after
a successful match_observation). On a backend that declares
``concurrent_calls`` (the remote one) the episode overlaps calls that do not
depend on each other, using one worker thread, so at most two requests are in
flight. There is one way to send a request early,
``_RecordingBackend.send_ahead``: the worker sends it, and the backend holds
it until a call with the identical request takes its reply, or its failure,
as that call's first attempt. It is used three ways:
- a step sends its proposal ahead and then thinks, so it waits for 2 serial
  round trips, not 3;
- a request whose input is fixed once the action set is built is sent ahead
  while the selection is in flight (a prefetch): the findings an R6
  candidate matches, or the coder's completion for the procedure an R1, R3
  or R5 candidate codifies;
- a knowledge-base match embeds the texts it misses two at a time, the
  second of each pair sent ahead.
The first request sent ahead imports ``concurrent.futures`` and starts the
worker, so a scripted run loads no thread pool. Scripted runs stay strictly
sequential, because their replies depend on call order. Either way the
transcript holds the events in the sequential order, and a failure resolves
as it would in that order: every call, sent ahead or not, has one retry
policy. A failed completion or knowledge-base embedding is retried once
(after the backend's Retry-After, capped); failing again aborts the episode,
and so does any unexpected exception raised from a step. Executing speak
terminates it with a diagnosis; running out of the step budget terminates it
without one.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from ..detector import DetectorConfig
from ..errors import BackendError, EpisodeAborted, SopflowError
from ..llm import ChatMessage, ask, chat, render_prompt
from ..prompts import (
    ACTION_SYSTEM,
    DIRECT_SYSTEM,
    FLOW_GUIDE,
    JUDGE_SYSTEM,
    OBSERVER_SYSTEM,
    SELECT_SYSTEM,
    THOUGHT_SYSTEM,
    numbered_candidates,
)
from ..sandbox import EpisodeScenario, render_alert, render_telemetry
from ..schema import write_atomic
from ..tools import ToolContext, ToolResult, build_registry
from ..tools.sop_flow import coder_prompt
from . import roles
from .flow_rules import apply_flow_rules, fallback_candidate, speak_awaits_judge
from .types import (
    ActionCandidate,
    ActionSet,
    AgentConfig,
    EpisodeState,
    OUTCOME_ABORTED,
    OUTCOME_BUDGET,
    OUTCOME_COMPLETED,
    DiagnosisResult,
    StepRecord,
)

if TYPE_CHECKING:  # annotations only; send_ahead imports it at first use
    from concurrent.futures import Future, ThreadPoolExecutor

_HISTORY_TAIL = 6
_OBSERVATION_SNIPPET = 400
MAX_RETRY_WAIT_S = 10.0  # cap on a backend's Retry-After before the one retry


class _RecordingBackend:
    """Wraps a backend for one episode: completions and embeddings both get
    the retry-once-then-abort policy (``_call``), and completions go to the
    transcript.

    On a backend that declares ``concurrent_calls`` it owns the episode's one
    worker thread (started by the first ``send_ahead``), so the episode has at
    most two requests in flight: one on the thread that runs the step and one
    on the worker. The worker only sends; it logs nothing and retries nothing.
    """

    def __init__(self, inner, state: EpisodeState):
        self._inner = inner
        self._state = state
        self.backend_id = inner.backend_id
        self.concurrent_calls = getattr(inner, "concurrent_calls", False)
        self._executor: ThreadPoolExecutor | None = None
        # ("embed", text) or ("complete", prompt) -> the request sent ahead
        self._ahead: dict[tuple[str, str], Future] = {}

    def close(self) -> None:
        """Stop the worker thread, if one was started; waits for a call in flight."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def send_ahead(self, kind: str, request) -> Future | None:
        """With ``concurrent_calls``, send ``request`` on the worker: a text to
        embed (``kind`` "embed") or the messages of a completion ("complete").
        Its reply, or its failure, is the first attempt of the next call with
        the identical request, so the transcript is the sequential one. None
        when the calls are sequential or the request is already held."""
        if not self.concurrent_calls:
            return None
        key = (kind, request if kind == "embed" else render_prompt(request))
        if key in self._ahead:
            return None
        if self._executor is None:
            from concurrent.futures import ThreadPoolExecutor
            self._executor = ThreadPoolExecutor(max_workers=1,
                                                thread_name_prefix="sopflow-propose")
        self._ahead[key] = self._executor.submit(getattr(self._inner, kind), request)
        return self._ahead[key]

    def _call(self, kind: str, request, key: str):
        """The inner backend's reply to ``request``: attempt 1 is the request
        sent ahead, if one is held, and is sent here otherwise; a failure is
        retried once (after the backend's Retry-After, capped), and a second
        failure aborts the episode."""
        send = getattr(self._inner, kind)
        held = self._ahead.pop((kind, key), None)
        try:
            return send(request) if held is None else held.result()
        except BackendError as first:
            self._state.log("llm_retry", error=str(first))
            wait_s = first.retry_after_s
            if wait_s:
                time.sleep(min(wait_s, MAX_RETRY_WAIT_S))
            try:
                return send(request)
            except BackendError as second:
                raise EpisodeAborted(f"backend failed twice: {second}") from second

    def complete(self, messages: list[ChatMessage]) -> str:
        """A completion, logged to the transcript."""
        prompt = render_prompt(messages)
        reply = self._call("complete", messages, prompt)
        self._state.log("llm", prompt=prompt, reply=reply)
        return reply

    def embed(self, text: str):
        return self._call("embed", text, text)

    def embed_many(self, texts: list[str]) -> list:
        """The vectors of ``texts``, embedded in order as ``embed`` does. The
        texts not already sent ahead go two at a time: the second of each pair
        is sent ahead while the first is embedded."""
        todo = [text for text in texts if ("embed", text) not in self._ahead]
        second = dict(zip(todo[0::2], todo[1::2]))
        vectors = []
        for text in texts:
            if text in second:
                self.send_ahead("embed", second[text])
            vectors.append(self.embed(text))
        return vectors


def _history_text(state: EpisodeState) -> str:
    if not state.history:
        return "(no steps yet)"
    lines = []
    for record in state.history[-_HISTORY_TAIL:]:
        args = ", ".join(f"{k}={str(v)[:60]!r}" for k, v in record.chosen.args.items())
        snippet = record.result.observation[:_OBSERVATION_SNIPPET]
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
        self.config = config
        detector = detector or DetectorConfig()
        self.registry = build_registry()
        telemetry = render_telemetry(scenario)
        self.state = EpisodeState(scenario_id=scenario.id,
                                  alert=render_alert(telemetry, detector))
        self.backend = _RecordingBackend(backend, self.state)
        if not config.ablations.sop_knowledge:
            kb = kb.without_sops()
        self.ctx = ToolContext(
            telemetry=telemetry, kb=kb.using(self.backend), backend=self.backend,
            detector=detector, registry=self.registry,
        )

    def _with_flow_guide(self, system: str) -> str:
        """``system``, followed by the flow guide while the flow rules are active."""
        if self.config.ablations.flow_rules_active:
            return system + "\n\n" + FLOW_GUIDE
        return system

    # -- step phases ---------------------------------------------------------

    def _think(self) -> str:
        user = (f"Incident alert:\n{self.state.alert}\n\n"
                f"Investigation so far:\n{_history_text(self.state)}\n\n"
                f"Advisor notes:\n{_advisor_notes(self.state)}")
        return ask(self.backend, self._with_flow_guide(THOUGHT_SYSTEM), user)

    def _proposal_prompt(self) -> tuple[str, str]:
        """The (system, user) prompt of the ActionAgent's proposal."""
        system = ACTION_SYSTEM.format(max_candidates=self.config.action_set_size)
        user = (f"Tool catalog:\n{self.registry.catalog_text()}\n\n"
                f"Incident alert:\n{self.state.alert}\n\n"
                f"Investigation so far:\n{_history_text(self.state)}")
        return self._with_flow_guide(system), user

    def _prefetch(self, action_set: ActionSet) -> Future | None:
        """Start the request of the action set's flow candidate while the
        selection is in flight: the embedding of the findings a rule's
        ``match_observation`` matches, if they are not cached yet, or the
        completion a rule's ``generate_sop_code`` asks the coder for, if its
        procedure resolves. The rules that add these exclude one another, so
        there is at most one. On a sequential backend nothing is sent early,
        so nothing is built for it.

        Not prefetched: a rule's ``match_sop(alert)``, since no measured
        workload chooses it and the request would only add load; and a rule's
        ``generate_sop``, since its author prompt needs a knowledge-base match
        first."""
        if not self.backend.concurrent_calls:
            return None
        for candidate in action_set.candidates:
            if candidate.rule is None:
                continue
            if candidate.tool == "match_observation":
                text = str(candidate.args["observation"])
                if text.strip() and not self.ctx.kb.cached(text):
                    return self.backend.send_ahead("embed", text)
            elif candidate.tool == "generate_sop_code":
                try:
                    _, system, user = coder_prompt(self.ctx, candidate.args.get("sop_id"))
                except SopflowError:  # the tool reports it if chosen
                    continue
                return self.backend.send_ahead("complete", chat(system, user))
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
            {"tool": c.tool, "args": c.args,
             "provenance": c.provenance, "rule": c.rule, "rationale": c.rationale}
            for c in action_set.candidates
        ], evicted=[c.tool for c in action_set.evicted], notes=list(action_set.notes))
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
        """action_set ablation: the orchestrator names one action itself; None,
        with a note, if the step is consumed without one."""
        user = (f"Current thought:\n{thought}\n\n"
                f"Tool catalog:\n{self.registry.catalog_text()}\n\n"
                f"Investigation so far:\n{_history_text(self.state)}")
        reply = ask(self.backend, DIRECT_SYSTEM, user)
        candidates, _ = roles.parse_candidates(reply, self.registry, max_candidates=1)
        if not candidates:
            self.state.log("note", text="direct action unusable; step consumed")
            return None
        if (candidates[0].tool == "speak"
                and speak_awaits_judge(self.state.judge_verdict, self.config.ablations)):
            self.state.log("note",
                           text="dropped direct speak: judge has not confirmed; step consumed")
            return None
        return candidates[0]

    # -- post-observation hooks ------------------------------------------------

    def _run_ob_agent(self, observation_text: str, result: ToolResult) -> None:
        incident_lines = []
        for hit in result.payload:
            incident = self.ctx.kb.get_incident(hit.item_id)
            incident_lines.append(
                f"- [{incident.fault_type}] {incident.manifestation} (score {hit.score:.4f})"
            )
        incidents = "\n".join(incident_lines) or "(none found)"
        user = f"Observation:\n{observation_text}\n\nSimilar historical incidents:\n{incidents}"
        reply = ask(self.backend, OBSERVER_SYSTEM, user)
        hypotheses = roles.parse_hypotheses(reply)
        self.state.ob_hypotheses = hypotheses
        self.state.log("hypotheses", items=[list(h) for h in hypotheses])

    def _run_judge(self, trigger: str) -> None:
        hypotheses = "\n".join(f"- {label}: {note}"
                               for label, note in self.state.ob_hypotheses) or "(none)"
        user = (f"Incident alert:\n{self.state.alert}\n\n"
                f"Investigation so far:\n{_history_text(self.state)}\n\n"
                f"Fault-type hypotheses:\n{hypotheses}")
        reply = ask(self.backend, JUDGE_SYSTEM, user)
        verdict = roles.parse_judge_reply(reply)
        self.state.judge_verdict = verdict
        self.state.log("verdict", trigger=trigger, found=verdict.found,
                       summary=verdict.summary,
                       causes=[[c.location, c.fault_type, c.explanation]
                               for c in verdict.causes])

    def _post_hooks(self, record: StepRecord) -> None:
        tool = record.chosen.tool
        result = record.result
        if tool == "match_observation" and result.success:
            matched_text = (str(record.chosen.args.get("observation", ""))
                            or self.ctx.sop.last_findings)
            if self.config.ablations.ob_agent:
                self._run_ob_agent(matched_text, result)
            if self.config.ablations.judge_agent:
                self._run_judge(trigger="match_observation")
        elif (tool == "run_sop" and result.success and self.config.judge_after_run_sop
              and self.config.ablations.judge_agent and result.payload.findings):
            self._run_judge(trigger="run_sop")

    # -- one full step -----------------------------------------------------------

    def step(self) -> None:
        state = self.state
        if self.config.ablations.action_set:
            proposal = self._proposal_prompt() if self.config.ablations.action_agent else None
            if proposal is not None:
                self.backend.send_ahead("complete", chat(*proposal))
            thought = self._think()
            reply = None if proposal is None else ask(self.backend, *proposal)
            action_set = self._build_action_set(reply)
            if not action_set.candidates:
                # nothing proposed and no rule fired; the step is spent
                state.log("note", text="empty action set; step consumed")
                state.step_count += 1
                return
            ahead = self._prefetch(action_set)
            try:
                chosen, position, fallback = self._select(thought, action_set)
            finally:
                if ahead is not None:
                    from concurrent.futures import wait
                    wait([ahead])  # its reply is held for the call that needs it
        else:
            thought = self._think()
            candidate = self._direct_action(thought)
            if candidate is None:
                state.step_count += 1
                return
            chosen, position, fallback = candidate, 1, False

        state.log("chosen", tool=chosen.tool, args=chosen.args,
                  index=position, fallback=fallback)
        result = self.registry.execute(chosen.tool, chosen.args, self.ctx)
        state.log("observation", tool=chosen.tool, success=result.success,
                  text=result.observation)

        record = StepRecord(index=state.step_count, chosen=chosen, result=result)
        state.history.append(record)
        self._post_hooks(record)
        state.step_count += 1

        if result.success and chosen.tool == "speak":
            causes = result.payload
            state.diagnosis = DiagnosisResult(
                locations=tuple(dict.fromkeys(c.location for c in causes)),
                types=tuple(dict.fromkeys(c.fault_type for c in causes)),
                explanation="; ".join(c.explanation for c in causes if c.explanation),
            )
            state.outcome = OUTCOME_COMPLETED


def run_episode(scenario: EpisodeScenario, config: AgentConfig, backend, kb,
                detector: DetectorConfig | None = None) -> EpisodeState:
    """Drive one diagnosis episode to termination; its state holds the
    outcome, the diagnosis and the transcript."""
    rt = _Runtime(scenario, config, backend, kb, detector)
    state = rt.state
    state.log("episode", scenario=scenario.id, alert=state.alert, config=asdict(config))
    try:
        while state.outcome is None and state.step_count < config.max_steps:
            rt.step()
    except Exception as exc:  # a defect in one step costs this episode, never the run
        state.outcome = OUTCOME_ABORTED
        state.abort_reason = (str(exc) if isinstance(exc, EpisodeAborted)
                              else f"internal error: {type(exc).__name__}: {exc}")
    finally:
        rt.backend.close()
    if state.outcome is None:
        state.outcome = OUTCOME_COMPLETED if state.diagnosis else OUTCOME_BUDGET
    state.log("termination", outcome=state.outcome, steps=state.step_count,
              diagnosis=None if state.diagnosis is None else {
                  "locations": list(state.diagnosis.locations),
                  "types": list(state.diagnosis.types),
                  "explanation": state.diagnosis.explanation,
                  "path": list(state.path),
              },
              abort_reason=state.abort_reason)
    return state


_TRANSCRIPT_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def transcript_lines(state: EpisodeState) -> list[str]:
    """Deterministic JSONL transcript; byte-stable under scripted backends."""
    return [_TRANSCRIPT_ENCODER.encode(event) for event in state.events]


def write_transcript(state: EpisodeState, path: Path | str) -> None:
    write_atomic(path, "\n".join(transcript_lines(state)) + "\n")
