"""Deterministic action-set augmentation from the SOP flow.

Rules, conditioned only on the previous step and the judge verdict:

  R1  previous match_sop had hits        -> add generate_sop_code(best hit)
  R2  previous match_sop had no hits     -> add generate_sop(same query)
  R3  previous generate_sop succeeded    -> add generate_sop_code(new procedure)
  R4  previous generate_sop_code valid   -> add run_sop
  R5  previous generate_sop_code invalid
      or run_sop failed at runtime       -> add generate_sop_code (regenerate)
  R6  previous run_sop succeeded         -> add match_observation(findings)
  R7  judge verdict says cause found     -> add speak(verdict causes)
  R8  first step of the episode          -> add match_sop(initial alert)

Rule-added candidates are deduplicated against agent proposals (upgrading the
duplicate's provenance so it survives truncation) and are never evicted while
an agent-proposed candidate remains.
"""

from __future__ import annotations

from ..tools import encode_causes
from .types import (
    Ablations,
    ActionCandidate,
    ActionSet,
    AgentConfig,
    JudgeVerdict,
    PROVENANCE_AGENT,
    PROVENANCE_FLOW,
    PROVENANCE_JUDGE,
    StepRecord,
)

# fallback preference: finish first, unblock second, restart last
RULE_PRIORITY = ("R7", "R5", "R4", "R3", "R1", "R6", "R2", "R8")


def speak_awaits_judge(verdict: JudgeVerdict | None, ablations: Ablations) -> bool:
    """Whether speak is blocked: the judge is part of the loop and has not
    confirmed a cause."""
    return ablations.judge_agent and not (verdict is not None and verdict.found)


def mandated_candidates(step_index: int, prev: StepRecord | None,
                        verdict: JudgeVerdict | None, alert: str,
                        ablations: Ablations) -> list[ActionCandidate]:
    """The rule-mandated candidates for a step, in priority order."""
    out: list[ActionCandidate] = []
    if not ablations.flow_rules_active:
        # R8 alone survives the sop_flow ablation; nothing survives losing
        # the SOP knowledge itself
        if ablations.sop_knowledge and step_index == 0:
            out.append(_r8(alert))
        return out
    if ablations.judge_agent and not speak_awaits_judge(verdict, ablations):
        out.append(ActionCandidate(
            tool="speak",
            args={"causes": encode_causes(list(verdict.causes))},
            rationale="judge confirmed the root cause",
            provenance=PROVENANCE_JUDGE, rule="R7",
        ))

    if prev is not None:
        tool = prev.chosen.tool
        result = prev.result
        if tool == "match_sop":
            hits = result.payload or []
            if result.success and hits:
                out.append(ActionCandidate(
                    tool="generate_sop_code", args={"sop_id": hits[0].item_id},
                    rationale="codify the matched procedure",
                    provenance=PROVENANCE_FLOW, rule="R1",
                ))
            else:
                query = str(prev.chosen.args.get("query", alert))
                out.append(ActionCandidate(
                    tool="generate_sop", args={"fault_info": query},
                    rationale="no stored procedure matched; draft one",
                    provenance=PROVENANCE_FLOW, rule="R2",
                ))
        elif tool == "generate_sop" and result.success:
            new_id = result.payload.id if result.payload is not None else None
            args = {"sop_id": new_id} if new_id else {}
            out.append(ActionCandidate(
                tool="generate_sop_code", args=args,
                rationale="codify the freshly generated procedure",
                provenance=PROVENANCE_FLOW, rule="R3",
            ))
        elif tool == "generate_sop_code":
            if result.success:
                out.append(ActionCandidate(
                    tool="run_sop", args={},
                    rationale="execute the validated program",
                    provenance=PROVENANCE_FLOW, rule="R4",
                ))
            else:
                args = {}
                if "sop_id" in prev.chosen.args:
                    args["sop_id"] = prev.chosen.args["sop_id"]
                out.append(ActionCandidate(
                    tool="generate_sop_code", args=args,
                    rationale="program invalid; regenerate it",
                    provenance=PROVENANCE_FLOW, rule="R5",
                ))
        elif tool == "run_sop":
            if result.success:
                findings = result.payload.findings_text if result.payload else ""
                out.append(ActionCandidate(
                    tool="match_observation", args={"observation": findings},
                    rationale="compare findings against past incidents",
                    provenance=PROVENANCE_FLOW, rule="R6",
                ))
            else:
                out.append(ActionCandidate(
                    tool="generate_sop_code", args={},
                    rationale="program crashed; regenerate it",
                    provenance=PROVENANCE_FLOW, rule="R5",
                ))
    if step_index == 0:
        out.append(_r8(alert))
    out.sort(key=lambda c: RULE_PRIORITY.index(c.rule))
    return out


def _r8(alert: str) -> ActionCandidate:
    return ActionCandidate(
        tool="match_sop", args={"query": alert},
        rationale="look up a procedure for the initial alert",
        provenance=PROVENANCE_FLOW, rule="R8",
    )


def apply_flow_rules(step_index: int, prev: StepRecord | None,
                     verdict: JudgeVerdict | None, alert: str,
                     agent_candidates: list[ActionCandidate],
                     config: AgentConfig) -> ActionSet:
    """Merge agent proposals with rule candidates into the bounded action set."""
    notes: list[str] = []
    ablations = config.ablations

    merged: list[ActionCandidate] = []
    seen: dict[tuple, int] = {}
    for cand in agent_candidates:
        if cand.key() in seen:
            notes.append(f"dropped duplicate agent candidate {cand.tool}")
            continue
        seen[cand.key()] = len(merged)
        merged.append(cand)

    # speak gating: while the judge is part of the loop, an agent may only
    # reach for speak once the judge has confirmed a cause
    if speak_awaits_judge(verdict, ablations):
        kept = []
        for cand in merged:
            if cand.tool == "speak":
                notes.append("dropped agent speak candidate: judge has not confirmed")
                continue
            kept.append(cand)
        if len(kept) != len(merged):
            merged = kept
            seen = {c.key(): i for i, c in enumerate(merged)}

    for rule_cand in mandated_candidates(step_index, prev, verdict, alert, ablations):
        existing = seen.get(rule_cand.key())
        if existing is not None:
            # the agent proposed the same call; upgrade it so truncation
            # cannot evict a rule-mandated candidate
            merged[existing] = rule_cand
            notes.append(f"agent candidate {rule_cand.tool} upgraded to {rule_cand.rule}")
        else:
            seen[rule_cand.key()] = len(merged)
            merged.append(rule_cand)

    evicted: list[ActionCandidate] = []
    limit = config.action_set_size
    while len(merged) > limit:
        victim_index = None
        for i in range(len(merged) - 1, -1, -1):
            if merged[i].provenance == PROVENANCE_AGENT:
                victim_index = i
                break
        if victim_index is None:
            # only protected candidates remain; shed the lowest-priority rule
            victim_index = max(
                range(len(merged)),
                key=lambda i: RULE_PRIORITY.index(merged[i].rule or "R8"),
            )
        evicted.append(merged.pop(victim_index))
    if evicted:
        notes.append(f"evicted {len(evicted)} candidate(s) to respect size {limit}")

    return ActionSet(candidates=merged, max_size=limit, evicted=evicted, notes=notes)


def fallback_candidate(action_set: ActionSet) -> ActionCandidate:
    """Deterministic choice when the orchestrator's selection is unusable."""
    rule_candidates = [c for c in action_set.candidates if c.rule is not None]
    if rule_candidates:
        return min(rule_candidates, key=lambda c: RULE_PRIORITY.index(c.rule))
    return action_set.candidates[0]
