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

Each rule's tool and rationale are declared once, in ``_RULES``. A
rule-added candidate replaces an agent proposal of the same call, so it
survives truncation, and is never evicted while an agent-proposed candidate
remains.
"""

from __future__ import annotations

from ..tools import encode_causes
from .types import (
    Ablations,
    ActionCandidate,
    ActionSet,
    AgentConfig,
    JudgeVerdict,
    StepRecord,
)

# rule -> (tool, rationale), in fallback preference: finish first, unblock
# second, restart last
_RULES = {
    "R7": ("speak", "judge confirmed the root cause"),
    "R5": ("generate_sop_code", "program invalid; regenerate it"),
    "R4": ("run_sop", "execute the validated program"),
    "R3": ("generate_sop_code", "codify the freshly generated procedure"),
    "R1": ("generate_sop_code", "codify the matched procedure"),
    "R6": ("match_observation", "compare findings against past incidents"),
    "R2": ("generate_sop", "no stored procedure matched; draft one"),
    "R8": ("match_sop", "look up a procedure for the initial alert"),
}
RULE_PRIORITY = tuple(_RULES)
_R5_CRASHED = "program crashed; regenerate it"  # R5 after run_sop, not generate_sop_code


def speak_awaits_judge(verdict: JudgeVerdict | None, ablations: Ablations) -> bool:
    """Whether speak is blocked: the judge is part of the loop and has not
    confirmed a cause."""
    return ablations.judge_agent and not (verdict is not None and verdict.found)


def mandated_candidates(step_index: int, prev: StepRecord | None,
                        verdict: JudgeVerdict | None, alert: str,
                        ablations: Ablations) -> list[ActionCandidate]:
    """The rule-mandated candidates for a step, in priority order."""
    fired: dict[str, dict] = {}  # rule -> the arguments of its call
    if ablations.flow_rules_active:
        if ablations.judge_agent and verdict is not None and verdict.found:
            fired["R7"] = {"causes": encode_causes(list(verdict.causes))}
        if prev is not None:
            tool, args, result = prev.chosen.tool, prev.chosen.args, prev.result
            if tool == "match_sop":
                if result.success and result.payload:
                    fired["R1"] = {"sop_id": result.payload[0].item_id}
                else:
                    fired["R2"] = {"fault_info": str(args.get("query", alert))}
            elif tool == "generate_sop" and result.success:
                fired["R3"] = {"sop_id": result.payload.id}
            elif tool == "generate_sop_code":
                if result.success:
                    fired["R4"] = {}
                else:
                    fired["R5"] = {k: v for k, v in args.items() if k == "sop_id"}
            elif tool == "run_sop":
                if result.success:
                    fired["R6"] = {"observation": result.payload.findings_text}
                else:
                    fired["R5"] = {}
    # R8 alone survives the sop_flow ablation; nothing survives losing the
    # SOP knowledge itself
    if step_index == 0 and ablations.sop_knowledge:
        fired["R8"] = {"query": alert}
    return [ActionCandidate(tool=tool, args=fired[rule], rule=rule,
                            rationale=_R5_CRASHED if rule == "R5" and prev.chosen.tool == "run_sop"
                            else rationale)
            for rule, (tool, rationale) in _RULES.items() if rule in fired]


def apply_flow_rules(step_index: int, prev: StepRecord | None,
                     verdict: JudgeVerdict | None, alert: str,
                     agent_candidates: list[ActionCandidate],
                     config: AgentConfig) -> ActionSet:
    """Merge agent proposals with rule candidates into the bounded action set."""
    notes: list[str] = []
    ablations = config.ablations

    merged: dict[tuple, ActionCandidate] = {}
    for cand in agent_candidates:
        if cand.key() in merged:
            notes.append(f"dropped duplicate agent candidate {cand.tool}")
        else:
            merged[cand.key()] = cand

    # speak gating: while the judge is part of the loop, an agent may only
    # reach for speak once the judge has confirmed a cause
    if speak_awaits_judge(verdict, ablations):
        for key in [k for k, cand in merged.items() if cand.tool == "speak"]:
            notes.append("dropped agent speak candidate: judge has not confirmed")
            del merged[key]

    for rule_cand in mandated_candidates(step_index, prev, verdict, alert, ablations):
        if rule_cand.key() in merged:
            # the agent proposed the same call; replace it, in its place, so
            # truncation cannot evict a rule-mandated candidate
            notes.append(f"agent candidate {rule_cand.tool} upgraded to {rule_cand.rule}")
        merged[rule_cand.key()] = rule_cand

    evicted: list[ActionCandidate] = []
    limit = config.action_set_size
    while len(merged) > limit:
        victim = next((k for k in reversed(merged) if merged[k].rule is None), None)
        if victim is None:
            # only protected candidates remain; shed the lowest-priority rule
            victim = max(merged, key=lambda k: RULE_PRIORITY.index(merged[k].rule))
        evicted.append(merged.pop(victim))
    if evicted:
        notes.append(f"evicted {len(evicted)} candidate(s) to respect size {limit}")

    return ActionSet(candidates=list(merged.values()), max_size=limit,
                     evicted=evicted, notes=notes)


def fallback_candidate(action_set: ActionSet) -> ActionCandidate:
    """Deterministic choice when the orchestrator's selection is unusable."""
    rule_candidates = [c for c in action_set.candidates if c.rule is not None]
    if rule_candidates:
        return min(rule_candidates, key=lambda c: RULE_PRIORITY.index(c.rule))
    return action_set.candidates[0]
