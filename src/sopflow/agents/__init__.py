"""Multi-agent episode engine."""

from .episode import run_episode, transcript_lines, write_transcript
from .flow_rules import RULE_PRIORITY, apply_flow_rules, fallback_candidate, mandated_candidates
from .roles import (
    parse_action_line,
    parse_candidates,
    parse_hypotheses,
    parse_judge_reply,
    parse_selection,
)
from .types import (
    Ablations,
    ActionCandidate,
    ActionSet,
    AgentConfig,
    DiagnosisResult,
    EpisodeState,
    JudgeVerdict,
    OUTCOME_ABORTED,
    OUTCOME_BUDGET,
    OUTCOME_COMPLETED,
    StepRecord,
)

__all__ = [
    "Ablations",
    "ActionCandidate",
    "ActionSet",
    "AgentConfig",
    "DiagnosisResult",
    "EpisodeState",
    "JudgeVerdict",
    "OUTCOME_ABORTED",
    "OUTCOME_BUDGET",
    "OUTCOME_COMPLETED",
    "RULE_PRIORITY",
    "StepRecord",
    "apply_flow_rules",
    "fallback_candidate",
    "mandated_candidates",
    "parse_action_line",
    "parse_candidates",
    "parse_hypotheses",
    "parse_judge_reply",
    "parse_selection",
    "run_episode",
    "transcript_lines",
    "write_transcript",
]
