"""Episode data structures: candidates, action sets, step records, state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ValidationError
from ..tools import RootCause

PROVENANCE_AGENT = "action_agent"
PROVENANCE_FLOW = "flow_rule"
PROVENANCE_JUDGE = "judge_rule"
PROVENANCE_MAIN = "main_agent"  # direct-selection mode (action set ablated)

OUTCOME_COMPLETED = "completed"
OUTCOME_BUDGET = "budget_exhausted"
OUTCOME_ABORTED = "aborted"

DEFAULT_MAX_STEPS = 20
DEFAULT_ACTION_SET_SIZE = 5


@dataclass
class Ablations:
    """Mechanism toggles; all on by default. ``sop_knowledge`` off implies the
    SOP store is emptied and the whole flow (prompt text and rules) is off."""

    sop_knowledge: bool = True
    sop_flow: bool = True
    action_set: bool = True
    action_agent: bool = True
    ob_agent: bool = True
    judge_agent: bool = True

    @property
    def flow_rules_active(self) -> bool:
        return self.sop_knowledge and self.sop_flow


@dataclass
class AgentConfig:
    max_steps: int = DEFAULT_MAX_STEPS
    action_set_size: int = DEFAULT_ACTION_SET_SIZE
    judge_after_run_sop: bool = False  # paper-strict default: judge only after match_observation
    ablations: Ablations = field(default_factory=Ablations)

    def validate(self) -> None:
        if self.max_steps <= 0:
            raise ValidationError("max_steps must be positive")
        if self.action_set_size <= 0:
            raise ValidationError("action_set_size must be positive")


@dataclass(frozen=True)
class ActionCandidate:
    tool: str
    args: dict[str, Any]
    rationale: str = ""
    provenance: str = PROVENANCE_AGENT
    rule: str | None = None  # which flow rule mandated it, e.g. "R4"

    def key(self) -> tuple:
        return (self.tool, tuple(sorted((k, str(v)) for k, v in self.args.items())))


@dataclass
class ActionSet:
    candidates: list[ActionCandidate]
    max_size: int
    evicted: list[ActionCandidate] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len(self.candidates) > self.max_size:
            raise ValidationError("action set exceeds its size bound")


@dataclass(frozen=True)
class JudgeVerdict:
    found: bool
    summary: str
    causes: tuple[RootCause, ...] = ()


@dataclass
class StepRecord:
    index: int
    chosen: ActionCandidate
    result: Any                 # ToolResult


@dataclass(frozen=True)
class DiagnosisResult:
    locations: tuple[str, ...]
    types: tuple[str, ...]
    explanation: str


@dataclass
class EpisodeState:
    scenario_id: str
    alert: str
    history: list[StepRecord] = field(default_factory=list)
    ob_hypotheses: tuple = ()   # latest (label, note) pairs
    judge_verdict: JudgeVerdict | None = None
    step_count: int = 0
    outcome: str | None = None
    diagnosis: DiagnosisResult | None = None
    events: list[dict] = field(default_factory=list)  # transcript records in order
    abort_reason: str = ""

    @property
    def last_step(self) -> StepRecord | None:
        return self.history[-1] if self.history else None

    @property
    def path(self) -> tuple[str, ...]:
        return tuple(record.chosen.tool for record in self.history)

    def log(self, kind: str, **fields) -> None:
        """Append a transcript record stamped with the current step."""
        self.events.append({"kind": kind, "step": self.step_count, **fields})

