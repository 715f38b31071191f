"""Episode data structures: candidates, action sets, step records, state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .. import schema
from ..errors import ValidationError
from ..tools import RootCause

OUTCOME_COMPLETED = "completed"
OUTCOME_BUDGET = "budget_exhausted"
OUTCOME_ABORTED = "aborted"


@dataclass
class Ablations:
    """Mechanism toggles; all on by default. ``sop_knowledge`` off implies the
    SOP store is emptied and the whole flow (prompt text and rules) is off.
    Not frozen: the benchmark's workloads set its flags with ``setattr``."""

    sop_knowledge: bool = True
    sop_flow: bool = True
    action_set: bool = True
    action_agent: bool = True
    ob_agent: bool = True
    judge_agent: bool = True

    @property
    def flow_rules_active(self) -> bool:
        return self.sop_knowledge and self.sop_flow


@dataclass(frozen=True)
class AgentConfig(schema.Bounded):
    max_steps: int = field(default=20, metadata=schema.POSITIVE_INT)
    action_set_size: int = field(default=5, metadata=schema.POSITIVE_INT)
    judge_after_run_sop: bool = False  # paper-strict default: judge only after match_observation
    ablations: Ablations = field(default_factory=Ablations)


@dataclass(frozen=True)
class ActionCandidate:
    tool: str
    args: dict[str, Any]
    rationale: str = ""
    rule: str | None = None  # which flow rule mandated it, e.g. "R4"

    @property
    def provenance(self) -> str:
        """Who put the candidate in the action set, as the prompts and
        transcripts name it."""
        if self.rule is None:
            return "action_agent"
        return "judge_rule" if self.rule == "R7" else "flow_rule"

    def key(self) -> tuple:
        return (self.tool, tuple(sorted((k, str(v)) for k, v in self.args.items())))


@dataclass(frozen=True)
class ActionSet(schema.Bounded):
    candidates: tuple[ActionCandidate, ...]
    max_size: int
    evicted: tuple[ActionCandidate, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        super().__post_init__()
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

