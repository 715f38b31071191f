"""The speak tool: report root causes and end the episode."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from .registry import ToolContext, ToolResult

MAX_ROOT_CAUSES = 3


@dataclass(frozen=True)
class RootCause:
    location: str
    fault_type: str
    explanation: str = ""


def _sanitize(text: str) -> str:
    # '|' and ';' are the cause-list separators
    return text.replace("|", "/").replace(";", ",")


def encode_causes(causes: list[RootCause]) -> str:
    """Inverse of parse_causes; used when flow rules build speak candidates."""
    return "; ".join(
        f"{_sanitize(c.location)}|{_sanitize(c.fault_type)}|{_sanitize(c.explanation)}"
        for c in causes
    )


def parse_causes(text: str) -> list[RootCause]:
    """Parse 'location|type|explanation; ...' cause lists, confidence order."""
    causes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split("|")]
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise ValidationError(
                f"malformed cause {chunk!r}; expected location|type|explanation"
            )
        causes.append(RootCause(
            location=parts[0],
            fault_type=parts[1],
            explanation=parts[2] if len(parts) > 2 else "",
        ))
    return causes


def speak(ctx: ToolContext, causes: str) -> ToolResult:
    """Format the final report; the payload is the tuple of causes kept. More
    than three causes are cut to the three highest-confidence ones (list order
    is confidence order) with a warning."""
    parsed = parse_causes(causes)
    if not parsed:
        raise ValidationError("speak requires at least one root cause")
    kept = parsed[:MAX_ROOT_CAUSES]
    lines = ["ROOT CAUSE REPORT"]
    for i, cause in enumerate(kept, start=1):
        line = f"{i}. location={cause.location} type={cause.fault_type}"
        if cause.explanation:
            line += f" - {cause.explanation}"
        lines.append(line)
    if len(parsed) > MAX_ROOT_CAUSES:
        lines.append(f"warning: {len(parsed)} causes reported, truncated to "
                     f"{MAX_ROOT_CAUSES} highest-confidence")
    return ToolResult(observation="\n".join(lines), payload=tuple(kept))
