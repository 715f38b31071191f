"""Auxiliary agent roles: candidate proposal, observation classification,
and termination judgment. The program-writing persona is the
generate_sop_code tool."""

from __future__ import annotations

import re

from ..llm import ask
from ..prompts import ACTION_SYSTEM, JUDGE_SYSTEM, OBSERVER_SYSTEM
from ..tools import RootCause, ToolRegistry
from ..tools.program import split_args
from .types import ActionCandidate, JudgeVerdict, PROVENANCE_AGENT

_ACTION_PREFIX_RE = re.compile(r"^\s*ACTION\s*:\s*")
_CALL_OPEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\(")
_HYPOTHESIS_RE = re.compile(
    r"^\s*(?:type\s*:\s*|hypothesis\s*:\s*|[-*]\s+|\d+[.)]\s*)(.+)$", re.IGNORECASE
)
_CAUSE_RE = re.compile(
    r"(?:pod|service|node|location)\s*=\s*([^\s;,]+)[\s,]+type\s*=\s*([^\s;,]+)"
)
_INT_RE = re.compile(r"-?\d+")

MAX_HYPOTHESES = 3


def parse_action_line(line: str) -> tuple[str, dict, str] | None:
    """Parse 'ACTION: tool(a="x", n=3) | rationale' into (tool, args, rationale).

    The argument list is scanned to its matching close paren with quote
    awareness, so quoted values may contain '|', '(' and ')'.
    """
    prefix = _ACTION_PREFIX_RE.match(line)
    if not prefix:
        return None
    rest = line[prefix.end():]
    call_match = _CALL_OPEN_RE.match(rest)
    if not call_match:
        return None
    tool = call_match.group(1)
    in_quote = False
    close = None
    for i in range(call_match.end(), len(rest)):
        ch = rest[i]
        if ch == '"':
            in_quote = not in_quote
        elif ch == ")" and not in_quote:
            close = i
            break
    if close is None:
        return None
    arg_text = rest[call_match.end():close]
    trailer = rest[close + 1:].strip()
    rationale = trailer[1:].strip() if trailer.startswith("|") else ""
    args: dict = {}
    for piece in split_args(arg_text):
        if "=" not in piece:
            return None
        name, _, raw = piece.partition("=")
        raw = raw.strip()
        if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
            value: object = raw[1:-1]
        else:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        args[name.strip()] = value
    return tool, args, rationale.strip()


def parse_candidates(reply: str, registry: ToolRegistry, max_candidates: int,
                     provenance: str = PROVENANCE_AGENT,
                     ) -> tuple[list[ActionCandidate], list[str]]:
    """Parse proposed actions, dropping any that fail the tool schema."""
    candidates: list[ActionCandidate] = []
    notes: list[str] = []
    for line in reply.splitlines():
        if len(candidates) >= max_candidates:
            break
        parsed = parse_action_line(line)
        if parsed is None:
            continue
        tool, args, rationale = parsed
        violations = registry.check_args(tool, args)
        if violations:
            notes.append(f"dropped invalid candidate: {violations[0]}")
            continue
        candidates.append(ActionCandidate(
            tool=tool, args=args, rationale=rationale, provenance=provenance,
        ))
    return candidates, notes


def action_agent_propose(backend, registry: ToolRegistry, alert: str,
                         history_text: str, flow_guide: str,
                         max_candidates: int) -> str:
    """One backend call proposing candidate actions; returns the reply."""
    system = ACTION_SYSTEM.format(max_candidates=max_candidates)
    if flow_guide:
        system = system + "\n\n" + flow_guide
    user = (f"Tool catalog:\n{registry.catalog_text()}\n\n"
            f"Incident alert:\n{alert}\n\nInvestigation so far:\n{history_text}")
    return ask(backend, system, user)


def parse_hypotheses(reply: str) -> tuple[tuple[str, str], ...]:
    """Extract up to three (label, note) fault-type hypotheses."""
    out: list[tuple[str, str]] = []
    for line in reply.splitlines():
        match = _HYPOTHESIS_RE.match(line)
        if not match:
            continue
        body = match.group(1).strip()
        if not body:
            continue
        label, _, note = body.partition(" - ")
        out.append((label.strip(), note.strip()))
        if len(out) >= MAX_HYPOTHESES:
            break
    return tuple(out)


def ob_agent_classify(backend, observation: str, incident_text: str) -> str:
    user = f"Observation:\n{observation}\n\nSimilar historical incidents:\n" \
           f"{incident_text or '(none found)'}"
    return ask(backend, OBSERVER_SYSTEM, user)


def parse_judge_reply(reply: str) -> JudgeVerdict:
    stripped = reply.strip()
    upper = stripped.upper()
    if upper.startswith("NOT FOUND") or not upper.startswith("FOUND"):
        summary = stripped.splitlines()[0] if stripped else "unparseable judge reply"
        return JudgeVerdict(found=False, summary=summary)
    causes = tuple(
        RootCause(location=loc, fault_type=ftype,
                  explanation=stripped.splitlines()[0])
        for loc, ftype in _CAUSE_RE.findall(stripped)
    )
    if not causes:
        return JudgeVerdict(found=False, summary="judge said FOUND but named no cause")
    return JudgeVerdict(found=True, summary=stripped.splitlines()[0], causes=causes)


def judge_agent(backend, alert: str, history_text: str,
                hypotheses: tuple) -> str:
    hypo_text = "\n".join(f"- {label}: {note}" for label, note in hypotheses) or "(none)"
    user = (f"Incident alert:\n{alert}\n\nInvestigation so far:\n{history_text}\n\n"
            f"Fault-type hypotheses:\n{hypo_text}")
    return ask(backend, JUDGE_SYSTEM, user)


def parse_selection(reply: str, set_size: int) -> int | None:
    """1-based index selection; None when unusable."""
    match = _INT_RE.search(reply)
    if not match:
        return None
    try:
        index = int(match.group(0))
    except ValueError:  # more digits than int() converts
        return None
    if 1 <= index <= set_size:
        return index
    return None

