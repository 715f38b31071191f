"""SOP flow tools: match, generate, codify, run, and incident recall.

These five tools carry the procedure-centric investigation loop. They share
mutable per-episode state through ``ctx.sop`` so that, for example, run_sop
executes the program the code generator just validated.
"""

from __future__ import annotations

import re

from ..errors import GenerationParseError, ProgramValidationError, ToolError
from ..kb import SopDoc
from ..llm import ask
from ..prompts import AUTHOR_SYSTEM, CODER_SYSTEM
from .program import GRAMMAR_TEXT, PROGRAM_TOOL_CATEGORIES, parse_program, run_program, validate_program
from .registry import ToolContext, ToolResult

_SOP_NAME_RE = re.compile(r"^\s*(?:SOP\s+)?NAME\s*:\s*(.+)$", re.IGNORECASE | re.MULTILINE)
_SOP_STEP_RE = re.compile(r"^\s*(?:\d+[.)]\s*|[-*]\s+)(.+)$", re.MULTILINE)
_SLUG_RE = re.compile(r"[^a-z0-9]+")


def match_sop(ctx: ToolContext, query: str, k=None, threshold=None) -> ToolResult:
    """Top-k stored procedures for a fault description; remembers the best hit."""
    matches = ctx.kb.match_sop(query, k=k, threshold=threshold)
    hits = ctx.kb.hits(matches)
    if not matches:
        text = f"no matching procedures found for query {query!r}"
    else:
        ctx.sop.sop = matches[0][0]
        lines = [
            f"{i}. {doc.name} (id={doc.id}, level={doc.level}, score={score:.4f})"
            for i, (doc, score) in enumerate(matches, start=1)
        ]
        text = f"{len(matches)} matching procedures:\n" + "\n".join(lines)
    return ToolResult(observation=text, payload=hits)


def _unique_sop_id(ctx: ToolContext, name: str) -> str:
    slug = _SLUG_RE.sub("-", name.lower()).strip("-") or "procedure"
    candidate = f"gen-{slug}"
    existing = {doc.id for doc in ctx.kb.list_sops()}
    suffix = 2
    while candidate in existing:
        candidate = f"gen-{slug}-{suffix}"
        suffix += 1
    return candidate


def parse_sop_reply(reply: str) -> tuple[str, list[str]]:
    name_match = _SOP_NAME_RE.search(reply)
    if not name_match:
        raise GenerationParseError("reply has no 'SOP NAME:' line")
    steps_region = reply[name_match.end():]
    steps = [m.group(1).strip() for m in _SOP_STEP_RE.finditer(steps_region)]
    steps = [s for s in steps if s]
    if not steps:
        raise GenerationParseError("reply has no step list")
    return name_match.group(1).strip(), steps


def generate_sop(ctx: ToolContext, fault_info: str, parent_sop_id: str | None = None) -> ToolResult:
    """Draft a new procedure with the backend, using the nearest stored
    procedures as few-shot examples, and persist it to the knowledge base."""
    examples = ctx.kb.match_sop(fault_info, k=3, threshold=-1.0)
    example_text = "\n\n".join(
        "SOP NAME: " + doc.name + "\nSTEPS:\n"
        + "\n".join(f"{i}. {step}" for i, step in enumerate(doc.steps, start=1))
        for doc, _ in examples
    ) or "(knowledge base has no procedures yet)"
    parent = ctx.kb.get_sop(parent_sop_id) if parent_sop_id else None
    user = f"Fault information:\n{fault_info}\n\nExample procedures:\n{example_text}"
    if parent is not None:
        user += f"\n\nThis refines the broader procedure '{parent.name}'; be more specific."
    reply = ask(ctx.backend, AUTHOR_SYSTEM, user)
    name, steps = parse_sop_reply(reply)
    doc = SopDoc(
        id=_unique_sop_id(ctx, name),
        name=name,
        steps=steps,
        level=parent.level + 1 if parent is not None else 0,
    )
    ctx.kb.add_sop(doc)
    ctx.sop.sop = doc
    text = (f"generated procedure '{doc.name}' with {len(doc.steps)} steps "
            f"(id={doc.id}, level={doc.level})")
    return ToolResult(observation=text, payload=doc)


def coder_prompt(ctx: ToolContext, sop_id: str | None = None) -> tuple[SopDoc, str, str]:
    """The procedure ``generate_sop_code`` codifies, with the system prompt and
    user message it sends for it. The episode sends the completion of this
    same prompt ahead, so the two cannot drift apart."""
    doc = ctx.kb.get_sop(sop_id) if sop_id else ctx.sop.sop
    if doc is None:
        raise ToolError("no procedure in context; run match_sop or generate_sop first")
    catalog = ctx.registry.catalog_text(categories=PROGRAM_TOOL_CATEGORIES)
    steps = "\n".join(f"{i}. {step}" for i, step in enumerate(doc.steps, start=1))
    return (doc, CODER_SYSTEM.format(grammar=GRAMMAR_TEXT, catalog=catalog),
            f"Procedure '{doc.name}':\n{steps}")


def generate_sop_code(ctx: ToolContext, sop_id: str | None = None) -> ToolResult:
    """Turn a procedure into a validated check program via the coding backend."""
    doc, system, user = coder_prompt(ctx, sop_id)
    reply = ask(ctx.backend, system, user)
    try:
        program = parse_program(reply)
        violations = validate_program(program, ctx.registry)
        if violations:
            raise ProgramValidationError(violations)
    except (GenerationParseError, ProgramValidationError):
        ctx.sop.program = None  # never leave a stale program runnable
        raise
    ctx.sop.sop = doc
    ctx.sop.program = program
    text = (f"program for '{doc.name}' validated: {len(program.statements)} statements")
    return ToolResult(observation=text, payload=program)


def run_sop(ctx: ToolContext) -> ToolResult:
    """Execute the current program atomically: all statements in one invocation."""
    program = ctx.sop.program
    if program is None:
        raise ToolError("no validated program in context; run generate_sop_code first")
    result = run_program(program, ctx)
    trace_text = "\n".join(result.trace)
    if result.success:
        ctx.sop.last_findings = result.findings_text
        text = f"findings:\n{result.findings_text}\ntrace:\n{trace_text}"
        return ToolResult(observation=text, payload=result)
    text = (f"program failed at statement {result.failing_index}: {result.error}\n"
            f"trace:\n{trace_text}")
    return ToolResult(observation=text, payload=result,
                      success=False, error=result.error)


def match_observation(ctx: ToolContext, observation: str | None = None,
                      k=None, threshold=None) -> ToolResult:
    """Recall historical incidents similar to an observation (defaults to the
    findings of the last successful run_sop)."""
    obs = observation if observation else ctx.sop.last_findings
    if not obs:
        raise ToolError("no observation available to match; pass observation=...")
    matches = ctx.kb.match_observation(obs, k=k, threshold=threshold)
    hits = ctx.kb.hits(matches)
    if not matches:
        text = "no similar historical incidents found"
    else:
        lines = [
            f"{i}. [{inc.fault_type}] {inc.manifestation[:120]} "
            f"(id={inc.id}, score={score:.4f})"
            for i, (inc, score) in enumerate(matches, start=1)
        ]
        text = f"{len(matches)} similar historical incidents:\n" + "\n".join(lines)
    return ToolResult(observation=text, payload=hits)
