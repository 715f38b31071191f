"""Restricted tool-invocation programs: the executable form of an SOP.

A program is a straight-line sequence of statements, one per line, at most 50
of them, with no loops. Conditionals guard a single statement. Programs may
only call data tools (observability and analysis categories); orchestration
tools stay with the agents.

Grammar (also shown to the program-writing agent):

    program   := line+                         (max 50 statements)
    line      := binding | call | conditional | finding
    binding   := "let" IDENT "=" call
    call      := TOOL "(" [arg ("," arg)*] ")"
    arg       := NAME "=" value
    value     := STRING | NUMBER | IDENT      (IDENT names an earlier binding)
    conditional := "if" predicate ":" (binding | call | finding)
    predicate := "contains(" IDENT "," STRING ")"
               | "above(" IDENT "," NUMBER ")"
               | "below(" IDENT "," NUMBER ")"
    finding   := "finding(" (STRING | IDENT) ("," (STRING | IDENT))* ")"

``contains`` is a case-insensitive substring test on the bound observation
text. ``above``/``below`` compare the last numeric token in the bound
observation (verdict texts end with their most informative value; component
names near the front embed meaningless digits), strictly: a token equal to
the operand is neither above nor below it. With no numeric token the
predicate is false. A binding made inside a conditional does not count as
bound afterwards.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import GenerationParseError, ProgramRuntimeError
from .registry import ToolContext, ToolRegistry, ToolResult

MAX_STATEMENTS = 50
PROGRAM_TOOL_CATEGORIES = ("observability", "analysis")

GRAMMAR_TEXT = f"""Program statement grammar, one statement per line:
  let x = tool_name(param="value", other=3)
  tool_name(param="value")
  if contains(x, "keyword"): finding("text", x)
  if above(x, 0.8): finding("threshold breached", x)
  finding("literal text", x)
Rules: max {MAX_STATEMENTS} statements, no loops, variables must be bound by an earlier
unconditional `let`, only data tools may be called. above/below compare the
last numeric token in the bound observation text, strictly: a value equal to
the operand fires neither."""

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_LET_RE = re.compile(rf"^let\s+({_IDENT})\s*=\s*(.+)$")
_CALL_RE = re.compile(rf"^({_IDENT})\s*\((.*)\)$", re.DOTALL)
_IF_RE = re.compile(rf"^if\s+({_IDENT})\s*\((.*?)\)\s*:\s*(.+)$")
_NUMBER_RE = re.compile(r"^-?\d+(?:\.\d+)?$")
_FLOAT_IN_TEXT_RE = re.compile(r"-?\d+(?:\.\d+)?")
_FENCE_RE = re.compile(r"```[a-zA-Z0-9]*\n(.*?)```", re.DOTALL)


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class CallStmt:
    tool: str
    args: tuple[tuple[str, object], ...]  # (name, str|float|VarRef)
    var: str | None = None


@dataclass(frozen=True)
class FindingStmt:
    parts: tuple[object, ...]  # str|float|VarRef


@dataclass(frozen=True)
class CondStmt:
    kind: str  # "contains" | "above" | "below"
    var: str
    operand: object  # str for contains, float otherwise
    body: object  # CallStmt | FindingStmt


@dataclass
class ProgramRunResult:
    findings: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)
    success: bool = True
    failing_index: int | None = None
    error: str = ""

    @property
    def findings_text(self) -> str:
        if not self.findings:
            return "no findings"
        return "\n".join(f"- {f}" for f in self.findings)


# -- parsing --------------------------------------------------------------------


def split_args(text: str) -> list[str]:
    """Split a call argument list on commas, respecting double quotes."""
    parts = []
    depth_quote = False
    current = []
    for ch in text:
        if ch == '"':
            depth_quote = not depth_quote
            current.append(ch)
        elif ch == "," and not depth_quote:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def _parse_value(token: str):
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if _NUMBER_RE.match(token):
        return float(token)
    if re.fullmatch(_IDENT, token):
        return VarRef(token)
    raise GenerationParseError(f"cannot parse value {token!r}")


def _parse_call(text: str, var: str | None = None) -> CallStmt:
    match = _CALL_RE.match(text.strip())
    if not match:
        raise GenerationParseError(f"cannot parse tool call {text!r}")
    tool, arg_text = match.group(1), match.group(2)
    args = []
    for piece in split_args(arg_text):
        if "=" not in piece:
            raise GenerationParseError(f"argument {piece!r} must be name=value")
        name, _, value = piece.partition("=")
        name = name.strip()
        if not re.fullmatch(_IDENT, name):
            raise GenerationParseError(f"bad argument name {name!r}")
        args.append((name, _parse_value(value)))
    return CallStmt(tool=tool, args=tuple(args), var=var)


def _parse_simple(line: str):
    """A statement legal on its own or as a conditional body."""
    let_match = _LET_RE.match(line)
    if let_match:
        return _parse_call(let_match.group(2), var=let_match.group(1))
    finding_match = _CALL_RE.match(line.strip())
    if finding_match and finding_match.group(1) == "finding":
        # finding takes positional parts, not name=value arguments
        parts = tuple(_parse_value(tok) for tok in split_args(finding_match.group(2)))
        if not parts:
            raise GenerationParseError("finding() needs at least one part")
        return FindingStmt(parts=parts)
    return _parse_call(line)


def _parse_line(line: str):
    if_match = _IF_RE.match(line)
    if if_match:
        kind, inner, body = if_match.groups()
        if kind not in ("contains", "above", "below"):
            raise GenerationParseError(f"unknown predicate {kind!r}")
        pieces = split_args(inner)
        if len(pieces) != 2:
            raise GenerationParseError(f"predicate needs two arguments: {line!r}")
        var_token = pieces[0]
        if not re.fullmatch(_IDENT, var_token):
            raise GenerationParseError(f"predicate variable {var_token!r} is not a name")
        operand = _parse_value(pieces[1])
        if kind == "contains" and not isinstance(operand, str):
            raise GenerationParseError("contains() needs a string literal")
        if kind != "contains" and not isinstance(operand, float):
            raise GenerationParseError(f"{kind}() needs a numeric literal")
        return CondStmt(kind, var_token, operand, _parse_simple(body.strip()))
    return _parse_simple(line)


def parse_program(text: str) -> tuple:
    """Parse reply text into a tuple of statements; accepts an optional fenced
    block."""
    fence = _FENCE_RE.search(text)
    body = fence.group(1) if fence else text
    statements = []
    for raw in body.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        statements.append(_parse_line(line))
    if not statements:
        raise GenerationParseError("no program statements found")
    return tuple(statements)


# -- validation -----------------------------------------------------------------


def _unbound(values, bound: set[str]) -> list[str]:
    return [f"unbound variable {value.name!r}" for value in values
            if isinstance(value, VarRef) and value.name not in bound]


def _statement_violations(stmt, registry: ToolRegistry, bound: set[str]) -> list[str]:
    """The violations of a call or finding statement, given the names bound
    before it."""
    if isinstance(stmt, FindingStmt):
        return _unbound(stmt.parts, bound)
    out = registry.check_args(stmt.tool, [name for name, _ in stmt.args])
    if registry.has(stmt.tool) and \
            registry.spec(stmt.tool).category not in PROGRAM_TOOL_CATEGORIES:
        out.insert(0, f"tool {stmt.tool!r} is not callable from programs")
    return out + _unbound([value for _, value in stmt.args], bound)


def validate_program(program: tuple, registry: ToolRegistry) -> list[str]:
    violations: list[str] = []
    if len(program) > MAX_STATEMENTS:
        violations.append(f"program has {len(program)} statements (max {MAX_STATEMENTS})")
    bound: set[str] = set()
    for idx, stmt in enumerate(program):
        if isinstance(stmt, CondStmt):
            found = _unbound([VarRef(stmt.var)], bound)
            # a conditional binding may never happen, so it stays unbound
            found += _statement_violations(stmt.body, registry, bound)
        else:
            found = _statement_violations(stmt, registry, bound)
            if isinstance(stmt, CallStmt) and stmt.var:
                bound.add(stmt.var)
        violations.extend(f"statement {idx}: {v}" for v in found)
    return violations


# -- execution ------------------------------------------------------------------


def _format_call(stmt: CallStmt) -> str:
    args = ", ".join(
        f"{name}={value.name}" if isinstance(value, VarRef) else f"{name}={value!r}"
        for name, value in stmt.args
    )
    return f"{stmt.tool}({args})"


def _value(part, env: dict):
    """A literal, or the observation text bound to a name (bound:
    ``validate_program`` rules out an unbound one)."""
    return env[part.name].observation if isinstance(part, VarRef) else part


def _predicate_holds(stmt: CondStmt, env: dict) -> tuple[bool, str]:
    text = env[stmt.var].observation
    if stmt.kind == "contains":
        holds = stmt.operand.lower() in text.lower()
        return holds, f"contains({stmt.var}, {stmt.operand!r})={holds}"
    tokens = _FLOAT_IN_TEXT_RE.findall(text)
    if not tokens:
        return False, f"{stmt.kind}({stmt.var}, {stmt.operand})=false (no numeric token)"
    number = float(tokens[-1])
    holds = number > stmt.operand if stmt.kind == "above" else number < stmt.operand
    return holds, f"{stmt.kind}({stmt.var}, {stmt.operand})={holds} (value {number})"


def _execute(stmt, idx: int, env: dict, result: ProgramRunResult, ctx: ToolContext) -> str:
    """Run one statement; returns its trace note."""
    if isinstance(stmt, CondStmt):
        holds, note = _predicate_holds(stmt, env)
        if not holds:
            return note + "; skipped"
        return note + "; " + _execute(stmt.body, idx, env, result, ctx)
    if isinstance(stmt, FindingStmt):
        result.findings.append(" ".join(str(_value(part, env)) for part in stmt.parts))
        return "finding recorded"
    args = {name: _value(value, env) for name, value in stmt.args}
    tool_result = ctx.registry.execute(stmt.tool, args, ctx)
    if not tool_result.success:
        raise ProgramRuntimeError(idx, tool_result.error or tool_result.observation)
    if stmt.var:
        env[stmt.var] = tool_result
    return f"{_format_call(stmt)} -> ok"


def run_program(program: tuple, ctx: ToolContext) -> ProgramRunResult:
    """Execute all statements in order; stop at the first runtime failure.

    The per-statement trace always has one entry per executed statement, so a
    failure at statement k leaves a trace of length k+1.
    """
    result = ProgramRunResult()
    env: dict[str, ToolResult] = {}
    for idx, stmt in enumerate(program):
        try:
            result.trace.append(f"{idx}: {_execute(stmt, idx, env, result, ctx)}")
        except ProgramRuntimeError as exc:
            result.trace.append(f"{idx}: failed: {exc.detail}")
            result.success = False
            result.failing_index = idx
            result.error = exc.detail
            break
    return result
