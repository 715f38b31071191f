"""Tool registry: specs, results, and the execution wrapper agents call into.

Tool failures come back as failed ToolResults whose observation text the agent
can read; they are never raised out of an episode. Backend failures are the
exception: they propagate so the episode loop can retry or abort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..errors import (
    BackendError,
    EpisodeAborted,
    ScriptExhaustedError,
    SopflowError,
    ValidationError,
)


@dataclass(frozen=True)
class ToolParam:
    name: str
    kind: str  # "string" | "number"
    required: bool = True


@dataclass(frozen=True)
class ToolSpec:
    name: str
    description: str
    params: tuple[ToolParam, ...]
    category: str  # "observability" | "sop_flow" | "analysis" | "terminal"


@dataclass
class ToolResult:
    observation: str
    payload: Any = None
    success: bool = True
    error: str = ""


@dataclass
class SopFlowState:
    """Mutable per-episode context the SOP flow tools read and write."""

    sop: Any = None            # the procedure currently being worked (SopDoc)
    program: Any = None        # last validated SopProgram
    last_findings: str = ""    # findings text of the last successful run_sop


@dataclass
class ToolContext:
    """Everything a tool invocation may touch. One per episode; ``registry``
    is the one its tool calls, a program's included, run through."""

    telemetry: Any
    kb: Any
    backend: Any
    detector: Any
    registry: "ToolRegistry"
    sop: SopFlowState = field(default_factory=SopFlowState)

    @property
    def window(self) -> tuple[int, int]:
        return self.telemetry.scenario.window


class ToolRegistry:
    """A fixed set of tools, given whole at construction and never changed,
    so ``build_registry`` builds one per process and every episode shares it.
    Invocations never change what telemetry holds; a query may render samples
    on demand, which only fills the telemetry's memo with the bytes a full
    render would give."""

    def __init__(self, tools: Iterable[tuple[ToolSpec, Callable]]):
        self._tools: dict[str, tuple[ToolSpec, Callable]] = {}
        for spec, fn in tools:
            if spec.name in self._tools:
                raise ValidationError(f"duplicate tool name {spec.name!r}")
            self._tools[spec.name] = (spec, fn)
        self._catalogs: dict[tuple[str, ...] | None, str] = {}  # categories -> catalog_text

    def names(self) -> frozenset[str]:
        return frozenset(self._tools)

    def has(self, name: str) -> bool:
        return name in self._tools

    def spec(self, name: str) -> ToolSpec:
        return self._tools[name][0]

    def specs(self) -> list[ToolSpec]:
        return sorted((spec for spec, _ in self._tools.values()), key=lambda s: s.name)

    def catalog_text(self, categories: tuple[str, ...] | None = None) -> str:
        """One line per tool for prompt construction and docs; rendered once
        per category filter."""
        text = self._catalogs.get(categories)
        if text is None:
            text = self._catalogs[categories] = self._render_catalog(categories)
        return text

    def _render_catalog(self, categories: tuple[str, ...] | None) -> str:
        lines = []
        for spec in self.specs():
            if categories is not None and spec.category not in categories:
                continue
            params = ", ".join(
                f"{p.name}:{p.kind}" + ("" if p.required else "?") for p in spec.params
            )
            lines.append(f"- {spec.name}({params}) [{spec.category}]: {spec.description}")
        return "\n".join(lines)

    def check_args(self, name: str, args) -> list[str]:
        """Every way the argument names ``args`` violate the tool schema, in
        order; empty when they satisfy it."""
        if name not in self._tools:
            return [f"unknown tool {name!r}"]
        params = self._tools[name][0].params
        declared = {p.name for p in params}
        return ([f"unknown argument {key!r} for tool {name}"
                 for key in args if key not in declared]
                + [f"missing required argument {p.name!r} for tool {name}"
                   for p in params if p.required and p.name not in args])

    def execute(self, name: str, args: dict, ctx: ToolContext) -> ToolResult:
        violations = self.check_args(name, args)
        if violations:
            return ToolResult(observation=f"tool error: {violations[0]}",
                              success=False, error=violations[0])
        spec, fn = self._tools[name]
        coerced: dict[str, Any] = {}
        for param in spec.params:
            if param.name not in args:
                continue
            value = args[param.name]
            if param.kind == "number":
                try:
                    number = float(value)
                except (TypeError, ValueError):
                    number = math.nan
                if not math.isfinite(number):
                    message = f"argument {param.name!r} of {name} must be a finite number"
                    return ToolResult(observation=f"tool error: {message}",
                                      success=False, error=message)
                coerced[param.name] = number
            else:
                coerced[param.name] = str(value)
        try:
            return fn(ctx, **coerced)
        except (EpisodeAborted, BackendError, ScriptExhaustedError):
            raise
        except SopflowError as exc:
            return ToolResult(observation=f"tool error: {exc}",
                              success=False, error=str(exc))
