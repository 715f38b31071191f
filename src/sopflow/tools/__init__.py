"""The tool registry: everything the agents can invoke, each tool declared
once. The registry is built on first use and shared by every episode of the
process; nothing adds a tool to it afterwards."""

from __future__ import annotations

import functools

from . import analysis, observability, sop_flow, terminal
from .program import (
    GRAMMAR_TEXT,
    MAX_STATEMENTS,
    PROGRAM_TOOL_CATEGORIES,
    ProgramRunResult,
    parse_program,
    run_program,
    validate_program,
)
from .registry import SopFlowState, ToolContext, ToolParam, ToolRegistry, ToolResult, ToolSpec
from .terminal import RootCause, encode_causes, parse_causes

_P = ToolParam

_TOOLS = (
    (ToolSpec(
        "whether_is_abnormal_metric",
        "Judge whether one metric series on a component is anomalous in a window.",
        (_P("target", "string"), _P("metric", "string"),
         _P("start_s", "number", required=False), _P("end_s", "number", required=False)),
        "observability",
    ), observability.whether_is_abnormal_metric),
    (ToolSpec(
        "collect_trace",
        "List abnormal spans (with error messages) across the call chain.",
        (_P("start_s", "number", required=False), _P("end_s", "number", required=False)),
        "observability",
    ), observability.collect_trace),
    (ToolSpec(
        "kubectl_logs",
        "Extract anomaly-keyword log lines from one pod.",
        (_P("pod", "string"),
         _P("start_s", "number", required=False), _P("end_s", "number", required=False)),
        "observability",
    ), observability.kubectl_logs),

    (ToolSpec(
        "match_sop", "Find stored diagnostic procedures for a fault description.",
        (_P("query", "string"),
         _P("k", "number", required=False), _P("threshold", "number", required=False)),
        "sop_flow",
    ), sop_flow.match_sop),
    (ToolSpec(
        "generate_sop", "Draft a new diagnostic procedure for an unmatched fault.",
        (_P("fault_info", "string"), _P("parent_sop_id", "string", required=False)),
        "sop_flow",
    ), sop_flow.generate_sop),
    (ToolSpec(
        "generate_sop_code", "Convert the current procedure into a validated check program.",
        (_P("sop_id", "string", required=False),),
        "sop_flow",
    ), sop_flow.generate_sop_code),
    (ToolSpec(
        "run_sop", "Execute the validated check program atomically and report findings.",
        (),
        "sop_flow",
    ), sop_flow.run_sop),
    (ToolSpec(
        "match_observation", "Recall historical incidents similar to an observation.",
        (_P("observation", "string", required=False),
         _P("k", "number", required=False), _P("threshold", "number", required=False)),
        "sop_flow",
    ), sop_flow.match_observation),

    *((ToolSpec(f"{kinds[:-1]}_analyze", f"Analyze all {kinds}' status.", (), "analysis"),
       functools.partial(analysis.analyze_resource, kind=kinds))
      for kinds in analysis.RESOURCE_KINDS),
    (ToolSpec(
        "run_kubectl_command", "Execute a read-only kubectl command subset.",
        (_P("command", "string"),),
        "analysis",
    ), analysis.run_kubectl_command),
    (ToolSpec(
        "get_all_namespace", "List all namespaces.",
        (),
        "analysis",
    ), analysis.get_all_namespace),
    (ToolSpec(
        "get_relevant_metric", "Rank metric names in the catalog against a query.",
        (_P("query", "string"),),
        "analysis",
    ), analysis.get_relevant_metric),

    (ToolSpec(
        "speak",
        "Report the identified root causes (at most three) and end the episode. "
        "causes is 'location|type|explanation' entries joined by ';'.",
        (_P("causes", "string"),),
        "terminal",
    ), terminal.speak),
)


@functools.cache
def build_registry() -> ToolRegistry:
    """The process's one registry of every tool, shared by every episode."""
    return ToolRegistry(_TOOLS)


ALL_TOOL_NAMES = build_registry().names()


__all__ = [
    "ALL_TOOL_NAMES",
    "GRAMMAR_TEXT",
    "MAX_STATEMENTS",
    "PROGRAM_TOOL_CATEGORIES",
    "ProgramRunResult",
    "RootCause",
    "SopFlowState",
    "ToolContext",
    "ToolParam",
    "ToolRegistry",
    "ToolResult",
    "ToolSpec",
    "build_registry",
    "encode_causes",
    "parse_causes",
    "parse_program",
    "run_program",
    "validate_program",
]
