"""Tool registry assembly: everything the agents can invoke."""

from __future__ import annotations

from . import analysis, observability, sop_flow, terminal
from .program import (
    GRAMMAR_TEXT,
    MAX_STATEMENTS,
    PROGRAM_TOOL_CATEGORIES,
    ProgramRunResult,
    SopProgram,
    parse_program,
    run_program,
    validate_program,
)
from .registry import SopFlowState, ToolContext, ToolParam, ToolRegistry, ToolResult, ToolSpec
from .terminal import MAX_ROOT_CAUSES, RootCause, SpeakReport, encode_causes, parse_causes

SOP_FLOW_TOOL_NAMES = frozenset(
    {"match_sop", "generate_sop", "generate_sop_code", "run_sop", "match_observation"}
)
OBSERVABILITY_TOOL_NAMES = frozenset(
    {"whether_is_abnormal_metric", "collect_trace", "kubectl_logs"}
)
ANALYSIS_TOOL_NAMES = frozenset({
    "pod_analyze", "node_analyze", "service_analyze", "deployment_analyze",
    "statefulset_analyze", "run_kubectl_command", "get_all_namespace",
    "get_relevant_metric",
})
ALL_TOOL_NAMES = SOP_FLOW_TOOL_NAMES | OBSERVABILITY_TOOL_NAMES | ANALYSIS_TOOL_NAMES | {"speak"}

_P = ToolParam


def build_registry() -> ToolRegistry:
    registry = ToolRegistry()

    registry.register(ToolSpec(
        "whether_is_abnormal_metric",
        "Judge whether one metric series on a component is anomalous in a window.",
        (_P("target", "string"), _P("metric", "string"),
         _P("start_s", "number", required=False), _P("end_s", "number", required=False)),
        "observability",
    ), observability.whether_is_abnormal_metric)
    registry.register(ToolSpec(
        "collect_trace",
        "List abnormal spans (with error messages) across the call chain.",
        (_P("start_s", "number", required=False), _P("end_s", "number", required=False)),
        "observability",
    ), observability.collect_trace)
    registry.register(ToolSpec(
        "kubectl_logs",
        "Extract anomaly-keyword log lines from one pod.",
        (_P("pod", "string"),
         _P("start_s", "number", required=False), _P("end_s", "number", required=False)),
        "observability",
    ), observability.kubectl_logs)

    registry.register(ToolSpec(
        "match_sop", "Find stored diagnostic procedures for a fault description.",
        (_P("query", "string"),
         _P("k", "number", required=False), _P("threshold", "number", required=False)),
        "sop_flow",
    ), sop_flow.match_sop)
    registry.register(ToolSpec(
        "generate_sop", "Draft a new diagnostic procedure for an unmatched fault.",
        (_P("fault_info", "string"), _P("parent_sop_id", "string", required=False)),
        "sop_flow",
    ), sop_flow.generate_sop)
    registry.register(ToolSpec(
        "generate_sop_code", "Convert the current procedure into a validated check program.",
        (_P("sop_id", "string", required=False),),
        "sop_flow",
    ), sop_flow.generate_sop_code)
    registry.register(ToolSpec(
        "run_sop", "Execute the validated check program atomically and report findings.",
        (),
        "sop_flow",
    ), sop_flow.run_sop)
    registry.register(ToolSpec(
        "match_observation", "Recall historical incidents similar to an observation.",
        (_P("observation", "string", required=False),
         _P("k", "number", required=False), _P("threshold", "number", required=False)),
        "sop_flow",
    ), sop_flow.match_observation)

    for kind in ("pod", "node", "service", "deployment", "statefulset"):
        registry.register(ToolSpec(
            f"{kind}_analyze", f"Analyze all {kind}s' status.",
            (),
            "analysis",
        ), _make_analyzer(kind + "s"))
    registry.register(ToolSpec(
        "run_kubectl_command", "Execute a read-only kubectl command subset.",
        (_P("command", "string"),),
        "analysis",
    ), analysis.run_kubectl_command)
    registry.register(ToolSpec(
        "get_all_namespace", "List all namespaces.",
        (),
        "analysis",
    ), analysis.get_all_namespace)
    registry.register(ToolSpec(
        "get_relevant_metric", "Rank metric names in the catalog against a query.",
        (_P("query", "string"),),
        "analysis",
    ), analysis.get_relevant_metric)

    registry.register(ToolSpec(
        "speak",
        "Report the identified root causes (at most three) and end the episode. "
        "causes is 'location|type|explanation' entries joined by ';'.",
        (_P("causes", "string"),),
        "terminal",
    ), terminal.speak)

    assert registry.names() == ALL_TOOL_NAMES
    return registry


def _make_analyzer(kind: str):
    def _analyzer(ctx: ToolContext) -> ToolResult:
        return analysis.analyze_resource(ctx, kind)
    return _analyzer


__all__ = [
    "ALL_TOOL_NAMES",
    "ANALYSIS_TOOL_NAMES",
    "GRAMMAR_TEXT",
    "MAX_STATEMENTS",
    "OBSERVABILITY_TOOL_NAMES",
    "PROGRAM_TOOL_CATEGORIES",
    "ProgramRunResult",
    "RootCause",
    "SOP_FLOW_TOOL_NAMES",
    "SopFlowState",
    "SopProgram",
    "SpeakReport",
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
