"""Cluster analysis tools: resource status tables, a read-only kubectl subset,
namespace listing, and metric-name lookup."""

from __future__ import annotations

from ..detector import METRIC_CATALOG
from ..errors import ToolError, ValidationError
from .observability import kubectl_logs
from .registry import ToolContext, ToolResult

RESOURCE_KINDS = ("pods", "nodes", "services", "deployments", "statefulsets")

_SUPPORTED_KUBECTL = (
    "get pods|nodes|services|deployments|statefulsets",
    "describe pod <name>",
    "logs <pod>",
)


def _pods_table(ctx: ToolContext) -> str:
    rows = ["POD                          SERVICE                 NODE    PHASE"]
    for pod_id, phase in ctx.telemetry.pod_phases():
        pod = ctx.telemetry.topology.pod(pod_id)
        rows.append(f"{pod_id:<28} {pod.service:<23} {pod.node:<7} {phase}")
    return "\n".join(rows)


def _nodes_table(ctx: ToolContext) -> str:
    topo = ctx.telemetry.topology
    rows = ["NODE    CPU_CORES  MEMORY_GB  PODS  STATUS"]
    for node in sorted(topo.nodes, key=lambda n: n.id):
        pod_count = sum(1 for p in topo.pods if p.node == node.id)
        rows.append(f"{node.id:<7} {node.cpu_cores:<10} {node.memory_gb:<10} "
                    f"{pod_count:<5} Ready")
    return "\n".join(rows)


def _services_table(ctx: ToolContext) -> str:
    topo = ctx.telemetry.topology
    phases = dict(ctx.telemetry.pod_phases())
    rows = ["SERVICE                 PODS  READY  HEALTH"]
    for service in sorted(topo.services):
        pods = topo.pods_of(service)
        ready = sum(1 for p in pods if phases[p.id] == "running")
        health = "ok" if ready == len(pods) else "degraded"
        rows.append(f"{service:<23} {len(pods):<5} {ready:<6} {health}")
    return "\n".join(rows)


def _workload_table(ctx: ToolContext, statefulset: bool) -> str:
    topo = ctx.telemetry.topology
    phases = dict(ctx.telemetry.pod_phases())
    kind = "STATEFULSET" if statefulset else "DEPLOYMENT"
    rows = [f"{kind:<23} DESIRED  READY"]
    for service in sorted(topo.services):
        if (service in topo.statefulset_services) != statefulset:
            continue
        pods = topo.pods_of(service)
        ready = sum(1 for p in pods if phases[p.id] == "running")
        rows.append(f"{service:<23} {len(pods):<8} {ready}")
    return "\n".join(rows)


def analyze_resource(ctx: ToolContext, kind: str) -> ToolResult:
    """Status table for every resource of ``kind``, one of ``RESOURCE_KINDS``,
    frozen at incident time."""
    if kind == "pods":
        text = _pods_table(ctx)
    elif kind == "nodes":
        text = _nodes_table(ctx)
    elif kind == "services":
        text = _services_table(ctx)
    elif kind == "deployments":
        text = _workload_table(ctx, statefulset=False)
    else:
        text = _workload_table(ctx, statefulset=True)
    return ToolResult(observation=text)


def _describe_pod(ctx: ToolContext, pod_id: str) -> str:
    phase = ctx.telemetry.pod_phase(pod_id)  # raises NotFoundError on an unknown pod
    pod = ctx.telemetry.topology.pod(pod_id)
    return (f"Name:     {pod.id}\n"
            f"Service:  {pod.service}\n"
            f"Node:     {pod.node}\n"
            f"Phase:    {phase}\n"
            f"Ready:    {'True' if phase == 'running' else 'False'}")


def run_kubectl_command(ctx: ToolContext, command: str) -> ToolResult:
    """Interpret a small read-only kubectl subset against the sandbox."""
    words = command.strip().split()
    if words and words[0] == "kubectl":
        words = words[1:]
    if not words:
        raise ToolError(f"empty command; supported: {'; '.join(_SUPPORTED_KUBECTL)}")
    verb = words[0]
    if verb == "get" and len(words) == 2 and words[1] in RESOURCE_KINDS:
        return analyze_resource(ctx, words[1])
    if verb == "describe" and len(words) == 3 and words[1] == "pod":
        return ToolResult(observation=_describe_pod(ctx, words[2]))
    if verb == "logs" and len(words) == 2:
        return kubectl_logs(ctx, pod=words[1])
    raise ToolError(
        f"unsupported command {command!r}; supported: {'; '.join(_SUPPORTED_KUBECTL)}"
    )


def get_all_namespace(ctx: ToolContext) -> ToolResult:
    names = ctx.telemetry.topology.namespaces
    return ToolResult(observation="namespaces:\n" + "\n".join(f"- {n}" for n in names))


def get_relevant_metric(ctx: ToolContext, query: str) -> ToolResult:
    """Rank the metric catalog against the query; substring hits come first
    (earlier match position, then shorter name), then fuzzy similarity."""
    import difflib
    query = query.strip().lower()
    if not query:
        raise ValidationError("get_relevant_metric requires a non-empty query")
    scored = []
    for name in METRIC_CATALOG:
        lowered = name.lower()
        if query in lowered:
            score = 1000.0 - 10.0 * lowered.index(query) - len(lowered)
        else:
            score = 100.0 * difflib.SequenceMatcher(None, query, lowered).ratio()
        scored.append((-score, name))
    scored.sort()
    top = [name for _, name in scored[:5]]
    text = "relevant metrics:\n" + "\n".join(f"- {name}" for name in top)
    return ToolResult(observation=text, payload=top)
