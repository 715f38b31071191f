"""Golden corpus: nine scenarios (one per fault type) with authored scripted
backends that drive each episode to the correct diagnosis.

Scripts exist for the default configuration and for each ablation mode, built
programmatically from scenario facts (target, service, ground truth) so they
stay deterministic. Every mode is assembled from the same steps (a thought, a
proposal, a selection) and shared segments, so a mode states only where it
departs from the others. The same corpus backs the end-to-end tests, the ablation
checks, and the README walkthrough; ``python -m sopflow.golden --out DIR``
writes it to disk for CLI use.

Script entries key on the role marker lines from :mod:`sopflow.prompts`; every
entry is consume-once, so the n-th call of a role gets the n-th entry.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

from . import schema
from .kb import HistoricalIncident, KnowledgeBase, SopDoc
from .llm import BackendConfig, ScriptEntry, make_backend, script_to_mapping
from .llm import script_from_mapping  # noqa: F401  (re-exported for corpus readers)
from .prompts import (
    ROLE_ACTION,
    ROLE_AUTHOR,
    ROLE_CODER,
    ROLE_DIRECT,
    ROLE_JUDGE,
    ROLE_OBSERVER,
    ROLE_SELECT,
    ROLE_THOUGHT,
)
from .sandbox import (
    EpisodeScenario,
    FaultType,
    ScenarioConfig,
    generate_scenario,
    render_alert,
    render_telemetry,
    save_scenario,
)
from .sandbox.topology import Topology
from .tools import RootCause, encode_causes

GOLDEN_BASE_SEED = 1000

MODES = (
    "default",
    "sop_knowledge_off",
    "sop_flow_off",
    "action_set_off",
    "action_agent_off",
    "ob_agent_off",
    "judge_agent_off",
)

# fault type -> (SOP id, name, steps); golden_sops() and the authored scripts read it
_SOPS = {
    FaultType.CpuStress: ("sop-cpu-stress", "CPU stress diagnosis", (
        "Check cpu_usage on the suspect pod; a reading above the threshold points at CPU stress.",
        "Pull the pod logs; throttling messages confirm the CPU is saturated.",
        "Report the pod as the root cause with type CpuStress.",
    )),
    FaultType.MemoryStress: ("sop-memory-stress", "Memory stress diagnosis", (
        "Check memory_usage on the suspect pod; a reading above the threshold points at memory stress.",
        "Pull the pod logs; OOM messages confirm memory exhaustion.",
        "Report the pod as the root cause with type MemoryStress.",
    )),
    FaultType.PodFailure: ("sop-pod-failure", "Pod failure diagnosis", (
        "List all pods; a pod in the failed phase is the prime suspect.",
        "Collect traces; 'Service unavailable' spans through its service confirm the outage.",
        "Report the failed pod with type PodFailure.",
    )),
    FaultType.NetworkDelay: ("sop-network-delay", "Network delay diagnosis", (
        "Check request_latency_ms on the affected service; a large rise indicates injected delay.",
        "Pull the pod logs; upstream timeout warnings corroborate the slow path.",
        "Report the pod with type NetworkDelay.",
    )),
    FaultType.NetworkLoss: ("sop-network-loss", "Network packet loss diagnosis", (
        "Check error_rate on the affected service; a spike indicates packets are being dropped.",
        "Collect traces; timeout spans on the affected edges confirm the loss.",
        "Report the pod with type NetworkLoss.",
    )),
    FaultType.NetworkPartition: ("sop-network-partition", "Network partition diagnosis", (
        "Check error_rate on the affected service; a rate pinned at 1.0 suggests a partition.",
        "Collect traces; 'connection refused' across every call into the service confirms it.",
        "Report the pod with type NetworkPartition.",
    )),
    FaultType.NetworkDuplicate: ("sop-network-duplicate", "Network packet duplication diagnosis", (
        "Check error_rate on the affected service; duplicated packets surface as call errors.",
        "Collect traces; 'duplicate ack' span errors identify the duplication.",
        "Report the pod with type NetworkDuplicate.",
    )),
    FaultType.NetworkCorrupt: ("sop-network-corrupt", "Network packet corruption diagnosis", (
        "Check error_rate on the affected service; corrupted packets surface as call errors.",
        "Collect traces; 'checksum mismatch' span errors identify the corruption.",
        "Report the pod with type NetworkCorrupt.",
    )),
    FaultType.NetworkBandwidth: ("sop-network-bandwidth", "Network bandwidth throttling diagnosis", (
        "Check node_network_throughput_bytes on both suspect nodes; a synchronized drop marks throttling.",
        "Check request_latency_ms on services whose calls cross the node pair.",
        "Report the node pair with type NetworkBandwidth.",
    )),
}

_INCIDENTS = [
    HistoricalIncident(
        id="inc-checkout-cpu",
        manifestation="checkout pods pinned at full CPU, requests queueing, throttling in logs",
        fault_type="CpuStress",
    ),
    HistoricalIncident(
        id="inc-cart-partition",
        manifestation="every call into the cart tier refused, error rate pinned at 100 percent",
        fault_type="NetworkPartition",
    ),
    HistoricalIncident(
        id="inc-payment-delay",
        manifestation="payment latency up by hundreds of milliseconds, upstream timeouts in logs",
        fault_type="NetworkDelay",
    ),
]


def golden_sops() -> list[SopDoc]:
    return [
        SopDoc(id=sop_id, name=name, steps=steps, level=0)
        for sop_id, name, steps in (_SOPS[ft] for ft in FaultType)
    ]


def golden_incidents() -> list[HistoricalIncident]:
    return list(_INCIDENTS)


def make_golden_kb(backend, root: Path | str | None = None) -> KnowledgeBase:
    kb = KnowledgeBase(backend, root=root)
    for doc in golden_sops():
        kb.add_sop(doc)
    for inc in golden_incidents():
        kb.add_incident(inc)
    return kb


def golden_scenarios() -> list[EpisodeScenario]:
    return [
        generate_scenario(GOLDEN_BASE_SEED + i, ScenarioConfig(fault_types=(ft,)))
        for i, ft in enumerate(FaultType)
    ]


# -- script construction --------------------------------------------------------


def _metric_probe(scenario: EpisodeScenario, topo: Topology) -> tuple[str, str]:
    """(component, metric) whose series the fault visibly perturbs; a pod
    failure or a bandwidth fault gets its own program from ``_program_text``."""
    fault = scenario.faults[0]
    ft = fault.fault_type
    if ft == FaultType.CpuStress:
        return fault.location_id, "cpu_usage"
    if ft == FaultType.MemoryStress:
        return fault.location_id, "memory_usage"
    service = topo.pod(fault.location_id).service
    if ft == FaultType.NetworkPartition:
        return service, "error_rate"
    # delay/loss/dup/corrupt perturb callee-side series; the frontend has no
    # callers, so fall through to its first callee in that case
    has_inbound = any(e.dst == service for e in topo.call_edges)
    probe_service = service if has_inbound else topo.children(service)[0].dst
    if ft == FaultType.NetworkDelay:
        return probe_service, "request_latency_ms"
    return probe_service, "error_rate"


def _program_text(scenario: EpisodeScenario, topo: Topology) -> str:
    fault = scenario.faults[0]
    ft = fault.fault_type
    if ft == FaultType.PodFailure:
        return (
            "let pods = pod_analyze()\n"
            "finding(\"pod phases:\", pods)\n"
            "let spans = collect_trace()\n"
            "finding(spans)"
        )
    if ft == FaultType.NetworkBandwidth:
        node_a, node_b = sorted(fault.node_pair())
        return (
            f"let thr_a = whether_is_abnormal_metric(target=\"{node_a}\", "
            f"metric=\"node_network_throughput_bytes\")\n"
            "finding(thr_a)\n"
            f"let thr_b = whether_is_abnormal_metric(target=\"{node_b}\", "
            f"metric=\"node_network_throughput_bytes\")\n"
            "finding(thr_b)"
        )
    component, metric = _metric_probe(scenario, topo)
    pod = fault.location_id
    lines = [
        f"let probe = whether_is_abnormal_metric(target=\"{component}\", metric=\"{metric}\")",
        "finding(probe)",
    ]
    if ft in (FaultType.CpuStress, FaultType.MemoryStress, FaultType.NetworkDelay,
              FaultType.NetworkLoss, FaultType.NetworkPartition):
        lines.append(f"let lines = kubectl_logs(pod=\"{pod}\")")
        lines.append("finding(lines)")
    else:
        lines.append("let spans = collect_trace()")
        lines.append("finding(spans)")
    return "\n".join(lines)


def _once(key: str, response: str) -> ScriptEntry:
    return ScriptEntry(match_key=key, response=response, consume_once=True)


def build_script(scenario: EpisodeScenario, mode: str = "default") -> list[ScriptEntry]:
    """Authored backend script that walks one scenario to the right diagnosis."""
    if mode not in MODES:
        raise ValueError(f"unknown golden mode {mode!r}")
    ft = scenario.faults[0].fault_type
    sop_id, sop_name, sop_steps = _SOPS[ft]
    target = scenario.ground_truth.locations[0]
    fault_type = scenario.ground_truth.types[0]
    signature = f"telemetry matches the {fault_type} signature"
    # without an ActionAgent a step has no proposal; without action sets the
    # main agent proposes directly and nothing is selected
    proposer = ROLE_DIRECT if mode == "action_set_off" else ROLE_ACTION

    def step(thought: str, action: str | None = None, pick: str = "1") -> list[ScriptEntry]:
        """One main-agent step: the thought, the proposal, the selection."""
        entries = [_once(ROLE_THOUGHT, thought)]
        if action is not None:
            entries.append(_once(proposer, f"ACTION: {action}"))
        if proposer == ROLE_ACTION:
            entries.append(_once(ROLE_SELECT, pick))
        return entries

    def report(action: str | None = None, pick: str = "1") -> list[ScriptEntry]:
        """The auxiliary agents' replies, then the step that reports."""
        entries = []
        if mode != "ob_agent_off":
            entries.append(_once(ROLE_OBSERVER,
                                 f"type: {ft.value} - findings match the recorded signature"))
        if mode == "judge_agent_off":
            return entries + step(f"Evidence points at {target}. Report it.", action, pick)
        entries.append(_once(ROLE_JUDGE, f"FOUND: location={target} type={fault_type}; {signature}"))
        return entries + step(f"The judge confirmed {target}. Report it.", action, pick)

    coder = _once(ROLE_CODER, f"```\n{_program_text(scenario, scenario.topology())}\n```")
    match_sop = f'match_sop(query="{sop_name}") | stored procedure for this fault family'
    compare = "Findings collected. Compare with past incidents."
    speak = (f'speak(causes="{encode_causes([RootCause(target, fault_type, signature)])}")'
             " | report the confirmed cause")

    if mode in ("default", "ob_agent_off", "judge_agent_off"):
        opening = [
            *step(f"The alert implicates {target}. Start from the stored procedure.", match_sop),
            *step("Procedure matched. Turn it into a check program.",
                  "collect_trace() | scan for failing spans", "2"),
            coder,
            *step("Program validated. Execute it in one shot.",
                  "run_sop() | execute the validated program"),
            *step(compare, "get_all_namespace() | take stock of the cluster", "2"),
        ]
        if mode == "judge_agent_off":
            return opening + report(speak)
        return opening + report("node_analyze() | double-check node health", "2")

    if mode == "sop_flow_off":
        return [
            *step(f"The alert implicates {target}. Use the stored procedure directly.", match_sop),
            *step("Procedure matched. Codify it.",
                  f'generate_sop_code(sop_id="{sop_id}") | turn the procedure into a program'),
            coder,
            *step("Program validated. Run it.", "run_sop() | execute the program"),
            *step(compare, "match_observation() | recall similar incidents"),
            *report(speak),
        ]

    if mode == "action_agent_off":
        drafted = "\n".join(f"{i}. {s}" for i, s in enumerate(sop_steps, start=1))
        return [
            *step("No proposer available; follow the flow from the alert."),
            *step("Nothing matched the raw alert. Draft a procedure."),
            _once(ROLE_AUTHOR, f"SOP NAME: {sop_name} (drafted)\nSTEPS:\n{drafted}"),
            *step("Procedure drafted. Codify it."),
            coder,
            *step("Program validated. Run it."),
            *step(compare),
            *report(),
        ]

    # sop_knowledge_off and action_set_off: inspect pods, recall, report
    first = ("Working without candidate sets; inspect pods first." if mode == "action_set_off"
             else "No procedures available; inspect the cluster directly.")
    return [
        *step(first, "pod_analyze() | check every pod's phase"),
        *step("Compare the evidence against past incidents.",
              f'match_observation(observation="suspected {ft.value} on {target}") | recall similar incidents'),
        *report(speak),
    ]


@dataclass(frozen=True)
class GoldenCase:
    scenario: EpisodeScenario
    script: list[ScriptEntry]
    mode: str


def golden_cases(mode: str = "default") -> list[GoldenCase]:
    return [
        GoldenCase(scenario=scn, script=build_script(scn, mode), mode=mode)
        for scn in golden_scenarios()
    ]


def expected_path(scenario: EpisodeScenario, mode: str) -> tuple[str, ...]:
    """The action path an authored episode will take.

    With the ActionAgent ablated, the first step queries the raw alert text;
    whether that accidentally clears the retrieval threshold under hash
    embeddings decides (deterministically) if the generate_sop branch runs, so
    the expectation replays that retrieval check instead of guessing.
    """
    if mode in ("default", "ob_agent_off", "judge_agent_off", "sop_flow_off"):
        return ("match_sop", "generate_sop_code", "run_sop", "match_observation", "speak")
    if mode in ("sop_knowledge_off", "action_set_off"):
        return ("pod_analyze", "match_observation", "speak")
    if mode == "action_agent_off":
        backend = make_backend(BackendConfig())
        kb = make_golden_kb(backend)
        alert = render_alert(render_telemetry(scenario))
        hits = kb.match_sop(alert)
        head = ("match_sop",) if hits else ("match_sop", "generate_sop")
        return head + ("generate_sop_code", "run_sop", "match_observation", "speak")
    raise ValueError(f"unknown golden mode {mode!r}")


# -- on-disk corpus ---------------------------------------------------------------


def write_corpus(out_dir: Path | str, mode: str = "default") -> Path:
    """Write scenarios, scripts, knowledge base, and manifest; returns the manifest path.

    Rewriting an existing corpus replaces its knowledge base directory, so a
    rerun yields the same files as the first run.
    """
    out = Path(out_dir)
    (out / "scenarios").mkdir(parents=True, exist_ok=True)
    (out / "scripts").mkdir(parents=True, exist_ok=True)
    shutil.rmtree(out / "kb", ignore_errors=True)
    backend = make_backend(BackendConfig())
    make_golden_kb(backend, root=out / "kb")
    episodes = []
    for case in golden_cases(mode):
        scenario_path = out / "scenarios" / f"{case.scenario.id}.yaml"
        save_scenario(case.scenario, scenario_path)
        script_path = out / "scripts" / f"{case.scenario.id}.yaml"
        schema.write_json_form(script_path, script_to_mapping(case.script))
        episodes.append({
            "scenario": str(scenario_path.relative_to(out)),
            "script": str(script_path.relative_to(out)),
        })
    manifest = out / "manifest.yaml"
    schema.write_json_form(manifest, {"kb": "kb", "episodes": episodes})
    return manifest


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m sopflow.golden",
        description="Write the golden scenario corpus with authored scripts.",
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--mode", default="default", choices=MODES)
    args = parser.parse_args(argv)
    manifest = write_corpus(args.out, args.mode)
    print(f"wrote corpus manifest to {manifest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
