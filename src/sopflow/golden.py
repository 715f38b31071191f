"""Golden corpus: nine scenarios (one per fault type) with authored scripted
backends that drive each episode to the correct diagnosis.

Scripts exist for the default configuration and for each ablation mode, built
programmatically from scenario facts (target, service, ground truth) so they
stay deterministic. The same corpus backs the end-to-end tests, the ablation
checks, and the README walkthrough; ``python -m sopflow.golden --out DIR``
writes it to disk for CLI use.

Script entries key on the role marker lines from :mod:`sopflow.prompts`; every
entry is consume-once, so the n-th call of a role gets the n-th entry.
"""

from __future__ import annotations

import argparse
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

_SOP_IDS = {
    FaultType.CpuStress: "sop-cpu-stress",
    FaultType.MemoryStress: "sop-memory-stress",
    FaultType.PodFailure: "sop-pod-failure",
    FaultType.NetworkDelay: "sop-network-delay",
    FaultType.NetworkLoss: "sop-network-loss",
    FaultType.NetworkPartition: "sop-network-partition",
    FaultType.NetworkDuplicate: "sop-network-duplicate",
    FaultType.NetworkCorrupt: "sop-network-corrupt",
    FaultType.NetworkBandwidth: "sop-network-bandwidth",
}

_SOP_NAMES = {
    FaultType.CpuStress: "CPU stress diagnosis",
    FaultType.MemoryStress: "Memory stress diagnosis",
    FaultType.PodFailure: "Pod failure diagnosis",
    FaultType.NetworkDelay: "Network delay diagnosis",
    FaultType.NetworkLoss: "Network packet loss diagnosis",
    FaultType.NetworkPartition: "Network partition diagnosis",
    FaultType.NetworkDuplicate: "Network packet duplication diagnosis",
    FaultType.NetworkCorrupt: "Network packet corruption diagnosis",
    FaultType.NetworkBandwidth: "Network bandwidth throttling diagnosis",
}

_SOP_STEPS = {
    FaultType.CpuStress: [
        "Check cpu_usage on the suspect pod; a reading above the threshold points at CPU stress.",
        "Pull the pod logs; throttling messages confirm the CPU is saturated.",
        "Report the pod as the root cause with type CpuStress.",
    ],
    FaultType.MemoryStress: [
        "Check memory_usage on the suspect pod; a reading above the threshold points at memory stress.",
        "Pull the pod logs; OOM messages confirm memory exhaustion.",
        "Report the pod as the root cause with type MemoryStress.",
    ],
    FaultType.PodFailure: [
        "List all pods; a pod in the failed phase is the prime suspect.",
        "Collect traces; 'Service unavailable' spans through its service confirm the outage.",
        "Report the failed pod with type PodFailure.",
    ],
    FaultType.NetworkDelay: [
        "Check request_latency_ms on the affected service; a large rise indicates injected delay.",
        "Pull the pod logs; upstream timeout warnings corroborate the slow path.",
        "Report the pod with type NetworkDelay.",
    ],
    FaultType.NetworkLoss: [
        "Check error_rate on the affected service; a spike indicates packets are being dropped.",
        "Collect traces; timeout spans on the affected edges confirm the loss.",
        "Report the pod with type NetworkLoss.",
    ],
    FaultType.NetworkPartition: [
        "Check error_rate on the affected service; a rate pinned at 1.0 suggests a partition.",
        "Collect traces; 'connection refused' across every call into the service confirms it.",
        "Report the pod with type NetworkPartition.",
    ],
    FaultType.NetworkDuplicate: [
        "Check error_rate on the affected service; duplicated packets surface as call errors.",
        "Collect traces; 'duplicate ack' span errors identify the duplication.",
        "Report the pod with type NetworkDuplicate.",
    ],
    FaultType.NetworkCorrupt: [
        "Check error_rate on the affected service; corrupted packets surface as call errors.",
        "Collect traces; 'checksum mismatch' span errors identify the corruption.",
        "Report the pod with type NetworkCorrupt.",
    ],
    FaultType.NetworkBandwidth: [
        "Check node_network_throughput_bytes on both suspect nodes; a synchronized drop marks throttling.",
        "Check request_latency_ms on services whose calls cross the node pair.",
        "Report the node pair with type NetworkBandwidth.",
    ],
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
        SopDoc(id=_SOP_IDS[ft], name=_SOP_NAMES[ft], steps=list(_SOP_STEPS[ft]), level=0)
        for ft in FaultType
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
    """(component, metric) whose series the fault visibly perturbs."""
    fault = scenario.faults[0]
    ft = fault.fault_type
    if ft == FaultType.CpuStress:
        return fault.location_id, "cpu_usage"
    if ft == FaultType.MemoryStress:
        return fault.location_id, "memory_usage"
    if ft == FaultType.NetworkBandwidth:
        return sorted(fault.node_pair())[0], "node_network_throughput_bytes"
    service = topo.pod(fault.location_id).service
    if ft == FaultType.NetworkPartition or ft == FaultType.PodFailure:
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


def _judge_found(scenario: EpisodeScenario) -> str:
    location = scenario.ground_truth.locations[0]
    fault_type = scenario.ground_truth.types[0]
    return (f"FOUND: location={location} type={fault_type}; "
            f"telemetry matches the {fault_type} signature")


def _speak_causes(scenario: EpisodeScenario) -> str:
    location = scenario.ground_truth.locations[0]
    fault_type = scenario.ground_truth.types[0]
    return f"{location}|{fault_type}|telemetry matches the {fault_type} signature"


def build_script(scenario: EpisodeScenario, mode: str = "default") -> list[ScriptEntry]:
    """Authored backend script that walks one scenario to the right diagnosis."""
    topo = scenario.topology()
    fault = scenario.faults[0]
    ft = fault.fault_type
    sop_name = _SOP_NAMES[ft]
    sop_id = _SOP_IDS[ft]
    target = scenario.ground_truth.locations[0]
    program = _program_text(scenario, topo)
    judge_reply = _judge_found(scenario)
    observer_reply = f"type: {ft.value} - findings match the recorded signature"

    if mode == "default" or mode == "ob_agent_off":
        entries = [
            _once(ROLE_THOUGHT, f"The alert implicates {target}. Start from the stored procedure."),
            _once(ROLE_ACTION, f'ACTION: match_sop(query="{sop_name}") | stored procedure for this fault family'),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_THOUGHT, "Procedure matched. Turn it into a check program."),
            _once(ROLE_ACTION, "ACTION: collect_trace() | scan for failing spans"),
            _once(ROLE_SELECT, "2"),
            _once(ROLE_CODER, f"```\n{program}\n```"),
            _once(ROLE_THOUGHT, "Program validated. Execute it in one shot."),
            _once(ROLE_ACTION, "ACTION: run_sop() | execute the validated program"),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_THOUGHT, "Findings collected. Compare with past incidents."),
            _once(ROLE_ACTION, "ACTION: get_all_namespace() | take stock of the cluster"),
            _once(ROLE_SELECT, "2"),
        ]
        if mode == "default":
            entries.append(_once(ROLE_OBSERVER, observer_reply))
        entries += [
            _once(ROLE_JUDGE, judge_reply),
            _once(ROLE_THOUGHT, f"The judge confirmed {target}. Report it."),
            _once(ROLE_ACTION, "ACTION: node_analyze() | double-check node health"),
            _once(ROLE_SELECT, "2"),
        ]
        return entries

    if mode == "judge_agent_off":
        return [
            _once(ROLE_THOUGHT, f"The alert implicates {target}. Start from the stored procedure."),
            _once(ROLE_ACTION, f'ACTION: match_sop(query="{sop_name}") | stored procedure for this fault family'),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_THOUGHT, "Procedure matched. Turn it into a check program."),
            _once(ROLE_ACTION, "ACTION: collect_trace() | scan for failing spans"),
            _once(ROLE_SELECT, "2"),
            _once(ROLE_CODER, f"```\n{program}\n```"),
            _once(ROLE_THOUGHT, "Program validated. Execute it in one shot."),
            _once(ROLE_ACTION, "ACTION: run_sop() | execute the validated program"),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_THOUGHT, "Findings collected. Compare with past incidents."),
            _once(ROLE_ACTION, "ACTION: get_all_namespace() | take stock of the cluster"),
            _once(ROLE_SELECT, "2"),
            _once(ROLE_OBSERVER, observer_reply),
            _once(ROLE_THOUGHT, f"Evidence points at {target}. Report it."),
            _once(ROLE_ACTION, f'ACTION: speak(causes="{_speak_causes(scenario)}") | report the confirmed cause'),
            _once(ROLE_SELECT, "1"),
        ]

    if mode == "sop_flow_off":
        return [
            _once(ROLE_THOUGHT, f"The alert implicates {target}. Use the stored procedure directly."),
            _once(ROLE_ACTION, f'ACTION: match_sop(query="{sop_name}") | stored procedure for this fault family'),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_THOUGHT, "Procedure matched. Codify it."),
            _once(ROLE_ACTION, f'ACTION: generate_sop_code(sop_id="{sop_id}") | turn the procedure into a program'),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_CODER, f"```\n{program}\n```"),
            _once(ROLE_THOUGHT, "Program validated. Run it."),
            _once(ROLE_ACTION, "ACTION: run_sop() | execute the program"),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_THOUGHT, "Findings collected. Compare with past incidents."),
            _once(ROLE_ACTION, "ACTION: match_observation() | recall similar incidents"),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_OBSERVER, observer_reply),
            _once(ROLE_JUDGE, judge_reply),
            _once(ROLE_THOUGHT, f"The judge confirmed {target}. Report it."),
            _once(ROLE_ACTION, f'ACTION: speak(causes="{_speak_causes(scenario)}") | report the confirmed cause'),
            _once(ROLE_SELECT, "1"),
        ]

    if mode == "action_agent_off":
        return [
            _once(ROLE_THOUGHT, "No proposer available; follow the flow from the alert."),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_THOUGHT, "Nothing matched the raw alert. Draft a procedure."),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_AUTHOR, "SOP NAME: " + sop_name + " (drafted)\nSTEPS:\n"
                  + "\n".join(f"{i}. {s}" for i, s in enumerate(_SOP_STEPS[ft], start=1))),
            _once(ROLE_THOUGHT, "Procedure drafted. Codify it."),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_CODER, f"```\n{program}\n```"),
            _once(ROLE_THOUGHT, "Program validated. Run it."),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_THOUGHT, "Findings collected. Compare with past incidents."),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_OBSERVER, observer_reply),
            _once(ROLE_JUDGE, judge_reply),
            _once(ROLE_THOUGHT, f"The judge confirmed {target}. Report it."),
            _once(ROLE_SELECT, "1"),
        ]

    if mode == "sop_knowledge_off":
        return [
            _once(ROLE_THOUGHT, "No procedures available; inspect the cluster directly."),
            _once(ROLE_ACTION, "ACTION: pod_analyze() | check every pod's phase"),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_THOUGHT, "Compare the evidence against past incidents."),
            _once(ROLE_ACTION, f'ACTION: match_observation(observation="suspected {ft.value} on {target}") | recall similar incidents'),
            _once(ROLE_SELECT, "1"),
            _once(ROLE_OBSERVER, observer_reply),
            _once(ROLE_JUDGE, judge_reply),
            _once(ROLE_THOUGHT, f"The judge confirmed {target}. Report it."),
            _once(ROLE_ACTION, f'ACTION: speak(causes="{_speak_causes(scenario)}") | report the confirmed cause'),
            _once(ROLE_SELECT, "1"),
        ]

    if mode == "action_set_off":
        return [
            _once(ROLE_THOUGHT, "Working without candidate sets; inspect pods first."),
            _once(ROLE_DIRECT, "ACTION: pod_analyze() | check every pod's phase"),
            _once(ROLE_THOUGHT, "Compare the evidence against past incidents."),
            _once(ROLE_DIRECT, f'ACTION: match_observation(observation="suspected {ft.value} on {target}") | recall similar incidents'),
            _once(ROLE_OBSERVER, observer_reply),
            _once(ROLE_JUDGE, judge_reply),
            _once(ROLE_THOUGHT, f"The judge confirmed {target}. Report it."),
            _once(ROLE_DIRECT, f'ACTION: speak(causes="{_speak_causes(scenario)}") | report the confirmed cause'),
        ]

    raise ValueError(f"unknown golden mode {mode!r}")


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
        schema.write_yaml(script_path, script_to_mapping(case.script))
        episodes.append({
            "scenario": str(scenario_path.relative_to(out)),
            "script": str(script_path.relative_to(out)),
        })
    manifest = out / "manifest.yaml"
    schema.write_yaml(manifest, {"kb": "kb", "episodes": episodes})
    return manifest


def main(argv=None) -> int:
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
