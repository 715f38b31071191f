"""Byte-identity guard for the sandbox's alert and telemetry rendering.

The alert digests were computed from the straightforward per-sample sweep
(one ``evaluate_series`` call per sample, fault effects resolved per metric).
The telemetry digests are over ``reference.reference_digest``: every metric
sample, every log line and every error span, the spans from a brute-force
walk of the call tree. Both pin the exact bytes every faster implementation
must reproduce.
"""

import hashlib

from sopflow.detector import DetectorConfig
from sopflow.golden import golden_scenarios
from sopflow.sandbox import (
    EpisodeScenario,
    FaultSpec,
    FaultType,
    GroundTruth,
    ScenarioConfig,
    generate_corpus,
    render_alert,
    render_telemetry,
)

from reference import reference_digest

DETECTOR_CONFIGS = (
    DetectorConfig(),
    DetectorConfig(k=2.0, min_baseline_samples=9),
    DetectorConfig(min_sigma_frac=0.0),
)

ALERTS_SHA256 = "044c7248b098b13a547da096b2e921227af36fcaa99c5a3ffeea9d965030154f"
TELEMETRY_SHA256 = "7dfab790179355cee11efadbec213b33faf255b26dffa148ab527ee2d80062b2"


def _scenarios():
    return golden_scenarios() + generate_corpus(0, 18) + generate_corpus(1, 18)


def test_alerts_and_telemetry_are_byte_identical():
    alerts = hashlib.sha256()
    telemetry_hashes = hashlib.sha256()
    for scenario in _scenarios():
        telemetry = render_telemetry(scenario)
        telemetry_hashes.update(f"{scenario.id} {reference_digest(telemetry)}\n".encode())
        for cfg in DETECTOR_CONFIGS:
            alerts.update(render_alert(telemetry, cfg).encode("utf-8"))
            alerts.update(b"\0")
    assert telemetry_hashes.hexdigest() == TELEMETRY_SHA256
    assert alerts.hexdigest() == ALERTS_SHA256


def _hand_built(name: str, *faults: tuple) -> EpisodeScenario:
    specs = [FaultSpec(FaultType[kind], target, start, duration, magnitude)
             for kind, target, start, duration, magnitude in faults]
    return EpisodeScenario(
        id=f"scn-overlap-{name}", topology_name="online-boutique", seed=len(name) * 97,
        window=(0, 600), faults=specs, ground_truth=GroundTruth(
            tuple(sorted({f.location_id for f in specs})),
            tuple(sorted({f.fault_type.value for f in specs}))),
    )


# Faults whose windows overlap in part, so a scenario has several distinct
# sets of active faults, and whose effects land on the same pod, node pair,
# edge or service, so they accumulate in one sum, product or verdict.
OVERLAPPING = (
    _hand_built("two-delays-one-pod",
                ("NetworkDelay", "pod:cartservice-0", 120, 240, 300.0),
                ("NetworkDelay", "pod:cartservice-0", 180, 240, 150.0)),
    _hand_built("two-bandwidths-one-pair",
                ("NetworkBandwidth", "nodes:node-2<->node-3", 120, 240, 0.4),
                ("NetworkBandwidth", "nodes:node-2<->node-3", 180, 240, 0.3)),
    _hand_built("two-cpu-one-memory",
                ("CpuStress", "pod:productcatalogservice-0", 120, 240, 0.9),
                ("CpuStress", "pod:productcatalogservice-0", 180, 240, 0.7),
                ("MemoryStress", "pod:productcatalogservice-0", 150, 150, 0.97)),
    _hand_built("loss-corrupt-duplicate",
                ("NetworkLoss", "pod:cartservice-0", 120, 240, 0.3),
                ("NetworkCorrupt", "pod:cartservice-0", 180, 240, 0.2),
                ("NetworkDuplicate", "edge:frontend->cartservice", 150, 300, 0.5)),
    _hand_built("failure-then-partition",
                ("PodFailure", "pod:checkoutservice-0", 120, 240, 1.0),
                ("NetworkPartition", "pod:checkoutservice-0", 180, 240, 1.0)),
    _hand_built("partition-then-failure",
                ("NetworkPartition", "pod:checkoutservice-0", 120, 240, 1.0),
                ("PodFailure", "pod:checkoutservice-0", 180, 240, 1.0)),
    _hand_built("frontend-down-and-delay",
                ("PodFailure", "pod:frontend-0", 180, 120, 1.0),
                ("NetworkDelay", "pod:cartservice-0", 120, 240, 300.0)),
    _hand_built("bandwidth-delay-loss-one-edge",
                ("NetworkBandwidth", "nodes:node-2<->node-3", 120, 300, 0.4),
                ("NetworkDelay", "edge:frontend->cartservice", 150, 240, 200.0),
                ("NetworkLoss", "pod:cartservice-0", 180, 180, 0.3)),
)

OVERLAPPING_SHA256 = "f8312936a90046f5a67eb1e0173684fc7f96ffb939733f028076e8939fdb6069"


def test_overlapping_faults_are_byte_identical():
    scenarios = (list(OVERLAPPING)
                 + generate_corpus(2, 18, ScenarioConfig(faults_per_scenario=2))
                 + generate_corpus(3, 9, ScenarioConfig(faults_per_scenario=3)))
    digest = hashlib.sha256()
    for scenario in scenarios:
        telemetry = render_telemetry(scenario)
        digest.update(f"{scenario.id} {reference_digest(telemetry)}\n".encode())
        digest.update(render_alert(telemetry, DetectorConfig()).encode("utf-8"))
        digest.update(b"\0")
    assert digest.hexdigest() == OVERLAPPING_SHA256
