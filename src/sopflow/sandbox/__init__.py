"""Deterministic simulated microservice deployment with fault injection.

Stands in for a real cluster plus its monitoring stack: a fixed topology of
services, pods, and nodes produces metric, log, and error-span telemetry, and
injected faults perturb that telemetry according to a documented signature
table. Everything is a pure function of the scenario seed.
"""

from .faults import FaultSpec, FaultType
from .scenario import EpisodeScenario, GroundTruth, ScenarioConfig, generate_corpus, generate_scenario, load_scenario, save_scenario
from .telemetry import LogLine, Span, Telemetry, render_telemetry
from .topology import CallEdge, Node, Pod, Topology, load_fixture
from .alert import render_alert

__all__ = [
    "CallEdge",
    "EpisodeScenario",
    "FaultSpec",
    "FaultType",
    "GroundTruth",
    "LogLine",
    "Node",
    "Pod",
    "ScenarioConfig",
    "Span",
    "Telemetry",
    "Topology",
    "generate_corpus",
    "generate_scenario",
    "load_fixture",
    "load_scenario",
    "render_alert",
    "render_telemetry",
    "save_scenario",
]
