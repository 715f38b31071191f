"""Fault taxonomy and injection specs.

Targets are encoded as prefixed strings so they survive scenario files:
``pod:cartservice-0``, ``edge:frontend->cartservice``, ``nodes:node-1<->node-2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..errors import ValidationError
from .topology import Topology


class FaultType(str, Enum):
    CpuStress = "CpuStress"
    MemoryStress = "MemoryStress"
    PodFailure = "PodFailure"
    NetworkDelay = "NetworkDelay"
    NetworkLoss = "NetworkLoss"
    NetworkPartition = "NetworkPartition"
    NetworkDuplicate = "NetworkDuplicate"
    NetworkCorrupt = "NetworkCorrupt"
    NetworkBandwidth = "NetworkBandwidth"


# allowed target kinds per fault type
_TARGET_KINDS: dict[FaultType, tuple[str, ...]] = {
    FaultType.CpuStress: ("pod",),
    FaultType.MemoryStress: ("pod",),
    FaultType.PodFailure: ("pod",),
    FaultType.NetworkDelay: ("pod", "edge"),
    FaultType.NetworkLoss: ("pod", "edge"),
    FaultType.NetworkPartition: ("pod", "edge"),
    FaultType.NetworkDuplicate: ("pod", "edge"),
    FaultType.NetworkCorrupt: ("pod", "edge"),
    FaultType.NetworkBandwidth: ("nodes",),
}

# magnitude meaning and inclusive/exclusive range per type
MAGNITUDE_RANGES: dict[FaultType, tuple[float, float]] = {
    FaultType.CpuStress: (0.0, 1.0),        # target cpu utilisation fraction
    FaultType.MemoryStress: (0.0, 1.0),     # target memory utilisation fraction
    FaultType.PodFailure: (0.0, 1.0),       # severity, effectively ignored
    FaultType.NetworkDelay: (0.0, 10_000.0),  # added latency in ms
    FaultType.NetworkLoss: (0.0, 1.0),      # fraction of affected calls
    FaultType.NetworkPartition: (0.0, 1.0),  # severity, effectively ignored
    FaultType.NetworkDuplicate: (0.0, 1.0),
    FaultType.NetworkCorrupt: (0.0, 1.0),
    FaultType.NetworkBandwidth: (0.0, 1.0),  # remaining bandwidth fraction
}

DEFAULT_MAGNITUDES: dict[FaultType, float] = {
    FaultType.CpuStress: 0.9,
    FaultType.MemoryStress: 0.97,
    FaultType.PodFailure: 1.0,
    FaultType.NetworkDelay: 300.0,
    FaultType.NetworkLoss: 0.3,
    FaultType.NetworkPartition: 1.0,
    FaultType.NetworkDuplicate: 0.3,
    FaultType.NetworkCorrupt: 0.3,
    FaultType.NetworkBandwidth: 0.4,
}


def parse_target(target: str) -> tuple[str, str]:
    """Split a target string into (kind, body). Raises ValidationError on bad form."""
    for prefix in ("pod", "edge", "nodes"):
        if target.startswith(prefix + ":"):
            body = target[len(prefix) + 1:]
            if not body:
                raise ValidationError(f"empty {prefix} target")
            return prefix, body
    raise ValidationError(f"malformed fault target {target!r}")


@dataclass(frozen=True)
class FaultSpec:
    fault_type: FaultType
    target: str
    start_s: int
    duration_s: int
    magnitude: float

    @property
    def end_s(self) -> int:
        return self.start_s + self.duration_s

    def active_at(self, t_s: int) -> bool:
        return self.start_s <= t_s < self.end_s

    @property
    def target_kind(self) -> str:
        return parse_target(self.target)[0]

    @property
    def location_id(self) -> str:
        """Ground-truth location id: the target without its kind prefix."""
        return parse_target(self.target)[1]

    def edge_pair(self) -> tuple[str, str]:
        kind, body = parse_target(self.target)
        if kind != "edge" or "->" not in body:
            raise ValidationError(f"not an edge target: {self.target}")
        src, dst = body.split("->", 1)
        return src, dst

    def node_pair(self) -> frozenset[str]:
        kind, body = parse_target(self.target)
        if kind != "nodes" or "<->" not in body:
            raise ValidationError(f"not a node-pair target: {self.target}")
        a, b = body.split("<->", 1)
        return frozenset((a, b))

    def validate(self, topology: Topology) -> None:
        if self.duration_s <= 0:
            raise ValidationError("fault duration must be positive")
        lo, hi = MAGNITUDE_RANGES[self.fault_type]
        if not (lo < self.magnitude <= hi):
            raise ValidationError(
                f"{self.fault_type.value} magnitude {self.magnitude} outside ({lo}, {hi}]"
            )
        if not math.isfinite(1.0 / self.magnitude):
            # a bandwidth fraction divides span and service latency
            raise ValidationError(
                f"{self.fault_type.value} magnitude {self.magnitude} has no finite reciprocal"
            )
        kind, body = parse_target(self.target)
        if kind not in _TARGET_KINDS[self.fault_type]:
            raise ValidationError(
                f"{self.fault_type.value} cannot target a {kind} "
                f"(allowed: {_TARGET_KINDS[self.fault_type]})"
            )
        if kind == "pod" and not topology.has_pod(body):
            raise ValidationError(f"unknown pod target {body!r}")
        if kind == "edge":
            src, dst = self.edge_pair()
            if not topology.has_edge(src, dst):
                raise ValidationError(f"unknown edge target {src}->{dst}")
        if kind == "nodes":
            pair = self.node_pair()
            for node_id in pair:
                if not topology.has_node(node_id):
                    raise ValidationError(f"unknown node {node_id!r} in target")
            if len(pair) != 2:
                raise ValidationError("node-pair target must name two distinct nodes")

    def affected_edges(self, topology: Topology) -> list:
        """Call edges perturbed by this fault (empty for resource-only faults)."""
        kind, body = parse_target(self.target)
        if self.fault_type in (FaultType.CpuStress, FaultType.MemoryStress):
            return []
        if kind == "pod":
            service = topology.pod(body).service
            return topology.edges_touching(service)
        if kind == "edge":
            src, dst = self.edge_pair()
            return [topology.edge(src, dst)]
        pair = self.node_pair()
        return [e for e in topology.call_edges if topology.node_pair_of_edge(e) == pair]
