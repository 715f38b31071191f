"""Service/pod/node topology and the default e-commerce fixture."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..errors import ConfigError, ValidationError


@dataclass(frozen=True)
class Pod:
    id: str
    service: str
    node: str
    phase: str = "running"  # "running" | "failed" | "pending"


@dataclass(frozen=True)
class Node:
    id: str
    cpu_cores: int
    memory_gb: int


@dataclass(frozen=True)
class CallEdge:
    src: str
    dst: str
    base_latency_ms: float


@dataclass(frozen=True)
class Topology:
    """A deployment's services, pods, nodes and call edges. Immutable, so one
    instance per fixture is shared by every scenario (``load_fixture``)."""

    services: tuple[str, ...]
    pods: tuple[Pod, ...]
    nodes: tuple[Node, ...]
    call_edges: tuple[CallEdge, ...]
    frontend: str
    namespaces: tuple[str, ...] = ("default",)
    # workload kind per service, for the deployment/statefulset views
    statefulset_services: tuple[str, ...] = ()

    def validate(self) -> None:
        services = set(self.services)
        nodes = {n.id for n in self.nodes}
        if self.frontend not in services:
            raise ValidationError(f"frontend service {self.frontend!r} not in topology")
        for pod in self.pods:
            if pod.service not in services:
                raise ValidationError(f"pod {pod.id} references unknown service {pod.service}")
            if pod.node not in nodes:
                raise ValidationError(f"pod {pod.id} references unknown node {pod.node}")
        for edge in self.call_edges:
            if edge.src not in services or edge.dst not in services:
                raise ValidationError(f"edge {edge.src}->{edge.dst} references unknown service")
            if edge.base_latency_ms <= 0:
                raise ValidationError(f"edge {edge.src}->{edge.dst} must have positive latency")
        # every service must be reachable from the frontend
        reachable = {self.frontend}
        frontier = [self.frontend]
        while frontier:
            current = frontier.pop()
            for edge in self.call_edges:
                if edge.src == current and edge.dst not in reachable:
                    reachable.add(edge.dst)
                    frontier.append(edge.dst)
        unreachable = services - reachable
        if unreachable:
            raise ValidationError(f"services unreachable from frontend: {sorted(unreachable)}")

    # -- lookups -------------------------------------------------------------

    def pod(self, pod_id: str) -> Pod:
        for pod in self.pods:
            if pod.id == pod_id:
                return pod
        raise KeyError(pod_id)

    def has_pod(self, pod_id: str) -> bool:
        return any(p.id == pod_id for p in self.pods)

    def pods_of(self, service: str) -> list[Pod]:
        return [p for p in self.pods if p.service == service]

    def has_node(self, node_id: str) -> bool:
        return any(n.id == node_id for n in self.nodes)

    def edge(self, src: str, dst: str) -> CallEdge:
        for edge in self.call_edges:
            if edge.src == src and edge.dst == dst:
                return edge
        raise KeyError(f"{src}->{dst}")

    def has_edge(self, src: str, dst: str) -> bool:
        return any(e.src == src and e.dst == dst for e in self.call_edges)

    def children(self, service: str) -> list[CallEdge]:
        return sorted((e for e in self.call_edges if e.src == service), key=lambda e: e.dst)

    def edges_touching(self, service: str) -> list[CallEdge]:
        return [e for e in self.call_edges if e.src == service or e.dst == service]

    def node_pair_of_edge(self, edge: CallEdge) -> frozenset[str]:
        src_node = self.pods_of(edge.src)[0].node
        dst_node = self.pods_of(edge.dst)[0].node
        return frozenset((src_node, dst_node))


_BOUTIQUE_EDGES = [
    ("frontend", "adservice", 20.0),
    ("frontend", "cartservice", 25.0),
    ("frontend", "checkoutservice", 40.0),
    ("frontend", "currencyservice", 15.0),
    ("frontend", "productcatalogservice", 20.0),
    ("frontend", "recommendationservice", 30.0),
    ("frontend", "shippingservice", 25.0),
    ("checkoutservice", "cartservice", 25.0),
    ("checkoutservice", "currencyservice", 15.0),
    ("checkoutservice", "emailservice", 20.0),
    ("checkoutservice", "paymentservice", 30.0),
    ("checkoutservice", "productcatalogservice", 20.0),
    ("checkoutservice", "shippingservice", 25.0),
    ("recommendationservice", "productcatalogservice", 20.0),
    ("cartservice", "redis-cart", 10.0),
]


def online_boutique() -> Topology:
    """Default fixture: an e-commerce deployment of 11 services on 3 nodes.

    One pod per service, assigned round-robin over the nodes in sorted service
    order. A call's span errors only under a fault, so a fault-free scenario
    renders zero error spans.
    """
    services = tuple(sorted({src for src, _, _ in _BOUTIQUE_EDGES}
                            | {dst for _, dst, _ in _BOUTIQUE_EDGES}))
    nodes = tuple(Node(f"node-{i}", cpu_cores=8, memory_gb=32) for i in (1, 2, 3))
    pods = tuple(
        Pod(id=f"{service}-0", service=service, node=nodes[i % len(nodes)].id)
        for i, service in enumerate(services)
    )
    edges = tuple(CallEdge(src, dst, latency) for src, dst, latency in _BOUTIQUE_EDGES)
    topo = Topology(
        services=services,
        pods=pods,
        nodes=nodes,
        call_edges=edges,
        frontend="frontend",
        namespaces=("default", "kube-system", "monitoring"),
        statefulset_services=("redis-cart",),
    )
    topo.validate()
    return topo


FIXTURES = {"online-boutique": online_boutique}


@functools.cache
def load_fixture(name: str) -> Topology:
    """The topology fixture ``name``, built and validated once per process;
    every caller shares the one immutable instance."""
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise ConfigError(
            f"unknown topology fixture {name!r}; available: {sorted(FIXTURES)}"
        ) from None
    return builder()
