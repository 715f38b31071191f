"""Telemetry rendering: metrics, logs, and traces for a scenario.

Fault signature table (what each injected fault does to the telemetry):

=================  ==========================================================
CpuStress          target pod ``cpu_usage`` jumps to the fault magnitude;
                   "cpu throttling" log lines on the pod.
MemoryStress       target pod ``memory_usage`` jumps to the magnitude; "OOM"
                   log lines when magnitude >= 0.95, otherwise a plain
                   memory-pressure warning.
PodFailure         pod phase becomes ``failed`` and its metrics drop to zero;
                   spans calling its service error "Service unavailable" and
                   the subtree below is never called; "connection refused"
                   log lines on the pod; its service error_rate pegs at 1.0.
NetworkDelay       affected edges gain ``magnitude`` ms of span duration and
                   the callee service ``request_latency_ms`` rises by the
                   same amount; "request timeout" log lines on the pod.
NetworkLoss        a ``magnitude`` fraction of calls on affected edges error
                   with "timeout"; callee error_rate = magnitude; packet-loss
                   log lines on the pod.
NetworkPartition   every call on affected edges errors "connection refused"
                   and the subtree below is pruned; callee error_rate = 1.0;
                   "network unreachable" log lines.
NetworkDuplicate   like loss but the error message is "duplicate ack".
NetworkCorrupt     like loss but the error message is "checksum mismatch".
NetworkBandwidth   both endpoint nodes' ``node_network_throughput_bytes``
                   scale by the magnitude; edges crossing the node pair slow
                   their spans and callee latency by 1/magnitude and callee
                   ``throughput_rps`` scales by the magnitude. No log lines.
=================  ==========================================================

Nominal samples are clamped Gaussians around the per-metric baselines below,
so at the default detector thresholds a fault-free scenario never flags.
Rendering is a pure function of the scenario (seed included).

Telemetry is rendered on demand: ``render_telemetry`` renders only the
fault log lines, and each metric sample, trace, tick's error spans and
heartbeat line is computed the first time a query reaches it, then kept.
Every draw is keyed by its series, span or pod and its tick, so what a query
returns, and ``export_lines``, are byte-identical to a full render whatever
was queried before.

The table above has one implementation, ``_Effects``; apart from the fault
log lines, nothing else reads a fault's type. A ``Telemetry`` builds one
``_Effects`` per distinct set of active faults. It resolves once which
components the faults can change (``Telemetry.touched``), which pods are
down, what each affected call edge and service gets, each stressed pod's
magnitude and each node's bandwidth magnitudes; every sample tick with that
set, and ``pod_phase`` at the incident time, looks them up. A sample of an
untouched component is a nominal draw from the series' (baseline, sigma), so
it lies in its ``Telemetry.nominal_ranges`` entry. The alert sweep uses both
to skip samples it can prove cannot flag.

What depends on the topology alone (each series' nominal draw and range, the
component kinds, the pods in id order, the call tree) is built once per
topology (``_tables``) and shared by every scenario on it.

A heartbeat line's only variable fields, the tick and the request count, are
written with digits and "-". So a keyword with neither occurs in a pod's
heartbeats iff it occurs in one of the line's fixed pieces, and
``anomalous_logs`` (read by the alert's log sweep and ``kubectl_logs``)
renders a pod's heartbeats only when some keyword has a digit or "-" or
occurs in a fixed piece. No default keyword does either.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import statistics
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress, product
from types import MappingProxyType

from ..detector import DetectorConfig, matches_keyword
from ..errors import NotFoundError
from . import noise
from .faults import FaultSpec, FaultType
from .scenario import EpisodeScenario
from .topology import CallEdge, Pod, Topology, load_fixture

SAMPLE_PERIOD_S = 15
LOG_PERIOD_S = 30
PROC_MS = 5.0          # per-hop processing time added to every span
ROOT_BASE_MS = 10.0    # ingress latency of the entry span
SPAN_JITTER_FRAC = 0.1

# metric name -> (baseline, sigma) for pod- and node-level series
POD_METRIC_BASELINES = {
    "cpu_usage": (0.25, 0.02),
    "memory_usage": (0.40, 0.02),
    "network_receive_bytes": (120_000.0, 4_000.0),
    "network_transmit_bytes": (80_000.0, 3_000.0),
}
NODE_METRIC_BASELINES = {
    "node_cpu_usage": (0.30, 0.015),
    "node_network_throughput_bytes": (240_000.0, 8_000.0),
}
SERVICE_METRICS = ("error_rate", "request_latency_ms", "throughput_rps")

ERROR_RATE_BASELINE = (0.002, 0.0005)
LATENCY_SIGMA_FRAC = 0.03
THROUGHPUT_SIGMA_FRAC = 0.03

METRIC_CATALOG = tuple(sorted(
    list(POD_METRIC_BASELINES) + list(NODE_METRIC_BASELINES) + list(SERVICE_METRICS)
))

_EDGE_ERROR_MESSAGES = {
    FaultType.NetworkLoss: "timeout",
    FaultType.NetworkDuplicate: "duplicate ack",
    FaultType.NetworkCorrupt: "checksum mismatch",
}
_STRESS_METRICS = {FaultType.CpuStress: "cpu_usage", FaultType.MemoryStress: "memory_usage"}

# A heartbeat line is these fixed pieces around its two variable fields, the
# tick and the request count, which are written with digits and "-" only.
_HEARTBEAT_PIECES = ("INFO t=", " pod={pod} handled ", " requests status=200")
_VARIABLE_CHARS = frozenset("0123456789-")

_FAULT_LOG_LINES = {
    FaultType.CpuStress: "WARN cpu throttling detected: usage {mag:.2f}",
    FaultType.PodFailure: "ERROR connection refused: container not listening",
    FaultType.NetworkDelay: "ERROR upstream request timeout: round-trip latency elevated",
    FaultType.NetworkLoss: "ERROR request timeout: packet loss suspected on retries",
    FaultType.NetworkPartition: "ERROR connection refused: network unreachable",
    FaultType.NetworkDuplicate: "ERROR duplicate ack storm detected on socket",
    FaultType.NetworkCorrupt: "ERROR checksum mismatch on inbound segment",
}


@dataclass(frozen=True)
class MetricSeries:
    component: str
    metric: str
    samples: tuple[tuple[int, float], ...]

    def values(self) -> list[float]:
        return [v for _, v in self.samples]


@dataclass(frozen=True)
class LogLine:
    pod: str
    t_s: int
    text: str


@dataclass(frozen=True)
class Span:
    trace_id: str
    span_id: str
    parent_span_id: str | None
    service: str
    duration_ms: float
    status: str  # "ok" | "error"
    error_message: str = ""


@dataclass(frozen=True)
class Trace:
    trace_id: str
    t_s: int
    spans: tuple[Span, ...]


@dataclass
class _EdgeEffect:
    """What the active faults do to every call on one edge."""
    extra_ms: float = 0.0
    slow_factor: float = 1.0
    error_modes: list[tuple[str, float]] = field(default_factory=list)
    unreachable_msg: str | None = None


@dataclass
class _ServiceEffect:
    """What the active faults do to one service's metrics."""
    latency_extra: float = 0.0
    latency_factor: float = 1.0
    throughput_factor: float = 1.0
    error_rate: float | None = None
    failed_pod: bool = False  # a pod of the service has failed


_NO_EDGE_EFFECT = _EdgeEffect()
_NO_SERVICE_EFFECT = _ServiceEffect()


class Telemetry:
    """Telemetry for one scenario, rendered on demand, with the query surface
    the observability tools are built on.

    Each metric sample, trace, tick's error spans and (pod, tick) heartbeat
    line is rendered the first time a query reaches it and then kept
    (memoised), so it is computed at most once, and one no query reaches is
    never computed. Every draw is keyed by (series, span or pod, tick), so
    the order of queries never changes a byte. Queries write to the memo, so
    a Telemetry is used from one episode's thread.
    """

    def __init__(self, scenario: EpisodeScenario):
        self.scenario = scenario
        self.topology = topo = scenario.topology()
        self._tables = _tables(scenario.topology_name)
        self._seed = scenario.seed
        self._times = list(range(*scenario.window, SAMPLE_PERIOD_S))
        # resolve each fault's affected edges once, then one effect table per
        # distinct set of active faults
        edges_by_fault = [(fault, {(e.src, e.dst) for e in fault.affected_edges(topo)})
                          for fault in scenario.faults]
        by_set: dict[tuple[bool, ...], _Effects] = {}

        def effects_at(t: int) -> _Effects:
            on = tuple(fault.active_at(t) for fault in scenario.faults)
            if on not in by_set:
                by_set[on] = _Effects(topo, list(compress(edges_by_fault, on)))
            return by_set[on]

        self._effects = {t: effects_at(t) for t in self._times}  # sample tick -> its table
        # the pods down at the incident time; a scenario with no fault has no
        # incident time and no pod down
        self._down = effects_at(scenario.incident_time_s).down if scenario.faults else set()
        # (component, metric) -> the series' samples by tick number, None
        # until rendered; a row is made when the series is first queried
        self._series: dict[tuple[str, str], list[float | None]] = {}
        self._traces: list[Trace | None] = [None] * len(self._times)
        self._errors: list[list[Span] | None] = [None] * len(self._times)
        self._heartbeats: dict[tuple[str, int], LogLine] = {}
        self._fault_logs = self._render_fault_logs()

    def _values(self, key: tuple[str, str], lo: int, hi: int) -> list[float]:
        """Series ``key``'s samples at tick numbers ``lo`` to ``hi`` - 1,
        rendering those not rendered yet."""
        row = self._series.get(key)
        if row is None:
            row = self._series[key] = [None] * len(self._times)
        for i in range(lo, hi):
            if row[i] is None:
                row[i] = self._sample(key, self._times[i])
        return row[lo:hi]

    def _ticks(self, window: tuple[int, int] | None) -> tuple[int, int]:
        """The tick numbers in ``window`` (every tick for None), as a range."""
        if window is None:
            return 0, len(self._times)
        return (bisect.bisect_left(self._times, window[0]),
                bisect.bisect_left(self._times, window[1]))

    def _logs(self, pods, window: tuple[int, int] | None,
              heartbeat_pods=None) -> list[LogLine]:
        """The log lines of ``pods`` in ``window`` (every line for None), in
        (t_s, pod, text) order, rendering the heartbeats not rendered yet. Of
        the heartbeats, only those of ``heartbeat_pods`` (default: ``pods``)
        are included."""
        lo, hi = window or self.scenario.window  # every line lies in the scenario window
        lines = [line for line in self._fault_logs if line.pod in pods and lo <= line.t_s < hi]
        ticks = [t for t in range(*self.scenario.window, LOG_PERIOD_S) if lo <= t < hi]
        for t, pod in product(ticks, pods if heartbeat_pods is None else heartbeat_pods):
            line = self._heartbeats.get((pod, t))
            if line is None:
                line = self._heartbeats[(pod, t)] = self._heartbeat(pod, t)
            lines.append(line)
        lines.sort(key=lambda line: (line.t_s, line.pod, line.text))
        return lines

    # -- queries -------------------------------------------------------------

    def sample_times(self) -> list[int]:
        """Every metric sample tick (and trace tick) of the window, in order."""
        return list(self._times)

    def series_keys(self) -> list[tuple[str, str]]:
        """Every (component, metric) series, in sorted order."""
        return list(self._tables.nominal)

    def touched(self, t: int) -> frozenset[str]:
        """The components a fault can change at sample tick ``t``; a sample of
        any other component at ``t`` is nominal."""
        return self._effects[t].touched

    def nominal_ranges(self) -> Mapping[tuple[str, str], tuple[float, float]]:
        """Each series named by ``series_keys`` -> the least and the greatest
        value a nominal sample of it can take, read-only and shared by every
        scenario on the topology. Exact: every step from the clamped draw to
        the stored value is monotone."""
        return MappingProxyType(self._tables.nominal_range)

    def metric_value(self, component: str, metric: str, t: int) -> float:
        """The sample at tick ``t`` of a series named by ``series_keys``."""
        return self._values((component, metric), *self._ticks((t, t + 1)))[0]

    def query_metrics(self, component: str, metric: str,
                      window: tuple[int, int] | None = None) -> MetricSeries:
        kinds = self._tables.kinds
        if component not in kinds:
            raise NotFoundError(f"unknown component {component!r}")
        if metric not in METRIC_CATALOG:
            raise NotFoundError(f"unknown metric {metric!r}")
        key = (component, metric)
        if key not in self._tables.nominal:
            raise NotFoundError(
                f"unknown metric {metric!r} for {kinds[component]} {component!r}"
            )
        lo, hi = self._ticks(window)
        return MetricSeries(component, metric,
                            tuple(zip(self._times[lo:hi], self._values(key, lo, hi))))

    def metric_series(self) -> list[MetricSeries]:
        """Every metric series, in (component, metric) order."""
        return [self.query_metrics(component, metric)
                for component, metric in self._tables.nominal]

    def baseline_values(self, component: str, metric: str, before_s: int,
                        max_samples: int) -> list[float]:
        series = self.query_metrics(component, metric, (self.scenario.window[0], before_s))
        return series.values()[-max_samples:]

    def _pod(self, pod: str) -> Pod:
        try:
            return self._tables.pods[pod]
        except KeyError:
            raise NotFoundError(f"unknown pod {pod!r}") from None

    def all_logs(self, window: tuple[int, int] | None = None) -> list[LogLine]:
        """Every pod's log lines in ``window`` (every line for None)."""
        return self._logs(self._tables.pods, window)

    def anomalous_logs(self, cfg: DetectorConfig, pod: str | None = None,
                       window: tuple[int, int] | None = None) -> list[LogLine]:
        """The lines of pod ``pod`` in ``all_logs(window)`` (every pod's for
        None) that ``matches_keyword`` keeps under ``cfg``, in the same order.
        The heartbeats of a pod are rendered only when a keyword may occur in
        them (``_heartbeats_may_match``)."""
        pods = self._tables.pods if pod is None else (self._pod(pod).id,)
        keywords = tuple(keyword.lower() for keyword in cfg.anomaly_keywords)
        drawn = [p for p in pods if _heartbeats_may_match(p, keywords)]
        return [line for line in self._logs(pods, window, drawn)
                if matches_keyword(line.text, cfg)]

    def query_traces(self, window: tuple[int, int] | None = None) -> list[Trace]:
        lo, hi = self._ticks(window)
        for i in range(lo, hi):
            if self._traces[i] is None:
                self._traces[i] = self._trace(i, self._times[i])
        return self._traces[lo:hi]

    def error_spans(self, window: tuple[int, int] | None = None) -> list[Span]:
        """The error spans of ``query_traces(window)``, in the same order,
        found without rendering the traces."""
        lo, hi = self._ticks(window)
        spans = []
        for i in range(lo, hi):
            if self._errors[i] is None:
                self._errors[i] = self._error_spans(i, self._times[i])
            spans.extend(self._errors[i])
        return spans

    def pod_phase(self, pod_id: str) -> str:
        """Pod ``pod_id``'s phase at ``scenario.incident_time_s``: ``failed``
        while a PodFailure on it is active, else the topology's."""
        pod = self._pod(pod_id)
        return "failed" if pod_id in self._down else pod.phase

    def pod_phases(self) -> list[tuple[str, str]]:
        """Every pod's ``pod_phase``, in pod id order."""
        return [(pod_id, self.pod_phase(pod_id)) for pod_id in self._tables.pods]

    # -- serialization ---------------------------------------------------------

    def export_lines(self) -> dict[str, list[str]]:
        """Line-delimited records per modality; byte-stable across runs."""
        metric_lines = [
            json.dumps({"component": s.component, "metric": s.metric,
                        "samples": [[t, v] for t, v in s.samples]}, sort_keys=True)
            for s in self.metric_series()
        ]
        log_lines = [
            json.dumps({"t_s": line.t_s, "pod": line.pod, "text": line.text}, sort_keys=True)
            for line in self.all_logs()
        ]
        trace_lines = [
            json.dumps({
                "trace_id": tr.trace_id, "t_s": tr.t_s,
                "spans": [{
                    "span_id": sp.span_id, "parent_span_id": sp.parent_span_id,
                    "service": sp.service, "duration_ms": sp.duration_ms,
                    "status": sp.status, "error_message": sp.error_message,
                } for sp in tr.spans],
            }, sort_keys=True)
            for tr in self.query_traces()
        ]
        return {"metrics": metric_lines, "logs": log_lines, "traces": trace_lines}

    def content_hash(self) -> str:
        digest = hashlib.sha256()
        lines = self.export_lines()
        for modality in ("metrics", "logs", "traces"):
            for line in lines[modality]:
                digest.update(line.encode("utf-8"))
                digest.update(b"\n")
        return digest.hexdigest()

    # -- rendering: metrics ----------------------------------------------------

    def _sample(self, key: tuple[str, str], t: int) -> float:
        """The sample of series ``key`` = (component, metric) at tick ``t``.

        Every draw is keyed by (component, metric, t), so samples can be
        rendered in any order and each comes out the same. A component no
        fault touches at ``t`` gets the nominal draw alone.
        """
        component, metric = key
        effects = self._effects[t]
        if component not in effects.touched:
            value = self._nominal(key, t)
        elif metric in POD_METRIC_BASELINES:
            if component in effects.down:
                value = 0.0
            else:
                value = self._nominal(key, t)
                stress = effects.stress.get(key)
                if stress is not None:
                    value = min(1.0, noise.gauss(stress, 0.01,
                                                 self._seed, "stress", component, metric, t))
        elif metric in NODE_METRIC_BASELINES:
            value = self._nominal(key, t)
            for magnitude in effects.bandwidth.get(key, ()):
                value *= magnitude
        else:
            value = self._service_sample(component, metric, t)
        return round(max(value, 0.0), 6)

    def _nominal(self, key: tuple[str, str], t: int) -> float:
        return noise.gauss(*self._tables.nominal[key], self._seed, "metric", *key, t)

    def _service_sample(self, service: str, metric: str, t: int) -> float:
        effect = self._effects[t].services.get(service, _NO_SERVICE_EFFECT)
        key = (service, metric)
        if metric == "request_latency_ms":
            return self._nominal(key, t) * effect.latency_factor + effect.latency_extra
        if metric == "throughput_rps":
            value = self._nominal(key, t) * effect.throughput_factor
            return 0.0 if effect.failed_pod else value
        if effect.error_rate is not None:
            return effect.error_rate
        return self._nominal(key, t)

    # -- rendering: logs -------------------------------------------------------

    def _heartbeat(self, pod_id: str, t: int) -> LogLine:
        """Pod ``pod_id``'s heartbeat line at log tick ``t``."""
        handled = 40 + int(noise.unit(self._seed, "log", pod_id, t) * 20)
        before, between, after = _HEARTBEAT_PIECES
        return LogLine(pod=pod_id, t_s=t,
                       text=f"{before}{t}{between.format(pod=pod_id)}{handled}{after}")

    def _render_fault_logs(self) -> list[LogLine]:
        """Every fault's log lines, on the pod a pod fault targets or an edge
        fault's callee pod (a node-pair fault has no template); they draw no
        noise."""
        lines: list[LogLine] = []
        end = self.scenario.window[1]
        for fault in self.scenario.faults:
            template = _FAULT_LOG_LINES.get(fault.fault_type)
            if fault.fault_type == FaultType.MemoryStress:
                template = ("ERROR OOM killer invoked for worker process"
                            if fault.magnitude >= 0.95
                            else "WARN memory pressure high, reclaiming caches")
            if template is None:
                continue
            pod_id = (fault.location_id if fault.target_kind == "pod"
                      else self.topology.pods_of(fault.edge_pair()[1])[0].id)
            body = template.format(mag=fault.magnitude)
            for t in range(fault.start_s, min(fault.end_s, end), SAMPLE_PERIOD_S):
                lines.append(LogLine(pod=pod_id, t_s=t, text=f"{body} (t={t})"))
        return lines

    # -- rendering: traces -----------------------------------------------------

    def _trace(self, tick: int, t: int) -> Trace:
        """The trace sampled at tick number ``tick``, time ``t``."""
        trace_id = f"t{tick:04d}"
        spans: list[Span] = []
        self._build_root(trace_id, self._effects[t], spans)
        return Trace(trace_id=trace_id, t_s=t, spans=tuple(spans))

    def _error_spans(self, tick: int, t: int) -> list[Span]:
        """The error spans of ``_trace(tick, t)``, in its order. An error span
        has no children and its draws are keyed by its own span id, so only
        the calls on a path to an edge a fault affects at ``t`` are walked."""
        trace_id = f"t{tick:04d}"
        effects = self._effects[t]
        if self._tables.root_pod in effects.down:
            return [self._root_down(trace_id)]
        spans: list[Span] = []
        self._walk_errors(trace_id, effects, self.topology.frontend, self.topology.frontend, spans)
        return spans

    def _walk_errors(self, trace_id: str, effects: _Effects, service: str, span_id: str,
                     spans: list[Span]) -> None:
        for edge in self._tables.children[service]:
            effect = effects.edges.get((edge.src, edge.dst))
            if effect is None and edge.dst not in effects.above:
                continue  # every call on and below this edge is ok
            call_id = f"{span_id}/{edge.dst}"
            failed = self._failed_call(trace_id, call_id, span_id, edge,
                                       effect or _NO_EDGE_EFFECT)
            if failed is None:
                self._walk_errors(trace_id, effects, edge.dst, call_id, spans)
            else:
                spans.append(failed[0])

    def _root_down(self, trace_id: str) -> Span:
        """The root span of a trace whose frontend pod is down."""
        frontend = self.topology.frontend
        duration = ROOT_BASE_MS + self._jitter(trace_id, frontend, ROOT_BASE_MS)
        return Span(trace_id, frontend, None, frontend, round(duration, 3),
                    "error", "Service unavailable")

    def _failed_call(self, trace_id: str, span_id: str, parent_span_id: str, edge: CallEdge,
                     effect: _EdgeEffect) -> tuple[Span, float] | None:
        """The error span of the call ``span_id`` on ``edge`` and its unrounded
        duration when ``effect`` makes the call error, else None."""
        if effect.unreachable_msg is not None:
            message, extra = effect.unreachable_msg, 0.0
        else:
            message = next((message for message, fraction in effect.error_modes
                            if noise.unit(self._seed, "edgedraw", trace_id, span_id,
                                          message) < fraction), None)
            if message is None:
                return None
            extra = effect.extra_ms
        base = edge.base_latency_ms
        duration = base + extra + self._jitter(trace_id, span_id, base)
        return Span(trace_id, span_id, parent_span_id, edge.dst, round(duration, 3),
                    "error", message), duration

    def _jitter(self, trace_id: str, span_id: str, base: float) -> float:
        return noise.jitter(SPAN_JITTER_FRAC * base, self._seed, "span", trace_id, span_id)

    def _build_root(self, trace_id: str, effects: _Effects, spans: list[Span]) -> None:
        if self._tables.root_pod in effects.down:
            spans.append(self._root_down(trace_id))
            return
        frontend = self.topology.frontend
        child_total = 0.0
        for edge in self._tables.children[frontend]:
            child_total += self._build_call(trace_id, effects, edge, frontend, spans)
        duration = (ROOT_BASE_MS + PROC_MS + child_total
                    + self._jitter(trace_id, frontend, ROOT_BASE_MS))
        spans.insert(0, Span(trace_id, frontend, None, frontend, round(duration, 3), "ok"))

    def _build_call(self, trace_id: str, effects: _Effects, edge: CallEdge,
                    parent_span_id: str, spans: list[Span]) -> float:
        # span ids are call paths, so pruning one branch never renames another
        span_id = f"{parent_span_id}/{edge.dst}"
        effect = effects.edges.get((edge.src, edge.dst), _NO_EDGE_EFFECT)
        failed = self._failed_call(trace_id, span_id, parent_span_id, edge, effect)
        if failed is not None:
            spans.append(failed[0])
            return failed[1]
        child_total = 0.0
        for child_edge in self._tables.children[edge.dst]:
            child_total += self._build_call(trace_id, effects, child_edge, span_id, spans)
        duration = (edge.base_latency_ms * effect.slow_factor + effect.extra_ms + PROC_MS
                    + child_total + self._jitter(trace_id, span_id, edge.base_latency_ms))
        spans.append(Span(trace_id, span_id, parent_span_id, edge.dst,
                          round(duration, 3), "ok"))
        return duration


def _service_latency_baseline(topo: Topology, service: str) -> float:
    if service == topo.frontend:
        return 120.0
    inbound = [e.base_latency_ms for e in topo.call_edges if e.dst == service]
    return statistics.fmean(inbound) if inbound else 50.0


def _service_throughput_baseline(topo: Topology, service: str) -> float:
    if service == topo.frontend:
        return 100.0
    if service in topo.statefulset_services:
        return 80.0
    return 40.0


@dataclass(frozen=True)
class _Tables:
    """What rendering and the queries derive from the topology alone. Built
    once per topology (``_tables``) and shared by every scenario on it, so
    nothing may write to it."""

    # (component, metric) -> (baseline, sigma) of the series' nominal draws,
    # in sorted key order
    nominal: dict[tuple[str, str], tuple[float, float]]
    # (component, metric) -> the least and greatest nominal sample
    nominal_range: dict[tuple[str, str], tuple[float, float]]
    kinds: dict[str, str]                     # component -> "pod" | "service" | "node"
    pods: dict[str, Pod]                      # pod id -> pod, in pod id order
    children: dict[str, tuple[CallEdge, ...]]  # service -> ``topo.children(service)``
    root_pod: str                             # the frontend's pod


@functools.cache
def _tables(topology_name: str) -> _Tables:
    topo = load_fixture(topology_name)
    nominal: dict[tuple[str, str], tuple[float, float]] = {}
    for pod in topo.pods:
        for metric, baseline in POD_METRIC_BASELINES.items():
            nominal[(pod.id, metric)] = baseline
    for service in topo.services:
        latency = _service_latency_baseline(topo, service)
        throughput = _service_throughput_baseline(topo, service)
        nominal[(service, "error_rate")] = ERROR_RATE_BASELINE
        nominal[(service, "request_latency_ms")] = (latency, LATENCY_SIGMA_FRAC * latency)
        nominal[(service, "throughput_rps")] = (throughput, THROUGHPUT_SIGMA_FRAC * throughput)
    for node in topo.nodes:
        for metric, baseline in NODE_METRIC_BASELINES.items():
            nominal[(node.id, metric)] = baseline
    nominal = dict(sorted(nominal.items()))
    nominal_range = {}
    for key, baseline in nominal.items():
        lo, hi = noise.gauss_range(*baseline)
        nominal_range[key] = round(max(lo, 0.0), 6), round(max(hi, 0.0), 6)
    kinds = {pod.id: "pod" for pod in topo.pods}
    kinds.update((service, "service") for service in topo.services)
    kinds.update((node.id, "node") for node in topo.nodes)
    return _Tables(
        nominal=nominal,
        nominal_range=nominal_range,
        kinds=kinds,
        pods={pod.id: pod for pod in sorted(topo.pods, key=lambda p: p.id)},
        children={s: tuple(topo.children(s)) for s in topo.services},
        root_pod=topo.pods_of(topo.frontend)[0].id,
    )


@functools.lru_cache(maxsize=1024)
def _heartbeats_may_match(pod_id: str, keywords: tuple[str, ...]) -> bool:
    """Whether one of the lowercased ``keywords`` may occur in a lowercased
    heartbeat line of ``pod_id``. A keyword with no digit and no "-" cannot
    overlap a variable field, so it occurs in a line iff it occurs in one of
    the fixed pieces; a keyword with either may occur anywhere."""
    pieces = [piece.format(pod=pod_id).lower() for piece in _HEARTBEAT_PIECES]
    return any(not _VARIABLE_CHARS.isdisjoint(keyword)
               or any(keyword in piece for piece in pieces)
               for keyword in keywords)


class _Effects:
    """The fault signature table of the module docstring, resolved for one
    set of active faults: what they do to each component, edge and series.
    Built once per distinct set (``Telemetry.__init__``) and shared by every
    sample tick with that set, so nothing may write to it once built.

    Effects accumulate per fault in scenario order: sums from 0.0, products
    from 1.0 (a node's throughput multiplies by each magnitude in turn), one
    contribution to a service per fault however many of the fault's edges
    enter it; a pod's stress comes from the first fault of the metric's type
    and an edge's ``unreachable_msg`` from the last fault that sets one.
    """

    def __init__(self, topo: Topology, active: list[tuple[FaultSpec, set]]):
        touched: set[str] = set()  # every component a fault can change
        self.down: set[str] = set()  # the pods a PodFailure has taken down
        self.edges: dict[tuple[str, str], _EdgeEffect] = {}  # (src, dst) -> effect
        self.services: dict[str, _ServiceEffect] = {}
        self.stress: dict[tuple[str, str], float] = {}  # (pod, metric) -> magnitude
        # (node, metric) -> the bandwidth magnitudes the metric scales by, in order
        self.bandwidth: dict[tuple[str, str], list[float]] = {}
        for fault, edges in active:
            ft, magnitude = fault.fault_type, fault.magnitude
            kind, target = fault.target_kind, fault.location_id
            callees = {dst for _, dst in edges}
            touched |= callees
            # the service a pod or edge fault targets: the pod's, or the callee
            service = None
            if kind == "pod":
                service = topo.pod(target).service
                touched |= {target, service}
            elif kind == "edge":
                service = fault.edge_pair()[1]
                touched.add(service)
            else:
                for node in fault.node_pair():
                    touched.add(node)
                    self.bandwidth.setdefault(
                        (node, "node_network_throughput_bytes"), []).append(magnitude)
            if ft in _STRESS_METRICS:
                self.stress.setdefault((target, _STRESS_METRICS[ft]), magnitude)
            for src, dst in edges:
                edge = self.edges.setdefault((src, dst), _EdgeEffect())
                if ft == FaultType.NetworkDelay:
                    edge.extra_ms += magnitude
                elif ft == FaultType.NetworkBandwidth:
                    edge.slow_factor *= 1.0 / magnitude
                elif ft in _EDGE_ERROR_MESSAGES:
                    edge.error_modes.append((_EDGE_ERROR_MESSAGES[ft], magnitude))
                elif ft == FaultType.NetworkPartition:
                    edge.unreachable_msg = "connection refused"
                elif ft == FaultType.PodFailure and dst == service:
                    # only calls INTO the dead service fail; its own calls
                    # never happen
                    edge.unreachable_msg = "Service unavailable"
            if ft in (FaultType.PodFailure, FaultType.NetworkPartition):
                # callers into the dead/cut-off service fail; its own callees
                # simply stop receiving traffic, they do not error
                effect = self.services.setdefault(service, _ServiceEffect())
                effect.error_rate = 1.0
                if ft == FaultType.PodFailure:
                    self.down.add(target)
                    effect.failed_pod = True
                continue
            for callee in callees:
                effect = self.services.setdefault(callee, _ServiceEffect())
                if ft == FaultType.NetworkDelay:
                    effect.latency_extra += magnitude
                elif ft == FaultType.NetworkBandwidth:
                    effect.latency_factor *= 1.0 / magnitude
                    effect.throughput_factor *= magnitude
                elif ft in _EDGE_ERROR_MESSAGES:
                    effect.error_rate = max(effect.error_rate or 0.0, magnitude)
        self.touched = frozenset(touched)
        # the services with an affected call below them, which the error-span
        # walk passes through
        self.above = {src for src, _ in self.edges}
        while grown := {e.src for e in topo.call_edges if e.dst in self.above} - self.above:
            self.above |= grown


def render_telemetry(scenario: EpisodeScenario) -> Telemetry:
    """Telemetry for a scenario, rendered on demand. Pure in ``scenario.seed``."""
    scenario.validate()
    return Telemetry(scenario)
