"""Telemetry rendering: metrics, logs, and error spans for a scenario.

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
NetworkDelay       the callee service ``request_latency_ms`` rises by
                   ``magnitude`` ms; an error span on an affected edge (a
                   delay alone fails no call) lasts that much longer;
                   "request timeout" log lines on the pod.
NetworkLoss        a ``magnitude`` fraction of calls on affected edges error
                   with "timeout"; callee error_rate = magnitude; packet-loss
                   log lines on the pod.
NetworkPartition   every call on affected edges errors "connection refused"
                   and the subtree below is pruned; callee error_rate = 1.0;
                   "network unreachable" log lines.
NetworkDuplicate   like loss but the error message is "duplicate ack".
NetworkCorrupt     like loss but the error message is "checksum mismatch".
NetworkBandwidth   both endpoint nodes' ``node_network_throughput_bytes``
                   scale by the magnitude; for edges crossing the node pair,
                   callee latency scales by 1/magnitude and callee
                   ``throughput_rps`` by the magnitude. No span, no log line.
=================  ==========================================================

Nominal samples are clamped Gaussians around the per-metric baselines below,
so at the default detector thresholds a fault-free scenario never flags.
Rendering is a pure function of the scenario (seed included).

Telemetry is rendered on demand: ``render_telemetry`` renders only the
fault log lines, and each metric sample, tick's error spans and heartbeat
line is computed the first time a query reaches it, then kept. Every draw is
keyed by its series, span or pod and its tick, so what a query returns is
byte-identical whatever was queried before.

The table above has one implementation, ``_Effects``; apart from the fault
log lines, nothing else reads a fault's type. A ``Telemetry`` builds one
``_Effects`` per distinct set of active faults. It resolves once which pods
are down, what each affected call edge and service gets, each stressed pod's
magnitude and each node's bandwidth magnitudes; every sample tick with that
set, and ``pod_phase`` at the incident time, looks them up. From those
tables alone it derives the fault footprint (``Telemetry.footprint``): every
metric of a down pod, a stressed pod's stressed metric, a node series a
bandwidth fraction below 1.0 scales, and each service metric its effect
moves. These are exactly the series with a sample that differs from its
nominal draw. A sample of any other series is that draw from the series'
(baseline, sigma), so it lies in its nominal range (``_Tables``); a
stressed pod's sample is its stress draw alone. The alert sweep and a
static-threshold metric check (``query_may_flag``) use both to skip samples
they can prove cannot flag; a baseline renders only the samples it keeps.
Likewise the error-span walk enters only the calls a fault can make fail
(an unreachable callee or an error mode) and the calls above them: a call
that a fault only delays or slows never fails.

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
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, compress, product

from ..detector import METRIC_CATALOG, DetectorConfig, _never_flags, matches_keyword
from ..errors import NotFoundError
from . import noise
from .faults import FaultSpec, FaultType
from .scenario import EpisodeScenario
from .topology import CallEdge, Pod, Topology, load_fixture

SAMPLE_PERIOD_S = 15
LOG_PERIOD_S = 30
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
class LogLine:
    pod: str
    t_s: int
    text: str


@dataclass(frozen=True)
class Span:
    """An error span: a call that failed."""
    trace_id: str
    service: str
    duration_ms: float
    error_message: str


@dataclass
class _EdgeEffect:
    """What the active faults do to every call on one edge."""
    extra_ms: float = 0.0
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

    def moved(self) -> list[str]:
        """The metrics of ``SERVICE_METRICS`` these effects move off their
        nominal draw: a factor of 1.0 and an extra of 0.0 move nothing."""
        return list(compress(SERVICE_METRICS, (
            self.error_rate is not None,
            self.latency_extra != 0.0 or self.latency_factor != 1.0,
            self.failed_pod or self.throughput_factor != 1.0,
        )))


class Telemetry:
    """Telemetry for one scenario, rendered on demand, with the query surface
    the observability tools are built on.

    Each metric sample, tick's error spans and (pod, tick) heartbeat line is
    rendered the first time a query reaches it and then kept
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
        self._errors: list[list[Span] | None] = [None] * len(self._times)
        self._heartbeats: dict[tuple[str, int], LogLine] = {}
        self._fault_logs = self._render_fault_logs()

    def _values(self, key: tuple[str, str], ticks: Sequence[int]) -> list[float]:
        """Series ``key``'s samples at tick numbers ``ticks``, rendering those
        not rendered yet."""
        row = self._series.get(key)
        if row is None:
            row = self._series[key] = [None] * len(self._times)
        for i in ticks:
            if row[i] is None:
                row[i] = self._sample(key, self._times[i])
        return [row[i] for i in ticks]

    def _ticks(self, window: tuple[int, int] | None) -> range:
        """The tick numbers in ``window`` (every tick for None)."""
        if window is None:
            return range(len(self._times))
        return range(bisect.bisect_left(self._times, window[0]),
                     bisect.bisect_left(self._times, window[1]))

    def _key(self, component: str, metric: str) -> tuple[str, str]:
        """(component, metric), which must name a series."""
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
        return key

    def _logs(self, pods, window: tuple[int, int] | None, heartbeat_pods) -> list[LogLine]:
        """The log lines of ``pods`` in ``window`` (every line for None), in
        (t_s, pod, text) order, rendering the heartbeats not rendered yet. Of
        the heartbeats, only those of ``heartbeat_pods`` are included."""
        lo, hi = window or self.scenario.window  # every line lies in the scenario window
        lines = [line for line in self._fault_logs if line.pod in pods and lo <= line.t_s < hi]
        ticks = [t for t in range(*self.scenario.window, LOG_PERIOD_S) if lo <= t < hi]
        for t, pod in product(ticks, heartbeat_pods):
            line = self._heartbeats.get((pod, t))
            if line is None:
                line = self._heartbeats[(pod, t)] = self._heartbeat(pod, t)
            lines.append(line)
        lines.sort(key=lambda line: (line.t_s, line.pod, line.text))
        return lines

    # -- queries -------------------------------------------------------------

    def sample_times(self) -> list[int]:
        """Every metric sample tick (and error-span tick) of the window, in order."""
        return list(self._times)

    def series_keys(self) -> list[tuple[str, str]]:
        """Every (component, metric) series, in sorted order."""
        return list(self._tables.nominal)

    def footprint(self, t: int) -> frozenset[tuple[str, str]]:
        """The (component, metric) series whose sample at tick ``t`` differs
        from its nominal draw (``_Effects.footprint``). A sample of any other
        series at ``t`` is that draw."""
        return self._effects[t].footprint

    def metric_value(self, component: str, metric: str, t: int) -> float:
        """The sample at tick ``t`` of a series named by ``series_keys``."""
        return self._values((component, metric), self._ticks((t, t + 1)))[0]

    def query_metrics(self, component: str, metric: str,
                      window: tuple[int, int] | None = None) -> tuple[tuple[int, float], ...]:
        """The (t, value) samples of the series in ``window`` (every sample
        for None), in tick order."""
        key = self._key(component, metric)
        ticks = self._ticks(window)
        return tuple(zip(self._times[ticks.start:ticks.stop], self._values(key, ticks)))

    def query_may_flag(self, cfg: DetectorConfig, component: str, metric: str,
                       window: tuple[int, int] | None = None) -> tuple[int, list[float]]:
        """How many samples ``query_metrics(component, metric, window)`` returns,
        and, in tick order, those of them that may exceed ``metric``'s static
        threshold in ``cfg`` (it must have one): every sample a fault changes
        (``footprint``) and, unless ``_never_flags`` clears the series'
        nominal range, every nominal one. Only those are rendered."""
        key = self._key(component, metric)
        ticks = self._ticks(window)
        count = len(ticks)
        if _never_flags(*self._tables.nominal_range[key], metric, cfg):
            effects, times = self._effects, self._times
            ticks = [i for i in ticks if key in effects[times[i]].footprint]
        return count, self._values(key, ticks)

    def baseline_values(self, component: str, metric: str, before_s: int,
                        max_samples: int) -> list[float]:
        """The last ``max_samples`` samples of the series before ``before_s``;
        only those are rendered."""
        key = self._key(component, metric)
        ticks = self._ticks((self.scenario.window[0], before_s))
        return self._values(key, ticks[-max_samples:])

    def _pod(self, pod: str) -> Pod:
        try:
            return self._tables.pods[pod]
        except KeyError:
            raise NotFoundError(f"unknown pod {pod!r}") from None

    def anomalous_logs(self, cfg: DetectorConfig, pod: str | None = None,
                       window: tuple[int, int] | None = None) -> list[LogLine]:
        """The log lines of pod ``pod`` (every pod's for None) in ``window``
        (every line for None) that ``matches_keyword`` keeps under ``cfg``, in
        (t_s, pod, text) order. The heartbeats of a pod are rendered only
        when a keyword may occur in them (``_heartbeats_may_match``)."""
        pods = self._tables.pods if pod is None else (self._pod(pod).id,)
        keywords = tuple(keyword.lower() for keyword in cfg.anomaly_keywords)
        drawn = [p for p in pods if _heartbeats_may_match(p, keywords)]
        return [line for line in self._logs(pods, window, drawn)
                if matches_keyword(line.text, cfg)]

    def error_spans(self, window: tuple[int, int] | None = None) -> list[Span]:
        """The error spans of the call tree at each sample tick in ``window``
        (every tick for None), in tick order (``_error_spans``)."""
        spans = []
        for i in self._ticks(window):
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

    # -- rendering: metrics ----------------------------------------------------

    def _sample(self, key: tuple[str, str], t: int) -> float:
        """The sample of series ``key`` = (component, metric) at tick ``t``.

        Every draw is keyed by (component, metric, t), so samples can be
        rendered in any order and each comes out the same. A series outside
        the footprint at ``t`` gets its nominal draw alone; a stressed pod's
        sample is its stress draw alone, and a down pod's draws nothing.
        """
        component, metric = key
        effects = self._effects[t]
        if key not in effects.footprint:
            value = self._nominal(key, t)
        elif metric in POD_METRIC_BASELINES:
            # a pod in the footprint is down, or stressed on this metric
            value = (0.0 if component in effects.down
                     else min(1.0, noise.gauss(effects.stress[key], 0.01,
                                               self._seed, "stress", component, metric, t)))
        elif metric in NODE_METRIC_BASELINES:
            value = self._nominal(key, t)
            for magnitude in effects.bandwidth[key]:
                value *= magnitude
        else:
            value = self._service_sample(effects.services[component], key, t)
        return round(max(value, 0.0), 6)

    def _nominal(self, key: tuple[str, str], t: int) -> float:
        return noise.gauss(*self._tables.nominal[key], self._seed, "metric", *key, t)

    def _service_sample(self, effect: _ServiceEffect, key: tuple[str, str], t: int) -> float:
        """The sample at tick ``t`` of service series ``key``, which ``effect``
        moves (``_ServiceEffect.moved``)."""
        metric = key[1]
        if metric == "request_latency_ms":
            return self._nominal(key, t) * effect.latency_factor + effect.latency_extra
        if metric == "throughput_rps":
            value = self._nominal(key, t) * effect.throughput_factor
            return 0.0 if effect.failed_pod else value
        return effect.error_rate

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

    # -- rendering: error spans ------------------------------------------------

    def _error_spans(self, tick: int, t: int) -> list[Span]:
        """The error spans of the call tree at tick number ``tick``, time
        ``t``, in depth-first ``topology.children`` order. A failed call has
        no calls below it, and its draws are keyed by its own call path, so
        only the calls on a path to a call a fault can make fail at ``t`` are
        walked, and only those calls are tested."""
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
            effect = effects.failing.get((edge.src, edge.dst))
            if effect is None and edge.dst not in effects.above:
                continue  # every call on and below this edge is ok
            call_id = f"{span_id}/{edge.dst}"  # a call path: the key of the call's draws
            failed = None if effect is None else self._failed_call(trace_id, call_id, edge, effect)
            if failed is None:
                self._walk_errors(trace_id, effects, edge.dst, call_id, spans)
            else:
                spans.append(failed)

    def _root_down(self, trace_id: str) -> Span:
        """The root span of a trace whose frontend pod is down."""
        frontend = self.topology.frontend
        duration = ROOT_BASE_MS + self._jitter(trace_id, frontend, ROOT_BASE_MS)
        return Span(trace_id, frontend, round(duration, 3), "Service unavailable")

    def _failed_call(self, trace_id: str, span_id: str, edge: CallEdge,
                     effect: _EdgeEffect) -> Span | None:
        """The error span of the call ``span_id`` on ``edge`` when ``effect``
        makes the call error, else None."""
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
        return Span(trace_id, edge.dst, round(duration, 3), message)

    def _jitter(self, trace_id: str, span_id: str, base: float) -> float:
        return noise.jitter(SPAN_JITTER_FRAC * base, self._seed, "span", trace_id, span_id)


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
    # (component, metric) -> the least and greatest nominal sample; exact:
    # every step from the clamped draw to the stored value is monotone
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


@functools.lru_cache(maxsize=64)
def _never_flagging(topology_name: str, cfg: DetectorConfig) -> frozenset[tuple[str, str]]:
    """The (component, metric) series of the topology whose nominal range
    ``_never_flags`` clears under the frozen ``cfg``, memoised on both."""
    return frozenset(key for key, (lo, hi) in _tables(topology_name).nominal_range.items()
                     if _never_flags(lo, hi, key[1], cfg))


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

    ``footprint`` is derived from those tables, so it holds exactly the
    series with a sample that differs from its nominal draw
    (``Telemetry._sample``): every metric of a down pod, a stressed pod's
    stressed metric, a node series some magnitude below 1.0 scales, and each
    service's ``_ServiceEffect.moved`` metrics. ``failing`` holds the edges
    whose calls a fault can make fail, each with the sum of the delays on it,
    and ``above`` the services with such a call below them, which the
    error-span walk passes through. An edge that a fault only delays or
    slows has no entry: no call on it fails.
    """

    def __init__(self, topo: Topology, active: list[tuple[FaultSpec, set]]):
        self.down: set[str] = set()  # the pods a PodFailure has taken down
        self.failing: dict[tuple[str, str], _EdgeEffect] = {}  # (src, dst) -> effect
        delays: dict[tuple[str, str], float] = {}  # (src, dst) -> the delays' sum
        self.services: dict[str, _ServiceEffect] = {}
        self.stress: dict[tuple[str, str], float] = {}  # (pod, metric) -> magnitude
        # (node, metric) -> the bandwidth magnitudes the metric scales by, in order
        self.bandwidth: dict[tuple[str, str], list[float]] = {}
        for fault, edges in active:
            ft, magnitude = fault.fault_type, fault.magnitude
            kind, target = fault.target_kind, fault.location_id
            callees = {dst for _, dst in edges}
            # the service a pod or edge fault targets: the pod's, or the callee
            service = None
            if kind == "pod":
                service = topo.pod(target).service
            elif kind == "edge":
                service = fault.edge_pair()[1]
            else:
                for node in fault.node_pair():
                    self.bandwidth.setdefault(
                        (node, "node_network_throughput_bytes"), []).append(magnitude)
            if ft in _STRESS_METRICS:
                self.stress.setdefault((target, _STRESS_METRICS[ft]), magnitude)
            for key in edges:
                if ft == FaultType.NetworkDelay:
                    delays[key] = delays.get(key, 0.0) + magnitude
                elif ft in _EDGE_ERROR_MESSAGES:
                    self.failing.setdefault(key, _EdgeEffect()).error_modes.append(
                        (_EDGE_ERROR_MESSAGES[ft], magnitude))
                elif ft == FaultType.NetworkPartition:
                    self.failing.setdefault(key, _EdgeEffect()).unreachable_msg = (
                        "connection refused")
                elif ft == FaultType.PodFailure and key[1] == service:
                    # only calls INTO the dead service fail; its own calls
                    # never happen
                    self.failing.setdefault(key, _EdgeEffect()).unreachable_msg = (
                        "Service unavailable")
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
        self.footprint = frozenset(chain(
            product(self.down, POD_METRIC_BASELINES), self.stress,
            (key for key, magnitudes in self.bandwidth.items()
             if any(magnitude != 1.0 for magnitude in magnitudes)),
            ((service, metric) for service, effect in self.services.items()
             for metric in effect.moved())))
        for key, edge in self.failing.items():
            edge.extra_ms = delays.get(key, 0.0)
        self.above = {src for src, _ in self.failing}
        while grown := {e.src for e in topo.call_edges if e.dst in self.above} - self.above:
            self.above |= grown


def render_telemetry(scenario: EpisodeScenario) -> Telemetry:
    """Telemetry for a scenario, rendered on demand. Pure in ``scenario.seed``."""
    return Telemetry(scenario)
