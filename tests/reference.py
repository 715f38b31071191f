"""The tests' reference telemetry: what a scenario's telemetry holds, read by
the plainest route. Every metric sample comes through ``query_metrics``,
every log line through ``anomalous_logs`` with a keyword every line holds,
and every error span from a brute-force walk of the call tree, which checks
the pruned walk behind ``Telemetry.error_spans``. ``reference_digest`` is the
sha256 of all three; the identity tests pin it."""

from __future__ import annotations

import hashlib
import json

from sopflow.detector import DetectorConfig
from sopflow.sandbox.telemetry import LogLine, Span, Telemetry, _EdgeEffect, _Effects

# every heartbeat ("INFO t=...") and every fault line ("... (t=N)") holds "t="
EVERY_LINE = DetectorConfig(anomaly_keywords=("t=",))


def reference_metrics(telemetry: Telemetry) -> list[tuple[tuple[str, str], tuple]]:
    """Every series' key and (t, value) samples, in ``series_keys`` order."""
    return [(key, telemetry.query_metrics(*key)) for key in telemetry.series_keys()]


def reference_logs(telemetry: Telemetry, pod: str | None = None,
                   window: tuple[int, int] | None = None) -> list[LogLine]:
    """Every log line of pod ``pod`` (every pod's for None) in ``window``
    (every line for None), in (t_s, pod, text) order."""
    return telemetry.anomalous_logs(EVERY_LINE, pod, window)


def reference_error_spans(telemetry: Telemetry,
                          window: tuple[int, int] | None = None) -> list[Span]:
    """The error spans at each sample tick in ``window`` (every tick for
    None), in tick order (``_failed_calls``); a down frontend pod fails the
    root instead."""
    topo, faults = telemetry.topology, telemetry.scenario.faults
    fault_edges = [(fault, {(e.src, e.dst) for e in fault.affected_edges(topo)})
                   for fault in faults]
    root_pod = topo.pods_of(topo.frontend)[0].id
    spans: list[Span] = []
    for tick, t in enumerate(telemetry.sample_times()):
        if window is not None and not window[0] <= t < window[1]:
            continue
        effects = _Effects(topo, [(f, edges) for f, edges in fault_edges if f.active_at(t)])
        trace_id = f"t{tick:04d}"
        if root_pod in effects.down:
            spans.append(telemetry._root_down(trace_id))
        else:
            spans += _failed_calls(telemetry, effects, trace_id, topo.frontend, topo.frontend)
    return spans


def _failed_calls(telemetry: Telemetry, effects: _Effects, trace_id: str, service: str,
                  span_id: str):
    """The error spans below call ``span_id`` into ``service``: every call
    it makes is tested in ``topology.children`` order, with its edge's
    effect or none, and the walk goes on below each call that did not fail."""
    for edge in telemetry.topology.children(service):
        call_id = f"{span_id}/{edge.dst}"
        effect = effects.failing.get((edge.src, edge.dst), _EdgeEffect())
        failed = telemetry._failed_call(trace_id, call_id, edge, effect)
        if failed is None:
            yield from _failed_calls(telemetry, effects, trace_id, edge.dst, call_id)
        else:
            yield failed


def reference_lines(telemetry: Telemetry) -> list[str]:
    """One JSON line per series, log line and error span, in that order."""
    return ([json.dumps(["metric", *key, samples]) for key, samples in reference_metrics(telemetry)]
            + [json.dumps(["log", line.t_s, line.pod, line.text])
               for line in reference_logs(telemetry)]
            + [json.dumps(["span", span.trace_id, span.service, span.duration_ms,
                           span.error_message])
               for span in reference_error_spans(telemetry)])


def reference_digest(telemetry: Telemetry) -> str:
    """The sha256 of ``reference_lines``, one line each, newline-ended."""
    digest = hashlib.sha256()
    for line in reference_lines(telemetry):
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()
