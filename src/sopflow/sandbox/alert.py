"""Initial incident alert: the ticket text an episode starts from.

The sandbox runs its own detector sweep over the rendered telemetry and
reports the earliest anomalous signal, preferring metrics over traces over
logs over resource state on ties, then lexicographic component order. The
format below is stable; transcripts and scripted tests key on it.

The metric sweep computes each series' baseline once and tests every later
sample against it; ``evaluate_series`` writes the verdict text for the first
sample that crosses.
"""

from __future__ import annotations

from ..detector import DetectorConfig, _baseline_rule, evaluate_series, matches_keyword
from .telemetry import SAMPLE_PERIOD_S, Telemetry

_ALERT_BASELINE_SAMPLES = 8  # episode-start samples used as the sweep baseline

_MODALITY_RANK = {"metric": 0, "trace": 1, "log": 2, "state": 3}


def _metric_candidates(telemetry: Telemetry, cfg: DetectorConfig):
    start, end = telemetry.scenario.window
    baseline_end = start + _ALERT_BASELINE_SAMPLES * SAMPLE_PERIOD_S
    for series in telemetry.metric_series():
        component, metric = series.component, series.metric
        baseline = [v for t, v in series.samples if t < baseline_end]
        # None for a baseline shorter than min_baseline_samples: the window
        # (one sample) then gives the robust rule, which never flags
        rule = _baseline_rule(baseline, metric, cfg)
        for t, value in series.samples:
            if t >= baseline_end and rule is not None and rule.flags(value):
                verdict = evaluate_series([value], baseline, metric, cfg)
                yield (t, "metric", component,
                       f"metric {metric} on {component} is anomalous "
                       f"({verdict.direction}): {verdict.detail}")
                break


def _trace_candidates(telemetry: Telemetry):
    for trace in telemetry.query_traces():
        for span in trace.spans:
            if span.status == "error":
                yield (trace.t_s, "trace", span.service,
                       f"error span in trace {trace.trace_id}: service {span.service} "
                       f"failed with '{span.error_message}'")
                return


def _log_candidates(telemetry: Telemetry, cfg: DetectorConfig):
    for line in telemetry.all_logs():
        if matches_keyword(line.text, cfg):
            yield (line.t_s, "log", line.pod,
                   f"anomalous log on pod {line.pod}: {line.text}")
            return


def _state_candidates(telemetry: Telemetry):
    start, end = telemetry.scenario.window
    for t in range(start, end, SAMPLE_PERIOD_S):
        for pod_id, phase in telemetry.pod_phases(at_s=t):
            if phase != "running":
                yield (t, "state", pod_id, f"pod {pod_id} entered phase {phase}")
                return


def render_alert(telemetry: Telemetry, cfg: DetectorConfig | None = None) -> str:
    """Render the incident ticket for a scenario, or a quiet-system notice."""
    cfg = cfg or DetectorConfig()
    candidates = []
    candidates.extend(_metric_candidates(telemetry, cfg))
    candidates.extend(_trace_candidates(telemetry))
    candidates.extend(_log_candidates(telemetry, cfg))
    candidates.extend(_state_candidates(telemetry))
    scenario = telemetry.scenario
    if not candidates:
        return (
            "INCIDENT ALERT\n"
            f"scenario: {scenario.id}\n"
            "signal: none\n"
            "summary: no anomalous signal detected; system nominal"
        )
    candidates.sort(key=lambda c: (c[0], _MODALITY_RANK[c[1]], c[2]))
    t, modality, component, summary = candidates[0]
    return (
        "INCIDENT ALERT\n"
        f"scenario: {scenario.id}\n"
        f"detected_at_s: {t}\n"
        f"signal: {modality}\n"
        f"component: {component}\n"
        f"summary: {summary}"
    )
