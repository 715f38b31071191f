"""Initial incident alert: the ticket text an episode starts from.

The sandbox runs its own detector sweep over the rendered telemetry and
reports the earliest anomalous signal, preferring metrics over traces over
logs on ties, then lexicographic component order. It reads no pod phase: a
pod is ``failed`` only under a PodFailure, and at each tick it is, the trace
holds an error span, which a pod-state signal could at best tie and lose to.
The format below is stable; transcripts and scripted tests key on it.

The metric sweep is tick-major. It tests every series at one tick, in
(component, metric) order, before moving to the next tick, and stops at the
first flagged sample: the candidate that sorting every series' first flag
would pick. It skips the samples it can prove cannot flag: those of a series
outside the fault footprint at that tick and at every baseline tick, and
whose nominal value range ``_never_flags`` clears (verdicts that depend on
the topology and the frozen detector config alone: ``_never_flagging``
memoises them, keyed on the topology's name and the config itself).
A series is in the footprint at a tick exactly when its sample there differs
from its nominal draw (``Telemetry.footprint``), so the sweep wakes such a
quiet series only at the ticks a fault changes it.
For each series it does test it computes the baseline rule once, from the
first 8 samples (a static threshold needs no baseline, so none is rendered
for it); a series whose baseline is too short for a rule is never rendered.
``evaluate_series`` writes the verdict text. Each later-ranked sweep (traces,
then logs) stops before the earliest candidate found so far, because a
candidate at or after that tick loses on rank. The trace sweep
reads the error spans (``Telemetry.error_spans``). The log
sweep reads the keyword lines before that candidate
(``Telemetry.anomalous_logs``), which renders no heartbeat line a keyword
provably cannot occur in: with the default keywords, none. Telemetry is
rendered on demand, so only what the sweeps reach is computed.
"""

from __future__ import annotations

from ..detector import DetectorConfig, _baseline_rule, evaluate_series
from .telemetry import Telemetry, _never_flagging

_ALERT_BASELINE_SAMPLES = 8  # episode-start samples used as the sweep baseline

_MODALITY_RANK = {"metric": 0, "trace": 1, "log": 2}


def _metric_candidates(telemetry: Telemetry, cfg: DetectorConfig):
    times = telemetry.sample_times()
    baseline_times = times[:_ALERT_BASELINE_SAMPLES]
    baseline_moved = frozenset().union(*map(telemetry.footprint, baseline_times))
    # the series to test as (position in (component, metric) order,
    # component, metric, static); a quiet one, whose nominal samples cannot
    # flag, only at ticks it is in the footprint
    loud, quiet = [], {}
    never = _never_flagging(telemetry.scenario.topology_name, cfg)
    for position, (component, metric) in enumerate(telemetry.series_keys()):
        static = cfg.static_thresholds.get(metric) is not None
        if not static and len(baseline_times) < cfg.min_baseline_samples:
            # _baseline_rule gives None: the window (one sample) then gives
            # the robust rule, which never flags
            continue
        series = (position, component, metric, static)
        if (component, metric) not in baseline_moved and (component, metric) in never:
            quiet[(component, metric)] = series
        else:
            loud.append(series)
    judged = {}  # (component, metric) -> (baseline, rule), once tested
    for t in times[_ALERT_BASELINE_SAMPLES:]:
        tested = loud
        woken = [quiet[key] for key in telemetry.footprint(t) if key in quiet]
        if woken:
            tested = sorted(loud + woken)
        for _, component, metric, static in tested:
            key = (component, metric)
            if key not in judged:
                # a static threshold ignores the baseline, so none is rendered for it
                baseline = ([] if static else
                            [telemetry.metric_value(component, metric, b) for b in baseline_times])
                judged[key] = baseline, _baseline_rule(baseline, metric, cfg)
            baseline, rule = judged[key]
            value = telemetry.metric_value(component, metric, t)
            if rule.flags(value):
                verdict = evaluate_series([value], baseline, metric, cfg)
                yield (t, "metric", component,
                       f"metric {metric} on {component} is anomalous "
                       f"({verdict.direction}): {verdict.detail}")
                return


def _trace_candidates(telemetry: Telemetry, before_s: int):
    for t in telemetry.sample_times():
        if t >= before_s:
            return
        for span in telemetry.error_spans((t, t + 1)):
            yield (t, "trace", span.service,
                   f"error span in trace {span.trace_id}: service {span.service} "
                   f"failed with '{span.error_message}'")
            return


def _log_candidates(telemetry: Telemetry, cfg: DetectorConfig, before_s: int):
    for line in telemetry.anomalous_logs(cfg, window=(telemetry.scenario.window[0], before_s)):
        yield (line.t_s, "log", line.pod, f"anomalous log on pod {line.pod}: {line.text}")
        return


def render_alert(telemetry: Telemetry, cfg: DetectorConfig | None = None) -> str:
    """Render the incident ticket for a scenario, or a quiet-system notice."""
    cfg = cfg or DetectorConfig()
    scenario = telemetry.scenario
    candidates = list(_metric_candidates(telemetry, cfg))

    def earliest() -> int:
        # a later-ranked candidate at or after this tick loses on rank
        return min((c[0] for c in candidates), default=scenario.window[1])

    candidates.extend(_trace_candidates(telemetry, earliest()))
    candidates.extend(_log_candidates(telemetry, cfg, earliest()))
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
