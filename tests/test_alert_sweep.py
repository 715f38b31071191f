"""The on-demand telemetry and the tick-major alert sweep against the eager
reference: every series rendered, each series' first flag taken, then the
candidates sorted."""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from sopflow.detector import (
    DEFAULT_ANOMALY_KEYWORDS,
    DEFAULT_STATIC_THRESHOLDS,
    DetectorConfig,
    _baseline_rule,
    evaluate_series,
    matches_keyword,
)
from sopflow.golden import golden_scenarios
from sopflow.sandbox import ScenarioConfig, generate_corpus, noise, render_alert, render_telemetry
from sopflow.sandbox.faults import FaultType
from sopflow.sandbox.telemetry import SAMPLE_PERIOD_S, Telemetry
from sopflow.tools import ToolContext, build_registry
from sopflow.tools.observability import kubectl_logs

_BASELINE_SAMPLES = 8
_RANK = {"metric": 0, "trace": 1, "log": 2, "state": 3}


def reference_alert(telemetry, cfg: DetectorConfig) -> str:
    """The eager sweep: every modality rendered in full, one candidate per
    series or modality, the earliest one after sorting wins."""
    start, end = telemetry.scenario.window
    baseline_end = start + _BASELINE_SAMPLES * SAMPLE_PERIOD_S
    candidates = []
    for series in telemetry.metric_series():
        baseline = [v for t, v in series.samples if t < baseline_end]
        rule = _baseline_rule(baseline, series.metric, cfg)
        for t, value in series.samples:
            if t >= baseline_end and rule is not None and rule.flags(value):
                verdict = evaluate_series([value], baseline, series.metric, cfg)
                candidates.append((t, "metric", series.component,
                                   f"metric {series.metric} on {series.component} is "
                                   f"anomalous ({verdict.direction}): {verdict.detail}"))
                break
    error_traces = [(trace, span) for trace in telemetry.query_traces()
                    for span in trace.spans if span.status == "error"]
    if error_traces:
        trace, span = error_traces[0]
        candidates.append((trace.t_s, "trace", span.service,
                           f"error span in trace {trace.trace_id}: service {span.service} "
                           f"failed with '{span.error_message}'"))
    logs = [line for line in telemetry.all_logs() if matches_keyword(line.text, cfg)]
    if logs:
        candidates.append((logs[0].t_s, "log", logs[0].pod,
                           f"anomalous log on pod {logs[0].pod}: {logs[0].text}"))
    states = [(t, pod_id, "failed") for t in range(start, end, SAMPLE_PERIOD_S)
              for pod_id in sorted({fault.location_id for fault in telemetry.scenario.faults
                                    if fault.fault_type == FaultType.PodFailure
                                    and fault.active_at(t)})]
    if states:
        t, pod_id, phase = states[0]
        candidates.append((t, "state", pod_id, f"pod {pod_id} entered phase {phase}"))
    scenario = telemetry.scenario
    if not candidates:
        return (f"INCIDENT ALERT\nscenario: {scenario.id}\nsignal: none\n"
                "summary: no anomalous signal detected; system nominal")
    candidates.sort(key=lambda c: (c[0], _RANK[c[1]], c[2]))
    t, modality, component, summary = candidates[0]
    return (f"INCIDENT ALERT\nscenario: {scenario.id}\ndetected_at_s: {t}\n"
            f"signal: {modality}\ncomponent: {component}\nsummary: {summary}")


_scenarios = st.builds(
    lambda seed, index, faults: generate_corpus(
        seed, index + 1, ScenarioConfig(faults_per_scenario=faults))[index],
    seed=st.integers(0, 5_000), index=st.integers(0, 8), faults=st.integers(1, 2),
)

# Log keywords: the defaults, ones that occur in heartbeat lines (some only in
# one pod's), ones with a digit or "-" that the heartbeat proof cannot decide,
# ones that match nothing, in mixed case; and random short ones.
_KEYWORDS = (
    "error", "Timeout", "REFUSED", "oom", "throttling", "info", "Handled", "status=200",
    "pod=frontend", "CART", "requests s", "4", "t=3", "=4", "-0", "redis-cart", "t=-",
    "45 req", "ZZZ", "x-9",
)
_keywords = st.lists(
    st.sampled_from(_KEYWORDS) | st.text(alphabet="Iinfo t=pdhale-0123456789", max_size=5),
    max_size=4).map(tuple)

_detectors = st.builds(
    DetectorConfig,
    k=st.floats(min_value=0.5, max_value=6.0),
    min_sigma_frac=st.floats(min_value=0.0, max_value=0.3),
    min_baseline_samples=st.integers(1, 12),  # more than 8: only static thresholds flag
    static_thresholds=st.booleans().map(
        lambda on: dict(DEFAULT_STATIC_THRESHOLDS) if on else {}),
    anomaly_keywords=st.just(DEFAULT_ANOMALY_KEYWORDS) | _keywords,
)

_windows = st.tuples(st.integers(-30, 650), st.integers(-30, 650))
_queries = st.lists(st.one_of(
    st.tuples(st.just("metric"), st.integers(0, 10_000), st.none() | _windows),
    st.tuples(st.just("trace"), st.none() | _windows),
), max_size=8)


@given(scenario=_scenarios, cfg=_detectors, queries=_queries)
@settings(max_examples=25, deadline=None)
def test_on_demand_sweep_matches_the_eager_reference(scenario, cfg, queries):
    eager = render_telemetry(scenario)
    expected_lines = eager.export_lines()  # renders everything first
    assert render_alert(render_telemetry(scenario), cfg) == reference_alert(eager, cfg)

    after_alert = render_telemetry(scenario)
    render_alert(after_alert, cfg)
    assert after_alert.export_lines() == expected_lines

    after_queries = render_telemetry(scenario)
    keys = after_queries.series_keys()
    for query in queries:
        if query[0] == "metric":
            _, index, window = query
            component, metric = keys[index % len(keys)]
            got = after_queries.query_metrics(component, metric, window)
            assert got.samples == tuple(
                (t, v) for t, v in eager.query_metrics(component, metric).samples
                if window is None or window[0] <= t < window[1])
        else:
            _, window = query
            got = after_queries.query_traces(window)
            assert got == [tr for tr in eager.query_traces()
                           if window is None or window[0] <= tr.t_s < window[1]]
    assert after_queries.export_lines() == expected_lines


@given(scenario=_scenarios, keywords=_keywords, pod_index=st.integers(0, 10),
       window=st.none() | _windows)
@settings(max_examples=40, deadline=None)
def test_kubectl_logs_matches_the_filtered_query(scenario, keywords, pod_index, window):
    cfg = DetectorConfig(anomaly_keywords=keywords)
    telemetry = render_telemetry(scenario)
    pod = sorted(telemetry.topology.pods, key=lambda p: p.id)[pod_index].id
    ctx = ToolContext(telemetry=telemetry, kb=None, backend=None, detector=cfg,
                      registry=build_registry())
    start, end = window or (None, None)
    got = kubectl_logs(ctx, pod, start, end)
    expected = [line for line in render_telemetry(scenario).all_logs(window or ctx.window)
                if line.pod == pod and matches_keyword(line.text, cfg)]
    assert got.payload == expected
    assert (got.observation.startswith(f"{len(expected)} abnormal log lines for pod {pod}:")
            if expected else got.observation.startswith(f"no abnormal logs for pod {pod}"))
    assert telemetry.anomalous_logs(cfg, window=window) == [
        line for line in telemetry.all_logs(window) if matches_keyword(line.text, cfg)]


def test_queries_in_any_order_render_the_same_bytes():
    scenario = golden_scenarios()[3]
    expected = render_telemetry(scenario).export_lines()
    telemetry = render_telemetry(scenario)
    times = telemetry.sample_times()
    order = [(key, t) for key in telemetry.series_keys() for t in times]
    random.Random(7).shuffle(order)
    for (component, metric), t in order:
        telemetry.metric_value(component, metric, t)
    for t in reversed(times):
        telemetry.query_traces((t, t + 1))
    assert telemetry.export_lines() == expected


# Gaussian draws of render_alert(render_telemetry(s)) summed over the 9 golden
# scenarios. A full render of the same scenarios draws 29,748.
_ALERT_DRAWS = 139
_FULL_DRAWS = 29_748


def test_alert_renders_only_what_the_sweep_reaches(monkeypatch):
    draws = 0
    gauss = noise.gauss

    def counting_gauss(*args, **kwargs):
        nonlocal draws
        draws += 1
        return gauss(*args, **kwargs)

    monkeypatch.setattr(noise, "gauss", counting_gauss)
    for scenario in golden_scenarios():
        render_alert(render_telemetry(scenario))
    alert_draws, draws = draws, 0
    for scenario in golden_scenarios():
        render_telemetry(scenario).export_lines()
    assert draws == _FULL_DRAWS
    assert alert_draws == _ALERT_DRAWS
    assert alert_draws < _FULL_DRAWS / 2


# the metrics whose static thresholds, drawn from [0, 1], land on both sides
# of their series' nominal range
_THRESHOLD_METRICS = ("cpu_usage", "memory_usage", "error_rate", "node_cpu_usage",
                      "throughput_rps")

_bounded_detectors = st.builds(
    DetectorConfig,
    k=st.floats(min_value=0.5, max_value=6.0),
    min_sigma_frac=st.just(0.0) | st.floats(min_value=0.0, max_value=0.3),
    min_baseline_samples=st.integers(1, 12),
    static_thresholds=st.dictionaries(st.sampled_from(_THRESHOLD_METRICS),
                                      st.floats(min_value=0.0, max_value=1.0)),
)


@given(scenario=_scenarios, cfg=_bounded_detectors)
@settings(max_examples=200, deadline=None)
def test_skipped_samples_never_change_the_alert(scenario, cfg):
    """Thresholds and sigma floors on both sides of the bound that lets the
    sweep skip a series' nominal samples."""
    assert (render_alert(render_telemetry(scenario), cfg)
            == reference_alert(render_telemetry(scenario), cfg))


def test_a_detector_config_changed_in_place_gets_fresh_verdicts():
    # the sweep's memo of never-flagging series is keyed on the values of the
    # config, not on the object: each change below moves the bound that lets
    # the sweep skip a series' nominal samples
    cfg = DetectorConfig()
    alerts = set()
    for change in (lambda: None,
                   lambda: cfg.static_thresholds.update(cpu_usage=0.05, memory_usage=0.1),
                   lambda: setattr(cfg, "min_sigma_frac", 0.0),
                   lambda: setattr(cfg, "k", 0.5),
                   lambda: cfg.static_thresholds.clear()):
        change()
        for scenario in golden_scenarios()[:3]:
            alert = render_alert(render_telemetry(scenario), cfg)
            assert alert == reference_alert(render_telemetry(scenario), cfg)
            alerts.add(alert)
    assert len(alerts) > 3


def test_alert_renders_only_components_a_fault_touches(monkeypatch):
    rendered = []  # the component of every metric sample rendered
    traced = []    # the tick of every trace rendered
    sample, trace = Telemetry._sample, Telemetry._trace

    def counting_sample(self, key, t):
        rendered.append(key[0])
        return sample(self, key, t)

    def counting_trace(self, tick, t):
        traced.append(t)
        return trace(self, tick, t)

    monkeypatch.setattr(Telemetry, "_sample", counting_sample)
    monkeypatch.setattr(Telemetry, "_trace", counting_trace)
    for scenario in golden_scenarios() + generate_corpus(0, 18):
        telemetry = render_telemetry(scenario)
        rendered.clear()
        traced.clear()
        alert = render_alert(telemetry)
        detected = re.search(r"^detected_at_s: (\d+)$", alert, re.MULTILINE)
        until = int(detected.group(1)) if detected else scenario.window[1]
        touched = frozenset().union(*(telemetry.touched(t)
                                      for t in telemetry.sample_times() if t <= until))
        assert rendered and set(rendered) <= touched
        assert all(any(fault.active_at(t) for fault in scenario.faults) for t in traced)


def test_untouched_samples_lie_in_their_nominal_range():
    for scenario in golden_scenarios():
        telemetry = render_telemetry(scenario)
        for series in telemetry.metric_series():
            lo, hi = telemetry.nominal_ranges()[(series.component, series.metric)]
            for t, value in series.samples:
                if series.component not in telemetry.touched(t):
                    assert lo <= value <= hi


def test_pod_phases_match_a_scan_of_the_faults():
    # two faults of one type per scenario: two pod failures, some on one pod
    config = ScenarioConfig(fault_types=(FaultType.PodFailure, FaultType.CpuStress),
                            faults_per_scenario=2)
    failed = 0
    for scenario in generate_corpus(31, 12, config) + generate_corpus(32, 12):
        telemetry = render_telemetry(scenario)
        at_s = scenario.incident_time_s
        expected = [(pod.id, "failed" if any(
            fault.fault_type == FaultType.PodFailure and fault.location_id == pod.id
            and fault.active_at(at_s) for fault in scenario.faults) else pod.phase)
            for pod in sorted(telemetry.topology.pods, key=lambda pod: pod.id)]
        assert telemetry.pod_phases() == expected
        assert [(pod_id, telemetry.pod_phase(pod_id)) for pod_id, _ in expected] == expected
        failed += sum(phase == "failed" for _, phase in expected)
    assert failed
