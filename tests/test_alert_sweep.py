"""The on-demand telemetry, the tick-major alert sweep and the metric check
against the eager reference of ``tests/reference.py``: every series rendered,
each series' first flag taken, then the candidates sorted; every window
sample and baseline judged."""

import pytest

import dataclasses
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
from sopflow.sandbox import (
    GroundTruth,
    ScenarioConfig,
    generate_corpus,
    render_alert,
    render_telemetry,
)
from sopflow.sandbox.faults import FaultType
from sopflow.sandbox.telemetry import SAMPLE_PERIOD_S, Telemetry
from sopflow.tools import ToolContext, build_registry
from sopflow.tools.observability import kubectl_logs, whether_is_abnormal_metric

from conftest import no_fault_scenario
from reference import reference_error_spans, reference_lines, reference_logs, reference_metrics

_BASELINE_SAMPLES = 8
_RANK = {"metric": 0, "trace": 1, "log": 2, "state": 3}


def reference_alert(telemetry, cfg: DetectorConfig) -> str:
    """The eager sweep: every modality rendered in full, one candidate per
    series or modality, the earliest one after sorting wins."""
    start, end = telemetry.scenario.window
    baseline_end = start + _BASELINE_SAMPLES * SAMPLE_PERIOD_S
    candidates = []
    for (component, metric), samples in reference_metrics(telemetry):
        baseline = [v for t, v in samples if t < baseline_end]
        rule = _baseline_rule(baseline, metric, cfg)
        for t, value in samples:
            if t >= baseline_end and rule is not None and rule.flags(value):
                verdict = evaluate_series([value], baseline, metric, cfg)
                candidates.append((t, "metric", component,
                                   f"metric {metric} on {component} is "
                                   f"anomalous ({verdict.direction}): {verdict.detail}"))
                break
    error_spans = [(t, span) for t in telemetry.sample_times()
                   for span in reference_error_spans(telemetry, (t, t + 1))]
    if error_spans:
        t, span = error_spans[0]
        candidates.append((t, "trace", span.service,
                           f"error span in trace {span.trace_id}: service {span.service} "
                           f"failed with '{span.error_message}'"))
    logs = [line for line in reference_logs(telemetry) if matches_keyword(line.text, cfg)]
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
    st.tuples(st.just("trace"), st.none() | _windows),  # the error spans
), max_size=8)


@given(scenario=_scenarios, cfg=_detectors, queries=_queries)
@settings(max_examples=25, deadline=None)
def test_on_demand_sweep_matches_the_eager_reference(scenario, cfg, queries):
    eager = render_telemetry(scenario)
    expected_lines = reference_lines(eager)  # renders everything first
    assert render_alert(render_telemetry(scenario), cfg) == reference_alert(eager, cfg)

    after_alert = render_telemetry(scenario)
    render_alert(after_alert, cfg)
    assert reference_lines(after_alert) == expected_lines

    after_queries = render_telemetry(scenario)
    keys = after_queries.series_keys()
    for query in queries:
        if query[0] == "metric":
            _, index, window = query
            component, metric = keys[index % len(keys)]
            got = after_queries.query_metrics(component, metric, window)
            assert got == tuple(
                (t, v) for t, v in eager.query_metrics(component, metric)
                if window is None or window[0] <= t < window[1])
        else:
            _, window = query
            assert after_queries.error_spans(window) == reference_error_spans(eager, window)
    assert reference_lines(after_queries) == expected_lines


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
    expected = [line for line in reference_logs(render_telemetry(scenario), pod,
                                                window or ctx.window)
                if matches_keyword(line.text, cfg)]
    assert got.payload == expected
    assert (got.observation.startswith(f"{len(expected)} abnormal log lines for pod {pod}:")
            if expected else got.observation.startswith(f"no abnormal logs for pod {pod}"))
    assert telemetry.anomalous_logs(cfg, window=window) == [
        line for line in reference_logs(telemetry, window=window)
        if matches_keyword(line.text, cfg)]


def test_queries_in_any_order_render_the_same_bytes():
    scenario = golden_scenarios()[3]
    expected = reference_lines(render_telemetry(scenario))
    telemetry = render_telemetry(scenario)
    times = telemetry.sample_times()
    order = [(key, t) for key in telemetry.series_keys() for t in times]
    random.Random(7).shuffle(order)
    for (component, metric), t in order:
        telemetry.metric_value(component, metric, t)
    for t in reversed(times):
        telemetry.error_spans((t, t + 1))
    assert reference_lines(telemetry) == expected


# Gaussian draws of render_alert(render_telemetry(s)) summed over the 9 golden
# scenarios. The reference render of the same scenarios draws 29,712: one per sample,
# a stressed sample's stress draw in place of its nominal one. The sweep wakes
# a quiet series only while a fault changes that series; woken component by
# component, it drew 25.
_ALERT_DRAWS = 20
_FULL_DRAWS = 29_712


def test_alert_renders_only_what_the_sweep_reaches(count_draws):
    gauss = count_draws("gauss")
    for scenario in golden_scenarios():
        render_alert(render_telemetry(scenario))
    alert_draws, gauss.calls = gauss.calls, 0
    for scenario in golden_scenarios():
        reference_lines(render_telemetry(scenario))
    draws = gauss.calls
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


# the sweep's baseline holds 8 samples, so no k-sigma rule forms and only the
# two static thresholds, which neither scenario crosses, could flag a metric:
# the first error span is the alert, and a scenario with no error span and no
# keyword log line has none
_STATIC_ONLY = DetectorConfig(min_baseline_samples=9,
                              static_thresholds={"cpu_usage": 0.8, "memory_usage": 0.85})


@pytest.mark.parametrize("scenario_id, alert", [
    ("scn-01002-podfailure",
     "INCIDENT ALERT\nscenario: scn-01002-podfailure\ndetected_at_s: 195\nsignal: trace\n"
     "component: frontend\nsummary: error span in trace t0013: service frontend failed "
     "with 'Service unavailable'"),
    ("scn-01008-networkbandwidth",
     "INCIDENT ALERT\nscenario: scn-01008-networkbandwidth\nsignal: none\n"
     "summary: no anomalous signal detected; system nominal"),
])
def test_the_trace_sweep_alone_names_the_first_error_span(scenario_id, alert):
    (scenario,) = [s for s in golden_scenarios() if s.id == scenario_id]
    assert render_alert(render_telemetry(scenario), _STATIC_ONLY) == alert
    assert reference_alert(render_telemetry(scenario), _STATIC_ONLY) == alert


def test_a_changed_detector_config_gets_fresh_verdicts():
    # the sweep's memo of never-flagging series is keyed on the config, which
    # is frozen: each change below, made in a copy, moves the bound that lets
    # the sweep skip a series' nominal samples
    cfg = DetectorConfig()
    alerts = set()
    for change in (lambda c: c,
                   lambda c: dataclasses.replace(c, static_thresholds={
                       **c.static_thresholds, "cpu_usage": 0.05, "memory_usage": 0.1}),
                   lambda c: dataclasses.replace(c, min_sigma_frac=0.0),
                   lambda c: dataclasses.replace(c, k=0.5),
                   lambda c: dataclasses.replace(c, static_thresholds={})):
        cfg = change(cfg)
        for scenario in golden_scenarios()[:3]:
            alert = render_alert(render_telemetry(scenario), cfg)
            assert alert == reference_alert(render_telemetry(scenario), cfg)
            alerts.add(alert)
    assert len(alerts) > 3


def test_alert_renders_only_components_a_fault_touches(monkeypatch):
    rendered = []  # the series of every metric sample rendered
    traced = []    # the tick of every call the error-span walk tests
    sample, failed_call = Telemetry._sample, Telemetry._failed_call

    def counting_sample(self, key, t):
        rendered.append(key)
        return sample(self, key, t)

    def counting_failed_call(self, trace_id, span_id, edge, effect):
        traced.append(self.sample_times()[int(trace_id[1:])])
        return failed_call(self, trace_id, span_id, edge, effect)

    monkeypatch.setattr(Telemetry, "_sample", counting_sample)
    monkeypatch.setattr(Telemetry, "_failed_call", counting_failed_call)
    for scenario in golden_scenarios() + generate_corpus(0, 18):
        telemetry = render_telemetry(scenario)
        rendered.clear()
        traced.clear()
        alert = render_alert(telemetry)
        detected = re.search(r"^detected_at_s: (\d+)$", alert, re.MULTILINE)
        until = int(detected.group(1)) if detected else scenario.window[1]
        moved = frozenset().union(*(telemetry.footprint(t)
                                    for t in telemetry.sample_times() if t <= until))
        assert rendered and set(rendered) <= moved
        assert all(any(fault.active_at(t) for fault in scenario.faults) for t in traced)


def _bandwidth_at_full(scenario):
    # a bandwidth fault that leaves the whole bandwidth: it scales no sample
    return dataclasses.replace(scenario, id=f"{scenario.id}-full", faults=[
        dataclasses.replace(fault, magnitude=1.0) for fault in scenario.faults])


def test_touched_is_exactly_the_components_whose_samples_a_fault_changes():
    # the same scenario without its faults (and so without a ground truth)
    # renders every sample as its nominal draw
    config = ScenarioConfig(faults_per_scenario=2)
    bandwidth = ScenarioConfig(fault_types=(FaultType.NetworkBandwidth,))
    for scenario in (golden_scenarios() + generate_corpus(41, 9) + generate_corpus(42, 9, config)
                     + [_bandwidth_at_full(s) for s in generate_corpus(43, 2, bandwidth)]):
        telemetry = render_telemetry(scenario)
        nominal = Telemetry(dataclasses.replace(scenario, faults=[],
                                                ground_truth=GroundTruth((), ())))
        keys = telemetry.series_keys()
        for t in telemetry.sample_times():
            changed = {key for key in keys
                       if telemetry.metric_value(*key, t) != nominal.metric_value(*key, t)}
            assert telemetry.footprint(t) == changed, (scenario.id, t)


def test_untouched_samples_lie_in_their_nominal_range():
    for scenario in golden_scenarios():
        telemetry = render_telemetry(scenario)
        for key, samples in reference_metrics(telemetry):
            lo, hi = telemetry._tables.nominal_range[key]
            for t, value in samples:
                if key not in telemetry.footprint(t):
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


# a bound may be absent (the scenario's), and the window empty or reversed
_tool_windows = st.tuples(st.none() | st.integers(-100, 900), st.none() | st.integers(-100, 900))


@given(scenario=_scenarios, cfg=_bounded_detectors, window=_tool_windows)
@settings(max_examples=40, deadline=None)
def test_the_metric_check_matches_the_rule_on_a_full_render(scenario, cfg, window):
    """Every series, under thresholds on both sides of its nominal range: a
    static check renders only the samples that may exceed the threshold."""
    eager = render_telemetry(scenario)
    expected_lines = reference_lines(eager)  # renders everything first
    telemetry = render_telemetry(scenario)
    ctx = ToolContext(telemetry=telemetry, kb=None, backend=None, detector=cfg,
                      registry=build_registry())
    start_s, end_s = window
    lo = scenario.window[0] if start_s is None else start_s
    hi = scenario.window[1] if end_s is None else end_s
    for component, metric in telemetry.series_keys():
        samples = eager.query_metrics(component, metric)
        verdict = evaluate_series(
            [v for t, v in samples if lo <= t < hi],
            [v for t, v in samples if t < lo][-cfg.baseline_lookback_samples:], metric, cfg)
        got = whether_is_abnormal_metric(ctx, component, metric, start_s, end_s)
        assert got.payload == verdict
        state = (f"anomalous ({verdict.direction})" if verdict.anomalous else "normal")
        assert got.observation == f"metric {metric} on {component} is {state}: {verdict.detail}"
    assert reference_lines(telemetry) == expected_lines


@pytest.mark.parametrize("before_s, max_samples, draws", [
    (540, 20, 20),   # 36 samples lie before 540 s
    (60, 20, 4),
    (-15, 20, 0),
    (600, 40, 40),
])
def test_a_baseline_renders_only_the_samples_it_keeps(count_draws, before_s, max_samples,
                                                       draws):
    scenario = no_fault_scenario()
    gauss = count_draws("gauss")
    baseline = render_telemetry(scenario).baseline_values("cartservice", "request_latency_ms",
                                                          before_s, max_samples)
    assert gauss.calls == draws
    samples = render_telemetry(scenario).query_metrics("cartservice", "request_latency_ms")
    assert baseline == [v for t, v in samples if t < before_s][-max_samples:]
