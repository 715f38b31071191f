import collections
import dataclasses
import json
import re

import pytest

from sopflow import golden
from sopflow.detector import DetectorConfig
from sopflow.errors import ConfigError, NotFoundError, ValidationError
from sopflow.sandbox import (
    EpisodeScenario,
    FaultSpec,
    FaultType,
    GroundTruth,
    ScenarioConfig,
    generate_corpus,
    generate_scenario,
    load_fixture,
    load_scenario,
    render_alert,
    render_telemetry,
    save_scenario,
)
from sopflow.sandbox import telemetry as telemetry_module
from sopflow.sandbox.telemetry import POD_METRIC_BASELINES, SAMPLE_PERIOD_S, Telemetry

from conftest import fault_scenario, no_fault_scenario, telemetry_for


class TestTopology:
    def test_fixture_shape(self):
        topo = load_fixture("online-boutique")
        assert len(topo.services) == 11
        assert len(topo.nodes) == 3
        assert topo.frontend == "frontend"

    def test_unknown_fixture(self):
        with pytest.raises(ConfigError):
            load_fixture("no-such-cluster")

    def test_fixture_is_built_once_and_cannot_be_changed(self):
        topo = load_fixture("online-boutique")
        assert load_fixture("online-boutique") is topo
        assert generate_scenario(5).topology() is topo
        with pytest.raises(dataclasses.FrozenInstanceError):
            topo.frontend = "cartservice"
        for name in ("services", "pods", "nodes", "call_edges", "namespaces"):
            assert isinstance(getattr(topo, name), tuple), name
        with pytest.raises(dataclasses.FrozenInstanceError):
            topo.pods[0].phase = "failed"


class TestScenarioGeneration:
    def test_same_seed_same_scenario(self):
        a = generate_scenario(99)
        b = generate_scenario(99)
        assert a == b

    def test_type_restriction(self):
        scenario = generate_scenario(5, ScenarioConfig(fault_types=(FaultType.CpuStress,)))
        assert scenario.faults[0].fault_type == FaultType.CpuStress

    def test_round_robin_covers_types_evenly(self):
        corpus = generate_corpus(seed=3, count=90)
        counts = collections.Counter(s.faults[0].fault_type for s in corpus)
        assert all(counts[ft] == 10 for ft in FaultType)

    def test_ground_truth_derivable(self):
        scenario = generate_scenario(11)
        fault = scenario.faults[0]
        assert scenario.ground_truth.locations == (fault.location_id,)
        assert scenario.ground_truth.types == (fault.fault_type.value,)

    def test_fault_target_kind_enforced(self):
        topo = load_fixture("online-boutique")
        bad = FaultSpec(FaultType.CpuStress, "edge:frontend->cartservice", 180, 240, 0.9)
        with pytest.raises(ValidationError):
            bad.validate(topo)

    def test_magnitude_range_enforced(self):
        topo = load_fixture("online-boutique")
        with pytest.raises(ValidationError):
            FaultSpec(FaultType.NetworkLoss, "pod:frontend-0", 180, 240, 1.5).validate(topo)
        with pytest.raises(ValidationError):
            FaultSpec(FaultType.CpuStress, "pod:frontend-0", 180, 0, 0.9).validate(topo)

    def test_subnormal_magnitude_in_a_file_is_rejected(self, tmp_path):
        # 1 / 1e-320 is inf: the bandwidth fault's latency would render inf
        path = tmp_path / "scn.yaml"
        save_scenario(generate_scenario(80, ScenarioConfig(
            fault_types=(FaultType.NetworkBandwidth,))), path)
        text = path.read_text()
        assert '"magnitude": 0.4' in text
        path.write_text(text.replace('"magnitude": 0.4', '"magnitude": 1.0e-320'))
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: NetworkBandwidth magnitude 1e-320 has no finite reciprocal")):
            load_scenario(path)

    def test_subnormal_magnitude_is_not_rendered(self):
        fault = FaultSpec(FaultType.NetworkBandwidth, "nodes:node-1<->node-2", 120, 240, 1e-320)
        scenario = EpisodeScenario(
            id="scn-subnormal", topology_name="online-boutique", seed=3, window=(0, 600),
            faults=[fault], ground_truth=GroundTruth(("node-1<->node-2",), ("NetworkBandwidth",)),
        )
        with pytest.raises(ValidationError, match="has no finite reciprocal"):
            render_telemetry(scenario)

    def test_concurrent_faults_option(self):
        config = ScenarioConfig(
            fault_types=(FaultType.CpuStress, FaultType.NetworkDelay),
            faults_per_scenario=2,
        )
        scenario = generate_scenario(60, config)
        assert len(scenario.faults) == 2
        assert {f.fault_type for f in scenario.faults} \
            == {FaultType.CpuStress, FaultType.NetworkDelay}
        assert set(scenario.ground_truth.types) == {"CpuStress", "NetworkDelay"}
        render_telemetry(scenario)  # renders without conflict

    def test_scenario_file_roundtrip(self, tmp_path):
        scenario = generate_scenario(77)
        path = tmp_path / "scn.yaml"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario
        # identical bytes when written twice
        save_scenario(scenario, tmp_path / "scn2.yaml")
        assert path.read_bytes() == (tmp_path / "scn2.yaml").read_bytes()

    def test_tampered_ground_truth_rejected(self, tmp_path):
        scenario = generate_scenario(78)
        path = tmp_path / "scn.yaml"
        save_scenario(scenario, path)
        text = path.read_text().replace(scenario.ground_truth.locations[0], "frontend-9")
        path.write_text(text)
        with pytest.raises(ValidationError):
            load_scenario(path)

    @pytest.mark.parametrize("edit, complaint", [
        (('"aliases": {}', '"aliases": [1]'), "malformed scenario file"),
        (('"end_s": 600', '"end_s": 0'), "scenario window must be non-empty"),
        (('"aliases": {}', '"alias": {}'), "scenario: unknown key(s) 'alias'"),
        (('"magnitude":', '"magnitdue":'), "faults[0]: unknown key(s) 'magnitdue'"),
        (('"end_s": 600', '"end_s": 600, "length_s": 600'), "window: unknown key(s) 'length_s'"),
        (('"types":', '"kinds":'), "ground_truth: unknown key(s) 'kinds'"),
        (('"window": {"start_s": 0, "end_s": 600}', '"window": 600'),
         "malformed scenario file: window: expected a mapping, got 600"),
        (('"pod:emailservice-0"', '"pod:"'), "empty pod target"),
        (('"CpuStress", "target": "pod:emailservice-0"',
          '"NetworkDelay", "target": "edge:emailservice->frontend"'),
         "unknown edge target emailservice->frontend"),
        (('"CpuStress", "target": "pod:emailservice-0"',
          '"NetworkBandwidth", "target": "nodes:node-1<->node-9"'),
         "unknown node 'node-9' in target"),
        (('"CpuStress", "target": "pod:emailservice-0"',
          '"NetworkBandwidth", "target": "nodes:node-1<->node-1"'),
         "node-pair target must name two distinct nodes"),
        (('"start_s": 240', '"start_s": 500'),
         "fault window [500, 680) outside scenario window"),
        (('"CpuStress", "target": "pod:emailservice-0"',
          '"NetworkDelay", "target": "edge:frontend"'),
         "not an edge target: edge:frontend"),
        (('"CpuStress", "target": "pod:emailservice-0"',
          '"NetworkBandwidth", "target": "nodes:node-1"'),
         "not a node-pair target: nodes:node-1"),
        (('"pod:emailservice-0"', '"svc:emailservice-0"'),
         "malformed fault target 'svc:emailservice-0'"),
    ])
    def test_bad_scenario_file_is_a_validation_error_naming_it(self, tmp_path, edit,
                                                                complaint):
        path = tmp_path / "scn.yaml"
        save_scenario(generate_scenario(79), path)
        path.write_text(path.read_text().replace(*edit))
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {complaint}')}"):
            load_scenario(path)


    def test_a_scenario_file_without_faults_loads(self, tmp_path):
        path = tmp_path / "scn.yaml"
        save_scenario(generate_scenario(79), path)
        mapping = json.loads(path.read_text())
        mapping.update(faults=[], ground_truth={"locations": [], "types": []})
        path.write_text(json.dumps(mapping))
        scenario = load_scenario(path)
        assert scenario.faults == [] and scenario.ground_truth == GroundTruth((), ())

    @pytest.mark.parametrize("edit, complaint", [
        (('"seed": 79', '"seed": 1.5'), "scenario.seed: expected an integer, got 1.5"),
        (('"start_s": 0', '"start_s": true'), "window.start_s: expected a number, got True"),
        (('"fault_type": "CpuStress"', '"fault_type": "Cpu"'),
         "faults[0].fault_type: 'Cpu' is not a valid FaultType"),
        (('"magnitude": 0.9', '"magnitude": [0.9]'),
         "faults[0].magnitude: float() argument must be a string or a real number, "
         "not 'list'"),
        (('"aliases": {}', '"aliases": {"a": null}'),
         "scenario.aliases: expected a string, got None"),
    ])
    def test_scenario_scalars_are_read_strictly(self, tmp_path, edit, complaint):
        path = tmp_path / "scn.yaml"
        save_scenario(generate_scenario(79), path)
        text = path.read_text()
        assert edit[0] in text
        path.write_text(text.replace(*edit))
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: malformed scenario file: {complaint}") + "$"):
            load_scenario(path)


class TestNoFaultTelemetry:
    def test_metrics_stay_in_nominal_bands(self):
        telemetry = telemetry_for(no_fault_scenario())
        for pod in telemetry.topology.pods:
            for metric, (base, sigma) in POD_METRIC_BASELINES.items():
                series = telemetry.query_metrics(pod.id, metric)
                for _, value in series.samples:
                    assert abs(value - base) <= 2.5 * sigma + 1e-9

    def test_zero_error_spans(self):
        telemetry = telemetry_for(no_fault_scenario())
        assert all(span.status == "ok"
                   for trace in telemetry.query_traces() for span in trace.spans)

    def test_zero_anomaly_keyword_logs(self):
        telemetry = telemetry_for(no_fault_scenario())
        cfg = DetectorConfig()
        from sopflow.detector import matches_keyword
        assert not any(matches_keyword(line.text, cfg) for line in telemetry.all_logs())

    def test_alert_reports_quiet_system(self):
        alert = render_alert(telemetry_for(no_fault_scenario()))
        assert "signal: none" in alert


class TestFaultSignatures:
    def test_cpu_stress_pins_usage_inside_window(self):
        scenario = fault_scenario(FaultType.CpuStress)
        fault = scenario.faults[0]
        telemetry = telemetry_for(scenario)
        series = telemetry.query_metrics(fault.location_id, "cpu_usage")
        for t, value in series.samples:
            if fault.active_at(t):
                assert value > 0.8
            else:
                assert value < 0.8

    def test_memory_stress_oom_logs(self):
        scenario = fault_scenario(FaultType.MemoryStress)
        fault = scenario.faults[0]
        telemetry = telemetry_for(scenario)
        assert fault.magnitude >= 0.95
        lines = [line for line in telemetry.all_logs((fault.start_s, fault.end_s))
                 if line.pod == fault.location_id]
        assert any("OOM" in line.text for line in lines)

    @pytest.mark.parametrize("magnitude, body", [
        (0.9, "WARN memory pressure high, reclaiming caches"),
        (0.95, "ERROR OOM killer invoked for worker process"),
    ], ids=["below-0.95", "at-0.95"])
    def test_memory_stress_log_line_by_magnitude(self, magnitude, body):
        scenario = fault_scenario(FaultType.MemoryStress)
        fault = dataclasses.replace(scenario.faults[0], magnitude=magnitude)
        telemetry = render_telemetry(dataclasses.replace(scenario, faults=[fault]))
        lines = [line for line in telemetry.all_logs((fault.start_s, fault.end_s))
                 if line.pod == fault.location_id]
        assert [line.text for line in lines if not line.text.startswith("INFO")] == [
            f"{body} (t={t})" for t in range(fault.start_s, fault.end_s, SAMPLE_PERIOD_S)]

    def test_pod_failure_phase_and_spans(self):
        scenario = fault_scenario(FaultType.PodFailure)
        fault = scenario.faults[0]
        telemetry = telemetry_for(scenario)
        assert telemetry.pod_phase(fault.location_id) == "failed"
        # the phase is read at the incident time, midway through the first
        # fault: a PodFailure that starts after it leaves the pod running
        stress = dataclasses.replace(fault, fault_type=FaultType.CpuStress, magnitude=0.9)
        later = dataclasses.replace(fault, start_s=fault.end_s, duration_s=30)
        before = dataclasses.replace(scenario, faults=[stress, later], ground_truth=GroundTruth(
            (fault.location_id,), ("CpuStress", "PodFailure")))
        assert render_telemetry(before).pod_phase(fault.location_id) == "running"
        service = telemetry.topology.pod(fault.location_id).service
        error_spans = [
            span
            for trace in telemetry.query_traces((fault.start_s, fault.end_s))
            for span in trace.spans if span.status == "error"
        ]
        assert error_spans
        assert all(span.error_message == "Service unavailable" for span in error_spans)
        assert any(span.service == service for span in error_spans)

    def test_network_delay_on_edge_shifts_span_durations(self):
        # hand-built edge fault so the expected duration delta is exact
        scenario = EpisodeScenario(
            id="scn-edge-delay", topology_name="online-boutique", seed=21,
            window=(0, 600),
            faults=[FaultSpec(FaultType.NetworkDelay, "edge:checkoutservice->paymentservice",
                              180, 240, 300.0)],
            ground_truth=GroundTruth(("checkoutservice->paymentservice",), ("NetworkDelay",)),
        )
        telemetry = render_telemetry(scenario)
        baseline = telemetry.topology.edge("checkoutservice", "paymentservice").base_latency_ms
        for trace in telemetry.query_traces():
            for span in trace.spans:
                if span.span_id.endswith("checkoutservice/paymentservice"):
                    if scenario.faults[0].active_at(trace.t_s):
                        assert span.duration_ms >= baseline + 300.0
                    else:
                        assert span.duration_ms < baseline + 300.0

    def test_delay_leaves_unrelated_spans_unchanged(self):
        # spans for edges with no path through the faulted edge are identical
        # to the same-seed no-fault rendering
        scenario = EpisodeScenario(
            id="scn-edge-delay-loc", topology_name="online-boutique", seed=22,
            window=(0, 600),
            faults=[FaultSpec(FaultType.NetworkDelay, "edge:checkoutservice->paymentservice",
                              180, 240, 300.0)],
            ground_truth=GroundTruth(("checkoutservice->paymentservice",), ("NetworkDelay",)),
        )
        quiet = EpisodeScenario(
            id=scenario.id, topology_name=scenario.topology_name, seed=scenario.seed,
            window=scenario.window, faults=[], ground_truth=GroundTruth((), ()),
        )
        faulted = {(t.trace_id, s.span_id): s
                   for t in render_telemetry(scenario).query_traces() for s in t.spans}
        baseline = {(t.trace_id, s.span_id): s
                    for t in render_telemetry(quiet).query_traces() for s in t.spans}
        assert faulted.keys() == baseline.keys()
        # payment sits under frontend/checkoutservice only; adservice and the
        # recommendation branch never cross the faulted edge
        for key, span in baseline.items():
            if "adservice" in key[1] or "recommendationservice" in key[1]:
                assert faulted[key] == span

    def test_delay_leaves_unrelated_service_metrics_unchanged(self):
        scenario = EpisodeScenario(
            id="scn-edge-delay-met", topology_name="online-boutique", seed=23,
            window=(0, 600),
            faults=[FaultSpec(FaultType.NetworkDelay, "edge:checkoutservice->paymentservice",
                              180, 240, 300.0)],
            ground_truth=GroundTruth(("checkoutservice->paymentservice",), ("NetworkDelay",)),
        )
        quiet = EpisodeScenario(
            id=scenario.id, topology_name=scenario.topology_name, seed=scenario.seed,
            window=scenario.window, faults=[], ground_truth=GroundTruth((), ()),
        )
        faulted = render_telemetry(scenario)
        baseline = render_telemetry(quiet)
        for service in faulted.topology.services:
            if service == "paymentservice":
                continue  # the callee side of the faulted edge deviates by design
            for metric in ("request_latency_ms", "error_rate", "throughput_rps"):
                assert (faulted.query_metrics(service, metric).samples
                        == baseline.query_metrics(service, metric).samples), (service, metric)

    def test_locality_unaffected_streams_identical(self):
        # streams not on any path through the fault target must be byte-equal
        # to the same-seed no-fault rendering
        scenario = fault_scenario(FaultType.CpuStress)
        fault = scenario.faults[0]
        quiet = EpisodeScenario(
            id=scenario.id, topology_name=scenario.topology_name, seed=scenario.seed,
            window=scenario.window, faults=[], ground_truth=GroundTruth((), ()),
        )
        faulted = telemetry_for(scenario)
        baseline = render_telemetry(quiet)
        for pod in faulted.topology.pods:
            if pod.id == fault.location_id:
                continue
            for metric in POD_METRIC_BASELINES:
                assert (faulted.query_metrics(pod.id, metric).samples
                        == baseline.query_metrics(pod.id, metric).samples)

    def test_bandwidth_scales_node_throughput(self):
        scenario = fault_scenario(FaultType.NetworkBandwidth)
        fault = scenario.faults[0]
        telemetry = telemetry_for(scenario)
        for node_id in fault.node_pair():
            series = telemetry.query_metrics(node_id, "node_network_throughput_bytes")
            in_window = [v for t, v in series.samples if fault.active_at(t)]
            outside = [v for t, v in series.samples if not fault.active_at(t)]
            assert max(in_window) < min(outside)

    @pytest.mark.parametrize("fault_type", [
        FaultType.NetworkLoss, FaultType.NetworkDuplicate, FaultType.NetworkCorrupt,
        FaultType.NetworkPartition, FaultType.NetworkBandwidth,
    ])
    def test_network_fault_signature_rows(self, fault_type):
        scenario = fault_scenario(fault_type)
        fault = scenario.faults[0]
        telemetry = telemetry_for(scenario)
        topo = telemetry.topology
        t = fault.start_s + SAMPLE_PERIOD_S
        assert fault.active_at(t) and t in telemetry.sample_times()
        window = (fault.start_s, fault.end_s)
        callees = {edge.dst for edge in fault.affected_edges(topo)}
        if fault_type == FaultType.NetworkBandwidth:
            # the same seed draws the same nominal samples
            twin = render_telemetry(dataclasses.replace(
                scenario, faults=[], ground_truth=GroundTruth((), ())))
            for service in callees:
                latency = twin.metric_value(service, "request_latency_ms", t)
                throughput = twin.metric_value(service, "throughput_rps", t)
                assert abs(telemetry.metric_value(service, "request_latency_ms", t)
                           - latency / fault.magnitude) <= 1e-6 / fault.magnitude, service
                assert abs(telemetry.metric_value(service, "throughput_rps", t)
                           - throughput * fault.magnitude) <= 1e-6, service
            return
        if fault_type == FaultType.NetworkPartition:
            callees = {topo.pod(fault.location_id).service}
            rate, message = 1.0, "connection refused"
        else:
            rate = fault.magnitude
            message = {FaultType.NetworkLoss: "timeout",
                       FaultType.NetworkDuplicate: "duplicate ack",
                       FaultType.NetworkCorrupt: "checksum mismatch"}[fault_type]
        for service in callees:
            assert telemetry.metric_value(service, "error_rate", t) == rate, service
        spans = telemetry.error_spans(window)
        assert spans and {span.error_message for span in spans} == {message}
        if fault_type == FaultType.NetworkPartition:
            cut = {(span.trace_id, span.span_id) for span in spans}
            assert not [span for trace in telemetry.query_traces(window)
                        for span in trace.spans if (span.trace_id, span.parent_span_id) in cut]


class TestQueries:
    def test_query_outside_window_is_empty(self):
        telemetry = telemetry_for(no_fault_scenario())
        series = telemetry.query_metrics("frontend-0", "cpu_usage", (10_000, 20_000))
        assert series.samples == ()
        assert telemetry.all_logs((10_000, 20_000)) == []
        assert telemetry.query_traces((10_000, 20_000)) == []

    def test_unknown_component_and_metric(self):
        telemetry = telemetry_for(no_fault_scenario())
        with pytest.raises(NotFoundError):
            telemetry.query_metrics("ghost-0", "cpu_usage")
        with pytest.raises(NotFoundError):
            telemetry.query_metrics("frontend-0", "bogus_metric")
        with pytest.raises(NotFoundError):
            telemetry.query_metrics("frontend-0", "request_latency_ms")  # service metric

    def test_log_union_partitions_full_set(self):
        # "handled" occurs in every heartbeat line, so each pod's anomalous
        # lines are all its lines
        telemetry = telemetry_for(no_fault_scenario())
        cfg = DetectorConfig(anomaly_keywords=("handled",))
        union = []
        for pod in telemetry.topology.pods:
            union.extend(telemetry.anomalous_logs(cfg, pod.id))
        assert sorted(union, key=lambda l: (l.t_s, l.pod, l.text)) == telemetry.all_logs()

    def test_traces_form_single_rooted_trees(self):
        for scenario in (no_fault_scenario(), fault_scenario(FaultType.NetworkLoss),
                         fault_scenario(FaultType.PodFailure)):
            telemetry = telemetry_for(scenario)
            for trace in telemetry.query_traces():
                ids = {span.span_id for span in trace.spans}
                assert len(ids) == len(trace.spans)
                roots = [s for s in trace.spans if s.parent_span_id is None]
                assert len(roots) == 1
                for span in trace.spans:
                    if span.parent_span_id is not None:
                        assert span.parent_span_id in ids


def _pod_failure_scenarios() -> list[EpisodeScenario]:
    """One PodFailure scenario per pod of the topology."""
    pods = sorted(pod.id for pod in load_fixture("online-boutique").pods)
    return [EpisodeScenario(
        id=f"scn-podfailure-{pod}", topology_name="online-boutique", seed=17, window=(0, 600),
        faults=[FaultSpec(FaultType.PodFailure, f"pod:{pod}", 150, 240, 1.0)],
        ground_truth=GroundTruth((pod,), ("PodFailure",)),
    ) for pod in pods]


class TestDeterminism:
    def test_byte_identical_serialization(self):
        scenario = generate_scenario(123)
        a = render_telemetry(scenario).export_lines()
        b = render_telemetry(scenario).export_lines()
        assert a == b

    def test_content_hash_stable(self):
        scenario = generate_scenario(124)
        assert render_telemetry(scenario).content_hash() \
            == render_telemetry(scenario).content_hash()

    def test_alert_deterministic(self):
        scenario = fault_scenario(FaultType.NetworkDelay)
        telemetry = telemetry_for(scenario)
        assert render_alert(telemetry) == render_alert(telemetry)
        assert "INCIDENT ALERT" in render_alert(telemetry)

    def test_the_alert_never_reads_a_pod_phase(self, monkeypatch):
        def unread(self, *args, **kwargs):
            raise AssertionError("the alert read a pod phase")

        monkeypatch.setattr(Telemetry, "pod_phase", unread)
        monkeypatch.setattr(Telemetry, "pod_phases", unread)
        for scenario in ([case.scenario for case in golden.golden_cases("default")]
                         + _pod_failure_scenarios()):
            assert "detected_at_s" in render_alert(render_telemetry(scenario)), scenario.id

    @pytest.mark.parametrize("scenarios", [
        _pod_failure_scenarios,
        lambda: generate_corpus(1702, 18, ScenarioConfig(faults_per_scenario=2)),
        lambda: generate_corpus(1703, 18, ScenarioConfig(faults_per_scenario=3)),
    ], ids=["each-pod", "two-faults", "three-faults"])
    def test_every_failed_pod_tick_has_an_error_span(self, scenarios):
        # so a pod-state alert candidate could never beat the trace sweep's
        failed_pods = set()
        for scenario in scenarios():
            telemetry = render_telemetry(scenario)
            start, end = scenario.window
            for t in range(start, end, SAMPLE_PERIOD_S):
                failed = sorted({fault.location_id for fault in scenario.faults
                                 if fault.fault_type == FaultType.PodFailure
                                 and fault.active_at(t)})
                if failed:
                    assert telemetry.error_spans((t, t + 1)), (scenario.id, t, failed)
                failed_pods.update(failed)
        assert failed_pods  # the scenarios do fail pods


def test_only_the_effect_table_reads_fault_types():
    # the module docstring's fault signature table has one implementation,
    # ``_Effects``; the rest of the renderer looks effects up in it
    import ast
    import pathlib
    allowed = ("_Effects", "Telemetry._render_fault_logs")
    tree = ast.parse(pathlib.Path(telemetry_module.__file__).read_text(encoding="utf-8"))
    offenders = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Attribute) and child.attr == "fault_type"
                  and not any(scope == name or scope.startswith(name + ".")
                              for name in allowed)):
                offenders.append(f"{scope or '<module>'}:{child.lineno}")
            visit(child, inner)

    visit(tree, "")
    assert offenders == []
