import dataclasses

import pytest

from sopflow.agents import Ablations, ActionCandidate, StepRecord, mandated_candidates
from sopflow.errors import GenerationParseError, ProgramValidationError, ValidationError
from sopflow.kb import KnowledgeBase, SopDoc
from sopflow.llm import ScriptEntry
from sopflow.sandbox import FaultType
from sopflow.tools import (
    ALL_TOOL_NAMES,
    PROGRAM_TOOL_CATEGORIES,
    ToolRegistry,
    ToolSpec,
    build_registry,
    parse_causes,
)
from sopflow.tools.sop_flow import generate_sop, generate_sop_code, match_sop
from sopflow.tools.terminal import speak

from conftest import fault_scenario, make_ctx, no_fault_scenario, scripted_backend
from reference import reference_digest


class TestRegistry:
    def test_every_tool_and_its_category(self, registry):
        assert {spec.name: spec.category for spec in registry.specs()} == {
            "whether_is_abnormal_metric": "observability",
            "collect_trace": "observability",
            "kubectl_logs": "observability",
            "match_sop": "sop_flow",
            "generate_sop": "sop_flow",
            "generate_sop_code": "sop_flow",
            "run_sop": "sop_flow",
            "match_observation": "sop_flow",
            "pod_analyze": "analysis",
            "node_analyze": "analysis",
            "service_analyze": "analysis",
            "deployment_analyze": "analysis",
            "statefulset_analyze": "analysis",
            "run_kubectl_command": "analysis",
            "get_all_namespace": "analysis",
            "get_relevant_metric": "analysis",
            "speak": "terminal",
        }
        assert registry.names() == ALL_TOOL_NAMES

    def test_one_shared_registry_without_a_way_to_add_a_tool(self, registry):
        assert registry is build_registry() is build_registry()
        assert not hasattr(registry, "register")

    def test_duplicate_tool_names_are_rejected(self):
        spec = ToolSpec("zz_probe", "A probe.", (), "analysis")
        with pytest.raises(ValidationError, match="duplicate tool name 'zz_probe'"):
            ToolRegistry([(spec, lambda ctx: None), (spec, lambda ctx: None)])

    def test_unknown_tool_is_observation_not_crash(self, registry, quiet_ctx):
        result = registry.execute("frobnicate", {}, quiet_ctx)
        assert not result.success and "unknown tool" in result.observation

    def test_missing_required_arg(self, registry, quiet_ctx):
        result = registry.execute("kubectl_logs", {}, quiet_ctx)
        assert not result.success and "missing required argument" in result.observation

    def test_catalog_text_lists_all(self, registry):
        catalog = registry.catalog_text()
        for name in ALL_TOOL_NAMES:
            assert name in catalog

    def test_catalog_text_is_rendered_once_per_filter(self, registry):
        catalog = registry.catalog_text()
        program = registry.catalog_text(categories=PROGRAM_TOOL_CATEGORIES)
        assert build_registry().catalog_text() is catalog
        assert build_registry().catalog_text(categories=PROGRAM_TOOL_CATEGORIES) is program
        assert "speak" in catalog and "speak" not in program

    def test_a_registry_built_with_an_extra_tool_lists_it(self, registry):
        catalog = registry.catalog_text()
        program = registry.catalog_text(categories=PROGRAM_TOOL_CATEGORIES)
        probe = ToolSpec("zz_probe", "A probe.", (), "analysis")
        # only the catalog is read, so no handler is ever called
        extended = ToolRegistry([*((spec, None) for spec in registry.specs()),
                                 (probe, lambda ctx: None)])
        assert extended.catalog_text() == catalog + "\n- zz_probe() [analysis]: A probe."
        assert (extended.catalog_text(categories=PROGRAM_TOOL_CATEGORIES)
                == program + "\n- zz_probe() [analysis]: A probe.")
        assert registry.catalog_text() is catalog and "zz_probe" not in registry.names()

    def test_threads_sharing_a_registry_read_one_catalog(self, registry):
        import sys
        from concurrent.futures import ThreadPoolExecutor
        fresh = ToolRegistry((spec, None) for spec in registry.specs())
        filters = (None, PROGRAM_TOOL_CATEGORIES) * 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                texts = list(pool.map(fresh.catalog_text, filters, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert texts == [registry.catalog_text(f) for f in filters]

    def test_tools_never_mutate_telemetry(self, registry):
        ctx = make_ctx(fault_scenario(FaultType.PodFailure), registry=registry)
        before = reference_digest(ctx.telemetry)
        calls = [
            ("whether_is_abnormal_metric", {"target": "frontend-0", "metric": "cpu_usage"}),
            ("collect_trace", {}),
            ("kubectl_logs", {"pod": "frontend-0"}),
            ("pod_analyze", {}),
            ("node_analyze", {}),
            ("service_analyze", {}),
            ("deployment_analyze", {}),
            ("statefulset_analyze", {}),
            ("run_kubectl_command", {"command": "get pods"}),
            ("get_all_namespace", {}),
            ("get_relevant_metric", {"query": "latency"}),
            ("speak", {"causes": "frontend-0|PodFailure|phase failed"}),
        ]
        for name, args in calls:
            registry.execute(name, args, ctx)
            assert reference_digest(ctx.telemetry) == before, f"{name} mutated telemetry"


class TestObservabilityTools:
    def test_metric_verdict_nominal(self, registry, quiet_ctx):
        result = registry.execute(
            "whether_is_abnormal_metric",
            {"target": "cartservice-0", "metric": "cpu_usage"}, quiet_ctx)
        assert result.success
        assert "metric cpu_usage on cartservice-0 is normal" in result.observation

    def test_metric_verdict_cpu_stress(self, registry):
        scenario = fault_scenario(FaultType.CpuStress)
        ctx = make_ctx(scenario, registry=registry)
        fault = scenario.faults[0]
        result = registry.execute(
            "whether_is_abnormal_metric",
            {"target": fault.location_id, "metric": "cpu_usage",
             "start_s": fault.start_s, "end_s": fault.end_s}, ctx)
        assert "is anomalous (above)" in result.observation

    def test_metric_unknown_name_is_tool_error_text(self, registry, quiet_ctx):
        result = registry.execute(
            "whether_is_abnormal_metric",
            {"target": "cartservice-0", "metric": "warp_factor"}, quiet_ctx)
        assert not result.success and "unknown metric" in result.observation

    def test_collect_trace_quiet(self, registry, quiet_ctx):
        result = registry.execute("collect_trace", {}, quiet_ctx)
        assert "no abnormal spans" in result.observation

    def test_collect_trace_pod_failure(self, registry):
        scenario = fault_scenario(FaultType.PodFailure)
        ctx = make_ctx(scenario, registry=registry)
        service = ctx.telemetry.topology.pod(scenario.faults[0].location_id).service
        result = registry.execute("collect_trace", {}, ctx)
        assert service in result.observation
        assert "Service unavailable" in result.observation

    def test_collect_trace_two_faulted_edges(self, registry):
        from sopflow.sandbox import EpisodeScenario, FaultSpec, GroundTruth
        scenario = EpisodeScenario(
            id="scn-two-edges", topology_name="online-boutique", seed=31, window=(0, 600),
            faults=[
                FaultSpec(FaultType.NetworkLoss, "edge:checkoutservice->paymentservice",
                          150, 300, 0.9),
                FaultSpec(FaultType.NetworkCorrupt, "edge:frontend->adservice",
                          150, 300, 0.9),
            ],
            ground_truth=GroundTruth(
                ("checkoutservice->paymentservice", "frontend->adservice"),
                ("NetworkCorrupt", "NetworkLoss"),
            ),
        )
        ctx = make_ctx(scenario, registry=registry)
        result = registry.execute("collect_trace", {}, ctx)
        assert "timeout" in result.observation
        assert "checksum mismatch" in result.observation

    def test_kubectl_logs_quiet_pod(self, registry, quiet_ctx):
        result = registry.execute("kubectl_logs", {"pod": "adservice-0"}, quiet_ctx)
        assert "no abnormal logs" in result.observation

    def test_kubectl_logs_oom(self, registry):
        scenario = fault_scenario(FaultType.MemoryStress)
        ctx = make_ctx(scenario, registry=registry)
        result = registry.execute(
            "kubectl_logs", {"pod": scenario.faults[0].location_id}, ctx)
        assert "OOM" in result.observation

    def test_kubectl_logs_unknown_pod(self, registry, quiet_ctx):
        result = registry.execute("kubectl_logs", {"pod": "ghost-0"}, quiet_ctx)
        assert not result.success and "unknown pod" in result.observation


class TestAnalysisTools:
    def test_healthy_fixture_all_running(self, registry, quiet_ctx):
        result = registry.execute("pod_analyze", {}, quiet_ctx)
        rows = result.observation.splitlines()[1:]
        assert len(rows) == 11 and all("running" in row for row in rows)

    def test_pod_failure_reported_exactly_once(self, registry):
        scenario = fault_scenario(FaultType.PodFailure)
        ctx = make_ctx(scenario, registry=registry)
        result = registry.execute("pod_analyze", {}, ctx)
        failed_rows = [row for row in result.observation.splitlines() if "failed" in row]
        assert len(failed_rows) == 1
        assert scenario.faults[0].location_id in failed_rows[0]

    def test_node_table_cardinality(self, registry, quiet_ctx):
        result = registry.execute("node_analyze", {}, quiet_ctx)
        assert len(result.observation.splitlines()) == 1 + 3

    def test_kubectl_get_nodes_counts_each_nodes_pods(self, registry, quiet_ctx):
        topo = quiet_ctx.telemetry.topology
        result = registry.execute("run_kubectl_command", {"command": "get nodes"}, quiet_ctx)
        header, *rows = result.observation.splitlines()
        column = header.split().index("PODS")
        counts = {row.split()[0]: int(row.split()[column]) for row in rows}
        assert counts == {node.id: len([p for p in topo.pods if p.node == node.id])
                          for node in topo.nodes}
        assert sum(counts.values()) == len(topo.pods)
        assert len(set(counts.values())) > 1  # the nodes do not all hold the same share

    def test_kubectl_get_pods_matches_pod_analyze(self, registry, quiet_ctx):
        direct = registry.execute("pod_analyze", {}, quiet_ctx)
        via_kubectl = registry.execute("run_kubectl_command", {"command": "get pods"},
                                       quiet_ctx)
        assert via_kubectl.observation == direct.observation

    @pytest.mark.parametrize("command, tool, args", [
        ("kubectl get pods", "pod_analyze", {}),
        ("logs frontend-0", "kubectl_logs", {"pod": "frontend-0"}),
        ("kubectl logs cartservice-0", "kubectl_logs", {"pod": "cartservice-0"}),
    ])
    def test_kubectl_command_matches_the_direct_tool(self, registry, quiet_ctx,
                                                     command, tool, args):
        via_kubectl = registry.execute("run_kubectl_command", {"command": command}, quiet_ctx)
        assert via_kubectl.success
        assert via_kubectl.observation == registry.execute(tool, args, quiet_ctx).observation

    @pytest.mark.parametrize("command", ["", "   ", "kubectl"])
    def test_kubectl_empty_command_rejected(self, registry, quiet_ctx, command):
        result = registry.execute("run_kubectl_command", {"command": command}, quiet_ctx)
        assert not result.success
        assert result.observation.startswith("tool error: empty command; supported: ")

    def test_kubectl_write_commands_rejected(self, registry, quiet_ctx):
        result = registry.execute("run_kubectl_command",
                                  {"command": "delete pod frontend-0"}, quiet_ctx)
        assert not result.success and "unsupported command" in result.observation

    def test_kubectl_describe_pod(self, registry, quiet_ctx):
        result = registry.execute("run_kubectl_command",
                                  {"command": "describe pod frontend-0"}, quiet_ctx)
        assert "Name:     frontend-0" in result.observation
        result = registry.execute("run_kubectl_command",
                                  {"command": "describe pod ghost-0"}, quiet_ctx)
        assert not result.success
        assert result.observation == "tool error: unknown pod 'ghost-0'"

    @staticmethod
    def _pod_failure_at(pod: str | None):
        """The PodFailure fixture scenario, its fault moved to ``pod`` if named."""
        scenario = fault_scenario(FaultType.PodFailure)
        if pod is None:
            return scenario
        fault = dataclasses.replace(scenario.faults[0], target=f"pod:{pod}")
        return dataclasses.replace(
            scenario, id=f"{scenario.id}-{pod}", faults=(fault,),
            ground_truth=dataclasses.replace(scenario.ground_truth, locations=(pod,)))

    @staticmethod
    def _table(registry, tool: str, ctx) -> dict[str, list[str]]:
        """A status table's rows keyed by their first column, its header under "header"."""
        header, *rows = registry.execute(tool, {}, ctx).observation.splitlines()
        return {"header": header.split(), **{row.split()[0]: row.split()[1:] for row in rows}}

    @pytest.mark.parametrize("pod", [None, "redis-cart-0"], ids=["deployment", "statefulset"])
    def test_ready_columns_count_the_pods_left_running(self, registry, pod):
        # expected values come from the topology and the fault list, not from pod_phases
        scenario = self._pod_failure_at(pod)
        ctx = make_ctx(scenario, registry=registry)
        topo = ctx.telemetry.topology
        down = topo.pod(scenario.faults[0].location_id).service
        size = {service: len(topo.pods_of(service)) for service in topo.services}
        ready = {service: 0 if service == down else n for service, n in size.items()}
        assert self._table(registry, "service_analyze", ctx) == {
            "header": ["SERVICE", "PODS", "READY", "HEALTH"],
            **{service: [str(size[service]), str(ready[service]),
                         "degraded" if service == down else "ok"] for service in size}}
        workloads = {}
        for tool, kind in (("deployment_analyze", "DEPLOYMENT"),
                           ("statefulset_analyze", "STATEFULSET")):
            table = self._table(registry, tool, ctx)
            assert table.pop("header") == [kind, "DESIRED", "READY"]
            assert all(row == [str(size[service]), str(ready[service])]
                       for service, row in table.items())
            workloads[kind] = sorted(table)
        assert workloads["STATEFULSET"] == ["redis-cart"]
        assert workloads["DEPLOYMENT"] == sorted(set(size) - {"redis-cart"})

    def test_kubectl_describe_pod_is_ready_only_while_running(self, registry):
        ctx = make_ctx(fault_scenario(FaultType.PodFailure))
        down = ctx.telemetry.scenario.faults[0].location_id
        up = next(pod.id for pod in ctx.telemetry.topology.pods if pod.id != down)
        described = {pod: registry.execute("run_kubectl_command",
                                           {"command": f"describe pod {pod}"}, ctx).observation
                     for pod in (up, down)}
        assert described[up].endswith("\nPhase:    running\nReady:    True")
        assert described[down].endswith("\nPhase:    failed\nReady:    False")

    def test_get_all_namespace(self, registry, quiet_ctx):
        result = registry.execute("get_all_namespace", {}, quiet_ctx)
        assert "default" in result.observation

    def test_get_relevant_metric_ranks_substring_first(self, registry, quiet_ctx):
        result = registry.execute("get_relevant_metric", {"query": "cpu"}, quiet_ctx)
        assert len(result.payload) == 5
        assert "cpu" in result.payload[0]

    def test_get_relevant_metric_empty_query(self, registry, quiet_ctx):
        result = registry.execute("get_relevant_metric", {"query": "  "}, quiet_ctx)
        assert not result.success


class TestSopFlowTools:
    def _kb_with(self, backend, *docs):
        kb = KnowledgeBase(backend)
        for doc in docs:
            kb.add_sop(doc)
        return kb

    def test_match_sop_sets_context(self, registry):
        backend = scripted_backend()
        kb = self._kb_with(backend, SopDoc(id="sop-x", name="target procedure", steps=["s"]))
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend, kb=kb)
        result = match_sop(ctx, query="target procedure")
        assert result.payload[0].item_id == "sop-x"
        assert ctx.sop.sop.id == "sop-x"

    def test_generate_sop_scripted_roundtrip(self, registry):
        backend = scripted_backend(script=[ScriptEntry(
            "ROLE: procedure-author",
            "SOP NAME: IO error diagnosis\nSTEPS:\n1. Check disk metrics.\n2. Check volume mounts.",
        )])
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend,
                       kb=KnowledgeBase(backend))
        result = generate_sop(ctx, fault_info="IO errors on the data volume")
        doc = result.payload
        assert doc.name == "IO error diagnosis"
        assert len(doc.steps) == 2 and doc.level == 0
        assert ctx.kb.get_sop(doc.id) is doc

    def test_generate_sop_reply_without_steps_fails_parse(self, registry):
        backend = scripted_backend(script=[ScriptEntry(
            "ROLE: procedure-author", "SOP NAME: Disk full\nSTEPS:\n(to be decided)",
        )])
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend,
                       kb=KnowledgeBase(backend))
        with pytest.raises(GenerationParseError, match="reply has no step list"):
            generate_sop(ctx, fault_info="disk full")
        assert ctx.kb.list_sops() == []

    def test_generate_sop_prose_reply_fails_parse(self, registry):
        backend = scripted_backend(script=[ScriptEntry(
            "ROLE: procedure-author", "I think you should look at the disks maybe.",
        )])
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend,
                       kb=KnowledgeBase(backend))
        with pytest.raises(GenerationParseError):
            generate_sop(ctx, fault_info="IO errors")

    def test_generated_sop_retrievable_by_its_name(self, registry):
        # self-match property: querying the generated name returns it first
        fault_info = "database connection pool exhausted"
        backend = scripted_backend(script=[ScriptEntry(
            "ROLE: procedure-author",
            f"SOP NAME: {fault_info}\nSTEPS:\n1. Check pool size.",
        )])
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend,
                       kb=KnowledgeBase(backend))
        generate_sop(ctx, fault_info=fault_info)
        matches = ctx.kb.match_sop(fault_info, k=1, threshold=0.5)
        assert matches[0][0].name == fault_info
        assert matches[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_generated_sop_ids_get_a_suffix_on_a_name_collision(self, registry):
        backend = scripted_backend(script=[ScriptEntry(
            "ROLE: procedure-author", "SOP NAME: Disk full\nSTEPS:\n1. Check usage.",
        )])
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend,
                       kb=KnowledgeBase(backend))
        ids = [generate_sop(ctx, fault_info="disk full").payload.id for _ in range(3)]
        assert ids == ["gen-disk-full", "gen-disk-full-2", "gen-disk-full-3"]

    def test_generate_sop_refinement_level(self, registry):
        backend = scripted_backend(script=[ScriptEntry(
            "ROLE: procedure-author",
            "SOP NAME: Network partition drill-down\nSTEPS:\n1. Check reachability per edge.",
        )])
        kb = self._kb_with(backend, SopDoc(id="sop-net", name="network issues",
                                           steps=["broad check"], level=1))
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend, kb=kb)
        result = generate_sop(ctx, fault_info="partition suspected", parent_sop_id="sop-net")
        assert result.payload.level == 2

    def test_generate_sop_code_valid_program(self, registry):
        program_text = (
            '```\nlet pods = pod_analyze()\nfinding("phases:", pods)\n```'
        )
        backend = scripted_backend(script=[ScriptEntry("ROLE: procedure-coder", program_text)])
        kb = self._kb_with(backend, SopDoc(id="sop-x", name="pods check", steps=["list pods"]))
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend, kb=kb)
        result = generate_sop_code(ctx, sop_id="sop-x")
        assert result.success and len(result.payload) == 2
        assert ctx.sop.program is result.payload

    def test_generate_sop_code_unknown_tool_rejected(self, registry):
        backend = scripted_backend(script=[ScriptEntry(
            "ROLE: procedure-coder", "```\nfrobnicate(x=1)\n```",
        )])
        kb = self._kb_with(backend, SopDoc(id="sop-x", name="n", steps=["s"]))
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend, kb=kb)
        with pytest.raises(ProgramValidationError) as excinfo:
            generate_sop_code(ctx, sop_id="sop-x")
        assert "frobnicate" in str(excinfo.value)
        assert ctx.sop.program is None

    def test_run_sop_via_registry_and_flow_state(self, registry):
        scenario = fault_scenario(FaultType.CpuStress)
        fault = scenario.faults[0]
        program_text = (
            f'```\nlet usage = whether_is_abnormal_metric(target="{fault.location_id}", '
            f'metric="cpu_usage")\n'
            f'if contains(usage, "anomalous"): finding("cpu anomaly", usage)\n```'
        )
        backend = scripted_backend(script=[ScriptEntry("ROLE: procedure-coder", program_text)])
        kb = self._kb_with(backend, SopDoc(id="sop-cpu", name="cpu check",
                                           steps=["check cpu"]))
        ctx = make_ctx(scenario, registry=registry, backend=backend, kb=kb)
        generate_sop_code(ctx, sop_id="sop-cpu")
        result = registry.execute("run_sop", {}, ctx)
        assert result.success
        assert fault.location_id in result.observation and "cpu" in result.observation
        assert ctx.sop.last_findings.startswith("- cpu anomaly")

    def test_run_sop_failing_at_runtime_is_regenerated(self, registry):
        # the program validates (argument names only), and its second call
        # fails when it runs
        program_text = ('```\nlet pods = pod_analyze()\n'
                        'let logs = kubectl_logs(pod="ghost-0")\nfinding("logs", logs)\n```')
        backend = scripted_backend(script=[ScriptEntry("ROLE: procedure-coder", program_text)])
        kb = self._kb_with(backend, SopDoc(id="sop-x", name="logs check", steps=["read logs"]))
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend, kb=kb)
        generate_sop_code(ctx, sop_id="sop-x")
        ctx.sop.last_findings = "- earlier findings"
        result = registry.execute("run_sop", {}, ctx)
        assert not result.success and result.error == "unknown pod 'ghost-0'"
        assert result.observation == (
            "program failed at statement 1: unknown pod 'ghost-0'\ntrace:\n"
            "0: pod_analyze() -> ok\n1: failed: unknown pod 'ghost-0'")
        assert ctx.sop.last_findings == "- earlier findings"

        chosen = ActionCandidate(tool="run_sop", args={})
        prev = StepRecord(index=2, chosen=chosen, result=result)
        out = mandated_candidates(3, prev, None, "INCIDENT ALERT", Ablations())
        assert [(c.tool, c.rule, c.args) for c in out] == [("generate_sop_code", "R5", {})]

    def test_generate_sop_code_without_a_procedure(self, registry, quiet_ctx):
        result = registry.execute("generate_sop_code", {}, quiet_ctx)
        assert not result.success
        assert result.observation == ("tool error: no procedure in context; "
                                      "run match_sop or generate_sop first")

    def test_run_sop_without_program(self, registry, quiet_ctx):
        result = registry.execute("run_sop", {}, quiet_ctx)
        assert not result.success and "no validated program" in result.observation

    def test_match_observation_defaults_to_findings(self, registry):
        backend = scripted_backend()
        ctx = make_ctx(no_fault_scenario(), registry=registry, backend=backend,
                       kb=KnowledgeBase(backend))
        result = registry.execute("match_observation", {}, ctx)
        assert not result.success and "no observation available" in result.observation


class TestSpeak:
    def test_single_cause(self, registry, quiet_ctx):
        result = registry.execute(
            "speak", {"causes": "cartservice-0|CpuStress|usage pegged"}, quiet_ctx)
        assert result.success
        assert "location=cartservice-0 type=CpuStress" in result.observation
        assert len(result.payload) == 1 and "truncated" not in result.observation

    def test_four_causes_truncated_with_warning(self, quiet_ctx):
        causes = "; ".join(f"pod-{i}|CpuStress|c{i}" for i in range(4))
        result = speak(quiet_ctx, causes=causes)
        assert len(result.payload) == 3
        assert "warning: 4 causes reported, truncated to 3" in result.observation
        # highest-confidence (earliest) causes survive
        assert [c.location for c in result.payload] == ["pod-0", "pod-1", "pod-2"]

    def test_zero_causes_rejected(self, quiet_ctx):
        with pytest.raises(ValidationError):
            speak(quiet_ctx, causes="  ")

    def test_malformed_cause_rejected(self):
        with pytest.raises(ValidationError):
            parse_causes("just words without separators")
