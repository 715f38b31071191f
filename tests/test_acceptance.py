"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

import pytest

from sopflow.agents import AgentConfig, Ablations, JudgeVerdict, run_episode, transcript_lines
from sopflow.agents.flow_rules import mandated_candidates
from sopflow.evaluation import (
    EpisodeRow,
    average_path_length,
    build_row,
    location_accuracy,
    type_accuracy,
)
from sopflow.golden import MODES, expected_path, golden_cases, make_golden_kb
from sopflow.kb import KnowledgeBase, SopDoc
from sopflow.llm import BackendConfig, ScriptEntry, make_backend
from sopflow.prompts import (
    FLOW_GUIDE,
    ROLE_ACTION,
    ROLE_JUDGE,
    ROLE_OBSERVER,
    ROLE_SELECT,
    ROLE_THOUGHT,
)
from sopflow.sandbox import FaultType
from sopflow.sandbox.telemetry import METRIC_CATALOG
from sopflow.tools import RootCause, build_registry, parse_program, run_program, validate_program

from conftest import action_sets, fault_scenario, make_ctx, no_fault_scenario, scripted_backend


def _passed(number, name, started):
    print(f"ACCEPTANCE {number} {name}: PASS ({time.monotonic() - started:.2f}s)")


def _row(loc_c, loc_i, gt_count):
    return EpisodeRow(
        scenario_id="x", outcome="completed",
        predicted_locations=(), predicted_types=(),
        gt_locations=tuple(f"g{i}" for i in range(gt_count)),
        gt_types=("T",),
        loc_correct=loc_c, loc_incorrect=loc_i, type_correct=0, type_incorrect=0,
        path_length=1, path=("a",),
    )


def test_acceptance_1_metric_formula_fidelity():
    started = time.monotonic()
    # hand-evaluated cases of the penalized-accuracy formula
    assert location_accuracy([_row(2, 1, 3)], sigma=0.1) \
        == pytest.approx(0.6333333333333333, abs=1e-9)
    assert location_accuracy([_row(3, 0, 3)], sigma=0.1) == 1.0
    assert location_accuracy([_row(0, 0, 5)], sigma=0.1) == 0.0
    assert type_accuracy(
        [EpisodeRow("x", "completed", (), (), ("g",), ("A", "B", "C"),
                    0, 0, 2, 1, 1, ("a",))], sigma=0.1,
    ) == pytest.approx(0.6333333333333333, abs=1e-9)

    # sigma monotonicity over randomized row sets
    rng = random.Random(40351)
    cases = 0
    while cases < 1000:
        rows = [
            _row(rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))
        ]
        if sum(r.loc_incorrect for r in rows) == 0:
            continue  # strict decrease needs at least one penalized prediction
        sigma_lo = rng.uniform(0.0, 0.5)
        sigma_hi = sigma_lo + rng.uniform(0.01, 0.5)
        assert location_accuracy(rows, sigma_hi) < location_accuracy(rows, sigma_lo)
        cases += 1

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"criterion 1 exceeded budget: {elapsed:.2f}s"
    _passed(1, "metric formula fidelity", started)


def test_acceptance_2_retrieval_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(60902)

    def oracle(backend, doc_vectors, query, k, threshold):
        # independent scan: local cosine, sort by (-score, id), cut at k
        qv = backend.embed(query).values
        scored = []
        for doc_id, dv in doc_vectors.items():
            dot = sum(a * b for a, b in zip(qv, dv))
            norm = math.sqrt(sum(a * a for a in qv)) * math.sqrt(sum(b * b for b in dv))
            scored.append((doc_id, max(-1.0, min(1.0, dot / norm))))
        scored.sort(key=lambda p: (-p[1], p[0]))
        return [(i, s) for i, s in scored if s >= threshold][:k]

    queries_run = 0
    trial = 0
    while queries_run < 500:
        trial += 1
        backend = scripted_backend(seed=trial)
        kb = KnowledgeBase(backend)
        size = rng.randint(1, 100)
        docs = []
        for i in range(size):
            doc = SopDoc(id=f"sop-{trial}-{i:03d}",
                         name=f"procedure {rng.randrange(10_000)} variant {i}",
                         steps=["step"])
            kb.add_sop(doc)
            docs.append(doc)
        # each name embedded once per trial, not once per query
        doc_vectors = {doc.id: backend.embed(doc.name).values for doc in docs}
        for _ in range(25):
            query = rng.choice([
                f"procedure {rng.randrange(10_000)}",
                docs[rng.randrange(size)].name,
                f"unrelated text {rng.randrange(10_000)}",
            ])
            k = rng.randint(1, 10)
            threshold = rng.choice([-1.0, 0.0, 0.1, 0.3])
            got = [(d.id, s) for d, s in kb.match_sop(query, k=k, threshold=threshold)]
            want = oracle(backend, doc_vectors, query, k, threshold)
            assert [i for i, _ in got] == [i for i, _ in want]
            for (_, gs), (_, ws) in zip(got, want):
                assert gs == pytest.approx(ws, abs=1e-12)
            queries_run += 1

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 2 exceeded budget: {elapsed:.2f}s"
    _passed(2, "retrieval oracle equivalence", started)


@pytest.fixture(scope="module")
def golden_runs():
    """Two full passes over the default golden corpus, reused by criteria 3 and 4.

    Returns (passes, build_seconds) so criterion 3 can charge the episode runs
    against its runtime budget even though they happen in this fixture.
    """
    build_started = time.monotonic()
    kb_master = make_golden_kb(scripted_backend())
    passes = []
    for _ in range(2):
        results = []
        for case in golden_cases("default"):
            backend = make_backend(BackendConfig(script=list(case.script)))
            result = run_episode(case.scenario, AgentConfig(), backend,
                                 kb_master.clone_in_memory())
            results.append((case.scenario, result))
        passes.append(results)
    return passes, time.monotonic() - build_started


def test_acceptance_3_golden_end_to_end(golden_runs):
    golden_runs, build_seconds = golden_runs
    started = time.monotonic() - build_seconds  # include the episode runs
    first, second = golden_runs
    rows = []
    for scenario, result in first:
        assert result.outcome == "completed"
        assert result.path[-1] == "speak"
        assert result.diagnosis.locations == scenario.ground_truth.locations
        assert result.diagnosis.types == scenario.ground_truth.types
        rows.append(build_row(scenario, result))
    assert location_accuracy(rows, sigma=0.1) == 1.0
    assert type_accuracy(rows, sigma=0.1) == 1.0
    authored_mean = sum(len(expected_path(s, "default")) for s, _ in first) / len(first)
    assert average_path_length(rows) == authored_mean  # exact, no tolerance

    for (_, a), (_, b) in zip(first, second):
        assert "\n".join(transcript_lines(a)) == "\n".join(transcript_lines(b))

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 3 exceeded budget: {elapsed:.2f}s"
    _passed(3, "golden end-to-end suite", started)


def test_acceptance_4_flow_rule_compliance(golden_runs):
    started = time.monotonic()
    ablations = Ablations()
    for scenario, state in golden_runs[0][0]:
        # the judge's verdict as it stood at the end of each step that ran the judge
        judged = {e["step"]: JudgeVerdict(found=e["found"], summary=e["summary"],
                                          causes=tuple(RootCause(*c) for c in e["causes"]))
                  for e in state.events if e["kind"] == "verdict"}
        verdict = None
        candidates = action_sets(state)
        for i, record in enumerate(state.history):
            assert len(candidates[record.index]) <= 5
            keys = {c.key() for c in candidates[record.index]}
            # the executed action was a member of its action set
            assert record.chosen.key() in keys
            prev = state.history[i - 1] if i > 0 else None
            verdict = judged.get(i - 1, verdict)
            for mandated in mandated_candidates(i, prev, verdict, state.alert, ablations):
                assert mandated.key() in keys, (
                    f"{scenario.id} step {i}: {mandated.rule} candidate "
                    f"{mandated.tool} missing from action set"
                )
    _passed(4, "flow-rule compliance", started)


def _random_script(rng: random.Random) -> list[ScriptEntry]:
    tools = ["pod_analyze", "collect_trace", "get_all_namespace", "match_sop",
             "kubectl_logs", "whether_is_abnormal_metric", "speak", "run_sop"]

    def random_action():
        tool = rng.choice(tools)
        if tool == "match_sop":
            return f'ACTION: match_sop(query="query {rng.randrange(100)}") | r'
        if tool == "kubectl_logs":
            return f'ACTION: kubectl_logs(pod="frontend-{rng.randrange(2)}") | r'
        if tool == "whether_is_abnormal_metric":
            return 'ACTION: whether_is_abnormal_metric(target="frontend-0", metric="cpu_usage") | r'
        if tool == "speak":
            causes = "; ".join(f"pod-{i}|T{i}|e" for i in range(rng.randint(1, 5)))
            return f'ACTION: speak(causes="{causes}") | r'
        return f"ACTION: {tool}() | r"

    entries = [ScriptEntry(ROLE_THOUGHT, "thinking...")]
    entries.append(ScriptEntry(
        ROLE_ACTION, "\n".join(random_action() for _ in range(rng.randint(0, 4)))
        or "no ideas"))
    entries.append(ScriptEntry(ROLE_SELECT, rng.choice(["1", "2", "7", "zebra", "0"])))
    entries.append(ScriptEntry(ROLE_OBSERVER, "type: Something - note"))
    entries.append(ScriptEntry(
        ROLE_JUDGE,
        rng.choice(["NOT FOUND: dig more",
                    "FOUND: pod=frontend-0 type=CpuStress; done",
                    "FOUND: " + "; ".join(
                        f"pod=p{i} type=T{i}" for i in range(5))])))
    return entries


def test_acceptance_5_termination_and_caps():
    started = time.monotonic()
    rng = random.Random(52860)
    kb = make_golden_kb(scripted_backend())
    rows = []
    for episode in range(30):
        scenario = fault_scenario(rng.choice(list(FaultType)))
        backend = make_backend(BackendConfig(script=_random_script(rng)))
        state = run_episode(scenario, AgentConfig(), backend, kb.clone_in_memory())
        assert state.step_count <= 20
        assert state.outcome in ("completed", "budget_exhausted", "aborted")
        for candidates in action_sets(state).values():
            assert len(candidates) <= 5
        if state.diagnosis is not None:
            assert 0 < len(state.diagnosis.locations) <= 3
            assert len(state.diagnosis.types) <= 3
        rows.append(build_row(scenario, state))
    # exhausted and aborted episodes stay out of APL's denominator
    completed_lengths = [r.path_length for r in rows if r.outcome == "completed"]
    apl = average_path_length(rows)
    if completed_lengths:
        assert apl == sum(completed_lengths) / len(completed_lengths)
    else:
        assert apl is None
    _passed(5, "termination and caps", started)


def test_acceptance_6_program_interpreter_properties():
    started = time.monotonic()
    registry = build_registry()
    ctx = make_ctx(no_fault_scenario(), registry=registry)
    pods = [p.id for p in ctx.telemetry.topology.pods]
    rng = random.Random(11731)

    generated = 0
    failures_seen = 0
    while generated < 1000:
        lines = []
        bound = []
        for i in range(rng.randint(1, 10)):
            roll = rng.random()
            if roll < 0.55 or not bound:
                var = f"v{i}"
                tool = rng.choice(["pod_analyze", "collect_trace", "get_all_namespace",
                                   "kubectl_logs", "whether_is_abnormal_metric",
                                   "get_relevant_metric"])
                if tool == "kubectl_logs":
                    pod = rng.choice(pods + ["ghost-0", "missing-1"])
                    lines.append(f'let {var} = kubectl_logs(pod="{pod}")')
                elif tool == "whether_is_abnormal_metric":
                    target = rng.choice(pods + ["ghost-0"])
                    metric = rng.choice(list(METRIC_CATALOG) + ["warp_factor"])
                    lines.append(f'let {var} = whether_is_abnormal_metric('
                                 f'target="{target}", metric="{metric}")')
                elif tool == "get_relevant_metric":
                    lines.append(f'let {var} = get_relevant_metric(query="q{i}")')
                else:
                    lines.append(f"let {var} = {tool}()")
                bound.append(var)
            elif roll < 0.8:
                var = rng.choice(bound)
                pred = rng.choice([f'contains({var}, "anomalous")',
                                   f'above({var}, {rng.uniform(-5, 5):.2f})',
                                   f'below({var}, {rng.uniform(-5, 5):.2f})'])
                lines.append(f'if {pred}: finding("conditional", {var})')
            else:
                lines.append(f'finding("note {i}", {rng.choice(bound)})')
        program = parse_program("\n".join(lines))
        assert validate_program(program, registry) == []  # accepted by the validator
        result = run_program(program, ctx)
        if result.success:
            assert result.failing_index is None
            assert len(result.trace) == len(program)
        else:
            failures_seen += 1
            assert len(result.trace) == result.failing_index + 1
            # validation soundness: accepted programs never die on
            # validator-class conditions at runtime
            assert "unbound variable" not in result.error
            assert "unknown tool" not in result.error
        generated += 1

    assert failures_seen > 0, "fuzz corpus never exercised the failure path"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 6 exceeded budget: {elapsed:.2f}s"
    _passed(6, "program interpreter properties", started)


def _anomaly_flags(scenario, registry) -> list[str]:
    """Which of the four inspection tools flag the injected target."""
    ctx = make_ctx(scenario, registry=registry)
    fault = scenario.faults[0]
    window = {"start_s": fault.start_s, "end_s": fault.end_s}
    flags = []

    if fault.target_kind == "nodes":
        components = sorted(fault.node_pair())
        names = set(components)
    else:
        pod = fault.location_id
        components = [pod]
        names = {pod, ctx.telemetry.topology.pod(pod).service}

    for component in components:
        for metric in [m for c, m in ctx.telemetry.series_keys() if c == component]:
            result = registry.execute(
                "whether_is_abnormal_metric",
                {"target": component, "metric": metric, **window}, ctx)
            if result.success and "is anomalous" in result.observation:
                flags.append("whether_is_abnormal_metric")
                break
    trace_result = registry.execute("collect_trace", dict(window), ctx)
    if "no abnormal spans" not in trace_result.observation \
            and any(name in trace_result.observation for name in names):
        flags.append("collect_trace")
    if fault.target_kind == "pod":
        log_result = registry.execute("kubectl_logs",
                                      {"pod": fault.location_id, **window}, ctx)
        if "no abnormal logs" not in log_result.observation:
            flags.append("kubectl_logs")
        pods_result = registry.execute("pod_analyze", {}, ctx)
        for row in pods_result.observation.splitlines():
            if fault.location_id in row and "failed" in row:
                flags.append("analyze_resource")
    return flags


def test_acceptance_7_sandbox_signature_completeness():
    started = time.monotonic()
    registry = build_registry()

    for fault_type in FaultType:
        scenario = fault_scenario(fault_type)
        flags = _anomaly_flags(scenario, registry)
        assert flags, f"no tool flagged the target for {fault_type.value}"

    # zero false positives on the no-fault scenario at default thresholds
    quiet = no_fault_scenario()
    ctx = make_ctx(quiet, registry=registry)
    for component, metric in ctx.telemetry.series_keys():
        result = registry.execute(
            "whether_is_abnormal_metric", {"target": component, "metric": metric}, ctx)
        assert "is normal" in result.observation, (component, metric)
    assert "no abnormal spans" in registry.execute("collect_trace", {}, ctx).observation
    for pod in ctx.telemetry.topology.pods:
        result = registry.execute("kubectl_logs", {"pod": pod.id}, ctx)
        assert "no abnormal logs" in result.observation
    pods_table = registry.execute("pod_analyze", {}, ctx).observation
    assert "failed" not in pods_table and "pending" not in pods_table

    _passed(7, "sandbox signature completeness", started)


def _ablation_config(mode: str) -> AgentConfig:
    ablations = Ablations()
    if mode != "default":
        setattr(ablations, mode[: -len("_off")], False)
    return AgentConfig(ablations=ablations)


def _llm_prompts(state) -> list[str]:
    return [e["prompt"] for e in state.events if e.get("kind") == "llm"]


def test_acceptance_8_ablation_toggles():
    started = time.monotonic()
    kb_master = make_golden_kb(scripted_backend())

    observed = {}
    for mode in MODES:
        results = []
        for case in golden_cases(mode):
            backend = make_backend(BackendConfig(script=list(case.script)))
            result = run_episode(case.scenario, _ablation_config(mode), backend,
                                 kb_master.clone_in_memory())
            assert result.outcome == "completed", (mode, case.scenario.id)
            assert result.diagnosis.locations == case.scenario.ground_truth.locations
            assert result.diagnosis.types == case.scenario.ground_truth.types
            assert result.path == expected_path(case.scenario, mode)
            results.append(result)
        observed[mode] = results

    for result in observed["sop_knowledge_off"]:
        rules_seen = [c.rule for candidates in action_sets(result).values()
                      for c in candidates if c.rule]
        assert rules_seen == []  # no SOP-flow rule candidates at all
        assert "match_sop" not in result.path  # and so no match_sop hits
        assert all(FLOW_GUIDE not in p for p in _llm_prompts(result))

    for result in observed["sop_flow_off"]:
        rules_seen = {c.rule for candidates in action_sets(result).values()
                      for c in candidates if c.rule}
        assert rules_seen <= {"R8"}  # R1-R7 gone, the initial lookup survives
        assert all(FLOW_GUIDE not in p for p in _llm_prompts(result))

    for result in observed["action_set_off"]:
        assert action_sets(result) == {}  # no action set is built
        assert all(r.chosen.rule is None for r in result.history)
        assert all(ROLE_ACTION not in p for p in _llm_prompts(result))

    for result in observed["action_agent_off"]:
        assert all(ROLE_ACTION not in p for p in _llm_prompts(result))
        assert all(c.provenance in ("flow_rule", "judge_rule")
                   for candidates in action_sets(result).values() for c in candidates)

    for result in observed["ob_agent_off"]:
        assert all(ROLE_OBSERVER not in p for p in _llm_prompts(result))
        assert result.ob_hypotheses == ()

    for result in observed["judge_agent_off"]:
        assert all(ROLE_JUDGE not in p for p in _llm_prompts(result))
        assert result.judge_verdict is None
        speak_step = result.history[-1]
        assert speak_step.chosen.tool == "speak" \
            and speak_step.chosen.provenance == "action_agent"

    # the default configuration keeps every mechanism visible in transcripts
    for result in observed["default"]:
        assert any(FLOW_GUIDE in p for p in _llm_prompts(result))
        assert any(ROLE_ACTION in p for p in _llm_prompts(result))
        assert result.judge_verdict is not None

    _passed(8, "ablation toggles", started)
