import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopflow.agents import (
    RULE_PRIORITY,
    Ablations,
    ActionCandidate,
    ActionSet,
    AgentConfig,
    JudgeVerdict,
    StepRecord,
    apply_flow_rules,
    fallback_candidate,
    mandated_candidates,
)
from sopflow.agents.flow_rules import speak_awaits_judge
from sopflow.kb import RetrievalHit, SopDoc
from sopflow.tools import ProgramRunResult, RootCause, ToolResult

ALERT = "INCIDENT ALERT\nsummary: something broke"


def record(tool, result, args=None) -> StepRecord:
    chosen = ActionCandidate(tool=tool, args=args or {})
    return StepRecord(index=0, chosen=chosen, result=result)


def agent(tool, **args):
    return ActionCandidate(tool=tool, args=args)


def rules(step_index=1, prev=None, verdict=None, ablations=None):
    return mandated_candidates(step_index, prev, verdict, ALERT, ablations or Ablations())


class TestRules:
    def test_r8_fresh_episode_adds_match_sop(self):
        out = rules(step_index=0)
        assert [(c.tool, c.rule) for c in out] == [("match_sop", "R8")]
        assert out[0].args == {"query": ALERT}

    def test_r1_match_sop_hit_adds_codify(self):
        prev = record("match_sop", ToolResult(
            observation="1 match",
            payload=[RetrievalHit("sop-best", 0.9), RetrievalHit("sop-second", 0.5)],
        ), args={"query": "q"})
        out = rules(prev=prev)
        assert [(c.tool, c.rule) for c in out] == [("generate_sop_code", "R1")]
        assert out[0].args == {"sop_id": "sop-best"}

    def test_r2_match_sop_miss_adds_generate(self):
        prev = record("match_sop", ToolResult(observation="none",
                                              payload=[]), args={"query": "weird fault"})
        out = rules(prev=prev)
        assert [(c.tool, c.rule) for c in out] == [("generate_sop", "R2")]
        assert out[0].args == {"fault_info": "weird fault"}

    def test_r3_generated_sop_adds_codify(self):
        # the flow's stated transition: generation is followed by codification
        doc = SopDoc(id="gen-new", name="drafted", steps=["s"])
        prev = record("generate_sop", ToolResult(observation="ok",
                                                 payload=doc))
        out = rules(prev=prev)
        assert [(c.tool, c.rule) for c in out] == [("generate_sop_code", "R3")]
        assert out[0].args == {"sop_id": "gen-new"}

    def test_r4_valid_program_adds_run(self):
        prev = record("generate_sop_code", ToolResult(observation="ok"))
        out = rules(prev=prev)
        assert [(c.tool, c.rule) for c in out] == [("run_sop", "R4")]

    def test_r5_invalid_program_adds_regeneration(self):
        prev = record("generate_sop_code",
                      ToolResult(observation="bad",
                                 success=False, error="unknown tool"),
                      args={"sop_id": "sop-x"})
        out = rules(prev=prev)
        assert [(c.tool, c.rule) for c in out] == [("generate_sop_code", "R5")]
        assert out[0].args == {"sop_id": "sop-x"}

    def test_r5_runtime_failure_adds_regeneration(self):
        run = ProgramRunResult(success=False, failing_index=2, error="boom")
        prev = record("run_sop", ToolResult(observation="failed",
                                            success=False, error="boom", payload=run))
        out = rules(prev=prev)
        assert [(c.tool, c.rule) for c in out] == [("generate_sop_code", "R5")]

    def test_r6_run_success_adds_match_observation(self):
        run = ProgramRunResult(findings=["cpu pegged"], trace=["0: ok"])
        prev = record("run_sop", ToolResult(observation="ok", payload=run))
        out = rules(prev=prev)
        assert [(c.tool, c.rule) for c in out] == [("match_observation", "R6")]
        assert out[0].args == {"observation": "- cpu pegged"}

    def test_r7_judge_found_adds_speak(self):
        verdict = JudgeVerdict(found=True, summary="found it",
                               causes=(RootCause("pod-0", "CpuStress", "evidence"),))
        out = rules(verdict=verdict)
        assert [(c.tool, c.rule, c.provenance) for c in out] \
            == [("speak", "R7", "judge_rule")]
        assert out[0].args == {"causes": "pod-0|CpuStress|evidence"}

    def test_rules_disabled_without_sop_flow(self):
        ablations = Ablations(sop_flow=False)
        prev = record("generate_sop_code", ToolResult(observation="ok"))
        verdict = JudgeVerdict(found=True, summary="s",
                               causes=(RootCause("p", "t", ""),))
        assert rules(prev=prev, verdict=verdict, ablations=ablations) == []
        # R8 survives the flow ablation
        assert [c.rule for c in rules(step_index=0, ablations=ablations)] == ["R8"]

    def test_nothing_survives_losing_sop_knowledge(self):
        ablations = Ablations(sop_knowledge=False)
        assert rules(step_index=0, ablations=ablations) == []


class TestApplyFlowRules:
    def _apply(self, candidates, prev=None, verdict=None, step_index=1, config=None):
        return apply_flow_rules(step_index, prev, verdict, ALERT, candidates,
                                config or AgentConfig())

    def test_paper_example_generate_sop_then_codify_only(self):
        doc = SopDoc(id="gen-x", name="n", steps=["s"])
        prev = record("generate_sop", ToolResult(observation="ok",
                                                 payload=doc))
        action_set = self._apply([], prev=prev)
        assert [(c.tool, c.rule) for c in action_set.candidates] \
            == [("generate_sop_code", "R3")]

    def test_judge_found_with_full_set_evicts_one_agent_candidate(self):
        verdict = JudgeVerdict(found=True, summary="s",
                               causes=(RootCause("pod-0", "CpuStress", ""),))
        agents = [agent("collect_trace"), agent("pod_analyze"), agent("node_analyze"),
                  agent("get_all_namespace"), agent("service_analyze")]
        action_set = self._apply(agents, verdict=verdict)
        assert len(action_set.candidates) == 5
        assert any(c.tool == "speak" and c.rule == "R7" for c in action_set.candidates)
        # lowest-ranked (last) agent candidate got evicted
        assert [c.tool for c in action_set.evicted] == ["service_analyze"]

    def test_fresh_episode_contains_match_sop(self):
        action_set = self._apply([], step_index=0)
        assert any(c.tool == "match_sop" and c.rule == "R8" for c in action_set.candidates)

    def test_rule_candidate_never_evicted(self):
        config = AgentConfig(action_set_size=1)
        verdict = JudgeVerdict(found=True, summary="s",
                               causes=(RootCause("pod-0", "CpuStress", ""),))
        action_set = self._apply([agent("collect_trace")], verdict=verdict, config=config)
        assert [c.tool for c in action_set.candidates] == ["speak"]

    def test_duplicate_agent_candidate_upgraded(self):
        prev = record("generate_sop_code", ToolResult(observation="ok"))
        action_set = self._apply([agent("run_sop")], prev=prev)
        assert len(action_set.candidates) == 1
        cand = action_set.candidates[0]
        assert cand.tool == "run_sop" and cand.rule == "R4" \
            and cand.provenance == "flow_rule"

    def test_duplicate_agent_candidates_dropped(self):
        action_set = self._apply([agent("collect_trace"), agent("collect_trace")])
        assert len(action_set.candidates) == 1

    def test_agent_speak_gated_until_judge_confirms(self):
        action_set = self._apply([agent("speak", causes="p|t|e"), agent("pod_analyze")])
        assert [c.tool for c in action_set.candidates] == ["pod_analyze"]
        verdict = JudgeVerdict(found=True, summary="s",
                               causes=(RootCause("p", "t", ""),))
        allowed = self._apply([agent("speak", causes="p|t|e")], verdict=verdict)
        assert any(c.tool == "speak" and c.provenance == "action_agent"
                   for c in allowed.candidates)

    def test_agent_speak_ungated_when_judge_ablated(self):
        config = AgentConfig(ablations=Ablations(judge_agent=False))
        action_set = self._apply([agent("speak", causes="p|t|e")], config=config)
        assert [c.tool for c in action_set.candidates] == ["speak"]

    def test_size_bound_always_respected(self):
        agents = [agent(f"tool_{i}") for i in range(8)]
        action_set = self._apply(agents)
        assert len(action_set.candidates) <= 5


class TestFallback:
    def test_prefers_highest_priority_rule(self):
        candidates = [
            agent("collect_trace"),
            ActionCandidate("match_observation", {}, rule="R6"),
            ActionCandidate("speak", {"causes": "p|t"}, rule="R7"),
        ]
        action_set = ActionSet(candidates, max_size=5)
        assert fallback_candidate(action_set).tool == "speak"

    def test_falls_back_to_first_without_rules(self):
        action_set = ActionSet([agent("collect_trace"), agent("pod_analyze")], max_size=5)
        assert fallback_candidate(action_set).tool == "collect_trace"


FOUND = JudgeVerdict(found=True, summary="found it",
                     causes=(RootCause("pod-0", "CpuStress", "evidence"),))

# each rule's (tool, rationale, args) on one step that fires it
PINNED = {
    "R1": (dict(prev=record("match_sop", ToolResult(
        observation="1 match", payload=[RetrievalHit("sop-best", 0.9)]), args={"query": "q"})),
        "generate_sop_code", "codify the matched procedure", {"sop_id": "sop-best"}),
    "R2": (dict(prev=record("match_sop", ToolResult(observation="none", payload=[]),
                            args={"query": "weird fault"})),
           "generate_sop", "no stored procedure matched; draft one", {"fault_info": "weird fault"}),
    "R2-failed-lookup": (dict(prev=record("match_sop", ToolResult(
        observation="tool error", success=False, error="bad query"))),
        "generate_sop", "no stored procedure matched; draft one", {"fault_info": ALERT}),
    "R3": (dict(prev=record("generate_sop", ToolResult(
        observation="ok", payload=SopDoc(id="gen-new", name="drafted", steps=["s"])))),
        "generate_sop_code", "codify the freshly generated procedure", {"sop_id": "gen-new"}),
    "R4": (dict(prev=record("generate_sop_code", ToolResult(observation="ok"),
                            args={"sop_id": "sop-x"})),
           "run_sop", "execute the validated program", {}),
    "R5-invalid": (dict(prev=record("generate_sop_code", ToolResult(
        observation="bad", success=False, error="unknown tool"), args={"sop_id": "sop-x"})),
        "generate_sop_code", "program invalid; regenerate it", {"sop_id": "sop-x"}),
    "R5-invalid-no-id": (dict(prev=record("generate_sop_code", ToolResult(
        observation="bad", success=False, error="unknown tool"))),
        "generate_sop_code", "program invalid; regenerate it", {}),
    "R5-crashed": (dict(prev=record("run_sop", ToolResult(
        observation="failed", success=False, error="boom",
        payload=ProgramRunResult(success=False, failing_index=2, error="boom")))),
        "generate_sop_code", "program crashed; regenerate it", {}),
    "R6": (dict(prev=record("run_sop", ToolResult(
        observation="ok", payload=ProgramRunResult(findings=["cpu pegged", "oom"])))),
        "match_observation", "compare findings against past incidents",
        {"observation": "- cpu pegged\n- oom"}),
    "R7": (dict(verdict=FOUND),
           "speak", "judge confirmed the root cause", {"causes": "pod-0|CpuStress|evidence"}),
    "R8": (dict(step_index=0),
           "match_sop", "look up a procedure for the initial alert", {"query": ALERT}),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_each_rule_pins_its_tool_rationale_and_args(case):
    kwargs, tool, rationale, args = PINNED[case]
    out = rules(**kwargs)
    assert [(c.rule, c.tool, c.rationale, c.args) for c in out] \
        == [(case.split("-")[0], tool, rationale, args)]


_HITS = st.lists(st.sampled_from(["sop-a", "sop-b"]), max_size=2).map(
    lambda ids: [RetrievalHit(i, 0.5) for i in ids])
_PREVIOUS = st.one_of(
    st.none(),
    st.builds(lambda hits, ok, query: record("match_sop", ToolResult(
        observation="o", payload=hits if ok else None, success=ok), args=query),
        _HITS, st.booleans(), st.sampled_from([{}, {"query": "q"}, {"query": ALERT}])),
    st.builds(lambda ok: record("generate_sop", ToolResult(
        observation="o", success=ok,
        payload=SopDoc(id="gen-1", name="n", steps=["s"]) if ok else None)), st.booleans()),
    st.builds(lambda ok, sop: record("generate_sop_code", ToolResult(
        observation="o", success=ok), args=sop),
        st.booleans(), st.sampled_from([{}, {"sop_id": "sop-a"}])),
    st.builds(lambda ok, findings: record("run_sop", ToolResult(
        observation="o", success=ok,
        payload=ProgramRunResult(findings=findings, success=ok))),
        st.booleans(), st.lists(st.sampled_from(["cpu pegged", "oom"]), max_size=2)),
    st.builds(lambda: record("pod_analyze", ToolResult(observation="o"))),
)
_VERDICTS = st.sampled_from([None, JudgeVerdict(found=False, summary="s"), FOUND])
# agent calls, several of them equal to a rule's call
_AGENT_CALLS = st.sampled_from([
    ("speak", {"causes": "pod-0|CpuStress|evidence"}), ("speak", {"causes": "p|t|e"}),
    ("run_sop", {}), ("generate_sop_code", {}), ("generate_sop_code", {"sop_id": "sop-a"}),
    ("generate_sop_code", {"sop_id": "gen-1"}), ("generate_sop", {"fault_info": "q"}),
    ("match_sop", {"query": ALERT}), ("match_observation", {"observation": "- oom"}),
    ("collect_trace", {}), ("pod_analyze", {}), ("node_analyze", {}),
]).map(lambda call: ActionCandidate(tool=call[0], args=call[1], rationale="agent"))


@given(agents=st.lists(_AGENT_CALLS, max_size=7), prev=_PREVIOUS, verdict=_VERDICTS,
       flags=st.tuples(*[st.booleans()] * 6), size=st.integers(1, 6),
       step_index=st.integers(0, 1))
@settings(max_examples=400, deadline=None)
def test_apply_flow_rules_keeps_every_mandated_rule_within_the_bound(
        agents, prev, verdict, flags, size, step_index):
    ablations = Ablations(*flags)
    config = AgentConfig(action_set_size=size, ablations=ablations)
    action_set = apply_flow_rules(step_index, prev, verdict, ALERT, agents, config)
    kept, evicted = list(action_set.candidates), list(action_set.evicted)
    assert len(kept) <= size
    assert len({c.key() for c in kept}) == len(kept)
    mandated = mandated_candidates(step_index, prev, verdict, ALERT, ablations)
    assert sorted((c for c in kept + evicted if c.rule),
                  key=lambda c: RULE_PRIORITY.index(c.rule)) == mandated
    if any(c.rule for c in evicted):
        assert all(c.rule for c in kept)
    if speak_awaits_judge(verdict, ablations):
        assert not any(c.tool == "speak" and c.rule is None for c in kept)
