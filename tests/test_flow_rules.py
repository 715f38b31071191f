from sopflow.agents import (
    Ablations,
    ActionCandidate,
    ActionSet,
    AgentConfig,
    JudgeVerdict,
    PROVENANCE_AGENT,
    PROVENANCE_FLOW,
    PROVENANCE_JUDGE,
    StepRecord,
    apply_flow_rules,
    fallback_candidate,
    mandated_candidates,
)
from sopflow.kb import RetrievalHit, SopDoc
from sopflow.tools import ProgramRunResult, RootCause, ToolResult

ALERT = "INCIDENT ALERT\nsummary: something broke"


def record(tool, result, args=None) -> StepRecord:
    chosen = ActionCandidate(tool=tool, args=args or {})
    return StepRecord(index=0, chosen=chosen, result=result)


def agent(tool, **args):
    return ActionCandidate(tool=tool, args=args, provenance=PROVENANCE_AGENT)


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
            == [("speak", "R7", PROVENANCE_JUDGE)]
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
            and cand.provenance == PROVENANCE_FLOW

    def test_duplicate_agent_candidates_dropped(self):
        action_set = self._apply([agent("collect_trace"), agent("collect_trace")])
        assert len(action_set.candidates) == 1

    def test_agent_speak_gated_until_judge_confirms(self):
        action_set = self._apply([agent("speak", causes="p|t|e"), agent("pod_analyze")])
        assert [c.tool for c in action_set.candidates] == ["pod_analyze"]
        verdict = JudgeVerdict(found=True, summary="s",
                               causes=(RootCause("p", "t", ""),))
        allowed = self._apply([agent("speak", causes="p|t|e")], verdict=verdict)
        assert any(c.tool == "speak" and c.provenance == PROVENANCE_AGENT
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
            ActionCandidate("match_observation", {}, provenance=PROVENANCE_FLOW, rule="R6"),
            ActionCandidate("speak", {"causes": "p|t"}, provenance=PROVENANCE_JUDGE, rule="R7"),
        ]
        action_set = ActionSet(candidates, max_size=5)
        assert fallback_candidate(action_set).tool == "speak"

    def test_falls_back_to_first_without_rules(self):
        action_set = ActionSet([agent("collect_trace"), agent("pod_analyze")], max_size=5)
        assert fallback_candidate(action_set).tool == "collect_trace"
