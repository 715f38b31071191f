import json

import pytest

from sopflow import golden
from sopflow.agents import (
    Ablations,
    AgentConfig,
    OUTCOME_ABORTED,
    OUTCOME_BUDGET,
    OUTCOME_COMPLETED,
    parse_action_line,
    parse_hypotheses,
    parse_judge_reply,
    parse_selection,
    run_episode,
    transcript_lines,
)
from sopflow.errors import BackendError
from sopflow.kb import KnowledgeBase
from sopflow.llm import ScriptEntry
from sopflow.prompts import (
    ROLE_ACTION,
    ROLE_DIRECT,
    ROLE_JUDGE,
    ROLE_OBSERVER,
    ROLE_SELECT,
    ROLE_THOUGHT,
)

from conftest import action_sets, no_fault_scenario, role_of, scripted_backend


def run(script, config=None, scenario=None, kb=None, backend=None):
    backend = backend or scripted_backend(script=script)
    kb = kb or KnowledgeBase(scripted_backend())
    return run_episode(scenario or no_fault_scenario(), config or AgentConfig(),
                       backend, kb)


class TestParsers:
    def test_action_line_with_pipe_inside_quotes(self):
        parsed = parse_action_line(
            'ACTION: speak(causes="pod-0|CpuStress|high usage") | report it')
        assert parsed == ("speak", {"causes": "pod-0|CpuStress|high usage"}, "report it")

    def test_action_line_numbers_and_strings(self):
        parsed = parse_action_line('ACTION: match_sop(query="cpu", k=2) | lookup')
        assert parsed == ("match_sop", {"query": "cpu", "k": 2.0}, "lookup")

    def test_action_line_garbage(self):
        assert parse_action_line("I would maybe run a tool?") is None
        assert parse_action_line("ACTION: not a call") is None
        assert parse_action_line('ACTION: match_sop(query="cpu" | lookup') is None  # unclosed
        assert parse_action_line('ACTION: match_sop("cpu") | lookup') is None  # no name=

    def test_action_line_unquoted_word_is_a_string(self):
        parsed = parse_action_line("ACTION: kubectl_logs(pod=frontend-0)")
        assert parsed == ("kubectl_logs", {"pod": "frontend-0"}, "")

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-Infinity", "1e400"])
    def test_action_line_non_finite_number_stays_text(self, raw):
        parsed = parse_action_line(f"ACTION: kubectl_logs(pod=\"frontend-0\", start_s={raw})")
        assert parsed == ("kubectl_logs", {"pod": "frontend-0", "start_s": raw}, "")

    def test_selection_parsing(self):
        assert parse_selection("2", 5) == 2
        assert parse_selection("I pick option 3.", 5) == 3
        assert parse_selection("99", 5) is None
        assert parse_selection("none of these", 5) is None

    def test_selection_with_too_many_digits_is_unusable(self):
        assert parse_selection("1" * 5000, 5) is None
        assert parse_selection("option " + "0" * 4999 + "2", 5) is None

    def test_hypotheses_forms_and_truncation(self):
        reply = ("prose that names no hypothesis\n"
                 "type:  \n"
                 "type: NetworkDelay - latency up\n"
                 "- NetworkLoss - drops seen\n"
                 "1. CpuStress - busy loops\n"
                 "2. MemoryStress - rss creep\n"
                 "3. PodFailure - restarts")
        hypos = parse_hypotheses(reply)
        assert len(hypos) == 3
        assert hypos[0] == ("NetworkDelay", "latency up")

    def test_judge_found_and_not_found(self):
        verdict = parse_judge_reply("FOUND: pod=checkout-0 type=CpuStress; usage pegged")
        assert verdict.found and verdict.causes[0].location == "checkout-0"
        assert verdict.causes[0].fault_type == "CpuStress"
        assert not parse_judge_reply("NOT FOUND: need more evidence").found
        assert not parse_judge_reply("FOUND: something vague").found
        assert not parse_judge_reply("").found

    def test_judge_multiple_causes(self):
        verdict = parse_judge_reply(
            "FOUND: location=pod-a type=CpuStress; service=svc-b type=NetworkDelay")
        assert [(c.location, c.fault_type) for c in verdict.causes] \
            == [("pod-a", "CpuStress"), ("svc-b", "NetworkDelay")]


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


class TestEpisodeLoop:
    @pytest.mark.parametrize("raw", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("action_set", [True, False], ids=["action-set", "direct"])
    def test_a_non_finite_argument_leaves_the_transcript_json(self, raw, action_set):
        line = f'ACTION: kubectl_logs(pod="frontend-0", start_s={raw}) | r'
        script = [ScriptEntry(ROLE_THOUGHT, "read the logs"),
                  ScriptEntry(ROLE_ACTION if action_set else ROLE_DIRECT, line),
                  ScriptEntry(ROLE_SELECT, "1")]
        result = run(script, config=AgentConfig(ablations=Ablations(action_set=action_set),
                                                max_steps=1))
        events = [json.loads(line, parse_constant=_refuse) for line in transcript_lines(result)]
        chosen = next(e for e in events if e["kind"] == "chosen")
        assert chosen["tool"] == "kubectl_logs" and chosen["args"]["start_s"] == raw
        assert next(e for e in events if e["kind"] == "observation")["text"] == (
            "tool error: argument 'start_s' of kubectl_logs must be a finite number")

    def test_empty_script_aborts_at_first_step(self):
        result = run([])
        assert result.outcome == OUTCOME_ABORTED
        assert result.step_count == 0
        assert "backend failed twice" in result.abort_reason

    def test_budget_exhaustion_caps_steps(self):
        script = [
            ScriptEntry(ROLE_THOUGHT, "keep looking"),
            ScriptEntry(ROLE_ACTION, "ACTION: get_all_namespace() | look around"),
            ScriptEntry(ROLE_SELECT, "1"),
        ]
        result = run(script)
        assert result.outcome == OUTCOME_BUDGET
        assert result.step_count == 20
        assert result.diagnosis is None

    def test_max_steps_configurable(self):
        script = [
            ScriptEntry(ROLE_THOUGHT, "keep looking"),
            ScriptEntry(ROLE_ACTION, "ACTION: get_all_namespace() | look around"),
            ScriptEntry(ROLE_SELECT, "1"),
        ]
        result = run(script, config=AgentConfig(max_steps=3))
        assert result.outcome == OUTCOME_BUDGET and result.step_count == 3

    def test_invalid_selection_falls_back(self):
        script = [
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION, "ACTION: get_all_namespace() | filler"),
            ScriptEntry(ROLE_SELECT, "99", consume_once=True),  # out of range once
            ScriptEntry(ROLE_SELECT, "1"),
        ]
        result = run(script, config=AgentConfig(max_steps=2))
        first = next(e for e in result.events if e["kind"] == "chosen")
        # fallback prefers the rule candidate (R8 match_sop) over agent filler
        assert first["fallback"] and first["tool"] == "match_sop"
        assert any(e.get("kind") == "note" and "fallback" in e.get("text", "")
                   for e in result.events)

    def test_a_selection_of_too_many_digits_falls_back(self):
        case = golden.golden_cases("default")[0]
        script = [ScriptEntry(ROLE_SELECT, "1" * 5000, consume_once=True), *case.script]
        result = run(script, scenario=case.scenario,
                     kb=golden.make_golden_kb(scripted_backend()))
        assert not (result.abort_reason or "").startswith("internal error:")
        assert next(e for e in result.events if e["kind"] == "chosen")["fallback"]

    def test_unregistered_tool_candidate_dropped(self):
        script = [
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION,
                        "ACTION: get_all_namespace() | a\n"
                        "ACTION: frobnicate(x=1) | b\n"
                        "ACTION: pod_analyze() | c\n"
                        "ACTION: node_analyze() | d\n"
                        "ACTION: service_analyze() | past action_set_size candidates"),
            ScriptEntry(ROLE_SELECT, "1"),
        ]
        result = run(script, config=AgentConfig(max_steps=1, action_set_size=3))
        agent_tools = [c.tool for c in action_sets(result)[0]
                       if c.provenance == "action_agent"]
        assert agent_tools == ["get_all_namespace", "pod_analyze"]
        # parsing stops at three candidates; R8's match_sop evicts the last of them
        assert next(e["evicted"] for e in result.events
                    if e["kind"] == "action_set") == ["node_analyze"]

    def test_garbage_action_reply_still_steps_on_rules(self):
        script = [
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION, "no actionable suggestion, sorry"),
            ScriptEntry(ROLE_SELECT, "1"),
        ]
        result = run(script, config=AgentConfig(max_steps=1))
        record = result.history[0]
        assert record.chosen.tool == "match_sop" and record.chosen.rule == "R8"

    def test_ob_agent_truncates_to_three(self):
        script = [
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION,
                        'ACTION: match_observation(observation="errors everywhere") | recall'),
            ScriptEntry(ROLE_SELECT, "1"),
            ScriptEntry(ROLE_OBSERVER,
                        "type: A - a\ntype: B - b\ntype: C - c\ntype: D - d\ntype: E - e"),
            ScriptEntry(ROLE_JUDGE, "NOT FOUND: keep digging"),
        ]
        result = run(script, config=AgentConfig(max_steps=1))
        assert len(result.ob_hypotheses) == 3
        assert result.judge_verdict is not None
        assert not result.judge_verdict.found

    def test_judge_found_enables_speak_next_step(self):
        script = [
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION,
                        'ACTION: match_observation(observation="cpu pegged") | recall',
                        consume_once=True),
            ScriptEntry(ROLE_SELECT, "1", consume_once=True),
            ScriptEntry(ROLE_OBSERVER, "type: CpuStress - pegged"),
            ScriptEntry(ROLE_JUDGE, "FOUND: pod=frontend-0 type=CpuStress; pegged"),
            ScriptEntry(ROLE_ACTION, "ACTION: node_analyze() | double-check"),
            ScriptEntry(ROLE_SELECT, "2"),
        ]
        result = run(script, config=AgentConfig(max_steps=3))
        assert result.outcome == OUTCOME_COMPLETED
        assert result.step_count == 2
        assert result.diagnosis.locations == ("frontend-0",)
        speak_record = result.history[1]
        assert speak_record.chosen.tool == "speak" and speak_record.chosen.rule == "R7"

    def test_judge_found_but_main_agent_keeps_collecting(self):
        # speak stays available next step; the orchestrator is not forced to use it
        script = [
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION,
                        'ACTION: match_observation(observation="cpu pegged") | recall',
                        consume_once=True),
            ScriptEntry(ROLE_SELECT, "1", consume_once=True),
            ScriptEntry(ROLE_OBSERVER, "type: CpuStress - pegged"),
            ScriptEntry(ROLE_JUDGE, "FOUND: pod=frontend-0 type=CpuStress; pegged"),
            ScriptEntry(ROLE_ACTION, "ACTION: collect_trace() | more evidence",
                        consume_once=True),
            ScriptEntry(ROLE_SELECT, "1", consume_once=True),  # picks collect_trace
            ScriptEntry(ROLE_ACTION, "ACTION: node_analyze() | filler"),
            ScriptEntry(ROLE_SELECT, "2"),  # now picks speak
        ]
        result = run(script, config=AgentConfig(max_steps=5))
        assert result.outcome == OUTCOME_COMPLETED
        assert [r.chosen.tool for r in result.history] \
            == ["match_observation", "collect_trace", "speak"]
        # speak was mandated in both later steps
        assert any(c.tool == "speak" for c in action_sets(result)[1])

    def test_transcripts_byte_identical_across_runs(self):
        script = [
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION, "ACTION: pod_analyze() | check pods"),
            ScriptEntry(ROLE_SELECT, "1"),
        ]
        texts = []
        for _ in range(2):
            result = run(list(script), config=AgentConfig(max_steps=4))
            texts.append("\n".join(transcript_lines(result)))
        assert texts[0] == texts[1]

    def test_backend_retry_once_then_succeed(self):
        inner = scripted_backend(script=[
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION, "ACTION: get_all_namespace() | look"),
            ScriptEntry(ROLE_SELECT, "1"),
        ])

        class FlakyOnce:
            backend_id = inner.backend_id

            def __init__(self):
                self.failed = False

            def complete(self, messages):
                if not self.failed:
                    self.failed = True
                    raise BackendError("transient blip")
                return inner.complete(messages)

            def embed(self, text):
                return inner.embed(text)

        result = run(None, config=AgentConfig(max_steps=1), backend=FlakyOnce())
        assert result.outcome == OUTCOME_BUDGET  # survived the blip, ran its step
        assert any(e.get("kind") == "llm_retry" for e in result.events)

    def test_empty_action_set_consumes_step_without_crashing(self):
        # step 2 has no rule candidate (previous action mandates nothing) and
        # the proposer stops proposing
        script = [
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION, "ACTION: collect_trace() | scan", consume_once=True),
            ScriptEntry(ROLE_ACTION, "no ideas"),
            ScriptEntry(ROLE_SELECT, "1"),
        ]
        result = run(script, config=AgentConfig(
            max_steps=3, ablations=Ablations(sop_knowledge=False)))
        assert result.outcome == OUTCOME_BUDGET
        assert result.step_count == 3
        assert [r.chosen.tool for r in result.history] == ["collect_trace"]
        assert any("empty action set" in e.get("text", "") for e in result.events)

    def test_judge_after_run_sop_opt_in(self):
        # default is paper-strict (match_observation only); the flag extends
        # the trigger to any successful run with findings
        from sopflow.kb import SopDoc

        def scripts():
            return [
                ScriptEntry(ROLE_THOUGHT, "go"),
                ScriptEntry(ROLE_ACTION, 'ACTION: match_sop(query="cpu check") | lookup',
                            consume_once=True),
                ScriptEntry(ROLE_ACTION, "no further suggestions"),  # rules take over
                ScriptEntry(ROLE_SELECT, "1"),
                ScriptEntry("ROLE: procedure-coder", '```\nfinding("looked around")\n```'),
                ScriptEntry(ROLE_JUDGE, "FOUND: pod=frontend-0 type=CpuStress; done"),
            ]

        def run_mode(judge_after_run_sop):
            backend = scripted_backend(script=scripts())
            kb = KnowledgeBase(backend)
            kb.add_sop(SopDoc(id="sop-cpu", name="cpu check", steps=["look"]))
            config = AgentConfig(max_steps=3, judge_after_run_sop=judge_after_run_sop)
            return run_episode(no_fault_scenario(), config, backend, kb)

        strict = run_mode(False)
        assert strict.judge_verdict is None  # run_sop alone never triggers
        extended = run_mode(True)
        verdicts = [e for e in extended.events if e.get("kind") == "verdict"]
        assert verdicts and verdicts[0]["trigger"] == "run_sop"
        assert extended.judge_verdict.found

    def test_speak_requires_judge_approval(self):
        # agent-proposed speak is dropped while the judge has not confirmed
        script = [
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION,
                        'ACTION: speak(causes="pod-0|CpuStress|guess") | wild guess\n'
                        "ACTION: pod_analyze() | safer"),
            ScriptEntry(ROLE_SELECT, "1"),
        ]
        result = run(script, config=AgentConfig(max_steps=1))
        assert result.outcome == OUTCOME_BUDGET
        tools_executed = [r.chosen.tool for r in result.history]
        assert "speak" not in tools_executed

    def test_failed_match_observation_runs_neither_observer_nor_judge(self):
        # no argument and no earlier run_sop: the tool fails, and its error
        # text is no observation to classify or rule on
        script = [
            ScriptEntry(ROLE_THOUGHT, "hmm"),
            ScriptEntry(ROLE_ACTION, "ACTION: match_observation() | recall"),
            ScriptEntry(ROLE_SELECT, "1"),
            ScriptEntry(ROLE_OBSERVER, "type: CpuStress - from an error message"),
            ScriptEntry(ROLE_JUDGE, "FOUND: pod=frontend-0 type=CpuStress; error text"),
        ]
        result = run(script, config=AgentConfig(max_steps=1))
        record = result.history[0]
        assert record.chosen.tool == "match_observation" and not record.result.success
        assert "no observation available" in record.result.observation
        roles = [role_of(e["prompt"]) for e in result.events if e["kind"] == "llm"]
        assert roles == ["thought", "action", "select"]
        assert not any(e["kind"] in ("hypotheses", "verdict") for e in result.events)
        assert result.ob_hypotheses == () and result.judge_verdict is None


@pytest.mark.parametrize("reply, notes", [
    ('ACTION: speak(causes="frontend-0|CpuStress|guess") | report',
     ["dropped direct speak: judge has not confirmed; step consumed"]),
    ("no idea what to run", ["direct action unusable; step consumed"]),
], ids=["unconfirmed-speak", "unusable"])
def test_direct_step_without_a_usable_action_is_consumed(reply, notes):
    script = [
        ScriptEntry(ROLE_THOUGHT, "hmm"),
        ScriptEntry(ROLE_DIRECT, reply, consume_once=True),
        ScriptEntry(ROLE_DIRECT, "ACTION: pod_analyze() | look"),
    ]
    result = run(script, config=AgentConfig(max_steps=2,
                                            ablations=Ablations(action_set=False)))
    assert result.outcome == OUTCOME_BUDGET and result.step_count == 2
    assert [e["text"] for e in result.events
            if e["kind"] == "note" and e["step"] == 0] == notes
    assert [e["step"] for e in result.events if e["kind"] == "chosen"] == [1]
    assert [(r.index, r.chosen.tool) for r in result.history] == [(1, "pod_analyze")]


@pytest.mark.parametrize("line, tool", [
    ("ACTION: collect_trace(start_s=nan) | scan", "collect_trace"),
    ('ACTION: collect_trace(start_s="inf") | scan', "collect_trace"),
    ('ACTION: match_sop(query="cpu", k=inf) | lookup', "match_sop"),
    ('ACTION: kubectl_logs(pod="frontend-0", end_s=1e309) | read', "kubectl_logs"),
    ('ACTION: match_sop(query="cpu", k="three") | lookup', "match_sop"),
])
def test_non_finite_argument_is_a_failed_observation(line, tool):
    script = [
        ScriptEntry(ROLE_THOUGHT, "hmm"),
        ScriptEntry(ROLE_ACTION, line),
        ScriptEntry(ROLE_SELECT, "1"),
    ]
    result = run(script, config=AgentConfig(max_steps=1))
    assert result.outcome == OUTCOME_BUDGET
    record = result.history[0]
    assert record.chosen.tool == tool and not record.result.success
    assert "must be a finite number" in record.result.observation


class TestRetryAfter:
    """A backend's Retry-After is waited out, up to a cap, before the one retry."""

    def _run(self, monkeypatch, header):
        from sopflow.agents import episode
        from sopflow.llm import BackendConfig, RemoteBackend

        monkeypatch.setenv("SOPFLOW_API_KEY", "k")
        posts = []

        def fake_send(url, body, headers):
            posts.append(url)
            if len(posts) == 1:
                return 429, {"Retry-After": header}, b"slow down"
            return 200, {}, b'{"choices": [{"message": {"content": "no ideas"}}]}'

        sleeps = []
        monkeypatch.setattr("sopflow.llm._send", fake_send)
        monkeypatch.setattr(episode.time, "sleep", sleeps.append)
        backend = RemoteBackend(BackendConfig(backend_kind="remote",
                                              endpoint="https://llm.example/v1", model="m"))
        result = run(None, config=AgentConfig(max_steps=1), backend=backend,
                     kb=KnowledgeBase(backend))
        assert result.outcome == OUTCOME_BUDGET
        assert sum(e["kind"] == "llm_retry" for e in result.events) == 1
        return sleeps

    def test_waits_the_hinted_seconds(self, monkeypatch):
        assert self._run(monkeypatch, "2.5") == [2.5]

    def test_wait_is_capped(self, monkeypatch):
        from sopflow.agents.episode import MAX_RETRY_WAIT_S
        assert self._run(monkeypatch, "86400") == [MAX_RETRY_WAIT_S]

    def test_http_date_retries_without_waiting(self, monkeypatch):
        assert self._run(monkeypatch, "Wed, 21 Oct 2015 07:28:00 GMT") == []


def test_a_scripted_step_builds_no_request_to_send_early(monkeypatch):
    # nothing is sent ahead on a sequential backend, so the coder's prompt is
    # built only where the tool needs it, and no R6 findings are looked up
    import sys
    from sopflow.agents import episode
    from sopflow.tools import sop_flow

    callers = []
    original = sop_flow.coder_prompt

    def recording(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(sop_flow, "coder_prompt", recording)
    monkeypatch.setattr(episode, "coder_prompt", recording)
    monkeypatch.setattr(KnowledgeBase, "cached", lambda self, text: callers.append("cached"))
    for case in golden.golden_cases("default"):
        state = run(case.script, kb=golden.make_golden_kb(scripted_backend()),
                    scenario=case.scenario)
        assert state.outcome == OUTCOME_COMPLETED
    assert callers == ["generate_sop_code"] * 9
