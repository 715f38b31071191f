"""Episodes through ``RemoteBackend``, which send some requests ahead on a
worker: each step's proposal while it thinks, the findings an R6 candidate
matches or the coder's completion for an R1, R3 or R5 candidate while the
selection is in flight, and the second of each two texts of a cold store.
A request sent ahead is its call's first attempt, so the transcript is the
sequential one, failures included, and no speculative request is wasted on
these scripts.

``fake_endpoint`` (conftest) answers the HTTP calls from each scenario's
script, with a delay per request, and records which requests were in flight
together.
"""

import json
import threading

import pytest
import yaml

from conftest import action_sets, llm_calls_by_role
from sopflow import golden
from sopflow.agents import Ablations, AgentConfig, run_episode, transcript_lines
from sopflow.evaluation import EvalConfig, load_corpus, run_benchmark, save_report
from sopflow.llm import (
    BackendConfig,
    RemoteBackend,
    ScriptedBackend,
    ScriptEntry,
    make_backend,
)
from sopflow.errors import NotFoundError
from sopflow.kb import KnowledgeBase
from sopflow.prompts import ROLE_ACTION, ROLE_SELECT, ROLE_THOUGHT

STEPS = 5  # steps of a default-mode golden episode


def _agent_config(mode: str) -> AgentConfig:
    ablations = Ablations()
    if mode != "default":
        setattr(ablations, mode[: -len("_off")], False)
    return AgentConfig(ablations=ablations)


def _corpora(root, mode: str):
    """The golden corpus for ``mode``, and a manifest over the same files that
    names no scripts, so ``run_benchmark`` uses the configured backend."""
    manifest = golden.write_corpus(root, mode)
    remote = root / "manifest-remote.yaml"
    data = yaml.safe_load(manifest.read_text(encoding="utf-8"))
    for entry in data["episodes"]:
        del entry["script"]
    remote.write_text(yaml.safe_dump(data), encoding="utf-8")
    return load_corpus(manifest), load_corpus(remote)


def _run(corpus, mode, backend_cfg, out, workers=1):
    report = run_benchmark(corpus, EvalConfig(agent=_agent_config(mode), workers=workers),
                           backend_cfg, transcript_dir=out / "transcripts")
    save_report(report, out / "report.json")
    return report


def _outputs(out) -> dict[str, bytes]:
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def _serve_golden(fake_endpoint, mode: str) -> None:
    fake_endpoint.serve({case.scenario.id: case.script for case in golden.golden_cases(mode)})


@pytest.mark.parametrize("delays", [{}, {"thought": 0.01}, {"action": 0.01}],
                         ids=["even", "thought-slower", "proposal-slower"])
def test_remote_transcripts_equal_scripted_under_every_mode(tmp_path, fake_endpoint,
                                                            delays):
    fake_endpoint.delays = delays
    proposers = set()
    for mode in golden.MODES if not delays else ("default",):
        scripted, remote = _corpora(tmp_path / mode / "corpus", mode)
        _serve_golden(fake_endpoint, mode)
        _run(scripted, mode, BackendConfig(), tmp_path / mode / "scripted")
        report = _run(remote, mode, fake_endpoint.config(), tmp_path / mode / "remote")
        assert report.la == 1.0 and report.ta == 1.0, mode
        scripted_files = _outputs(tmp_path / mode / "scripted")
        assert len(scripted_files) == 10
        assert _outputs(tmp_path / mode / "remote") == scripted_files, mode
        # no speculative request was wasted: each role sent what the scripted
        # run called, prefetches included
        calls = llm_calls_by_role(tmp_path / mode / "scripted" / "transcripts")
        assert fake_endpoint.completions_by_role() == calls, mode
        if mode == "default":
            assert sum(calls.values()) == 18 * 9 and calls["coder"] == 9
        proposers |= {r.thread for r in fake_endpoint.requests if r.role == "action"}
    # the proposals really were sent from an episode's worker thread
    assert proposers and all(name.startswith("sopflow-propose") for name in proposers)


def test_a_remote_rerun_sends_no_embedding_request(tmp_path, fake_endpoint):
    # the first run saves its vectors to the knowledge base's cache file, so
    # the rerun finds every text there
    _, remote = _corpora(tmp_path / "corpus", "default")
    runs = []
    for name in ("cold", "warm"):
        _serve_golden(fake_endpoint, "default")
        _run(remote, "default", fake_endpoint.config(), tmp_path / name)
        runs.append((_outputs(tmp_path / name),
                     sum(r.role == "embed" for r in fake_endpoint.requests)))
    assert runs[0][0] == runs[1][0]
    assert [embeddings for _, embeddings in runs] == [21, 0]


def test_each_step_overlaps_exactly_its_planned_pairs(fake_endpoint):
    # each request of a planned pair waits inside the endpoint for its partner,
    # so a client that sent the two one after the other would time out there
    case = golden.golden_cases("default")[0]
    kb = golden.make_golden_kb(make_backend(BackendConfig()))  # cold: nothing cached
    names = [doc.name for doc in kb.list_sops()]
    manifestations = [incident.manifestation for incident in kb.list_incidents()]
    # a cold store's texts go two at a time: the 9 SOP names (the query is one
    # of them), then the 3 manifestations (the R6 prefetch embedded the query),
    # so the last of each store goes alone
    alone = {names[-1], manifestations[-1]}
    # the selections of step 2, whose action set holds R1 (the coder's
    # completion is prefetched), and of step 4, whose action set holds R6
    # (the findings' embedding is)
    coding, matching = 1, 3
    fake_endpoint.rendezvous = lambda r: (
        r.role in ("thought", "action", "coder")
        or (r.role == "select" and r.number in (coding, matching))
        or (r.role == "embed" and r.prompt not in alone))
    fake_endpoint.serve({case.scenario.id: case.script})
    state = run_episode(case.scenario, AgentConfig(), RemoteBackend(fake_endpoint.config()),
                        kb)
    assert state.outcome == "completed" and state.step_count == STEPS

    assert state.history[1].chosen.rule == "R1"
    assert state.history[3].chosen.rule == "R6"
    findings = state.history[3].chosen.args["observation"]
    expected = {frozenset({("thought", n), ("action", n)}) for n in range(STEPS)}
    expected.add(frozenset({("select", coding), ("coder", 0)}))
    expected.add(frozenset({("select", matching), ("embed", findings)}))
    expected |= {frozenset({("embed", a), ("embed", b)})
                 for store in (names, manifestations)
                 for a, b in zip(store[0::2], store[1::2])}

    def key(request):
        return request.role, request.prompt if request.role == "embed" else request.number

    pairs = fake_endpoint.overlaps  # no other pair of requests was ever in flight together
    assert len(pairs) == len(expected) == 12
    assert {frozenset({key(a), key(b)}) for a, b in pairs} == expected


def _failing_run(fake_endpoint, monkeypatch, replies, concurrent: bool):
    monkeypatch.setattr(RemoteBackend, "concurrent_calls", concurrent)
    case = golden.golden_cases("default")[0]
    fake_endpoint.serve({case.scenario.id: case.script})
    fake_endpoint.replies = replies
    kb = golden.make_golden_kb(make_backend(BackendConfig()))
    result = run_episode(case.scenario, AgentConfig(), RemoteBackend(fake_endpoint.config()),
                         kb)
    return result, transcript_lines(result)


def _down(role: str):
    return (503, {"error": f"{role} backend down"})


# request numbers count per role and include retries: step 2's first call of a
# role is number 1, its retry number 2
THOUGHT_FAILS = {("thought", 1): _down("thought"), ("thought", 2): _down("thought")}
PROPOSAL_FAILS = {("action", 1): _down("action"), ("action", 2): _down("action")}


@pytest.mark.parametrize("replies, reason, last_kinds", [
    (THOUGHT_FAILS, "thought backend down", ["llm_retry", "termination"]),
    (PROPOSAL_FAILS, "action backend down", ["llm", "llm_retry", "termination"]),
    ({**THOUGHT_FAILS, **PROPOSAL_FAILS}, "thought backend down",
     ["llm_retry", "termination"]),
    ({("action", 1): _down("action")}, None, None),
], ids=["thought-fails", "proposal-fails", "both-fail", "proposal-retried"])
def test_failures_resolve_as_in_sequential_order(fake_endpoint, monkeypatch, replies,
                                                 reason, last_kinds):
    sequential, sequential_lines = _failing_run(fake_endpoint, monkeypatch, replies,
                                                concurrent=False)
    concurrent, concurrent_lines = _failing_run(fake_endpoint, monkeypatch, replies,
                                                concurrent=True)
    assert concurrent_lines == sequential_lines
    if reason is None:
        assert concurrent.outcome == "completed"
        assert sum(e["kind"] == "llm_retry" for e in concurrent.events) == 1
        return
    assert concurrent.outcome == "aborted"
    assert concurrent.abort_reason.startswith("backend failed twice:")
    assert reason in concurrent.abort_reason
    step_events = [e for e in concurrent.events if e["step"] == 1]
    assert [e["kind"] for e in step_events] == last_kinds
    if last_kinds[0] == "llm":  # the thought's reply, before the proposal's retry
        assert "ROLE: orchestrator-thought" in step_events[0]["prompt"]


_NAMES = [doc.name for doc in golden.golden_sops()]
# the first match_sop embeds the 9 SOP names two at a time, the query (the
# first name) included: the third name goes first in its pair, the fourth second
FIRST_HALF, SECOND_HALF = _NAMES[2], _NAMES[3]


def _embed_down(text: str, times: int) -> dict:
    return {("embed", text, n): (503, {"error": f"{text} down"}) for n in range(times)}


@pytest.mark.parametrize("replies, retried, reason", [
    (_embed_down(FIRST_HALF, 1), [FIRST_HALF], None),
    (_embed_down(SECOND_HALF, 1), [SECOND_HALF], None),
    ({**_embed_down(FIRST_HALF, 1), **_embed_down(SECOND_HALF, 1)},
     [FIRST_HALF, SECOND_HALF], None),
    (_embed_down(FIRST_HALF, 2), [FIRST_HALF], FIRST_HALF),
    (_embed_down(SECOND_HALF, 2), [SECOND_HALF], SECOND_HALF),
    ({**_embed_down(FIRST_HALF, 2), **_embed_down(SECOND_HALF, 2)},
     [FIRST_HALF], FIRST_HALF),
    ({**_embed_down(FIRST_HALF, 1), **_embed_down(SECOND_HALF, 2)},
     [FIRST_HALF, SECOND_HALF], SECOND_HALF),
], ids=["first-retried", "second-retried", "both-retried", "first-fails", "second-fails",
        "both-fail", "first-retried-second-fails"])
def test_paired_embedding_failures_resolve_as_in_sequential_order(
        fake_endpoint, monkeypatch, replies, retried, reason):
    sequential, sequential_lines = _failing_run(fake_endpoint, monkeypatch, replies,
                                                concurrent=False)
    concurrent, concurrent_lines = _failing_run(fake_endpoint, monkeypatch, replies,
                                                concurrent=True)
    # the pair really was split between the step's thread and the worker; a
    # retry runs on the step's thread, so only each text's first request counts
    threads: dict[str, str] = {}
    for r in fake_endpoint.requests:
        if r.role == "embed":
            threads.setdefault(r.prompt, r.thread)
    assert threads[FIRST_HALF] == "MainThread"
    assert threads[SECOND_HALF].startswith("sopflow-propose")

    assert concurrent_lines == sequential_lines
    events = concurrent.events
    assert [e["error"] for e in events if e["kind"] == "llm_retry"] == [
        f"backend returned status 503: {json.dumps({'error': f'{text} down'})}"
        for text in retried]
    if reason is None:
        assert concurrent.outcome == "completed"
        return
    assert concurrent.outcome == "aborted"
    assert concurrent.abort_reason.startswith("backend failed twice:")
    assert f"{reason} down" in concurrent.abort_reason
    assert events[-2]["kind"] == "llm_retry" and f"{reason} down" in events[-2]["error"]


@pytest.mark.parametrize("bad_reply", [
    (503, {"error": "embeddings down"}),
    (200, {"data": [{"embedding": [0.5] * 63}]}),
], ids=["503", "63-dim"])
def test_failing_prefetch_leaves_the_transcript_unchanged(fake_endpoint, monkeypatch,
                                                          bad_reply):
    clean, _ = _failing_run(fake_endpoint, monkeypatch, {}, concurrent=False)
    findings = clean.history[3].chosen.args["observation"]
    # the first request for the findings is the prefetch sent during the selection
    replies = {("embed", findings, 0): bad_reply}
    sequential, sequential_lines = _failing_run(fake_endpoint, monkeypatch, replies,
                                                concurrent=False)
    concurrent, concurrent_lines = _failing_run(fake_endpoint, monkeypatch, replies,
                                                concurrent=True)
    assert concurrent_lines == sequential_lines
    assert concurrent.outcome == "completed"
    assert sum(e["kind"] == "llm_retry" for e in concurrent.events) == 1
    sent = [r for r in fake_endpoint.requests if r.role == "embed" and r.prompt == findings]
    assert sent[0].thread.startswith("sopflow-propose")  # the prefetch
    # the failed prefetch was the match's first attempt, and the match retried once
    assert [r.repeat for r in sent] == [0, 1]
    # the alert, R8's query, is never embedded: it is not prefetched, and the
    # script's match_sop queries an SOP name
    assert not any(r.prompt == clean.alert for r in fake_endpoint.requests)


@pytest.mark.parametrize("bad_reply", [
    (503, {"error": "coder down"}),
    (200, {"choices": [{"message": {"content": ["not", "a", "string"]}}]}),
], ids=["503", "non-string-content"])
def test_failing_coder_prefetch_leaves_the_transcript_unchanged(fake_endpoint, monkeypatch,
                                                                bad_reply):
    # the first coder request is the prefetch sent during step 2's selection
    replies = {("coder", 0): bad_reply}
    sequential, sequential_lines = _failing_run(fake_endpoint, monkeypatch, replies,
                                                concurrent=False)
    concurrent, concurrent_lines = _failing_run(fake_endpoint, monkeypatch, replies,
                                                concurrent=True)
    assert concurrent_lines == sequential_lines
    assert concurrent.outcome == "completed"
    assert sum(e["kind"] == "llm_retry" for e in concurrent.events) == 1
    sent = [r for r in fake_endpoint.requests if r.role == "coder"]
    assert sent[0].thread.startswith("sopflow-propose")  # the prefetch
    # the failed prefetch was the tool's first attempt, and the tool retried once
    assert [r.repeat for r in sent] == [0, 1]


def _script_passing_over_r1(case) -> list[ScriptEntry]:
    """``case``'s default script, but step 2 selects the agent's candidate over
    R1's ``generate_sop_code``, and in a new step 3 the agent proposes that
    same call and the selection chooses it. Entries are consumed per role in
    order, so each role's list is edited on its own."""
    by_role: dict[str, list[ScriptEntry]] = {}
    for entry in case.script:
        by_role.setdefault(entry.match_key, []).append(entry)
    sop_id = golden.golden_sops()[0].id  # case 0's fault type comes first in both
    by_role[ROLE_SELECT][1] = ScriptEntry(ROLE_SELECT, "1", consume_once=True)
    by_role[ROLE_THOUGHT].insert(2, ScriptEntry(
        ROLE_THOUGHT, "Traces collected. Now codify the procedure.", consume_once=True))
    by_role[ROLE_ACTION].insert(2, ScriptEntry(
        ROLE_ACTION, f'ACTION: generate_sop_code(sop_id="{sop_id}") | codify it',
        consume_once=True))
    by_role[ROLE_SELECT].insert(2, ScriptEntry(ROLE_SELECT, "1", consume_once=True))
    return [entry for entries in by_role.values() for entry in entries]


def test_a_held_coder_reply_serves_a_later_step(fake_endpoint):
    case = golden.golden_cases("default")[0]
    script = _script_passing_over_r1(case)
    scripted = run_episode(case.scenario, AgentConfig(),
                           ScriptedBackend(BackendConfig(script=script)),
                           golden.make_golden_kb(make_backend(BackendConfig())))
    fake_endpoint.serve({case.scenario.id: script})
    remote = run_episode(case.scenario, AgentConfig(), RemoteBackend(fake_endpoint.config()),
                         golden.make_golden_kb(make_backend(BackendConfig())))
    history = scripted.history
    assert [record.chosen.tool for record in history] == [
        "match_sop", "collect_trace", "generate_sop_code", "run_sop", "match_observation",
        "speak"]
    assert [c.rule for c in action_sets(scripted)[1]] == [None, "R1"]
    assert history[2].chosen.rule is None  # the agent's own proposal
    assert scripted.outcome == "completed"

    assert transcript_lines(remote) == transcript_lines(scripted)
    # the completion prefetched during step 2's selection served step 3
    sent = [r for r in fake_endpoint.requests if r.role == "coder"]
    assert len(sent) == 1 and sent[0].thread.startswith("sopflow-propose")


def _script_running_sop_twice(case) -> list[ScriptEntry]:
    """``case``'s default script, but step 4 selects the agent's ``run_sop``
    over R6's ``match_observation``, so the findings R6 matches come again in
    a new step 5, which chooses R6 as step 4 did before."""
    by_role: dict[str, list[ScriptEntry]] = {}
    for entry in case.script:
        by_role.setdefault(entry.match_key, []).append(entry)
    by_role[ROLE_THOUGHT].insert(3, ScriptEntry(
        ROLE_THOUGHT, "Findings collected. Run the program once more.", consume_once=True))
    by_role[ROLE_ACTION].insert(3, ScriptEntry(
        ROLE_ACTION, "ACTION: run_sop() | run it again", consume_once=True))
    by_role[ROLE_SELECT].insert(3, ScriptEntry(ROLE_SELECT, "1", consume_once=True))
    return [entry for entries in by_role.values() for entry in entries]


def test_findings_sent_ahead_twice_are_requested_once(fake_endpoint):
    case = golden.golden_cases("default")[0]
    script = _script_running_sop_twice(case)
    scripted = run_episode(case.scenario, AgentConfig(),
                           ScriptedBackend(BackendConfig(script=script)),
                           golden.make_golden_kb(make_backend(BackendConfig())))
    fake_endpoint.serve({case.scenario.id: script})
    remote = run_episode(case.scenario, AgentConfig(), RemoteBackend(fake_endpoint.config()),
                         golden.make_golden_kb(make_backend(BackendConfig())))
    history = scripted.history
    assert [record.chosen.tool for record in history] == [
        "match_sop", "generate_sop_code", "run_sop", "run_sop", "match_observation", "speak"]
    findings = history[4].chosen.args["observation"]
    assert [(c.rule, c.args.get("observation")) for c in action_sets(scripted)[3]] == [
        (None, None), ("R6", findings)]
    assert history[3].chosen.rule is None  # the agent's own run_sop
    assert history[4].chosen.rule == "R6"
    assert scripted.outcome == "completed"

    assert transcript_lines(remote) == transcript_lines(scripted)
    # step 4's selection sent the findings ahead; step 5's R6 found them still
    # held, and its match took the held reply
    sent = [r for r in fake_endpoint.requests if r.role == "embed" and r.prompt == findings]
    assert len(sent) == 1 and sent[0].thread.startswith("sopflow-propose")


def test_no_thread_outlives_its_episode(tmp_path, fake_endpoint):
    fake_endpoint.delays = {"thought": 0.005, "action": 0.005}
    before = threading.active_count()
    case = golden.golden_cases("default")[0]
    fake_endpoint.serve({case.scenario.id: case.script})
    kb = golden.make_golden_kb(make_backend(BackendConfig()))
    result = run_episode(case.scenario, AgentConfig(), RemoteBackend(fake_endpoint.config()),
                         kb)
    assert result.outcome == "completed"
    assert threading.active_count() == before

    _, remote = _corpora(tmp_path / "corpus", "default")
    _serve_golden(fake_endpoint, "default")
    report = run_benchmark(remote, EvalConfig(workers=2), fake_endpoint.config())
    assert [row.outcome for row in report.rows] == ["completed"] * 9
    assert threading.active_count() == before
    proposers = {r.thread for r in fake_endpoint.requests if r.role == "action"}
    assert proposers and all(name.startswith("sopflow-propose") for name in proposers)


def test_scripted_runs_never_call_the_backend_from_two_threads(tmp_path, monkeypatch):
    in_flight = []
    peak = []
    threads = set()
    lock = threading.Lock()

    def watched(original):
        def call(self, arg):
            with lock:
                in_flight.append(1)
                peak.append(len(in_flight))
                threads.add(threading.get_ident())
            try:
                return original(self, arg)
            finally:
                with lock:
                    in_flight.pop()
        return call

    monkeypatch.setattr(ScriptedBackend, "complete", watched(ScriptedBackend.complete))
    monkeypatch.setattr(ScriptedBackend, "embed", watched(ScriptedBackend.embed))
    for mode in golden.MODES:
        scripted, _ = _corpora(tmp_path / mode, mode)
        report = _run(scripted, mode, BackendConfig(), tmp_path / mode / "out")
        assert report.la == 1.0 and report.ta == 1.0, mode
    assert peak and max(peak) == 1
    assert threads == {threading.get_ident()}


def test_bad_embedding_reply_is_retried_not_cached(tmp_path, fake_endpoint):
    _, remote = _corpora(tmp_path / "corpus", "default")
    _serve_golden(fake_endpoint, "default")
    fake_endpoint.replies = {("embed", 2): (200, {"data": [{"embedding": [0.5] * 63}]})}
    out = tmp_path / "out"
    report = _run(remote, "default", fake_endpoint.config(), out)
    assert [row.outcome for row in report.rows] == ["completed"] * 9
    assert report.la == 1.0 and report.ta == 1.0
    retries = [json.loads(line) for path in sorted((out / "transcripts").glob("*.jsonl"))
               for line in path.read_text().splitlines()
               if json.loads(line)["kind"] == "llm_retry"]
    assert len(retries) == 1
    assert "expected a list of 64 finite numbers" in retries[0]["error"]


def test_an_unresolved_procedure_is_not_prefetched(fake_endpoint, monkeypatch):
    # the SOP step 1 matches is gone from the store by step 2, so no coder
    # prompt can be built for R1's generate_sop_code, nor for step 3's R5
    # retry: nothing is prefetched, and each selection goes out alone
    case = golden.golden_cases("default")[0]
    gone = golden.golden_sops()[0].id
    get_sop = KnowledgeBase.get_sop

    def get_sop_but_gone(kb, sop_id):
        if sop_id == gone:
            raise NotFoundError(f"no SOP with id {sop_id!r}")
        return get_sop(kb, sop_id)

    monkeypatch.setattr(KnowledgeBase, "get_sop", get_sop_but_gone)
    config = AgentConfig(max_steps=3)
    scripted = run_episode(case.scenario, config,
                           ScriptedBackend(BackendConfig(script=case.script)),
                           golden.make_golden_kb(make_backend(BackendConfig())))
    fake_endpoint.serve({case.scenario.id: case.script})
    remote = run_episode(case.scenario, config, RemoteBackend(fake_endpoint.config()),
                         golden.make_golden_kb(make_backend(BackendConfig())))
    history = scripted.history
    assert [(record.chosen.tool, record.chosen.rule) for record in history] == [
        ("match_sop", None), ("generate_sop_code", "R1"), ("run_sop", None)]
    assert history[1].chosen.args == {"sop_id": gone}
    assert history[1].result.observation == f"tool error: no SOP with id {gone!r}"
    assert [c.rule for c in action_sets(scripted)[2]] == [None, "R5"]
    assert scripted.outcome == remote.outcome == "budget_exhausted"

    assert transcript_lines(remote) == transcript_lines(scripted)
    # the failing tool never reached the coder, and no selection was in
    # flight with another request
    assert fake_endpoint.completions_by_role() == {"thought": 3, "action": 3, "select": 3}
    assert not any("select" in (a.role, b.role) for a, b in fake_endpoint.overlaps)
