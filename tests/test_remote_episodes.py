"""Episodes through ``RemoteBackend``: each step sends its thought and its
proposal together, the findings an R6 candidate matches are embedded while
the selection is in flight, and a cold store's texts are embedded two at a
time; the transcript is still the sequential one.

``fake_endpoint`` (conftest) answers the HTTP calls from each scenario's
script, with a delay per request, and records which requests were in flight
together.
"""

import json
import threading

import pytest
import yaml

from sopflow import golden
from sopflow.agents import Ablations, AgentConfig, run_episode, transcript_lines
from sopflow.evaluation import EvalConfig, load_corpus, run_benchmark, save_report
from sopflow.llm import BackendConfig, RemoteBackend, ScriptedBackend, make_backend

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
        proposers |= {r.thread for r in fake_endpoint.requests if r.role == "action"}
    # the proposals really were sent from an episode's worker thread
    assert proposers and all(name.startswith("sopflow-propose") for name in proposers)


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
    prefetching = 3  # the selection of step 4, whose action set holds R6
    fake_endpoint.rendezvous = lambda r: (
        r.role in ("thought", "action")
        or (r.role == "select" and r.number == prefetching)
        or (r.role == "embed" and r.prompt not in alone))
    fake_endpoint.serve({case.scenario.id: case.script})
    result = run_episode(case.scenario, AgentConfig(), RemoteBackend(fake_endpoint.config()),
                         kb)
    assert result.outcome == "completed" and result.state.step_count == STEPS

    state = result.state
    assert state.history[3].chosen.rule == "R6"
    findings = state.history[3].chosen.args["observation"]
    expected = {frozenset({("thought", n), ("action", n)}) for n in range(STEPS)}
    expected.add(frozenset({("select", prefetching), ("embed", findings)}))
    expected |= {frozenset({("embed", a), ("embed", b)})
                 for store in (names, manifestations)
                 for a, b in zip(store[0::2], store[1::2])}

    def key(request):
        return request.role, request.prompt if request.role == "embed" else request.number

    pairs = fake_endpoint.overlaps  # no other pair of requests was ever in flight together
    assert len(pairs) == len(expected) == 11
    assert {frozenset({key(a), key(b)}) for a, b in pairs} == expected


def _failing_run(fake_endpoint, monkeypatch, replies, concurrent: bool):
    monkeypatch.setattr(RemoteBackend, "concurrent_calls", concurrent)
    case = golden.golden_cases("default")[0]
    fake_endpoint.serve({case.scenario.id: case.script})
    fake_endpoint.replies = replies
    kb = golden.make_golden_kb(make_backend(BackendConfig()))
    result = run_episode(case.scenario, AgentConfig(), RemoteBackend(fake_endpoint.config()),
                         kb)
    return result, transcript_lines(result.state)


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
        assert sum(e["kind"] == "llm_retry" for e in concurrent.state.events) == 1
        return
    assert concurrent.outcome == "aborted"
    assert concurrent.state.abort_reason.startswith("backend failed twice:")
    assert reason in concurrent.state.abort_reason
    step_events = [e for e in concurrent.state.events if e["step"] == 1]
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
    # the pair really was split between the step's thread and the worker
    threads = {r.prompt: r.thread for r in fake_endpoint.requests if r.role == "embed"}
    assert threads[FIRST_HALF] == "MainThread"
    assert threads[SECOND_HALF].startswith("sopflow-propose")

    assert concurrent_lines == sequential_lines
    events = concurrent.state.events
    assert [e["error"] for e in events if e["kind"] == "llm_retry"] == [
        f"backend returned status 503: {json.dumps({'error': f'{text} down'})}"
        for text in retried]
    if reason is None:
        assert concurrent.outcome == "completed"
        return
    assert concurrent.outcome == "aborted"
    assert concurrent.state.abort_reason.startswith("backend failed twice:")
    assert f"{reason} down" in concurrent.state.abort_reason
    assert events[-2]["kind"] == "llm_retry" and f"{reason} down" in events[-2]["error"]


@pytest.mark.parametrize("bad_reply", [
    (503, {"error": "embeddings down"}),
    (200, {"data": [{"embedding": [0.5] * 63}]}),
], ids=["503", "63-dim"])
def test_failing_prefetch_leaves_the_transcript_unchanged(fake_endpoint, monkeypatch,
                                                          bad_reply):
    sequential, sequential_lines = _failing_run(fake_endpoint, monkeypatch, {},
                                                concurrent=False)
    state = sequential.state
    findings = state.history[3].chosen.args["observation"]
    # the first request for the findings is the prefetch sent during the selection
    replies = {("embed", findings, 0): bad_reply}
    concurrent, concurrent_lines = _failing_run(fake_endpoint, monkeypatch, replies,
                                                concurrent=True)
    assert concurrent_lines == sequential_lines
    assert concurrent.outcome == "completed"
    assert not any(e["kind"] == "llm_retry" for e in concurrent.state.events)
    sent = [r for r in fake_endpoint.requests if r.role == "embed" and r.prompt == findings]
    assert sent[0].thread.startswith("sopflow-propose")  # the prefetch
    # the match embedded the findings again, as if nothing had been sent
    assert [r.repeat for r in sent] == [0, 1]
    # the alert, R8's query, is never embedded: it is not prefetched, and the
    # script's match_sop queries an SOP name
    assert not any(r.prompt == state.alert for r in fake_endpoint.requests)


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
