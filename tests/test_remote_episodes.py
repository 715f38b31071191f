"""Episodes through ``RemoteBackend``: each step sends its thought and its
proposal together, and the transcript is still the sequential one.

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


def test_each_step_overlaps_exactly_its_thought_and_proposal(fake_endpoint):
    # each thought and proposal waits inside the endpoint for the other, so a
    # client that sent them one after the other would time out there
    fake_endpoint.rendezvous = frozenset({"thought", "action"})
    case = golden.golden_cases("default")[0]
    fake_endpoint.serve({case.scenario.id: case.script})
    kb = golden.make_golden_kb(make_backend(BackendConfig()))
    result = run_episode(case.scenario, AgentConfig(), RemoteBackend(fake_endpoint.config()),
                         kb)
    assert result.outcome == "completed" and result.state.step_count == STEPS

    pairs = fake_endpoint.overlaps  # no other pair of requests was ever in flight together
    assert len(pairs) == STEPS
    for a, b in pairs:
        assert {a.role, b.role} == {"thought", "action"} and a.number == b.number
    assert sorted(a.number for a, _ in pairs) == list(range(STEPS))


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
