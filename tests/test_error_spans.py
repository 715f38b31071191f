"""The error-span walk and the on-demand heartbeat logs against an eager
render: every trace rendered in full, every log line rendered before any
query. ``tests/test_render_identity.py`` pins the eager bytes themselves.
Also what the golden episodes render: no trace, no heartbeat and few metric
samples."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sopflow import golden
from sopflow.agents import AgentConfig, run_episode
from sopflow.llm import BackendConfig, make_backend
from sopflow.sandbox import ScenarioConfig, generate_corpus, render_telemetry
from sopflow.sandbox.telemetry import Telemetry

from conftest import scripted_backend

_scenarios = st.builds(
    lambda seed, index, faults: generate_corpus(
        seed, index + 1, ScenarioConfig(faults_per_scenario=faults))[index],
    seed=st.integers(0, 5_000), index=st.integers(0, 8), faults=st.integers(1, 2),
)

# empty (start >= end) and out-of-range windows included
_windows = st.none() | st.tuples(st.integers(-100, 900), st.integers(-100, 900))
_queries = st.lists(st.one_of(
    st.tuples(st.just("errors"), _windows),
    st.tuples(st.just("traces"), _windows),
    st.tuples(st.just("logs"), st.integers(0, 100), _windows),
    st.tuples(st.just("all_logs"), _windows),
), max_size=10)


def _within(t: int, window) -> bool:
    return window is None or window[0] <= t < window[1]


@given(scenario=_scenarios, queries=_queries)
@settings(max_examples=40, deadline=None)
def test_queries_match_the_eager_render(scenario, queries):
    eager = render_telemetry(scenario)
    logs = eager.all_logs()  # every heartbeat rendered before any other query
    traces = eager.query_traces()
    expected_lines = eager.export_lines()

    telemetry = render_telemetry(scenario)
    pods = sorted(pod.id for pod in telemetry.topology.pods)
    for query in queries:
        kind, window = query[0], query[-1]
        if kind == "errors":
            assert telemetry.error_spans(window) == [
                span for trace in traces if _within(trace.t_s, window)
                for span in trace.spans if span.status == "error"]
        elif kind == "traces":
            assert telemetry.query_traces(window) == [
                trace for trace in traces if _within(trace.t_s, window)]
        elif kind == "logs":
            pod = pods[query[1] % len(pods)]
            assert [line for line in telemetry.all_logs(window) if line.pod == pod] == [
                line for line in logs if line.pod == pod and _within(line.t_s, window)]
        else:
            assert telemetry.all_logs(window) == [
                line for line in logs if _within(line.t_s, window)]
    assert telemetry.all_logs() == logs
    assert telemetry.export_lines() == expected_lines


def _run_golden_default_episodes() -> None:
    kb = golden.make_golden_kb(scripted_backend())
    for case in golden.golden_cases("default"):
        backend = make_backend(BackendConfig(script=list(case.script)))
        result = run_episode(case.scenario, AgentConfig(), backend, kb.clone_in_memory())
        assert result.outcome == "completed"


# Heartbeat draws (noise.unit(seed, "log", pod, t)) of the 9 golden default
# episodes run with golden.build_script. Rendering every heartbeat up front,
# as a full render does, draws 1,980: 20 log ticks x 11 pods per scenario.
# The alert and kubectl_logs draw none: no default keyword can occur in a
# heartbeat line.
_EPISODE_LOG_DRAWS = 0
_FULL_LOG_DRAWS = 1_980


def test_golden_episodes_render_no_trace_and_few_heartbeats(monkeypatch, count_draws):
    traces = 0
    trace = Telemetry._trace

    def counting_trace(self, tick, t):
        nonlocal traces
        traces += 1
        return trace(self, tick, t)

    heartbeats = count_draws("unit", lambda *parts: parts[1] == "log")
    monkeypatch.setattr(Telemetry, "_trace", counting_trace)
    _run_golden_default_episodes()
    assert traces == 0
    episode_draws, heartbeats.calls = heartbeats.calls, 0
    for scenario in golden.golden_scenarios():
        render_telemetry(scenario).all_logs()
    draws = heartbeats.calls
    assert draws == _FULL_LOG_DRAWS
    assert episode_draws == _EPISODE_LOG_DRAWS


# Gaussian draws of the same 9 episodes: the alert's and every metric
# check's. A static-threshold check renders only the samples that may exceed
# the threshold and no baseline; a stressed sample takes one draw. When every
# check rendered its whole window and baseline, they drew 340.
_EPISODE_DRAWS = 165


def test_golden_episodes_render_only_the_samples_a_verdict_reads(count_draws):
    gauss = count_draws("gauss")
    _run_golden_default_episodes()
    assert gauss.calls == _EPISODE_DRAWS


# ``_failed_call`` calls that whole-window ``error_spans()`` makes over the 9
# golden scenarios. Each tests a call a fault can make fail. A walk that also
# tested every call a fault delays, slows or cuts off from its callees made 384.
_WALK_CALLS = 128


def test_the_error_span_walk_tests_only_calls_a_fault_can_make_fail(monkeypatch):
    calls = 0
    failed_call = Telemetry._failed_call

    def counting_failed_call(self, trace_id, span_id, parent_span_id, edge, effect):
        nonlocal calls
        calls += 1
        assert effect.unreachable_msg is not None or effect.error_modes, (trace_id, span_id)
        return failed_call(self, trace_id, span_id, parent_span_id, edge, effect)

    monkeypatch.setattr(Telemetry, "_failed_call", counting_failed_call)
    for scenario in golden.golden_scenarios():
        render_telemetry(scenario).error_spans()
    assert calls == _WALK_CALLS
