"""The error-span walk and the on-demand heartbeat logs against the
reference of ``tests/reference.py``: a brute-force walk that tests every call
of the call tree, and every log line rendered before any query.
``tests/test_render_identity.py`` pins the reference bytes themselves. Also
what the golden episodes render: no heartbeat, few metric samples, and only
the calls a fault can make fail."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sopflow import golden
from sopflow.agents import AgentConfig, run_episode
from sopflow.llm import BackendConfig, make_backend
from sopflow.sandbox import ScenarioConfig, generate_corpus, render_telemetry
from sopflow.sandbox.telemetry import Telemetry

from conftest import scripted_backend
from reference import reference_digest, reference_error_spans, reference_logs

_scenarios = st.builds(
    lambda seed, index, faults: generate_corpus(
        seed, index + 1, ScenarioConfig(faults_per_scenario=faults))[index],
    seed=st.integers(0, 5_000), index=st.integers(0, 8), faults=st.integers(1, 2),
)

# empty (start >= end) and out-of-range windows included
_windows = st.none() | st.tuples(st.integers(-100, 900), st.integers(-100, 900))
_queries = st.lists(st.one_of(
    st.tuples(st.just("errors"), _windows),
    st.tuples(st.just("pod_logs"), st.integers(0, 100), _windows),
    st.tuples(st.just("logs"), _windows),
), max_size=10)


def _within(t: int, window) -> bool:
    return window is None or window[0] <= t < window[1]


@given(scenario=_scenarios, queries=_queries)
@settings(max_examples=40, deadline=None)
def test_queries_match_the_reference(scenario, queries):
    eager = render_telemetry(scenario)
    logs = reference_logs(eager)  # every heartbeat rendered before any other query
    expected_digest = reference_digest(eager)

    telemetry = render_telemetry(scenario)
    pods = sorted(pod.id for pod in telemetry.topology.pods)
    for query in queries:
        kind, window = query[0], query[-1]
        if kind == "errors":
            assert telemetry.error_spans(window) == reference_error_spans(eager, window)
        elif kind == "pod_logs":
            pod = pods[query[1] % len(pods)]
            assert reference_logs(telemetry, pod, window) == [
                line for line in logs if line.pod == pod and _within(line.t_s, window)]
        else:
            assert reference_logs(telemetry, window=window) == [
                line for line in logs if _within(line.t_s, window)]
    assert reference_logs(telemetry) == logs
    assert reference_digest(telemetry) == expected_digest


def _run_golden_default_episodes() -> None:
    kb = golden.make_golden_kb(scripted_backend())
    for case in golden.golden_cases("default"):
        backend = make_backend(BackendConfig(script=list(case.script)))
        result = run_episode(case.scenario, AgentConfig(), backend, kb.clone_in_memory())
        assert result.outcome == "completed"


# Heartbeat draws (noise.unit(seed, "log", pod, t)) of the 9 golden default
# episodes run with golden.build_script. Rendering every heartbeat up front,
# as the reference does, draws 1,980: 20 log ticks x 11 pods per scenario.
# The alert and kubectl_logs draw none: no default keyword can occur in a
# heartbeat line.
_EPISODE_LOG_DRAWS = 0
_FULL_LOG_DRAWS = 1_980


def test_golden_episodes_render_no_heartbeat(count_draws):
    heartbeats = count_draws("unit", lambda *parts: parts[1] == "log")
    _run_golden_default_episodes()
    episode_draws, heartbeats.calls = heartbeats.calls, 0
    for scenario in golden.golden_scenarios():
        reference_logs(render_telemetry(scenario))
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

    def counting_failed_call(self, trace_id, span_id, edge, effect):
        nonlocal calls
        calls += 1
        assert effect.unreachable_msg is not None or effect.error_modes, (trace_id, span_id)
        return failed_call(self, trace_id, span_id, edge, effect)

    monkeypatch.setattr(Telemetry, "_failed_call", counting_failed_call)
    for scenario in golden.golden_scenarios():
        render_telemetry(scenario).error_spans()
    assert calls == _WALK_CALLS
