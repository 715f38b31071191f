"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

The exact counters of a traced run must repeat between two runs of one
seed and reproduce the counts measured on this code before any optimisation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _counters(stdout: str) -> dict:
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("counters (exact"))
    end = next(i for i, line in enumerate(lines) if line.startswith("timings and counts"))
    return json.loads("\n".join(lines[start + 1:end]))


def _traced_twice(workload: str, seed: int = 3) -> tuple[dict, dict, dict]:
    """Two concurrent traced runs of the shortest length; returns both counter
    blocks and the first run's result line."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    procs = [subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for _ in range(2)]
    outs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr + stdout[-2000:]
        outs.append(stdout)
    result = json.loads(outs[0].strip().splitlines()[-1])
    return _counters(outs[0]), _counters(outs[1]), result


def test_offline_distinct_counters():
    first, second, result = _traced_twice("offline-distinct")
    assert first == second
    assert result["correct"] and result["failed"] == 0
    assert first["episodes"] == workloads.DISTINCT_SCENARIOS
    assert first["llm.complete.calls_per_episode"] == 18
    assert first["sandbox.render_telemetry.calls_per_scenario"] == 1.0
    assert first["agents.steps"] == 5 * first["episodes"]
    assert first["tools.failed"] == {} and first["agents.fallbacks"] == 0


def test_offline_ablations_counters():
    first, second, result = _traced_twice("offline-ablations")
    assert first == second
    assert result["correct"] and result["failed"] == 0
    assert first["sandbox.render_telemetry.calls_per_scenario"] == 7.0
    default = first["by_mode"]["default"]
    assert default["episodes"] == 9
    assert default["llm.complete.calls"] == 18 * 9
    assert default["llm.embed.calls"] == 93
    assert default["path_lengths"] == [5] * 9
    for mode in ("sop_knowledge_off", "action_set_off"):
        assert first["by_mode"][mode]["path_lengths"] == [3] * 9
    assert set(first["by_mode"]["action_agent_off"]["path_lengths"]) <= {5, 6}


def test_live_latency_counters():
    first, second, result = _traced_twice("live-latency")
    assert first == second
    assert result["correct"] and result["failed"] == 0
    assert first["llm.connections_per_request"] == 1.0
    assert first["stub.completions"] == 18 * first["episodes"]
    assert first["stub.requests"] == first["stub.completions"] + first["stub.embeddings"]
    assert first["stub.embeddings"] == first["llm.embed.calls"]
    # one client, one request at a time: every request is its own round trip
    assert first["llm.serial_round_trips"] == first["stub.requests"]
    assert result["metrics"]["llm.connections_per_request"]["value"] == 1.0


def test_untraced_result_has_every_end_to_end_metric():
    command = [sys.executable, str(BENCH / "run.py"), "--workload", "offline-ablations",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * 63
    assert {name: m["unit"] for name, m in result["metrics"].items()} == workloads.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_the_printed_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == workloads.END_TO_END
    names = spans.layer_metric_names()
    assert [m["name"] for m in config["per_layer"]] == names
    assert all(m["unit"] == spans.unit(m["name"]) for m in config["per_layer"])


def test_tool_and_role_lists_cover_the_program():
    from sopflow import prompts
    from sopflow.tools import ALL_TOOL_NAMES

    assert sorted(spans.TOOLS) == sorted(ALL_TOOL_NAMES)
    markers = {value for name, value in vars(prompts).items() if name.startswith("ROLE_")}
    assert set(spans.ROLES) == markers


def test_traced_metrics_count_a_retried_backend_error(tmp_path, monkeypatch):
    """A completion that raises still makes a span, and its retry shows."""
    import corpus
    from sopflow.errors import BackendError
    from sopflow.llm import ScriptedBackend

    scripted, _ = corpus.write_generated(tmp_path / "c", 5, 1)
    original = ScriptedBackend.complete
    calls = []

    def fail_first(self, messages):
        calls.append(messages)
        if len(calls) == 1:
            raise BackendError("injected")
        return original(self, messages)

    monkeypatch.setattr(ScriptedBackend, "complete", fail_first)
    recorder = spans.Recorder()
    recorder.install()
    try:
        report = workloads.evaluation.run_benchmark(
            workloads.load_corpus(scripted.manifest), workloads.EvalConfig(),
            workloads.BackendConfig(), transcript_dir=tmp_path / "t")
    finally:
        recorder.uninstall()
    assert report.la == 1.0 and report.ta == 1.0
    metrics = spans.layer_metrics(recorder.spans, [(0, recorder.mark())], 1,
                                  spans.transcript_counts(tmp_path / "t"), None, 1.0, 1.0)
    assert metrics["llm.retries"] == 1
    assert metrics["llm.complete.calls.thought"] == 6  # five answered, one raised


def test_serial_round_trips_merges_overlapping_requests():
    assert spans.serial_round_trips([]) == 0
    assert spans.serial_round_trips([[0, 1], [1, 2], [2, 3]]) == 3
    assert spans.serial_round_trips([[0, 2], [1, 3], [4, 5], [4.5, 4.6]]) == 2


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "offline-distinct",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_generated_corpora_are_solvable(tmp_path, seed):
    """Any seed gives scenarios the oracle scripts solve (checked by the gate)."""
    import corpus

    scripted, _ = corpus.write_generated(tmp_path / "c", workloads._generator_seed(seed, 0), 9)
    report = workloads.evaluation.run_benchmark(
        workloads.load_corpus(scripted.manifest), workloads.EvalConfig(),
        workloads.BackendConfig())
    assert report.la == 1.0 and report.ta == 1.0 and report.apl == 5.0
