"""Spans recorded from outside the program, and the per-layer metrics built from them.

``Recorder.install`` replaces the names the program calls through (module
functions and class methods) with wrappers that record a span per call:
name, start, end, parent span and episode id. Nothing inside ``src/``
changes. Spans stay in memory until the benchmark writes them out at the end.

A span's self time is its duration minus the part its child spans cover. The
client runs one episode at a time on one thread, so children never overlap
and that part is the sum of their durations.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

from sopflow import evaluation, prompts
from sopflow.agents import episode
from sopflow.kb import KnowledgeBase
from sopflow.llm import RemoteBackend, ScriptedBackend
from sopflow.sandbox import alert
from sopflow.tools import observability
from sopflow.tools.registry import ToolRegistry

NAME, START, END, PARENT, EPISODE, ATTRS = range(6)

ROLES = {
    prompts.ROLE_THOUGHT: "thought",
    prompts.ROLE_ACTION: "action",
    prompts.ROLE_SELECT: "select",
    prompts.ROLE_DIRECT: "direct",
    prompts.ROLE_CODER: "coder",
    prompts.ROLE_AUTHOR: "author",
    prompts.ROLE_OBSERVER: "observer",
    prompts.ROLE_JUDGE: "judge",
}
ROLE_NAMES = tuple(ROLES.values())
TOOLS = (
    "collect_trace", "deployment_analyze", "generate_sop", "generate_sop_code",
    "get_all_namespace", "get_relevant_metric", "kubectl_logs", "match_observation",
    "match_sop", "node_analyze", "pod_analyze", "run_kubectl_command", "run_sop",
    "service_analyze", "speak", "statefulset_analyze", "whether_is_abnormal_metric",
)
RULES = tuple(f"R{i}" for i in range(1, 9))


def _role(messages) -> str:
    marker = messages[0].content.split("\n", 1)[0] if messages else ""
    return ROLES.get(marker, "other")


def _complete_attrs(args, kwargs):
    messages = args[1] if len(args) > 1 else kwargs["messages"]
    prompt_chars = sum(len(m.content) for m in messages) + len(messages) - 1
    return {"role": _role(messages), "prompt_chars": prompt_chars}


def _complete_result(attrs, reply):
    attrs["reply_chars"] = len(reply)


def _embed_attrs(args, kwargs):
    return {"text": args[1] if len(args) > 1 else kwargs["text"]}


def _execute_attrs(args, kwargs):
    return {"tool": args[1]}


def _execute_result(attrs, result):
    attrs["success"] = result.success


# (owner, attribute, span name, attrs(args, kwargs), episode id(args));
# spans without an episode id take their parent's. Attributes come from the
# arguments, so a call that raises (a retried backend error) still has them;
# ``_RESULT_ATTRS`` adds what only a returned result gives.
_TARGETS = (
    (evaluation, "run_benchmark", "evaluation.run_benchmark", None, None),
    (evaluation, "run_episode", "agents.run_episode", None, lambda a: a[0].id),
    (evaluation, "load_scenario", "sandbox.load_scenario", None, lambda a: Path(a[0]).stem),
    (evaluation, "write_transcript", "agents.write_transcript", None,
     lambda a: a[0].scenario_id),
    (episode, "render_telemetry", "sandbox.render_telemetry", None, None),
    (episode, "render_alert", "sandbox.render_alert", None, None),
    (episode, "apply_flow_rules", "agents.apply_flow_rules", None, None),
    (episode, "build_registry", "agents.build_registry", None, None),
    (alert, "evaluate_series", "detector.evaluate_series", None, None),
    (observability, "evaluate_series", "detector.evaluate_series", None, None),
    (KnowledgeBase, "_load", "kb.load", None, None),
    (KnowledgeBase, "clone_in_memory", "kb.clone", None, None),
    (KnowledgeBase, "without_sops", "kb.clone", None, None),
    (KnowledgeBase, "match_sop", "kb.match", None, None),
    (KnowledgeBase, "match_observation", "kb.match", None, None),
    (KnowledgeBase, "add_sop", "kb.add", None, None),
    (KnowledgeBase, "add_incident", "kb.add", None, None),
    (KnowledgeBase, "get_sop", "kb.get", None, None),
    (KnowledgeBase, "get_incident", "kb.get", None, None),
    (KnowledgeBase, "hits", "kb.get", None, None),
    (ToolRegistry, "execute", "tools.execute", _execute_attrs, None),
    (ScriptedBackend, "complete", "llm.complete", _complete_attrs, None),
    (RemoteBackend, "complete", "llm.complete", _complete_attrs, None),
    (ScriptedBackend, "embed", "llm.embed", _embed_attrs, None),
    (RemoteBackend, "embed", "llm.embed", _embed_attrs, None),
)
_RESULT_ATTRS = {_complete_attrs: _complete_result, _execute_attrs: _execute_result}


class Recorder:
    """Records spans while installed; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._installed: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs_fn, episode_fn):
        spans = self.spans
        result_fn = _RESULT_ATTRS.get(attrs_fn)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            episode_id = episode_fn(args) if episode_fn else (
                spans[parent][EPISODE] if parent >= 0 else None)
            attrs = attrs_fn(args, kwargs) if attrs_fn is not None else None
            span = [name, 0.0, 0.0, parent, episode_id, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if result_fn is not None:
                result_fn(attrs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, attrs_fn, episode_fn in _TARGETS:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_fn, episode_fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start and end in µs from the first span,
        parent index, episode id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps([
                    span[NAME], round((span[START] - origin) * 1e6, 1),
                    round((span[END] - origin) * 1e6, 1), span[PARENT], span[EPISODE],
                ]) + "\n")


def self_times(spans: list[list], lo: int, hi: int) -> list[float]:
    """Self time in seconds of spans[lo:hi]; parents of these spans lie in the range
    or before it."""
    covered = [0.0] * (hi - lo)
    for span in spans[lo:hi]:
        parent = span[PARENT]
        if parent >= lo:
            covered[parent - lo] += span[END] - span[START]
    return [(span[END] - span[START]) - c for span, c in zip(spans[lo:hi], covered)]


def serial_round_trips(intervals: list[list[float]]) -> int:
    """Groups of overlapping [start, end] intervals: requests that overlap
    cost one round trip between them."""
    groups = 0
    group_end = None
    for start, end in sorted(intervals):
        if group_end is None or start >= group_end:
            groups += 1
            group_end = end
        else:
            group_end = max(group_end, end)
    return groups


def transcript_counts(transcript_dir: Path) -> Counter:
    """Counts taken from the byte-stable transcripts a pass wrote."""
    counts: Counter = Counter()
    for path in sorted(transcript_dir.glob("*.jsonl")):
        counts["transcripts"] += 1
        counts["transcript_bytes"] += path.stat().st_size
        for line in path.read_text(encoding="utf-8").splitlines():
            event = json.loads(line)
            kind = event["kind"]
            if kind == "llm_retry":
                counts["retries"] += 1
            elif kind == "action_set":
                counts["evicted"] += len(event["evicted"])
                for candidate in event["candidates"]:
                    if candidate.get("rule"):
                        counts[f"rule.{candidate['rule']}"] += 1
            elif kind == "note" and event["text"].startswith("fallback:"):
                counts["fallbacks"] += 1
            elif kind == "termination":
                counts["steps"] += event["steps"]
    return counts


def span_counts(spans: list[list], lo: int, hi: int) -> dict:
    """Exact counters over spans[lo:hi]."""
    calls: Counter = Counter()
    tool_calls: Counter = Counter()
    tool_failed: Counter = Counter()
    prompt_chars: Counter = Counter()
    reply_chars: Counter = Counter()
    role_calls: Counter = Counter()
    texts = set()
    scenarios = set()
    intervals = []
    for span in spans[lo:hi]:
        name = span[NAME]
        calls[name] += 1
        attrs = span[ATTRS]
        if name == "llm.complete":
            role_calls[attrs["role"]] += 1
            prompt_chars[attrs["role"]] += attrs["prompt_chars"]
            reply_chars[attrs["role"]] += attrs.get("reply_chars", 0)
            intervals.append([span[START], span[END]])
        elif name == "llm.embed":
            texts.add(attrs["text"])
            intervals.append([span[START], span[END]])
        elif name == "tools.execute":
            tool_calls[attrs["tool"]] += 1
            if not attrs.get("success", False):  # a call that raised failed too
                tool_failed[attrs["tool"]] += 1
        elif name == "agents.run_episode":
            scenarios.add(span[EPISODE])
    return {
        "calls": dict(sorted(calls.items())),
        "llm.complete.calls": dict(sorted(role_calls.items())),
        "llm.prompt_chars": dict(sorted(prompt_chars.items())),
        "llm.reply_chars": dict(sorted(reply_chars.items())),
        "llm.embed.distinct_texts": len(texts),
        "llm.client_round_trips": serial_round_trips(intervals),
        "tools.execute.calls": dict(sorted(tool_calls.items())),
        "tools.failed": dict(sorted(tool_failed.items())),
        "scenarios": len(scenarios),
    }


def layer_metrics(spans: list[list], ranges: list[tuple[int, int]], episodes: int,
                  transcripts: Counter, stub: dict | None,
                  wall_untraced_ms: float, wall_traced_ms: float) -> dict[str, float]:
    """Per-episode layer metrics over the traced passes ``ranges`` of ``spans``.

    ``stub`` holds the live stub's counts over the same passes (requests,
    connections, serial round trips, injected delay), or None offline.
    ``wall_*_ms`` are mean wall times per episode of untraced and traced passes.
    """
    self_ms: Counter = Counter()
    total_ms: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    distinct_texts = 0
    scenarios = 0
    client_round_trips = 0
    for lo, hi in ranges:
        for span, own in zip(spans[lo:hi], self_times(spans, lo, hi)):
            name = span[NAME]
            self_ms[name] += own * 1000.0
            total_ms[name] += (span[END] - span[START]) * 1000.0
        window = span_counts(spans, lo, hi)
        calls.update(window["calls"])
        for role, n in window["llm.complete.calls"].items():
            counts[f"llm.complete.calls.{role}"] += n
        for role, n in window["llm.prompt_chars"].items():
            counts[f"llm.prompt_chars.{role}"] += n
        for role, n in window["llm.reply_chars"].items():
            counts[f"llm.reply_chars.{role}"] += n
        for tool, n in window["tools.execute.calls"].items():
            counts[f"tools.execute.calls.{tool}"] += n
        for tool, n in window["tools.failed"].items():
            counts[f"tools.failed.{tool}"] += n
        distinct_texts += window["llm.embed.distinct_texts"]
        scenarios += window["scenarios"]
        client_round_trips += window["llm.client_round_trips"]

    per = 1.0 / episodes
    llm_calls = calls["llm.complete"] + calls["llm.embed"]
    llm_client_ms = total_ms["llm.complete"] + total_ms["llm.embed"]
    if stub is not None:
        requests = stub["requests"]
        round_trips = stub["serial_round_trips"]
        connections_per_request = stub["connections"] / requests if requests else 0.0
        overhead_ms = (llm_client_ms - requests * stub["delay_ms"]) / requests if requests else 0.0
    else:
        round_trips = client_round_trips
        connections_per_request = 0.0
        overhead_ms = llm_client_ms / llm_calls if llm_calls else 0.0

    metrics = {
        "sandbox.render_alert.ms": self_ms["sandbox.render_alert"] * per,
        "sandbox.render_telemetry.ms": self_ms["sandbox.render_telemetry"] * per,
        "sandbox.render_telemetry.calls_per_scenario":
            calls["sandbox.render_telemetry"] / scenarios if scenarios else 0.0,
        "sandbox.load_scenario.ms": self_ms["sandbox.load_scenario"] * per,
        "detector.evaluate_series.calls": calls["detector.evaluate_series"] * per,
        "detector.evaluate_series.ms": self_ms["detector.evaluate_series"] * per,
        "kb.load.ms": self_ms["kb.load"] * per,
        "kb.clone.ms": self_ms["kb.clone"] * per,
        "kb.match.calls": calls["kb.match"] * per,
        "kb.match.ms": self_ms["kb.match"] * per,
        "kb.embed.useful_frac":
            distinct_texts / calls["llm.embed"] if calls["llm.embed"] else 1.0,
    }
    for role in ROLE_NAMES:
        metrics[f"llm.complete.calls.{role}"] = counts[f"llm.complete.calls.{role}"] * per
    metrics.update({
        "llm.embed.calls": calls["llm.embed"] * per,
        "llm.complete.ms": total_ms["llm.complete"] * per,
        "llm.embed.ms": total_ms["llm.embed"] * per,
        "llm.serial_round_trips": round_trips * per,
        "llm.connections_per_request": connections_per_request,
        "llm.overhead_ms": overhead_ms,
    })
    for role in ROLE_NAMES:
        metrics[f"llm.prompt_chars.{role}"] = counts[f"llm.prompt_chars.{role}"] * per
    for role in ROLE_NAMES:
        metrics[f"llm.reply_chars.{role}"] = counts[f"llm.reply_chars.{role}"] * per
    metrics["llm.retries"] = transcripts["retries"] * per
    for tool in TOOLS:
        metrics[f"tools.execute.calls.{tool}"] = counts[f"tools.execute.calls.{tool}"] * per
    metrics["tools.execute.ms"] = self_ms["tools.execute"] * per
    for tool in TOOLS:
        metrics[f"tools.failed.{tool}"] = counts[f"tools.failed.{tool}"] * per
    episode_ms = total_ms["agents.run_episode"]
    metrics.update({
        "agents.episode.self_ms": self_ms["agents.run_episode"] * per,
        "agents.build_registry.ms": self_ms["agents.build_registry"] * per,
        "agents.apply_flow_rules.ms": self_ms["agents.apply_flow_rules"] * per,
    })
    for rule in RULES:
        metrics[f"agents.rule_fired.{rule}"] = transcripts[f"rule.{rule}"] * per
    metrics.update({
        "agents.evicted": transcripts["evicted"] * per,
        "agents.fallbacks": transcripts["fallbacks"] * per,
        "agents.steps": transcripts["steps"] * per,
        "agents.write_transcript.ms": self_ms["agents.write_transcript"] * per,
        "agents.transcript_bytes": transcripts["transcript_bytes"] * per,
        "evaluation.run_benchmark.self_ms": self_ms["evaluation.run_benchmark"] * per,
        "trace.unaccounted_frac":
            self_ms["agents.run_episode"] / episode_ms if episode_ms else 0.0,
        "trace.overhead_ms": wall_traced_ms - wall_untraced_ms,
        "trace.overhead_frac":
            (wall_traced_ms - wall_untraced_ms) / wall_untraced_ms if wall_untraced_ms else 0.0,
    })
    return metrics


def layer_metric_names() -> list[str]:
    """Every name ``layer_metrics`` returns, in order."""
    empty = layer_metrics([], [], 1, Counter(), None, 0.0, 0.0)
    return list(empty)


def unit(name: str) -> str:
    if name.endswith((".ms", "_ms")):
        return "ms"
    if name.endswith(("_frac", "per_request")):
        return "ratio"
    if ".prompt_chars." in name or ".reply_chars." in name:
        return "chars"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
