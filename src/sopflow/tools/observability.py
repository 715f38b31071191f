"""Multimodal data collection tools: metrics, traces, logs as fault-related text."""

from __future__ import annotations

from ..detector import evaluate_series, static_verdict
from .registry import ToolContext, ToolResult


def _window(ctx: ToolContext, start_s, end_s) -> tuple[int, int]:
    lo, hi = ctx.window
    if start_s is not None:
        lo = int(start_s)
    if end_s is not None:
        hi = int(end_s)
    return lo, hi


def whether_is_abnormal_metric(ctx: ToolContext, target: str, metric: str,
                               start_s=None, end_s=None) -> ToolResult:
    """Run the anomaly rule on one series and describe the outcome in text.

    The verdict is ``evaluate_series`` on the window's samples and the
    baseline before it. Under a static threshold the rule reads only the
    sample count and the samples above the threshold, so only the samples
    that may exceed it are rendered (``Telemetry.query_may_flag``), and no
    baseline."""
    window = _window(ctx, start_s, end_s)
    threshold = ctx.detector.static_thresholds.get(metric)
    if threshold is None:
        samples = ctx.telemetry.query_metrics(target, metric, window)
        baseline = ctx.telemetry.baseline_values(
            target, metric, window[0], ctx.detector.baseline_lookback_samples
        )
        verdict = evaluate_series([v for _, v in samples], baseline, metric, ctx.detector)
    else:
        count, samples = ctx.telemetry.query_may_flag(ctx.detector, target, metric, window)
        verdict = static_verdict(count, samples, threshold)
    if verdict.anomalous:
        text = (f"metric {metric} on {target} is anomalous ({verdict.direction}): "
                f"{verdict.detail}")
    else:
        text = f"metric {metric} on {target} is normal: {verdict.detail}"
    return ToolResult(observation=text, payload=verdict)


def collect_trace(ctx: ToolContext, start_s=None, end_s=None) -> ToolResult:
    """List every error span in the window, grouped by trace."""
    window = _window(ctx, start_s, end_s)
    error_spans = ctx.telemetry.error_spans(window)
    lines = [f"trace={span.trace_id} service={span.service} "
             f"error='{span.error_message}' duration_ms={span.duration_ms}"
             for span in error_spans]
    if not lines:
        text = f"no abnormal spans in window [{window[0]}, {window[1]})"
    else:
        text = f"{len(lines)} abnormal spans in window [{window[0]}, {window[1]}):\n" \
               + "\n".join(lines)
    return ToolResult(observation=text, payload=error_spans)


def kubectl_logs(ctx: ToolContext, pod: str, start_s=None, end_s=None) -> ToolResult:
    """Return only the log lines that match the anomaly keyword list."""
    window = _window(ctx, start_s, end_s)
    lines = ctx.telemetry.anomalous_logs(ctx.detector, pod, window)
    if not lines:
        text = f"no abnormal logs for pod {pod} in window [{window[0]}, {window[1]})"
    else:
        rendered = "\n".join(f"[t={line.t_s}] {line.text}" for line in lines)
        text = f"{len(lines)} abnormal log lines for pod {pod}:\n{rendered}"
    return ToolResult(observation=text, payload=lines)
