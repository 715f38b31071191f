"""Rule-based anomaly detection for metric series and log lines.

A metric with a configured static threshold is anomalous when any in-window
sample exceeds it. Everything else uses a k-sigma rule (k=3 by default)
against a baseline estimated from samples immediately before the window; when
there is no usable pre-window history the baseline falls back to the median
and MAD of the window itself. The sigma estimate is floored at
``min_sigma_frac`` of the baseline mean so flat series do not self-trigger.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import schema

DEFAULT_K = 3.0
DEFAULT_MIN_SIGMA_FRAC = 0.1
DEFAULT_MIN_BASELINE_SAMPLES = 4
DEFAULT_BASELINE_LOOKBACK = 20

DEFAULT_STATIC_THRESHOLDS = {
    "cpu_usage": 0.8,
    "memory_usage": 0.85,
    "error_rate": 0.05,
}

DEFAULT_ANOMALY_KEYWORDS = ("error", "timeout", "refused", "oom", "throttling")

_MAD_TO_SIGMA = 1.4826


@dataclass
class DetectorConfig:
    k: float = DEFAULT_K
    min_sigma_frac: float = DEFAULT_MIN_SIGMA_FRAC
    min_baseline_samples: int = DEFAULT_MIN_BASELINE_SAMPLES
    baseline_lookback_samples: int = DEFAULT_BASELINE_LOOKBACK
    static_thresholds: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_STATIC_THRESHOLDS)
    )
    anomaly_keywords: tuple[str, ...] = DEFAULT_ANOMALY_KEYWORDS

    @classmethod
    def from_mapping(cls, mapping: dict) -> "DetectorConfig":
        return schema.from_mapping(cls, mapping, "detector")

    @classmethod
    def from_file(cls, path: Path | str) -> "DetectorConfig":
        return cls.from_mapping(yaml.safe_load(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class MetricVerdict:
    anomalous: bool
    direction: str  # "above" | "below" | "none"
    rule: str       # "static" | "k_sigma" | "robust" | "empty"
    detail: str


def evaluate_series(window_values: list[float], baseline_values: list[float],
                    metric: str, cfg: DetectorConfig) -> MetricVerdict:
    """Judge whether the in-window samples of one series are anomalous."""
    if not window_values:
        return MetricVerdict(False, "none", "empty", "no samples in window")

    threshold = cfg.static_thresholds.get(metric)
    if threshold is not None:
        breaching = [v for v in window_values if v > threshold]
        if breaching:
            return MetricVerdict(
                True, "above", "static",
                f"{len(breaching)}/{len(window_values)} samples above static threshold "
                f"{threshold:g} (peak {max(breaching):.6g})",
            )
        return MetricVerdict(
            False, "none", "static",
            f"all {len(window_values)} samples within static threshold {threshold:g}",
        )

    if len(baseline_values) >= cfg.min_baseline_samples:
        mean = statistics.fmean(baseline_values)
        sigma = statistics.pstdev(baseline_values)
        rule = "k_sigma"
    else:
        mean = statistics.median(window_values)
        deviations = [abs(v - mean) for v in window_values]
        sigma = statistics.median(deviations) * _MAD_TO_SIGMA
        rule = "robust"
    sigma = max(sigma, cfg.min_sigma_frac * abs(mean), 1e-12)

    worst = max(window_values, key=lambda v: abs(v - mean))
    deviation = worst - mean
    if abs(deviation) > cfg.k * sigma:
        direction = "above" if deviation > 0 else "below"
        return MetricVerdict(
            True, direction, rule,
            f"sample {worst:.6g} deviates {abs(deviation):.6g} from baseline "
            f"{mean:.6g} (limit {cfg.k * sigma:.6g}, rule {rule})",
        )
    return MetricVerdict(
        False, "none", rule,
        f"max deviation {abs(deviation):.6g} within {cfg.k * sigma:.6g} of baseline "
        f"{mean:.6g} (rule {rule})",
    )


def matches_keyword(text: str, cfg: DetectorConfig) -> bool:
    """Case-insensitive anomaly keyword screen used for log lines."""
    lowered = text.lower()
    return any(keyword.lower() in lowered for keyword in cfg.anomaly_keywords)
