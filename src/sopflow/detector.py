"""Rule-based anomaly detection for metric series and log lines.

A metric with a configured static threshold is anomalous when any in-window
sample exceeds it. Everything else uses a k-sigma rule (k=3 by default)
against a baseline estimated from samples immediately before the window; when
there is no usable pre-window history the baseline falls back to the median
and MAD of the window itself. The sigma estimate is floored at
``min_sigma_frac`` of the baseline mean so flat series do not self-trigger.
The k-sigma rule's sigma is the exact population standard deviation of the
baseline, correctly rounded: the float ``statistics.pstdev`` returns on
Python 3.11 and later, computed in integers.

``_baseline_rule`` computes what a series is judged against from its
baseline, once per series: ``evaluate_series`` judges through it, and the
alert sweep uses it to test each sample of a series on its own.
``_never_flags`` proves from a series' value range alone that no sample can
flag, so the sweep need not render the samples; a config is frozen, so
``sandbox.telemetry._never_flagging`` memoises those verdicts keyed on the
config itself. The static rule reads only a window's sample count and its
samples above the threshold (``static_verdict``), so a static check renders
no sample that cannot exceed the threshold.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Mapping
from dataclasses import dataclass, field

from . import schema

# every metric the sandbox renders (``sandbox.telemetry``), sorted; a static
# threshold may name only these
METRIC_CATALOG = ("cpu_usage", "error_rate", "memory_usage", "network_receive_bytes",
                  "network_transmit_bytes", "node_cpu_usage", "node_network_throughput_bytes",
                  "request_latency_ms", "throughput_rps")

DEFAULT_STATIC_THRESHOLDS = {
    "cpu_usage": 0.8,
    "memory_usage": 0.85,
    "error_rate": 0.05,
}

DEFAULT_ANOMALY_KEYWORDS = ("error", "timeout", "refused", "oom", "throttling")

_MAD_TO_SIGMA = 1.4826


@dataclass(frozen=True)
class DetectorConfig(schema.Bounded):
    k: float = field(default=3.0, metadata=schema.POSITIVE)
    min_sigma_frac: float = field(default=0.1, metadata=schema.NON_NEGATIVE)
    min_baseline_samples: int = field(default=4, metadata=schema.POSITIVE_INT)
    # 0 would read the whole pre-window history (values[-0:])
    baseline_lookback_samples: int = field(default=20, metadata=schema.POSITIVE_INT)
    # a misspelt metric would drop the default thresholds and never fire; read-only
    # once built, the table is compared but not hashed (a read-only view has no hash)
    static_thresholds: Mapping[str, float] = field(
        default_factory=lambda: DEFAULT_STATIC_THRESHOLDS, hash=False,
        metadata=schema.keys_in(METRIC_CATALOG, "metric", schema.FINITE),
    )
    anomaly_keywords: tuple[str, ...] = DEFAULT_ANOMALY_KEYWORDS


@dataclass(frozen=True)
class MetricVerdict:
    anomalous: bool
    direction: str  # "above" | "below" | "none"
    detail: str     # names the rule the samples were judged by


@dataclass(frozen=True)
class _SeriesRule:
    """What one sample of a series is judged against."""
    rule: str       # "static" | "k_sigma" | "robust"
    center: float   # the static threshold, or the mean deviations are measured from
    limit: float    # the largest deviation from ``center`` that is normal (k * sigma)

    def flags(self, value: float) -> bool:
        if self.rule == "static":
            return value > self.center
        return abs(value - self.center) > self.limit


def _k_sigma(rule: str, mean: float, sigma: float, cfg: DetectorConfig) -> _SeriesRule:
    sigma = max(sigma, cfg.min_sigma_frac * abs(mean), 1e-12)
    return _SeriesRule(rule, mean, cfg.k * sigma)


def _baseline_rule(baseline_values: list[float], metric: str,
                   cfg: DetectorConfig) -> _SeriesRule | None:
    """The rule a series' samples are judged by, from its baseline alone.

    None when the metric has no static threshold and the baseline is shorter
    than ``min_baseline_samples``: the window itself must then give the
    baseline (the robust rule).
    """
    threshold = cfg.static_thresholds.get(metric)
    if threshold is not None:
        return _SeriesRule("static", threshold, 0.0)
    if len(baseline_values) < cfg.min_baseline_samples:
        return None
    return _k_sigma("k_sigma", statistics.fmean(baseline_values),
                    _pstdev(baseline_values), cfg)


def _never_flags(lo: float, hi: float, metric: str, cfg: DetectorConfig) -> bool:
    """Whether no sample in [lo, hi] (0 <= lo <= hi) can flag under the rule
    ``_baseline_rule`` builds from a baseline whose samples lie in [lo, hi] too.

    A static rule flags only above its threshold. A k-sigma rule's mean lies
    in [lo, hi], so no sample deviates from it by more than hi - lo, and its
    limit is at least k * min_sigma_frac * mean >= k * min_sigma_frac * lo.
    The margin of 1e-9 * hi covers float rounding in the mean and the limit.
    """
    threshold = cfg.static_thresholds.get(metric)
    if threshold is not None:
        return hi <= threshold
    return hi - lo + 1e-9 * hi < cfg.k * cfg.min_sigma_frac * lo


def _pstdev(values: list[float]) -> float:
    """Population standard deviation of finite ``values``, correctly rounded,
    so it is the float ``statistics.pstdev`` returns on Python 3.11 and later.

    Each float is an integer over a power of two, so over the largest
    denominator ``d`` the variance (n*sum(x*x) - sum(x)**2) / (n*n*d*d) is a
    ratio of integers; ``statistics.pstdev`` sums ``Fraction`` objects instead.
    """
    ratios = [v.as_integer_ratio() for v in values]
    d = max(den for _, den in ratios)
    xs = [num * (d // den) for num, den in ratios]
    n, total = len(xs), sum(xs)
    return _sqrt_of_frac(n * sum(x * x for x in xs) - total * total, n * n * d * d)


def _sqrt_of_frac(n: int, m: int) -> float:
    """The square root of n/m as a float, correctly rounded, as CPython's
    ``statistics._float_sqrt_of_frac`` computes it.

    Scaling n/m by 4**-q puts it in [2**108, 2**110), so its integer square
    root has at least 55 bits; rounded to odd when inexact, it then rounds to
    a float's 53 bits once and correctly (https://bugs.python.org/msg407078).
    """
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        numerator, denominator = _isqrt_rto(n, m << 2 * q) << q, 1
    else:
        numerator, denominator = _isqrt_rto(n << -2 * q, m), 1 << -q
    return numerator / denominator


def _isqrt_rto(n: int, m: int) -> int:
    """The square root of n/m rounded down to an integer, then to odd if inexact."""
    a = math.isqrt(n // m)
    return a | (a * a * m != n)


_NO_SAMPLES = MetricVerdict(False, "none", "no samples in window")


def static_verdict(count: int, samples: list[float], threshold: float) -> MetricVerdict:
    """The static rule's verdict on a window of ``count`` samples, of which
    ``samples`` holds, in order, every one above ``threshold`` (and may hold
    others): the rule reads nothing else, not even a baseline."""
    if not count:
        return _NO_SAMPLES
    breaching = [v for v in samples if v > threshold]
    if breaching:
        return MetricVerdict(
            True, "above",
            f"{len(breaching)}/{count} samples above static threshold "
            f"{threshold:g} (peak {max(breaching):.6g})",
        )
    return MetricVerdict(False, "none",
                         f"all {count} samples within static threshold {threshold:g}")


def evaluate_series(window_values: list[float], baseline_values: list[float],
                    metric: str, cfg: DetectorConfig) -> MetricVerdict:
    """Judge whether the in-window samples of one series are anomalous."""
    if not window_values:
        return _NO_SAMPLES

    judge = _baseline_rule(baseline_values, metric, cfg)
    if judge is None:
        median = statistics.median(window_values)
        deviations = [abs(v - median) for v in window_values]
        judge = _k_sigma("robust", median,
                         statistics.median(deviations) * _MAD_TO_SIGMA, cfg)

    if judge.rule == "static":
        return static_verdict(len(window_values), window_values, judge.center)

    rule, mean, limit = judge.rule, judge.center, judge.limit
    worst = max(window_values, key=lambda v: abs(v - mean))
    deviation = worst - mean
    if judge.flags(worst):
        direction = "above" if deviation > 0 else "below"
        return MetricVerdict(
            True, direction,
            f"sample {worst:.6g} deviates {abs(deviation):.6g} from baseline "
            f"{mean:.6g} (limit {limit:.6g}, rule {rule})",
        )
    return MetricVerdict(
        False, "none",
        f"max deviation {abs(deviation):.6g} within {limit:.6g} of baseline "
        f"{mean:.6g} (rule {rule})",
    )


def matches_keyword(text: str, cfg: DetectorConfig) -> bool:
    """Case-insensitive anomaly keyword screen used for log lines."""
    lowered = text.lower()
    return any(keyword.lower() in lowered for keyword in cfg.anomaly_keywords)
