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
flag, so the sweep need not render the samples; ``_never_flagging`` memoises
those verdicts for a set of series.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Mapping
from dataclasses import dataclass, field

from . import schema
from .errors import ValidationError

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
        cfg = schema.from_mapping(cls, mapping, "detector")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValidationError(f"detector k must be a finite number > 0, got {self.k!r}")
        if not (math.isfinite(self.min_sigma_frac) and self.min_sigma_frac >= 0):
            raise ValidationError("detector min_sigma_frac must be a finite number >= 0, "
                                  f"got {self.min_sigma_frac!r}")
        for name in ("min_baseline_samples", "baseline_lookback_samples"):
            if getattr(self, name) < 1:
                raise ValidationError(f"detector {name} must be >= 1, "
                                      f"got {getattr(self, name)!r}")
        for metric, threshold in self.static_thresholds.items():
            if not math.isfinite(threshold):
                raise ValidationError(f"detector static threshold for {metric!r} must be "
                                      f"finite, got {threshold!r}")


@dataclass(frozen=True)
class MetricVerdict:
    anomalous: bool
    direction: str  # "above" | "below" | "none"
    rule: str       # "static" | "k_sigma" | "robust" | "empty"
    detail: str


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


def _never_flags_inputs(cfg: DetectorConfig) -> tuple:
    """Every value of ``cfg`` that ``_never_flags`` reads, hashable: what a
    memo of its verdicts is keyed on, so a config changed in place gets
    fresh verdicts. It changes whenever ``_never_flags`` does."""
    return cfg.k, cfg.min_sigma_frac, tuple(sorted(cfg.static_thresholds.items()))


_NEVER_FLAGGING: dict[tuple, frozenset] = {}
_NEVER_FLAGGING_SIZE = 64


def _never_flagging(name: str, ranges: Mapping[tuple[str, str], tuple[float, float]],
                    cfg: DetectorConfig) -> frozenset[tuple[str, str]]:
    """The (component, metric) series of ``ranges`` (series -> the [lo, hi]
    its samples lie in) whose range ``_never_flags`` clears under ``cfg``.
    Memoised on ``name``, which must name the same ranges on every call, and
    on ``_never_flags_inputs(cfg)``."""
    key = (name, _never_flags_inputs(cfg))
    never = _NEVER_FLAGGING.get(key)
    if never is None:
        never = frozenset(series for series, (lo, hi) in ranges.items()
                          if _never_flags(lo, hi, series[1], cfg))
        if len(_NEVER_FLAGGING) >= _NEVER_FLAGGING_SIZE:
            _NEVER_FLAGGING.clear()
        _NEVER_FLAGGING[key] = never
    return never


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


def evaluate_series(window_values: list[float], baseline_values: list[float],
                    metric: str, cfg: DetectorConfig) -> MetricVerdict:
    """Judge whether the in-window samples of one series are anomalous."""
    if not window_values:
        return MetricVerdict(False, "none", "empty", "no samples in window")

    judge = _baseline_rule(baseline_values, metric, cfg)
    if judge is None:
        median = statistics.median(window_values)
        deviations = [abs(v - median) for v in window_values]
        judge = _k_sigma("robust", median,
                         statistics.median(deviations) * _MAD_TO_SIGMA, cfg)

    if judge.rule == "static":
        breaching = [v for v in window_values if judge.flags(v)]
        if breaching:
            return MetricVerdict(
                True, "above", "static",
                f"{len(breaching)}/{len(window_values)} samples above static threshold "
                f"{judge.center:g} (peak {max(breaching):.6g})",
            )
        return MetricVerdict(
            False, "none", "static",
            f"all {len(window_values)} samples within static threshold {judge.center:g}",
        )

    rule, mean, limit = judge.rule, judge.center, judge.limit
    worst = max(window_values, key=lambda v: abs(v - mean))
    deviation = worst - mean
    if judge.flags(worst):
        direction = "above" if deviation > 0 else "below"
        return MetricVerdict(
            True, direction, rule,
            f"sample {worst:.6g} deviates {abs(deviation):.6g} from baseline "
            f"{mean:.6g} (limit {limit:.6g}, rule {rule})",
        )
    return MetricVerdict(
        False, "none", rule,
        f"max deviation {abs(deviation):.6g} within {limit:.6g} of baseline "
        f"{mean:.6g} (rule {rule})",
    )


def matches_keyword(text: str, cfg: DetectorConfig) -> bool:
    """Case-insensitive anomaly keyword screen used for log lines."""
    lowered = text.lower()
    return any(keyword.lower() in lowered for keyword in cfg.anomaly_keywords)
