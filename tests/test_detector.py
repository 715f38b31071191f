import ast
import dataclasses
import pathlib
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sopflow
from sopflow.detector import (
    DetectorConfig,
    _baseline_rule,
    _never_flags,
    _pstdev,
    evaluate_series,
    matches_keyword,
)
from sopflow.errors import ConfigError, ValidationError
from sopflow.golden import golden_scenarios
from sopflow.sandbox import render_alert, render_telemetry
from sopflow.sandbox.telemetry import _never_flagging, _tables
from sopflow.schema import from_mapping


@pytest.fixture
def cfg():
    return DetectorConfig()


class TestStaticRule:
    def test_breach_flags_above(self, cfg):
        verdict = evaluate_series([0.3, 0.95, 0.4], [0.3] * 10, "cpu_usage", cfg)
        assert verdict.anomalous and verdict.direction == "above"
        assert "above static threshold" in verdict.detail

    def test_within_threshold_is_normal(self, cfg):
        verdict = evaluate_series([0.3, 0.5], [0.3] * 10, "cpu_usage", cfg)
        assert not verdict.anomalous and "within static threshold" in verdict.detail

    def test_static_metric_ignores_baseline_shift(self, cfg):
        # a configured static threshold is the whole rule for that metric
        verdict = evaluate_series([0.5] * 5, [0.01] * 10, "cpu_usage", cfg)
        assert not verdict.anomalous


class TestKSigmaRule:
    def test_flags_large_deviation(self, cfg):
        baseline = [50.0, 51.0, 49.5, 50.5, 50.2, 49.8]
        verdict = evaluate_series([350.0, 48.0], baseline, "request_latency_ms", cfg)
        assert verdict.anomalous and verdict.direction == "above"
        assert verdict.detail.endswith("rule k_sigma)")

    def test_flags_drops_too(self, cfg):
        baseline = [240000.0, 239000.0, 241000.0, 240500.0]
        verdict = evaluate_series([96000.0], baseline, "node_network_throughput_bytes", cfg)
        assert verdict.anomalous and verdict.direction == "below"

    def test_sigma_floor_prevents_flat_series_triggering(self, cfg):
        baseline = [100.0, 100.0, 100.0, 100.0]  # zero variance
        verdict = evaluate_series([101.0], baseline, "throughput_rps", cfg)
        assert not verdict.anomalous  # 1% wiggle vs 10% floor

    def test_falls_back_to_robust_without_baseline(self, cfg):
        window = [50.0] * 24 + [350.0] * 16  # fault covers 40% of the window
        verdict = evaluate_series(window, [], "request_latency_ms", cfg)
        assert verdict.anomalous and verdict.direction == "above"
        assert verdict.detail.endswith("rule robust)")

    def test_robust_quiet_series_is_normal(self, cfg):
        window = [50.0 + 0.1 * (i % 5) for i in range(40)]
        verdict = evaluate_series(window, [], "request_latency_ms", cfg)
        assert not verdict.anomalous

    def test_empty_window(self, cfg):
        verdict = evaluate_series([], [], "request_latency_ms", cfg)
        assert not verdict.anomalous and verdict.detail == "no samples in window"


_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def _baselines(draw):
    if draw(st.booleans()):  # a constant baseline: zero variance
        return [draw(_values)] * draw(st.integers(1, 12))
    return draw(st.lists(_values, min_size=1, max_size=12))


_configs = st.builds(
    DetectorConfig,
    k=st.floats(min_value=0.0, max_value=6.0, exclude_min=True),  # k > 0
    min_sigma_frac=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
    min_baseline_samples=st.integers(1, 12),  # often more than the baseline holds
)


def _sweep_flags(baseline, value, metric, cfg):
    """How the alert sweep judges one sample against its series' baseline."""
    rule = _baseline_rule(baseline, metric, cfg)
    return rule is not None and rule.flags(value)


class TestBaselineRule:
    """The alert sweep's per-series rule gives the one-sample verdict of
    ``evaluate_series`` while computing the baseline only once."""

    @given(baseline=_baselines(), values=st.lists(_values, min_size=1, max_size=8),
           metric=st.sampled_from(["cpu_usage", "error_rate",       # static thresholds
                                   "request_latency_ms", "throughput_rps"]),
           cfg=_configs)
    def test_agrees_with_evaluate_series(self, baseline, values, metric, cfg):
        for value in values:
            assert (_sweep_flags(baseline, value, metric, cfg)
                    == evaluate_series([value], baseline, metric, cfg).anomalous)

    @given(baseline=st.lists(_values, max_size=3), value=_values, cfg=_configs)
    def test_short_baseline_never_flags_one_sample(self, baseline, value, cfg):
        # the robust rule over a single sample sees no deviation
        cfg = dataclasses.replace(cfg, min_baseline_samples=len(baseline) + 1)
        assert _baseline_rule(baseline, "request_latency_ms", cfg) is None
        assert not evaluate_series([value], baseline, "request_latency_ms", cfg).anomalous


class TestNeverFlags:
    """``_never_flags`` proves from a value range that no sample in it flags
    against a baseline drawn from the same range."""

    @pytest.mark.parametrize("k, min_sigma_frac", [(3.0, 0.1), (0.5, 0.3), (6.0, 0.01)])
    def test_k_sigma_bound_is_tight_against_a_constant_baseline(self, k, min_sigma_frac):
        cfg = DetectorConfig(k=k, min_sigma_frac=min_sigma_frac, static_thresholds={})
        lo = 0.25
        bound = k * min_sigma_frac * lo  # the limit of a baseline that is all lo
        for hi in (lo + bound * (1 - 1e-6), lo + bound * (1 + 1e-6)):
            assert _never_flags(lo, hi, "m", cfg) is not _sweep_flags([lo] * 8, hi, "m", cfg)

    def test_the_memo_key_holds_every_config_value_read(self):
        # _never_flagging memoises verdicts on the frozen config itself: a
        # value _never_flags reads that the config did not compare would
        # leave the memo stale
        cfg = DetectorConfig()
        read = set()

        class Recording:
            def __getattr__(self, name):
                read.add(name)
                return getattr(cfg, name)

        for metric in ("cpu_usage", "request_latency_ms"):
            for lo, hi in ((0.0, 1.0), (10.0, 10.5)):
                _never_flags(lo, hi, metric, Recording())
        assert read == {"k", "min_sigma_frac", "static_thresholds"}
        assert read <= {f.name for f in dataclasses.fields(DetectorConfig) if f.compare}
        topology = "online-boutique"
        _never_flagging.cache_clear()
        verdicts = _never_flagging(topology, cfg)
        # an equal config, built anew, hits the memo
        assert _never_flagging(topology, DetectorConfig()) is verdicts
        assert _never_flagging.cache_info().hits == 1
        # a config that differs in a value read gets fresh verdicts
        ranges = _tables(topology).nominal_range
        for changed in (dataclasses.replace(cfg, k=0.5),
                        dataclasses.replace(cfg, min_sigma_frac=0.01),
                        dataclasses.replace(cfg, static_thresholds={"cpu_usage": 0.2})):
            fresh = _never_flagging(topology, changed)
            assert fresh != verdicts
            assert fresh == {key for key, (lo, hi) in ranges.items()
                             if _never_flags(lo, hi, key[1], changed)}
        assert _never_flagging.cache_info().misses == 4

    def test_static_bound_is_the_threshold(self):
        cfg = DetectorConfig(static_thresholds={"throughput_rps": 0.5})
        metric = "throughput_rps"
        assert _never_flags(0.1, 0.5, metric, cfg) and not _sweep_flags([], 0.5, metric, cfg)
        assert not _never_flags(0.1, 0.5000001, metric, cfg)
        assert _sweep_flags([], 0.5000001, metric, cfg)

    def test_no_sigma_floor_proves_nothing(self):
        cfg = DetectorConfig(min_sigma_frac=0.0, static_thresholds={})
        assert not _never_flags(1.0, 1.0, "m", cfg)

    @given(lo=st.floats(min_value=0.0, max_value=1e6), width=st.floats(0.0, 1.0),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
           metric=st.sampled_from(["cpu_usage", "request_latency_ms"]), cfg=_configs)
    def test_a_proven_range_never_flags(self, lo, width, fractions, metric, cfg):
        hi = lo + lo * width
        *baseline, value = [min(max(lo + f * (hi - lo), lo), hi) for f in fractions]
        if _never_flags(lo, hi, metric, cfg):
            assert not _sweep_flags(baseline, value, metric, cfg)


_magnitudes = st.floats(min_value=1e-300, max_value=1e300)
_signed = st.tuples(st.sampled_from((1.0, -1.0)), _magnitudes).map(lambda t: t[0] * t[1])
_integral = st.integers(-2**53, 2**53).map(float)


@st.composite
def _finite_lists(draw):
    size = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["constant", "one scale", "mixed"]))
    if shape == "constant":
        return [draw(st.one_of(_signed, _integral))] * size
    if shape == "one scale":  # a baseline's samples: close together, so sigma is small
        scale = draw(_signed)
        return [scale * draw(st.floats(0.5, 2.0)) for _ in range(size)]
    return draw(st.lists(st.one_of(_signed, _integral, st.just(0.0)),
                         min_size=size, max_size=size))


class TestPstdev:
    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.pstdev is correctly rounded from Python 3.11")
    @settings(max_examples=1000)
    @given(values=_finite_lists())
    def test_is_statistics_pstdev_bit_for_bit(self, values):
        assert _pstdev(values).hex() == statistics.pstdev(values).hex()

    def test_package_does_not_call_statistics_pstdev(self):
        # its Fraction sums cost about 50 us per 8-sample baseline
        offenders = []
        for path in sorted(pathlib.Path(sopflow.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Attribute) and node.attr == "pstdev"
                        and isinstance(node.value, ast.Name) and node.value.id == "statistics"
                        or isinstance(node, ast.ImportFrom) and node.module == "statistics"
                        and any(alias.name == "pstdev" for alias in node.names)):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


class TestKeywords:
    def test_case_insensitive(self, cfg):
        assert matches_keyword("ERROR: something broke", cfg)
        assert matches_keyword("worker OOM killed", cfg)
        assert matches_keyword("Connection Refused by peer", cfg)

    def test_quiet_line(self, cfg):
        assert not matches_keyword("INFO handled 42 requests status=200", cfg)

    def test_custom_keywords(self):
        cfg = DetectorConfig(anomaly_keywords=("panic",))
        assert matches_keyword("kernel PANIC now", cfg)
        assert not matches_keyword("plain error text", cfg)


def _detector_config(mapping: dict) -> DetectorConfig:
    # how a config file's ``detector`` section is read
    return from_mapping(DetectorConfig, mapping, "detector")


class TestConfigLoading:
    def test_from_mapping_overrides(self):
        cfg = _detector_config({
            "k": 2.0,
            "static_thresholds": {"cpu_usage": 0.5},
            "anomaly_keywords": ["panic"],
        })
        assert cfg.k == 2.0
        assert cfg.static_thresholds == {"cpu_usage": 0.5}
        assert cfg.anomaly_keywords == ("panic",)


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        {"k": float("nan")}, {"k": float("inf")}, {"k": 0.0}, {"k": -1.0},
        {"min_sigma_frac": float("nan")}, {"min_sigma_frac": float("inf")},
        {"min_sigma_frac": -0.1},
        {"min_baseline_samples": 0}, {"min_baseline_samples": -2},
        # 0 read the whole pre-window history (values[-0:]), a negative
        # value dropped the oldest samples
        {"baseline_lookback_samples": 0}, {"baseline_lookback_samples": -3},
        {"static_thresholds": {"cpu_usage": float("nan")}},
        {"static_thresholds": {"error_rate": float("-inf")}},
    ])
    def test_the_constructor_and_from_mapping_reject_nonsense(self, bad):
        (key, _), = bad.items()
        with pytest.raises(ValidationError, match=f"^{key}: .*must be ") as built:
            DetectorConfig(**bad)
        # read from a file, the same complaint names the section too
        with pytest.raises(ConfigError) as read:
            _detector_config(bad)
        assert str(read.value) == f"detector.{built.value}"

    @pytest.mark.parametrize("bad", [
        {"min_baseline_samples": True}, {"baseline_lookback_samples": 2.0},
        {"k": "3"}, {"static_thresholds": {"m": 0.5}},
    ])
    def test_the_constructor_rejects_what_a_file_could_not_hold(self, bad):
        # a file's values are coerced by type first; code's are not
        with pytest.raises(ValidationError, match=f"^{next(iter(bad))}: "):
            DetectorConfig(**bad)

    def test_boundary_values_are_valid(self):
        DetectorConfig()
        _detector_config({"k": 0.01, "min_sigma_frac": 0, "min_baseline_samples": 1,
                          "baseline_lookback_samples": 1, "static_thresholds": {}})

    def test_a_built_config_cannot_change(self):
        cfg = DetectorConfig()
        # a NaN threshold set in place once turned the golden CpuStress
        # alert from a metric signal into a log one, with no error
        with pytest.raises(TypeError):
            cfg.static_thresholds["cpu_usage"] = float("nan")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.static_thresholds = {"cpu_usage": float("nan")}
        # a dict passed in is copied, so a later change to it does not reach
        thresholds = {"cpu_usage": 0.8}
        copied = DetectorConfig(static_thresholds=thresholds)
        thresholds["cpu_usage"] = float("nan")
        assert copied.static_thresholds == {"cpu_usage": 0.8}
        (scenario,) = [s for s in golden_scenarios() if s.id == "scn-01000-cpustress"]
        assert "\nsignal: metric\n" in render_alert(render_telemetry(scenario), cfg)

    def test_equal_configs_hash_alike_and_thresholds_still_count(self):
        assert hash(DetectorConfig()) == hash(DetectorConfig(static_thresholds={}))
        assert DetectorConfig() != DetectorConfig(static_thresholds={})
        assert DetectorConfig(static_thresholds={"cpu_usage": 0.8}) == dataclasses.replace(
            DetectorConfig(static_thresholds={"cpu_usage": 0.5}),
            static_thresholds={"cpu_usage": 0.8})

    def test_an_invalid_detector_is_refused_when_built(self):
        # so no episode can start under one
        with pytest.raises(ValidationError, match="^k: must be a finite number > 0, got nan$"):
            DetectorConfig(k=float("nan"))
