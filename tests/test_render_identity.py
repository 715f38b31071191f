"""Byte-identity guard for the sandbox's alert and telemetry rendering.

The digests below were computed from the straightforward per-sample sweep
(one ``evaluate_series`` call per sample, fault effects resolved per metric)
and pin the exact bytes every faster implementation must reproduce.
"""

import hashlib

from sopflow.detector import DetectorConfig
from sopflow.golden import golden_scenarios
from sopflow.sandbox import generate_corpus, render_alert, render_telemetry

DETECTOR_CONFIGS = (
    DetectorConfig(),
    DetectorConfig(k=2.0, min_baseline_samples=9),
    DetectorConfig(min_sigma_frac=0.0),
)

ALERTS_SHA256 = "044c7248b098b13a547da096b2e921227af36fcaa99c5a3ffeea9d965030154f"
TELEMETRY_SHA256 = "ebbb2c5f6eebdfd771b87bb84c26111abd0757e93cd9dfe8b81b8c5674aa37d4"


def _scenarios():
    return golden_scenarios() + generate_corpus(0, 18) + generate_corpus(1, 18)


def test_alerts_and_telemetry_are_byte_identical():
    alerts = hashlib.sha256()
    telemetry_hashes = hashlib.sha256()
    for scenario in _scenarios():
        telemetry = render_telemetry(scenario)
        telemetry_hashes.update(f"{scenario.id} {telemetry.content_hash()}\n".encode())
        for cfg in DETECTOR_CONFIGS:
            alerts.update(render_alert(telemetry, cfg).encode("utf-8"))
            alerts.update(b"\0")
    assert telemetry_hashes.hexdigest() == TELEMETRY_SHA256
    assert alerts.hexdigest() == ALERTS_SHA256
