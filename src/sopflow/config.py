"""Top-level configuration file: backend, detector, evaluation and retrieval.

One YAML file captures a reproducible run; CLI flags override individual
fields. All sections are optional and default sensibly. Every section takes
exactly the fields of its dataclass and rejects any other key, and every
``detector.static_thresholds`` key must name a metric of
``sandbox.telemetry.METRIC_CATALOG``. A ``static_thresholds`` table replaces
the default one whole.

    backend:                        # BackendConfig
      backend_kind: scripted        # or remote
      endpoint: https://api.example.com/v1
      model: some-model
      temperature: 0.0
      max_tokens: 1024
      credential_env: SOPFLOW_API_KEY
      embed_dim: 64
      embed_seed: 0
    detector:                       # DetectorConfig
      k: 3.0
      min_sigma_frac: 0.1
      min_baseline_samples: 4
      baseline_lookback_samples: 20
      static_thresholds: {cpu_usage: 0.8, memory_usage: 0.85, error_rate: 0.05}
      anomaly_keywords: [error, timeout, refused, oom, throttling]
    eval:                           # EvalConfig and AgentConfig keys side by side
      sigma: 0.1
      workers: 1
      max_steps: 20
      action_set_size: 5
      judge_after_run_sop: false
      ablations: {sop_flow: on, ...}
    kb:                             # KbSettings; sopflow kb, diagnose and benchmark
      k: 3
      threshold: 0.3
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import schema
from .detector import DetectorConfig
from .errors import ConfigError
from .evaluation import EvalConfig
from .kb import KbSettings
from .llm import BackendConfig
from .sandbox.telemetry import METRIC_CATALOG


@dataclass
class AppConfig:
    backend: BackendConfig = field(default_factory=BackendConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    kb: KbSettings = field(default_factory=KbSettings)


def load_config(path: Path | str | None) -> AppConfig:
    if path is None:
        return AppConfig()
    config = schema.read_yaml(path, AppConfig)
    for metric in config.detector.static_thresholds:
        if metric not in METRIC_CATALOG:
            # a misspelt metric would drop the default thresholds and never fire
            raise ConfigError(f"{path}.detector.static_thresholds: unknown metric {metric!r}")
    return config
