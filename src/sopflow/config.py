"""Top-level configuration file: backend, detector, evaluation and retrieval.

One YAML file captures a reproducible run; CLI flags override individual
fields. All sections are optional and default sensibly. Every section takes
exactly the fields of its dataclass and rejects any other key. A value out of
the bound noted below, or a remote backend without an endpoint, fails when the
config is read, naming ``<path>.<section>.<key>``. Each section's dataclass is
frozen, so a checked value cannot be reassigned; a CLI override is a copy made
with ``dataclasses.replace``, which checks it again. A ``static_thresholds``
table names metrics of ``detector.METRIC_CATALOG`` and replaces the default
one whole; it is read-only once built, so no threshold can change after its
check. ``eval.ablations`` alone stays mutable.

    backend:                        # BackendConfig
      backend_kind: scripted        # or remote
      endpoint: https://api.example.com/v1  # set, for a remote backend
      model: some-model
      temperature: 0.0              # finite, >= 0
      max_tokens: 1024              # integer >= 1
      credential_env: SOPFLOW_API_KEY
      embed_dim: 64                 # integer >= 1
      embed_seed: 0
    detector:                       # DetectorConfig
      k: 3.0                        # finite, > 0
      min_sigma_frac: 0.1           # finite, >= 0
      min_baseline_samples: 4       # integer >= 1
      baseline_lookback_samples: 20 # integer >= 1
      static_thresholds: {cpu_usage: 0.8, memory_usage: 0.85, error_rate: 0.05}  # finite
      anomaly_keywords: [error, timeout, refused, oom, throttling]
    eval:                           # EvalConfig and AgentConfig keys side by side
      sigma: 0.1                    # finite, >= 0
      workers: 1                    # integer >= 1
      max_steps: 20                 # integer >= 1
      action_set_size: 5            # integer >= 1
      judge_after_run_sop: false
      ablations: {sop_flow: on, ...}
    kb:                             # KbSettings; sopflow kb, diagnose and benchmark
      k: 3                          # integer >= 1
      threshold: 0.3                # finite
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import schema
from .detector import DetectorConfig
from .evaluation import EvalConfig
from .kb import KbSettings
from .llm import BackendConfig


@dataclass
class AppConfig:
    backend: BackendConfig = field(default_factory=BackendConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    kb: KbSettings = field(default_factory=KbSettings)


def load_config(path: Path | str | None) -> AppConfig:
    if path is None:
        return AppConfig()
    return schema.read_yaml(path, AppConfig)
