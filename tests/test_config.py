import re
from dataclasses import FrozenInstanceError, asdict, fields

import pytest
import yaml

from sopflow.agents import AgentConfig
from sopflow.config import AppConfig, load_config
from sopflow.detector import DetectorConfig
from sopflow.errors import ConfigError, ValidationError
from sopflow.evaluation import EvalConfig
from sopflow.kb import KbSettings, KnowledgeBase
from sopflow.llm import BackendConfig, make_backend
from sopflow.sandbox import ScenarioConfig


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.backend.backend_kind == "scripted"
    assert cfg.backend.temperature == 0.0
    assert cfg.eval.sigma == 0.1
    assert cfg.eval.agent.max_steps == 20
    assert cfg.eval.agent.action_set_size == 5
    assert cfg.detector.k == 3.0
    assert cfg.kb.threshold == 0.3 and cfg.kb.k == 3


def test_full_file_roundtrip(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "backend:\n"
        "  backend_kind: remote\n"
        "  endpoint: https://llm.example/v1\n"
        "  model: m1\n"
        "  temperature: 0.2\n"
        "detector:\n"
        "  k: 4.0\n"
        "  static_thresholds: {cpu_usage: 0.7}\n"
        "eval:\n"
        "  sigma: 0.2\n"
        "  workers: 3\n"
        "  max_steps: 10\n"
        "  ablations: {sop_flow: false}\n"
        "kb:\n"
        "  threshold: 0.5\n"
    )
    cfg = load_config(path)
    assert cfg.backend.backend_kind == "remote"
    assert cfg.backend.endpoint == "https://llm.example/v1"
    assert cfg.backend.temperature == 0.2
    assert cfg.detector.k == 4.0
    assert cfg.detector.static_thresholds == {"cpu_usage": 0.7}
    assert cfg.eval.sigma == 0.2 and cfg.eval.workers == 3
    assert cfg.eval.agent.max_steps == 10
    assert cfg.eval.agent.ablations.sop_flow is False
    assert cfg.eval.agent.ablations.sop_knowledge is True
    assert cfg.kb.threshold == 0.5
    # the agent's keys sit beside the eval: keys, so each key names one field
    assert not {f.name for f in fields(EvalConfig)} & {f.name for f in fields(AgentConfig)}


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("warp: 9\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("eval: {drive: 1}\n")
    with pytest.raises(ConfigError):
        load_config(path)
    for text in ("detector: {kk: 9}\n", "kb: {treshold: 0.9}\n", "kb: {path: x}\n",
                 "eval: {max_root_causes: 3}\n", "eval: {ablations: {flow_rules_active: false}}\n",
                 "backend: {script: []}\n", "eval: {agent: {}}\n"):
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)


def test_every_file_settable_field_reaches_the_config(tmp_path):
    sections = {
        "backend": {"backend_kind": "remote", "endpoint": "https://llm.example/v1",
                    "model": "m1", "temperature": 0.2, "max_tokens": 99,
                    "credential_env": "OTHER_KEY", "embed_dim": 8, "embed_seed": 7},
        "detector": {"k": 4.0, "min_sigma_frac": 0.2, "min_baseline_samples": 6,
                     "baseline_lookback_samples": 9,
                     "static_thresholds": {"cpu_usage": 0.7},
                     "anomaly_keywords": ["panic"]},
        "eval": {"sigma": 0.2, "workers": 3,
                 "max_steps": 10, "action_set_size": 4, "judge_after_run_sop": True,
                 "ablations": {name: False for name in (
                     "sop_knowledge", "sop_flow", "action_set", "action_agent",
                     "ob_agent", "judge_agent")}},
        "kb": {"k": 5, "threshold": 0.5},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(sections))

    def by_section(app):
        return {"backend": asdict(app.backend), "detector": asdict(app.detector),
                "eval": {**asdict(app.eval.agent), **asdict(app.eval)}, "kb": asdict(app.kb)}

    loaded, defaults = by_section(load_config(path)), by_section(AppConfig())
    unset = {"backend": {"script"}, "eval": {"agent"}}
    for name, values in sections.items():
        # the file above names every field a config file may set
        assert set(values) == set(loaded[name]) - unset.get(name, set()), name
        for key, value in values.items():
            got = loaded[name][key]
            assert got == (tuple(value) if isinstance(got, tuple) else value), (name, key)
            assert got != defaults[name][key], (name, key)


@pytest.mark.parametrize("table", ["{cpu_usages: 0.8}", "{cpu_usage: 0.8, CPU_USAGE: 0.9}",
                                   "{'': 0.1}"])
def test_a_static_threshold_for_an_unknown_metric_names_the_file_and_key(tmp_path, table):
    path = tmp_path / "config.yaml"
    path.write_text(f"detector:\n  static_thresholds: {table}\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    bad = next(key for key in yaml.safe_load(table) if key != "cpu_usage")
    assert str(info.value) == f"{path}.detector.static_thresholds: unknown metric {bad!r}"
    # a partial table of known metrics loads, and replaces the defaults whole
    path.write_text("detector:\n  static_thresholds: {throughput_rps: 500.0}\n")
    assert load_config(path).detector.static_thresholds == {"throughput_rps": 500.0}


# one value out of bounds for every key that has a bound
@pytest.mark.parametrize("section, complaint", [
    ("backend: {backend_kind: psychic}",
     "backend.backend_kind: must be one of 'scripted', 'remote', got 'psychic'"),
    ("backend: {backend_kind: remote}", "backend.endpoint: must be set for a remote backend"),
    ("backend: {temperature: -1}", "backend.temperature: must be a finite number >= 0, got -1.0"),
    ("backend: {max_tokens: 0}", "backend.max_tokens: must be a positive integer, got 0"),
    ("backend: {embed_dim: -3}", "backend.embed_dim: must be a positive integer, got -3"),
    ("detector: {k: -1}", "detector.k: must be a finite number > 0, got -1.0"),
    ("detector: {min_sigma_frac: .inf}",
     "detector.min_sigma_frac: must be a finite number >= 0, got inf"),
    ("detector: {min_baseline_samples: 0}",
     "detector.min_baseline_samples: must be a positive integer, got 0"),
    ("detector: {baseline_lookback_samples: 0}",
     "detector.baseline_lookback_samples: must be a positive integer, got 0"),
    ("detector: {static_thresholds: {cpu_usage: .nan}}",
     "detector.static_thresholds: 'cpu_usage' must be a finite number, got nan"),
    ("eval: {sigma: -.1}", "eval.sigma: must be a finite number >= 0, got -0.1"),
    ("eval: {workers: 0}", "eval.workers: must be a positive integer, got 0"),
    ("eval: {max_steps: 0}", "eval.max_steps: must be a positive integer, got 0"),
    ("eval: {action_set_size: -1}", "eval.action_set_size: must be a positive integer, got -1"),
    ("kb: {k: 0}", "kb.k: must be a positive integer, got 0"),
    ("kb: {k: -2}", "kb.k: must be a positive integer, got -2"),
    ("kb: {threshold: .nan}", "kb.threshold: must be a finite number, got nan"),
    ("kb: {threshold: -.inf}", "kb.threshold: must be a finite number, got -inf"),
])
def test_an_out_of_bounds_value_fails_when_the_config_is_read(tmp_path, section, complaint):
    path = tmp_path / "config.yaml"
    path.write_text(section + "\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}.{complaint}"


@pytest.mark.parametrize("cls, values", [
    (KbSettings, {"k": 0}), (KbSettings, {"threshold": float("nan")}),
    (AgentConfig, {"max_steps": 0}), (AgentConfig, {"action_set_size": True}),
    (EvalConfig, {"workers": -1}),
    (ScenarioConfig, {"faults_per_scenario": 0}), (ScenarioConfig, {"fault_types": ()}),
    (ScenarioConfig, {"topology": "no-such-cluster"}),
])
def test_the_same_bounds_hold_for_an_object_built_in_code(cls, values):
    (key, value), = values.items()
    with pytest.raises(ValidationError, match=f"^{key}: must be .*, got {re.escape(repr(value))}$"):
        cls(**values)


# a checked value cannot be reassigned: one bounded field of each frozen config
@pytest.mark.parametrize("cls, field, value", [
    (BackendConfig, "max_tokens", 0), (DetectorConfig, "k", -1.0),
    (AgentConfig, "max_steps", 0), (EvalConfig, "workers", 0),
    (KbSettings, "k", 0), (ScenarioConfig, "faults_per_scenario", 0),
])
def test_a_bounded_field_of_a_frozen_config_cannot_be_assigned(cls, field, value):
    config = cls()
    with pytest.raises(FrozenInstanceError):
        setattr(config, field, value)
    assert getattr(config, field) == getattr(cls(), field)


def test_a_match_checks_its_k_and_threshold_against_the_kb_bounds():
    kb = KnowledgeBase(make_backend(AppConfig().backend))
    with pytest.raises(ValidationError, match="^k: must be a positive integer, got 0$"):
        kb.match_sop("cpu", k=0)
    with pytest.raises(ValidationError, match="^threshold: must be a finite number, got nan$"):
        kb.match_observation("cpu", threshold="nan")
    # a knowledge base's defaults are checked settings: a bad one cannot be built
    with pytest.raises(ValidationError, match="^k: must be a positive integer, got 0$"):
        KnowledgeBase(make_backend(AppConfig().backend), settings=KbSettings(k=0))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.yaml")


def test_cli_honors_config_detector(tmp_path, capsys):
    # an absurdly low cpu threshold makes a quiet pod look anomalous, which
    # proves the config file reached the detector
    from sopflow.cli import main
    from sopflow.golden import write_corpus
    write_corpus(tmp_path / "golden", "default")
    cfg = tmp_path / "config.yaml"
    cfg.write_text("detector:\n  static_thresholds: {cpu_usage: 0.01}\n")
    script = tmp_path / "script.yaml"
    script.write_text(
        "- {match_key: 'ROLE: orchestrator-thought', response: hmm}\n"
        "- {match_key: 'ROLE: action-proposer', response: 'ACTION: whether_is_abnormal_metric(target=\"adservice-0\", metric=\"cpu_usage\") | probe'}\n"
        "- {match_key: 'ROLE: orchestrator-select', response: '1'}\n"
    )
    code = main(["diagnose",
                 "--scenario", str(tmp_path / "golden/scenarios/scn-01000-cpustress.yaml"),
                 "--script", str(script), "--config", str(cfg),
                 "--max-steps", "1", "--out", str(tmp_path / "tr.jsonl")])
    assert code == 3  # budget exhausted, which is fine; we want the observation
    transcript = (tmp_path / "tr.jsonl").read_text()
    assert "is anomalous (above)" in transcript
    assert "0.01" in transcript