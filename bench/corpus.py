"""Workload corpora, each written into a directory that did not exist before.

``golden.write_corpus`` into an existing directory raises ``ValidationError:
SOP id already exists`` because the knowledge base it writes there is loaded
back first. Every writer here therefore creates its target directory itself
and refuses one that already exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from sopflow import golden
from sopflow.llm import BackendConfig, make_backend
from sopflow.sandbox import EpisodeScenario, generate_corpus, save_scenario


@dataclass
class Corpus:
    """One corpus on disk: the manifest ``run_benchmark`` loads and the
    scenarios it holds, in manifest order."""

    manifest: Path
    scenarios: list[EpisodeScenario]
    scripts_dir: Path


def fresh_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=False)
    return path


def _write_manifest(path: Path, episodes: list[dict]) -> Path:
    path.write_text(yaml.safe_dump({"kb": "kb", "episodes": episodes}, sort_keys=False),
                    encoding="utf-8")
    return path


def write_generated(out: Path, generator_seed: int, count: int) -> tuple[Corpus, Corpus]:
    """``count`` generated scenarios, fault types round-robin, with their oracle
    scripts from ``golden.build_script``.

    Returns two corpora over the same scenarios and knowledge base: one whose
    manifest names each episode's script (scripted backend) and one without
    scripts, so ``run_benchmark`` uses the configured backend for every
    episode (the live stub, which replays the same scripts from ``scripts_dir``).
    """
    fresh_dir(out)
    scenario_dir = fresh_dir(out / "scenarios")
    scripts_dir = fresh_dir(out / "scripts")
    golden.make_golden_kb(make_backend(BackendConfig()), root=out / "kb")
    scenarios = generate_corpus(generator_seed, count)
    scripted, remote = [], []
    for scenario in scenarios:
        scenario_path = scenario_dir / f"{scenario.id}.yaml"
        save_scenario(scenario, scenario_path)
        script_path = scripts_dir / f"{scenario.id}.yaml"
        script_path.write_text(
            yaml.safe_dump(golden.script_to_mapping(golden.build_script(scenario)),
                           sort_keys=False),
            encoding="utf-8",
        )
        scenario_rel = str(scenario_path.relative_to(out))
        scripted.append({"scenario": scenario_rel, "script": str(script_path.relative_to(out))})
        remote.append({"scenario": scenario_rel})
    return (
        Corpus(_write_manifest(out / "manifest.yaml", scripted), scenarios, scripts_dir),
        Corpus(_write_manifest(out / "manifest-remote.yaml", remote), scenarios, scripts_dir),
    )


def write_subset(corpus: Corpus, out: Path, count: int) -> Corpus:
    """A manifest over the first ``count`` episodes of ``corpus``, reusing its files."""
    fresh_dir(out)
    data = yaml.safe_load(corpus.manifest.read_text(encoding="utf-8"))
    root = corpus.manifest.parent
    episodes = [{key: str(root / rel) for key, rel in entry.items()}
                for entry in data["episodes"][:count]]
    manifest = out / "manifest.yaml"
    manifest.write_text(
        yaml.safe_dump({"kb": str(root / data["kb"]), "episodes": episodes}, sort_keys=False),
        encoding="utf-8",
    )
    return Corpus(manifest, corpus.scenarios[:count], corpus.scripts_dir)


def write_golden_modes(out: Path) -> dict[str, Corpus]:
    """The nine golden scenarios once per ablation mode, each mode with its own
    scripts, in a fresh directory per mode."""
    fresh_dir(out)
    scenarios = golden.golden_scenarios()
    corpora = {}
    for mode in golden.MODES:
        mode_dir = fresh_dir(out / mode)
        manifest = golden.write_corpus(mode_dir, mode)
        corpora[mode] = Corpus(manifest, scenarios, mode_dir / "scripts")
    return corpora
