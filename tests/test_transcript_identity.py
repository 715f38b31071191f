"""Byte-identity guard for scripted episode transcripts.

``TRANSCRIPTS_SHA256`` covers the transcripts of the nine golden scenarios
under every ``golden.MODES`` entry, each mode run with its own ablation flags
and scripts; files are hashed in name order within a mode, modes in ``MODES``
order. It was computed before the knowledge base's views shared one embedding
cache, and pins the bytes every later change to the episode path must keep.

``GENERATED_SHA256`` covers the default-mode transcripts of
``generate_corpus(GENERATED_SEED, GENERATED_COUNT)``: new scenarios, all nine
fault types round-robin, with ``golden.build_script`` oracle scripts and the
golden knowledge base, hashed in name order. It was computed before knowledge
base embeddings were sent in pairs and prefetched. The same corpus run through
``RemoteBackend`` must give the same bytes.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from sopflow import golden, schema
from sopflow.agents import Ablations, AgentConfig
from sopflow.evaluation import EvalConfig, load_corpus, run_benchmark
from sopflow.llm import BackendConfig, make_backend, script_to_mapping
from sopflow.sandbox import generate_corpus, save_scenario

TRANSCRIPTS_SHA256 = "eee9d920a263821e0d1f3202796b330386d829fa4e6e8bfd153b9e37d9803320"
GENERATED_SEED = 1616
GENERATED_COUNT = 18
GENERATED_SHA256 = "d19d65b68316239fab5231b2d02dd035e7b94812aa611ef9855c4bab5a1d33d2"


def _agent_config(mode: str) -> AgentConfig:
    ablations = Ablations()
    if mode != "default":
        setattr(ablations, mode[: -len("_off")], False)
    return AgentConfig(ablations=ablations)


def _digest(transcript_dir: Path, digest=None):
    digest = digest or hashlib.sha256()
    for path in sorted(transcript_dir.glob("*.jsonl")):
        digest.update(path.read_bytes())
    return digest


def test_golden_transcripts_are_byte_identical(tmp_path):
    digest = hashlib.sha256()
    for mode in golden.MODES:
        manifest = golden.write_corpus(tmp_path / mode / "corpus", mode)
        out = tmp_path / mode / "transcripts"
        run_benchmark(load_corpus(manifest), EvalConfig(agent=_agent_config(mode)),
                      BackendConfig(), transcript_dir=out)
        _digest(out, digest)
    assert digest.hexdigest() == TRANSCRIPTS_SHA256


def write_generated_corpus(root: Path, scripted: bool = True):
    """The generated corpus with a fresh golden knowledge base; its manifest
    names each episode's oracle script unless ``scripted`` is false. Returns
    the manifest path and the scripts by scenario id."""
    golden.make_golden_kb(make_backend(BackendConfig()), root=root / "kb")
    scripts, episodes = {}, []
    for scenario in generate_corpus(GENERATED_SEED, GENERATED_COUNT):
        scripts[scenario.id] = golden.build_script(scenario)
        entry = {"scenario": f"scenarios/{scenario.id}.yaml"}
        save_scenario(scenario, root / entry["scenario"])
        if scripted:
            entry["script"] = f"scripts/{scenario.id}.yaml"
            schema.write_yaml(root / entry["script"], script_to_mapping(scripts[scenario.id]))
        episodes.append(entry)
    manifest = root / "manifest.yaml"
    schema.write_yaml(manifest, {"kb": "kb", "episodes": episodes})
    return manifest, scripts


def test_generated_transcripts_are_byte_identical(tmp_path):
    manifest, _ = write_generated_corpus(tmp_path / "corpus")
    out = tmp_path / "transcripts"
    report = run_benchmark(load_corpus(manifest), EvalConfig(), BackendConfig(),
                           transcript_dir=out)
    assert report.la == 1.0 and report.ta == 1.0
    assert len(list(out.glob("*.jsonl"))) == GENERATED_COUNT
    assert _digest(out).hexdigest() == GENERATED_SHA256


@pytest.mark.parametrize("workers", [1, 4])
def test_generated_remote_transcripts_equal_scripted(tmp_path, fake_endpoint, workers):
    # a cold knowledge base: the first episode embeds every store text in
    # pairs, and each R6/R8 query is prefetched during its selection; with 4
    # workers, episodes share the embedding cache while threads switch often
    manifest, scripts = write_generated_corpus(tmp_path / "remote", scripted=False)
    fake_endpoint.serve(scripts)
    remote = tmp_path / "remote-transcripts"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5 if workers > 1 else interval)
    try:
        report = run_benchmark(load_corpus(manifest), EvalConfig(workers=workers),
                               fake_endpoint.config(), transcript_dir=remote)
    finally:
        sys.setswitchinterval(interval)
    assert report.la == 1.0 and report.ta == 1.0
    assert _digest(remote).hexdigest() == GENERATED_SHA256
    assert any(r.role == "embed" and r.thread.startswith("sopflow-propose")
               for r in fake_endpoint.requests)
