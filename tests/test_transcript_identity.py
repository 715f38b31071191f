"""Byte-identity guard for scripted episode transcripts.

``TRANSCRIPTS_SHA256`` covers the transcripts of the nine golden scenarios
under every ``golden.MODES`` entry, each mode run with its own ablation flags
and scripts; files are hashed in name order within a mode, modes in ``MODES``
order. It pins the bytes every change to the episode path must keep; it was
last re-based when the coder's grammar text came to say that ``above`` and
``below`` are strict.

``GENERATED_SHA256`` covers the default-mode transcripts of
``generate_corpus(GENERATED_SEED, GENERATED_COUNT)``: new scenarios, all nine
fault types round-robin, with ``golden.build_script`` oracle scripts and the
golden knowledge base, hashed in name order, and re-based with
``TRANSCRIPTS_SHA256``. The same corpus run through ``RemoteBackend`` must
give the same bytes.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from conftest import llm_calls_by_role
from sopflow import golden, schema
from sopflow.agents import Ablations, AgentConfig
from sopflow.evaluation import EvalConfig, load_corpus, run_benchmark
from sopflow.llm import BackendConfig, make_backend, script_to_mapping
from sopflow.sandbox import generate_corpus, save_scenario

TRANSCRIPTS_SHA256 = "116b5c019af35f79c8d1554e45333ec2a1587c97c6768526122e10f77168da5d"
GENERATED_SEED = 1616
GENERATED_COUNT = 18
GENERATED_SHA256 = "35b5ffb823df887039756c1988ac37a7dc1f34622ef81f3f414046b5eac4de16"


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
    # pairs, and R6's findings and the coder prompt are prefetched during
    # their selections; with 4 workers, episodes share the embedding cache
    # while threads switch often
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
    # the transcripts are the scripted ones, so they log the scripted run's
    # calls: no speculative completion was wasted
    calls = llm_calls_by_role(remote)
    assert fake_endpoint.completions_by_role() == calls
    assert sum(calls.values()) == 18 * GENERATED_COUNT and calls["coder"] == GENERATED_COUNT
