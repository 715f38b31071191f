"""Byte-identity guard for scripted episode transcripts.

The digest below covers the transcripts of the nine golden scenarios under
every ``golden.MODES`` entry, each mode run with its own ablation flags and
scripts; files are hashed in name order within a mode, modes in ``MODES``
order. It was computed before the knowledge base's views shared one embedding
cache, and pins the bytes every later change to the episode path must keep.
"""

import hashlib

from sopflow import golden
from sopflow.agents import Ablations, AgentConfig
from sopflow.evaluation import EvalConfig, load_corpus, run_benchmark
from sopflow.llm import BackendConfig

TRANSCRIPTS_SHA256 = "eee9d920a263821e0d1f3202796b330386d829fa4e6e8bfd153b9e37d9803320"


def _agent_config(mode: str) -> AgentConfig:
    ablations = Ablations()
    if mode != "default":
        setattr(ablations, mode[: -len("_off")], False)
    return AgentConfig(ablations=ablations)


def test_golden_transcripts_are_byte_identical(tmp_path):
    digest = hashlib.sha256()
    for mode in golden.MODES:
        manifest = golden.write_corpus(tmp_path / mode / "corpus", mode)
        out = tmp_path / mode / "transcripts"
        run_benchmark(load_corpus(manifest), EvalConfig(agent=_agent_config(mode)),
                      BackendConfig(), transcript_dir=out)
        for path in sorted(out.glob("*.jsonl")):
            digest.update(path.read_bytes())
    assert digest.hexdigest() == TRANSCRIPTS_SHA256
