"""Each benchmark episode works on its own view of the knowledge base: its
own documents, and the run's one embedding cache."""

import pytest

from sopflow import golden
from sopflow.errors import NotFoundError
from sopflow.evaluation import EvalConfig, load_corpus, run_benchmark
from sopflow.kb import KnowledgeBase, SopDoc
from sopflow.llm import BackendConfig, ScriptedBackend

from conftest import scripted_backend

# 9 SOP names (each golden match_sop query is one of them), 3 incident
# manifestations and 9 match_observation queries
GOLDEN_DISTINCT_TEXTS = 21


def _documents(kb):
    return ([vars(doc) for doc in kb.list_sops()],
            [vars(inc) for inc in kb.list_incidents()])


def test_run_embeds_each_distinct_text_once(tmp_path, monkeypatch):
    manifest = golden.write_corpus(tmp_path / "corpus", "default")
    corpus = load_corpus(manifest)
    embedded = []
    original_embed = ScriptedBackend.embed

    def counting_embed(self, text):
        embedded.append(text)
        return original_embed(self, text)

    masters = []
    original_clone = KnowledgeBase.clone_in_memory

    def recording_clone(self):
        masters.append(self)
        return original_clone(self)

    monkeypatch.setattr(ScriptedBackend, "embed", counting_embed)
    monkeypatch.setattr(KnowledgeBase, "clone_in_memory", recording_clone)
    report = run_benchmark(corpus, EvalConfig(workers=1), BackendConfig())

    assert len(report.rows) == 9 and report.la == 1.0 and report.ta == 1.0
    assert len(set(embedded)) == GOLDEN_DISTINCT_TEXTS
    assert len(embedded) == GOLDEN_DISTINCT_TEXTS
    # every episode viewed the same master, and no episode changed its documents
    assert len(masters) == 9 and all(kb is masters[0] for kb in masters)
    on_disk = KnowledgeBase(scripted_backend(), root=corpus.kb)
    assert _documents(masters[0]) == _documents(on_disk)


def test_views_keep_their_own_documents():
    master = golden.make_golden_kb(scripted_backend())
    before = _documents(master)
    first, sibling = master.clone_in_memory(), master.clone_in_memory()
    first.add_sop(SopDoc(id="sop-generated", name="generated procedure", steps=["look"]))

    assert first.get_sop("sop-generated").name == "generated procedure"
    for other in (master, sibling, master.without_sops(), first.without_sops()):
        with pytest.raises(NotFoundError):
            other.get_sop("sop-generated")
    assert _documents(master) == before
    assert master.without_sops().list_sops() == []
    assert len(master.without_sops().list_incidents()) == len(master.list_incidents())


def test_views_share_one_embedding_cache():
    master = golden.make_golden_kb(scripted_backend())
    embedded = []

    class CountingBackend:
        backend_id = "scripted:0:64"

        def embed(self, text):
            embedded.append(text)
            return scripted_backend().embed(text)

    first = master.clone_in_memory().using(CountingBackend())
    first.match_sop("cpu saturation on the frontend")
    first.match_observation("pods restarting")
    assert len(embedded) == len(set(embedded)) == 1 + 9 + 1 + 3

    for view in (master.clone_in_memory(), master.without_sops(), master):
        view = view.using(CountingBackend())
        view.match_sop("cpu saturation on the frontend")
        view.match_observation("pods restarting")
    assert len(embedded) == 1 + 9 + 1 + 3
