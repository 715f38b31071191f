import hashlib
import json
import os
import random
import re

import pytest

from sopflow import golden, schema
from sopflow.agents import AgentConfig, run_episode, transcript_lines
from sopflow.errors import (
    ConfigError,
    DegenerateVectorError,
    DimensionError,
    NotFoundError,
    ValidationError,
)
from sopflow.kb import (
    EmbeddingVector,
    HistoricalIncident,
    KnowledgeBase,
    SopDoc,
    cosine_similarity,
)
from sopflow.llm import RemoteBackend

from conftest import action_sets, scripted_backend


def vec(*values):
    return EmbeddingVector.of(values)


class TestCosine:
    def test_identical_vectors(self):
        assert cosine_similarity(vec(1, 0), vec(1, 0)) == 1.0

    def test_orthogonal_vectors(self):
        assert cosine_similarity(vec(1, 0), vec(0, 1)) == 0.0

    def test_hand_evaluated_angle(self):
        # dot=1, |a|=1, |b|=sqrt(2)
        assert cosine_similarity(vec(1, 0), vec(1, 1)) == pytest.approx(0.70710678, abs=1e-8)

    def test_symmetry(self):
        a, b = vec(0.3, -0.2, 0.9), vec(-0.1, 0.5, 0.4)
        assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_similarity(vec(1, 0), vec(1, 0, 0))

    def test_zero_vector(self):
        with pytest.raises(DegenerateVectorError):
            cosine_similarity(vec(0, 0), vec(1, 0))

    def test_clamped_to_unit_interval(self):
        score = cosine_similarity(vec(1e-8, 1e-8), vec(1e8, 1e8))
        assert -1.0 <= score <= 1.0

    def test_embedding_invariants(self):
        with pytest.raises(ValidationError):
            EmbeddingVector.of([])
        with pytest.raises(ValidationError):
            EmbeddingVector.of([1.0, float("nan")])


class TestStore:
    def test_add_then_get_roundtrip(self):
        kb = KnowledgeBase(scripted_backend())
        doc = SopDoc(id="sop-a", name="disk pressure diagnosis",
                     steps=["check disk", "check inodes"], level=1)
        kb.add_sop(doc)
        got = kb.get_sop("sop-a")
        assert got.name == doc.name and got.steps == doc.steps and got.level == 1

    def test_empty_steps_rejected(self):
        kb = KnowledgeBase(scripted_backend())
        with pytest.raises(ValidationError):
            kb.add_sop(SopDoc(id="sop-bad", name="x", steps=[]))

    def test_duplicate_id_rejected(self):
        kb = KnowledgeBase(scripted_backend())
        kb.add_sop(SopDoc(id="sop-a", name="a", steps=["s"]))
        with pytest.raises(ValidationError):
            kb.add_sop(SopDoc(id="sop-a", name="b", steps=["s"]))

    def test_list_preserves_insertion_order(self):
        kb = KnowledgeBase(scripted_backend())
        for name in ("c", "a", "b"):
            kb.add_sop(SopDoc(id=f"sop-{name}", name=name, steps=["s"]))
        assert [d.id for d in kb.list_sops()] == ["sop-c", "sop-a", "sop-b"]

    def test_get_missing_raises(self):
        kb = KnowledgeBase(scripted_backend())
        with pytest.raises(NotFoundError):
            kb.get_sop("nope")
        with pytest.raises(NotFoundError):
            kb.get_incident("nope")

    def test_incident_validation(self):
        kb = KnowledgeBase(scripted_backend())
        with pytest.raises(ValidationError):
            kb.add_incident(HistoricalIncident(id="inc-a", manifestation="  ",
                                               fault_type="CpuStress"))


class TestRetrieval:
    def test_self_match_scores_one(self):
        kb = KnowledgeBase(scripted_backend())
        kb.add_sop(SopDoc(id="sop-cpu", name="cpu stress diagnosis", steps=["s"]))
        matches = kb.match_sop("cpu stress diagnosis", k=1, threshold=0.5)
        assert len(matches) == 1
        assert matches[0][0].id == "sop-cpu"
        assert matches[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_empty_store_returns_empty(self):
        kb = KnowledgeBase(scripted_backend())
        assert kb.match_sop("anything") == []
        assert kb.match_observation("anything") == []

    def test_incident_self_match(self):
        kb = KnowledgeBase(scripted_backend())
        kb.add_incident(HistoricalIncident(id="inc-1", manifestation="cart errors spiking",
                                           fault_type="NetworkLoss"))
        matches = kb.match_observation("cart errors spiking", k=1, threshold=0.5)
        assert matches[0][0].id == "inc-1"
        assert matches[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_threshold_soundness(self):
        kb = KnowledgeBase(scripted_backend())
        for i in range(20):
            kb.add_sop(SopDoc(id=f"sop-{i:02d}", name=f"procedure number {i}", steps=["s"]))
        for threshold in (-1.0, 0.0, 0.1, 0.5):
            for _, score in kb.match_sop("procedure number 3", k=20, threshold=threshold):
                assert score >= threshold

    def test_matches_brute_force_oracle(self):
        rng = random.Random(2024)
        overrides = {}
        names = []
        for i in range(25):
            name = f"scripted doc {i}"
            names.append(name)
            overrides[name] = tuple(rng.uniform(-1, 1) for _ in range(8))
        overrides["the query"] = tuple(rng.uniform(-1, 1) for _ in range(8))
        backend = scripted_backend(overrides=overrides, dim=8)
        kb = KnowledgeBase(backend)
        for i, name in enumerate(names):
            kb.add_sop(SopDoc(id=f"sop-{i:02d}", name=name, steps=["s"]))

        def oracle(query, k, threshold):
            qv = backend.embed(query)
            scored = [(doc, cosine_similarity(qv, backend.embed(doc.name)))
                      for doc in kb.list_sops()]
            scored.sort(key=lambda p: (-p[1], p[0].id))
            return [(d.id, s) for d, s in scored if s >= threshold][:k]

        got = [(d.id, s) for d, s in kb.match_sop("the query", k=3, threshold=0.2)]
        assert got == oracle("the query", 3, 0.2)

    def test_incident_store_matches_oracle(self):
        rng = random.Random(7)
        overrides = {}
        texts = []
        for i in range(10):
            text = f"manifestation number {i}"
            texts.append(text)
            overrides[text] = tuple(rng.uniform(-1, 1) for _ in range(8))
        overrides["observed symptoms"] = tuple(rng.uniform(-1, 1) for _ in range(8))
        backend = scripted_backend(overrides=overrides, dim=8)
        kb = KnowledgeBase(backend)
        for i, text in enumerate(texts):
            kb.add_incident(HistoricalIncident(id=f"inc-{i:02d}", manifestation=text,
                                               fault_type="T"))

        qv = backend.embed("observed symptoms")
        scored = [(inc, cosine_similarity(qv, backend.embed(inc.manifestation)))
                  for inc in kb.list_incidents()]
        scored.sort(key=lambda p: (-p[1], p[0].id))
        want = [(i.id, s) for i, s in scored if s >= -1.0][:4]
        got = [(i.id, s) for i, s in kb.match_observation("observed symptoms",
                                                          k=4, threshold=-1.0)]
        assert got == want

    def test_ties_break_on_lexicographic_id(self):
        overrides = {"same": (1.0, 0.0), "query": (1.0, 0.0)}
        backend = scripted_backend(overrides=overrides, dim=2)
        kb = KnowledgeBase(backend)
        for doc_id in ("sop-b", "sop-a", "sop-c"):
            kb.add_sop(SopDoc(id=doc_id, name="same", steps=["s"]))
        got = [d.id for d, _ in kb.match_sop("query", k=3, threshold=0.5)]
        assert got == ["sop-a", "sop-b", "sop-c"]

    def test_retrieval_determinism(self):
        kb = KnowledgeBase(scripted_backend())
        for i in range(10):
            kb.add_sop(SopDoc(id=f"sop-{i}", name=f"name {i}", steps=["s"]))
        first = kb.match_sop("name 3", k=5, threshold=-1.0)
        second = kb.match_sop("name 3", k=5, threshold=-1.0)
        assert [(d.id, s) for d, s in first] == [(d.id, s) for d, s in second]

    def test_empty_query_rejected(self):
        kb = KnowledgeBase(scripted_backend())
        with pytest.raises(ValidationError):
            kb.match_sop("   ")


class TestPersistence:
    def test_directory_roundtrip(self, tmp_path):
        root = tmp_path / "kb"
        kb = KnowledgeBase(scripted_backend(), root=root)
        kb.add_sop(SopDoc(id="sop-a", name="first procedure", steps=["one", "two"], level=2))
        kb.add_incident(HistoricalIncident(id="inc-a", manifestation="observed things",
                                           fault_type="PodFailure"))
        kb.match_sop("first procedure")  # populate the embedding cache
        kb.save_cache()

        reloaded = KnowledgeBase(scripted_backend(), root=root)
        doc = reloaded.get_sop("sop-a")
        assert doc.name == "first procedure" and doc.steps == ["one", "two"] and doc.level == 2
        inc = reloaded.get_incident("inc-a")
        assert inc.fault_type == "PodFailure"
        assert (root / "embedding_cache.json").exists()

    def test_cache_avoids_backend_calls(self, tmp_path):
        root = tmp_path / "kb"
        kb = KnowledgeBase(scripted_backend(), root=root)
        kb.add_sop(SopDoc(id="sop-a", name="cached name", steps=["s"]))
        kb.match_sop("cached name")
        kb.save_cache()

        class ExplodingBackend:
            backend_id = "scripted:0:64"

            def embed(self, text):
                raise AssertionError("embedding should have come from the cache")

        warm = KnowledgeBase(ExplodingBackend(), root=root)
        matches = warm.match_sop("cached name", k=1, threshold=0.5)
        assert matches[0][0].id == "sop-a"

    def test_a_match_writes_the_cache_once(self, tmp_path, monkeypatch):
        root = tmp_path / "kb"
        golden.make_golden_kb(scripted_backend(), root=root)
        writes = []
        write_atomic = schema.write_atomic
        monkeypatch.setattr(schema, "write_atomic",
                            lambda path, text: writes.append(path) or write_atomic(path, text))
        kb = KnowledgeBase(scripted_backend(), root=root)
        for _ in range(2):  # a match fills the cache in memory only
            kb.match_sop("checkout latency is rising on the frontend")
            kb.match_observation("payment requests time out upstream")
        assert writes == []
        for _ in range(2):  # the second save has nothing new, so writes nothing
            kb.save_cache()
        # one write, whose bytes are those every earlier write point left
        assert writes == [root / "embedding_cache.json"]
        digest = hashlib.sha256((root / "embedding_cache.json").read_bytes()).hexdigest()
        assert digest == "4c009c15e122d620e5aa28710ea4b2e9862eb506fc0d98ff17eb82b68d878e98"

    @pytest.mark.parametrize("selected", ["2", "1"], ids=["used", "unused"])
    def test_an_episode_prefetch_leaves_the_cache_file_of_a_sequential_run(
            self, tmp_path, fake_endpoint, monkeypatch, selected):
        # step 4's action set is [get_all_namespace, match_observation (R6)]:
        # its findings are prefetched during the selection, which chooses the
        # match (2) or not (1); the episode ends with that step
        case = golden.golden_cases("default")[0]
        writes = []
        write_atomic = schema.write_atomic
        monkeypatch.setattr(schema, "write_atomic",
                            lambda path, text: writes.append(path) or write_atomic(path, text))
        runs = []
        for concurrent in (False, True):
            monkeypatch.setattr(RemoteBackend, "concurrent_calls", concurrent)
            root = tmp_path / f"concurrent-{concurrent}"
            kb = golden.make_golden_kb(scripted_backend(), root=root)
            fake_endpoint.serve({case.scenario.id: case.script})
            fake_endpoint.replies = {
                ("select", 3): (200, {"choices": [{"message": {"content": selected}}]})}
            result = run_episode(case.scenario, AgentConfig(max_steps=4),
                                 RemoteBackend(fake_endpoint.config()), kb)
            cache = root / "embedding_cache.json"
            unsaved = writes.count(cache)
            kb.save_cache()
            runs.append((transcript_lines(result), unsaved, writes.count(cache),
                         cache.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[1][1:3] == (0, 1)  # the episode writes nothing; save_cache once
        findings = next(str(c.args["observation"])
                        for c in action_sets(result)[3]
                        if c.rule == "R6")
        sent = [r for r in fake_endpoint.requests if r.role == "embed" and r.prompt == findings]
        assert len(sent) == 1 and sent[0].thread.startswith("sopflow-propose")

    def test_sop_file_is_editable_yaml(self, tmp_path):
        root = tmp_path / "kb"
        kb = KnowledgeBase(scripted_backend(), root=root)
        kb.add_sop(SopDoc(id="sop-a", name="editable", steps=["step one"]))
        text = (root / "sops" / "sop-a.yaml").read_text()
        assert "id: sop-a" in text and "steps:" in text and "step one" in text

    def test_failed_replace_keeps_previous_files(self, tmp_path, monkeypatch):
        root = tmp_path / "kb"
        kb = KnowledgeBase(scripted_backend(), root=root)
        kb.add_sop(SopDoc(id="sop-a", name="first", steps=["s"]))
        kb.match_sop("first")
        kb.save_cache()
        cache = root / "embedding_cache.json"
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        kb.match_sop("a query the cache has not seen")
        kb.save_cache()  # a failed cache write raises nothing
        with pytest.raises(OSError):
            kb.add_sop(SopDoc(id="sop-b", name="second", steps=["s"]))
        after = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        assert after == before  # old content intact, no temp file left behind
        assert json.loads(cache.read_text())
        with pytest.raises(NotFoundError):  # an unwritten document is not kept
            kb.get_sop("sop-b")

    def test_view_embeds_through_its_backend_and_shares_the_store(self, tmp_path):
        root = tmp_path / "kb"
        kb = KnowledgeBase(scripted_backend(), root=root)
        embedded = []

        class CountingBackend:
            backend_id = "scripted:0:64"

            def embed(self, text):
                embedded.append(text)
                return scripted_backend().embed(text)

        view = kb.using(CountingBackend())
        view.add_sop(SopDoc(id="sop-gen", name="generated procedure", steps=["look"]))
        assert kb.get_sop("sop-gen").name == "generated procedure"
        assert (root / "sops" / "sop-gen.yaml").exists()
        assert view.match_sop("generated procedure", k=1)[0][0].id == "sop-gen"
        assert embedded == ["generated procedure"]  # the query; the name then hits the cache
        assert kb.match_sop("generated procedure", k=1)[0][0].id == "sop-gen"
        assert embedded == ["generated procedure"]  # the view filled the shared cache

    @pytest.mark.parametrize("subdir, body, complaint", [
        ("sops", "id: sop-x\nname: x\nsteps: inspect\n", "expected a list"),
        ("sops", "id: sop-x\nname: x\nsteps: [inspect]\nlevle: 2\n", "'levle'"),
        ("incidents", "id: inc-x\nmanifestation: m\nfault_typ: PodFailure\n",
         "'fault_typ'"),
    ])
    def test_load_rejects_a_malformed_document(self, tmp_path, subdir, body, complaint):
        path = tmp_path / "kb" / subdir / "doc.yaml"
        path.parent.mkdir(parents=True)
        path.write_text(body)
        with pytest.raises(ConfigError, match=complaint) as info:
            KnowledgeBase(scripted_backend(), root=tmp_path / "kb")
        assert str(info.value).startswith(str(path))

    @pytest.mark.parametrize("stored, complaint", [
        ("[]", "expected an object mapping text to a list of numbers, got list"),
        ('{"a": "0.5"}', "the entry for 'a' is not a list of numbers"),
        ('{"a": [0.5, "1"]}', "the entry for 'a' is not a list of numbers"),
        ('{"a": [true]}', "the entry for 'a' is not a list of numbers"),
        ('{"a": []}', "dim > 0"),
        ('{"a": [NaN]}', "non-finite"),
    ])
    def test_load_rejects_a_malformed_embedding_cache(self, tmp_path, stored, complaint):
        path = tmp_path / "kb" / "embedding_cache.json"
        path.parent.mkdir()
        path.write_text(stored)
        with pytest.raises(ConfigError, match=re.escape(complaint)) as info:
            KnowledgeBase(scripted_backend(), root=tmp_path / "kb")
        assert str(info.value).startswith(f"{path}: ")

    def test_files_keep_their_key_order(self, tmp_path):
        root = tmp_path / "kb"
        kb = KnowledgeBase(scripted_backend(), root=root)
        kb.add_sop(SopDoc(id="sop-a", name="n", steps=["s"], level=1))
        kb.add_incident(HistoricalIncident(id="inc-a", manifestation="m"))
        assert (root / "sops" / "sop-a.yaml").read_text() \
            == "id: sop-a\nname: n\nlevel: 1\nsteps:\n- s\n"
        assert (root / "incidents" / "inc-a.yaml").read_text() \
            == "id: inc-a\nmanifestation: m\nfault_type: ''\n"
