import json
import random
import re
from pathlib import Path

import pytest

from sopflow.detector import DetectorConfig
from sopflow.errors import ConfigError, UndefinedMetricError, ValidationError
from sopflow.evaluation import (
    BenchmarkReport,
    Corpus,
    EpisodeRow,
    EvalConfig,
    average_path_length,
    load_report,
    location_accuracy,
    match_predictions,
    report_table,
    run_benchmark,
    save_report,
    type_accuracy,
)
from sopflow.llm import BackendConfig


def row(loc_c=0, loc_i=0, type_c=0, type_i=0, gt_locs=("a",), gt_types=("T",),
        outcome="completed", path_length=5, scenario_id="scn-x",
        pred_locs=(), pred_types=()):
    return EpisodeRow(
        scenario_id=scenario_id, outcome=outcome,
        predicted_locations=pred_locs, predicted_types=pred_types,
        gt_locations=gt_locs, gt_types=gt_types,
        loc_correct=loc_c, loc_incorrect=loc_i,
        type_correct=type_c, type_incorrect=type_i,
        path_length=path_length, path=tuple(["step"] * path_length),
    )


class TestAccuracyFormula:
    def test_hand_evaluated_case(self):
        # correct=2, incorrect=1, total=3, sigma=0.1 -> (2 - 0.1) / 3
        rows = [row(loc_c=2, loc_i=1, gt_locs=("a", "b", "c"))]
        assert location_accuracy(rows, sigma=0.1) \
            == pytest.approx(0.6333333333333333, abs=1e-9)

    def test_all_correct_is_one(self):
        rows = [row(loc_c=2, gt_locs=("a", "b")), row(loc_c=1, gt_locs=("c",))]
        assert location_accuracy(rows, sigma=0.1) == 1.0

    def test_zero_predictions_is_zero(self):
        rows = [row(gt_locs=("a", "b", "c", "d", "e"))]
        assert location_accuracy(rows, sigma=0.1) == 0.0

    def test_can_go_negative(self):
        rows = [row(loc_i=5, gt_locs=("a",))]
        assert location_accuracy(rows, sigma=0.5) == -2.5

    def test_type_accuracy_same_shape(self):
        rows = [row(type_c=2, type_i=1, gt_types=("A", "B", "C"))]
        assert type_accuracy(rows, sigma=0.1) \
            == pytest.approx(0.6333333333333333, abs=1e-9)

    def test_empty_ground_truth_undefined(self):
        with pytest.raises(UndefinedMetricError):
            location_accuracy([row(gt_locs=())], sigma=0.1)
        with pytest.raises(UndefinedMetricError):
            location_accuracy([], sigma=0.1)

    def test_aggregate_counts_not_episode_mean(self):
        # corpus aggregation pools counts before dividing
        rows = [row(loc_c=1, gt_locs=("a",)), row(loc_c=0, loc_i=1, gt_locs=("b", "c"))]
        corpus = location_accuracy(rows, sigma=0.1)
        assert corpus == pytest.approx((1 - 0.1) / 3)

    def test_sigma_monotonicity(self):
        rng = random.Random(17)
        for _ in range(200):
            rows = [
                row(loc_c=rng.randint(0, 3), loc_i=rng.randint(1, 3),
                    gt_locs=tuple(f"g{j}" for j in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 6))
            ]
            low = location_accuracy(rows, sigma=0.1)
            high = location_accuracy(rows, sigma=0.3)
            assert high < low


class TestOracleRecount:
    def test_accuracy_matches_independent_recount_from_raw_rows(self):
        # re-derive the counts from raw predictions, ignoring the stored ones
        rng = random.Random(5150)
        pool = [f"c{i}" for i in range(6)]
        rows = []
        for n in range(40):
            gt = tuple(rng.sample(pool, rng.randint(1, 3)))
            preds = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
            c, i = match_predictions(preds, gt)
            rows.append(row(loc_c=c, loc_i=i, gt_locs=gt, pred_locs=preds,
                            scenario_id=f"scn-{n}"))
        reported = location_accuracy(rows, sigma=0.1)

        correct = incorrect = total = 0
        for r in rows:
            remaining = list(r.gt_locations)
            for pred in r.predicted_locations:
                if pred in remaining:
                    remaining.remove(pred)
                    correct += 1
                else:
                    incorrect += 1
            total += len(r.gt_locations)
        assert reported == pytest.approx((correct - 0.1 * incorrect) / total, abs=1e-12)


class TestMatching:
    def test_each_truth_matches_once(self):
        # two identical predictions cannot both claim one ground-truth item
        assert match_predictions(("a", "a"), ("a",)) == (1, 1)

    def test_unmatched_predictions_incorrect(self):
        assert match_predictions(("a", "x"), ("a", "b")) == (1, 1)

    def test_alias_table_canonicalizes(self):
        aliases = {"cartservice": "cartservice-0"}
        assert match_predictions(("cartservice",), ("cartservice-0",), aliases) == (1, 0)

    def test_no_predictions(self):
        assert match_predictions((), ("a",)) == (0, 0)


class TestAveragePathLength:
    def test_mean_over_completed(self):
        rows = [row(path_length=3), row(path_length=5)]
        assert average_path_length(rows) == 4.0

    def test_exhausted_excluded_from_denominator(self):
        rows = [row(path_length=5),
                row(path_length=20, outcome="budget_exhausted")]
        assert average_path_length(rows) == 5.0

    def test_aborted_excluded_too(self):
        rows = [row(path_length=4), row(path_length=1, outcome="aborted")]
        assert average_path_length(rows) == 4.0

    def test_no_completed_is_none(self):
        rows = [row(path_length=20, outcome="budget_exhausted")]
        assert average_path_length(rows) is None


class TestReports:
    def _report(self):
        rows = [row(loc_c=1, type_c=1, scenario_id="scn-1",
                    pred_locs=("a",), pred_types=("T",)),
                row(loc_c=0, loc_i=1, type_c=1, scenario_id="scn-2",
                    pred_locs=("x",), pred_types=("T",))]
        return BenchmarkReport.from_rows(rows, EvalConfig())

    def test_save_load_roundtrip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded.la == report.la and loaded.ta == report.ta
        assert loaded.apl == report.apl
        assert len(loaded.rows) == 2

    def test_failed_save_keeps_the_previous_report(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        save_report(self._report(), path)
        before = path.read_bytes()
        newer = BenchmarkReport.from_rows([row(loc_c=1, type_c=1)], EvalConfig())

        def failing_replace(src, dst):
            raise OSError("injected: disk full")

        monkeypatch.setattr("os.replace", failing_replace)
        with pytest.raises(OSError, match="injected"):
            save_report(newer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_tampered_aggregate_rejected_on_load(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        save_report(report, path)
        saved = path.read_text()
        for tampered in ("0.123", "null"):
            path.write_text(saved.replace(f'"la": {report.la}', f'"la": {tampered}'))
            with pytest.raises(ValidationError, match="report aggregates do not match"):
                load_report(path)

    def test_an_aggregate_is_checked_to_within_1e_12(self, tmp_path):
        # one truth and no prediction: the recomputed LA is 0.0
        report = BenchmarkReport.from_rows([row()], EvalConfig())
        assert report.la == 0.0
        path = tmp_path / "report.json"
        save_report(report, path)
        saved = json.loads(path.read_text())
        path.write_text(json.dumps({**saved, "la": 1e-12}))
        assert load_report(path).la == 1e-12
        path.write_text(json.dumps({**saved, "la": 2e-12}))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: report aggregates")):
            load_report(path)

    def test_table_contains_aggregates(self):
        report = self._report()
        table = report_table(report)
        assert f"LA={report.la:.4f}" in table and "scn-1" in table

    def test_empty_corpus_has_undefined_markers(self):
        report = BenchmarkReport.from_rows([], EvalConfig())
        assert report.la is None and report.ta is None and report.apl is None
        assert "LA=n/a" in report_table(report)

    def test_run_benchmark_empty_corpus(self, tmp_path):
        corpus = Corpus(episodes=[], kb=None)
        report = run_benchmark(corpus, EvalConfig(), BackendConfig())
        assert report.rows == [] and report.la is None


class TestValidation:
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_sigma_must_be_finite_and_non_negative(self, sigma):
        # a nan sigma gave LA=TA=nan, and the saved report then failed to load
        with pytest.raises(ValidationError, match="^sigma: must be a finite number >= 0, got "):
            EvalConfig(sigma=sigma)

    @pytest.mark.parametrize("cls, values", [
        (EvalConfig, {"sigma": float("nan")}),
        (EvalConfig, {"workers": 0}),
        (DetectorConfig, {"baseline_lookback_samples": 0}),
    ])
    def test_a_config_a_run_would_refuse_is_refused_when_built(self, cls, values):
        # run_benchmark checks no config: none it could be handed is out of bounds
        (key, value), = values.items()
        with pytest.raises(ValidationError, match=f"^{key}: must be .*, got {value!r}$"):
            cls(**values)


class TestParallelism:
    def test_worker_count_does_not_change_results(self, tmp_path):
        from sopflow.golden import write_corpus
        from sopflow.evaluation import load_corpus
        write_corpus(tmp_path, "default")
        corpus = load_corpus(tmp_path / "manifest.yaml")
        serial = run_benchmark(corpus, EvalConfig(workers=1), BackendConfig())
        parallel = run_benchmark(corpus, EvalConfig(workers=4), BackendConfig())
        assert serial.rows == parallel.rows
        assert serial.la == parallel.la == 1.0
        assert serial.apl == parallel.apl


class TestBenchmarkCalls:
    def test_each_entry_is_loaded_run_and_written_once_through_the_module_names(
            self, tmp_path, monkeypatch):
        # the benchmark's timer and spans wrap these three names of the module
        from collections import Counter
        from sopflow import evaluation
        from sopflow.evaluation import load_corpus
        from sopflow.golden import write_corpus
        corpus = load_corpus(write_corpus(tmp_path / "corpus", "default"))
        calls = Counter()

        def counting(name):
            original = getattr(evaluation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(evaluation, name, wrapper)

        for name in ("load_scenario", "run_episode", "write_transcript"):
            counting(name)
        report = run_benchmark(corpus, EvalConfig(), BackendConfig(),
                               transcript_dir=tmp_path / "transcripts")
        assert len(corpus.episodes) == 9 and report.la == 1.0
        assert calls == {"load_scenario": 9, "run_episode": 9, "write_transcript": 9}
        assert len(list((tmp_path / "transcripts").iterdir())) == 9


class TestStreaming:
    """Each episode's row is built and its transcript written as it ends; only
    the rows are kept."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_live_episode_states_never_exceed_workers(self, tmp_path, monkeypatch, workers):
        import threading
        import weakref
        from sopflow import evaluation
        from sopflow.evaluation import load_corpus
        from sopflow.golden import write_corpus
        corpus = load_corpus(write_corpus(tmp_path / "corpus", "default"))
        original = evaluation.run_episode
        states = []  # weak references: a state counts while something holds it
        peaks = []
        lock = threading.Lock()

        def live() -> int:
            return sum(ref() is not None for ref in states)

        def tracking(*args, **kwargs):
            result = original(*args, **kwargs)
            with lock:
                states.append(weakref.ref(result))
                peaks.append(live())
            return result

        monkeypatch.setattr(evaluation, "run_episode", tracking)
        report = run_benchmark(corpus, EvalConfig(workers=workers), BackendConfig(),
                               transcript_dir=tmp_path / "t")
        assert len(peaks) == 9 and report.la == 1.0
        assert max(peaks) <= workers
        assert live() == 0

    def test_a_run_that_raises_after_k_episodes_leaves_k_transcripts(
            self, tmp_path, monkeypatch):
        from sopflow import evaluation
        from sopflow.evaluation import load_corpus
        from sopflow.golden import golden_scenarios, write_corpus
        corpus = load_corpus(write_corpus(tmp_path / "corpus", "default"))
        original = evaluation.run_episode
        k = 4

        def crashing(scenario, *args, **kwargs):
            if scenario.id == golden_scenarios()[k].id:
                raise KeyboardInterrupt
            return original(scenario, *args, **kwargs)

        monkeypatch.setattr(evaluation, "run_episode", crashing)
        with pytest.raises(KeyboardInterrupt):
            run_benchmark(corpus, EvalConfig(), BackendConfig(),
                          transcript_dir=tmp_path / "t")
        written = sorted(path.stem for path in (tmp_path / "t").iterdir())
        assert written == sorted(s.id for s in golden_scenarios()[:k])


class TestSharedRegistry:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_every_episode_uses_the_one_registry(self, tmp_path, monkeypatch, workers):
        from sopflow.evaluation import load_corpus
        from sopflow.golden import write_corpus
        from sopflow.tools import ToolRegistry, build_registry
        corpus = load_corpus(write_corpus(tmp_path / "corpus", "default"))
        original = ToolRegistry.execute
        used = {}

        def recording(self, name, args, ctx):
            used.setdefault(ctx.telemetry.scenario.id, set()).add(id(self))
            return original(self, name, args, ctx)

        monkeypatch.setattr(ToolRegistry, "execute", recording)
        report = run_benchmark(corpus, EvalConfig(workers=workers), BackendConfig())
        assert report.la == 1.0 and len(used) == 9
        assert set().union(*used.values()) == {id(build_registry())}


class TestCorpusManifest:
    @pytest.mark.parametrize("old, new", [
        ('"script": ', '"scirpt": '),       # an entry key
        ('"kb": "kb"', '"kb_dir": "kb"'),   # a top-level key
    ], ids=["  script: -  scirpt: ", "kb: kb-kb_dir: kb"])
    def test_misspelt_key_is_config_error(self, tmp_path, old, new):
        from sopflow.evaluation import load_corpus
        from sopflow.golden import write_corpus
        manifest = write_corpus(tmp_path, "default")
        text = manifest.read_text()
        assert old in text
        manifest.write_text(text.replace(old, new))
        with pytest.raises(ConfigError):
            load_corpus(manifest)

    @pytest.mark.parametrize("entry", ["script: scripts/x.yaml", 'scenario: ""'])
    def test_entry_without_scenario_is_config_error(self, tmp_path, entry):
        from sopflow.evaluation import load_corpus
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(f"episodes:\n  - {entry}\n")
        with pytest.raises(ConfigError):
            load_corpus(manifest)


    @pytest.mark.parametrize("damage", ["missing", "malformed", "bad script"])
    def test_bad_entry_fails_before_any_episode(self, tmp_path, monkeypatch, damage):
        from sopflow import evaluation
        from sopflow.evaluation import load_corpus
        from sopflow.golden import write_corpus
        manifest = write_corpus(tmp_path, "default")
        corpus = load_corpus(manifest)
        fifth = corpus.episodes[4]
        if damage == "missing":
            fifth.scenario = str(Path(fifth.scenario).with_name("no-such-scenario.yaml"))
        elif damage == "malformed":
            Path(fifth.scenario).write_text("id: [unclosed\n")
        else:
            Path(fifth.script).write_text("5\n")
        episodes = []
        monkeypatch.setattr(evaluation, "run_episode",
                            lambda *args, **kwargs: episodes.append(args))
        with pytest.raises(ConfigError, match="corpus entry 5"):
            run_benchmark(corpus, EvalConfig(), BackendConfig())
        assert episodes == []


class TestEmbeddingFailures:
    """Embeddings made inside an episode get the same retry-once policy as
    completions: one failure is retried, a second aborts only that episode."""

    def _run(self, tmp_path, monkeypatch, failing_calls):
        import json
        from sopflow.errors import BackendError
        from sopflow.evaluation import load_corpus
        from sopflow.golden import write_corpus
        from sopflow.llm import ScriptedBackend

        manifest = write_corpus(tmp_path / "corpus", "default")
        original = ScriptedBackend.embed
        calls = []

        def flaky(self, text):
            calls.append(text)
            if len(calls) in failing_calls:
                raise BackendError("injected embedding failure")
            return original(self, text)

        monkeypatch.setattr(ScriptedBackend, "embed", flaky)
        report = run_benchmark(load_corpus(manifest), EvalConfig(), BackendConfig(),
                               transcript_dir=tmp_path / "t")
        events = [json.loads(line)
                  for path in sorted((tmp_path / "t").glob("*.jsonl"))
                  for line in path.read_text(encoding="utf-8").splitlines()]
        return report, events

    def test_one_failure_is_retried(self, tmp_path, monkeypatch):
        report, events = self._run(tmp_path, monkeypatch, {3})
        assert len(report.rows) == 9 and all(r.completed for r in report.rows)
        assert report.la == 1.0 and report.ta == 1.0
        assert sum(e["kind"] == "llm_retry" for e in events) == 1

    def test_two_failures_abort_only_that_episode(self, tmp_path, monkeypatch):
        report, events = self._run(tmp_path, monkeypatch, {3, 4})
        assert len(report.rows) == 9 and report.aborted == 1
        assert [r.outcome for r in report.rows].count("completed") == 8
        reasons = [e["abort_reason"] for e in events
                   if e["kind"] == "termination" and e["abort_reason"]]
        assert len(reasons) == 1 and "backend failed twice" in reasons[0]


class TestEmbeddingCacheFile:
    """A run writes the texts it embedded to the knowledge base's cache file,
    once, after its last episode; a rerun over the same knowledge base and
    backend embeds none of them again."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """(texts embedded by the scripted backend, cache files written)."""
        from sopflow import llm, schema
        embedded, writes = [], []
        hash_embedding, write_atomic = llm.hash_embedding, schema.write_atomic

        def embedding(text, *args):
            embedded.append(text)
            return hash_embedding(text, *args)

        def writing(path, text):
            if Path(path).name == "embedding_cache.json":
                writes.append(Path(path))
            write_atomic(path, text)

        monkeypatch.setattr(llm, "hash_embedding", embedding)
        monkeypatch.setattr(schema, "write_atomic", writing)
        return embedded, writes

    @staticmethod
    def _corpus(root):
        from sopflow.evaluation import load_corpus
        from sopflow.golden import write_corpus
        return load_corpus(write_corpus(root, "default"))

    @staticmethod
    def _run(corpus, out, workers=1):
        """The run's report and transcripts, as bytes."""
        report = run_benchmark(corpus, EvalConfig(workers=workers), BackendConfig(),
                               transcript_dir=out / "transcripts")
        save_report(report, out / "report.json")
        return {path.relative_to(out).as_posix(): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()}

    def test_a_cold_run_embeds_each_text_once_and_writes_the_cache_once(
            self, tmp_path, counted):
        import json
        embedded, writes = counted
        corpus = self._corpus(tmp_path / "corpus")
        cache = Path(corpus.kb) / "embedding_cache.json"
        assert not cache.exists()
        outputs = self._run(corpus, tmp_path / "run")
        assert len(outputs) == 10
        assert len(embedded) == len(set(embedded)) == 21
        assert writes == [cache]
        assert len(json.loads(cache.read_text(encoding="utf-8"))) == 21

    def test_a_warm_rerun_embeds_nothing_writes_nothing_and_gives_the_same_files(
            self, tmp_path, counted):
        embedded, writes = counted
        corpus = self._corpus(tmp_path / "corpus")
        cache = Path(corpus.kb) / "embedding_cache.json"
        cold = self._run(corpus, tmp_path / "cold")
        written = cache.read_bytes()
        embedded.clear()
        writes.clear()
        warm = self._run(corpus, tmp_path / "warm")
        assert embedded == [] and writes == []
        assert warm == cold
        assert cache.read_bytes() == written

    def test_a_failed_write_keeps_the_report_and_the_previous_cache(
            self, tmp_path, monkeypatch):
        from sopflow.kb import KnowledgeBase
        from sopflow.llm import make_backend
        corpus = self._corpus(tmp_path / "corpus")
        expected = run_benchmark(self._corpus(tmp_path / "other"), EvalConfig(),
                                 BackendConfig())
        kb = KnowledgeBase(make_backend(BackendConfig()), root=corpus.kb)
        kb.match_sop("cpu saturation on the frontend")  # a cache file with 10 texts
        kb.save_cache()
        before = {p: p.read_bytes() for p in Path(corpus.kb).rglob("*") if p.is_file()}

        def failing_replace(src, dst):
            raise OSError("injected: disk full")

        monkeypatch.setattr("os.replace", failing_replace)
        report = run_benchmark(corpus, EvalConfig(), BackendConfig())
        assert report == expected and report.la == 1.0
        # the old file intact, no temp file left behind
        assert {p: p.read_bytes() for p in Path(corpus.kb).rglob("*") if p.is_file()} \
            == before

    def test_a_parallel_run_persists_the_same_cache(self, tmp_path):
        caches = []
        for workers in (1, 2):
            corpus = self._corpus(tmp_path / f"workers-{workers}")
            self._run(corpus, tmp_path / f"run-{workers}", workers=workers)
            caches.append((Path(corpus.kb) / "embedding_cache.json").read_bytes())
        assert caches[0] == caches[1]


class TestInternalErrors:
    """An unexpected exception inside one episode aborts that episode only."""

    def test_tool_error_aborts_only_that_episode(self, tmp_path, monkeypatch):
        import json
        from sopflow.evaluation import load_corpus
        from sopflow.golden import golden_scenarios, write_corpus
        from sopflow.tools import ToolRegistry

        manifest = write_corpus(tmp_path / "corpus", "default")
        broken = golden_scenarios()[2].id
        original = ToolRegistry.execute

        def execute(self, name, args, ctx):
            if name == "match_sop" and ctx.telemetry.scenario.id == broken:
                raise RuntimeError("injected tool defect")
            return original(self, name, args, ctx)

        monkeypatch.setattr(ToolRegistry, "execute", execute)
        report = run_benchmark(load_corpus(manifest), EvalConfig(), BackendConfig(),
                               transcript_dir=tmp_path / "t")
        outcomes = [r.outcome for r in report.rows]
        assert len(report.rows) == 9 and report.aborted == 1
        assert outcomes[2] == "aborted" and outcomes.count("completed") == 8
        assert report.rows[2].scenario_id == broken
        events = [json.loads(line) for line in
                  (tmp_path / "t" / f"{broken}.jsonl").read_text(encoding="utf-8").splitlines()]
        assert events[-1]["kind"] == "termination"
        assert events[-1]["abort_reason"] == "internal error: RuntimeError: injected tool defect"
