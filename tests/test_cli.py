import dataclasses
import errno
import json
import os
from pathlib import Path

import pytest
import yaml

from sopflow import golden
from sopflow.cli import main
from sopflow.evaluation import load_report
from sopflow.golden import write_corpus


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    write_corpus(out, "default")
    return out


def run_cli(*argv):
    return main(list(argv))


class TestKbCommands:
    def test_list_empty_store(self, tmp_path, capsys):
        (tmp_path / "kb").mkdir()
        assert run_cli("kb", "list", "--kb", str(tmp_path / "kb")) == 0
        assert "0 SOPs, 0 incidents" in capsys.readouterr().out

    def test_add_invalid_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("id: sop-x\nname: x\nsteps: []\n")
        code = run_cli("kb", "add", "--file", str(bad), "--kb", str(tmp_path / "kb"))
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_add_incident_kind(self, tmp_path, capsys):
        doc = tmp_path / "inc.yaml"
        doc.write_text("id: inc-x\nmanifestation: cart errors spiking\nfault_type: NetworkLoss\n")
        kb_dir = str(tmp_path / "kb")
        assert run_cli("kb", "add", "--file", str(doc), "--kind", "incident",
                       "--kb", kb_dir) == 0
        run_cli("kb", "list", "--kb", kb_dir)
        assert "1 incidents" in capsys.readouterr().out

    def test_add_then_list_then_match_self(self, tmp_path, capsys):
        doc = tmp_path / "doc.yaml"
        doc.write_text("id: sop-x\nname: cache saturation diagnosis\nsteps:\n  - check hit rate\n")
        kb_dir = str(tmp_path / "kb")
        assert run_cli("kb", "add", "--file", str(doc), "--kb", kb_dir) == 0
        assert run_cli("kb", "list", "--kb", kb_dir) == 0
        assert "1 SOPs" in capsys.readouterr().out
        assert run_cli("kb", "match", "--kb", kb_dir,
                       "--query", "cache saturation diagnosis", "--k", "1") == 0
        out = capsys.readouterr().out
        score = float(out.split()[0])
        assert score == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("section, flags, complaint", [
        ("kb: {k: 0}", [], "k must be positive, got 0"),
        ("kb: {threshold: .nan}", [], "threshold must be a finite number, got nan"),
        ("kb: {}", ["--k", "0"], "k must be positive"),
        ("kb: {}", ["--threshold", "nan"], "threshold must be a finite number"),
    ])
    def test_match_with_nonsense_retrieval_settings_exits_one(
            self, golden_dir, tmp_path, capsys, section, flags, complaint):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(section + "\n")
        assert run_cli("kb", "match", "--kb", str(golden_dir / "kb"), "--config", str(cfg),
                       "--query", "CPU saturation diagnosis", *flags) == 1
        assert capsys.readouterr().err == f"error: {complaint}\n"

    def test_match_incidents(self, golden_dir, capsys):
        kb_dir = str(golden_dir / "kb")
        assert run_cli("kb", "match", "--kb", kb_dir, "--kind", "incident", "--k", "1",
                       "--query", "checkout pods pinned at full CPU, requests queueing, "
                       "throttling in logs") == 0
        assert capsys.readouterr().out == (
            "1.000000  inc-checkout-cpu  [CpuStress] "
            "checkout pods pinned at full CPU, requests queueing, throttl\n")
        assert run_cli("kb", "match", "--kb", kb_dir, "--kind", "incident",
                       "--query", "disk quota exceeded on the batch runner") == 0
        assert capsys.readouterr().out == "no matches\n"

    @pytest.mark.parametrize("body, complaint", [
        ("id: sop-x\nname: x\nsteps: inspect\n", "expected a list"),
        ("id: sop-x\nname: x\nsteps: [inspect]\nlevle: 2\n", "unknown key(s) 'levle'"),
    ])
    def test_add_rejects_a_malformed_document(self, tmp_path, capsys, body, complaint):
        doc = tmp_path / "doc.yaml"
        doc.write_text(body)
        kb_dir = str(tmp_path / "kb")
        assert run_cli("kb", "add", "--file", str(doc), "--kb", kb_dir) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {doc}") and complaint in err
        run_cli("kb", "list", "--kb", kb_dir)
        assert "0 SOPs" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, body, complaint", [
        ("sop", "id: -x\nname: x\nsteps: [inspect]\n", "invalid SOP id: '-x'"),
        ("sop", "id: sop-x\nname: ' '\nsteps: [inspect]\n", "SOP name must be non-empty"),
        ("sop", "id: sop-x\nname: x\nlevel: -1\nsteps: [inspect]\n",
         "SOP level must be non-negative"),
        ("incident", "id: inc x\nmanifestation: cart errors\n", "invalid incident id: 'inc x'"),
        ("incident", "id: inc-x\nmanifestation: other errors\n",
         "incident id already exists: inc-x"),
    ], ids=["sop-id", "sop-blank-name", "sop-negative-level", "incident-id",
            "incident-duplicate-id"])
    def test_add_rejects_an_invalid_document(self, tmp_path, capsys, kind, body, complaint):
        kb_dir = str(tmp_path / "kb")
        stored = tmp_path / "stored.yaml"
        stored.write_text("id: inc-x\nmanifestation: cart errors spiking\n")
        assert run_cli("kb", "add", "--file", str(stored), "--kind", "incident",
                       "--kb", kb_dir) == 0
        doc = tmp_path / "doc.yaml"
        doc.write_text(body)
        capsys.readouterr()
        assert run_cli("kb", "add", "--file", str(doc), "--kind", kind, "--kb", kb_dir) == 1
        assert capsys.readouterr().err == f"error: {complaint}\n"
        run_cli("kb", "list", "--kb", kb_dir)
        assert "0 SOPs, 1 incidents" in capsys.readouterr().out

    def test_add_names_the_file_a_malformed_scalar_is_in(self, tmp_path, capsys):
        doc = tmp_path / "doc.yaml"
        doc.write_text("id: sop-x\nname: 2020-13-45\nsteps: [inspect]\n")
        assert run_cli("kb", "add", "--file", str(doc), "--kb", str(tmp_path / "kb")) == 1
        assert capsys.readouterr().err == f"error: {doc}: month must be in 1..12\n"

    def test_list_rejects_an_embedding_cache_that_is_not_an_object(self, tmp_path, capsys):
        cache = tmp_path / "kb" / "embedding_cache.json"
        cache.parent.mkdir()
        cache.write_text("[]")
        assert run_cli("kb", "list", "--kb", str(tmp_path / "kb")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cache}: ") and "Traceback" not in err


class TestMalformedFiles:
    # each case: the file given malformed YAML, and the command that reads it
    @pytest.mark.parametrize("kind", ["scenario", "script", "kb document", "config",
                                      "manifest"])
    def test_error_names_the_file_without_a_traceback(self, golden_dir, tmp_path, capsys,
                                                      kind):
        scenario = str(golden_dir / "scenarios" / "scn-01000-cpustress.yaml")
        script = str(golden_dir / "scripts" / "scn-01000-cpustress.yaml")
        bad = tmp_path / ("kb/sops/sop-x.yaml" if kind == "kb document" else "bad.yaml")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("id: [unclosed\nname: x\n")
        argv = {
            "scenario": ["diagnose", "--scenario", str(bad), "--script", script],
            "script": ["diagnose", "--scenario", scenario, "--script", str(bad)],
            "kb document": ["kb", "list", "--kb", str(tmp_path / "kb")],
            "config": ["diagnose", "--scenario", scenario, "--config", str(bad)],
            "manifest": ["benchmark", "--corpus", str(bad)],
        }[kind]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    def test_scenario_with_list_aliases_names_the_file(self, golden_dir, tmp_path, capsys):
        source = golden_dir / "scenarios" / "scn-01000-cpustress.yaml"
        script = str(golden_dir / "scripts" / "scn-01000-cpustress.yaml")
        bad = tmp_path / "scenario.yaml"
        bad.write_text(source.read_text().replace('"aliases": {}', '"aliases": [1]'))
        assert run_cli("diagnose", "--scenario", str(bad), "--script", script) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: malformed scenario file: ")
        assert "Traceback" not in err


class TestSimulate:
    def test_one_file_per_fault_type(self, tmp_path, capsys):
        out = tmp_path / "scenarios"
        assert run_cli("simulate", "--seed", "5", "--count", "9",
                       "--types", "all", "--out", str(out)) == 0
        files = sorted(out.glob("*.yaml"))
        assert len(files) == 9
        types = {f.name.split("-")[-1].replace(".yaml", "") for f in files}
        assert len(types) == 9

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--seed", "5", "--count", "2", "--out", str(a))
        run_cli("simulate", "--seed", "5", "--count", "2", "--out", str(b))
        fa, fb = sorted(a.glob("*.yaml")), sorted(b.glob("*.yaml"))
        assert [f.read_bytes() for f in fa] == [f.read_bytes() for f in fb]

    def test_type_restriction(self, tmp_path):
        out = tmp_path / "scenarios"
        run_cli("simulate", "--seed", "5", "--count", "2",
                "--types", "CpuStress", "--out", str(out))
        for path in out.glob("*.yaml"):
            assert yaml.safe_load(path.read_text())["faults"][0]["fault_type"] == "CpuStress"

    def test_unknown_fault_type_exit_one(self, tmp_path, capsys):
        assert run_cli("simulate", "--seed", "5", "--types", "NotAType",
                       "--out", str(tmp_path / "scenarios")) == 1
        assert capsys.readouterr().err == "error: 'NotAType' is not a valid FaultType\n"
        assert not (tmp_path / "scenarios").exists()

    def test_no_fault_type_exit_one(self, tmp_path, capsys):
        assert run_cli("simulate", "--seed", "5", "--types", ",",
                       "--out", str(tmp_path / "scenarios")) == 1
        assert capsys.readouterr().err == "error: at least one fault type must be allowed\n"
        assert not (tmp_path / "scenarios").exists()


class TestDiagnose:
    def test_golden_scenario_exit_zero(self, golden_dir, tmp_path, capsys):
        scenario = golden_dir / "scenarios" / "scn-01000-cpustress.yaml"
        script = golden_dir / "scripts" / "scn-01000-cpustress.yaml"
        transcript = tmp_path / "tr.jsonl"
        code = run_cli("diagnose", "--scenario", str(scenario), "--script", str(script),
                       "--kb", str(golden_dir / "kb"), "--out", str(transcript))
        assert code == 0
        out = capsys.readouterr().out
        assert "locations: frontend-0" in out and "types: CpuStress" in out
        assert transcript.exists()

    def test_an_ablated_diagnosis_writes_the_embedding_cache(self, tmp_path, capsys):
        # without SOP knowledge the episode matches through a memory-only view
        # of the knowledge base; diagnose still writes what it embedded
        corpus = tmp_path / "corpus"
        write_corpus(corpus, "sop_knowledge_off")
        cfg = tmp_path / "config.yaml"
        cfg.write_text("eval: {ablations: {sop_knowledge: false}}\n")
        name = "scn-01000-cpustress.yaml"
        cache = corpus / "kb" / "embedding_cache.json"
        assert not cache.exists()
        assert run_cli("diagnose", "--scenario", str(corpus / "scenarios" / name),
                       "--script", str(corpus / "scripts" / name), "--config", str(cfg),
                       "--kb", str(corpus / "kb")) == 0
        assert "locations: frontend-0" in capsys.readouterr().out
        assert json.loads(cache.read_text(encoding="utf-8"))

    def test_a_failed_cache_write_keeps_the_diagnosis(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        write_corpus(corpus, "default")
        name = "scn-01000-cpustress.yaml"

        def read_only(src, dst):
            raise OSError(errno.EROFS, "Read-only file system")

        monkeypatch.setattr(os, "replace", read_only)
        assert run_cli("diagnose", "--scenario", str(corpus / "scenarios" / name),
                       "--script", str(corpus / "scripts" / name),
                       "--kb", str(corpus / "kb")) == 0
        assert "locations: frontend-0" in capsys.readouterr().out
        # no cache file, and no temp file left behind
        assert sorted(p.name for p in (corpus / "kb").iterdir()) == ["incidents", "sops"]

    def test_empty_script_exit_one(self, golden_dir, tmp_path):
        scenario = golden_dir / "scenarios" / "scn-01000-cpustress.yaml"
        empty = tmp_path / "empty.yaml"
        empty.write_text("[]\n")
        assert run_cli("diagnose", "--scenario", str(scenario),
                       "--script", str(empty)) == 1

    def test_budget_exhaustion_exit_three(self, golden_dir, tmp_path):
        scenario = golden_dir / "scenarios" / "scn-01000-cpustress.yaml"
        script = tmp_path / "loop.yaml"
        script.write_text(yaml.safe_dump([
            {"match_key": "ROLE: orchestrator-thought", "response": "hmm"},
            {"match_key": "ROLE: action-proposer",
             "response": "ACTION: get_all_namespace() | look"},
            {"match_key": "ROLE: orchestrator-select", "response": "1"},
        ]))
        assert run_cli("diagnose", "--scenario", str(scenario), "--script", str(script),
                       "--max-steps", "1") == 3


class TestBenchmark:
    def test_golden_corpus_perfect_scores(self, golden_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("benchmark", "--corpus", str(golden_dir / "manifest.yaml"),
                       "--out", str(out))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "LA=1.000" in stdout and "TA=1.000" in stdout
        report = json.loads((out / "report.json").read_text())
        assert report["la"] == 1.0 and report["ta"] == 1.0 and report["apl"] == 5.0
        assert len(list((out / "transcripts").glob("*.jsonl"))) == 9

    def test_stdout_matches_report_aggregates(self, golden_dir, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("benchmark", "--corpus", str(golden_dir / "manifest.yaml"),
                "--out", str(out))
        stdout = capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert f"LA={report['la']:.4f}" in stdout
        assert f"APL={report['apl']:.4f}" in stdout

    def test_ablate_flag_echoed_in_report(self, golden_dir, tmp_path):
        out = tmp_path / "run"
        # ablated run with default-mode scripts will not complete; flag echo is
        # what this checks
        run_cli("benchmark", "--corpus", str(golden_dir / "manifest.yaml"),
                "--ablate", "sop_flow", "--out", str(out))
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["ablations"]["sop_flow"] is False

    def test_unknown_ablation_is_usage_error(self, golden_dir):
        # a property and a method of Ablations are not flags either
        for flag in ("gravity", "flow_rules_active", "as_dict"):
            assert run_cli("benchmark", "--corpus", str(golden_dir / "manifest.yaml"),
                           "--ablate", flag) == 2

    def test_config_kb_settings_reach_retrieval(self, golden_dir, tmp_path):
        # a negative threshold admits every incident, so match_observation
        # lists all three golden incidents instead of none
        cfg = tmp_path / "config.yaml"
        cfg.write_text("kb: {threshold: -1}\n")
        out = tmp_path / "run"
        assert run_cli("benchmark", "--corpus", str(golden_dir / "manifest.yaml"),
                       "--config", str(cfg), "--out", str(out)) == 0
        transcript = out / "transcripts" / "scn-01000-cpustress.jsonl"
        observations = [e["text"] for e in map(json.loads, transcript.read_text().splitlines())
                        if e["kind"] == "observation" and e["tool"] == "match_observation"]
        assert observations and observations[0].startswith("3 similar historical incidents")

    @pytest.mark.parametrize("section", ["detector: {k: .nan}",
                                         "detector: {baseline_lookback_samples: 0}",
                                         "eval: {sigma: .inf}",
                                         "eval: {max_steps: 0}",
                                         "eval: {action_set_size: 0}",
                                         "eval: {workers: 0}",
                                         "kb: {k: 0}",
                                         "kb: {threshold: .nan}"])
    def test_nonsense_config_exit_one_without_a_report(self, golden_dir, tmp_path, capsys,
                                                       section):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(section + "\n")
        out = tmp_path / "run"
        assert run_cli("benchmark", "--corpus", str(golden_dir / "manifest.yaml"),
                       "--config", str(cfg), "--out", str(out)) == 1
        assert "must be" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_missing_corpus_exit_one(self, tmp_path):
        assert run_cli("benchmark", "--corpus", str(tmp_path / "nope.yaml")) == 1


class TestQuickStart:
    def test_readme_quick_start(self, tmp_path, monkeypatch, capsys):
        # the README's quick start command for command, then its benchmark
        # again on two worker threads
        monkeypatch.chdir(tmp_path)
        assert golden.main(["--out", "./golden"]) == 0
        assert run_cli("diagnose", "--scenario", "golden/scenarios/scn-01000-cpustress.yaml",
                       "--script", "golden/scripts/scn-01000-cpustress.yaml",
                       "--kb", "golden/kb", "--out", "transcript.jsonl") == 0
        assert run_cli("transcript", "transcript.jsonl") == 0
        assert "outcome: completed after 5 steps" in capsys.readouterr().out
        assert run_cli("benchmark", "--corpus", "golden/manifest.yaml", "--out", "run/") == 0
        report = load_report("run/report.json")
        assert (report.la, report.ta, report.apl) == (1.0, 1.0, 5.0)

        assert run_cli("benchmark", "--corpus", "golden/manifest.yaml", "--out", "run2/",
                       "--workers", "2") == 0
        threaded = load_report("run2/report.json")
        assert threaded.config == {**report.config, "workers": 2}
        assert dataclasses.replace(threaded, config=report.config) == report

        def transcripts(run):
            return {p.name: p.read_bytes() for p in Path(run, "transcripts").glob("*.jsonl")}

        assert len(transcripts("run")) == 9
        assert transcripts("run2") == transcripts("run")
        assert Path("transcript.jsonl").read_bytes() \
            == transcripts("run")["scn-01000-cpustress.jsonl"]


class TestTranscriptAndUsage:
    def test_transcript_summary(self, golden_dir, tmp_path, capsys):
        scenario = golden_dir / "scenarios" / "scn-01002-podfailure.yaml"
        script = golden_dir / "scripts" / "scn-01002-podfailure.yaml"
        transcript = tmp_path / "tr.jsonl"
        run_cli("diagnose", "--scenario", str(scenario), "--script", str(script),
                "--kb", str(golden_dir / "kb"), "--out", str(transcript))
        capsys.readouterr()
        assert run_cli("transcript", str(transcript)) == 0
        out = capsys.readouterr().out
        assert "step 1: match_sop" in out and "outcome: completed" in out

    def test_transcript_missing_file(self, tmp_path):
        assert run_cli("transcript", str(tmp_path / "nope.jsonl")) == 1

    @pytest.mark.parametrize("record, complaint", [
        ('{"kind": "episode"}', "'episode' record has no key 'scenario'"),
        ("[1, 2]", "expected a JSON object"),
        ('{"kind": "chosen", "step": 0', "Expecting ',' delimiter"),
        ('{"kind": "chosen", "step": "0", "tool": "x"}', "malformed 'chosen' record: "),
    ])
    def test_malformed_record_names_file_and_line(self, tmp_path, capsys, record, complaint):
        transcript = tmp_path / "tr.jsonl"
        transcript.write_text('{"kind": "episode", "scenario": "scn-x"}\n\n' + record + "\n")
        assert run_cli("transcript", str(transcript)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {transcript}: line 3: ") and complaint in err

    def test_unknown_subcommand_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explode"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--seed", "1", "--out", "/tmp/x", "--warp", "9"])
        assert excinfo.value.code == 2
