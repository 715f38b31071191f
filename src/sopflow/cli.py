"""Operator command line: manage the knowledge base, generate scenario corpora,
run single diagnoses, run benchmarks, and inspect transcripts.

Exit codes: 0 success, 1 failure or aborted episode, 2 usage error,
3 diagnosis hit the step budget without concluding.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import schema
from .agents import OUTCOME_ABORTED, OUTCOME_BUDGET, OUTCOME_COMPLETED, run_episode, write_transcript
from .config import AppConfig, load_config
from .errors import ConfigError, SopflowError
from .evaluation import load_corpus, report_table, run_benchmark, save_report
from .kb import HistoricalIncident, KnowledgeBase, SopDoc
from .llm import make_backend, scripted_config
from .sandbox import FaultType, ScenarioConfig, generate_corpus, load_scenario, save_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sopflow",
                                     description="SOP-driven incident diagnosis engine")
    sub = parser.add_subparsers(dest="command", required=True)

    kb = sub.add_parser("kb", help="manage the knowledge base")
    kb_sub = kb.add_subparsers(dest="kb_command", required=True)
    kb_add = kb_sub.add_parser("add", help="validate and store a document")
    kb_add.add_argument("--file", required=True, help="YAML document to add")
    kb_add.add_argument("--kind", choices=("sop", "incident"), default="sop")
    kb_add.add_argument("--kb", required=True, help="knowledge base directory")
    kb_add.add_argument("--config", default=None)
    kb_list = kb_sub.add_parser("list", help="list stored documents")
    kb_list.add_argument("--kb", required=True)
    kb_list.add_argument("--config", default=None)
    kb_match = kb_sub.add_parser("match", help="retrieve documents for a query")
    kb_match.add_argument("--kb", required=True)
    kb_match.add_argument("--query", required=True)
    kb_match.add_argument("--k", type=int, default=None)
    kb_match.add_argument("--threshold", type=float, default=None)
    kb_match.add_argument("--kind", choices=("sop", "incident"), default="sop")
    kb_match.add_argument("--config", default=None)

    sim = sub.add_parser("simulate", help="generate fault scenarios")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--count", type=int, default=1)
    sim.add_argument("--types", default="all",
                     help="comma-separated fault types, or 'all'")
    sim.add_argument("--topology", default="online-boutique")
    sim.add_argument("--out", required=True, help="output directory")

    diag = sub.add_parser("diagnose", help="run one diagnosis episode")
    diag.add_argument("--scenario", required=True)
    diag.add_argument("--config", default=None)
    diag.add_argument("--script", default=None, help="scripted backend replies (YAML)")
    diag.add_argument("--kb", default=None, help="knowledge base directory")
    diag.add_argument("--max-steps", type=int, default=None)
    diag.add_argument("--out", default=None, help="transcript output path")

    bench = sub.add_parser("benchmark", help="run a scenario corpus")
    bench.add_argument("--corpus", required=True, help="corpus manifest file")
    bench.add_argument("--config", default=None)
    bench.add_argument("--ablate", default="",
                       help="comma-separated mechanism flags to disable")
    bench.add_argument("--workers", type=int, default=None)
    bench.add_argument("--out", default=None, help="output directory for report and transcripts")

    tr = sub.add_parser("transcript", help="summarize a transcript file")
    tr.add_argument("path")
    return parser


def _open_kb(app: AppConfig, backend, kb_dir: str | None) -> KnowledgeBase:
    """The knowledge base in ``kb_dir``, or a memory-only one without it."""
    return KnowledgeBase(backend, root=kb_dir, k=app.kb.k, threshold=app.kb.threshold)


def _cmd_kb(args) -> int:
    app = load_config(args.config)
    kb = _open_kb(app, make_backend(app.backend), args.kb)
    if args.kb_command == "list":
        sops = kb.list_sops()
        incidents = kb.list_incidents()
        print(f"{len(sops)} SOPs, {len(incidents)} incidents")
        for doc in sops:
            print(f"  sop {doc.id}: {doc.name} (level {doc.level}, {len(doc.steps)} steps)")
        for inc in incidents:
            print(f"  incident {inc.id}: [{inc.fault_type}] {inc.manifestation[:60]}")
        return 0
    if args.kb_command == "add":
        if args.kind == "sop":
            kb.add_sop(schema.read_yaml(args.file, SopDoc))
        else:
            kb.add_incident(schema.read_yaml(args.file, HistoricalIncident))
        print(f"added {args.kind} from {args.file}")
        return 0
    # match
    if args.kind == "sop":
        matches = kb.match_sop(args.query, k=args.k, threshold=args.threshold)
        for doc, score in matches:
            print(f"{score:.6f}  {doc.id}  {doc.name}")
    else:
        matches = kb.match_observation(args.query, k=args.k, threshold=args.threshold)
        for inc, score in matches:
            print(f"{score:.6f}  {inc.id}  [{inc.fault_type}] {inc.manifestation[:60]}")
    if not matches:
        print("no matches")
    kb.save_cache()
    return 0


def _cmd_simulate(args) -> int:
    if args.types.strip().lower() == "all":
        types = tuple(FaultType)
    else:
        types = tuple(FaultType(t.strip()) for t in args.types.split(",") if t.strip())
    config = ScenarioConfig(topology=args.topology, fault_types=types)
    scenarios = generate_corpus(args.seed, args.count, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for scenario in scenarios:
        save_scenario(scenario, out / f"{scenario.id}.yaml")
        print(f"wrote {out / (scenario.id + '.yaml')}")
    return 0


def _cmd_diagnose(args) -> int:
    app = load_config(args.config)
    scenario = load_scenario(args.scenario)
    backend_cfg = scripted_config(args.script, app.backend) if args.script else app.backend
    backend = make_backend(backend_cfg)
    kb = _open_kb(app, backend, args.kb or None)
    agent_cfg = app.eval.agent
    if args.max_steps is not None:
        agent_cfg.max_steps = args.max_steps
    state = run_episode(scenario, agent_cfg, backend, kb, app.detector)
    kb.save_cache()
    if args.out:
        write_transcript(state, args.out)
    print(f"outcome: {state.outcome} ({state.step_count} steps)")
    if state.diagnosis is not None:
        d = state.diagnosis
        print(f"locations: {', '.join(d.locations)}")
        print(f"types: {', '.join(d.types)}")
        print(f"explanation: {d.explanation}")
        print(f"path: {' -> '.join(state.path)}")
    elif state.outcome == OUTCOME_ABORTED:
        print(f"abort reason: {state.abort_reason}")
    if state.outcome == OUTCOME_COMPLETED:
        return 0
    if state.outcome == OUTCOME_BUDGET:
        return 3
    return 1


def _cmd_benchmark(args) -> int:
    app = load_config(args.config)
    eval_cfg = app.eval
    flags = {f.name for f in fields(eval_cfg.agent.ablations)}
    for flag in (f.strip() for f in args.ablate.split(",") if f.strip()):
        if flag not in flags:
            print(f"unknown ablation flag {flag!r}", file=sys.stderr)
            return 2
        setattr(eval_cfg.agent.ablations, flag, False)
    if args.workers is not None:
        eval_cfg.workers = args.workers
    corpus = load_corpus(args.corpus)
    transcript_dir = Path(args.out) / "transcripts" if args.out else None
    report = run_benchmark(corpus, eval_cfg, app.backend, app.detector, transcript_dir, app.kb)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_report(report, out / "report.json")
    print(report_table(report))
    return 1 if report.aborted else 0


def _cmd_transcript(args) -> int:
    for number, event in schema.read_jsonl(args.path):
        kind = event.get("kind")
        try:
            _print_event(kind, event)
        except KeyError as exc:
            raise ConfigError(f"{args.path}: line {number}: {kind!r} record "
                              f"has no key {exc}") from exc
        except TypeError as exc:
            raise ConfigError(f"{args.path}: line {number}: malformed {kind!r} "
                              f"record: {exc}") from exc
    return 0


def _print_event(kind, event: dict) -> None:
    if kind == "episode":
        print(f"scenario: {event['scenario']}")
    elif kind == "chosen":
        flag = " (fallback)" if event.get("fallback") else ""
        print(f"step {event['step'] + 1}: {event['tool']}{flag}")
    elif kind == "verdict":
        print(f"  judge: {'FOUND' if event['found'] else 'NOT FOUND'} - "
              f"{event['summary']}")
    elif kind == "termination":
        print(f"outcome: {event['outcome']} after {event['steps']} steps")
        if event.get("diagnosis"):
            d = event["diagnosis"]
            print(f"  locations: {', '.join(d['locations'])}")
            print(f"  types: {', '.join(d['types'])}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "kb":
            return _cmd_kb(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        if args.command == "benchmark":
            return _cmd_benchmark(args)
        return _cmd_transcript(args)
    except (SopflowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
