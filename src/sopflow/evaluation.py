"""Benchmark harness: accuracy metrics, episode rows, and corpus runs.

Location accuracy and type accuracy penalize wrong predictions by a factor
sigma: LA = (correct - sigma * incorrect) / total, with the counts summed over
the whole corpus before dividing. Average path length covers only episodes
that completed a diagnosis within the step budget; aborted and
budget-exhausted runs are excluded from its denominator.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import schema
from .agents import (AgentConfig, EpisodeState, OUTCOME_ABORTED, OUTCOME_COMPLETED,
                     run_episode, write_transcript)
from .detector import DetectorConfig
from .errors import ConfigError, SopflowError, UndefinedMetricError, ValidationError
from .kb import KbSettings, KnowledgeBase
from .llm import BackendConfig, make_backend, scripted_config
from .sandbox import EpisodeScenario, load_scenario

DEFAULT_SIGMA = 0.1


@dataclass(frozen=True)
class EvalConfig(schema.Bounded):
    # a nan sigma gives LA=TA=nan, which a saved report cannot hold
    sigma: float = field(default=DEFAULT_SIGMA, metadata=schema.NON_NEGATIVE)
    workers: int = field(default=1, metadata=schema.POSITIVE_INT)
    # the eval: config section and the report's config record list the agent's
    # keys beside these
    agent: AgentConfig = field(default_factory=AgentConfig, metadata=schema.INLINE)


@dataclass
class EpisodeRow:
    scenario_id: str
    outcome: str
    predicted_locations: tuple[str, ...]
    predicted_types: tuple[str, ...]
    gt_locations: tuple[str, ...]
    gt_types: tuple[str, ...]
    loc_correct: int
    loc_incorrect: int
    type_correct: int
    type_incorrect: int
    path_length: int
    path: tuple[str, ...]

    @property
    def completed(self) -> bool:
        return self.outcome == OUTCOME_COMPLETED


def match_predictions(predicted: tuple[str, ...], truth: tuple[str, ...],
                      aliases: dict[str, str] | None = None) -> tuple[int, int]:
    """(correct, incorrect) under exact-id matching.

    Each ground-truth item can satisfy at most one prediction; predictions
    left unmatched count as incorrect. The optional alias table canonicalizes
    ids on both sides (e.g. a scenario declaring pod/service equivalence).
    """
    aliases = aliases or {}
    canon = lambda x: aliases.get(x, x)
    remaining = [canon(t) for t in truth]
    correct = incorrect = 0
    for pred in predicted:
        pred = canon(pred)
        if pred in remaining:
            remaining.remove(pred)
            correct += 1
        else:
            incorrect += 1
    return correct, incorrect


def build_row(scenario: EpisodeScenario, state: EpisodeState) -> EpisodeRow:
    diagnosis = state.diagnosis
    predicted_locations = diagnosis.locations if diagnosis else ()
    predicted_types = diagnosis.types if diagnosis else ()
    loc_c, loc_i = match_predictions(predicted_locations, scenario.ground_truth.locations,
                                     scenario.aliases)
    type_c, type_i = match_predictions(predicted_types, scenario.ground_truth.types,
                                       scenario.aliases)
    return EpisodeRow(
        scenario_id=scenario.id,
        outcome=state.outcome,
        predicted_locations=tuple(predicted_locations),
        predicted_types=tuple(predicted_types),
        gt_locations=scenario.ground_truth.locations,
        gt_types=scenario.ground_truth.types,
        loc_correct=loc_c, loc_incorrect=loc_i,
        type_correct=type_c, type_incorrect=type_i,
        path_length=len(state.path),
        path=state.path,
    )


def _accuracy(rows, sigma: float, correct_attr: str, incorrect_attr: str,
              truth_attr: str) -> float:
    rows = list(rows)
    correct = sum(getattr(r, correct_attr) for r in rows)
    incorrect = sum(getattr(r, incorrect_attr) for r in rows)
    total = sum(len(getattr(r, truth_attr)) for r in rows)
    if total == 0:
        raise UndefinedMetricError("total ground-truth count is zero")
    return (correct - sigma * incorrect) / total


def location_accuracy(rows, sigma: float = DEFAULT_SIGMA) -> float:
    return _accuracy(rows, sigma, "loc_correct", "loc_incorrect", "gt_locations")


def type_accuracy(rows, sigma: float = DEFAULT_SIGMA) -> float:
    return _accuracy(rows, sigma, "type_correct", "type_incorrect", "gt_types")


def average_path_length(rows) -> float | None:
    """Mean path length over completed diagnoses; None when there are none."""
    lengths = [r.path_length for r in rows if r.completed]
    if not lengths:
        return None
    return sum(lengths) / len(lengths)


def _aggregates(rows: list[EpisodeRow], sigma: float
                ) -> tuple[float | None, float | None, float | None, float | None]:
    """(LA, TA, their average, APL); an undefined metric is None."""
    la = ta = average = None
    try:
        la = location_accuracy(rows, sigma)
        ta = type_accuracy(rows, sigma)
        average = (la + ta) / 2.0
    except UndefinedMetricError:
        pass
    return la, ta, average, average_path_length(rows)


@dataclass
class BenchmarkReport:
    rows: list[EpisodeRow]
    la: float | None
    ta: float | None
    average: float | None
    apl: float | None
    sigma: float
    config: dict
    aborted: int = 0

    @classmethod
    def from_rows(cls, rows: list[EpisodeRow], eval_cfg: EvalConfig) -> "BenchmarkReport":
        la, ta, average, apl = _aggregates(rows, eval_cfg.sigma)
        return cls(
            rows=rows, la=la, ta=ta, average=average, apl=apl, sigma=eval_cfg.sigma,
            config=schema.to_mapping(eval_cfg),
            aborted=sum(1 for r in rows if r.outcome == OUTCOME_ABORTED),
        )


# -- corpus manifest -----------------------------------------------------------


@dataclass
class CorpusEntry:
    """One episode of a manifest; ``load_corpus`` resolves its paths against
    the manifest's directory."""

    scenario: str
    script: str | None = None  # scripted runs only


@dataclass
class Corpus:
    episodes: list[CorpusEntry] = field(default_factory=list)
    kb: str | None = None


def load_corpus(manifest_path: Path | str) -> Corpus:
    """Read a corpus manifest, with its paths resolved against the manifest's
    directory; unknown keys are a ``ConfigError``, and every error names the
    manifest."""
    manifest_path = Path(manifest_path)
    corpus = schema.read_yaml(manifest_path, Corpus)
    if not all(entry.scenario for entry in corpus.episodes):
        raise ConfigError(f"{manifest_path}: corpus entry missing 'scenario'")
    root = manifest_path.parent
    for entry in corpus.episodes:
        entry.scenario = str(root / entry.scenario)
        entry.script = str(root / entry.script) if entry.script else None
    corpus.kb = str(root / corpus.kb) if corpus.kb else None
    return corpus


def _read_entries(corpus: Corpus, backend_cfg: BackendConfig
                  ) -> list[tuple[EpisodeScenario, BackendConfig]]:
    """Each entry's scenario and backend config, read before any episode runs;
    an entry that cannot be read is a ``ConfigError`` naming it."""
    entries = []
    for number, entry in enumerate(corpus.episodes, 1):
        try:
            scenario = load_scenario(entry.scenario)
            cfg = backend_cfg
            if entry.script is not None:
                cfg = scripted_config(entry.script, backend_cfg)
        except (OSError, ValueError, TypeError, SopflowError) as exc:
            raise ConfigError(f"corpus entry {number} (scenario {entry.scenario}): "
                              f"{exc}") from exc
        entries.append((scenario, cfg))
    return entries


def run_benchmark(corpus: Corpus, eval_cfg: EvalConfig, backend_cfg: BackendConfig,
                  detector: DetectorConfig | None = None,
                  transcript_dir: Path | str | None = None,
                  kb_settings: KbSettings = KbSettings()) -> BenchmarkReport:
    """Run every scenario in the corpus once and aggregate the rows.

    Every entry is read first, so a bad one fails the run before any episode.
    Each episode gets a view of the knowledge base (``clone_in_memory``): its
    own documents, so generated procedures never leak across episodes or runs,
    and the run's shared embedding cache, so each distinct text is embedded
    once, inside the first episode that needs it. After the last episode the
    run writes the texts it embedded to the knowledge base's cache file, once,
    so a rerun over the same knowledge base and backend embeds none of them
    again; if that write fails, the file stays as it was and the run still
    returns its report. Each episode also gets (for scripted backends) its own
    backend instance. An episode's transcript is written and its row built as
    soon as it ends, and only the row is kept, so a run holds at most
    ``workers`` episodes' events at once. Per-episode aborts, including
    unexpected errors, become rows, never run failures.
    """
    entries = _read_entries(corpus, backend_cfg)
    kb_master = KnowledgeBase(make_backend(backend_cfg), root=corpus.kb, settings=kb_settings)

    if transcript_dir is not None:
        out = Path(transcript_dir)
        out.mkdir(parents=True, exist_ok=True)

    def _run(entry: tuple[EpisodeScenario, BackendConfig]) -> EpisodeRow:
        scenario, cfg = entry
        state = run_episode(scenario, eval_cfg.agent, make_backend(cfg),
                            kb_master.clone_in_memory(), detector)
        if transcript_dir is not None:
            write_transcript(state, out / f"{scenario.id}.jsonl")
        return build_row(scenario, state)

    if eval_cfg.workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=eval_cfg.workers) as pool:
            rows = list(pool.map(_run, entries))
    else:  # on the calling thread, so a per-thread span stack sees the nesting
        rows = [_run(entry) for entry in entries]
    kb_master.save_cache()
    return BenchmarkReport.from_rows(rows, eval_cfg)


# -- report files ----------------------------------------------------------------


def save_report(report: BenchmarkReport, path: Path | str) -> None:
    """Write the report atomically: a reader sees the old file or the new one."""
    schema.write_atomic(path, json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")


def load_report(path: Path | str) -> BenchmarkReport:
    """Load a serialized report, recomputing the aggregates as a consistency
    check; its config record must read as an ``EvalConfig``. Every error
    names the file."""
    report = schema.from_mapping(BenchmarkReport, schema.read_json(path), str(path))
    schema.from_mapping(EvalConfig, report.config, f"{path}.config")
    stored = (report.la, report.ta, report.average, report.apl)
    if not all(map(_same, stored, _aggregates(report.rows, report.sigma))):
        raise ValidationError(f"{path}: report aggregates do not match its rows")
    return report


def _same(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= 1e-12


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def report_table(report: BenchmarkReport) -> str:
    """Human-readable summary table."""
    lines = [
        f"episodes: {len(report.rows)}  aborted: {report.aborted}",
        f"LA={_fmt(report.la)} TA={_fmt(report.ta)} "
        f"Average={_fmt(report.average)} APL={_fmt(report.apl)}",
        "",
        f"{'SCENARIO':<32} {'OUTCOME':<17} {'PRED_LOC':<24} {'PRED_TYPE':<18} PATH",
    ]
    for row in report.rows:
        lines.append(
            f"{row.scenario_id:<32} {row.outcome:<17} "
            f"{','.join(row.predicted_locations) or '-':<24} "
            f"{','.join(row.predicted_types) or '-':<18} {row.path_length}"
        )
    return "\n".join(lines)
