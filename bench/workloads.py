"""The three workloads, their timed loop and the correctness gate.

Every workload is a closed loop with one client (``workers=1``, the config
default) that calls ``sopflow.evaluation.run_benchmark``, the path
``sopflow benchmark`` takes. A pass runs the workload's corpus once; passes
repeat until the run's seconds are spent, and at least twice.

- ``offline-distinct``: generated scenarios, fault types round-robin, each
  with its oracle script on the scripted backend. Every pass generates new
  scenarios, so no scenario repeats within a process.
- ``offline-ablations``: the nine golden scenarios under all seven
  ``golden.MODES``, each mode with its ablation flags and its own scripts.
  Each scenario is rendered seven times per pass.
- ``live-latency``: scenarios of the ``offline-distinct`` kind run through
  ``RemoteBackend`` against ``stub.py`` on 127.0.0.1, which replays each
  episode's script and delays every request by a fixed time.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

from sopflow import evaluation, golden
from sopflow.agents import Ablations, AgentConfig
from sopflow.evaluation import EvalConfig, load_corpus
from sopflow.llm import BackendConfig

import calibration
import corpus as corpora
import spans

DISTINCT_SCENARIOS = 18     # per pass: two of each of the nine fault types
LIVE_SCENARIOS = 9           # per pass: one of each fault type
# injected into every stub request. At 20 ms a live episode takes about 840 ms,
# 80% of it in backend calls and 19% in sandbox and detector (2 cores,
# Python 3.11), so round trips, not our own compute, set its time.
LIVE_DELAY_MS = 20.0
REPEAT_CHECK_EPISODES = 9   # offline-distinct re-runs one scenario per fault type
SETUP_REPEATS = 5
# The highest percentile that keeps at least ten samples beyond it at seed
# speed; fixed per workload so that runs compare the same statistic.
TAIL_PERCENTILE = {"offline-distinct": 90, "offline-ablations": 90, "live-latency": 70}
STUB_KEY_ENV = "SOPFLOW_API_KEY"
# End-to-end metrics and their units. ``failed_frac`` is printed
# beside ``completed_frac`` (= 1 - failed_frac), which is never 0.
END_TO_END = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "episode_ms.p50": "ms",
    "episode_ms.tail": "ms",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
}

# Times the import of sopflow in a fresh interpreter, scaled by calibration
# loops run in that interpreter just before and after it.
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import calibration\n"
    "before = calibration.speed_s()\n"
    "start = time.perf_counter()\n"
    "import sopflow.evaluation, sopflow.golden\n"
    "elapsed = time.perf_counter() - start\n"
    "after = calibration.speed_s()\n"
    "print(elapsed, calibration.scale(elapsed, (before + after) / 2))\n"
)


@dataclass
class Job:
    """One ``run_benchmark`` call of a pass."""

    mode: str
    corpus: corpora.Corpus
    eval_cfg: EvalConfig
    backend_cfg: BackendConfig


@dataclass
class JobRun:
    pass_index: int
    traced: bool
    job: Job
    transcripts: Path
    wall_s: float
    episode_s: list[float]
    cpu_s: list[float]        # CPU time of the client thread in each episode
    # calibration times: one before each episode and one after the call
    reference_s: list[float]
    report: evaluation.BenchmarkReport | None
    span_range: tuple[int, int] = (0, 0)


@dataclass
class Outcome:
    """What one benchmark process measured and checked."""

    workload: str
    setup_samples: list[tuple[float, float]]  # (unscaled, scaled) seconds
    runs: list[JobRun]
    failures: list[str]
    stub_stats: dict[int, dict] = field(default_factory=dict)


class EpisodeTimer:
    """Thin timer around the ``run_episode`` name ``sopflow.evaluation`` calls.

    It records each episode's wall time and the CPU time of its thread. With
    ``calibrate`` it also times ``calibration.loop`` before every episode,
    outside the episode's interval, and ``_run_job`` once after each call, so
    that compute time can be scaled to the reference host speed (see
    ``scaled_times``).
    """

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.episodes: list[float] = []
        self.cpu: list[float] = []
        self.reference: list[float] = []
        self._original = None

    def calibrate_now(self) -> None:
        if self.calibrate:
            self.reference.append(calibration.timed_loop())

    def install(self) -> None:
        original = self._original = evaluation.run_episode

        def timed(*args, **kwargs):
            self.calibrate_now()
            start, cpu = perf_counter(), thread_time()
            try:
                return original(*args, **kwargs)
            finally:
                self.episodes.append(perf_counter() - start)
                self.cpu.append(thread_time() - cpu)

        evaluation.run_episode = timed

    def uninstall(self) -> None:
        evaluation.run_episode = self._original


def _agent_config(mode: str) -> AgentConfig:
    ablations = Ablations()
    if mode != "default":
        setattr(ablations, mode[: -len("_off")], False)
    return AgentConfig(ablations=ablations)


def _generator_seed(seed: int, pass_index: int) -> int:
    return seed * 1000 + pass_index


class Workload:
    name = ""
    min_passes = 2

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def prepare(self, index: int) -> None:
        """One set-up: write a corpus into a fresh directory (and, live, start
        a stub). Timed as part of ``setup_s``."""
        raise NotImplementedError

    def jobs(self, pass_index: int) -> list[Job]:
        raise NotImplementedError

    def before_pass(self, pass_index: int) -> None:
        pass

    def after_pass(self, pass_index: int) -> dict | None:
        return None

    def check_repeats(self, runs: list[JobRun], rerun) -> list[str]:
        """Failures of the byte-identical transcript checks. ``rerun(corpus,
        name)`` runs a corpus untimed on the scripted backend and returns its
        transcripts."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class DistinctWorkload(Workload):
    name = "offline-distinct"
    scenarios = DISTINCT_SCENARIOS

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.passes: dict[int, tuple[corpora.Corpus, corpora.Corpus]] = {}

    def prepare(self, index: int) -> None:
        self._corpus(index)

    def _corpus(self, pass_index: int) -> tuple[corpora.Corpus, corpora.Corpus]:
        if pass_index not in self.passes:
            self.passes[pass_index] = corpora.write_generated(
                self.work / "corpus" / f"p{pass_index}",
                _generator_seed(self.seed, pass_index), self.scenarios)
        return self.passes[pass_index]

    def jobs(self, pass_index: int) -> list[Job]:
        scripted, _ = self._corpus(pass_index)
        return [Job("default", scripted, EvalConfig(), BackendConfig())]

    def check_repeats(self, runs: list[JobRun], rerun) -> list[str]:
        # scenarios never repeat in the timed loop: re-run one of each fault type
        first = runs[0]
        subset = corpora.write_subset(self.passes[first.pass_index][0],
                                      self.work / "subset", REPEAT_CHECK_EPISODES)
        if _differs(first.transcripts, rerun(subset, "subset")):
            return ["pass 0: transcripts differ on a repeated run"]
        return []


class AblationWorkload(Workload):
    name = "offline-ablations"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.modes: dict[str, corpora.Corpus] | None = None

    def prepare(self, index: int) -> None:
        modes = corpora.write_golden_modes(self.work / "corpus" / f"s{index}")
        if self.modes is None:
            self.modes = modes

    def jobs(self, pass_index: int) -> list[Job]:
        return [Job(mode, corpus, EvalConfig(agent=_agent_config(mode)), BackendConfig())
                for mode, corpus in self.modes.items()]

    def check_repeats(self, runs: list[JobRun], rerun) -> list[str]:
        first = {}
        failures = []
        for job_run in runs:
            texts = _read_transcripts(job_run.transcripts)
            mode = job_run.job.mode
            if first.setdefault(mode, texts) != texts:
                failures.append(f"pass {job_run.pass_index} mode {mode}: transcripts "
                                "differ from pass 0")
        return failures


class LiveWorkload(DistinctWorkload):
    name = "live-latency"
    scenarios = LIVE_SCENARIOS
    min_passes = 4  # 36 episodes: p70 keeps 10 beyond it

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.stub: subprocess.Popen | None = None
        self.url = ""

    def prepare(self, index: int) -> None:
        super().prepare(index)
        old = self.stub
        env = {k: v for k, v in os.environ.items() if k != STUB_KEY_ENV}
        self.stub = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub.py")),
             "--delay-ms", str(LIVE_DELAY_MS)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        line = self.stub.stdout.readline()
        if not line.startswith("port "):
            raise RuntimeError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        if old is not None:
            _stop(old)

    def _control(self, path: str, body: dict | None = None) -> dict:
        data = None if body is None else json.dumps(body).encode("utf-8")
        with urllib.request.urlopen(self.url + path, data=data, timeout=30) as response:
            return json.loads(response.read())

    def jobs(self, pass_index: int) -> list[Job]:
        _, remote = self._corpus(pass_index)
        backend_cfg = BackendConfig(backend_kind="remote", endpoint=self.url, model="stub",
                                    credential_env=STUB_KEY_ENV)
        return [Job("default", remote, EvalConfig(), backend_cfg)]

    def before_pass(self, pass_index: int) -> None:
        _, remote = self._corpus(pass_index)
        self._control("/control/reset", {"scripts": str(remote.scripts_dir)})
        self._control("/control/stats")  # drop anything counted before the pass

    def after_pass(self, pass_index: int) -> dict:
        stats = self._control("/control/stats")
        return {
            "requests": sum(stats["requests"].values()),
            "completions": stats["requests"]["/chat/completions"],
            "embeddings": stats["requests"]["/embeddings"],
            "connections": stats["connections"],
            "serial_round_trips": spans.serial_round_trips(stats["intervals"]),
            "delay_ms": stats["delay_s"] * 1000.0,
        }

    def check_repeats(self, runs: list[JobRun], rerun) -> list[str]:
        failures = []
        for job_run in {runs[0].pass_index: runs[0], runs[-1].pass_index: runs[-1]}.values():
            scripted, _ = self.passes[job_run.pass_index]
            if _differs(job_run.transcripts, rerun(scripted, f"p{job_run.pass_index}")):
                failures.append(f"pass {job_run.pass_index}: live transcripts differ from "
                                "scripted ones")
        return failures

    def close(self) -> None:
        if self.stub is not None:
            _stop(self.stub)
            self.stub = None


def _stop(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)
    if process.stdout is not None:
        process.stdout.close()


WORKLOADS = {cls.name: cls for cls in (DistinctWorkload, AblationWorkload, LiveWorkload)}


def _import_seconds(src: Path) -> tuple[float, float]:
    """Import time of sopflow in a fresh interpreter: (unscaled, scaled)."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(Path(__file__).parent), str(src)],
        capture_output=True, text=True, check=True, timeout=120)
    unscaled, scaled = out.stdout.split()
    return float(unscaled), float(scaled)


def _read_transcripts(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.jsonl"))}


def _run_job(job: Job, pass_index: int, traced: bool, work: Path,
             timer: EpisodeTimer) -> JobRun:
    manifest = load_corpus(job.corpus.manifest)
    transcripts = work / "transcripts" / f"p{pass_index}" / job.mode
    episodes, references = len(timer.episodes), len(timer.reference)
    start = perf_counter()
    try:
        report = evaluation.run_benchmark(manifest, job.eval_cfg, job.backend_cfg,
                                          transcript_dir=transcripts)
    except Exception:  # a lost run is counted as failed episodes, not a crash
        traceback.print_exc(file=sys.stderr)
        report = None
    wall = perf_counter() - start
    timer.calibrate_now()
    return JobRun(pass_index, traced, job, transcripts, wall, timer.episodes[episodes:],
                  timer.cpu[episodes:], timer.reference[references:], report)


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path,
        src: Path, recorder: "spans.Recorder | None") -> Outcome:
    """Set up, run the timed loop and check every output."""
    workload = WORKLOADS[workload_name](work, seed)
    # traced runs report no end-to-end times, and a calibration inside
    # run_episode would skew its span
    timer = EpisodeTimer(calibrate=not trace)
    try:
        setup_samples = []  # (unscaled, scaled) seconds
        for index in range(SETUP_REPEATS):
            import_s, import_scaled = _import_seconds(src)
            before = calibration.speed_s()
            start = perf_counter()
            workload.prepare(index)
            prepare_s = perf_counter() - start
            speed = (before + calibration.speed_s()) / 2
            setup_samples.append((import_s + prepare_s,
                                  import_scaled + calibration.scale(prepare_s, speed)))

        runs: list[JobRun] = []
        stub_stats: dict[int, dict] = {}
        timer.install()
        loop_start = perf_counter()
        pass_index = 0
        while pass_index < workload.min_passes or perf_counter() - loop_start < seconds:
            traced = trace and pass_index % 2 == 1
            jobs = workload.jobs(pass_index)
            workload.before_pass(pass_index)
            if traced:
                recorder.install()
            for job in jobs:
                lo = recorder.mark() if traced else 0
                job_run = _run_job(job, pass_index, traced, work, timer)
                if traced:
                    job_run.span_range = (lo, recorder.mark())
                runs.append(job_run)
            if traced:
                recorder.uninstall()
            stats = workload.after_pass(pass_index)
            if stats is not None:
                stub_stats[pass_index] = stats
            pass_index += 1
        timer.uninstall()

        failures = _check_reports(runs) + workload.check_repeats(
            runs, lambda corpus, where: _rerun_scripted(corpus, work / "recheck" / where))
    finally:
        workload.close()
    return Outcome(workload_name, setup_samples, runs, failures, stub_stats)


# -- correctness gate -----------------------------------------------------------


def _check_reports(runs: list[JobRun]) -> list[str]:
    """LA = TA = 1.0, the action paths ``golden.expected_path`` predicts, and
    every corpus episode timed, in every ``run_benchmark`` call."""
    failures = []
    expected: dict[tuple[str, str], tuple[str, ...]] = {}
    for job_run in runs:
        where = f"pass {job_run.pass_index} mode {job_run.job.mode}"
        scenarios = job_run.job.corpus.scenarios
        report = job_run.report
        if len(job_run.episode_s) != len(scenarios):
            failures.append(f"{where}: {len(job_run.episode_s)} timed episodes, "
                            f"corpus has {len(scenarios)}")
        if report is None:
            failures.append(f"{where}: run_benchmark raised")
            continue
        if report.la != 1.0 or report.ta != 1.0:
            failures.append(f"{where}: LA={report.la} TA={report.ta}, expected 1.0")
        paths = []
        for scenario in scenarios:
            key = (scenario.id, job_run.job.mode)
            if key not in expected:
                expected[key] = golden.expected_path(scenario, job_run.job.mode)
            paths.append(expected[key])
        if [row.path for row in report.rows] != paths:
            failures.append(f"{where}: action paths differ from golden.expected_path")
        apl = sum(len(p) for p in paths) / len(paths)
        if report.apl != apl:
            failures.append(f"{where}: APL={report.apl}, expected {apl}")
    return failures


def _rerun_scripted(corpus: corpora.Corpus, work: Path) -> dict[str, bytes]:
    """Transcripts of an untimed scripted run of ``corpus``; empty if it fails."""
    try:
        report = evaluation.run_benchmark(load_corpus(corpus.manifest), EvalConfig(),
                                          BackendConfig(), transcript_dir=work / "transcripts")
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return {}
    if len(report.rows) != len(corpus.scenarios):
        return {}
    return _read_transcripts(work / "transcripts")


def _differs(measured: Path, reference: dict[str, bytes]) -> bool:
    texts = _read_transcripts(measured)
    return not reference or any(texts.get(name) != text for name, text in reference.items())


# -- end-to-end metrics ----------------------------------------------------------


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def scaled_times(job_runs: list[JobRun]) -> tuple[list[float], float]:
    """Episode times and ``run_benchmark`` wall time of one pass, in seconds
    scaled to the reference host speed; unscaled without calibration.

    An episode's compute time (its thread's CPU time) is scaled by the mean
    of the calibration loops just before and just after it, which bracket
    it in time; the rest of its wall time, spent waiting, is kept as
    measured. The wall time outside episodes is scaled by the pass's median
    calibration, and the calibration loops themselves are left out of it.
    """
    references = [r for job_run in job_runs for r in job_run.reference_s]
    wall = sum(job_run.wall_s - sum(job_run.reference_s[:-1]) for job_run in job_runs)
    if not references:
        return [e for job_run in job_runs for e in job_run.episode_s], wall
    episodes = []
    for job_run in job_runs:
        refs = job_run.reference_s
        for episode, cpu, before, after in zip(job_run.episode_s, job_run.cpu_s, refs, refs[1:]):
            waiting = max(0.0, episode - cpu)
            episodes.append(waiting + calibration.scale(episode - waiting, (before + after) / 2))
    outside = wall - sum(e for job_run in job_runs for e in job_run.episode_s)
    return episodes, sum(episodes) + calibration.scale(outside, statistics.median(references))


def end_to_end(outcome: Outcome) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run and their printed lines."""
    untraced = [r for r in outcome.runs if not r.traced]
    attempted = sum(len(r.job.corpus.scenarios) for r in untraced)
    failed = failed_episodes(untraced)
    samples, wall = [], 0.0
    for index in sorted({r.pass_index for r in untraced}):
        episodes, pass_wall = scaled_times([r for r in untraced if r.pass_index == index])
        samples.extend(e * 1000.0 for e in episodes)
        wall += pass_wall
    samples.sort()
    raw = sorted(e * 1000.0 for r in untraced for e in r.episode_s)
    pct = TAIL_PERCENTILE[outcome.workload]
    tail, beyond = percentile(samples, pct)
    values = {
        "setup_s": statistics.median(scaled for _, scaled in outcome.setup_samples),
        "episodes_per_s": attempted / wall,
        "episode_ms.p50": statistics.median(samples),
        "episode_ms.tail": tail,
        "completed_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    references = [r * 1000.0 for job_run in untraced for r in job_run.reference_s]
    scaled_to = f"scaled to a {calibration.REFERENCE_MS} ms calibration loop; unscaled "
    scale = scaled_to if references else ""
    notes = {
        "setup_s": f"median of {len(outcome.setup_samples)} set-ups, {scaled_to}"
                   f"{statistics.median(unscaled for unscaled, _ in outcome.setup_samples):.4f}",
        "episodes_per_s": f"{attempted} episodes, {scale}"
                          f"{attempted / sum(r.wall_s for r in untraced):.4f}",
        "episode_ms.p50": f"{len(samples)} samples, {scale}{statistics.median(raw):.4f}",
        "episode_ms.tail": f"p{pct} of {len(samples)} samples, {beyond} beyond it, "
                           f"{scale}{percentile(raw, pct)[0]:.4f}",
        "completed_frac": f"failed_frac = {failed / attempted:.4f} ({failed}/{attempted})",
        "peak_rss_mb": "peak RSS of this process",
    }
    lines = [f"{outcome.workload:<18} {name:<16} = {value:12.4f} {END_TO_END[name]:<6} "
             f"({notes[name]})" for name, value in values.items()]
    if references:
        lines.append(f"host speed: calibration loop median {statistics.median(references):.4f} "
                     f"ms over {len(references)} runs, reference {calibration.REFERENCE_MS} ms")
    return {name: {"value": value, "unit": END_TO_END[name]}
            for name, value in values.items()}, lines


def failed_episodes(runs: list[JobRun]) -> int:
    """Episodes aborted, out of budget, or lost to an exception out of run_benchmark."""
    failed = 0
    for job_run in runs:
        size = len(job_run.job.corpus.scenarios)
        if job_run.report is None:
            failed += size
        else:
            failed += sum(1 for row in job_run.report.rows if not row.completed)
            failed += size - len(job_run.report.rows)
    return failed


# -- per-layer metrics and counters ---------------------------------------------------


def per_layer(outcome: Outcome, recorder: "spans.Recorder") -> tuple[dict, list[str]]:
    """Per-episode layer metrics over the traced passes and their printed
    lines, which start with the exact counters of the first traced pass."""
    traced = [r for r in outcome.runs if r.traced]
    untraced = [r for r in outcome.runs if not r.traced]
    episodes = sum(len(r.job.corpus.scenarios) for r in traced)
    transcripts = Counter()
    for job_run in traced:
        transcripts.update(spans.transcript_counts(job_run.transcripts))
    traced_passes = sorted({r.pass_index for r in traced})
    stub = None
    if outcome.stub_stats:
        stub = Counter()
        for index in traced_passes:
            stats = outcome.stub_stats[index]
            for key in ("requests", "connections", "serial_round_trips"):
                stub[key] += stats[key]
            stub["delay_ms"] = stats["delay_ms"]

    def mean_wall_ms(job_runs):
        n = sum(len(r.job.corpus.scenarios) for r in job_runs)
        return sum(r.wall_s for r in job_runs) * 1000.0 / n

    pass_ranges = []
    for index in traced_passes:
        job_runs = [r for r in traced if r.pass_index == index]
        pass_ranges.append((job_runs[0].span_range[0], job_runs[-1].span_range[1]))
    metrics = spans.layer_metrics(
        recorder.spans, pass_ranges, episodes, transcripts, stub,
        mean_wall_ms(untraced), mean_wall_ms(traced))
    lines = [f"counters (exact, traced pass {traced_passes[0]}):",
             json.dumps(counters(outcome, recorder, traced_passes[0]), indent=2, sort_keys=True),
             f"timings and counts per episode over {episodes} traced episodes:"]
    lines += [f"  {name:<44} {value:14.4f} {spans.unit(name)}" for name, value in metrics.items()]
    # the regime: waiting on the backend versus the sandbox's own compute
    wall_ms = mean_wall_ms(traced)
    backend_ms = metrics["llm.complete.ms"] + metrics["llm.embed.ms"]
    sandbox_ms = sum(metrics[name] for name in (
        "sandbox.render_alert.ms", "sandbox.render_telemetry.ms", "sandbox.load_scenario.ms",
        "detector.evaluate_series.ms"))
    lines.append(f"share of {wall_ms:.1f} ms traced wall time per episode: backend calls "
                 f"{backend_ms / wall_ms:.1%}, sandbox and detector self time "
                 f"{sandbox_ms / wall_ms:.1%}")
    return {name: {"value": value, "unit": spans.unit(name)}
            for name, value in metrics.items()}, lines


def counters(outcome: Outcome, recorder: "spans.Recorder", pass_index: int) -> dict:
    """Exact counts over one traced pass; they repeat between runs of one seed."""
    job_runs = [r for r in outcome.runs if r.pass_index == pass_index]
    lo, hi = job_runs[0].span_range[0], job_runs[-1].span_range[1]
    window = spans.span_counts(recorder.spans, lo, hi)
    transcripts = Counter()
    for job_run in job_runs:
        transcripts.update(spans.transcript_counts(job_run.transcripts))
    calls = window["calls"]
    episodes = sum(len(r.job.corpus.scenarios) for r in job_runs)
    out = {
        "pass": pass_index,
        "episodes": episodes,
        "llm.complete.calls": window["llm.complete.calls"],
        "llm.complete.calls_per_episode": calls.get("llm.complete", 0) / episodes,
        "llm.embed.calls": calls.get("llm.embed", 0),
        "llm.embed.distinct_texts": window["llm.embed.distinct_texts"],
        "llm.serial_round_trips": window["llm.client_round_trips"],
        "llm.retries": transcripts["retries"],
        "detector.evaluate_series.calls": calls.get("detector.evaluate_series", 0),
        "sandbox.render_telemetry.calls": calls.get("sandbox.render_telemetry", 0),
        "sandbox.render_telemetry.calls_per_scenario":
            calls.get("sandbox.render_telemetry", 0) / window["scenarios"],
        "tools.execute.calls": window["tools.execute.calls"],
        "tools.failed": window["tools.failed"],
        "agents.rule_fired": {k[len("rule."):]: v for k, v in sorted(transcripts.items())
                              if k.startswith("rule.")},
        "agents.evicted": transcripts["evicted"],
        "agents.fallbacks": transcripts["fallbacks"],
        "agents.steps": transcripts["steps"],
    }
    stub = outcome.stub_stats.get(pass_index)
    if stub is not None:
        out["stub.requests"] = stub["requests"]
        out["stub.completions"] = stub["completions"]
        out["stub.embeddings"] = stub["embeddings"]
        out["stub.connections"] = stub["connections"]
        out["llm.serial_round_trips"] = stub["serial_round_trips"]
        out["llm.connections_per_request"] = stub["connections"] / stub["requests"]
    if len(job_runs) > 1:
        by_mode = {}
        for job_run in job_runs:
            mode_window = spans.span_counts(recorder.spans, *job_run.span_range)
            by_mode[job_run.job.mode] = {
                "episodes": len(job_run.job.corpus.scenarios),
                "llm.complete.calls": mode_window["calls"].get("llm.complete", 0),
                "llm.embed.calls": mode_window["calls"].get("llm.embed", 0),
                "path_lengths": [row.path_length for row in job_run.report.rows]
                if job_run.report else [],
            }
        out["by_mode"] = by_mode
    return out
