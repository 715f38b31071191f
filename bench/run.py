"""Layered benchmark of sopflow episodes.

    python3 bench/run.py --workload offline-distinct --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this fresh process from the root
of a checkout, checks every output, and prints the metrics by name with
their units. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

- ``--trace 0``: the end-to-end metrics, measured with nothing but a thin
  timer around ``run_episode``.
- ``--trace 1``: untraced and traced passes alternate. The traced passes
  give the per-layer metrics (per episode), the first traced pass gives the
  exact counters, printed separately, and the spans are written to
  ``.bench_out/``.

The run fails (``correct`` false, exit code 1) unless every pass scores
LA = TA = 1.0 with the action paths ``golden.expected_path`` predicts, every
corpus episode was timed, transcripts repeat byte for byte, and live
transcripts equal scripted ones. Without ``src/sopflow`` beside this
directory it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("offline-distinct", "offline-ablations", "live-latency")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sopflow" / "__init__.py").is_file():
        print(f"error: no sopflow package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the live workload talks to 127.0.0.1 only; never through a proxy
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ["SOPFLOW_API_KEY"] = "bench-stub-key"

    import spans
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    recorder = spans.Recorder() if args.trace else None
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                work, SRC, recorder)
        # transcripts under ``work`` feed the counters, so report before removing it
        if args.trace:
            metrics, lines = workloads.per_layer(outcome, recorder)
        else:
            metrics, lines = workloads.end_to_end(outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"workload={args.workload} seed={args.seed} seconds={args.seconds:g}")
    print("\n".join(lines))
    if args.trace:
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not outcome.failures
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r.job.corpus.scenarios) for r in outcome.runs),
        "failed": workloads.failed_episodes(outcome.runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
