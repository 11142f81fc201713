"""One workload in one fresh interpreter: set up, measure, check, report.

``run.py`` starts this script once per measurement, so each workload's
peak RSS is its own and traced and untraced runs never share a process:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode {setup,untraced,traced} --out DIR

Set-up is the import of ``immaculates`` and the generation of the inputs;
the worker stamps CLOCK_MONOTONIC when it is done, and the parent
subtracts the moment it started the process.  Then passes run until
another pass of the last one's length would end after ``--seconds``
(at least one pass runs).  The first pass is checked in
full; each later pass must reproduce the first one's outputs, compared
by per-operation digests.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer  # noqa: E402  (both import immaculates from src/)
from workloads import WORKLOADS, op_digest  # noqa: E402


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def percentile_ms(samples, q: int) -> float:
    """The q-th percentile of nanosecond samples (statistics' exclusive method), in ms."""
    if len(samples) == 1:
        return samples[0] / 1e6
    return statistics.quantiles(samples, n=100)[q - 1] / 1e6


class Verdicts:
    """Failed-operation bookkeeping across the passes of one run.

    The first pass is checked in full.  Its per-operation digests are kept
    as one bytes object (small next to the program's own memory, which the
    worker's peak RSS measures); a later pass passes an operation when it
    reproduces a digest that passed.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference: bytes | None = None
        self.first_bad: set[int] = set()
        self.attempted = 0
        self.failed = 0

    def record(self, outputs) -> None:
        digests = b"".join(op_digest(o) for o in outputs)
        if self.reference is None:
            ok = self.workload.check(outputs)
            self.reference = digests
            self.first_bad = {i for i, good in enumerate(ok) if not good}
            bad = self.first_bad
        elif digests == self.reference:
            bad = self.first_bad
        else:
            ref = self.reference
            bad = self.first_bad | {
                i for i in range(len(outputs)) if digests[8 * i: 8 * i + 8] != ref[8 * i: 8 * i + 8]
            }
        self.attempted += len(outputs)
        self.failed += len(bad)


def run_untraced(workload, seconds: float) -> dict:
    verdicts = Verdicts(workload)
    walls, p50s, p99s = [], [], []
    latencies = array("q")
    deadline = time.monotonic() + seconds
    while True:
        gc.collect()
        del latencies[:]
        started = time.perf_counter_ns()
        outputs = workload.run_pass(latencies)
        walls.append((time.perf_counter_ns() - started) / 1e9)
        if len(walls) == 1:
            # Passes repeat the same work, so the first pass's high-water
            # mark is the program's; read it before the benchmark's own
            # bookkeeping of later passes can add to it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = sorted(latencies)
        p50s.append(percentile_ms(samples, 50))
        if len(samples) >= 1000:  # at least ten samples beyond the 99th percentile
            p99s.append(percentile_ms(samples, 99))
        del samples
        verdicts.record(outputs)
        del outputs
        if time.monotonic() + walls[-1] > deadline:
            break
    return {
        "walls": walls,
        "op_samples": len(latencies) * len(walls),
        "op_p50_ms": statistics.fmean(p50s),
        "op_p99_ms": statistics.fmean(p99s) if p99s else None,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "peak_rss_mb": peak_rss_mb,
    }


def _tagged(tracer, op: int, run):
    def tagged():
        tracer.current_op = op
        return run()

    return tagged


def run_traced(workload, seconds: float, spans_path: Path) -> dict:
    tracer = Tracer()
    tracer.install()
    workload.ops = [(fixed, _tagged(tracer, i, run)) for i, (fixed, run) in enumerate(workload.ops)]
    verdicts = Verdicts(workload)
    walls, summaries = [], []
    deadline = time.monotonic() + seconds
    try:
        while True:
            gc.collect()
            tracer.reset()
            started = time.perf_counter_ns()
            outputs = workload.run_pass(None)
            walls.append((time.perf_counter_ns() - started) / 1e9)
            tracer.counts["cli.output_bytes"] = workload.output_bytes(outputs)
            summaries.append(tracer.summary())
            if len(summaries) == 1:
                tracer.write_spans(spans_path)
            verdicts.record(outputs)
            del outputs
            if time.monotonic() + walls[-1] > deadline:
                break
    finally:
        tracer.uninstall()
    layers = {}
    for key, first in summaries[0].items():
        if key.endswith("_s"):
            layers[key] = statistics.median(s[key] for s in summaries)
        else:
            layers[key] = first
    # counts depend on the inputs only, so every pass must repeat them
    repeat = all(
        s[k] == v for s in summaries for k, v in summaries[0].items() if not k.endswith("_s")
    )
    return {
        "walls": walls,
        "layers": layers,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed + (not repeat),
        "counts_repeat": repeat,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    args.out.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir=args.out)
    result = {"ready_ns": monotonic_ns(), "op_count": workload.op_count}
    if args.mode == "untraced":
        result.update(run_untraced(workload, args.seconds))
    elif args.mode == "traced":
        spans = args.out / f"spans-{args.workload}.csv"
        result.update(run_traced(workload, args.seconds, spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
