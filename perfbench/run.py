"""Benchmark of immaculates: end-to-end metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source tree; ``immaculates`` is imported from
``src/`` as it is.  Every measurement runs in a fresh interpreter
(``worker.py``), one at a time, single-threaded.

With ``--trace 0`` the run starts five set-up probes and one measuring
worker.  ``setup_s`` is the median of their six set-up times; the other
metrics come from the measuring worker: ``wall_s`` is the mean pass time,
``ops_per_s`` all operations over all pass time, and ``peak_rss_mb`` the
worker's ``ru_maxrss`` at the end of its first pass.  ``op_p50_ms`` (the
mean over passes of each pass's median operation latency) and
``op_p99_ms`` are printed and recorded but are not among the gated metrics.  Means, not
medians, over passes: the noise of a shared machine comes in slow swings
of its speed, not in single outliers, and a median over passes, or over
the pooled latencies of a run, jumps between the fast and the slow speed
where a mean moves smoothly.

With ``--trace 1`` an untraced worker and a traced worker each get half
of ``--seconds``; the per-layer metrics come from the traced one, and
``trace.overhead_share`` compares the two mean pass times.

Each workload run prints its metrics by name and unit, a line of run
facts (commit, seed, Python, nproc, load, op count), writes the same to
``.perfbench-out/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("expand-dense", "classify-skew", "census-full", "schur-bridge")
SETUP_PROBES = 5
# Every run has to end within 180 s; a worker is killed past this.
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    sys.path.insert(0, str(ROOT / "src"))
    from spans import COUNTS, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "share" if name.endswith("_share") else (
            "bytes" if name.endswith("_bytes") else "count"
        )
    units["trace.overhead_share"] = "share"
    return units


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: float) -> dict:
    """Run one worker to completion and return its JSON, plus its set-up time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode, "--out", str(OUT),
    ]
    started = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} {mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = (result["ready_ns"] - started) / 1e9
    return result


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [spawn("setup", workload, seed, 0)["setup_s"] for _ in range(SETUP_PROBES)]
    res = spawn("untraced", workload, seed, seconds)
    setups.append(res["setup_s"])
    walls = res["walls"]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(walls),
        "ops_per_s": res["op_samples"] / sum(walls),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra = {
        "op_p50_ms": res["op_p50_ms"],
        "op_p99_ms": res["op_p99_ms"],
        "op_samples": res["op_samples"],
        "passes": len(walls),
        "pass_walls_s": walls,
        "setup_samples_s": setups,
    }
    return values, {**res, "extra": extra}


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    base = spawn("untraced", workload, seed, seconds / 2)
    traced = spawn("traced", workload, seed, seconds / 2)
    values = dict(traced["layers"])
    values["trace.overhead_share"] = (
        statistics.fmean(traced["walls"]) / statistics.fmean(base["walls"]) - 1
    )
    res = {
        "op_count": traced["op_count"],
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["failed"] + traced["failed"],
        "extra": {
            "untraced_pass_walls_s": base["walls"],
            "traced_pass_walls_s": traced["walls"],
            "counts_repeat": traced["counts_repeat"],
        },
    }
    return values, res


def commit_hash() -> str:
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(workload: str, args, facts: dict) -> dict:
    if args.trace:
        values, res = measure_traced(workload, args.seed, args.seconds)
        units = per_layer_units()
    else:
        values, res = measure(workload, args.seed, args.seconds)
        units = END_TO_END
    failed_share = res["failed"] / res["attempted"]
    record = {
        **facts,
        "workload": workload,
        "op_count": res["op_count"],
        "trace": args.trace,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_share": failed_share,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        **res["extra"],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"== {workload}  ops per pass {res['op_count']}")
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:14.6g} {unit}")
    print(f"  {'failed_share':48s} {failed_share:14.6g} share  "
          f"({res['failed']} of {res['attempted']} operations)")
    extra = res["extra"]
    if not args.trace:
        print(f"  {'op_p50_ms':48s} {extra['op_p50_ms']:14.6g} ms  (not gated)")
        if extra["op_p99_ms"] is not None:
            print(f"  {'op_p99_ms':48s} {extra['op_p99_ms']:14.6g} ms  "
                  f"(not gated; mean over {extra['passes']} passes, {extra['op_samples']} samples)")
        else:
            print("  op_p99_ms not reported: fewer than 1000 samples per pass")
    else:
        by_layer: dict[str, float] = {}
        for name, value in values.items():
            if name.endswith(".self_s"):
                layer = name.split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + value
        ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
        print("  self time by layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranked))
    print("  run: " + json.dumps({k: record[k] for k in (*facts, "op_count")}))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "immaculates" / "__init__.py").is_file():
        print(f"error: no immaculates package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    facts = {
        "commit": commit_hash(),
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_one(name, args, facts))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
