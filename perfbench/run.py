"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload verify|kernel-queries|packet-hops \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in a fresh worker
process; with --trace 0 two more fresh processes only set up, and the
median of the three set-up times is setup_s. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The full
run report goes to .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
TAIL_MIN_OPS = 100  # p90 needs at least 10 ops beyond it
DEADLINE_S = 170.0
# One BLAS thread: the load is one caller doing one op at a time, and a
# second thread made no op faster here. Freed large arrays go back to the
# system at once, so peak resident memory is the largest working set, not a
# record of the allocation order.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MALLOC_MMAP_THRESHOLD_="131072")


class BenchmarkError(Exception):
    pass


def call_worker(argv, deadline):
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              capture_output=True, text=True, cwd=ROOT, env=WORKER_ENV,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {argv} passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {argv} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(run, setup_samples):
    tail = run["op_p90_ms"] if run["attempted"] >= TAIL_MIN_OPS else run["op_p50_ms"]
    return {"setup_s": statistics.median(setup_samples), "ops_per_s": run["ops_per_s"],
            "op_p50_ms": run["op_p50_ms"], "op_p90_ms": tail,
            "peak_rss_mb": run["peak_rss_mb"]}


def per_layer(run):
    traced = run["traced"]
    values = {"trace.ops": traced["attempted"], "trace.untraced_s": run["op_s_total"],
              "trace.traced_s": traced["op_s_total"],
              "trace.overhead_pct": run["trace_overhead_pct"]}
    values.update(run["spans"])
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description="gho benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "gho" / "__init__.py").is_file():
            raise BenchmarkError("no gho sources under src/ in this checkout")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchmarkError(f"unknown workload {args.workload!r}")
        worker = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(call_worker(worker + ["--setup-only"], deadline)["setup_s"])
        run = call_worker(worker, deadline)
        setup_samples.append(run["setup_s"])
        if args.trace:
            values = per_layer(run)
            metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                       for m in spec["per_layer"]}
            checked = [run, run["traced"]]
        else:
            values = end_to_end(run, setup_samples)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            checked = [run]
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    result = {"correct": all(part["wrong_count"] == 0 for part in checked),
              "attempted": run["traced"]["attempted"] if args.trace else run["attempted"],
              "failed": run["traced"]["failed"] if args.trace else run["failed"],
              "metrics": metrics}
    report = dict(run, setup_samples=setup_samples, result=result)
    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for line in report["wrong"]:
        print(f"wrong: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
