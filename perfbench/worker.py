"""One workload in one process: set-up, a fixed batch of operations, checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts it and reads the JSON object it prints. The operations run one
at a time from this single caller (a closed loop). Set-up time counts from
the top of this file, before numpy or gho is imported, to the end of the
program's set-up; the benchmark's own input generation comes after it.
Times are scaled to the reference machine's speed (pace.py); a pace taken
after set-up scales the set-up time.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import pace  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Checks, Draws  # noqa: E402

MAX_MESSAGES = 20


def batch_rounds(round_s, seconds):
    """Whole rounds in a batch of at least `seconds` at the nominal round time."""
    return max(1, math.ceil(seconds / round_s))


def make_ops(workload, seed, seconds):
    n_rounds = batch_rounds(workload.round_s, seconds)
    draw = Draws(seed, n_rounds)
    workload.prepare(draw)
    return [op for index in range(n_rounds) for op in workload.round_ops(draw, index)]


def run_batch(workload, ops, checks, tracer=None):
    """Time each op alone; paces and checks run between ops, outside the timing.

    Returns (raw op seconds, pace scale per op, failure reasons).
    """
    latencies = []
    failures = Counter()
    pacer = pace.Pacer(workload.yardstick)
    for index, op in enumerate(ops):
        pacer.before(index)
        if tracer:
            tracer.scale = pacer.current
            tracer.phase = "ops"
        start = time.perf_counter()
        try:
            result = workload.run(op)
            error = None
        except Exception as exc:  # a failing op is counted and the run goes on
            error = f"{type(exc).__name__}: {exc}"[:160]
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.phase = None
        reason = error or workload.check(op, result, checks)
        if reason:
            failures[reason] += 1
    return latencies, pacer.scales(len(ops)), failures


def blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import scipy

    found = {}
    for package in (np, scipy):
        for path in glob.glob(os.path.dirname(package.__file__) + ".libs/*openblas*"):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    found[package.__name__] = int(getattr(lib, symbol)())
                    break
    return found


def summary(latencies, scales, failures, checks):
    """Latency figures in paced time (see pace.py), with the raw ones beside."""
    ms = sorted(1e3 * x * k for x, k in zip(latencies, scales))
    return {
        "attempted": len(ms),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "ops_per_s": len(ms) / (1e-3 * sum(ms)),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": float(np.percentile(ms, 90)),
        "op_min_ms": ms[0],
        "op_max_ms": ms[-1],
        "op_s_total": 1e-3 * sum(ms),
        "raw_ops_per_s": len(ms) / sum(latencies),
        "raw_op_p50_ms": 1e3 * statistics.median(latencies),
        "pace_scale_median": statistics.median(scales),
        "worst_error": checks.worst,
        "tolerance": checks.tolerance,
        "wrong": checks.wrong[:MAX_MESSAGES],
        "wrong_count": len(checks.wrong),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.setup()
    raw_setup_s = time.perf_counter() - _START
    setup_s = raw_setup_s * pace.SMALL.scale()  # imports and solves: interpreter work
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    # a traced run times the batch untraced, then the same batch traced
    seconds = args.seconds / 2 if args.trace else args.seconds
    checks = Checks()
    untraced = summary(*run_batch(workload, make_ops(workload, args.seed, seconds), checks),
                       checks)
    out = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
           "raw_setup_s": raw_setup_s, "rounds": batch_rounds(workload.round_s, seconds),
           "blas_threads": blas_threads(), "nproc": os.cpu_count(), **untraced}
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.scale = pace.SMALL.scale()
        tracer.phase = "setup"
        workload.setup()
        tracer.phase = None
        traced_checks = Checks()
        traced = summary(*run_batch(workload, make_ops(workload, args.seed, seconds),
                                    traced_checks, tracer), traced_checks)
        out["traced"] = traced
        out["spans"] = tracer.metrics()
        out["trace_overhead_pct"] = 100.0 * (traced["op_s_total"] / untraced["op_s_total"] - 1.0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
