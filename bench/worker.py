"""One benchmark process: set up a workload, then measure or trace it.

Started by run.py with BLAS pinned to one thread; not meant to be run by
hand.  Prints ``ready`` once set-up is done (run.py times process start
to that line), then, unless ``--mode setup``, one JSON line with the
results.  One caller, closed loop: each operation starts when the
previous one has returned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _stamp() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


class Tally:
    """Outcome of a sequence of operations."""

    def __init__(self):
        self.ops = 0
        self.seconds = 0.0
        self.failed = 0
        self.wrong = 0
        self.box_bound = 0
        self.calls = 0
        self.latency_us: list = []

    def merge(self, other: "Tally"):
        """Fold in another tally's outcome counts (not its timings)."""
        self.ops += other.ops
        self.failed += other.failed
        self.wrong += other.wrong
        self.calls += other.calls

    def add(self, res: workloads.OpResult):
        self.ops += res.ops
        self.seconds += res.seconds
        self.failed += res.failed
        self.wrong += res.wrong
        self.box_bound += res.box_bound
        self.calls += 1
        self.latency_us.append(res.seconds / res.ops * 1e6)


def run_pass(wl, tally: Tally, first_op: int, n: int, tracer=None, pass_no: int = 0):
    """Run ops first_op .. first_op + n - 1, one after the other."""
    for k in range(n):
        if tracer is not None:
            tracer.op_id = pass_no * n + k
        tally.add(wl.run_op(first_op + k))


def work_size(wl, seconds: float, ops_per_unit: int) -> int:
    """Units of ops_per_unit ops that take about seconds at the workload's
    nominal op time; at least 1.  The count depends on nothing measured, so
    a run's ops, and with them attempted and failed, are a function of
    seed and seconds alone."""
    return max(1, round(seconds / (wl.op_s * ops_per_unit)))


def measure(wl, seconds: float) -> tuple:
    """A fixed number of whole periods, each continuing the op stream."""
    tally = Tally()
    op = 0
    for _ in range(work_size(wl, seconds, wl.period)):
        run_pass(wl, tally, op, wl.period)
        op += wl.period
    lat = np.asarray(tally.latency_us)
    return tally, {
        "ops_per_s": (tally.ops / tally.seconds, "1/s"),
        "op_p50_us": (float(np.percentile(lat, 50)), "us"),
        "op_p90_us": (float(np.percentile(lat, 90)), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def trace(wl, seconds: float, spans_path: str) -> tuple:
    """Replay the first trace_pass ops a fixed number of times, alternating
    an untraced and a traced pass so that drift in machine speed falls on
    both.  Counts are per traced pass; the overhead compares the two."""
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    passes = work_size(wl, seconds, 2 * wl.trace_pass)
    for pass_no in range(passes):
        run_pass(wl, plain, 0, wl.trace_pass)
        with tracing.installed(tracer):
            run_pass(wl, traced, 0, wl.trace_pass, tracer, pass_no)
    metrics = tracing.layer_metrics(tracer, passes)
    metrics["trace.overhead_frac"] = (traced.seconds / plain.seconds - 1.0, "ratio")
    metrics["filters.box_bound_frac"] = (traced.box_bound / traced.calls, "ratio")
    tracer.write(spans_path, max_op=wl.trace_pass)
    plain.merge(traced)
    return plain, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    wl = workloads.make(args.workload, args.seed,
                        os.path.join(out_root, f"{args.workload}-{os.getpid()}"))
    print("ready", flush=True)
    if args.mode == "setup":
        wl.close()
        return 0
    try:
        if args.mode == "measure":
            tally, metrics = measure(wl, args.seconds)
        else:
            tally, metrics = trace(wl, args.seconds,
                                   os.path.join(out_root, f"spans_{args.workload}.csv"))
    finally:
        wl.close()
    print(json.dumps({
        "correct": tally.wrong == 0, "attempted": tally.ops, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": tally.calls, "stamp": _stamp()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
