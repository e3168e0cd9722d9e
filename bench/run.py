"""rcbf-shield benchmark: one command, three seeded workloads.

    python3 bench/run.py                      # every workload, end-to-end metrics
    python3 bench/run.py --workload cone_filters --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload vehicle_study --trace 1   # per-layer metrics

Run from a checkout that holds ``src/rcbf_shield``.  The launcher pins
OpenBLAS/OpenMP/MKL to one thread in its workers, times set-up over
several fresh worker processes (median), then runs the workload in one
more worker: one caller, closed loop, a fixed number of whole periods
sized to take about ``--seconds`` on the development machine, so the ops
attempted depend only on the seed and ``--seconds``.  With ``--trace 1`` the worker runs the same passes without
and then with spans, and reports per-layer metrics and the tracing
overhead.  Metrics print one per line as ``<workload> <name> = <value>
<unit>``; the last line is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("vehicle_study", "cone_filters", "boxed_filters")
SETUP_REPEATS = 9
#: Every worker of one run together must end within this many seconds.
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Start a worker; return (seconds to its 'ready' line, its JSON result,
    None for a set-up worker)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    env = dict(os.environ, **PINNED)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"{mode} worker for {workload} exited with code {code}")
    if mode == "setup":
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker for {workload} printed no result")
    return setup_s, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if traced:
        _, out = _worker(workload, seed, seconds, "trace", deadline)
        return out
    setups = [_worker(workload, seed, seconds, "setup", deadline)[0]
              for _ in range(SETUP_REPEATS)]
    setup_s, out = _worker(workload, seed, seconds, "measure", deadline)
    setups.append(setup_s)
    out["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return out


def report(workload: str, out: dict):
    """Human-readable lines; fail_frac here, since it is 0 on two workloads."""
    stamp = out["stamp"]
    print(f"# {workload}: {stamp['cpu']}, nproc {stamp['nproc']}, Python "
          f"{stamp['python']}, numpy {stamp['numpy']}, {stamp['blas']}, "
          f"BLAS threads {stamp['blas_threads']}")
    for name, m in sorted(out["metrics"].items()):
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} fail_frac = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']} ops; {out['samples']} latency "
          f"samples; correct={str(out['correct']).lower()})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rcbf-shield benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rcbf_shield", "__init__.py")):
        print(f"error: no src/rcbf_shield under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({name: {k: out[k] for k in keys} for name, out in results.items()}))
    else:
        print(json.dumps({k: results[args.workload][k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
