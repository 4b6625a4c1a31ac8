"""Benchmark entry point.

    python3 bench/run.py --workload train-grid --seed 0 --seconds 35 --trace 0

Runs one workload against the package in ``src/`` next to this directory:
a child process writes the seeded inputs, then this process sets up and
measures. With ``--trace 0`` it times the public entry points and
prints the end-to-end metrics; with ``--trace 1`` it runs the traced
composition and prints the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Lines before it give the machine record, input statistics,
output digests and every metric with its unit.

BLAS and OpenMP threads are pinned to one before numpy loads; a caller that
asks for another thread count is refused, because timings under thread
contention are not comparable.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WRITE_INPUTS = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
                "workloads.write_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5])")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads")
# Set-up is repeated between the timed operations until the repeats have
# used this share of the elapsed wall time, and at least SETUP_MIN_REPEATS
# times. Host speed drifts by ±20% over seconds, so ~10 ms set-ups must be
# sampled across the whole measuring window, as the operations are.
SETUP_SHARE = 0.1
SETUP_MIN_REPEATS = 9

QUALITY_UNITS = {"final_loss": "nll", "dev_f1": "f1", "f1": "f1"}


def metric_spec():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def pin_threads():
    """Pin every BLAS/OpenMP thread variable to 1; returns a refusal or None."""
    unpinned = {v: os.environ[v] for v in THREAD_VARS
                if os.environ.get(v, "1").strip() != "1"}
    if unpinned:
        return f"refusing to run: thread settings {unpinned} are not 1"
    for v in THREAD_VARS:
        os.environ[v] = "1"
    return None


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def machine_record(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_plain(workload, st, seconds, timed_setup):
    """Time whole operations for ``seconds``: (tok/s per op, attempted, failed).

    After each operation ``timed_setup`` is called until set-ups have used
    ``SETUP_SHARE`` of the elapsed time; the states it returns are dropped.
    Every operation starts after a ``gc.collect()``, outside its timing: a
    tape and its tensors form reference cycles, so without it an operation
    could run beside, and pay for collecting, the previous one's tapes.
    """
    workload.warm_up(st)
    rates = []
    attempted = failed = 0
    setup_wall = 0.0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        while setup_wall < SETUP_SHARE * (time.perf_counter() - start):
            began = time.perf_counter()
            timed_setup()
            setup_wall += time.perf_counter() - began
        gc.collect()
        try:
            res = workload.op(st)
        except Exception:  # a failed operation is counted, then measuring stops
            traceback.print_exc()
            steps = workload.expected_steps(st)
            attempted += steps
            failed += steps
            break
        attempted += res.steps
        if res.failures:
            failed += res.steps
            for message in res.failures:
                print(f"check failed: {message}", file=sys.stderr)
        rates.append(res.tokens / res.seconds)
    return rates, attempted, failed


def main(argv=None):
    args = parse_args(argv)
    spec = metric_spec()
    refusal = pin_threads()
    if refusal:
        print(refusal, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import syntag
    except ImportError as exc:
        print(f"cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(syntag.__file__).resolve().is_relative_to(SRC):
        print(f"syntag was imported from {syntag.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    machine = machine_record(np)
    if machine["blas_threads"] not in (None, 1):
        print(f"refusing to run: BLAS uses {machine['blas_threads']} threads",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        # A plain child process, waited for here; multiprocessing would also
        # start a resource tracker that outlives this run.
        child = subprocess.run(
            [sys.executable, "-c", WRITE_INPUTS, str(SRC), str(HERE),
             args.workload, str(args.seed), work], check=False)
        if child.returncode != 0:
            print(f"input generation failed with exit code {child.returncode}",
                  file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(work))
        setup_times = []

        def timed_setup():
            gc.collect()  # so no set-up pays for collecting earlier garbage
            start = time.perf_counter()
            state = workload.setup()
            setup_times.append(time.perf_counter() - start)
            return state

        st = timed_setup()
        if args.trace:
            table, attempted, failed, tracer = workloads.run_traced(
                workload, st, args.seconds, Path(work) / "roundtrip.tsv")
            metrics = {name: (table[name], unit)
                       for name, unit in spec["per_layer"].items()}
        else:
            rates, attempted, failed = run_plain(workload, st, args.seconds,
                                                 timed_setup)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            while len(setup_times) < SETUP_MIN_REPEATS:
                timed_setup()
            table = {
                "tok_s": median(rates) if rates else 0.0,
                "setup_s": median(setup_times),
                "peak_rss_mb": peak_mb,
            }
            metrics = {name: (table[name], unit)
                       for name, unit in spec["end_to_end"].items()}

    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
        print(f"spans {len(tracer.spans)} written to {trace_path}")
    print("machine " + json.dumps(machine))
    print("inputs " + json.dumps(workload.inputs))
    print("quality " + json.dumps(workload.quality))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    if not args.trace:
        print(f"metric {workload.tok_name} {metrics['tok_s'][0]} tok/s")
        for label, record in workload.quality.items():
            for key, unit in QUALITY_UNITS.items():
                if key in record:
                    print(f"metric {key} {record[key]} {unit} {label}")
    print(f"metric ops {attempted} count")
    print(f"metric failed_ops {failed} count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
