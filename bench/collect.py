"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 bench/collect.py --seeds 10
    python3 bench/collect.py --seeds 10 --baseline bench/BASELINE.json

Each workload runs once per seed 0, 1, ..., N-1, one run at a time, with
``--trace 0``. For every end-to-end metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json; a spread
at or above a third of the bound is marked. With ``--baseline`` it also makes
one traced run per workload (seed 0) and writes the medians, the per-layer
table, the input statistics, the output digests and the machine record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD_LINES = ("machine", "inputs", "quality")


def run(workload, seed, seconds, trace):
    """One benchmark process: (result object, {machine, inputs, quality})."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    record = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in RECORD_LINES:
            record[key] = json.loads(rest)
    return json.loads(lines[-1]), record


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    p.add_argument("--baseline", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    baseline = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        results, records = [], []
        for seed in range(args.seeds):
            result, record = run(workload, seed, args.seconds, 0)
            results.append(result)
            records.append(record)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()), flush=True)
        entry = {"all_correct": all(r["correct"] for r in results),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = s
            mark = "" if s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bound}{mark}", flush=True)
        if args.baseline:
            traced, record = run(workload, 0, args.seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
            entry["inputs"] = records[0]["inputs"]
            entry["quality"] = {seed: rec["quality"]
                                for seed, rec in enumerate(records)}
            baseline["machine"] = record["machine"]
        baseline["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n",
                                 encoding="utf-8")
        print(f"baseline written to {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
