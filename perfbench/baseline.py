#!/usr/bin/env python3
"""Repeat run.py over seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--trace 1] \
        [--out perfbench/baseline.json]

Runs ``BENCHMARK.json``'s command once per workload and seed, one after
the other, and reports per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    metrics = spec["end_to_end"] if not args.trace else spec["per_layer"]

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in metrics}
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180, check=False)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
            lines = proc.stdout.splitlines()
            environment = json.loads(lines[0].split(" ", 1)[1])
            result = json.loads(lines[-1])
            runs.append({k: result[k] for k in ("correct", "attempted",
                                                 "failed")})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
                  flush=True)
        summary[workload] = {"seeds": args.seeds, "runs": runs,
                             "metrics": {}}
        for m in metrics:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            entry = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "values": vals}
            if "bound" in m:
                entry["bound"] = m["bound"]
            summary[workload]["metrics"][m["name"]] = entry
            if "bound" in m:
                print(f"  {m['name']}: median {med:.6g} {m['unit']}, "
                      f"spread {entry['spread']:.4f} (bound {m['bound']})")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": environment, "workloads": summary},
            indent=1) + "\n")


if __name__ == "__main__":
    main()
