#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

Runs one command of every workload at each of ``REFERENCE_SEEDS``, the
same command ``run.py`` times, and stores its physics outputs. An output
that is the same at every seed is stored as that value. An output that
moves with the seed (``lambda_max``, through the random initial tangent
of ``max_lyapunov``) is stored as a band: the range over the seeds,
widened by its width on each side.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile

import run

REFERENCE_SEEDS = range(16)
TOLERANCE = 1e-6


def outputs_at(cli, name, work, seed):
    argv = run.workload_argv(name, work)
    out_dir = os.path.join(work, f"{name}-seed{seed}")
    code, _ = run.run_command(cli, [*argv, "--seed", str(seed), "--out",
                                    out_dir])
    records = run.load_records(out_dir)
    if code != 0 or not all(r["error"] is None for r in records.values()):
        raise SystemExit(f"{name} seed {seed}: reference command failed")
    shutil.rmtree(out_dir)
    return run.physics_outputs(records)


def reference_entry(runs):
    """Fixed values and seed bands from the outputs of several seeds."""
    keys = set(runs[0])
    if any(set(r) != keys for r in runs):
        raise SystemExit("the outputs' names differ between seeds")
    outputs, bands = {}, {}
    for key in sorted(keys):
        values = [r[key] for r in runs]
        if all(v == values[0] for v in values):
            outputs[key] = values[0]
        else:
            lo, hi = min(values), max(values)
            bands[key] = [lo - (hi - lo), hi + (hi - lo)]
    return {"seeds": list(REFERENCE_SEEDS), "outputs": outputs,
            "bands": bands}


def main():
    cli = run.import_cli()
    run.OUT_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=run.OUT_ROOT)
    workloads = {}
    try:
        for name in run.WORKLOADS:
            runs = [outputs_at(cli, name, work, seed)
                    for seed in REFERENCE_SEEDS]
            workloads[name] = reference_entry(runs)
            print(f"{name}: {len(workloads[name]['outputs'])} fixed, "
                  f"{len(workloads[name]['bands'])} banded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"tolerance": TOLERANCE, "git_commit": run._git_commit(),
                   "workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
