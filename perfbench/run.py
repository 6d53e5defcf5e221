#!/usr/bin/env python3
"""decochaos benchmark: one closed-loop client driving the CLI in-process.

Run from the repository root:

    python3 perfbench/run.py --workload compare_shipped --seed 1 \
        --seconds 30 --trace 0

A run calls ``decochaos.cli.main`` with the workload's arguments, one
command after the other, until the next command would end past
``--seconds`` (at least ``MIN_REPS`` commands). Before each command it
starts ``SETUP_PER_GAP`` fresh interpreters, one after the other, that
import the CLI, load the workload's configs and run the bath self-check
(``setup_s``), so the set-up samples spread over the whole run. Each
command writes into its own directory under ``.perfbench/`` and is
checked: exit code, ``record.error``, every record check, the manifests
against the first command, and the physics outputs against
``reference.json``.

With ``--trace 1`` every other command runs with the layer functions
wrapped (see ``spans.py``); the per-layer numbers come from the traced
commands. ``trace.overhead_s`` is the traced minus the untraced median
and holds the run-to-run noise; ``trace.wrapper_s`` is the wrappers' own
time, measured inside them. The spans are written to
``.perfbench/traces/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT_ROOT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

SETUP_PER_GAP = 4
MIN_REPS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("decohere_chaotic_full", "compare_shipped", "decohere_quantum")

# Child process for setup_s: what a CLI user pays before the first step.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from decochaos import cli
from decochaos.bath import verify_displacement_identity
for path in sys.argv[2:]:
    cli.load_config(path)
verify_displacement_identity()
print("ready", flush=True)
"""


def cap_thread_pools():
    """Lower thread-pool variables above the core count to it."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > ncpu:
            os.environ[var] = str(ncpu)


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _l3_size():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_size": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def write_quantum_config(directory):
    """The separable quartic on a 128^2 grid with both engines.

    Henon-Heiles packets leak through the box edge before t = 5 on
    every grid tried, so the wavepacket workload uses the regular
    partner. The shipped fit window [70, 300] lies beyond t = 20, so
    the harness picks its own window.
    """
    import yaml

    with open(CONFIGS / "regular_quartic.yaml", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["engine"] = "both"
    data["slug"] = "quartic-quantum"
    data["integrator"]["n_steps"] = 4000
    data["grid"] = {"nx": 128, "ny": 128, "lx": 12.0, "ly": 12.0,
                    "hbar_eff": 1.0, "widths": [0.7071, 0.7071],
                    "sample_every": 5}
    data["bath"]["n_modes"] = 2000
    del data["fit"]["window"]
    path = os.path.join(directory, "decohere_quantum.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)
    return path


def workload_argv(name, directory):
    """CLI arguments of one command of the workload, without seed/out."""
    if name == "decohere_chaotic_full":
        return ["decohere", "--config",
                str(CONFIGS / "chaotic_henon_full.yaml")]
    if name == "compare_shipped":
        return ["compare", "--config", str(CONFIGS / "regular_quartic.yaml"),
                "--config-chaotic", str(CONFIGS / "chaotic_henon.yaml")]
    if name == "decohere_quantum":
        return ["decohere", "--config", write_quantum_config(directory)]
    raise ValueError(f"unknown workload {name!r}")


def config_paths(argv):
    return [argv[i + 1] for i, a in enumerate(argv)
            if a in ("--config", "--config-chaotic")]


def measure_setup(configs, samples):
    """Wall seconds from spawning a fresh interpreter to 'ready'."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, "-c", SETUP_CODE, str(SRC), *configs],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup process failed "
                               f"(exit {proc.returncode})")
    return times


# ---------------------------------------------------------------------------
# one command and its checks

def run_command(cli, argv, tracer=None):
    """Run one CLI command; return (exit code, wall seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("cli.main", cli.main, (argv,))
        elapsed = time.perf_counter() - start
    return code, elapsed


def load_records(out_dir):
    """record.json payloads keyed by run role (directory minus stamp)."""
    records = {}
    for entry in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, entry, "record.json")
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                records[entry.split("-", 1)[1]] = json.load(fh)
    return records


# comparison.json names the sub-run directories, which carry timestamps
_RUN_PATH_KEYS = ("regular_run", "chaotic_run")


def fingerprint(records):
    """What must repeat byte for byte between commands of one run."""
    out = {}
    for role, rec in records.items():
        manifest = {k: v for k, v in rec["manifest"].items()
                    if k != "comparison.json"}
        results = {k: v for k, v in rec["results"].items()
                   if k not in _RUN_PATH_KEYS}
        out[role] = {"manifest": manifest, "results": results}
    return out


def physics_outputs(records):
    """The numbers result_dev compares with the stored reference."""
    out = {}
    for role, rec in records.items():
        res = rec["results"]
        if res.get("lyapunov"):
            out[f"{role}.lambda_max"] = res["lyapunov"]["lambda_max"]
        for engine, gamma in sorted((res.get("gamma") or {}).items()):
            for key in ("gamma_asymptotic_final", "gamma_oracle_final",
                        "oracle_rel_diff"):
                if gamma.get(key) is not None:
                    out[f"{role}.{engine}.{key}"] = gamma[key]
        if res.get("divergence_fit"):
            out[f"{role}.fit_exponent_or_rate"] = \
                res["divergence_fit"]["exponent_or_rate"]
        if "ehrenfest_break_time" in res:
            out[f"{role}.ehrenfest_break_time"] = res["ehrenfest_break_time"]
        if res.get("hartree_error"):
            out[f"{role}.hartree_error"] = res["hartree_error"]["value"]
        if "t_star" in res:
            out[f"{role}.t_star"] = res["t_star"]
            for side in ("regular_fit", "chaotic_fit"):
                if res.get(side):
                    out[f"{role}.{side}_exponent_or_rate"] = \
                        res[side]["exponent_or_rate"]
    return out


def relative_deviation(value, ref):
    if value is None or ref is None:
        return 0.0 if value is ref else float("inf")
    if ref == 0:
        return abs(value)
    return abs(value - ref) / abs(ref)


def compare_outputs(outputs, reference, tol):
    """(result_dev, problems) of one command's physics outputs.

    An output that is the same at every seed is compared with its stored
    value. An output that moves with the seed is compared with the
    nearest point of its stored band, so it deviates only outside it.
    """
    problems = []
    fixed, bands = reference["outputs"], reference["bands"]
    if set(outputs) != set(fixed) | set(bands):
        problems.append(f"outputs {sorted(outputs)} differ from the "
                        f"reference's")
    devs = [0.0]
    for key, value in outputs.items():
        if key in fixed:
            devs.append(relative_deviation(value, fixed[key]))
        elif key in bands:
            lo, hi = bands[key]
            nearest = lo if value is None else min(max(value, lo), hi)
            devs.append(relative_deviation(value, nearest))
    dev = max(devs)
    if not dev <= tol:
        problems.append(f"result_dev {dev:.3g} exceeds {tol:g}")
    return dev, problems


def check_command(code, records, first, reference, tol):
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not records:
        problems.append("no record.json written")
    for role, rec in records.items():
        if rec.get("error") is not None:
            problems.append(f"{role}: error {rec['error']}")
        for name, check in rec.get("checks", {}).items():
            if not check["pass"]:
                problems.append(f"{role}: check {name} failed")
    if first is not None and fingerprint(records) != first:
        problems.append("outputs differ from the run's first command")
    dev, more = compare_outputs(physics_outputs(records), reference, tol)
    return dev, problems + more


def attempt(cli, argv, tracer, first, reference, tol):
    """One command and its checks: (seconds, records, result_dev,
    problems). A crash counts as one failed command."""
    out_dir = argv[argv.index("--out") + 1]
    started = time.perf_counter()
    try:
        if tracer is None:
            code, elapsed = run_command(cli, argv)
        else:
            with installed(tracer):
                code, elapsed = run_command(cli, argv, tracer)
        records = load_records(out_dir) if os.path.isdir(out_dir) else {}
        dev, problems = check_command(code, records, first, reference, tol)
    except Exception:  # the loop goes on; the traceback is reported
        traceback.print_exc()
        return time.perf_counter() - started, {}, float("inf"), ["crashed"]
    return elapsed, records, dev, problems


def written_files(out_dir):
    sizes = [os.path.getsize(os.path.join(d, f))
             for d, _, files in os.walk(out_dir) for f in files]
    return len(sizes), sum(sizes)


def useful_ratio(records):
    """Chosen over attempted initial conditions across the runs."""
    attempts = [len(r["results"]["attempts"]) for r in records.values()
                if "attempts" in r["results"]]
    return len(attempts) / sum(attempts) if attempts else 0.0


# ---------------------------------------------------------------------------
# per-layer metrics from one traced command

def layer_metrics(tracer, run_id, files, nbytes, ratio):
    sums = {}
    overhead = 0.0
    own = tracer.self_times()
    for span, self_s in zip(tracer.spans, own):
        if span.run_id != run_id:
            continue
        overhead += span.overhead
        agg = sums.setdefault(span.name, {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += span.duration
        agg["self_s"] += self_s
        for key, value in span.counts.items():
            agg[key] = agg.get(key, 0) + value

    def get(name, key):
        return sums.get(name, {}).get(key, 0)

    def rate(name, key):
        busy = get(name, "busy_s")
        return get(name, key) / busy if busy > 0 else 0.0

    m = {}
    for key in ("calls", "busy_s", "steps", "force_evals"):
        m[f"classical.propagate.{key}"] = get("classical.propagate", key)
    for key in ("busy_s", "steps", "hessian_evals"):
        m[f"classical.max_lyapunov.{key}"] = get("classical.max_lyapunov",
                                                 key)
    m["classical.classify_scaling.busy_s"] = get("classical.classify_scaling",
                                                 "busy_s")
    m["classical.ic_useful_ratio"] = ratio
    for key in ("calls", "busy_s", "mode_samples", "computed_bytes"):
        m[f"bath.oracle.{key}"] = get("bath.oracle", key)
    m["bath.oracle.mode_samples_per_s"] = rate("bath.oracle", "mode_samples")
    wp = "quantum.propagate_wavepacket"
    for key in ("calls", "busy_s", "steps", "fft2_calls", "computed_bytes"):
        m[f"{wp}.{key}"] = get(wp, key)
    m[f"{wp}.grid_point_steps_per_s"] = rate(wp, "grid_point_steps")
    for name in ("quantum.init_gaussian", "quantum.ehrenfest_break_time",
                 "decoherence.asymptotic_exponent",
                 "decoherence.hartree_error", "decoherence.compare_regimes",
                 "harness.load_config"):
        m[f"{name}.busy_s"] = get(name, "busy_s")
    for key in ("calls", "busy_s", "rows", "bytes"):
        m[f"harness.write_csv.{key}"] = get("harness.write_csv", key)
    m["harness.bytes_written"] = nbytes
    m["harness.files_written"] = files
    m["harness.self_s"] = (get("harness.run_experiment", "self_s")
                           + get("harness.compare_command", "self_s"))
    m["cli.main.self_s"] = get("cli.main", "self_s")
    m["trace.wrapper_s"] = overhead
    return m


def layer_units(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_written")):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    """decochaos.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "decochaos" / "cli.py").is_file():
        raise SystemExit(f"error: no decochaos sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from decochaos import cli

    if Path(cli.__file__).resolve().parent != SRC / "decochaos":
        raise SystemExit(f"error: imported decochaos from {cli.__file__}")
    return cli


def main(argv=None):
    args = parse_args(argv)
    cap_thread_pools()
    cli = import_cli()

    with open(REFERENCE, encoding="utf-8") as fh:
        stored = json.load(fh)
    reference, tol = stored["workloads"][args.workload], stored["tolerance"]
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    OUT_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    tracer = Tracer()
    times = {False: [], True: []}
    layers = []
    devs = []
    attempted = failed = 0
    first = None
    try:
        cmd = workload_argv(args.workload, work)
        setup = []
        loop_start = time.perf_counter()
        while True:
            setup += measure_setup(config_paths(cmd), SETUP_PER_GAP)
            traced = bool(args.trace) and attempted % 2 == 1
            out_dir = os.path.join(work, f"cmd{attempted}")
            tracer.run_id = attempted
            attempted += 1
            elapsed, records, dev, problems = attempt(
                cli, [*cmd, "--seed", str(args.seed), "--out", out_dir],
                tracer if traced else None, first, reference, tol)
            if first is None and records:
                first = fingerprint(records)
            times[traced].append(elapsed)
            devs.append(dev)
            if traced:
                files, nbytes = written_files(out_dir)
                layers.append(layer_metrics(tracer, attempted - 1, files,
                                            nbytes, useful_ratio(records)))
            if problems:
                failed += 1
                print(f"command {attempted} failed: " + "; ".join(problems),
                      file=sys.stderr)
            print(f"command {attempted}: {elapsed:.4f} s"
                  f"{' traced' if traced else ''}"
                  f"{'' if not problems else ' FAILED'}")
            shutil.rmtree(out_dir, ignore_errors=True)
            # stop before the next set-up samples and command, at the
            # mean pace so far, would end past --seconds
            done = time.perf_counter() - loop_start
            if attempted >= MIN_REPS and done * (1 + 1 / attempted) > \
                    args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_s = statistics.median(times[False])
    e2e = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    print(f"run_s = {run_s:.4f} s (median of {len(times[False])} untraced "
          f"commands)")
    print(f"setup_s = {e2e['setup_s'][0]:.4f} s (median of {len(setup)})")
    print(f"peak_rss_mb = {e2e['peak_rss_mb'][0]:.1f} MB")
    print(f"result_dev = {max(devs):.3g} (bound {tol:g})")
    print(f"fail_share = {failed / attempted:.3g} ({failed}/{attempted})")

    if args.trace:
        metrics = {k: statistics.median(m[k] for m in layers)
                   for k in layers[0]} if layers else {}
        metrics["trace.overhead_s"] = (statistics.median(times[True])
                                       - run_s) if times[True] else 0.0
        traces = OUT_ROOT / "traces"
        traces.mkdir(exist_ok=True)
        dump = traces / f"{args.workload}-seed{args.seed}.json"
        own = tracer.self_times()
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "metrics": metrics,
                       "spans": [{"name": s.name, "run_id": s.run_id,
                                  "parent": s.parent, "start": s.start,
                                  "end": s.end, "self_s": o,
                                  "overhead_s": s.overhead,
                                  "counts": s.counts}
                                 for s, o in zip(tracer.spans, own)]},
                      fh, indent=1)
        print(f"spans written to {dump}")
        result = {k: {"value": v, "unit": layer_units(k)}
                  for k, v in metrics.items()}
    else:
        result = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
