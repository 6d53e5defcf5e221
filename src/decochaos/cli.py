"""Command line entry points.

Exit codes: 0 success, 1 configuration/validation error or a file that
cannot be read or written, 2 runtime failure, a MemoryError included
(partial outputs are kept in the run directory).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .classical import classify_scaling, position_diameter
from .errors import ConfigError, SimulationError
from .harness import (ENGINES, OUTPUT_ROOT_ENV, compare_command,
                      load_config, run_experiment, write_csv)
from .models import PhasePoint
from .series import DivergenceSeries


def _load(args, attr="config"):
    """The config file args.<attr>, validated with the --seed and --engine
    overrides of the commands that take them."""
    return load_config(getattr(args, attr), **{
        key: getattr(args, key) for key in ("seed", "engine")
        if getattr(args, key, None) is not None})


def _writable(path):
    """Return path, or raise the OSError that writing it would raise,
    before a command spends its computation on a file it cannot write."""
    existed = os.path.exists(path)
    open(path, "a", encoding="ascii").close()
    if not existed:
        os.remove(path)
    return path


def cmd_validate_config(args):
    load_config(args.config)
    print(f"{args.config}: OK")
    return 0


def cmd_propagate(args):
    config = _load(args)
    out = _writable(args.out or "trajectory.csv")
    model = config.model.build()
    traj = config.orbit(model, PhasePoint(*config.initial.z))
    write_csv(out, ["t", "qx", "qy", "px", "py", "energy"],
              [traj.t, traj.z[:, 0], traj.z[:, 1], traj.z[:, 2],
               traj.z[:, 3], traj.energy])
    print(f"wrote {out} ({traj.t.size} samples, "
          f"energy drift {model.energy_drift(traj).max():.3e})")
    return 0


def cmd_lyapunov(args):
    config = _load(args)
    if config.lyapunov is None:
        raise ConfigError(["lyapunov: section is required for this command"])
    out = _writable(args.out or "lyapunov.csv")
    est = config.lyapunov_estimate(config.model.build(),
                                   PhasePoint(*config.initial.z))
    write_csv(out, ["t", "lambda_running"],
              [est.convergence[:, 0], est.convergence[:, 1]])
    print(f"lambda_max = {est.lambda_max:.6g} "
          f"(T = {est.total_time:g}, renorm {est.renorm_interval:g}); "
          f"convergence in {out}")
    return 0


def cmd_decohere(args):
    config = _load(args)
    record = run_experiment(config, args.out)
    status = "ok" if record.error is None else f"error: {record.error}"
    print(f"run directory: {record.path} ({status})")
    for name, check in record.checks.items():
        print(f"  check {name}: {'PASS' if check['pass'] else 'FAIL'} "
              f"(value {check['value']}, bound {check['bound']})")
    return 0 if record.error is None else 2


def cmd_compare(args):
    # no dominance is a finding, not a failure; a failed run or record exits 2
    record = compare_command(_load(args), _load(args, "config_chaotic"),
                             args.out)
    print(f"comparison directory: {record.path}")
    print(json.dumps(record.results, indent=2, sort_keys=True))
    return 0 if record.error is None else 2


def cmd_fit(args):
    # decohere's fit: the same candidate starts and default window (from
    # a CSV's separation, qx and qy), and fit.window's rule for --window
    from .harness import _classical_pair, _window

    if not args.csv and not args.config:
        raise ConfigError(["fit: need --config or --csv"])
    window = args.window and _window(args.window, "--window")
    if args.csv:
        import csv as _csv

        # DivergenceSeries raises DomainError, a ValueError, on a series
        # that is not a divergence integral
        try:
            with open(args.csv, encoding="ascii") as fh:
                rows = list(_csv.DictReader(fh))
            col = {key: [float(r[key]) for r in rows]
                   for key in ("t", "D", "separation", "qx", "qy")
                   if key in ("t", "D") or rows and key in rows[0]}
            series = DivergenceSeries(*map(col.get, ("t", "D", "separation")))
            diam = (position_diameter(list(zip(col["qx"], col["qy"])))
                    if {"qx", "qy"} <= col.keys() else None)
        except KeyError as exc:
            raise ConfigError([f"{args.csv}: no {exc} column"]) from None
        except (OSError, TypeError, ValueError, _csv.Error) as exc:
            raise ConfigError([f"{args.csv}: {exc}"]) from None
        # a run's table is fitted by the run's rule: --window, else the
        # fit.window of the config.snapshot beside it
        snapshot = os.path.join(os.path.dirname(args.csv), "config.snapshot")
        if window is None and os.path.exists(snapshot):
            window = load_config(snapshot).fit.window
        fit = classify_scaling(series, window, diam)
    else:
        fit = _classical_pair(_load(args), window).fit
        if fit is None:
            raise SimulationError("no growth-law fit of the divergence "
                                  "series in the fit window")
    print(f"kind: {fit.kind}")
    print(f"exponent_or_rate: {fit.exponent_or_rate:.6g}")
    print(f"r_squared: {fit.r_squared:.6f}")
    print(f"window: {fit.window}")
    if fit.ambiguous and fit.alternative is not None:
        alt = fit.alternative
        print(f"ambiguous: runner-up {alt.kind} "
              f"{alt.exponent_or_rate:.6g} (r^2 {alt.r_squared:.6f})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="decochaos",
        description="Wavepacket coherence decay against a thermal bath, "
                    "with orbit-stability diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=None, seed=False, engine=False, config_required=True):
        # --config, and --out (with help ``out``), --seed and --engine
        # where the command uses them
        p.add_argument("--config", required=config_required,
                       help="experiment config file (YAML)")
        if out is not None:
            p.add_argument("--out", default=None, help=out)
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
        if engine:
            p.add_argument("--engine", default=None, choices=ENGINES,
                           help="override the config engine")

    run_root = f"output directory (default from ${OUTPUT_ROOT_ENV} or ./runs)"

    p = sub.add_parser("validate-config", help="check a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate_config)

    p = sub.add_parser("propagate", help="classical trajectory CSV")
    common(p, "output CSV file (default trajectory.csv)")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("lyapunov", help="maximum Lyapunov exponent")
    common(p, "output CSV file (default lyapunov.csv)", seed=True)
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("decohere", help="full single-system experiment")
    common(p, run_root, seed=True, engine=True)
    p.set_defaults(func=cmd_decohere)

    p = sub.add_parser("compare",
                       help="regular versus chaotic paired experiment")
    common(p, run_root, seed=True, engine=True)
    p.add_argument("--config-chaotic", required=True,
                   help="config of the chaotic partner run")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fit", help="growth-law fit of a divergence series")
    common(p, config_required=False)
    p.add_argument("--csv", default=None,
                   help="fit D(t) of a CSV such as a run's classical.csv")
    p.add_argument("--window", type=float, nargs=2, default=None,
                   metavar=("T_LO", "T_HI"))
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, MemoryError, ChildProcessError) as exc:
        # MemoryError: a count no memory holds, such as an orbit of 2**40
        # steps; ChildProcessError: a forked helper died without a result
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a file the command cannot read or write, such as an --out
        # path; the message names it
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
