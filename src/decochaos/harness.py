"""Experiment orchestration: config files, runs, records.

One YAML config describes one experiment. Runs land in
``<output_root>/<timestamp>-<slug>/`` holding ``config.snapshot``,
``record.json`` and the per-module CSV files; every file written by a
run is checksummed in its record's manifest. Identical config plus seed
reproduces byte-identical numeric outputs.
"""
from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import os
import platform
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy
import yaml

from . import __version__
from .bath import SpectralDensity, decoherence_exponent_oracle, discretize_bath
from .classical import (classify_scaling, detect_saturation,
                        divergence_from_trajectories, max_lyapunov,
                        position_diameter, propagate)
from .decoherence import (RegimeRun, asymptotic_exponent, compare_regimes,
                          hartree_error)
from .errors import ConfigError, SimulationError
from .models import MODEL_FAMILIES, PhasePoint, make_model
from .quantum import (Grid2D, ehrenfest_break_time, init_gaussian,
                      propagate_wavepacket, save_wavepacket)
from .series import DriveDifference

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "load_config",
    "run_experiment",
    "compare_command",
    "OUTPUT_ROOT_ENV",
]

OUTPUT_ROOT_ENV = "DECOCHAOS_RUNS"
SCHEMA_VERSION = 1
ENGINES = ("classical", "quantum", "both")
ORACLE_TOLERANCE = 0.05
DEFAULT_DRIFT_BOUND = 1e-6
DEFAULT_DELTA_SCALE = 1e-6      # |delta_z| as a fraction of shell diameter
DEFAULT_THRESHOLD_FRACTION = 0.05


def _real(value):
    """A finite int or float; a bool is not a number here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _count(value, least):
    """An int (not a bool) of at least ``least``."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= least)


def _is_pow2(n):
    return _count(n, 1) and (n & (n - 1)) == 0


def _vec4(value):
    vec = tuple(float(v) for v in value)
    if len(vec) != 4 or not all(math.isfinite(v) for v in vec):
        raise ValueError("expected 4 finite components")
    return vec


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: tuple = ()          # sorted (name, value) pairs
    mass: float = 1.0

    def build(self):
        return make_model(self.family, dict(self.params), self.mass)


@dataclass(frozen=True)
class InitialSpec:
    z: tuple
    delta_z: tuple | None = None
    alternates: tuple = ()      # fallback z values for flagged ICs


@dataclass(frozen=True)
class IntegratorSpec:
    dt: float
    n_steps: int
    escape_radius: float = 1e3
    energy_drift_bound: float = DEFAULT_DRIFT_BOUND


@dataclass(frozen=True)
class LyapunovSpec:
    total_time: float
    renorm_interval: float
    dt: float | None = None     # coarser step for the long exponent run


@dataclass(frozen=True)
class GridSpec:
    nx: int
    ny: int
    lx: float
    ly: float
    hbar_eff: float
    widths: tuple
    sample_every: int = 1
    save_snapshots: bool = False


@dataclass(frozen=True)
class BathSpec:
    coupling: float
    omega_max: float
    temperature: float
    n_modes: int | None = None


@dataclass(frozen=True)
class FitSpec:
    window: tuple | None = None
    expected_scaling: str | None = None


@dataclass(frozen=True)
class EhrenfestSpec:
    t_max: float | None = None
    threshold: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    model: ModelSpec
    initial: InitialSpec
    integrator: IntegratorSpec
    engine: str = "classical"
    lyapunov: LyapunovSpec | None = None
    grid: GridSpec | None = None
    bath: BathSpec | None = None
    fit: FitSpec = field(default_factory=FitSpec)
    ehrenfest: EhrenfestSpec = field(default_factory=EhrenfestSpec)
    superposition: tuple = (0.7071067811865476, 0.7071067811865476)
    output_dir: str | None = None
    slug: str | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        raw = asdict(self)
        raw["model"]["params"] = {k: v for k, v in self.model.params}
        raw["superposition"] = {"c1": self.superposition[0],
                                "c2": self.superposition[1]}
        return raw

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return _parse_config(data)


_KNOWN_KEYS = {"schema_version", "seed", "engine", "model", "initial",
               "integrator", "lyapunov", "grid", "bath", "fit", "ehrenfest",
               "superposition", "output_dir", "slug"}


def _parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw config mapping, aggregating every violation."""
    errors = []
    fail = errors.append

    if not isinstance(data, dict):
        raise ConfigError(["config root must be a mapping"])
    for key in data:
        if key not in _KNOWN_KEYS:
            fail(f"unknown config key {key!r}")

    def section(key):
        """data[key] if it is a mapping, else None (noted when given)."""
        value = data.get(key)
        if value is not None and not isinstance(value, dict):
            fail(f"{key}: must be a mapping")
            return None
        return value

    def positive(mapping, name, default=0.0):
        """mapping[last part of name] as a positive finite float, or None
        with the violation noted."""
        value = mapping.get(name.rsplit(".", 1)[1], default)
        if _real(value) and value > 0:
            return float(value)
        fail(f"{name}: must be a positive finite number")
        return None

    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        fail(f"schema_version {version!r} unsupported; this build reads "
             f"{SCHEMA_VERSION}")

    seed = data.get("seed")
    if not _count(seed, 0):
        fail("seed: a mandatory non-negative integer")
        seed = 0

    engine = data.get("engine", "classical")
    if engine not in ENGINES:
        fail(f"engine: {engine!r} not one of {ENGINES}")

    slug = data.get("slug")
    if slug is not None and any(s in str(slug) for s in ("/", "\\", "..")):
        fail("slug: must not contain '/', '\\' or '..'")
    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        fail("output_dir: must be a path string")

    # model ------------------------------------------------------------
    model = None
    m = data.get("model")
    if not isinstance(m, dict):
        fail("model: section is mandatory")
    else:
        family = m.get("family")
        params = m.get("params") or {}
        mass = m.get("mass", 1.0)
        if not (isinstance(family, str) and family in MODEL_FAMILIES):
            fail(f"model.family: {family!r} unknown; valid families: "
                 f"{', '.join(sorted(MODEL_FAMILIES))}")
        elif not isinstance(params, dict):
            fail("model.params: must be a mapping")
        else:
            try:
                spec = ModelSpec(family,
                                 tuple(sorted((str(k), float(v))
                                              for k, v in params.items())),
                                 float(mass))
                spec.build()
                model = spec
            except Exception as exc:
                fail(f"model: {exc}")

    # initial ----------------------------------------------------------
    initial = None
    ini = data.get("initial")
    if not isinstance(ini, dict) or "z" not in ini:
        fail("initial.z: section with a 4-component z is mandatory")
    else:
        try:
            z = _vec4(ini["z"])
            dz = _vec4(ini["delta_z"]) if ini.get("delta_z") is not None \
                else None
            alternates = tuple(_vec4(a) for a in ini.get("alternates", ()))
            initial = InitialSpec(z, dz, alternates)
        except Exception as exc:
            fail(f"initial: {exc}")

    # integrator ---------------------------------------------------------
    integ = None
    it = data.get("integrator")
    if not isinstance(it, dict):
        fail("integrator: section is mandatory")
    else:
        n_errors = len(errors)
        dt = positive(it, "integrator.dt")
        n_steps = it.get("n_steps", 0)
        if not _count(n_steps, 1):
            fail("integrator.n_steps: must be an integer >= 1")
        radius = positive(it, "integrator.escape_radius", 1e3)
        bound = positive(it, "integrator.energy_drift_bound",
                         DEFAULT_DRIFT_BOUND)
        if len(errors) == n_errors:
            integ = IntegratorSpec(dt, n_steps, radius, bound)

    # lyapunov -----------------------------------------------------------
    lyap = None
    ly = section("lyapunov")
    if ly is not None:
        total = ly.get("total_time", 0.0)
        renorm = ly.get("renorm_interval", 0.0)
        own_dt = ly.get("dt")
        step = own_dt if own_dt is not None else (integ.dt if integ
                                                  else 0.0)
        if own_dt is not None and not (_real(own_dt) and own_dt > 0):
            fail("lyapunov.dt: must be a positive finite number")
        elif not (_real(total) and _real(renorm)
                  and total >= 10 * renorm >= 100 * step > 0):
            fail("lyapunov: need total_time >= 10*renorm_interval "
                 ">= 100*dt")
        else:
            lyap = LyapunovSpec(float(total), float(renorm),
                                None if own_dt is None else float(own_dt))

    # grid ---------------------------------------------------------------
    grid = None
    g = section("grid")
    if engine in ("quantum", "both") and g is None:
        fail("grid: section is mandatory for quantum engines")
    if g is not None:
        nx, ny = g.get("nx", 0), g.get("ny", 0)
        widths = g.get("widths", None)
        sample_every = g.get("sample_every", 1)
        snapshots = bool(g.get("save_snapshots", False))
        pow2 = _is_pow2(nx) and _is_pow2(ny) and nx >= 64 and ny >= 64
        if not pow2:
            fail("grid.nx/ny: must be powers of two, at least 64")
        lx = positive(g, "grid.lx")
        ly_ = positive(g, "grid.ly")
        hbar = positive(g, "grid.hbar_eff", 1.0)
        if (not isinstance(widths, (list, tuple)) or len(widths) != 2
                or not all(_real(w) and w > 0 for w in widths)):
            fail("grid.widths: need two positive widths (sigma_x, sigma_y)")
        elif pow2 and lx and ly_:
            dx, dy = lx / nx, ly_ / ny
            sx, sy = float(widths[0]), float(widths[1])
            if sx <= 2 * dx or sy <= 2 * dy:
                fail(f"grid.widths: must exceed two grid cells "
                     f"({2 * dx:g}, {2 * dy:g})")
            if sx >= lx / 10 or sy >= ly_ / 10:
                fail("grid.widths: must stay below a tenth of the box")
        if not _count(sample_every, 1):
            fail("grid.sample_every: must be an integer >= 1")
        elif integ and integ.n_steps % sample_every != 0:
            fail("grid.sample_every: must divide integrator.n_steps")
        if not errors:
            grid = GridSpec(nx, ny, lx, ly_, hbar,
                            (float(widths[0]), float(widths[1])),
                            sample_every, snapshots)

    # bath -----------------------------------------------------------------
    bath = None
    b = section("bath")
    if b is not None:
        coupling = positive(b, "bath.coupling")
        omega_max = positive(b, "bath.omega_max")
        temperature = positive(b, "bath.temperature")
        n_modes = b.get("n_modes")
        if n_modes is not None and not _count(n_modes, 2):
            fail("bath.n_modes: must be an integer >= 2")
        if omega_max is not None and integ is not None:
            limit = math.pi / (10.0 * omega_max)
            if integ.dt > limit * (1 + 1e-12):
                fail(f"integrator.dt: violates the bath sampling bound "
                     f"dt <= pi/(10*omega_max) = {limit:g}")
        if not errors:
            bath = BathSpec(coupling, omega_max, temperature, n_modes)

    # fit, ehrenfest, superposition -----------------------------------------
    fit = FitSpec()
    f = section("fit")
    if f is not None:
        window = f.get("window")
        expected = f.get("expected_scaling")
        if window is not None:
            if (isinstance(window, (list, tuple)) and len(window) == 2
                    and all(map(_real, window)) and window[0] < window[1]):
                window = (float(window[0]), float(window[1]))
            else:
                fail("fit.window: need [t_lo, t_hi] with t_lo < t_hi")
                window = None
        if expected is not None and expected not in ("power_law",
                                                     "exponential"):
            fail("fit.expected_scaling: must be power_law or exponential")
            expected = None
        fit = FitSpec(window, expected)

    ehren = EhrenfestSpec()
    e = section("ehrenfest")
    if e is not None:
        t_max = (None if e.get("t_max") is None
                 else positive(e, "ehrenfest.t_max"))
        threshold = (None if e.get("threshold") is None
                     else positive(e, "ehrenfest.threshold"))
        if not errors:
            ehren = EhrenfestSpec(t_max, threshold)

    sup = data.get("superposition")
    weights = (0.7071067811865476, 0.7071067811865476)
    if sup is not None:
        try:
            weights = (float(sup["c1"]), float(sup["c2"]))
        except Exception:
            fail("superposition: need scalar c1 and c2")

    if (bath is not None and bath.n_modes is not None and grid is not None
            and integ is not None and engine in ("quantum", "both")):
        limit = math.pi / (10.0 * bath.omega_max)
        step = integ.dt * grid.sample_every
        if step > limit * (1 + 1e-12):
            fail(f"grid.sample_every: quantum drive step dt*sample_every = "
                 f"{step:g} violates the bath sampling bound {limit:g}")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        seed=seed, model=model, initial=initial, integrator=integ,
        engine=engine, lyapunov=lyap, grid=grid, bath=bath, fit=fit,
        ehrenfest=ehren, superposition=weights,
        output_dir=output_dir, slug=slug,
        schema_version=SCHEMA_VERSION)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML (or JSON) experiment description."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except yaml.YAMLError as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from None
    return _parse_config(raw)


# ---------------------------------------------------------------------------
# output helpers

def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, header, columns):
    """17 significant digit CSV with LF line endings."""
    rows = zip(*columns)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


@dataclass
class RunRecord:
    """Persisted description of one executed experiment."""

    path: str
    config: dict
    manifest: dict
    results: dict
    checks: dict
    error: dict | None = None


def _run_dir(root, slug):
    """Create <root>/<utc-timestamp>-<slug>; root falls back to
    $DECOCHAOS_RUNS, then ./runs."""
    root = root or os.environ.get(OUTPUT_ROOT_ENV) or "runs"
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%S.%f")
    path = os.path.join(root, f"{stamp}-{slug}")
    os.makedirs(path, exist_ok=False)
    return path


def _write_record(rundir, started, config, files, results, checks,
                  error=None) -> RunRecord:
    """Checksum files into a manifest and write rundir/record.json."""
    record = RunRecord(
        path=rundir, config=config,
        manifest={os.path.relpath(p, rundir): _sha256(p) for p in files},
        results=_json_safe(results), checks=_json_safe(checks), error=error)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "wall_clock_seconds": time.perf_counter() - started,
        "config": record.config,
        "manifest": record.manifest,
        "results": record.results,
        "checks": record.checks,
        "error": record.error,
    }
    with open(os.path.join(rundir, "record.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


def _fit_to_dict(fit):
    if fit is None:
        return None
    out = {"kind": fit.kind, "exponent_or_rate": fit.exponent_or_rate,
           "r_squared": fit.r_squared, "window": list(fit.window),
           "log_amplitude": fit.log_amplitude, "ambiguous": fit.ambiguous}
    if fit.alternative is not None:
        alt = fit.alternative
        out["alternative"] = {"kind": alt.kind,
                              "exponent_or_rate": alt.exponent_or_rate,
                              "r_squared": alt.r_squared}
    return out


def _propagate_pair(model, z_raw, config):
    """Reference and displaced orbits plus their divergence series."""
    integ = config.integrator
    z0 = PhasePoint(*z_raw)
    traj = propagate(model, z0, integ.dt, integ.n_steps, integ.escape_radius)
    diam = position_diameter(traj)
    delta = config.initial.delta_z
    if delta is None:
        scale = DEFAULT_DELTA_SCALE * diam / 2.0
        delta = (scale, scale, scale, scale)
    traj2 = (propagate(model, z0 + PhasePoint(*delta), integ.dt,
                       integ.n_steps, integ.escape_radius)
             if any(delta) else traj)
    div = divergence_from_trajectories(traj, traj2)
    return z0, traj, traj2, diam, delta, div


def _classical_stage(config, rundir, results, checks, files):
    model = config.model.build()
    integ = config.integrator
    candidates = [config.initial.z, *config.initial.alternates]
    attempts = []
    chosen = None
    for z_raw in candidates:
        z0, traj, traj2, diam, delta, div = _propagate_pair(
            model, z_raw, config)
        sat = detect_saturation(div, diam)
        window = config.fit.window
        if window is None:
            t_end = sat if sat is not None else float(div.t[-1])
            window = (0.25 * t_end, t_end)
        fit = None
        if np.any(div.D > 0):
            try:
                fit = classify_scaling(div, window)
            except SimulationError:
                fit = None
        attempt = {"z": list(z_raw), "fit": _fit_to_dict(fit),
                   "flagged": False}
        expected = config.fit.expected_scaling
        if expected is not None and (fit is None or fit.kind != expected
                                     or fit.ambiguous):
            # likely too close to a periodic orbit; try the next candidate
            attempt["flagged"] = True
            attempts.append(attempt)
            chosen = (z0, traj, traj2, diam, delta, div, sat, fit)
            continue
        attempts.append(attempt)
        chosen = (z0, traj, traj2, diam, delta, div, sat, fit)
        break
    z0, traj, traj2, diam, delta, div, sat, fit = chosen
    results["attempts"] = attempts
    results["initial_z"] = [z0.qx, z0.qy, z0.px, z0.py]
    results["initial_energy"] = model.total_energy(z0)
    results["shell_diameter"] = diam
    results["delta_z"] = list(delta)
    results["saturation_time"] = sat
    results["divergence_fit"] = _fit_to_dict(fit)
    if config.fit.expected_scaling is not None:
        checks["expected_scaling"] = {
            "value": None if fit is None else fit.kind,
            "bound": config.fit.expected_scaling,
            "pass": fit is not None and fit.kind == config.fit.expected_scaling,
        }

    path = os.path.join(rundir, "trajectory.csv")
    write_csv(path, ["t", "qx", "qy", "px", "py", "energy"],
              [traj.t, traj.z[:, 0], traj.z[:, 1], traj.z[:, 2],
               traj.z[:, 3], traj.energy])
    files.append(path)
    path = os.path.join(rundir, "divergence.csv")
    write_csv(path, ["t", "D", "separation", "energy_drift"],
              [div.t, div.D, div.separation, div.energy_drift])
    files.append(path)

    drift = traj.energy_drift()
    results["energy_drift"] = drift
    checks["energy_drift"] = {"value": drift,
                              "bound": integ.energy_drift_bound,
                              "pass": drift <= integ.energy_drift_bound}

    if config.lyapunov is not None:
        lyap_dt = config.lyapunov.dt or integ.dt
        est = max_lyapunov(model, z0, lyap_dt, config.lyapunov.total_time,
                           config.lyapunov.renorm_interval, config.seed,
                           integ.escape_radius)
        results["lyapunov"] = {
            "lambda_max": est.lambda_max,
            "renorm_interval": est.renorm_interval,
            "total_time": est.total_time,
        }
        path = os.path.join(rundir, "lyapunov.csv")
        write_csv(path, ["t", "lambda_running"],
                  [est.convergence[:, 0], est.convergence[:, 1]])
        files.append(path)

    dd = DriveDifference.from_trajectories(traj, traj2)
    return model, z0, traj, diam, dd, div


def _gamma_stage(config, rundir, results, checks, files, dd, engine_label):
    if config.bath is None:
        return None
    bath_cfg = config.bath
    gamma = asymptotic_exponent(dd, bath_cfg.coupling, bath_cfg.temperature,
                                engine=engine_label)
    oracle = None
    if bath_cfg.n_modes is not None:
        sd = SpectralDensity(bath_cfg.coupling, bath_cfg.omega_max)
        bath = discretize_bath(sd, bath_cfg.n_modes)
        oracle = decoherence_exponent_oracle(bath, dd, bath_cfg.temperature,
                                             engine=engine_label)

    path = os.path.join(rundir, f"decoherence_{engine_label}.csv")
    if oracle is not None:
        write_csv(path, ["t", "gamma_asymptotic", "gamma_oracle", "engine"],
                  [gamma.t, gamma.gamma, oracle.gamma,
                   [engine_label] * gamma.t.size])
    else:
        write_csv(path, ["t", "gamma_asymptotic", "engine"],
                  [gamma.t, gamma.gamma, [engine_label] * gamma.t.size])
    files.append(path)

    results.setdefault("gamma", {})[engine_label] = {
        "final_t": float(gamma.t[-1]),
        "gamma_asymptotic_final": float(gamma.gamma[-1]),
        "gamma_oracle_final": None if oracle is None
        else float(oracle.gamma[-1]),
    }
    if oracle is not None and gamma.gamma[-1] > 0:
        rel = abs(oracle.gamma[-1] - gamma.gamma[-1]) / gamma.gamma[-1]
        results["gamma"][engine_label]["oracle_rel_diff"] = rel
        checks[f"oracle_vs_asymptotic_{engine_label}"] = {
            "value": rel, "bound": ORACLE_TOLERANCE,
            "pass": rel <= ORACLE_TOLERANCE}
    return gamma


def _quantum_stage(config, rundir, results, checks, files, model, z0, traj,
                   diam, delta):
    spec = config.grid
    grid = Grid2D(spec.nx, spec.ny, spec.lx, spec.ly, spec.hbar_eff)
    integ = config.integrator
    z1 = z0
    z2 = z0 + PhasePoint(*delta)
    series = {}
    for tag, z in (("z1", z1), ("z2", z2)):
        state = init_gaussian(grid, z, spec.widths)
        exp_series, final = propagate_wavepacket(
            state, model, integ.dt, integ.n_steps, spec.sample_every)
        series[tag] = exp_series
        path = os.path.join(rundir, f"expectations_{tag}.csv")
        write_csv(path, ["t", "mean_qx", "mean_qy", "var_qx", "var_qy"],
                  [exp_series.t, exp_series.mean_q[:, 0],
                   exp_series.mean_q[:, 1], exp_series.var_q[:, 0],
                   exp_series.var_q[:, 1]])
        files.append(path)
        if spec.save_snapshots:
            snap = os.path.join(rundir, f"psi_{tag}.bin")
            save_wavepacket(final, snap)
            files.extend([snap, snap + ".hdr"])

    threshold = config.ehrenfest.threshold
    if threshold is None:
        threshold = DEFAULT_THRESHOLD_FRACTION * diam
    t_break = ehrenfest_break_time(series["z1"], traj, threshold)
    results["ehrenfest_break_time"] = t_break
    results["ehrenfest_threshold"] = threshold

    if config.bath is not None:
        est = hartree_error(series["z1"], config.bath.coupling,
                            config.bath.omega_max, float(series["z1"].t[-1]))
        results["hartree_error"] = {"t": est.t, "value": est.value,
                                    "omega_max": est.omega_max,
                                    "warning": est.warning}
    dd_q = DriveDifference.from_expectations(series["z1"], series["z2"])
    return dd_q


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunRecord:
    """Execute every stage the config asks for and persist the results.

    Module failures are captured in the record (with whatever partial
    outputs already exist) rather than aborting the process.
    """
    return _run(config, out_dir)[0]


def _run(config, out_dir):
    """run_experiment, plus the divergence series and the classical
    asymptotic exponent it holds in memory (None if not computed)."""
    started = time.perf_counter()
    rundir = _run_dir(out_dir or config.output_dir,
                      config.slug or f"{config.model.family}-{config.engine}")
    files = []
    results = {}
    checks = {}
    error = None
    div = gamma = None

    snapshot_path = os.path.join(rundir, "config.snapshot")
    with open(snapshot_path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=True)
    files.append(snapshot_path)

    try:
        model, z0, traj, diam, dd, div = _classical_stage(
            config, rundir, results, checks, files)
        delta = results["delta_z"]
        if config.engine in ("classical", "both"):
            gamma = _gamma_stage(config, rundir, results, checks, files, dd,
                                 "classical")
        if config.engine in ("quantum", "both"):
            dd_q = _quantum_stage(config, rundir, results, checks, files,
                                  model, z0, traj, diam, delta)
            _gamma_stage(config, rundir, results, checks, files, dd_q,
                         "quantum")
    except SimulationError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}

    record = _write_record(rundir, started, config.to_dict(), files, results,
                           checks, error)
    return record, div, gamma


def compare_command(config_regular: ExperimentConfig,
                    config_chaotic: ExperimentConfig,
                    out_dir=None) -> RunRecord:
    """Run the paired experiments and compare their exponents.

    Preconditions: equal bath coupling and temperature, equal |delta_z|,
    and initial energies matching within 1 percent.
    """
    problems = []
    for cfg, name in ((config_regular, "regular"),
                      (config_chaotic, "chaotic")):
        if cfg.bath is None:
            problems.append(f"{name}: bath section is required to compare")
        if cfg.initial.delta_z is None:
            problems.append(f"{name}: explicit initial.delta_z is required")
        if cfg.engine == "quantum":
            problems.append(f"{name}: comparison fits need the classical "
                            f"engine (use classical or both)")
    if not problems:
        br, bc = config_regular.bath, config_chaotic.bath
        if br.coupling != bc.coupling:
            problems.append("matching rule violated: bath.coupling differs")
        if br.temperature != bc.temperature:
            problems.append("matching rule violated: bath.temperature differs")
        nr = math.sqrt(sum(v * v for v in config_regular.initial.delta_z))
        nc = math.sqrt(sum(v * v for v in config_chaotic.initial.delta_z))
        if not math.isclose(nr, nc, rel_tol=1e-9):
            problems.append("matching rule violated: |delta_z| differs")
        e_r = config_regular.model.build().total_energy(
            PhasePoint(*config_regular.initial.z))
        e_c = config_chaotic.model.build().total_energy(
            PhasePoint(*config_chaotic.initial.z))
        if abs(e_r - e_c) > 0.01 * max(abs(e_r), abs(e_c)):
            problems.append(
                f"matching rule violated: energies {e_r:g} and {e_c:g} "
                f"differ by more than 1%")
    if problems:
        raise ConfigError(problems)

    started = time.perf_counter()

    def regime(cfg, label):
        rec, div, gamma = _run(cfg, out_dir)
        if rec.error is not None:
            raise SimulationError(f"{label} run failed: {rec.error}")
        lam = (rec.results.get("lyapunov") or {}).get("lambda_max")
        recorded = rec.results.get("divergence_fit") or {}
        window = cfg.fit.window or (tuple(recorded["window"])
                                    if "window" in recorded else None)
        return rec.path, RegimeRun(label=label, gamma=gamma, divergence=div,
                                   lyapunov_max=lam, fit_window=window,
                                   ehrenfest_t_max=cfg.ehrenfest.t_max)

    reg_path, reg = regime(config_regular, "regular")
    cha_path, cha = regime(config_chaotic, "chaotic")
    comparison = compare_regimes(reg, cha, reg.gamma.t)

    # comparison artifacts live in their own run directory
    rundir = _run_dir(out_dir or config_chaotic.output_dir, "compare")
    files = []
    path = os.path.join(rundir, "gamma_ratio.csv")
    write_csv(path, ["t", "ratio"], [comparison.t, comparison.ratio])
    files.append(path)

    report = {
        "regular_run": reg_path,
        "chaotic_run": cha_path,
        "dominates": comparison.dominates,
        "t_star": comparison.t_star,
        "within_ehrenfest": comparison.within_ehrenfest,
        "regular_fit": _fit_to_dict(comparison.regular_fit),
        "chaotic_fit": _fit_to_dict(comparison.chaotic_fit),
        "lyapunov_regular": reg.lyapunov_max,
        "lyapunov_chaotic": cha.lyapunov_max,
        "ehrenfest_windows": {"regular": config_regular.ehrenfest.t_max,
                              "chaotic": config_chaotic.ehrenfest.t_max},
    }
    path = os.path.join(rundir, "comparison.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    files.append(path)

    checks = {
        "dominance": {"value": comparison.dominates, "bound": True,
                      "pass": bool(comparison.dominates)},
        "t_star_within_ehrenfest": {
            "value": comparison.t_star, "bound":
            report["ehrenfest_windows"], "pass":
            bool(comparison.within_ehrenfest)},
    }
    return _write_record(rundir, started,
                         {"regular": config_regular.to_dict(),
                          "chaotic": config_chaotic.to_dict()},
                         files, report, checks)
