"""Experiment orchestration: config files, runs, records.

One YAML config describes one experiment. Runs land in
``<output_root>/<timestamp>-<slug>/`` holding ``config.snapshot``,
``record.json`` and a CSV table per time grid, such as ``classical.csv``;
every file written by a run is checksummed in its record's manifest.
Identical config plus seed reproduces byte-identical numeric outputs.
"""
from __future__ import annotations

import contextlib
import datetime as _dt
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import sys
import tempfile
import time
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields

import numpy as np
import yaml

from . import __version__
from .bath import SpectralDensity, decoherence_exponent_oracle, discretize_bath
from .classical import (DEFAULT_ESCAPE_RADIUS, classify_scaling,
                        detect_saturation, divergence_from_trajectories,
                        max_lyapunov, position_diameter, propagate)
from .decoherence import (RegimeRun, asymptotic_exponent, compare_regimes,
                          hartree_error)
from .errors import ConfigError, DomainError, FitError, SimulationError
from .models import PhasePoint, make_model
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
DEFAULT_DELTA_SCALE = 1e-6      # |delta_z| as a fraction of shell diameter
DEFAULT_THRESHOLD_FRACTION = 0.05


def _real(value):
    """An int or float within the float range; a bool is not a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _path_text(value):
    """A str that os functions take as a path: fs-encodable, no NUL."""
    try:
        return isinstance(value, str) and b"\0" not in os.fsencode(value)
    except UnicodeEncodeError:
        return False


def _key(name):
    return name.rpartition(".")[2]


def _positive(mapping, name):
    """mapping[last part of name] as a positive finite float."""
    value = mapping.get(_key(name))
    if not (_real(value) and value > 0):
        raise ConfigError([f"{name}: must be a positive finite number"])
    return float(value)


def _integer(mapping, name, least):
    """mapping[last part of name] as an integer of at least ``least``."""
    value = mapping.get(_key(name))
    if not (isinstance(value, int) and not isinstance(value, bool)
            and value >= least):
        raise ConfigError([f"{name}: must be an integer >= {least}"])
    return value


def _count(mapping, name, least):
    """_integer whose largest array fits in sys.maxsize bytes, so that a
    count no array can hold is a ConfigError, not a numpy failure mid-run.
    Both counts size up to 32 bytes per unit: the (n_steps + 1) x 4 float
    orbit buffer and the oracle's chirp-z FFT buffer (bath._lag_kernel),
    under 2 (n_modes + lags) complex values."""
    value = _integer(mapping, name, least)
    if 32 * (value + 1) > sys.maxsize:
        raise ConfigError([f"{name}: {value} sizes an array of more than "
                           f"{sys.maxsize} bytes"])
    return value


def _defaults(spec, value, prefix=""):
    """The mapping value plus each field of the dataclass spec that it
    omits and that has a default value; one error per key not a field."""
    known = {f.name: f.default for f in fields(spec)}
    unknown = [f"unknown config key {prefix + str(key)!r}"
               for key in value if key not in known]
    return {**{k: v for k, v in known.items() if v is not MISSING},
            **value}, unknown


def _mapping(parent, name, spec, required=False):
    """The config section parent[name] with spec's defaults (_defaults), a
    required field it omits still absent; None if absent and optional."""
    value = parent.get(name)
    if value is None and not required:
        return None
    if not isinstance(value, dict):
        raise ConfigError([f"{name}: section is mandatory" if value is None
                           else f"{name}: must be a mapping"])
    value, unknown = _defaults(spec, value, f"{name}.")
    if unknown:
        raise ConfigError(unknown)
    return value


def _window(value, name):
    """A fit window [t_lo, t_hi] of finite numbers with t_lo < t_hi, as a
    tuple of floats; the rule for fit.window and for fit --window."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(_real, value)) and value[0] < value[1]):
        raise ConfigError([f"{name}: need [t_lo, t_hi] with t_lo < t_hi"])
    return (float(value[0]), float(value[1]))


def _point(value):
    """A list of four numbers as a tuple of floats; PhasePoint checks
    the numbers."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"need a list of 4 numbers, got {value!r}")
    return astuple(PhasePoint(*value))


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: dict = field(default_factory=dict)     # sorted by name
    mass: float = 1.0

    def build(self):
        return make_model(self.family, self.params, self.mass)


@dataclass(frozen=True)
class InitialSpec:
    z: tuple
    delta_z: tuple | None = None
    alternates: tuple = ()      # fallback z values for flagged ICs


@dataclass(frozen=True)
class IntegratorSpec:
    dt: float
    n_steps: int
    escape_radius: float = DEFAULT_ESCAPE_RADIUS
    energy_drift_bound: float = 1e-6


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
    widths: tuple
    hbar_eff: float = 1.0
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
    slug: str | None = None
    schema_version: int = SCHEMA_VERSION

    def orbit(self, model, z0):
        """The orbit of z0 by the integrator section."""
        integ = self.integrator
        return propagate(model, z0, integ.dt, integ.n_steps,
                         integ.escape_radius)

    def lyapunov_estimate(self, model, z0):
        """max_lyapunov of z0 by the lyapunov section, stepping at its dt,
        else integrator.dt, with the config's seed and escape radius."""
        ly, integ = self.lyapunov, self.integrator
        return max_lyapunov(model, z0, ly.dt or integ.dt, ly.total_time,
                            ly.renorm_interval, self.seed, integ.escape_radius)


def _parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw config mapping, aggregating every violation.

    Each section validates by building the objects it configures (the
    model, phase points, Grid2D, SpectralDensity); the first violation
    in a section, a TypeError or ValueError included, becomes one entry
    of the ConfigError. The rules that join sections live here.
    """
    if not isinstance(data, dict):
        raise ConfigError(["config root must be a mapping"])
    data, errors = _defaults(ExperimentConfig, data)

    @contextlib.contextmanager
    def section(name):
        try:
            yield
        except ConfigError as exc:
            errors.extend(exc.errors)
        except (TypeError, ValueError) as exc:
            errors.append(f"{name}: {exc}")

    version = data["schema_version"]
    if version != SCHEMA_VERSION:
        errors.append(f"schema_version {version!r} unsupported; this build "
                      f"reads {SCHEMA_VERSION}")
    engine = data["engine"]
    if engine not in ENGINES:
        errors.append(f"engine: {engine!r} not one of {ENGINES}")
    slug = data["slug"]
    if slug is not None and not (_path_text(slug) and not any(
            s in slug for s in ("/", "\\", ".."))):
        errors.append("slug: must be a path string without '/', '\\', '..' "
                      "or NUL")
    elif slug is not None and len(os.fsencode(slug)) > 232:
        # a file name holds 255 bytes: <22-character stamp>-<slug>
        errors.append("slug: must be at most 232 bytes")

    seed = model = initial = integ = lyap = grid = bath = None
    fit, ehren = FitSpec(), EhrenfestSpec()
    with section("seed"):
        seed = _integer(data, "seed", 0)

    with section("model"):
        m = _mapping(data, "model", ModelSpec, required=True)
        # a free mapping, whose names and values make_model checks
        params = {} if m.get("params") is None else m["params"]
        if not isinstance(params, dict):
            raise ConfigError(["model.params: must be a mapping"])
        make_model(m.get("family"), params, m["mass"])
        model = ModelSpec(m.get("family"), dict(sorted(
            (k, float(v)) for k, v in params.items())), float(m["mass"]))

    with section("initial"):
        ini = _mapping(data, "initial", InitialSpec, required=True)
        if not isinstance(ini["alternates"], (list, tuple)):
            raise ConfigError(["initial.alternates: must be a list of "
                               "points"])
        initial = InitialSpec(
            _point(ini.get("z")),
            None if ini["delta_z"] is None else _point(ini["delta_z"]),
            tuple(map(_point, ini["alternates"])))

    with section("integrator"):
        it = _mapping(data, "integrator", IntegratorSpec, required=True)
        integ = IntegratorSpec(
            _positive(it, "integrator.dt"),
            _count(it, "integrator.n_steps", 1),
            _positive(it, "integrator.escape_radius"),
            _positive(it, "integrator.energy_drift_bound"))

    with section("lyapunov"):
        ly = _mapping(data, "lyapunov", LyapunovSpec)
        if ly is not None:
            own_dt = None if ly["dt"] is None else _positive(ly, "lyapunov.dt")
            total, renorm = ly.get("total_time"), ly.get("renorm_interval")
            # no step: integrator.dt failed, and the 100*dt part with it
            step = own_dt or (integ and integ.dt)
            if not (_real(total) and _real(renorm) and total >= 10 * renorm > 0
                    and (step is None or 10 * renorm >= 100 * step)):
                raise ConfigError(["lyapunov: need total_time >= "
                                   "10*renorm_interval >= 100*dt"])
            # the convergence history holds two floats per block
            if 16 * (total / renorm) > sys.maxsize:
                raise ConfigError([f"lyapunov: total_time/renorm_interval "
                                   f"blocks size an array of more than "
                                   f"{sys.maxsize} bytes"])
            if step is not None and total / step > sys.maxsize:
                raise ConfigError([f"lyapunov: total_time/dt is more than "
                                   f"{sys.maxsize} steps"])
            lyap = LyapunovSpec(float(total), float(renorm), own_dt)

    with section("grid"):
        g = _mapping(data, "grid", GridSpec)
        if g is None and engine in ("quantum", "both"):
            raise ConfigError(["grid: section is mandatory for quantum "
                               "engines"])
        if g is not None:
            box = Grid2D(g.get("nx"), g.get("ny"), g.get("lx"), g.get("ly"),
                         g["hbar_eff"])
            widths = box.gaussian_widths(g.get("widths"))
            every = _integer(g, "grid.sample_every", 1)
            if integ and integ.n_steps % every != 0:
                raise ConfigError(["grid.sample_every: must divide "
                                   "integrator.n_steps"])
            if not isinstance(g["save_snapshots"], bool):
                raise ConfigError(["grid.save_snapshots: must be true or "
                                   "false"])
            grid = GridSpec(box.nx, box.ny, box.lx, box.ly, widths, box.hbar,
                            every, g["save_snapshots"])

    with section("bath"):
        b = _mapping(data, "bath", BathSpec)
        if b is not None:
            sd = SpectralDensity(b.get("coupling"), b.get("omega_max"))
            temperature = _positive(b, "bath.temperature")
            n_modes = (None if b["n_modes"] is None
                       else _count(b, "bath.n_modes", 2))
            if integ is not None:
                sd.check_drive_step(integ.dt, "integrator.dt")
            if (n_modes is not None and grid is not None and integ is not None
                    and engine in ("quantum", "both")):
                sd.check_drive_step(integ.dt * grid.sample_every,
                                    "grid.sample_every: quantum drive step "
                                    "dt*sample_every")
            if n_modes is not None and integ is not None:
                # the discrete bath's lag kernel returns after 2 pi / d omega
                span = integ.n_steps * integ.dt
                recur = 2.0 * math.pi * n_modes / sd.omega_max
                if span >= recur:
                    raise ConfigError([
                        f"bath.n_modes: {n_modes} modes recur at "
                        f"2*pi*n_modes/omega_max = {recur:g}, within the "
                        f"run's n_steps*dt = {span:g}"])
            bath = BathSpec(float(sd.coupling), float(sd.omega_max),
                            temperature, n_modes)

    with section("fit"):
        f = _mapping(data, "fit", FitSpec)
        if f is not None:
            window = f["window"]
            window = None if window is None else _window(window, "fit.window")
            if f["expected_scaling"] not in (None, "power_law", "exponential"):
                raise ConfigError(["fit.expected_scaling: must be power_law "
                                   "or exponential"])
            fit = FitSpec(window, f["expected_scaling"])

    with section("ehrenfest"):
        e = _mapping(data, "ehrenfest", EhrenfestSpec)
        if e is not None:
            ehren = EhrenfestSpec(*(
                None if e[k] is None else _positive(e, f"ehrenfest.{k}")
                for k in ("t_max", "threshold")))

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        seed=seed, model=model, initial=initial, integrator=integ,
        engine=engine, lyapunov=lyap, grid=grid, bath=bath, fit=fit,
        ehrenfest=ehren, slug=slug)


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse and validate a YAML (or JSON) experiment description, each
    top-level key in ``overrides`` replacing the file's before validation."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from None
    try:
        return _parse_config({**raw, **overrides} if isinstance(raw, dict)
                             else raw)
    except ConfigError as exc:
        raise ConfigError(exc.errors, path) from None


# ---------------------------------------------------------------------------
# output helpers

def _beside(here, there, *args):
    """(here(), there(*args)), with there(*args) run in a forked child
    process while here() runs in this one; the child's result or exception
    comes back pickled. The child is reaped also when here() fails, whose
    exception is raised first, then the child's, then a ChildProcessError
    if the child died without a result. Fork only while no other thread
    runs. Without os.fork, here() runs, then there(*args), in this process."""
    if not hasattr(os, "fork"):
        return here(), there(*args)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                outcome = True, there(*args)
            except BaseException as exc:    # raised again in the parent
                outcome = False, exc
            with open(write_end, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)    # never back into the caller's stack
    os.close(write_end)
    try:
        mine = here()
    finally:
        # read to the end before waiting: the child blocks on a result
        # larger than the pipe buffer until it is read
        with open(read_end, "rb") as pipe:
            data = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise ChildProcessError(f"forked {there.__name__} ended with exit "
                                f"code {status} and no result")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return mine, theirs


def write_csv(path, header, columns):
    """17 significant digit CSV of numeric columns with LF line endings.

    A forked child (_beside) formats the second half of the rows into an
    unlinked temporary file beside path while this process writes the
    header and the first half, then appends the child's half: the bytes
    of formatting every row in order.
    """
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError(f"{path}: columns of unequal length")
    text = {"encoding": "ascii", "newline": "\n"}

    def rows(fh, start, stop):
        fh.writelines(row % values for values in
                      zip(*(column[start:stop] for column in columns)))
        fh.flush()

    with open(path, "w", **text) as fh, tempfile.TemporaryFile(
            "w+", dir=os.path.dirname(path) or ".", **text) as tail:
        def first_half():    # after the fork: the child gets a clean fh
            fh.write(",".join(header) + "\n")
            rows(fh, 0, n // 2)

        _beside(first_half, rows, tail, n // 2, n)
        tail.seek(0)
        shutil.copyfileobj(tail, fh)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class RunRecord:
    """One run: its directory, <root>/<utc-timestamp>-<slug>, and the
    tables, results and checks put in it; ``record`` writes the tables
    and record.json and returns the run. root falls back to
    $DECOCHAOS_RUNS, then ./runs; the wall clock starts at ``started``,
    else now. classical_gamma, the classical asymptotic exponent that
    compare reads, is held in memory only (None if not computed)."""

    def __init__(self, root, slug, started=None):
        self.started = time.perf_counter() if started is None else started
        root = root or os.environ.get(OUTPUT_ROOT_ENV) or "runs"
        while True:
            stamp = _dt.datetime.now(_dt.timezone.utc).strftime(
                "%Y%m%dT%H%M%S.%f")
            self.path = os.path.join(root, f"{stamp}-{slug}")
            # a run of the same slug in another process, such as compare's
            # forked sub-run, may take this microsecond: try the next one
            with contextlib.suppress(FileExistsError):
                os.makedirs(self.path)
                break
        self.tables, self.results, self.checks = {}, {}, {}
        self.manifest = self.error = self.classical_gamma = None

    def columns(self, name, t, **columns):
        """Add named columns to table ``name``; its first ``t`` is kept."""
        self.tables.setdefault(name, {"t": t}).update(columns)

    def check(self, name, value, bound, passed):
        self.checks[name] = {"value": value, "bound": bound,
                             "pass": bool(passed)}

    def record(self, error=None) -> RunRecord:
        """Write the tables, then record.json with the manifest of every
        other file in the directory; the written tables are let go."""
        try:
            for name, table in self.tables.items():
                write_csv(os.path.join(self.path, name), list(table),
                          list(table.values()))
        except ChildProcessError as exc:    # a forked write_csv half died
            error = error or {"type": type(exc).__name__, "message": str(exc)}
        self.tables = {}
        self.error = error
        self.manifest = {name: _sha256(os.path.join(self.path, name))
                         for name in sorted(os.listdir(self.path))
                         if name != "record.json"}
        payload = {
            "schema_version": SCHEMA_VERSION,
            "package_version": __version__,
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
            "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "wall_clock_seconds": time.perf_counter() - self.started,
            **{k: getattr(self, k) for k in ("manifest", "results", "checks",
                                             "error")},
        }
        with open(os.path.join(self.path, "record.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            # numpy scalars and arrays as the Python numbers they hold
            json.dump(payload, fh, indent=2, sort_keys=True,
                      default=lambda o: o.tolist())
            fh.write("\n")
        return self


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


@dataclass
class _OrbitPair:
    """The chosen start z0 of a run, its orbit, the drive difference to the
    displaced partner orbit, and what the run derives from them."""

    model: object
    z0: PhasePoint
    traj: object
    dd: DriveDifference
    diam: float
    delta: tuple
    div: object
    fit: object
    attempts: list


def _scales_with(diam, key):
    """Refuse a default for key that would scale with a zero diameter: a
    start at rest at a fixed point."""
    if diam == 0.0:
        raise DomainError(f"{key}: the shell diameter of the start is 0, "
                          f"so its default would be 0; set {key}")


def _classical_pair(config, window=None) -> _OrbitPair:
    """The orbit pair of the first start, among initial.z and its
    alternates, whose growth-law fit expected_scaling does not flag (the
    last start if every one is flagged), and that fit.

    A flagged start is likely too close to a periodic orbit. The fit
    window is ``window``, else fit.window, else classify_scaling's
    saturation-aware default; a FitError means no fit (None).
    """
    model = config.model.build()
    expected = config.fit.expected_scaling
    attempts = []
    for z_raw in (config.initial.z, *config.initial.alternates):
        z0 = PhasePoint(*z_raw)
        traj = config.orbit(model, z0)
        diam = position_diameter(traj)
        delta = config.initial.delta_z
        if delta is None:
            _scales_with(diam, "initial.delta_z")
            scale = DEFAULT_DELTA_SCALE * diam / 2.0
            delta = (scale, scale, scale, scale)
        traj2 = (config.orbit(model, z0 + PhasePoint(*delta)) if any(delta)
                 else traj)
        dd = DriveDifference.from_trajectories(traj, traj2)
        div = divergence_from_trajectories(model, traj, traj2, dd)
        del traj2    # spent; freed before the fit's temporaries
        try:
            fit = classify_scaling(div, window or config.fit.window, diam)
        except FitError:
            fit = None
        flagged = expected is not None and (
            fit is None or fit.kind != expected or fit.ambiguous)
        attempts.append({"z": list(z_raw), "fit": _fit_to_dict(fit),
                         "flagged": flagged})
        if not flagged:
            break
    return _OrbitPair(model, z0, traj, dd, diam, delta, div, fit, attempts)


def _classical_stage(config, run, pair):
    """Record the pair's orbit, divergence, fit and energy drift (of both
    orbits), and Lyapunov estimate if set."""
    integ = config.integrator
    z0, traj, div, fit = pair.z0, pair.traj, pair.div, pair.fit
    run.results.update(
        attempts=pair.attempts, initial_z=[z0.qx, z0.qy, z0.px, z0.py],
        initial_energy=pair.model.total_energy(z0),
        shell_diameter=pair.diam, delta_z=list(pair.delta),
        saturation_time=detect_saturation(div, pair.diam),
        divergence_fit=_fit_to_dict(fit))
    expected = config.fit.expected_scaling
    if expected is not None:
        run.check("expected_scaling", None if fit is None else fit.kind,
                  expected, fit is not None and fit.kind == expected)

    run.columns("classical.csv", t=traj.t, qx=traj.z[:, 0], qy=traj.z[:, 1],
                px=traj.z[:, 2], py=traj.z[:, 3], energy=traj.energy, D=div.D,
                separation=div.separation, energy_drift=div.energy_drift)

    drift = run.results["energy_drift"] = float(np.max(div.energy_drift))
    run.check("energy_drift", drift, integ.energy_drift_bound,
              drift <= integ.energy_drift_bound)

    if config.lyapunov is not None:
        est = config.lyapunov_estimate(pair.model, z0)
        run.results["lyapunov"] = {
            "lambda_max": est.lambda_max,
            "renorm_interval": est.renorm_interval,
            "total_time": est.total_time,
        }
        # the paper's claim: an exponential divergence grows at 2 lambda
        if fit and fit.kind == "exponential" and est.lambda_max > 0:
            run.results["rate_over_2lambda"] = (fit.exponent_or_rate
                                                / (2.0 * est.lambda_max))
        run.columns("lyapunov.csv", t=est.convergence[:, 0],
                    lambda_running=est.convergence[:, 1])


def _gamma_stage(config, run, dd, engine_label):
    if config.bath is None:
        return None
    bath_cfg = config.bath
    gamma = asymptotic_exponent(dd, bath_cfg.coupling, bath_cfg.temperature)
    oracle = None
    if bath_cfg.n_modes is not None:
        sd = SpectralDensity(bath_cfg.coupling, bath_cfg.omega_max)
        bath = discretize_bath(sd, bath_cfg.n_modes)
        oracle = decoherence_exponent_oracle(bath, dd, bath_cfg.temperature)

    run.columns(f"{engine_label}.csv", t=gamma.t, gamma_asymptotic=gamma.gamma,
                **({} if oracle is None else {"gamma_oracle": oracle.gamma}))

    summary = run.results.setdefault("gamma", {})[engine_label] = {
        "final_t": float(gamma.t[-1]),
        "gamma_asymptotic_final": float(gamma.gamma[-1]),
        "gamma_oracle_final": None if oracle is None
        else float(oracle.gamma[-1]),
    }
    if oracle is not None and gamma.gamma[-1] > 0:
        rel = abs(oracle.gamma[-1] - gamma.gamma[-1]) / gamma.gamma[-1]
        summary["oracle_rel_diff"] = rel
        run.check(f"oracle_vs_asymptotic_{engine_label}", rel,
                  ORACLE_TOLERANCE, rel <= ORACLE_TOLERANCE)
    return gamma


def _quantum_stage(config, run, pair):
    threshold = config.ehrenfest.threshold
    if threshold is None:
        _scales_with(pair.diam, "ehrenfest.threshold")
        threshold = DEFAULT_THRESHOLD_FRACTION * pair.diam
    spec = config.grid
    grid = Grid2D(spec.nx, spec.ny, spec.lx, spec.ly, spec.hbar_eff)
    steps = (pair.model, config.integrator.dt, config.integrator.n_steps,
             spec.sample_every)
    states = {tag: init_gaussian(grid, z, spec.widths) for tag, z in (
        ("z1", pair.z0), ("z2", pair.z0 + PhasePoint(*pair.delta)))}

    def settle(tag, exp_series, final):
        """Record a packet's columns and snapshot; return its series."""
        mean, var = exp_series.mean_q, exp_series.var_q
        run.columns("quantum.csv", t=exp_series.t, **{
            f"{tag}_mean_qx": mean[:, 0], f"{tag}_mean_qy": mean[:, 1],
            f"{tag}_var_qx": var[:, 0], f"{tag}_var_qy": var[:, 1]})
        if spec.save_snapshots:
            save_wavepacket(final, os.path.join(run.path, f"psi_{tag}.bin"))
        return exp_series

    # the packets are independent: z2 advances in a forked child while z1
    # advances and settles here, so a failing z2 leaves z1's columns
    z1, packet = _beside(lambda: settle("z1", *propagate_wavepacket(
        states["z1"], *steps)), propagate_wavepacket, states["z2"], *steps)
    z2 = settle("z2", *packet)

    run.results.update(ehrenfest_break_time=ehrenfest_break_time(
        z1, pair.traj, threshold), ehrenfest_threshold=threshold)

    if config.bath is not None:
        est = hartree_error(z1, config.bath.coupling, config.bath.omega_max,
                            float(z1.t[-1]))
        run.results["hartree_error"] = asdict(est)
    return DriveDifference.from_expectations(z1, z2)


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunRecord:
    """Execute every stage the config asks for and persist the results.

    Module failures are captured in the record (with whatever partial
    outputs already exist) rather than aborting the process.
    """
    run = RunRecord(out_dir,
                    config.slug or f"{config.model.family}-{config.engine}")
    error = None

    with open(os.path.join(run.path, "config.snapshot"), "w",
              encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(asdict(config), fh, sort_keys=True)

    try:
        pair = _classical_pair(config)
        _classical_stage(config, run, pair)
        if config.engine in ("classical", "both"):
            run.classical_gamma = _gamma_stage(config, run, pair.dd,
                                               "classical")
        if config.engine in ("quantum", "both"):
            _gamma_stage(config, run, _quantum_stage(config, run, pair),
                         "quantum")
    except (SimulationError, MemoryError, OverflowError,
            ChildProcessError) as exc:
        # ChildProcessError: a forked helper (_beside) died without a result
        error = {"type": type(exc).__name__, "message": str(exc)}
    return run.record(error)


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
        (nr, e_r), (nc, e_c) = (
            (math.sqrt(sum(v * v for v in cfg.initial.delta_z)),
             cfg.model.build().total_energy(PhasePoint(*cfg.initial.z)))
            for cfg in (config_regular, config_chaotic))
        if not math.isclose(nr, nc, rel_tol=1e-9):
            problems.append("matching rule violated: |delta_z| differs")
        if abs(e_r - e_c) > 0.01 * max(abs(e_r), abs(e_c)):
            problems.append(
                f"matching rule violated: energies {e_r:g} and {e_c:g} "
                f"differ by more than 1%")
    if problems:
        raise ConfigError(problems)

    started = time.perf_counter()
    # the chaotic sub-run runs in a forked child beside the regular one
    try:
        regular, chaotic = _beside(
            lambda: run_experiment(config_regular, out_dir), run_experiment,
            config_chaotic, out_dir)
    except ChildProcessError as exc:
        raise SimulationError(f"chaotic run failed: {exc}") from None
    report = {}

    def regime(cfg, label, rec):
        # the sub-run's record holds its growth-law fit and Lyapunov estimate
        if rec.error is not None:
            raise SimulationError(f"{label} run failed: {rec.error}")
        report[f"{label}_run"] = rec.path
        report[f"{label}_fit"] = rec.results["divergence_fit"]
        report[f"lyapunov_{label}"] = rec.results.get(
            "lyapunov", {}).get("lambda_max")
        return RegimeRun(label=label, gamma=rec.classical_gamma,
                         ehrenfest_t_max=cfg.ehrenfest.t_max)

    reg = regime(config_regular, "regular", regular)
    cha = regime(config_chaotic, "chaotic", chaotic)
    comparison = compare_regimes(reg, cha, reg.gamma.t)

    # comparison artifacts live in their own run directory
    run = RunRecord(out_dir, "compare", started)
    run.columns("gamma_ratio.csv", t=comparison.t, ratio=comparison.ratio)
    windows = {"regular": config_regular.ehrenfest.t_max,
               "chaotic": config_chaotic.ehrenfest.t_max}
    run.results.update(report, dominates=comparison.dominates,
                       t_star=comparison.t_star,
                       within_ehrenfest=comparison.within_ehrenfest,
                       ehrenfest_windows=windows)
    run.check("dominance", comparison.dominates, True, comparison.dominates)
    run.check("t_star_within_ehrenfest", comparison.t_star, windows,
              comparison.within_ehrenfest)
    return run.record()
