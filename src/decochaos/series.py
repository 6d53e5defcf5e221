"""Uniformly sampled time series shared by the simulation modules."""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError

__all__ = [
    "Trajectory",
    "ExpectationSeries",
    "DivergenceSeries",
    "DriveDifference",
    "DecoherenceSeries",
    "uniform_dt",
    "cumulative_trapezoid",
]

_GRID_RTOL = 1e-9


def uniform_dt(t: np.ndarray) -> float:
    """Return the step of a uniform time grid, or raise."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise DomainError("time grid needs at least two samples")
    steps = np.diff(t)
    dt = float(steps[0])
    if dt <= 0 or not np.allclose(steps, dt, rtol=_GRID_RTOL, atol=0.0):
        raise DomainError("time grid must be uniform with positive step")
    return dt


def same_grid(ta: np.ndarray, tb: np.ndarray) -> None:
    if ta.shape != tb.shape or not np.allclose(ta, tb, rtol=_GRID_RTOL,
                                               atol=1e-12):
        raise DomainError("series are sampled on different time grids")


def _finite_real(value) -> bool:
    """An int or float within the float range; a bool is not a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_real(name, value):
    """The library's number rule: a finite real (_finite_real)."""
    if not _finite_real(value):
        raise DomainError(f"{name} must be a finite real number, "
                          f"got {value!r}")


def _check_positive(name, value):
    """The library's positive-number rule: a finite real above 0."""
    if not (_finite_real(value) and value > 0):
        raise DomainError(f"{name} must be a positive finite number, "
                          f"got {value!r}")


def _check_count(name, n, least=1):
    """The library's count rule: an integer >= least; a bool is not a
    number."""
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")


def _check_step(dt, n_steps):
    """The integrators' step rule: dt positive (_check_positive) and
    n_steps a count (_check_count)."""
    _check_positive("dt", dt)
    _check_count("n_steps", n_steps)


def _sampled(series, **shapes):
    """Make series.t and each column in shapes float arrays holding one
    sample of the column's trailing shape per time of a uniform grid; an
    optional column (its field defaults to None) may be None."""
    optional = {f.name for f in fields(series) if f.default is None}
    series.t = np.asarray(series.t, dtype=float)
    for name, shape in shapes.items():
        column = getattr(series, name)
        if column is None and name in optional:
            continue
        column = np.asarray(column, dtype=float)
        if column.shape != (series.t.size, *shape):
            raise DomainError(f"{type(series).__name__}.{name} must have "
                              f"shape {(series.t.size, *shape)}, got "
                              f"{column.shape}")
        setattr(series, name, column)
    uniform_dt(series.t)


def cumulative_trapezoid(y: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral of y on a uniform grid, starting at 0."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (y[1:] + y[:-1]), out=out[1:])
    return out


@dataclass
class Trajectory:
    """A classical orbit: times, phase-space samples and total energy."""

    t: np.ndarray          # (n,)
    z: np.ndarray          # (n, 4) rows (qx, qy, px, py)
    energy: np.ndarray     # (n,)

    def __post_init__(self):
        _sampled(self, z=(4,), energy=())

    @property
    def positions(self) -> np.ndarray:
        return self.z[:, :2]


@dataclass
class ExpectationSeries:
    """Sampled wavepacket moments: position means and variances.

    Momentum moments are optional; they exist only to check the
    uncertainty product and are None unless tracked.
    """

    t: np.ndarray                     # (n,)
    mean_q: np.ndarray                # (n, 2)
    var_q: np.ndarray                 # (n, 2)
    mean_p: np.ndarray | None = None  # (n, 2)
    var_p: np.ndarray | None = None   # (n, 2)

    def __post_init__(self):
        _sampled(self, mean_q=(2,), var_q=(2,), mean_p=(2,), var_p=(2,))
        for var in (self.var_q, self.var_p):
            if var is not None and np.any(var < 0):
                raise DomainError("variances must be non-negative")


@dataclass
class DivergenceSeries:
    """Running integral D(t) of the squared position separation of two
    adjacent orbits, plus per-sample diagnostics."""

    t: np.ndarray
    D: np.ndarray
    separation: np.ndarray | None = None   # 4D phase-space distance
    energy_drift: np.ndarray | None = None

    def __post_init__(self):
        _sampled(self, D=(), separation=(), energy_drift=())
        if not np.all(np.isfinite(self.D)):
            raise DomainError("divergence D must be finite")
        if self.D[0] != 0.0:
            raise DomainError("divergence integral must start at zero")
        if np.any(np.diff(self.D) < 0):
            raise DomainError("divergence integral must be non-decreasing")


@dataclass
class DriveDifference:
    """Difference of the two mean-position drives seen by the bath."""

    t: np.ndarray
    df_x: np.ndarray
    df_y: np.ndarray

    def __post_init__(self):
        _sampled(self, df_x=(), df_y=())

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @classmethod
    def from_trajectories(cls, a: Trajectory, b: Trajectory):
        """Drive difference b - a from two classical orbits."""
        same_grid(a.t, b.t)
        return cls(a.t.copy(), b.z[:, 0] - a.z[:, 0], b.z[:, 1] - a.z[:, 1])

    @classmethod
    def from_expectations(cls, a: ExpectationSeries, b: ExpectationSeries):
        """Drive difference b - a from two wavepacket expectation series."""
        same_grid(a.t, b.t)
        return cls(a.t.copy(), b.mean_q[:, 0] - a.mean_q[:, 0],
                   b.mean_q[:, 1] - a.mean_q[:, 1])

    def squared_magnitude(self) -> np.ndarray:
        return self.df_x ** 2 + self.df_y ** 2


@dataclass
class DecoherenceSeries:
    """Exponent gamma(t) = -ln |coherence factor| versus time.

    source is "asymptotic" (high-temperature integral formula) or
    "oracle" (exact discrete-bath mode sum).
    """

    t: np.ndarray
    gamma: np.ndarray
    source: str

    _SOURCES = ("asymptotic", "oracle")

    def __post_init__(self):
        _sampled(self, gamma=())
        if self.source not in self._SOURCES:
            raise DomainError(f"source must be one of {self._SOURCES}")
        if np.any(self.gamma < 0):
            raise DomainError("decoherence exponent must be non-negative")
        if self.source == "asymptotic" and np.any(np.diff(self.gamma) < 0):
            raise DomainError("asymptotic exponent must be non-decreasing")
