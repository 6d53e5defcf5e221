"""Uniformly sampled time series shared by the simulation modules."""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError

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
        raise GridMismatchError("series are sampled on different time grids")


def _finite_real(value) -> bool:
    """An int or float within the float range; a bool is not a number."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_count(name, n, least=1):
    """The library's count rule: an integer >= least; a bool is not a
    number."""
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")


def _check_step(dt, n_steps):
    """The integrators' step rule: dt a positive finite number and
    n_steps a count (_check_count)."""
    if not (_finite_real(dt) and dt > 0):
        raise DomainError(f"dt must be a positive finite number, got {dt!r}")
    _check_count("n_steps", n_steps)


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
        self.t = np.asarray(self.t, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        if self.z.shape != (self.t.size, 4):
            raise DomainError("trajectory z must have shape (n, 4)")
        if self.energy.shape != self.t.shape:
            raise DomainError("trajectory energy must match the time grid")
        uniform_dt(self.t)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def positions(self) -> np.ndarray:
        return self.z[:, :2]

    def energy_drift(self) -> float:
        """Max relative energy deviation from the initial value."""
        e0 = self.energy[0]
        scale = max(abs(e0), 1e-300)
        return float(np.max(np.abs(self.energy - e0)) / scale)


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
        self.t = np.asarray(self.t, dtype=float)
        self.mean_q = np.asarray(self.mean_q, dtype=float)
        self.var_q = np.asarray(self.var_q, dtype=float)
        n = self.t.size
        if self.mean_q.shape != (n, 2) or self.var_q.shape != (n, 2):
            raise DomainError("expectation series must have (n, 2) moments")
        if np.any(self.var_q < 0):
            raise DomainError("position variances must be non-negative")
        uniform_dt(self.t)


@dataclass
class DivergenceSeries:
    """Running integral D(t) of the squared position separation of two
    adjacent orbits, plus per-sample diagnostics."""

    t: np.ndarray
    D: np.ndarray
    separation: np.ndarray | None = None   # 4D phase-space distance
    energy_drift: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.D = np.asarray(self.D, dtype=float)
        if self.D.shape != self.t.shape:
            raise DomainError("divergence D must match the time grid")
        if not np.all(np.isfinite(self.D)):
            raise DomainError("divergence D must be finite")
        uniform_dt(self.t)
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
        self.t = np.asarray(self.t, dtype=float)
        self.df_x = np.asarray(self.df_x, dtype=float)
        self.df_y = np.asarray(self.df_y, dtype=float)
        if self.df_x.shape != self.t.shape or self.df_y.shape != self.t.shape:
            raise DomainError("drive difference components must match grid")
        uniform_dt(self.t)

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
        self.t = np.asarray(self.t, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.gamma.shape != self.t.shape:
            raise DomainError("gamma must match the time grid")
        if self.source not in self._SOURCES:
            raise DomainError(f"source must be one of {self._SOURCES}")
        uniform_dt(self.t)
        if np.any(self.gamma < 0):
            raise DomainError("decoherence exponent must be non-negative")
        if self.source == "asymptotic" and np.any(np.diff(self.gamma) < 0):
            raise DomainError("asymptotic exponent must be non-decreasing")
