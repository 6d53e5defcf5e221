"""Symplectic propagation, tangent dynamics and orbit-divergence analysis.

The integrator is a fixed-step fourth-order composition of leapfrog
stages (Yoshida's triple jump): explicit, symplectic and time-reversible,
so energy errors stay bounded over the long windows the scaling fits need.
Tangent vectors are advanced with the exact Jacobian of each integrator
substep, which keeps the linearized map symplectic to roundoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EscapeError, FitError
from .models import HamiltonianModel, PhasePoint
from .series import DivergenceSeries, Trajectory, cumulative_trapezoid

__all__ = [
    "DEFAULT_ESCAPE_RADIUS",
    "TangentSeries",
    "LyapunovEstimate",
    "ScalingFit",
    "propagate",
    "propagate_tangent",
    "max_lyapunov",
    "divergence_integral",
    "divergence_from_trajectories",
    "classify_scaling",
    "detect_saturation",
    "position_diameter",
]

DEFAULT_ESCAPE_RADIUS = 1e3

# Yoshida fourth-order composition of drift-kick-drift leapfrog stages.
_CBRT2 = 2.0 ** (1.0 / 3.0)
_W1 = 1.0 / (2.0 - _CBRT2)
_W0 = 1.0 - 2.0 * _W1
_C1 = 0.5 * _W1
_C2 = 0.5 * (_W1 + _W0)
# step = drift(_C1) kick(_W1) drift(_C2) kick(_W0) drift(_C2) kick(_W1) drift(_C1)


def _validate_step_args(dt, n_steps):
    if not (isinstance(dt, (int, float)) and math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be a positive finite number, got {dt!r}")
    if not (isinstance(n_steps, int) and n_steps >= 1):
        raise DomainError(f"n_steps must be an integer >= 1, got {n_steps!r}")


def _escape(t, qx, qy, px, py, buf, i, model):
    state = PhasePoint(qx, qy, px, py) if all(
        map(math.isfinite, (qx, qy, px, py))) else None
    partial = None
    if i >= 1:
        tpart = t[:i]
        zpart = buf[:i].copy()
        epart = _energies(model, zpart)
        partial = Trajectory(tpart, zpart, epart) if i >= 2 else None
    raise EscapeError(
        f"trajectory escaped the domain radius at t={t[i]:g}",
        time=float(t[i - 1]) if i >= 1 else 0.0,
        state=PhasePoint.from_array(buf[i - 1]) if i >= 1 else state,
        trajectory=partial,
    )


def _energies(model, z):
    return (model.kinetic_energy(z[:, 2], z[:, 3])
            + model.potential_xy(z[:, 0], z[:, 1]))


def propagate(model: HamiltonianModel, z0: PhasePoint, dt: float,
              n_steps: int,
              escape_radius: float = DEFAULT_ESCAPE_RADIUS) -> Trajectory:
    """Advance z0 by n_steps symplectic steps of size dt.

    Raises EscapeError (carrying the last valid sample and any partial
    trajectory) if the position leaves the disc of radius escape_radius.
    """
    _validate_step_args(dt, n_steps)
    qx, qy, px, py = z0.qx, z0.qy, z0.px, z0.py
    inv_m = 1.0 / model.mass
    a1 = _C1 * dt * inv_m
    a2 = _C2 * dt * inv_m
    b1 = _W1 * dt
    b0 = _W0 * dt
    force = model.force
    r2 = escape_radius * escape_radius

    t = dt * np.arange(n_steps + 1)
    buf = np.empty((n_steps + 1, 4))
    buf[0] = (qx, qy, px, py)
    for i in range(1, n_steps + 1):
        qx += a1 * px; qy += a1 * py
        fx, fy = force(qx, qy)
        px += b1 * fx; py += b1 * fy
        qx += a2 * px; qy += a2 * py
        fx, fy = force(qx, qy)
        px += b0 * fx; py += b0 * fy
        qx += a2 * px; qy += a2 * py
        fx, fy = force(qx, qy)
        px += b1 * fx; py += b1 * fy
        qx += a1 * px; qy += a1 * py
        # NaN fails the comparison too, so blowups are caught here
        if not (qx * qx + qy * qy <= r2):
            _escape(t, qx, qy, px, py, buf, i, model)
        buf[i] = (qx, qy, px, py)
    return Trajectory(t, buf, _energies(model, buf))


def _tangent_steps(model, dt, state, n):
    """Advance (qx, qy, px, py, dqx, dqy, dpx, dpy) by n integrator steps.

    The tangent part takes the exact Jacobian of each substep: drifts
    shear q by p/m, kicks shear p by -Hessian(q) q.
    """
    qx, qy, px, py, dqx, dqy, dpx, dpy = state
    inv_m = 1.0 / model.mass
    a1 = _C1 * dt * inv_m
    a2 = _C2 * dt * inv_m
    b1 = _W1 * dt
    b0 = _W0 * dt
    stages = ((a1, b1), (a2, b0), (a2, b1))
    force = model.force
    hess = model.hessian_xy
    for _ in range(n):
        for a, b in stages:
            qx += a * px; qy += a * py
            dqx += a * dpx; dqy += a * dpy
            fx, fy = force(qx, qy)
            hxx, hxy, hyy = hess(qx, qy)
            px += b * fx; py += b * fy
            dpx -= b * (hxx * dqx + hxy * dqy)
            dpy -= b * (hxy * dqx + hyy * dqy)
        qx += a1 * px; qy += a1 * py
        dqx += a1 * dpx; dqy += a1 * dpy
    return qx, qy, px, py, dqx, dqy, dpx, dpy


@dataclass
class TangentSeries:
    """Tangent vector samples along a reference orbit."""

    t: np.ndarray
    v: np.ndarray   # (n, 4)

    def norms(self) -> np.ndarray:
        return np.sqrt(np.sum(self.v ** 2, axis=1))


def propagate_tangent(model: HamiltonianModel, z0: PhasePoint, v0,
                      dt: float, n_steps: int,
                      escape_radius: float = DEFAULT_ESCAPE_RADIUS
                      ) -> TangentSeries:
    """Integrate the variational equations along the orbit through z0.

    v0 is a phase-space displacement (PhasePoint or length-4 array); the
    returned series holds the linearized image of v0 at every step.
    """
    if isinstance(v0, PhasePoint):
        v0 = v0.as_array()
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (4,) or not np.all(np.isfinite(v0)):
        raise DomainError("tangent v0 must be a finite 4-vector")
    if np.all(v0 == 0.0):
        raise DomainError("tangent v0 must be nonzero")
    _validate_step_args(dt, n_steps)

    r2 = escape_radius * escape_radius
    t = dt * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, 4))
    out[0] = v0
    state = (z0.qx, z0.qy, z0.px, z0.py, *map(float, v0))
    for i in range(1, n_steps + 1):
        state = _tangent_steps(model, dt, state, 1)
        qx, qy = state[0], state[1]
        if not (qx * qx + qy * qy <= r2):
            raise EscapeError(
                f"reference orbit escaped at t={t[i]:g}",
                time=float(t[i - 1]),
                state=None, trajectory=None)
        out[i] = state[4:]
    return TangentSeries(t, out)


@dataclass
class LyapunovEstimate:
    """Maximum Lyapunov exponent from the renormalized-tangent method."""

    lambda_max: float
    convergence: np.ndarray   # (k, 2) columns (time, running estimate)
    renorm_interval: float
    total_time: float


def max_lyapunov(model: HamiltonianModel, z0: PhasePoint, dt: float,
                 total_time: float, renorm_interval: float, seed: int,
                 escape_radius: float = DEFAULT_ESCAPE_RADIUS
                 ) -> LyapunovEstimate:
    """Renormalized-tangent estimate of the maximum Lyapunov exponent.

    A random unit tangent vector (direction drawn from seed) rides along
    the orbit; every renorm_interval its stretch is logged and the vector
    is rescaled to unit length. The running estimate is
    lambda(T) = (1/T) * sum of log stretches.
    """
    _validate_step_args(dt, 1)
    if not (total_time >= 10.0 * renorm_interval >= 100.0 * dt):
        raise DomainError("need total_time >= 10*renorm_interval and "
                          "renorm_interval >= 10*dt")
    k = max(1, round(renorm_interval / dt))
    n_renorms = max(1, round(total_time / (k * dt)))

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)

    r2 = escape_radius * escape_radius
    state = (z0.qx, z0.qy, z0.px, z0.py, *map(float, v))
    log_sum = 0.0
    conv = np.empty((n_renorms, 2))
    for block in range(n_renorms):
        qx, qy, px, py, dqx, dqy, dpx, dpy = _tangent_steps(model, dt, state,
                                                            k)
        if not (qx * qx + qy * qy <= r2):
            raise EscapeError(
                "orbit escaped during Lyapunov estimation",
                time=(block * k) * dt,
                state=PhasePoint(qx, qy, px, py) if all(map(
                    math.isfinite, (qx, qy, px, py))) else None)
        stretch = math.sqrt(dqx * dqx + dqy * dqy + dpx * dpx + dpy * dpy)
        log_sum += math.log(stretch)
        inv = 1.0 / stretch
        state = (qx, qy, px, py, dqx * inv, dqy * inv, dpx * inv, dpy * inv)
        elapsed = (block + 1) * k * dt
        conv[block] = (elapsed, log_sum / elapsed)
    return LyapunovEstimate(
        lambda_max=float(conv[-1, 1]),
        convergence=conv,
        renorm_interval=k * dt,
        total_time=n_renorms * k * dt,
    )


def divergence_from_trajectories(ta: Trajectory,
                                 tb: Trajectory) -> DivergenceSeries:
    """Divergence series of two already-propagated orbits."""
    dq = tb.positions - ta.positions
    sq = np.sum(dq ** 2, axis=1)
    D = cumulative_trapezoid(sq, ta.dt)
    sep = np.sqrt(np.sum((tb.z - ta.z) ** 2, axis=1))
    e0a, e0b = ta.energy[0], tb.energy[0]
    scale = max(abs(e0a), abs(e0b), 1e-300)
    drift = np.maximum(np.abs(ta.energy - e0a),
                       np.abs(tb.energy - e0b)) / scale
    return DivergenceSeries(ta.t.copy(), D, separation=sep,
                            energy_drift=drift)


def divergence_integral(model: HamiltonianModel, z0: PhasePoint, delta_z,
                        dt: float, n_steps: int,
                        escape_radius: float = DEFAULT_ESCAPE_RADIUS
                        ) -> DivergenceSeries:
    """Accumulated integral of the squared position separation of the
    orbits through z0 and z0 + delta_z (trapezoid on the sample grid).

    delta_z = 0 is allowed and yields the identically zero series.
    """
    if isinstance(delta_z, PhasePoint):
        delta_z = delta_z.as_array()
    delta_z = np.asarray(delta_z, dtype=float)
    if delta_z.shape != (4,) or not np.all(np.isfinite(delta_z)):
        raise DomainError("delta_z must be a finite 4-vector")
    ta = propagate(model, z0, dt, n_steps, escape_radius)
    tb = (propagate(model, z0 + PhasePoint.from_array(delta_z), dt, n_steps,
                    escape_radius)
          if np.any(delta_z) else ta)
    return divergence_from_trajectories(ta, tb)


@dataclass
class ScalingFit:
    """Least-squares growth-law fit of a divergence series.

    kind is "power_law" (log D linear in log t, exponent = slope) or
    "exponential" (log D linear in t, rate = slope). When the two r^2
    values differ by less than the ambiguity threshold the fit is flagged
    and the runner-up is attached.
    """

    kind: str
    exponent_or_rate: float
    r_squared: float
    window: tuple
    log_amplitude: float = 0.0
    ambiguous: bool = False
    alternative: "ScalingFit | None" = None


def _linfit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise FitError("degenerate window: series is constant")
    # least squares with intercept keeps r^2 in [0, 1]; clamp roundoff
    r2 = min(max(1.0 - float(np.sum(resid ** 2)) / ss_tot, 0.0), 1.0)
    return float(slope), float(intercept), r2


def classify_scaling(series, window=None, min_samples: int = 20,
                     ambiguity_threshold: float = 0.01) -> ScalingFit:
    """Decide between power-law and exponential growth of D(t).

    Both models are fit by least squares on log D (against log t and
    against t respectively) over the window; the better r^2 wins. The
    window needs at least min_samples samples with D > 0.
    """
    t = np.asarray(series.t, dtype=float)
    D = np.asarray(series.D, dtype=float)
    if window is None:
        window = (float(t[0]), float(t[-1]))
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise FitError(f"empty fit window ({t_lo}, {t_hi})")
    mask = (t >= t_lo) & (t <= t_hi) & (D > 0.0) & (t > 0.0)
    if int(np.sum(mask)) < min_samples:
        raise FitError(f"window ({t_lo}, {t_hi}) holds "
                       f"{int(np.sum(mask))} positive samples; "
                       f"need >= {min_samples}")
    tw, logD = t[mask], np.log(D[mask])
    if np.all(logD == logD[0]):
        raise FitError("degenerate window: all D values equal")

    p_slope, p_icpt, p_r2 = _linfit(np.log(tw), logD)
    e_slope, e_icpt, e_r2 = _linfit(tw, logD)
    power = ScalingFit("power_law", p_slope, p_r2, (t_lo, t_hi), p_icpt)
    expo = ScalingFit("exponential", e_slope, e_r2, (t_lo, t_hi), e_icpt)
    best, other = (power, expo) if p_r2 >= e_r2 else (expo, power)
    if abs(p_r2 - e_r2) < ambiguity_threshold:
        best.ambiguous = True
        best.alternative = other
    return best


def detect_saturation(series: DivergenceSeries, shell_diameter: float,
                      fraction: float = 0.1) -> float | None:
    """First time the orbit separation exceeds fraction * shell_diameter."""
    if series.separation is None:
        return None
    hit = np.nonzero(series.separation > fraction * shell_diameter)[0]
    return float(series.t[hit[0]]) if hit.size else None


def position_diameter(traj: Trajectory) -> float:
    """Observed diameter of the position excursion, 2 * max |q(t)|."""
    return 2.0 * float(np.max(np.sqrt(np.sum(traj.positions ** 2, axis=1))))
