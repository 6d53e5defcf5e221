"""Symplectic propagation, tangent dynamics and orbit-divergence analysis.

The integrator is a fixed-step fourth-order composition of leapfrog
stages (Yoshida's triple jump): explicit, symplectic and time-reversible,
so energy errors stay bounded over the long windows the scaling fits need.
Tangent vectors are advanced with the exact Jacobian of each integrator
substep, which keeps the linearized map symplectic to roundoff.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EscapeError, FitError
from .models import HamiltonianModel, PhasePoint
from .series import (DivergenceSeries, DriveDifference, Trajectory,
                     _check_step, _finite_real, cumulative_trapezoid)

__all__ = [
    "DEFAULT_ESCAPE_RADIUS",
    "LyapunovEstimate",
    "ScalingFit",
    "propagate",
    "max_lyapunov",
    "divergence_integral",
    "divergence_from_trajectories",
    "classify_scaling",
    "detect_saturation",
    "position_diameter",
]

DEFAULT_ESCAPE_RADIUS = 1e3
# A growth-law fit needs this many positive samples in its window; r^2
# values closer than the threshold flag the fit as ambiguous; a
# separation past the fraction of the shell diameter is saturated.
MIN_FIT_SAMPLES = 20
AMBIGUITY_THRESHOLD = 0.01
SATURATION_FRACTION = 0.1

# Yoshida fourth-order composition of drift-kick-drift leapfrog stages.
_CBRT2 = 2.0 ** (1.0 / 3.0)
_W1 = 1.0 / (2.0 - _CBRT2)
_W0 = 1.0 - 2.0 * _W1
_C1 = 0.5 * _W1
_C2 = 0.5 * (_W1 + _W0)
# step = drift(_C1) kick(_W1) drift(_C2) kick(_W0) drift(_C2) kick(_W1) drift(_C1)


def _substeps(model, dt):
    """The drift (a1, a2) and kick (b1, b0) coefficients of one step."""
    inv_m = 1.0 / model.mass
    return _C1 * dt * inv_m, _C2 * dt * inv_m, _W1 * dt, _W0 * dt


def propagate(model: HamiltonianModel, z0: PhasePoint, dt: float,
              n_steps: int,
              escape_radius: float = DEFAULT_ESCAPE_RADIUS) -> Trajectory:
    """Advance z0 by n_steps symplectic steps of size dt.

    Raises EscapeError, naming the time of the first sample outside, if
    the position leaves the disc of radius escape_radius.
    """
    _check_step(dt, n_steps)
    qx, qy, px, py = z0.qx, z0.qy, z0.px, z0.py
    a1, a2, b1, b0 = _substeps(model, dt)
    force = model.force
    r2 = escape_radius * escape_radius

    t = dt * np.arange(n_steps + 1)
    # rows (qx, qy, px, py), flat; a count no memory holds fails here,
    # before the first step
    buf = memoryview(bytearray(32 * (n_steps + 1))).cast("d")
    buf[0] = qx; buf[1] = qy; buf[2] = px; buf[3] = py
    for j in range(4, 4 * n_steps + 4, 4):
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
            raise EscapeError(f"trajectory escaped the domain radius at "
                              f"t={t[j // 4]:g}")
        buf[j] = qx; buf[j + 1] = qy; buf[j + 2] = px; buf[j + 3] = py
    z = np.frombuffer(buf).reshape(-1, 4)
    return Trajectory(t, z, model.kinetic_energy(z[:, 2], z[:, 3])
                      + model.potential_xy(z[:, 0], z[:, 1]))


def _tangent_steps(model, dt, state, n):
    """Advance (qx, qy, px, py, dqx, dqy, dpx, dpy) by n integrator steps.

    The tangent part takes the exact Jacobian of each substep: drifts
    shear q by p/m, kicks shear p by -Hessian(q) q. The three (drift,
    kick) stages (a1, b1), (a2, b0), (a2, b1) are written out, in the
    order a stage loop would run them, to save the loop's own work.
    """
    qx, qy, px, py, dqx, dqy, dpx, dpy = state
    a1, a2, b1, b0 = _substeps(model, dt)
    force = model.force
    hess = model.hessian_xy
    for _ in range(n):
        qx += a1 * px; qy += a1 * py
        dqx += a1 * dpx; dqy += a1 * dpy
        fx, fy = force(qx, qy)
        hxx, hxy, hyy = hess(qx, qy)
        px += b1 * fx; py += b1 * fy
        dpx -= b1 * (hxx * dqx + hxy * dqy)
        dpy -= b1 * (hxy * dqx + hyy * dqy)
        qx += a2 * px; qy += a2 * py
        dqx += a2 * dpx; dqy += a2 * dpy
        fx, fy = force(qx, qy)
        hxx, hxy, hyy = hess(qx, qy)
        px += b0 * fx; py += b0 * fy
        dpx -= b0 * (hxx * dqx + hxy * dqy)
        dpy -= b0 * (hxy * dqx + hyy * dqy)
        qx += a2 * px; qy += a2 * py
        dqx += a2 * dpx; dqy += a2 * dpy
        fx, fy = force(qx, qy)
        hxx, hxy, hyy = hess(qx, qy)
        px += b1 * fx; py += b1 * fy
        dpx -= b1 * (hxx * dqx + hxy * dqy)
        dpy -= b1 * (hxy * dqx + hyy * dqy)
        qx += a1 * px; qy += a1 * py
        dqx += a1 * dpx; dqy += a1 * dpy
    return qx, qy, px, py, dqx, dqy, dpx, dpy


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
    _check_step(dt, 1)
    if not (_finite_real(total_time) and _finite_real(renorm_interval)
            and total_time >= 10.0 * renorm_interval >= 100.0 * dt
            and total_time / dt <= sys.maxsize):
        raise DomainError("need finite total_time >= 10*renorm_interval >= "
                          "100*dt and total_time/dt <= sys.maxsize steps")
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
        elapsed = (block + 1) * k * dt
        if not (qx * qx + qy * qy <= r2):
            raise EscapeError(f"orbit escaped during Lyapunov estimation, "
                              f"between t={block * k * dt:g} and "
                              f"t={elapsed:g}")
        stretch = math.sqrt(dqx * dqx + dqy * dqy + dpx * dpx + dpy * dpy)
        log_sum += math.log(stretch)
        inv = 1.0 / stretch
        state = (qx, qy, px, py, dqx * inv, dqy * inv, dpx * inv, dpy * inv)
        conv[block] = (elapsed, log_sum / elapsed)
    return LyapunovEstimate(
        lambda_max=float(conv[-1, 1]),
        convergence=conv,
        renorm_interval=k * dt,
        total_time=n_renorms * k * dt,
    )


def divergence_from_trajectories(model: HamiltonianModel, ta: Trajectory,
                                 tb: Trajectory, dd=None) -> DivergenceSeries:
    """Divergence series of two already-propagated orbits of model on one
    grid; dd is their drive difference if the caller already built it."""
    dd = dd or DriveDifference.from_trajectories(ta, tb)
    D = cumulative_trapezoid(dd.squared_magnitude(), dd.dt)
    sep = np.sqrt(np.sum((tb.z - ta.z) ** 2, axis=1))
    drift = model.energy_drift(ta, tb)
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
    if not isinstance(delta_z, PhasePoint):
        delta_z = PhasePoint.from_array(delta_z)
    ta = propagate(model, z0, dt, n_steps, escape_radius)
    tb = (propagate(model, z0 + delta_z, dt, n_steps, escape_radius)
          if delta_z.as_array().any() else ta)
    return divergence_from_trajectories(model, ta, tb)


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


def classify_scaling(series: DivergenceSeries, window=None,
                     shell_diameter=None) -> ScalingFit:
    """Decide between power-law and exponential growth of D(t).

    Both models are fit by least squares on log D (against log t and t)
    over the window, by default [t_end/4, t_end] with t_end the saturation
    time or else the last time; the better r^2 wins. The window needs at
    least MIN_FIT_SAMPLES samples with D > 0.
    """
    t, D = series.t, series.D
    if window is None:
        t_end = detect_saturation(series, shell_diameter)
        t_end = float(t[-1]) if t_end is None else t_end
        window = (0.25 * t_end, t_end)
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_lo < t_hi:
        raise FitError(f"empty fit window ({t_lo}, {t_hi})")
    mask = (t >= t_lo) & (t <= t_hi) & (D > 0.0) & (t > 0.0)
    if int(np.sum(mask)) < MIN_FIT_SAMPLES:
        raise FitError(f"window ({t_lo}, {t_hi}) holds "
                       f"{int(np.sum(mask))} positive samples; "
                       f"need >= {MIN_FIT_SAMPLES}")
    tw, logD = t[mask], np.log(D[mask])
    if np.all(logD == logD[0]):
        raise FitError("degenerate window: all D values equal")

    p_slope, p_icpt, p_r2 = _linfit(np.log(tw), logD)
    e_slope, e_icpt, e_r2 = _linfit(tw, logD)
    power = ScalingFit("power_law", p_slope, p_r2, (t_lo, t_hi), p_icpt)
    expo = ScalingFit("exponential", e_slope, e_r2, (t_lo, t_hi), e_icpt)
    best, other = (power, expo) if p_r2 >= e_r2 else (expo, power)
    if abs(p_r2 - e_r2) < AMBIGUITY_THRESHOLD:
        best.ambiguous = True
        best.alternative = other
    return best


def detect_saturation(series: DivergenceSeries,
                      shell_diameter: float | None) -> float | None:
    """First time separation > SATURATION_FRACTION * diameter, or None;
    None also for a zero diameter, which has no scale to saturate at."""
    if series.separation is None or not shell_diameter:
        return None
    bound = SATURATION_FRACTION * shell_diameter
    hit = np.nonzero(series.separation > bound)[0]
    return float(series.t[hit[0]]) if hit.size else None


def position_diameter(traj) -> float:
    """2 * max |q(t)| of a Trajectory or an (n, 2) array of positions."""
    q = np.asarray(getattr(traj, "positions", traj))
    return 2.0 * float(np.max(np.sqrt(np.sum(q ** 2, axis=1))))
