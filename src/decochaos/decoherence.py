"""Decoherence exponents and the regular-versus-chaotic comparison.

The asymptotic exponent is the high-temperature, dense-bath limit of the
discrete oracle: gamma(t) = (C T / 2) * integral_0^t [df_x^2 + df_y^2],
with C the bath coupling and T the temperature (hbar = k_B = 1). The
mean-field error functional weighs the packet's position variance with
the kernel w(u) that the bath cutoff imprints on first-order errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import (DecoherenceSeries, DriveDifference, ExpectationSeries,
                     _check_positive, _check_real, cumulative_trapezoid,
                     uniform_dt)

__all__ = [
    "asymptotic_exponent",
    "weight_w",
    "HartreeErrorEstimate",
    "hartree_error",
    "RegimeRun",
    "RegimeComparison",
    "compare_regimes",
]

OMEGA_MAX_T_FLOOR = 10.0
_SERIES_ARG = 1e-4


def asymptotic_exponent(dd: DriveDifference, coupling: float,
                        temperature: float) -> DecoherenceSeries:
    """High-temperature decoherence exponent from a drive difference.

    gamma(t) = (C T / 2) * trapezoid integral of df_x^2 + df_y^2.
    Non-decreasing by construction and zero exactly when the two drives
    coincide on the grid.
    """
    _check_positive("coupling", coupling)
    _check_positive("temperature", temperature)
    dt = dd.dt
    integrand = dd.squared_magnitude()
    gamma = 0.5 * coupling * temperature * cumulative_trapezoid(integrand, dt)
    return DecoherenceSeries(dd.t.copy(), gamma, source="asymptotic")


def _cosine_kernel(x, v):
    """(1 - cos x) / v with x = Omega * v, stable for small arguments."""
    small = np.abs(x) < _SERIES_ARG
    xs = np.where(small, 1.0, x)
    vs = np.where(v == 0.0, 1.0, v)
    # the masked-out branch may overflow on subnormal v; where() drops it
    with np.errstate(over="ignore", invalid="ignore"):
        direct = 2.0 * np.sin(0.5 * xs) ** 2 / vs
        # fourth-order series: (x^2/2 - x^4/24)/v, exact limit 0 at v = 0
        omega2v = np.where(v == 0.0, 0.0, x * x / vs)
    series = 0.5 * omega2v * (1.0 - x * x / 12.0)
    return np.where(small, series, direct)


def weight_w(u, omega_max_t):
    """Cutoff kernel w(u) on u in [0, 1] for Omega = omega_max * t.

    w(u) = (1 - cos[Omega (1-u)]) / (1-u) + (1 - cos[Omega u]) / u with
    the removable endpoint singularities evaluated by series; w(0) and
    w(1) equal 1 - cos(Omega).
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise DomainError("weight argument u must lie in [0, 1]")
    omega = float(omega_max_t)
    v = 1.0 - u_arr
    out = (_cosine_kernel(omega * v, v) + _cosine_kernel(omega * u_arr, u_arr))
    return float(out) if out.ndim == 0 else out


@dataclass
class HartreeErrorEstimate:
    """First-order mean-field error at a fixed time.

    value = (C / 2 pi) * t^{-1} integral_0^t [var_qx + var_qy] w_t(tau) dtau.
    A warning is attached when omega_max * t sits below the asymptotic
    validity floor instead of refusing to evaluate.
    """

    t: float
    value: float
    omega_max: float
    warning: str | None = None


def hartree_error(varseries: ExpectationSeries, coupling: float,
                  omega_max: float, t_eval: float) -> HartreeErrorEstimate:
    """Weighted time average of the position variances up to t_eval."""
    _check_positive("coupling", coupling)
    _check_positive("omega_max", omega_max)
    _check_real("t_eval", t_eval)
    t = varseries.t
    if t_eval <= t[0] or t_eval > t[-1] * (1 + 1e-12):
        raise DomainError(
            f"series covers [{t[0]:g}, {t[-1]:g}], cannot evaluate at "
            f"t={t_eval:g}")
    var_sum = varseries.var_q[:, 0] + varseries.var_q[:, 1]

    keep = t <= t_eval * (1 + 1e-12)
    tw = t[keep]
    vw = var_sum[keep]
    if not math.isclose(tw[-1], t_eval, rel_tol=1e-9):
        # close the interval with a linearly interpolated end sample
        v_end = float(np.interp(t_eval, t, var_sum))
        tw = np.append(tw, t_eval)
        vw = np.append(vw, v_end)

    omega_max_t = omega_max * t_eval
    w = weight_w(np.clip(tw / t_eval, 0.0, 1.0), omega_max_t)
    integral = float(np.trapezoid(vw * w, tw))
    value = coupling / (2.0 * math.pi) * integral / t_eval
    warning = None
    if omega_max_t < OMEGA_MAX_T_FLOOR:
        warning = (f"omega_max * t = {omega_max_t:g} is below the asymptotic "
                   f"validity floor {OMEGA_MAX_T_FLOOR:g}; estimate is rough")
    return HartreeErrorEstimate(t=float(t_eval), value=value,
                                omega_max=float(omega_max), warning=warning)


@dataclass
class RegimeRun:
    """One side of a regular-versus-chaotic comparison."""

    label: str
    gamma: DecoherenceSeries
    ehrenfest_t_max: float | None = None


@dataclass
class RegimeComparison:
    """Outcome of comparing decoherence exponents of two runs."""

    t: np.ndarray
    ratio: np.ndarray                  # chaotic / regular, nan where 0/0
    dominates: bool
    t_star: float | None
    within_ehrenfest: bool


def compare_regimes(regular: RegimeRun, chaotic: RegimeRun,
                    t_grid) -> RegimeComparison:
    """Per-time exponent ratio and the dominance verdict.

    The crossover t_star is the last time the chaotic exponent falls at
    or below the regular one, interpolated between grid samples; the
    chaotic run dominates when its exponent stays strictly above beyond
    t_star. Comparison is restricted to the declared Ehrenfest horizons.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    uniform_dt(t_grid)
    horizon = min(x for x in (regular.ehrenfest_t_max, chaotic.ehrenfest_t_max,
                              t_grid[-1]) if x is not None)
    t = t_grid[t_grid <= horizon * (1 + 1e-12)]
    if t.size < 2:
        raise DomainError("comparison grid has no overlap with the "
                          "Ehrenfest horizons")

    def sample(run):
        g = run.gamma
        if t[0] < g.t[0] - 1e-12 or t[-1] > g.t[-1] * (1 + 1e-12):
            raise DomainError(
                f"run {run.label!r} does not cover the comparison grid")
        return np.interp(t, g.t, g.gamma)

    g_reg = sample(regular)
    g_cha = sample(chaotic)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(g_reg > 0.0, g_cha / g_reg, np.nan)

    diff = g_cha - g_reg
    nonpos = np.nonzero(diff <= 0.0)[0]
    if nonpos.size == 0:
        t_star = float(t[0])
        dominates = bool(np.all(diff[1:] > 0.0))
    else:
        i = int(nonpos[-1])
        if i == t.size - 1:
            t_star = None
            dominates = False
        else:
            if diff[i] == 0.0:
                t_star = float(t[i])
            else:
                t_star = float(t[i] + (t[i + 1] - t[i])
                               * (-diff[i]) / (diff[i + 1] - diff[i]))
            dominates = True
    within = (t_star is not None and dominates
              and (regular.ehrenfest_t_max is None
                   or t_star <= regular.ehrenfest_t_max)
              and (chaotic.ehrenfest_t_max is None
                   or t_star <= chaotic.ehrenfest_t_max))
    return RegimeComparison(t=t, ratio=ratio, dominates=dominates,
                            t_star=t_star, within_ehrenfest=within)
