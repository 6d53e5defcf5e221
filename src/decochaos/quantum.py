"""Grid wavepackets evolving under the system Hamiltonian alone.

Propagation uses second-order operator splitting between the kinetic
phase (applied in momentum space via FFT) and the potential phase
(applied in position space). Each step is unitary by construction, so
the norm is conserved to roundoff; accuracy is controlled by the step
size. The module also provides the packet moments that drive the bath
and the break-time diagnostic that bounds how long those moments track
the classical orbit.

Parameters
----------
The effective Planck constant ``hbar_eff`` is a free dial of the grid;
shrinking it narrows the minimum-uncertainty packets and lengthens the
window in which mean positions follow classical trajectories.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryLeakError, DomainError, GridError,
                     GridMismatchError, NormDriftError)
from .models import HamiltonianModel, PhasePoint
from .series import (ExpectationSeries, Trajectory, _check_count, _check_step,
                     _finite_real)

__all__ = [
    "Grid2D",
    "WavepacketState",
    "init_gaussian",
    "propagate_wavepacket",
    "ehrenfest_break_time",
    "save_wavepacket",
]

BOUNDARY_DENSITY_TOL = 1e-10
NORM_DRIFT_TOL = 1e-8


def _is_pow2(n) -> bool:
    return (isinstance(n, int) and not isinstance(n, bool) and n >= 1
            and (n & (n - 1)) == 0)


class Grid2D:
    """Periodic position grid with matching Fourier momentum grid.

    Parameters
    ----------
    nx, ny : int
        Point counts, powers of two, at least 64 each; the complex
        amplitudes, 16 * nx * ny bytes, must fit in sys.maxsize bytes.
    lx, ly : float
        Box lengths; the box is centered on the origin.
    hbar_eff : float
        Effective Planck constant used by every operator on this grid.

    The grid holds no arrays: positions() and wavenumbers() build the
    axes on each call, as an (nx, 1) column and a (1, ny) row that
    broadcast to the full grid.
    """

    def __init__(self, nx: int, ny: int, lx: float, ly: float,
                 hbar_eff: float = 1.0):
        if not (_is_pow2(nx) and _is_pow2(ny) and nx >= 64 and ny >= 64):
            raise GridError("nx and ny must be integer powers of two >= 64")
        if 16 * nx * ny > sys.maxsize:
            raise GridError(f"a {nx} x {ny} grid of complex amplitudes needs "
                            f"more than {sys.maxsize} bytes")
        for name, v in (("lx", lx), ("ly", ly), ("hbar_eff", hbar_eff)):
            if not (_finite_real(v) and v > 0):
                raise GridError(f"{name} must be a positive finite number")
        self.nx, self.ny = nx, ny
        self.lx, self.ly = float(lx), float(ly)
        self.hbar = float(hbar_eff)
        self.dx = self.lx / self.nx
        self.dy = self.ly / self.ny

    def positions(self) -> tuple:
        """(x, y): the cell positions, x as an (nx, 1) column and y as a
        (1, ny) row."""
        x = (np.arange(self.nx) - self.nx // 2) * self.dx
        y = (np.arange(self.ny) - self.ny // 2) * self.dy
        return x[:, None], y[None, :]

    def wavenumbers(self) -> tuple:
        """(kx, ky) in numpy's FFT order, shaped as positions()."""
        kx = 2.0 * math.pi * np.fft.fftfreq(self.nx, d=self.dx)
        ky = 2.0 * math.pi * np.fft.fftfreq(self.ny, d=self.dy)
        return kx[:, None], ky[None, :]

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def gaussian_widths(self, widths) -> tuple:
        """(sigma_x, sigma_y) as floats, each above two grid cells and
        below a tenth of the box."""
        if not (isinstance(widths, (list, tuple)) and len(widths) == 2
                and all(map(_finite_real, widths))):
            raise GridError(f"widths must be two numbers, got {widths!r}")
        sx, sy = float(widths[0]), float(widths[1])
        if not (2.0 * self.dx < sx < self.lx / 10.0
                and 2.0 * self.dy < sy < self.ly / 10.0):
            raise GridError(
                f"widths ({sx:g}, {sy:g}) must exceed two grid cells "
                f"({2 * self.dx:g}, {2 * self.dy:g}) and stay below a "
                f"tenth of the box ({self.lx / 10:g}, {self.ly / 10:g})")
        return sx, sy


@dataclass
class WavepacketState:
    """Complex amplitudes on a Grid2D at a moment in time."""

    grid: Grid2D
    psi: np.ndarray
    t: float = 0.0

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.cell_area)


def init_gaussian(grid: Grid2D, z: PhasePoint, widths) -> WavepacketState:
    """Normalized minimum-uncertainty Gaussian centered on z.

    widths = (sigma_x, sigma_y) are the position standard deviations;
    the momentum spreads are hbar_eff / (2 sigma). The grid checks the
    widths (Grid2D.gaussian_widths).
    """
    sx, sy = grid.gaussian_widths(widths)
    x, y = grid.positions()
    phase = (z.px * x + z.py * y) / grid.hbar
    psi = np.exp(-(x - z.qx) ** 2 / (4.0 * sx * sx)
                 - (y - z.qy) ** 2 / (4.0 * sy * sy) + 1j * phase)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * grid.cell_area)
    return WavepacketState(grid, psi, 0.0)


def _moments(w, u, v):
    """((mean u, mean v), (variance of u, variance of v)) under the
    weights w, which sum to one; u and v broadcast against w."""
    mu = float(np.sum(w * u))
    mv = float(np.sum(w * v))
    return (mu, mv), (float(np.sum(w * (u - mu) ** 2)),
                      float(np.sum(w * (v - mv) ** 2)))


def propagate_wavepacket(state: WavepacketState, model: HamiltonianModel,
                         dt: float, n_steps: int, sample_every: int = 1,
                         track_momentum: bool = False):
    """Split-step evolution under the bare system Hamiltonian.

    Applies exp(-i V dt / 2 hbar), a full kinetic phase in momentum
    space, and exp(-i V dt / 2 hbar) per step; samples position means
    and variances every ``sample_every`` steps (momentum moments too
    when ``track_momentum``). Norm drift beyond NORM_DRIFT_TOL and edge
    density beyond BOUNDARY_DENSITY_TOL abort the run.

    Returns
    -------
    (ExpectationSeries, WavepacketState)
        The sampled moments and the final state.
    """
    _check_step(dt, n_steps)
    _check_count("sample_every", sample_every)
    if n_steps % sample_every:
        raise DomainError("sample_every must divide n_steps")
    grid = state.grid
    hbar = grid.hbar
    x, y = grid.positions()
    kx, ky = grid.wavenumbers()
    # exp(-0.5j * dt * V / hbar), built in place in one complex array
    half_v = -0.5j * dt * model.potential_xy(x, y)
    half_v /= hbar
    np.exp(half_v, out=half_v)
    kinetic = np.exp(-0.5j * dt * hbar * (kx ** 2 + ky ** 2) / model.mass)

    n_samples = n_steps // sample_every + 1
    t = state.t + dt * sample_every * np.arange(n_samples)
    mean_q = np.empty((n_samples, 2))
    var_q = np.empty((n_samples, 2))
    mean_p = np.empty((n_samples, 2)) if track_momentum else None
    var_p = np.empty((n_samples, 2)) if track_momentum else None

    psi = state.psi.copy()

    def record(idx):
        density = psi.real ** 2 + psi.imag ** 2
        rho = density * grid.cell_area
        mean_q[idx], var_q[idx] = _moments(rho, x, y)
        if track_momentum:
            phi = np.fft.fft2(psi)
            w = phi.real ** 2 + phi.imag ** 2
            w /= np.sum(w)
            mean_p[idx], var_p[idx] = _moments(w, hbar * kx, hbar * ky)
        nrm = float(np.sum(density) * grid.cell_area)
        if abs(nrm - 1.0) > NORM_DRIFT_TOL:
            raise NormDriftError(
                f"norm drifted to {nrm!r} at t={t[idx]:g}")
        edge = max(rho[0, :].max(), rho[-1, :].max(),
                   rho[:, 0].max(), rho[:, -1].max())
        if edge > BOUNDARY_DENSITY_TOL:
            raise BoundaryLeakError(
                f"edge density {edge:g} exceeds {BOUNDARY_DENSITY_TOL:g} at "
                f"t={t[idx]:g}; enlarge the box")

    record(0)
    for step in range(1, n_steps + 1):
        # ifft2 gets no out=: on numpy 2.4 it returns wrong values with one
        psi *= half_v
        np.fft.fft2(psi, out=psi)
        psi *= kinetic
        psi = np.fft.ifft2(psi)
        psi *= half_v
        if step % sample_every == 0:
            record(step // sample_every)

    series = ExpectationSeries(t, mean_q, var_q, mean_p=mean_p, var_p=var_p)
    return series, WavepacketState(grid, psi, float(t[-1]))


def ehrenfest_break_time(qseries: ExpectationSeries, traj: Trajectory,
                         threshold: float):
    """First time the packet mean strays from the classical orbit.

    The classical positions are linearly resampled onto the quantum
    grid, which must lie inside the trajectory's span. Returns the
    crossing time (linearly interpolated between samples) or None if
    the deviation never exceeds threshold in the window.
    """
    if not (_finite_real(threshold) and threshold > 0):
        raise DomainError("threshold must be positive finite")
    tq = qseries.t
    pad = 1e-9 * max(1.0, abs(float(traj.t[-1])))
    if tq[0] < traj.t[0] - pad or tq[-1] > traj.t[-1] + pad:
        raise GridMismatchError(
            f"classical trajectory covers [{traj.t[0]:g}, {traj.t[-1]:g}] "
            f"but the quantum series spans [{tq[0]:g}, {tq[-1]:g}]")
    cx = np.interp(tq, traj.t, traj.z[:, 0])
    cy = np.interp(tq, traj.t, traj.z[:, 1])
    dev = np.hypot(qseries.mean_q[:, 0] - cx, qseries.mean_q[:, 1] - cy)
    over = np.nonzero(dev > threshold)[0]
    if over.size == 0:
        return None
    i = int(over[0])
    if i == 0:
        return float(tq[0])
    frac = (threshold - dev[i - 1]) / (dev[i] - dev[i - 1])
    return float(tq[i - 1] + frac * (tq[i] - tq[i - 1]))


def save_wavepacket(state: WavepacketState, path) -> None:
    """Write psi as row-major little-endian complex128 with a text header.

    The sidecar ``<path>.hdr`` holds nx, ny, lx, ly, hbar_eff and t, one
    ``name value`` pair per line.
    """
    g = state.grid
    state.psi.astype("<c16").tofile(path)
    with open(f"{path}.hdr", "w", encoding="ascii") as fh:
        for key, val in (("nx", g.nx), ("ny", g.ny), ("lx", g.lx),
                         ("ly", g.ly), ("hbar_eff", g.hbar), ("t", state.t)):
            fh.write(f"{key} {val!r}\n")
