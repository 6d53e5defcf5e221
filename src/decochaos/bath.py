"""Thermal reservoir of dipole-coupled oscillators.

The continuum law couples mode density and coupling strength as
``g(w) |kappa(w)|^2 = (C / 2 pi) w`` on (0, omega_max]; two independent
polarizations couple to the x and y position drives. The module supplies
the discretized bath, the driven coherent-state amplitude of a single
mode, and the exact decoherence exponent of the discrete bath, which is
the brute-force oracle against which the high-temperature asymptotic
formula is checked. The oracle needs evenly spaced modes, as
``discretize_bath`` makes them; it costs one chirp-z transform for the
bath's lag kernel and one FFT convolution per driven axis, so
O((n_modes + n_t) log(n_modes + n_t)) time and O(n_modes + n_t) memory.

Units: hbar = k_B = 1; thermal occupation uses n(w) = 1/(exp(w/T) - 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import (DecoherenceSeries, DriveDifference, _check_count,
                     _check_positive, uniform_dt)

__all__ = [
    "SpectralDensity",
    "BathDiscretization",
    "spectral_weight",
    "discretize_bath",
    "evolve_bath_amplitude",
    "thermal_occupation",
    "decoherence_exponent_oracle",
    "thermal_displacement_expectation",
    "thermal_displacement_brute",
    "verify_displacement_identity",
]

# A drive sampled coarser than this aliases the modes near the cutoff.
DRIVE_SAMPLING_FACTOR = math.pi / 10.0


@dataclass(frozen=True)
class SpectralDensity:
    """Coupling-weighted mode density with a sharp high-frequency cutoff."""

    coupling: float     # C, dimension 1/time
    omega_max: float

    def __post_init__(self):
        _check_positive("coupling", self.coupling)
        _check_positive("omega_max", self.omega_max)

    def check_drive_step(self, dt: float, name: str = "drive step dt"):
        """Raise DomainError if a drive sampled every dt aliases the
        cutoff: the coarsest step that resolves it is pi/(10 omega_max)."""
        limit = DRIVE_SAMPLING_FACTOR / self.omega_max
        if dt > limit * (1 + 1e-12):
            raise DomainError(f"{name} = {dt:g} aliases the bath cutoff; "
                              f"need dt <= pi/(10*omega_max) = {limit:g}")


def spectral_weight(sd: SpectralDensity, omega):
    """g(w)|kappa(w)|^2 = (C / 2 pi) w inside (0, omega_max], else 0."""
    omega = np.asarray(omega, dtype=float)
    inside = (omega > 0.0) & (omega <= sd.omega_max)
    value = np.where(inside, sd.coupling / (2.0 * math.pi) * omega, 0.0)
    return float(value) if value.ndim == 0 else value


@dataclass
class BathDiscretization:
    """N-mode midpoint quadrature of the continuum bath.

    weights carry the full g|kappa|^2 dw factor, so mode sums approximate
    the corresponding frequency integrals directly. Each frequency stands
    for two polarization modes.
    """

    omegas: np.ndarray
    weights: np.ndarray
    spectral: SpectralDensity

    def __post_init__(self):
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.omegas.shape != self.weights.shape or self.omegas.ndim != 1:
            raise DomainError("omegas and weights must be matching vectors")
        if np.any(np.diff(self.omegas) <= 0) or self.omegas[0] <= 0:
            raise DomainError("mode frequencies must be positive increasing")
        if np.any(self.weights <= 0):
            raise DomainError("mode weights must be positive")

    @property
    def n_modes(self) -> int:
        return self.omegas.size


def discretize_bath(sd: SpectralDensity, n_modes: int) -> BathDiscretization:
    """Midpoint rule on (0, omega_max]: w_j = (j - 1/2) omega_max / N."""
    _check_count("n_modes", n_modes, 2)
    dw = sd.omega_max / n_modes
    omegas = (np.arange(n_modes) + 0.5) * dw
    weights = spectral_weight(sd, omegas) * dw
    return BathDiscretization(omegas, weights, sd)


def evolve_bath_amplitude(omega: float, kappa_mag: float, t, drive,
                          alpha0: complex = 0j) -> np.ndarray:
    """Coherent amplitude of one driven mode sampled on the drive grid.

    Solves d(alpha)/dt = -i omega alpha - i kappa f(t) exactly for the
    free rotation and by trapezoid quadrature for the driven term:
    alpha(t) = e^{-i omega t} (alpha0 - i kappa s(t)), where s is the
    running trapezoid integral of f(tau) e^{i omega tau}. This direct
    single-mode form is the reference the oracle's mode sum is tested
    against.
    """
    t = np.asarray(t, dtype=float)
    drive = np.asarray(drive, dtype=float)
    if drive.shape != t.shape:
        raise DomainError("drive must be sampled on the time grid")
    dt = uniform_dt(t)
    phase = np.exp(1j * omega * t)
    g = drive * phase
    s = np.concatenate(([0j], np.cumsum(0.5 * dt * (g[1:] + g[:-1]))))
    return phase.conj() * (alpha0 - 1j * kappa_mag * s)


def thermal_occupation(omega, temperature):
    """Mean quanta of a mode at temperature T (natural units)."""
    x = np.asarray(omega, dtype=float) / float(temperature)
    with np.errstate(over="ignore"):
        n = 1.0 / np.expm1(x)
    return np.where(np.isfinite(n), n, 0.0)


def _mode_grid(omegas: np.ndarray) -> tuple[float, float]:
    """(omega_0, delta_omega) of evenly spaced modes omega_0 + j delta_omega.

    A mode more than 1e-12 max(omega) off the progression is an error;
    the tolerance scales with the frequencies, not with the spacing,
    which rounding misses by more as the mode count grows.
    """
    n = omegas.size
    step = (omegas[-1] - omegas[0]) / (n - 1) if n > 1 else 0.0
    miss = np.max(np.abs(omegas - (omegas[0] + step * np.arange(n))))
    if miss > 1e-12 * omegas[-1]:
        raise DomainError("the oracle needs evenly spaced bath modes "
                          f"(a mode is {miss:g} off the progression)")
    return float(omegas[0]), float(step)


def _fft_size(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _lag_kernel(omega_0: float, step: float, strength: np.ndarray,
                dt: float, n_lags: int) -> np.ndarray:
    """K(l) = sum_j S_j cos((omega_0 + j step) l dt) for l < n_lags.

    One chirp-z transform (Rabiner, Schafer & Rader 1969) by Bluestein's
    identity jl = (j^2 + l^2 - (l - j)^2)/2, which turns the sum over
    evenly spaced modes into one FFT convolution with a chirp.
    """
    n = strength.size
    # the chirp phase grows as m^2, to thousands of radians; long double,
    # where it is wider than a double, keeps its rounding near 1e-16
    m = np.arange(max(n, n_lags), dtype=np.longdouble)
    chirp = np.exp(0.5j * np.longdouble(step * dt) * m * m).astype(complex)
    size = _fft_size(n + n_lags - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:n_lags] = chirp[:n_lags].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    z = np.fft.ifft(np.fft.fft(strength * chirp[:n], size)
                    * np.fft.fft(kernel))[:n_lags]
    lags = np.arange(n_lags)
    return (np.exp(1j * omega_0 * dt * lags) * chirp[:n_lags] * z).real


def decoherence_exponent_oracle(bath: BathDiscretization,
                                dd: DriveDifference,
                                temperature: float) -> DecoherenceSeries:
    """Exact decoherence exponent of the discrete thermal bath.

    Each mode j of polarization n, driven by the difference f of the two
    mean-position histories, contributes ``S_j |s_j(t)|^2`` with
    ``S_j = weight_j (n_j + 1/2)`` to -ln |coherence factor|, where s_j
    is the running Fourier transform of f, summed by the trapezoid rule.
    The x and y drive components address the two polarizations.

    Expanding |s_j|^2 leaves only the lag kernel
    K(l) = sum_j S_j cos(omega_j l dt). Per driven axis, with the causal
    convolution R = f * K, P = cumsum(f (2R - f K_0)) and
    Q = cumsum(f K), the trapezoid sum is ``gamma_k = dt^2 [P_k -
    (f_0 Q_k + f_k R_k) + (K_0 (f_0^2 + f_k^2) + 2 f_0 f_k K_k)/4]``.
    K is one chirp-z transform, so the modes must be evenly spaced
    (DomainError otherwise), and R one real FFT convolution:
    O((n_modes + n_t) log(n_modes + n_t)) time, O(n_modes + n_t)
    memory. Roundoff negatives of a gamma that returns to zero are
    clamped to 0.
    """
    _check_positive("temperature", temperature)
    omega_0, step = _mode_grid(bath.omegas)
    bath.spectral.check_drive_step(dd.dt)

    strength = bath.weights * (thermal_occupation(bath.omegas, temperature)
                               + 0.5)
    n_t = dd.t.size
    gamma = np.zeros(n_t)
    drives = [d for d in (dd.df_x, dd.df_y) if np.any(d)]
    if drives:
        lag = _lag_kernel(omega_0, step, strength, dd.dt, n_t)
        size = _fft_size(2 * n_t - 1)
        lag_fft = np.fft.rfft(lag, size)
        for f in drives:
            r = np.fft.irfft(np.fft.rfft(f, size) * lag_fft, size)[:n_t]
            p = np.cumsum(f * (2.0 * r - f * lag[0]))
            q = np.cumsum(f * lag)
            gamma += (p - (f[0] * q + f * r)
                      + 0.25 * (lag[0] * (f[0] ** 2 + f ** 2)
                                + 2.0 * f[0] * f * lag))
        gamma *= dd.dt ** 2
        gamma[0] = 0.0
        np.maximum(gamma, 0.0, out=gamma)
    return DecoherenceSeries(dd.t.copy(), gamma, source="oracle")


def thermal_displacement_expectation(mu: complex, omega: float,
                                     temperature: float) -> float:
    """|Tr[rho_thermal D(mu)]| = exp(-|mu|^2 (n + 1/2)) for one mode."""
    nbar = float(thermal_occupation(omega, temperature))
    return math.exp(-abs(mu) ** 2 * (nbar + 0.5))


def thermal_displacement_brute(mu: complex, omega: float, temperature: float,
                               n_max: int = 400) -> float:
    """Same expectation summed in the truncated number basis.

    Uses <n|D(mu)|n> = e^{-|mu|^2/2} L_n(|mu|^2) and Boltzmann weights;
    independent of the closed form above, so it can vouch for it.
    """
    if n_max < 200:
        raise DomainError("need at least 200 quanta for a trustworthy sum")
    x = abs(mu) ** 2
    n = np.arange(n_max + 1)
    beta_omega = omega / temperature
    log_p = -beta_omega * n
    log_p -= np.log(np.sum(np.exp(log_p - log_p.max()))) + log_p.max()
    diag = np.exp(-0.5 * x) * _laguerre(n_max, x)
    return float(np.sum(np.exp(log_p) * diag))


def _laguerre(n_max: int, x: float) -> np.ndarray:
    """Laguerre polynomials L_0(x) .. L_n_max(x) by the three-term
    recurrence L_{n+1} = ((2n + 1 - x) L_n - n L_{n-1}) / (n + 1)."""
    values = np.empty(n_max + 1)
    values[0], values[1] = 1.0, 1.0 - x
    for n in range(1, n_max):
        values[n + 1] = ((2 * n + 1 - x) * values[n]
                         - n * values[n - 1]) / (n + 1)
    return values


def verify_displacement_identity(omega: float = 1.0, temperature: float = 2.0,
                                 mu_values=(0.3, 0.9j, 0.5 + 0.5j, 1.2),
                                 n_max: int = 400) -> float:
    """Max |closed form - number-basis sum| over the probe displacements."""
    worst = 0.0
    for mu in mu_values:
        exact = thermal_displacement_expectation(mu, omega, temperature)
        brute = thermal_displacement_brute(mu, omega, temperature, n_max)
        worst = max(worst, abs(exact - brute))
    return worst
