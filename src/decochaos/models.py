"""Two-dimensional Hamiltonian families.

Every potential is a polynomial, so gradients and Hessians are coded
analytically; finite differences appear only in the test suite as oracles.
Natural units throughout: hbar = k_B = 1 and mass defaults to 1.

All evaluation methods accept plain floats or numpy arrays and broadcast
elementwise, which lets the integrators run on scalars while energy
bookkeeping runs vectorized.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import _check_positive, _check_real

__all__ = [
    "PhasePoint",
    "HamiltonianModel",
    "Harmonic2D",
    "InvertedHarmonic",
    "SeparableQuartic",
    "HenonHeiles",
    "PullenEdmonds",
    "MODEL_FAMILIES",
    "make_model",
]


@dataclass(frozen=True)
class PhasePoint:
    """A point (qx, qy, px, py) of the four-dimensional phase space."""

    qx: float
    qy: float
    px: float
    py: float

    def __post_init__(self):
        for name in ("qx", "qy", "px", "py"):
            v = getattr(self, name)
            _check_real(f"PhasePoint.{name}", v)
            object.__setattr__(self, name, float(v))

    def as_array(self) -> np.ndarray:
        return np.array([self.qx, self.qy, self.px, self.py])

    @classmethod
    def from_array(cls, z) -> "PhasePoint":
        z = np.asarray(z, dtype=float)
        if z.shape != (4,):
            raise DomainError(f"expected 4 phase-space components, "
                              f"got shape {z.shape}")
        return cls(float(z[0]), float(z[1]), float(z[2]), float(z[3]))

    def __add__(self, other: "PhasePoint") -> "PhasePoint":
        return PhasePoint(self.qx + other.qx, self.qy + other.qy,
                          self.px + other.px, self.py + other.py)


class HamiltonianModel:
    """Base class: a 2D potential V(qx, qy) plus standard kinetic energy.

    Subclasses implement ``potential_xy``, ``force`` (minus the
    gradient) and ``hessian_xy`` with plain arithmetic so both scalars
    and arrays pass through, and pass their parameters to this
    constructor, which stores each, and the positive mass, as a float
    attribute once it is a finite real number.
    """

    family = "base"

    def __init__(self, mass: float = 1.0, **params):
        _check_positive("mass", mass)
        for name, value in {"mass": mass, **params}.items():
            _check_real(name, value)
            setattr(self, name, float(value))

    # family-specific pieces -------------------------------------------------

    def potential_xy(self, qx, qy):
        raise NotImplementedError

    def force(self, qx, qy):
        """Return (-dV/dqx, -dV/dqy)."""
        raise NotImplementedError

    def hessian_xy(self, qx, qy):
        """Return (Vxx, Vxy, Vyy); the matrix is symmetric by construction."""
        raise NotImplementedError

    def total_energy(self, z: PhasePoint) -> float:
        return (self.kinetic_energy(z.px, z.py)
                + float(self.potential_xy(z.qx, z.qy)))

    def kinetic_energy(self, px, py):
        return (px ** 2 + py ** 2) / (2.0 * self.mass)

    def energy_drift(self, *orbits) -> np.ndarray:
        """Relative energy drift of orbits on one time grid, per sample:
        the largest |E(t) - E(0)| among them over the largest |E(0)|, or,
        if every E(0) is 0, over the largest kinetic energy any of them
        reaches; orbits that never move read 0."""
        dev = functools.reduce(np.maximum, (np.abs(o.energy - o.energy[0])
                                            for o in orbits))
        scale = max(abs(o.energy[0]) for o in orbits)
        if scale == 0:
            scale = max(np.max(self.kinetic_energy(o.z[:, 2], o.z[:, 3]))
                        for o in orbits)
        return dev / scale if scale > 0 else dev


class Harmonic2D(HamiltonianModel):
    """V = (m/2) (omega_x^2 qx^2 + omega_y^2 qy^2).

    Exactly solvable; serves as the zero-Lyapunov oracle even though it is
    not a generic regular system.
    """

    family = "harmonic2d"

    def __init__(self, omega_x: float = 1.0, omega_y: float = 1.0,
                 mass: float = 1.0):
        super().__init__(mass, omega_x=omega_x, omega_y=omega_y)
        _check_positive("omega_x", omega_x)
        _check_positive("omega_y", omega_y)

    def potential_xy(self, qx, qy):
        return 0.5 * self.mass * (self.omega_x ** 2 * qx ** 2
                                  + self.omega_y ** 2 * qy ** 2)

    def force(self, qx, qy):
        return (-(self.mass * self.omega_x ** 2 * qx),
                -(self.mass * self.omega_y ** 2 * qy))

    def hessian_xy(self, qx, qy):
        kxx = self.mass * self.omega_x ** 2
        kyy = self.mass * self.omega_y ** 2
        return (kxx + 0.0 * qx, 0.0 * qx, kyy + 0.0 * qx)


class InvertedHarmonic(HamiltonianModel):
    """V = (m/2) (-k qx^2 + qy^2): a saddle along x embedded in 2D.

    The x motion obeys d^2qx/dt^2 = k qx, so any displacement grows like
    exp(sqrt(k) t) and the maximum Lyapunov exponent is exactly sqrt(k).
    The y direction is a unit-frequency oscillator to keep the phase space
    honestly four-dimensional.
    """

    family = "inverted_harmonic"

    def __init__(self, k: float = 1.0, mass: float = 1.0):
        super().__init__(mass, k=k)
        _check_positive("k", k)

    def potential_xy(self, qx, qy):
        return 0.5 * self.mass * (-self.k * qx ** 2 + qy ** 2)

    def force(self, qx, qy):
        return (self.mass * self.k * qx, -self.mass * qy)

    def hessian_xy(self, qx, qy):
        return (-self.mass * self.k + 0.0 * qx, 0.0 * qx,
                self.mass + 0.0 * qx)


class SeparableQuartic(HamiltonianModel):
    """V = (a qx^4 + b qy^4) / 4: generic regular (integrable) motion.

    The oscillation frequency depends on amplitude, so adjacent orbits
    drift apart linearly in time; a = b = 0 gives free motion.
    """

    family = "separable_quartic"

    def __init__(self, a: float = 1.0, b: float = 1.0, mass: float = 1.0):
        super().__init__(mass, a=a, b=b)
        if a < 0 or b < 0:
            raise DomainError("SeparableQuartic coefficients must be >= 0")

    def potential_xy(self, qx, qy):
        return 0.25 * (self.a * qx ** 4 + self.b * qy ** 4)

    def force(self, qx, qy):
        return (-(self.a * qx ** 3), -(self.b * qy ** 3))

    def hessian_xy(self, qx, qy):
        return (3.0 * self.a * qx ** 2, 0.0 * qx, 3.0 * self.b * qy ** 2)


class HenonHeiles(HamiltonianModel):
    """V = (qx^2 + qy^2)/2 + lam (qx^2 qy - qy^3/3).

    Bounded motion below the escape energy 1/(6 lam^2); large-scale chaos
    develops as that energy is approached.
    """

    family = "henon_heiles"

    def __init__(self, lam: float = 1.0, mass: float = 1.0):
        super().__init__(mass, lam=lam)
        _check_positive("lam", lam)
        self._2lam = 2.0 * self.lam    # 2.0 * lam * q == _2lam * q, bitwise

    def potential_xy(self, qx, qy):
        return (0.5 * (qx ** 2 + qy ** 2)
                + self.lam * (qx ** 2 * qy - qy ** 3 / 3.0))

    def force(self, qx, qy):
        return (-(qx + self._2lam * qx * qy),
                -(qy + self.lam * (qx ** 2 - qy ** 2)))

    def hessian_xy(self, qx, qy):
        return (1.0 + self._2lam * qy,
                self._2lam * qx,
                1.0 - self._2lam * qy)


class PullenEdmonds(HamiltonianModel):
    """V = (qx^2 + qy^2)/2 + alpha qx^2 qy^2: confining and chaotic."""

    family = "pullen_edmonds"

    def __init__(self, alpha: float = 1.0, mass: float = 1.0):
        super().__init__(mass, alpha=alpha)
        _check_positive("alpha", alpha)
        self._2alpha = 2.0 * self.alpha    # as in HenonHeiles
        self._4alpha = 4.0 * self.alpha

    def potential_xy(self, qx, qy):
        return 0.5 * (qx ** 2 + qy ** 2) + self.alpha * qx ** 2 * qy ** 2

    def force(self, qx, qy):
        return (-(qx + self._2alpha * qx * qy ** 2),
                -(qy + self._2alpha * qx ** 2 * qy))

    def hessian_xy(self, qx, qy):
        return (1.0 + self._2alpha * qy ** 2,
                self._4alpha * qx * qy,
                1.0 + self._2alpha * qx ** 2)


MODEL_FAMILIES = {
    cls.family: cls
    for cls in (Harmonic2D, InvertedHarmonic, SeparableQuartic,
                HenonHeiles, PullenEdmonds)
}


def make_model(family: str, params: dict | None = None,
               mass: float = 1.0) -> HamiltonianModel:
    """Construct a model by family name; unknown names list the valid ones."""
    cls = MODEL_FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        valid = ", ".join(sorted(MODEL_FAMILIES))
        raise DomainError(f"unknown model family {family!r}; "
                          f"valid families: {valid}")
    return cls(**(params or {}), mass=mass)
