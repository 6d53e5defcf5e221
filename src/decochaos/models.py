"""Two-dimensional Hamiltonian families.

Every potential is a polynomial, so gradients and Hessians are coded
analytically; finite differences appear only in the test suite as oracles.
Natural units throughout: hbar = k_B = 1 and mass defaults to 1.

All evaluation methods accept plain floats or numpy arrays and broadcast
elementwise, which lets the integrators run on scalars while energy
bookkeeping runs vectorized.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import _finite_real

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
            if not _finite_real(v):
                raise DomainError(f"PhasePoint.{name} must be a finite real "
                                  f"number, got {v!r}")
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
    constructor, which stores each as a float attribute once it is a
    finite real number.
    """

    family = "base"

    def __init__(self, mass: float = 1.0, **params):
        for name, value in {"mass": mass, **params}.items():
            if not _finite_real(value):
                raise DomainError(f"{name} must be a finite real number, "
                                  f"got {value!r}")
            setattr(self, name, float(value))
        if not self.mass > 0:
            raise DomainError(f"mass must be positive, got {mass!r}")

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


class Harmonic2D(HamiltonianModel):
    """V = (m/2) (omega_x^2 qx^2 + omega_y^2 qy^2).

    Exactly solvable; serves as the zero-Lyapunov oracle even though it is
    not a generic regular system.
    """

    family = "harmonic2d"

    def __init__(self, omega_x: float = 1.0, omega_y: float = 1.0,
                 mass: float = 1.0):
        super().__init__(mass, omega_x=omega_x, omega_y=omega_y)
        if not (omega_x > 0 and omega_y > 0):
            raise DomainError("Harmonic2D frequencies must be positive")

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
        if not k > 0:
            raise DomainError("InvertedHarmonic stiffness k must be positive")

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
        if not lam > 0:
            raise DomainError("HenonHeiles coupling lam must be positive")

    def potential_xy(self, qx, qy):
        return (0.5 * (qx ** 2 + qy ** 2)
                + self.lam * (qx ** 2 * qy - qy ** 3 / 3.0))

    def force(self, qx, qy):
        return (-(qx + 2.0 * self.lam * qx * qy),
                -(qy + self.lam * (qx ** 2 - qy ** 2)))

    def hessian_xy(self, qx, qy):
        return (1.0 + 2.0 * self.lam * qy,
                2.0 * self.lam * qx,
                1.0 - 2.0 * self.lam * qy)


class PullenEdmonds(HamiltonianModel):
    """V = (qx^2 + qy^2)/2 + alpha qx^2 qy^2: confining and chaotic."""

    family = "pullen_edmonds"

    def __init__(self, alpha: float = 1.0, mass: float = 1.0):
        super().__init__(mass, alpha=alpha)
        if not alpha > 0:
            raise DomainError("PullenEdmonds coupling alpha must be positive")

    def potential_xy(self, qx, qy):
        return 0.5 * (qx ** 2 + qy ** 2) + self.alpha * qx ** 2 * qy ** 2

    def force(self, qx, qy):
        return (-(qx + 2.0 * self.alpha * qx * qy ** 2),
                -(qy + 2.0 * self.alpha * qx ** 2 * qy))

    def hessian_xy(self, qx, qy):
        return (1.0 + 2.0 * self.alpha * qy ** 2,
                4.0 * self.alpha * qx * qy,
                1.0 + 2.0 * self.alpha * qx ** 2)


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
