import numpy as np
import pytest
from hypothesis import given, strategies as st

from decochaos.errors import DomainError
from decochaos.models import (MODEL_FAMILIES, Harmonic2D, HenonHeiles,
                              InvertedHarmonic, PhasePoint, PullenEdmonds,
                              SeparableQuartic, make_model)
from decochaos.series import Trajectory

ALL_MODELS = [
    Harmonic2D(1.0, 1.0),
    Harmonic2D(0.7, 1.3, mass=2.0),
    InvertedHarmonic(1.0),
    InvertedHarmonic(2.5, mass=0.5),
    SeparableQuartic(1.0, 1.0),
    SeparableQuartic(0.3, 2.0),
    HenonHeiles(1.0),
    HenonHeiles(0.5),
    PullenEdmonds(1.0),
    PullenEdmonds(0.05),
]


def model_id(model):
    """A test id: the family class, its parameters, then the mass."""
    mass, *params = ((k, v) for k, v in vars(model).items()
                     if not k.startswith("_"))
    inner = ", ".join(f"{k}={v:g}" for k, v in [*params, mass])
    return f"{type(model).__name__}({inner})"


TEST_POINTS = [(0.0, 0.0), (0.3, -0.2), (1.0, 1.0), (-0.7, 0.45),
               (0.11, 0.62), (-1.3, -0.9)]


def grad(model, qx, qy):
    return -np.array(model.force(qx, qy))


def hessian(model, qx, qy):
    hxx, hxy, hyy = model.hessian_xy(qx, qy)
    return np.array([[hxx, hxy], [hxy, hyy]])


def fd_grad(model, qx, qy, h):
    V = model.potential_xy
    gx = (V(qx + h, qy) - V(qx - h, qy)) / (2 * h)
    gy = (V(qx, qy + h) - V(qx, qy - h)) / (2 * h)
    return np.array([gx, gy])


def fd_hessian(model, qx, qy, h):
    gxp = grad(model, qx + h, qy)
    gxm = grad(model, qx - h, qy)
    gyp = grad(model, qx, qy + h)
    gym = grad(model, qx, qy - h)
    return np.array([(gxp - gxm) / (2 * h), (gyp - gym) / (2 * h)])


class TestPhasePoint:
    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            PhasePoint(np.nan, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            PhasePoint(0.0, np.inf, 0.0, 0.0)

    def test_roundtrip_and_arithmetic(self):
        z = PhasePoint(1.0, -2.0, 0.5, 0.25)
        assert PhasePoint.from_array(z.as_array()) == z
        dz = PhasePoint(0.1, 0.1, 0.0, -0.1)
        assert np.array_equal((z + dz).as_array(),
                              z.as_array() + dz.as_array())


class TestPotentialValues:
    def test_harmonic_minimum(self):
        assert Harmonic2D(1.0, 1.0).potential_xy(0.0, 0.0) == 0.0

    def test_henon_heiles_origin(self):
        assert HenonHeiles(1.0).potential_xy(0.0, 0.0) == 0.0

    def test_quartic_regression_baseline(self):
        # V = (a qx^4 + b qy^4)/4, frozen as the package's convention
        assert SeparableQuartic(1.0, 1.0).potential_xy(1.0, 1.0) == \
            pytest.approx(0.5, abs=1e-15)

    def test_harmonic_gradient_is_linear(self):
        g = grad(Harmonic2D(1.0, 1.0), 1.0, 0.0)
        assert np.allclose(g, [1.0, 0.0])

    def test_gradient_vanishes_at_stationary_points(self):
        for model in ALL_MODELS:
            assert np.allclose(grad(model, 0.0, 0.0), 0.0)

    def test_harmonic_hessian_constant(self):
        m = Harmonic2D(0.7, 1.3, mass=2.0)
        H = hessian(m, 0.4, -1.0)
        assert np.allclose(H, np.diag([2.0 * 0.49, 2.0 * 1.69]))


@pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
def test_gradient_matches_finite_differences(model):
    for qx, qy in TEST_POINTS:
        exact = grad(model, qx, qy)
        approx = fd_grad(model, qx, qy, 1e-6)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.allclose(approx, exact, atol=1e-6 * scale)


@pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
def test_hessian_matches_finite_differences(model):
    for qx, qy in TEST_POINTS:
        exact = hessian(model, qx, qy)
        approx = fd_hessian(model, qx, qy, 1e-5)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.allclose(approx, exact, atol=1e-5 * scale)
        assert exact[0, 1] == exact[1, 0]


def textbook_force_and_hessian(model, qx, qy):
    """The chaotic families' force and Hessian as the formulas read."""
    if isinstance(model, HenonHeiles):
        lam = model.lam
        return ((-(qx + 2.0 * lam * qx * qy),
                 -(qy + lam * (qx ** 2 - qy ** 2))),
                (1.0 + 2.0 * lam * qy, 2.0 * lam * qx, 1.0 - 2.0 * lam * qy))
    alpha = model.alpha
    return ((-(qx + 2.0 * alpha * qx * qy ** 2),
             -(qy + 2.0 * alpha * qx ** 2 * qy)),
            (1.0 + 2.0 * alpha * qy ** 2, 4.0 * alpha * qx * qy,
             1.0 + 2.0 * alpha * qx ** 2))


@pytest.mark.parametrize("model", [m for m in ALL_MODELS if isinstance(
    m, (HenonHeiles, PullenEdmonds))], ids=model_id)
def test_chaotic_force_and_hessian_are_the_formulas_bitwise(model):
    # the stored constant products must leave every bit of the formula
    grid = np.meshgrid(np.linspace(-1.3, 1.1, 41), np.linspace(-0.9, 1.2, 37))
    for qx, qy in [*TEST_POINTS, (0.1 / 3.0, -2.0 / 7.0), grid]:
        force, hess = textbook_force_and_hessian(model, qx, qy)
        for got, want in zip((*model.force(qx, qy), *model.hessian_xy(qx, qy)),
                             (*force, *hess)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@given(qx=st.floats(-3, 3), qy=st.floats(-3, 3))
def test_even_potentials_and_odd_gradients(qx, qy):
    for model in (Harmonic2D(0.9, 1.1), SeparableQuartic(0.8, 1.2)):
        assert model.potential_xy(qx, qy) == model.potential_xy(-qx, -qy)
        assert np.array_equal(grad(model, qx, qy), -grad(model, -qx, -qy))


class TestTotalEnergy:
    def test_pure_potential(self):
        z = PhasePoint(1.0, 0.0, 0.0, 0.0)
        assert Harmonic2D(1.0, 1.0).total_energy(z) == pytest.approx(0.5)

    def test_pure_kinetic(self):
        z = PhasePoint(0.0, 0.0, 1.0, 0.0)
        for model in ALL_MODELS:
            if model.potential_xy(0.0, 0.0) == 0.0:
                expected = 0.5 / model.mass
                assert model.total_energy(z) == pytest.approx(expected)


def orbit(energy, p=0.0):
    """A three-sample Trajectory with the given energies and px = p."""
    z = np.zeros((3, 4))
    z[:, 2] = p
    return Trajectory(np.arange(3.0), z, np.asarray(energy, dtype=float))


class TestEnergyDrift:
    def test_scaled_by_the_larger_initial_energy(self):
        a, b = orbit([2.0, 2.5, 1.0]), orbit([-4.0, -4.0, -3.0])
        drift = Harmonic2D(1.0, 1.0).energy_drift(a, b)
        assert drift.tolist() == [0.0, 0.5 / 4.0, 1.0 / 4.0]

    def test_zero_energy_scaled_by_the_largest_kinetic_energy(self):
        # mass 2: the kinetic energy p^2 / 4 peaks at 0.25 on the moving orbit
        a, b = orbit([0.0, 0.0, 0.0]), orbit([0.0, 1e-3, -2e-3], p=1.0)
        drift = Harmonic2D(1.0, 1.0, mass=2.0).energy_drift(a, b)
        assert drift.tolist() == [0.0, 1e-3 / 0.25, 2e-3 / 0.25]

    def test_orbits_that_never_move_read_zero(self):
        drift = InvertedHarmonic(1.0).energy_drift(orbit([0.0, 0.0, 0.0]))
        assert drift.tolist() == [0.0, 0.0, 0.0]


class TestRegistry:
    def test_all_families_constructible(self):
        for name in MODEL_FAMILIES:
            assert make_model(name).family == name

    def test_unknown_family_lists_valid_ones(self):
        with pytest.raises(DomainError, match="harmonic2d"):
            make_model("elliptic")

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            Harmonic2D(-1.0, 1.0)
        with pytest.raises(DomainError):
            SeparableQuartic(-0.1, 1.0)
        with pytest.raises(DomainError):
            HenonHeiles(0.0)
        with pytest.raises(DomainError):
            make_model("harmonic2d", mass=-2.0)

    @pytest.mark.parametrize("value", ["2", np.nan, np.inf, True, None,
                                       [1.0], 10 ** 400],
                             ids=["string", "nan", "inf", "bool", "none",
                                  "list", "beyond-float-range"])
    def test_parameters_must_be_finite_real_numbers(self, value):
        with pytest.raises(DomainError, match="finite real number"):
            make_model("separable_quartic", {"a": value})
        with pytest.raises(DomainError, match="finite real number"):
            PhasePoint(value, 0.0, 0.0, 0.0)
