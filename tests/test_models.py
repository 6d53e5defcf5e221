import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decochaos.errors import DomainError
from decochaos.models import (MODEL_FAMILIES, Harmonic2D, HenonHeiles,
                              InvertedHarmonic, PhasePoint, PullenEdmonds,
                              SeparableQuartic, make_model)

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

TEST_POINTS = [(0.0, 0.0), (0.3, -0.2), (1.0, 1.0), (-0.7, 0.45),
               (0.11, 0.62), (-1.3, -0.9)]


def fd_grad(model, qx, qy, h):
    gx = (model.potential((qx + h, qy)) - model.potential((qx - h, qy))) / (2 * h)
    gy = (model.potential((qx, qy + h)) - model.potential((qx, qy - h))) / (2 * h)
    return np.array([gx, gy])


def fd_hessian(model, qx, qy, h):
    gxp = model.grad_potential((qx + h, qy))
    gxm = model.grad_potential((qx - h, qy))
    gyp = model.grad_potential((qx, qy + h))
    gym = model.grad_potential((qx, qy - h))
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
        back = (z + dz) - dz
        assert np.allclose(back.as_array(), z.as_array())
        assert z.norm() == pytest.approx(math.sqrt(1 + 4 + 0.25 + 0.0625))


class TestPotentialValues:
    def test_harmonic_minimum(self):
        assert Harmonic2D(1.0, 1.0).potential((0.0, 0.0)) == 0.0

    def test_henon_heiles_origin(self):
        assert HenonHeiles(1.0).potential((0.0, 0.0)) == 0.0

    def test_quartic_regression_baseline(self):
        # V = (a qx^4 + b qy^4)/4, frozen as the package's convention
        assert SeparableQuartic(1.0, 1.0).potential((1.0, 1.0)) == \
            pytest.approx(0.5, abs=1e-15)

    def test_harmonic_gradient_is_linear(self):
        g = Harmonic2D(1.0, 1.0).grad_potential((1.0, 0.0))
        assert np.allclose(g, [1.0, 0.0])

    def test_gradient_vanishes_at_stationary_points(self):
        for model in ALL_MODELS:
            assert np.allclose(model.grad_potential((0.0, 0.0)), 0.0)

    def test_harmonic_hessian_constant(self):
        m = Harmonic2D(0.7, 1.3, mass=2.0)
        H = m.hessian_potential((0.4, -1.0))
        assert np.allclose(H, np.diag([2.0 * 0.49, 2.0 * 1.69]))

    def test_non_finite_input_rejected(self):
        for op in ("potential", "grad_potential", "hessian_potential"):
            with pytest.raises(DomainError):
                getattr(HenonHeiles(1.0), op)((np.nan, 0.0))


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_gradient_matches_finite_differences(model):
    for qx, qy in TEST_POINTS:
        exact = model.grad_potential((qx, qy))
        approx = fd_grad(model, qx, qy, 1e-6)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.allclose(approx, exact, atol=1e-6 * scale)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_hessian_matches_finite_differences(model):
    for qx, qy in TEST_POINTS:
        exact = model.hessian_potential((qx, qy))
        approx = fd_hessian(model, qx, qy, 1e-5)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.allclose(approx, exact, atol=1e-5 * scale)
        assert exact[0, 1] == exact[1, 0]


@given(qx=st.floats(-3, 3), qy=st.floats(-3, 3))
def test_even_potentials_and_odd_gradients(qx, qy):
    for model in (Harmonic2D(0.9, 1.1), SeparableQuartic(0.8, 1.2)):
        assert model.potential((qx, qy)) == model.potential((-qx, -qy))
        assert np.array_equal(model.grad_potential((qx, qy)),
                              -model.grad_potential((-qx, -qy)))


class TestTotalEnergy:
    def test_pure_potential(self):
        z = PhasePoint(1.0, 0.0, 0.0, 0.0)
        assert Harmonic2D(1.0, 1.0).total_energy(z) == pytest.approx(0.5)

    def test_pure_kinetic(self):
        z = PhasePoint(0.0, 0.0, 1.0, 0.0)
        for model in ALL_MODELS:
            if model.potential((0.0, 0.0)) == 0.0:
                expected = 0.5 / model.mass
                assert model.total_energy(z) == pytest.approx(expected)


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
