import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_laguerre

from decochaos.bath import (BathDiscretization, SpectralDensity,
                            decoherence_exponent_oracle, discretize_bath,
                            evolve_bath_amplitude, spectral_weight,
                            thermal_displacement_brute,
                            thermal_displacement_expectation,
                            thermal_occupation,
                            verify_displacement_identity)
from decochaos.errors import DomainError
from decochaos.series import DriveDifference


def make_dd(t, df_x, df_y=None):
    if df_y is None:
        df_y = np.zeros_like(t)
    return DriveDifference(t, df_x, df_y)


def per_mode_exponent(bath, dd, temperature):
    """sum_j S_j |s_j|^2 over both axes, one single-mode amplitude at a
    time; with kappa = 1 and alpha0 = 0, |alpha_j| = |s_j|."""
    strength = bath.weights * (thermal_occupation(bath.omegas, temperature)
                               + 0.5)
    gamma = np.zeros_like(dd.t)
    for drive in (dd.df_x, dd.df_y):
        for omega, s in zip(bath.omegas, strength):
            alpha = evolve_bath_amplitude(omega, 1.0, dd.t, drive)
            gamma += s * np.abs(alpha) ** 2
    return gamma


class TestSpectralWeight:
    def test_negative_frequency_killed(self):
        sd = SpectralDensity(1.0, 10.0)
        assert spectral_weight(sd, -1.0) == 0.0

    def test_above_cutoff_killed(self):
        sd = SpectralDensity(1.0, 10.0)
        assert spectral_weight(sd, 10.1) == 0.0

    def test_direct_substitution(self):
        sd = SpectralDensity(2.0 * np.pi, 10.0)
        assert spectral_weight(sd, 1.0) == pytest.approx(1.0, abs=1e-15)

    @given(omega=st.floats(-50, 50))
    def test_support(self, omega):
        sd = SpectralDensity(3.0, 10.0)
        w = spectral_weight(sd, omega)
        if 0 < omega <= 10.0:
            assert w == pytest.approx(3.0 / (2 * np.pi) * omega)
        else:
            assert w == 0.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            SpectralDensity(0.0, 10.0)
        with pytest.raises(DomainError):
            SpectralDensity(1.0, -1.0)

    @pytest.mark.parametrize("value", [True, "1", np.nan, np.inf, 0, -1])
    @pytest.mark.parametrize("name", ["coupling", "omega_max"])
    def test_constants_are_positive_finite_numbers(self, name, value):
        with pytest.raises(DomainError, match=name):
            SpectralDensity(**{"coupling": 1.0, "omega_max": 10.0,
                               name: value})


class TestDiscretization:
    def test_two_mode_midpoints(self):
        sd = SpectralDensity(1.0, 8.0)
        bath = discretize_bath(sd, 2)
        assert np.allclose(bath.omegas, [2.0, 6.0])

    def test_weight_sum_matches_integral(self):
        sd = SpectralDensity(1.0, 10.0)
        exact = sd.coupling * sd.omega_max ** 2 / (4 * np.pi)
        bath = discretize_bath(sd, 10_000)
        assert np.sum(bath.weights) == pytest.approx(exact, rel=1e-4)

    def test_too_few_modes(self):
        with pytest.raises(DomainError):
            discretize_bath(SpectralDensity(1.0, 10.0), 1)

    def test_mode_count_rule_is_stated(self):
        with pytest.raises(DomainError,
                           match="n_modes must be an integer >= 2"):
            discretize_bath(SpectralDensity(1.0, 10.0), np.int64(2000))


class TestDrivenAmplitude:
    def test_free_rotation(self):
        t = np.linspace(0.0, 5.0, 501)
        alpha = evolve_bath_amplitude(2.0, 0.7, t, np.zeros_like(t),
                                      alpha0=0.3 + 0.4j)
        exact = np.exp(-2j * t) * (0.3 + 0.4j)
        assert np.max(np.abs(alpha - exact)) < 1e-12

    def test_constant_drive_closed_form(self):
        omega, kappa, f0 = 2.0, 0.8, 0.3
        t = np.arange(0.0, 5.0 + 1e-12, 2e-4)
        alpha = evolve_bath_amplitude(omega, kappa, t, np.full_like(t, f0))
        exact = -(kappa * f0 / omega) * (1.0 - np.exp(-1j * omega * t))
        assert np.max(np.abs(alpha - exact)) < 1e-8

    def test_linearity(self):
        t = np.linspace(0.0, 4.0, 801)
        f1 = np.sin(t)
        f2 = 0.5 * np.cos(3 * t)
        a1 = evolve_bath_amplitude(1.7, 0.5, t, f1)
        a2 = evolve_bath_amplitude(1.7, 0.5, t, f2)
        a12 = evolve_bath_amplitude(1.7, 0.5, t, f1 + f2)
        assert np.max(np.abs(a12 - (a1 + a2))) < 1e-12

    def test_non_uniform_grid_rejected(self):
        t = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(DomainError):
            evolve_bath_amplitude(1.0, 1.0, t, np.zeros(4))


class TestOracle:
    @pytest.mark.parametrize("case", ["xy-midpoint", "x-only", "y-only",
                                      "hand-built-modes"])
    def test_matches_per_mode_reference(self, case):
        sd = SpectralDensity(1.0, 10.0)
        t = 0.5 + np.linspace(0.0, 5.0, 2001)
        df_x = 0.01 * np.sin(t) + 0.003 * np.cos(7.0 * t)
        df_y = 0.02 * np.cos(3.0 * t) * np.exp(-0.1 * t)
        bath = discretize_bath(sd, 300)
        if case == "x-only":
            df_y = np.zeros_like(t)
        elif case == "y-only":
            df_x = np.zeros_like(t)
        elif case == "hand-built-modes":
            # evenly spaced but offset: not the midpoints of any grid
            bath = BathDiscretization(0.37 + 1.9 * np.arange(5),
                                      np.array([0.2, 0.05, 1.3, 0.7, 0.01]),
                                      sd)
        dd = make_dd(t, df_x, df_y)
        out = decoherence_exponent_oracle(bath, dd, 50.0)
        ref = per_mode_exponent(bath, dd, 50.0)
        assert out.gamma[0] == ref[0] == 0.0
        rel = np.abs(out.gamma[1:] - ref[1:]) / ref[1:]
        assert np.max(rel) <= 1e-12

    @pytest.mark.parametrize("t0", [0.0, 3.7])
    def test_long_growing_drive_matches_per_mode_reference(self, t0):
        # a chaotic-like x+y drive difference growing by e^6 over 6001
        # samples, on the shipped bath size
        sd = SpectralDensity(1.0, 10.0)
        bath = discretize_bath(sd, 2000)
        t = t0 + 0.005 * np.arange(6001)
        s = t - t0
        df_x = 1e-4 * np.exp(0.2 * s) * np.sin(1.3 * s + 0.4)
        df_y = 1e-4 * np.exp(0.2 * s) * np.cos(0.7 * s) * (1 + 0.3 * s)
        dd = make_dd(t, df_x, df_y)
        out = decoherence_exponent_oracle(bath, dd, 1000.0)
        ref = per_mode_exponent(bath, dd, 1000.0)
        assert np.max(np.abs(out.gamma - ref)) <= 1e-12 * np.max(ref)
        assert abs(out.gamma[-1] - ref[-1]) <= 1e-12 * ref[-1]

    def test_uneven_modes_rejected(self):
        sd = SpectralDensity(1.0, 10.0)
        bath = BathDiscretization(np.array([0.37, 1.9, 2.05, 6.3, 9.99]),
                                  np.array([0.2, 0.05, 1.3, 0.7, 0.01]), sd)
        t = np.linspace(0.0, 5.0, 2001)
        with pytest.raises(DomainError, match="evenly spaced"):
            decoherence_exponent_oracle(bath, make_dd(t, 0.01 * np.sin(t)),
                                        50.0)

    @pytest.mark.parametrize("n_modes", [2, 2000, 10_000, 1_000_000])
    def test_midpoint_grids_are_evenly_spaced(self, n_modes):
        # rounding misses the progression by more than 1e-12 of the
        # spacing at 10^4 modes, but never by 1e-12 of the top frequency
        from decochaos.bath import _mode_grid

        bath = discretize_bath(SpectralDensity(1.0, 10.0), n_modes)
        omega_0, step = _mode_grid(bath.omegas)
        assert omega_0 == bath.omegas[0]
        assert step == pytest.approx(10.0 / n_modes, rel=1e-12)

    def test_recurrence_to_zero_is_clamped(self):
        # over whole periods the trapezoid sum of e^{i omega t} vanishes,
        # so gamma returns to zero; its roundoff negatives become 0
        omega, weight, temperature = 2.0, 0.5, 20.0
        sd = SpectralDensity(1.0, 10.0)
        bath = BathDiscretization(np.array([omega]), np.array([weight]), sd)
        period = 2 * np.pi / omega
        t = np.arange(0.0, 3 * period + 1e-12, period / 1000)
        dd = make_dd(t, np.full_like(t, 0.01))
        out = decoherence_exponent_oracle(bath, dd, temperature)
        ref = per_mode_exponent(bath, dd, temperature)
        clamped = out.gamma[1:] == 0.0
        assert np.any(clamped)
        assert np.all(ref[1:][clamped] <= 1e-12 * np.max(ref))
        assert np.max(np.abs(out.gamma - ref)) <= 1e-12 * np.max(ref)

    def test_zero_drive_difference(self):
        sd = SpectralDensity(1.0, 10.0)
        bath = discretize_bath(sd, 100)
        t = np.linspace(0.0, 5.0, 501)
        out = decoherence_exponent_oracle(bath, make_dd(t, np.zeros_like(t)),
                                          temperature=100.0)
        assert np.all(out.gamma == 0.0)

    def test_single_mode_constant_drive(self):
        omega, weight, d, T = 2.0, 0.37, 0.01, 50.0
        sd = SpectralDensity(1.0, 10.0)
        bath = BathDiscretization(np.array([omega]), np.array([weight]), sd)
        t = np.arange(0.0, 10.0 + 1e-12, 1e-3)
        out = decoherence_exponent_oracle(bath, make_dd(t, np.full_like(t, d)),
                                          temperature=T)
        nbar = thermal_occupation(omega, T)
        exact = (weight * (nbar + 0.5) * d ** 2
                 * 4 * np.sin(omega * t / 2) ** 2 / omega ** 2)
        assert np.max(np.abs(out.gamma - exact)) < 1e-8

    def test_single_mode_recurrence(self):
        omega = 2.0
        sd = SpectralDensity(1.0, 10.0)
        bath = BathDiscretization(np.array([omega]), np.array([0.5]), sd)
        period = 2 * np.pi / omega
        n_per = 1000
        t = np.arange(0.0, 3 * period + 1e-12, period / n_per)
        out = decoherence_exponent_oracle(
            bath, make_dd(t, np.full_like(t, 0.01)), temperature=20.0)
        assert np.max(np.abs(out.gamma[n_per:2 * n_per]
                             - out.gamma[2 * n_per:3 * n_per])) < 1e-12

    def test_dense_bath_has_no_recurrence_in_window(self):
        sd = SpectralDensity(1.0, 10.0)
        bath = discretize_bath(sd, 10_000)
        t = np.arange(0.0, 20.0 + 1e-12, 0.01)
        out = decoherence_exponent_oracle(
            bath, make_dd(t, np.full_like(t, 0.01)), temperature=1000.0)
        running_max = np.maximum.accumulate(out.gamma)
        drop = np.max((running_max - out.gamma)
                      / np.maximum(running_max, 1e-300))
        assert drop <= 0.01

    def test_swap_symmetry_is_exact(self):
        sd = SpectralDensity(1.0, 10.0)
        bath = discretize_bath(sd, 500)
        t = np.linspace(0.0, 5.0, 2001)
        df_x, df_y = 0.01 * np.sin(t), 0.02 * np.cos(3 * t)
        a = decoherence_exponent_oracle(bath, make_dd(t, df_x, df_y), 100.0)
        b = decoherence_exponent_oracle(bath, make_dd(t, -df_x, -df_y), 100.0)
        assert np.array_equal(a.gamma, b.gamma)

    def test_common_translation_invariance(self):
        # the bath sees only the difference of the two drives
        t = np.linspace(0.0, 5.0, 2001)
        f1 = 0.3 * np.cos(t)
        f2 = 0.3 * np.cos(t) + 0.01 * np.sin(2 * t)
        shift = 0.7 * np.sin(0.5 * t)
        dd_a = make_dd(t, f2 - f1)
        dd_b = make_dd(t, (f2 + shift) - (f1 + shift))
        sd = SpectralDensity(1.0, 10.0)
        bath = discretize_bath(sd, 500)
        a = decoherence_exponent_oracle(bath, dd_a, 100.0)
        b = decoherence_exponent_oracle(bath, dd_b, 100.0)
        assert np.max(np.abs(a.gamma - b.gamma)) < 1e-14 * max(
            1.0, np.max(a.gamma))

    def test_gamma_non_negative(self):
        sd = SpectralDensity(1.0, 10.0)
        bath = discretize_bath(sd, 200)
        t = np.linspace(0.0, 5.0, 2001)
        out = decoherence_exponent_oracle(
            bath, make_dd(t, 0.01 * np.sin(3 * t)), 10.0)
        assert np.all(out.gamma >= 0.0)

    def test_refinement_convergence(self):
        sd = SpectralDensity(1.0, 10.0)
        t = np.arange(0.0, 10.0 + 1e-12, 0.005)
        dd = make_dd(t, np.full_like(t, 0.02))
        coarse = decoherence_exponent_oracle(discretize_bath(sd, 10_000),
                                             dd, 1000.0)
        fine = decoherence_exponent_oracle(discretize_bath(sd, 20_000),
                                           dd, 1000.0)
        mask = fine.gamma > 0
        rel = np.abs(coarse.gamma[mask] - fine.gamma[mask]) / fine.gamma[mask]
        assert np.max(rel) <= 1e-3

    def test_aliasing_guard(self):
        sd = SpectralDensity(1.0, 10.0)
        bath = discretize_bath(sd, 50)
        t = np.linspace(0.0, 5.0, 51)      # dt = 0.1 > pi/100
        with pytest.raises(DomainError, match="pi/"):
            decoherence_exponent_oracle(bath, make_dd(t, np.ones(51)), 10.0)

    def test_temperature_guard(self):
        sd = SpectralDensity(1.0, 10.0)
        bath = discretize_bath(sd, 50)
        t = np.linspace(0.0, 5.0, 2001)
        with pytest.raises(DomainError):
            decoherence_exponent_oracle(bath, make_dd(t, np.ones(2001)), 0.0)

    @pytest.mark.parametrize("temperature",
                             [np.inf, np.nan, -1.0, True, "1", 0])
    def test_non_finite_temperature_rejected(self, temperature):
        bath = discretize_bath(SpectralDensity(1.0, 10.0), 50)
        t = np.linspace(0.0, 5.0, 2001)
        with pytest.raises(DomainError, match="temperature"):
            decoherence_exponent_oracle(bath, make_dd(t, np.ones(2001)),
                                        temperature)

    def test_aliasing_bound_is_pi_over_ten_omega_max(self):
        # the bound is set by the cutoff, not by the top midpoint mode
        sd = SpectralDensity(1.0, 10.0)
        bath = discretize_bath(sd, 2000)
        for dt, ok in ((np.pi / 100.0, True), (0.03142, False)):
            t = dt * np.arange(101)
            dd = make_dd(t, np.ones(101))
            if ok:
                decoherence_exponent_oracle(bath, dd, 10.0)
            else:
                with pytest.raises(DomainError, match="pi/"):
                    decoherence_exponent_oracle(bath, dd, 10.0)


class TestDisplacementIdentity:
    def test_brute_force_matches_closed_form(self):
        worst = verify_displacement_identity(omega=1.0, temperature=2.0,
                                             n_max=400)
        assert worst < 1e-6

    @pytest.mark.parametrize("mu", [0.2, 0.6 + 0.3j, 1.0j, 1.5])
    def test_individual_displacements(self, mu):
        exact = thermal_displacement_expectation(mu, 1.0, 2.0)
        brute = thermal_displacement_brute(mu, 1.0, 2.0, n_max=300)
        assert brute == pytest.approx(exact, abs=1e-6)

    @pytest.mark.parametrize("x", [0.09, 0.5, 1.44, 2.5, 5.0])
    def test_laguerre_recurrence_matches_scipy(self, x):
        from decochaos.bath import _laguerre

        assert np.max(np.abs(_laguerre(400, x)
                             - eval_laguerre(np.arange(401), x))) < 1e-12

    def test_truncation_floor_enforced(self):
        with pytest.raises(DomainError):
            thermal_displacement_brute(0.5, 1.0, 2.0, n_max=100)

    def test_occupation_limits(self):
        assert thermal_occupation(1.0, 1e-8) == pytest.approx(0.0, abs=1e-12)
        assert thermal_occupation(1.0, 100.0) == pytest.approx(99.5, rel=1e-2)
