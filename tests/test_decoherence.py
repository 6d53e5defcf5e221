import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy import euler_gamma
from scipy.special import sici

from decochaos.classical import propagate
from decochaos.decoherence import (HartreeErrorEstimate, RegimeRun,
                                   asymptotic_exponent, compare_regimes,
                                   hartree_error, weight_w)
from decochaos.errors import DomainError, GridMismatchError
from decochaos.models import InvertedHarmonic, PhasePoint
from decochaos.quantum import Grid2D, init_gaussian, propagate_wavepacket
from decochaos.series import (DecoherenceSeries, DriveDifference,
                              ExpectationSeries)


def make_dd(t, df_x, df_y=None):
    if df_y is None:
        df_y = np.zeros_like(t)
    return DriveDifference(t, df_x, df_y)


class TestAsymptoticExponent:
    def test_zero_difference_keeps_full_coherence(self):
        t = np.linspace(0.0, 10.0, 1001)
        out = asymptotic_exponent(make_dd(t, np.zeros_like(t)), 1.0, 100.0)
        assert np.all(out.gamma == 0.0)
        assert np.all(np.exp(-out.gamma) == 1.0)

    def test_constant_difference_is_exactly_linear(self):
        # exact up to cumulative-sum roundoff
        C, T, d = 0.8, 50.0, 0.03
        t = np.linspace(0.0, 10.0, 1001)
        out = asymptotic_exponent(make_dd(t, np.full_like(t, d)), C, T)
        exact = 0.5 * C * T * d ** 2 * t
        assert np.max(np.abs(out.gamma - exact)) < 1e-12 * exact[-1]

    def test_harmonic_difference_closed_form(self):
        C, T, dq = 1.0, 100.0, 0.01
        t = np.arange(0.0, 10.0 + 1e-12, 5e-4)
        out = asymptotic_exponent(make_dd(t, dq * np.cos(t)), C, T)
        exact = 0.5 * C * T * dq ** 2 * (t / 2 + np.sin(2 * t) / 4)
        mask = t >= 5.0
        assert np.max(np.abs(out.gamma[mask] / exact[mask] - 1.0)) < 1e-8

    def test_non_decreasing_and_zero_iff_zero_drive(self):
        t = np.linspace(0.0, 10.0, 2001)
        out = asymptotic_exponent(make_dd(t, 0.01 * np.sin(t)), 1.0, 10.0)
        assert np.all(np.diff(out.gamma) >= 0.0)
        assert out.gamma[-1] > 0.0

    def test_swap_and_translation_invariance(self):
        t = np.linspace(0.0, 10.0, 2001)
        f1 = 0.2 * np.cos(t)
        f2 = 0.2 * np.cos(t) + 0.01 * np.sin(2 * t)
        shift = np.sin(0.3 * t)
        base = asymptotic_exponent(make_dd(t, f2 - f1), 1.0, 10.0)
        swapped = asymptotic_exponent(make_dd(t, f1 - f2), 1.0, 10.0)
        shifted = asymptotic_exponent(
            make_dd(t, (f2 + shift) - (f1 + shift)), 1.0, 10.0)
        assert np.array_equal(base.gamma, swapped.gamma)
        assert np.max(np.abs(base.gamma - shifted.gamma)) < 1e-15

    def test_parameter_guards(self):
        t = np.linspace(0.0, 1.0, 101)
        with pytest.raises(DomainError):
            asymptotic_exponent(make_dd(t, np.ones(101)), -1.0, 10.0)
        with pytest.raises(DomainError):
            asymptotic_exponent(make_dd(t, np.ones(101)), 1.0, 0.0)

    @pytest.mark.parametrize("coupling, temperature", [
        (1.0, np.inf), (np.inf, 10.0), (1.0, np.nan), (np.nan, 10.0),
        *[(v, 10.0) for v in (True, "1", 0, -1)],
        *[(1.0, v) for v in (True, "1", 0, -1)]])
    def test_non_finite_constants_rejected(self, coupling, temperature):
        t = np.linspace(0.0, 1.0, 101)
        with pytest.raises(DomainError):
            asymptotic_exponent(make_dd(t, np.ones(101)), coupling,
                                temperature)


class TestWeightKernel:
    def test_midpoint_value(self):
        assert weight_w(0.5, 2 * np.pi) == pytest.approx(8.0, abs=1e-12)

    def test_endpoint_limits(self):
        for omega in (3.7, 2 * np.pi, 50.0):
            expected = 1.0 - np.cos(omega)
            assert weight_w(0.0, omega) == pytest.approx(expected, abs=1e-12)
            assert weight_w(1.0, omega) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_exact_on_dyadic_grid(self):
        u = np.arange(0, 1025) / 1024.0
        for omega in (3.7, 20.0):
            assert np.array_equal(weight_w(u, omega), weight_w(1.0 - u,
                                                               omega))

    @settings(max_examples=200)
    @given(u=st.floats(0.0, 1.0), omega=st.floats(0.1, 200.0))
    def test_symmetry_property(self, u, omega):
        # tolerance covers the kernel slope times the representational
        # gap between u and 1 - (1 - u) near the endpoints
        a = weight_w(u, omega)
        b = weight_w(1.0 - u, omega)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)

    def test_series_switchover_continuity(self):
        # probe one ulp on either side of the branch threshold so the
        # kernel's own slope contributes nothing; any jump is a branch
        # mismatch
        for omega in (2 * np.pi, 50.0, 200.0):
            v = 1e-4 / omega
            below = weight_w(np.nextafter(v, 0.0), omega)
            above = weight_w(np.nextafter(v, 1.0), omega)
            assert abs(below - above) <= 1e-8

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            weight_w(-0.1, 10.0)
        with pytest.raises(DomainError):
            weight_w(1.1, 10.0)

    @given(u=st.floats(0.0, 1.0))
    def test_non_negative(self, u):
        assert weight_w(u, 30.0) >= 0.0


class TestHartreeError:
    def constant_series(self, t_eval=10.0, n=20_000, var_total=0.3):
        t = np.linspace(0.0, t_eval, n + 1)
        mean = np.zeros((n + 1, 2))
        var = np.full((n + 1, 2), var_total / 2)
        return ExpectationSeries(t, mean, var)

    def test_constant_variance_matches_cosine_integral(self):
        C, omega_max, t_eval, v = 0.7, 5.0, 10.0, 0.3
        est = hartree_error(self.constant_series(t_eval, var_total=v), C,
                            omega_max, t_eval)
        big_omega = omega_max * t_eval
        _, ci = sici(big_omega)
        closed = C / (2 * np.pi) * v * 2 * (np.log(big_omega) + euler_gamma
                                            - ci)
        assert est.value == pytest.approx(closed, rel=1e-6)
        assert est.warning is None

    def test_linearity_in_variance(self):
        series = self.constant_series()
        doubled = ExpectationSeries(series.t, series.mean_q,
                                    2.0 * series.var_q)
        a = hartree_error(series, 1.0, 5.0, 10.0)
        b = hartree_error(doubled, 1.0, 5.0, 10.0)
        assert b.value == pytest.approx(2.0 * a.value, rel=1e-14)

    def test_growing_variance_dominates_constant(self):
        t = np.linspace(0.0, 10.0, 20_001)
        mean = np.zeros((20_001, 2))
        sigma2 = 0.5
        const = ExpectationSeries(t, mean, np.full((20_001, 2), sigma2))
        grow = ExpectationSeries(
            t, mean,
            np.stack([sigma2 * (1 + (t / (2 * sigma2)) ** 2)] * 2, axis=1))
        a = hartree_error(const, 1.0, 5.0, 10.0)
        b = hartree_error(grow, 1.0, 5.0, 10.0)
        assert b.value > a.value

    def test_warning_below_validity_floor(self):
        est = hartree_error(self.constant_series(), 1.0, 0.5, 10.0)
        assert isinstance(est, HartreeErrorEstimate)
        assert est.warning is not None

    def test_series_too_short(self):
        with pytest.raises(DomainError):
            hartree_error(self.constant_series(t_eval=5.0), 1.0, 5.0, 10.0)

    @pytest.mark.parametrize("coupling, omega_max, t_eval", [
        (float("inf"), 5.0, 10.0), (1.0, float("inf"), 10.0),
        (1.0, 5.0, float("nan"))])
    def test_non_finite_arguments_rejected(self, coupling, omega_max,
                                           t_eval):
        with pytest.raises(DomainError):
            hartree_error(self.constant_series(), coupling, omega_max,
                          t_eval)


def synthetic_gamma(t, values):
    return DecoherenceSeries(t, values, source="oracle")


class TestCompareRegimes:
    def test_identical_runs_no_dominance(self):
        t = np.linspace(0.0, 10.0, 101)
        g = t ** 2
        reg = RegimeRun("a", synthetic_gamma(t, g))
        cha = RegimeRun("b", synthetic_gamma(t, g.copy()))
        out = compare_regimes(reg, cha, t)
        assert not out.dominates
        assert out.t_star is None
        valid = ~np.isnan(out.ratio)
        assert np.allclose(out.ratio[valid], 1.0)

    def test_synthetic_crossing(self):
        t = np.linspace(0.0, 10.0, 2001)
        g_reg = t ** 3
        g_cha = np.exp(0.8 * t) - 1.0
        reg = RegimeRun("regular", synthetic_gamma(t, g_reg))
        cha = RegimeRun("chaotic", synthetic_gamma(t, g_cha))
        out = compare_regimes(reg, cha, t)
        assert out.dominates
        # positive solution of t^3 = e^{0.8 t} - 1 near 7.6165
        assert out.t_star == pytest.approx(7.6165, abs=0.01)
        after = out.t > out.t_star
        assert np.all(out.ratio[after] > 1.0)

    def test_horizon_restricts_grid(self):
        t = np.linspace(0.0, 10.0, 101)
        reg = RegimeRun("r", synthetic_gamma(t, t), ehrenfest_t_max=4.0)
        cha = RegimeRun("c", synthetic_gamma(t, 2 * t), ehrenfest_t_max=8.0)
        out = compare_regimes(reg, cha, t)
        assert out.t[-1] <= 4.0 + 1e-9
        assert out.dominates and out.within_ehrenfest

    def test_insufficient_coverage_raises(self):
        t_short = np.linspace(0.0, 5.0, 51)
        t_long = np.linspace(0.0, 10.0, 101)
        reg = RegimeRun("r", synthetic_gamma(t_short, t_short))
        cha = RegimeRun("c", synthetic_gamma(t_short, 2 * t_short))
        with pytest.raises(GridMismatchError):
            compare_regimes(reg, cha, t_long)


class TestSaddleGammaChain:
    """On InvertedHarmonic(k), lambda = sqrt(k), the Hamiltonian is
    quadratic, so packet means follow classical orbits exactly (Ehrenfest)
    and the quantum gamma chain (split-step, moments, drive difference,
    asymptotic exponent) has an exact answer: the classical gamma on the
    same sample grid. What is left is the split-step's dt^2 error."""

    HBAR, DT, EVERY = 0.01, 0.002, 10

    def drives(self, k, box, widths, delta, n_steps):
        """The quantum and classical drive differences, on one sample grid,
        of the packets or orbits from the origin at rest and from delta."""
        model = InvertedHarmonic(k)
        grid = Grid2D(128, 128, box, box, self.HBAR)
        starts = (PhasePoint(0.0, 0.0, 0.0, 0.0), PhasePoint(*delta))
        quantum = DriveDifference.from_expectations(*(propagate_wavepacket(
            init_gaussian(grid, z, widths), model, self.DT, n_steps,
            self.EVERY)[0] for z in starts))
        full = DriveDifference.from_trajectories(*(
            propagate(model, z, self.DT, n_steps) for z in starts))
        every = slice(None, None, self.EVERY)
        classical = DriveDifference(full.t[every], full.df_x[every],
                                    full.df_y[every])
        return quantum, classical

    @staticmethod
    def gamma_gap(quantum, classical):
        """The largest relative gap of the two gammas after t = 0."""
        gq, gc = (asymptotic_exponent(dd, 1.0, 1.0).gamma[1:]
                  for dd in (quantum, classical))
        return float(np.max(np.abs(gq - gc) / gc))

    def test_packets_at_rest_give_the_classical_gamma(self):
        width = math.sqrt(self.HBAR / 2)
        quantum, classical = self.drives(1.0, 3.2, (width, width),
                                         (1e-4,) * 4, 750)
        assert self.gamma_gap(quantum, classical) <= 1e-6

    @pytest.mark.parametrize("k", [0.25, 1.0])
    def test_unstable_manifold_grows_at_twice_lambda(self, k):
        # delta on the unstable manifold grows as exp(lambda t) from t = 0
        lam = math.sqrt(k)
        widths = (math.sqrt(self.HBAR / (2 * lam)), math.sqrt(self.HBAR / 2))
        delta = (1e-4, 0.0, 1e-4 * lam, 0.0)
        quantum, classical = self.drives(k, 4.0, widths, delta,
                                         round(1.5 / lam / self.DT))
        assert self.gamma_gap(quantum, classical) <= 1e-5
        rate = np.polyfit(quantum.t, np.log(quantum.squared_magnitude()), 1)[0]
        assert abs(rate - 2 * lam) <= 1e-4
