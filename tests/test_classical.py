import numpy as np
import pytest

from decochaos.classical import (_substeps, _tangent_steps, classify_scaling,
                                 detect_saturation,
                                 divergence_from_trajectories,
                                 divergence_integral, max_lyapunov,
                                 position_diameter, propagate)
from decochaos.errors import (DomainError, EscapeError, FitError,
                              GridMismatchError)
from decochaos.models import (Harmonic2D, HenonHeiles, InvertedHarmonic,
                              PhasePoint, PullenEdmonds, SeparableQuartic)
from decochaos.series import DivergenceSeries

# strongly chaotic Henon-Heiles point at the escape energy 1/6
Z_CHAOS = PhasePoint(-0.1, 0.3, 0.4531372124791047, 0.2)
# long-run (T = 1e5) renormalized-tangent baseline for Z_CHAOS
LAMBDA_BASELINE = 0.1296
SEED = 20260808


class TestPropagate:
    @pytest.mark.parametrize("dt", [0.01, 0.005, 0.002])
    def test_harmonic_closed_form(self, dt):
        model = Harmonic2D(1.0, 1.0)
        n = int(round(2 * np.pi / dt)) + 1
        traj = propagate(model, PhasePoint(1.0, 0.0, 0.0, 0.0), dt, n)
        assert np.max(np.abs(traj.z[:, 0] - np.cos(traj.t))) < 1e-6

    def test_free_motion_drift_exact(self):
        model = SeparableQuartic(0.0, 0.0)
        traj = propagate(model, PhasePoint(0.0, 0.0, 1.0, 0.0), 0.01, 1000)
        assert np.max(np.abs(traj.z[:, 0] - traj.t)) < 1e-12

    def test_reversibility(self):
        model = HenonHeiles(1.0)
        z0 = PhasePoint(0.1, -0.12, 0.4, 0.05)
        fwd = propagate(model, z0, 0.005, 10_000)
        zf = PhasePoint.from_array(fwd.z[-1])
        back = propagate(model, PhasePoint(zf.qx, zf.qy, -zf.px, -zf.py),
                         0.005, 10_000)
        recovered = back.z[-1] * np.array([1.0, 1.0, -1.0, -1.0])
        assert np.max(np.abs(recovered - z0.as_array())) < 1e-9

    @pytest.mark.parametrize("model,z0", [
        (Harmonic2D(1.0, 1.0), PhasePoint(1.0, 0.5, 0.0, 0.3)),
        (SeparableQuartic(1.0, 1.0), PhasePoint(0.4, 0.3, 0.476, 0.3)),
        (HenonHeiles(1.0), Z_CHAOS),
        (PullenEdmonds(1.0), PhasePoint(0.0, 0.8, 1.149, 0.2)),
    ], ids=lambda m: getattr(m, "family", ""))
    def test_energy_drift_over_1e6_steps(self, model, z0):
        traj = propagate(model, z0, 0.005, 1_000_000)
        assert model.energy_drift(traj).max() <= 1e-8

    def test_escape_carries_last_valid_sample(self):
        # 0.1 cosh t passes the radius 10 at t = acosh(100) = 5.298: the
        # message names the first sample outside, and the sample before
        # it is the orbit's last valid one
        model, z0 = InvertedHarmonic(1.0), PhasePoint(0.1, 0.0, 0.0, 0.0)
        with pytest.raises(EscapeError, match=r"radius at t=5\.3$"):
            propagate(model, z0, 0.01, 5000, escape_radius=10.0)
        last = propagate(model, z0, 0.01, 529, escape_radius=10.0).z[-1]
        assert 9.9 < last[0] <= 10.0

    @pytest.mark.parametrize("step", [1, 2])
    def test_escape_at_an_early_step(self, step):
        # free motion at unit speed leaves the radius-10 disc at step `step`
        z0 = PhasePoint(10.005 - 0.01 * step, 0.0, 1.0, 0.0)
        with pytest.raises(EscapeError) as exc:
            propagate(SeparableQuartic(0.0, 0.0), z0, 0.01, 10,
                      escape_radius=10.0)
        assert str(exc.value) == ("trajectory escaped the domain radius at "
                                  f"t={0.01 * step:g}")

    def test_argument_validation(self):
        model = Harmonic2D(1.0, 1.0)
        z = PhasePoint(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            propagate(model, z, -0.1, 10)
        with pytest.raises(DomainError):
            propagate(model, z, 0.1, 0)

    @pytest.mark.parametrize("dt, n_steps", [
        (True, 10), (0.1, True), (True, True), (float("nan"), 10),
        (float("inf"), 10), (10 ** 400, 10), (0.1, 10.0)],
        ids=["bool-dt", "bool-n", "bools", "nan-dt", "inf-dt", "huge-dt",
             "float-n"])
    def test_step_rule(self, dt, n_steps):
        # a bool is not a number, so it is neither a step nor a count
        with pytest.raises(DomainError):
            propagate(Harmonic2D(1.0, 1.0), PhasePoint(1.0, 0.0, 0.0, 0.0),
                      dt, n_steps)


def tangent_series(model, z0, v0, dt, n_steps):
    """Tangent vector v0 carried along the orbit through z0, one row per
    step, by the kernel max_lyapunov runs."""
    out = np.empty((n_steps + 1, 4))
    out[0] = v0
    state = (*z0.as_array(), *out[0])
    for i in range(1, n_steps + 1):
        state = _tangent_steps(model, dt, state, 1)
        out[i] = state[4:]
    return out


def rolled_tangent_steps(model, dt, state, n):
    """_tangent_steps as a loop over its three (drift, kick) stages: the
    reference its written-out stages must match bit for bit."""
    qx, qy, px, py, dqx, dqy, dpx, dpy = state
    a1, a2, b1, b0 = _substeps(model, dt)
    for _ in range(n):
        for a, b in ((a1, b1), (a2, b0), (a2, b1)):
            qx += a * px; qy += a * py
            dqx += a * dpx; dqy += a * dpy
            fx, fy = model.force(qx, qy)
            hxx, hxy, hyy = model.hessian_xy(qx, qy)
            px += b * fx; py += b * fy
            dpx -= b * (hxx * dqx + hxy * dqy)
            dpy -= b * (hxy * dqx + hyy * dqy)
        qx += a1 * px; qy += a1 * py
        dqx += a1 * dpx; dqy += a1 * dpy
    return qx, qy, px, py, dqx, dqy, dpx, dpy


class TestTangent:
    @pytest.mark.parametrize("model,z0", [
        (HenonHeiles(1.0), Z_CHAOS),
        (PullenEdmonds(1.0), PhasePoint(0.0, 0.8, 1.149, 0.2)),
    ], ids=lambda m: getattr(m, "family", ""))
    def test_unrolled_stages_match_the_stage_loop_bitwise(self, model, z0):
        # both orbits are chaotic, so any reordered operation would
        # show in the last bits long before 20 000 steps
        state = (*z0.as_array().tolist(), 0.5, -0.5, 0.5, 0.5)
        assert _tangent_steps(model, 0.02, state, 20_000) == \
            rolled_tangent_steps(model, 0.02, state, 20_000)

    def test_harmonic_tangent_norm_bounded(self):
        model = Harmonic2D(1.0, 1.3)
        v = tangent_series(model, PhasePoint(1.0, 0.0, 0.0, 0.2),
                           [1.0, 0.0, 0.0, 0.0], 0.01, 20_000)
        norms = np.linalg.norm(v, axis=1)
        # monodromy of a stable linear system is conjugate to a rotation
        assert norms.max() < 10.0 * norms[0]

    def test_inverted_harmonic_growth_rate(self):
        model = InvertedHarmonic(1.0)
        dt = 0.01
        v = tangent_series(model, PhasePoint(0.0, 0.0, 0.0, 0.0),
                           [1.0, 0.0, 0.5, 0.0], dt, 2000)
        norms = np.linalg.norm(v, axis=1)
        rate = np.log(norms[-1] / norms[1000]) / (1000 * dt)
        assert rate == pytest.approx(1.0, rel=0.02)

    def test_monodromy_determinant_is_one(self):
        def monodromy(model, z0, dt, n_steps):
            # columns are the propagated phase-space basis vectors
            return np.array([tangent_series(model, z0, e, dt, n_steps)[-1]
                             for e in np.eye(4)]).T

        M = monodromy(Harmonic2D(1.0, 1.0), PhasePoint(1.0, 0.0, 0.0, 0.0),
                      0.01, 628)
        assert abs(np.linalg.det(M) - 1.0) < 1e-8
        M = monodromy(HenonHeiles(1.0), Z_CHAOS, 0.005, 2000)
        assert abs(np.linalg.det(M) - 1.0) < 1e-8

    def test_matches_finite_orbit_difference_while_small(self):
        # linearized propagation tracks the actual orbit pair to 1%
        # while the separation stays below 1e-3 of the orbit scale
        model = HenonHeiles(1.0)
        eps = 1e-8
        v0 = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        v = tangent_series(model, Z_CHAOS, v0, 0.005, 12_000)
        ta = propagate(model, Z_CHAOS, 0.005, 12_000)
        tb = propagate(model, Z_CHAOS + PhasePoint(*(eps * v0)), 0.005,
                       12_000)
        actual = (tb.z - ta.z) / eps
        scale = position_diameter(ta)
        norms = np.linalg.norm(v, axis=1)
        mask = eps * norms < 1e-3 * scale
        rel = np.linalg.norm(actual[mask] - v[mask], axis=1) / norms[mask]
        assert np.max(rel) < 0.01


class TestMaxLyapunov:
    def test_harmonic_is_zero(self):
        est = max_lyapunov(Harmonic2D(1.0, 1.0),
                           PhasePoint(1.0, 0.5, 0.0, 0.3),
                           0.05, 1e4, 5.0, seed=SEED)
        assert abs(est.lambda_max) < 1e-3

    def test_inverted_harmonic_saddle_rate(self):
        est = max_lyapunov(InvertedHarmonic(1.0), PhasePoint(0, 0, 0, 0),
                           0.01, 200.0, 1.0, seed=SEED)
        assert est.lambda_max == pytest.approx(1.0, rel=0.02)

    def test_invariance_under_dt_and_renorm_changes(self):
        # validation families: estimates stable at the 2% level
        z = PhasePoint(0, 0, 0, 0)
        base = max_lyapunov(InvertedHarmonic(1.0), z, 0.01, 200.0, 1.0,
                            seed=SEED)
        half_dt = max_lyapunov(InvertedHarmonic(1.0), z, 0.005, 200.0, 1.0,
                               seed=SEED)
        double_renorm = max_lyapunov(InvertedHarmonic(1.0), z, 0.01, 200.0,
                                     2.0, seed=SEED)
        assert half_dt.lambda_max == pytest.approx(base.lambda_max, rel=0.02)
        assert double_renorm.lambda_max == pytest.approx(base.lambda_max,
                                                         rel=0.02)
        zh = PhasePoint(1.0, 0.5, 0.0, 0.3)
        for dt, renorm in ((0.05, 5.0), (0.025, 5.0), (0.05, 10.0)):
            est = max_lyapunov(Harmonic2D(1.0, 1.0), zh, dt, 1e4, renorm,
                               seed=SEED)
            assert abs(est.lambda_max) < 1e-3

    def test_convergence_history_shape(self):
        est = max_lyapunov(InvertedHarmonic(1.0), PhasePoint(0, 0, 0, 0),
                           0.01, 100.0, 1.0, seed=SEED)
        assert est.convergence.shape == (100, 2)
        assert est.lambda_max == est.convergence[-1, 1]
        assert np.all(np.isfinite(est.convergence))

    def test_chaotic_baseline_regression(self):
        # recorded once from a T = 1e5 run; positive and reproducible
        est = max_lyapunov(HenonHeiles(1.0), Z_CHAOS, 0.02, 1e5, 2.0,
                           seed=SEED)
        assert est.lambda_max > 0.0
        assert est.lambda_max == pytest.approx(LAMBDA_BASELINE, rel=0.03)

    def test_escape_names_its_time(self):
        # 0.1 cosh t passes the radius 10 at t = acosh(100) = 5.298, in the
        # sixth renormalization block of length 1
        with pytest.raises(EscapeError, match=r"between t=5 and t=6$"):
            max_lyapunov(InvertedHarmonic(1.0), PhasePoint(0.1, 0, 0, 0),
                         0.01, 100.0, 1.0, seed=SEED, escape_radius=10.0)

    def test_precondition_enforced(self):
        with pytest.raises(DomainError):
            max_lyapunov(Harmonic2D(1, 1), PhasePoint(1, 0, 0, 0),
                         0.1, 10.0, 5.0, seed=1)

    @pytest.mark.parametrize("dt, total_time, renorm_interval", [
        (0.01, float("inf"), 1.0), (0.01, 100.0, float("nan")),
        (0.01, float("inf"), float("inf")), (0.01, 10 ** 400, 1.0),
        (True, 100.0, 1.0), (0.01, 100.0, True)],
        ids=["inf-total", "nan-renorm", "inf-both", "huge-total", "bool-dt",
             "bool-renorm"])
    def test_non_finite_times_rejected(self, dt, total_time,
                                       renorm_interval):
        with pytest.raises(DomainError):
            max_lyapunov(Harmonic2D(1, 1), PhasePoint(1, 0, 0, 0), dt,
                         total_time, renorm_interval, seed=1)


class TestDivergenceIntegral:
    @pytest.mark.parametrize("dt_b, n_b", [(0.01, 200), (0.02, 100)],
                             ids=["more-samples", "other-step"])
    def test_orbits_on_different_grids_are_rejected(self, dt_b, n_b):
        model, z0 = Harmonic2D(1.0, 1.0), PhasePoint(1.0, 0.0, 0.0, 0.5)
        ta = propagate(model, z0, 0.01, 100)
        with pytest.raises(GridMismatchError):
            divergence_from_trajectories(model, ta,
                                         propagate(model, z0, dt_b, n_b))

    @pytest.mark.parametrize("delta_z", [
        [1e-6, 0.0, 0.0], [0.0, float("nan"), 0.0, 0.0]], ids=["3-vector",
                                                              "nan"])
    def test_malformed_delta_z_rejected(self, delta_z):
        with pytest.raises(DomainError):
            divergence_integral(Harmonic2D(1.0, 1.0), PhasePoint(1, 0, 0, 0),
                                delta_z, 0.01, 10)

    def test_zero_displacement_gives_zero(self):
        series = divergence_integral(HenonHeiles(1.0), Z_CHAOS,
                                     np.zeros(4), 0.01, 500)
        assert np.all(series.D == 0.0)
        assert np.all(series.separation == 0.0)

    def test_free_motion_cubic_closed_form(self):
        # motion is linear in delta_z, so a roundoff-friendly displacement
        # loses nothing
        dp = 1e-3
        series = divergence_integral(SeparableQuartic(0.0, 0.0),
                                     PhasePoint(0, 0, 1.0, 0),
                                     np.array([0, 0, dp, 0]), 1e-3, 20_000)
        mask = series.t >= 15.0
        exact = dp ** 2 * series.t[mask] ** 3 / 3.0
        assert np.max(np.abs(series.D[mask] / exact - 1.0)) < 1e-8

    def test_harmonic_closed_form(self):
        dq = 1e-3
        series = divergence_integral(Harmonic2D(1.0, 1.0),
                                     PhasePoint(1, 0, 0, 0),
                                     np.array([dq, 0, 0, 0]), 2.5e-4, 80_000)
        mask = series.t >= 5.0
        exact = dq ** 2 * (series.t[mask] / 2 + np.sin(2 * series.t[mask]) / 4)
        assert np.max(np.abs(series.D[mask] / exact - 1.0)) < 1e-8

    def test_non_decreasing_and_zero_start(self):
        series = divergence_integral(HenonHeiles(1.0), Z_CHAOS,
                                     np.full(4, 1e-7), 0.005, 4000)
        assert series.D[0] == 0.0
        assert np.all(np.diff(series.D) >= 0.0)


class TestClassifyScaling:
    def synthetic(self, t, D):
        return DivergenceSeries(t, D)

    def test_pure_cubic(self):
        t = np.linspace(0.0, 10.0, 401)
        fit = classify_scaling(self.synthetic(t, t ** 3), (1.0, 10.0))
        assert fit.kind == "power_law"
        assert fit.exponent_or_rate == pytest.approx(3.0, abs=1e-6)
        assert fit.r_squared > 1.0 - 1e-12

    def test_pure_exponential(self):
        # D = e^{0.4 t} on every fitted sample (the t = 0 anchor sits
        # outside the window)
        t = np.linspace(0.0, 10.0, 401)
        D = np.concatenate(([0.0], np.exp(0.4 * t[1:])))
        fit = classify_scaling(DivergenceSeries(t, D), (1.0, 10.0))
        assert fit.kind == "exponential"
        assert fit.exponent_or_rate == pytest.approx(0.4, abs=1e-6)
        assert fit.r_squared > 1.0 - 1e-12

    def test_shifted_exponential_still_classified(self):
        t = np.linspace(0.0, 10.0, 401)
        series = DivergenceSeries(t, np.exp(0.4 * (t - t[0])) - 1.0)
        fit = classify_scaling(series, (1.0, 10.0))
        assert fit.kind == "exponential"

    def test_ambiguity_flag(self):
        # nearly linear data fits both laws comparably over a narrow window
        t = np.linspace(0.0, 10.0, 401)
        D = 1.0 + 0.01 * t
        D[0] = 0.0
        fit = classify_scaling(DivergenceSeries(t, D), (9.0, 10.0))
        assert fit.ambiguous
        assert fit.alternative is not None
        assert {fit.kind, fit.alternative.kind} == {"power_law",
                                                    "exponential"}

    def test_too_few_samples(self):
        t = np.linspace(0.0, 10.0, 401)
        with pytest.raises(FitError):
            classify_scaling(self.synthetic(t, t ** 3), (9.9, 10.0))

    def test_degenerate_window(self):
        t = np.linspace(0.0, 10.0, 401)
        D = np.ones_like(t)
        D[0] = 0.0
        with pytest.raises(FitError):
            classify_scaling(self.synthetic(t, D), (1.0, 10.0))

    def test_default_window_ends_at_saturation(self):
        # separation 0.01 t crosses a tenth of the diameter 0.5 at t = 5.1
        t = np.linspace(0.0, 10.0, 101)
        series = DivergenceSeries(t, t ** 3, separation=0.01 * t)
        t_sat = detect_saturation(series, 0.5)
        assert t_sat == pytest.approx(5.1)
        fit = classify_scaling(series, shell_diameter=0.5)
        assert fit.window == (0.25 * t_sat, t_sat)
        assert fit.kind == "power_law"
        # no diameter, or no saturation: the window ends at the last time
        for diameter in (None, 10.0):
            assert classify_scaling(series, shell_diameter=diameter
                                    ).window == (2.5, 10.0)


class TestSaturationHelpers:
    def test_detect_saturation(self):
        t = np.linspace(0.0, 10.0, 101)
        D = np.zeros_like(t)
        sep = 0.01 * t
        series = DivergenceSeries(t, D, separation=sep)
        assert detect_saturation(series, 0.5) == pytest.approx(5.1, abs=0.1)
        assert detect_saturation(series, 10.0) is None
        # a start at rest at a fixed point has no scale to saturate at
        assert detect_saturation(series, 0.0) is None

    def test_position_diameter(self):
        traj = propagate(Harmonic2D(1.0, 1.0), PhasePoint(1, 0, 0, 0),
                         0.01, 700)
        assert position_diameter(traj) == pytest.approx(2.0, rel=1e-3)

    def test_position_diameter_of_a_positions_array(self):
        traj = propagate(Harmonic2D(1.0, 1.0), PhasePoint(1, 0, 0, 0.5),
                         0.01, 700)
        assert position_diameter(traj.z[:, :2].copy()) == \
            position_diameter(traj)
