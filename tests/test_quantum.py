import pickle

import numpy as np
import pytest

from decochaos.classical import position_diameter, propagate
from decochaos.errors import (BoundaryLeakError, DomainError, GridError,
                              GridMismatchError)
from decochaos.models import (MODEL_FAMILIES, Harmonic2D, PhasePoint,
                              PullenEdmonds, SeparableQuartic, make_model)
from decochaos.quantum import (Grid2D, _moments, ehrenfest_break_time,
                               init_gaussian, propagate_wavepacket,
                               save_wavepacket)
from decochaos.series import ExpectationSeries, Trajectory

SIGMA_COHERENT = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def grid128():
    return Grid2D(128, 128, 12.0, 12.0, hbar_eff=1.0)


@pytest.fixture(scope="module")
def grid64():
    return Grid2D(64, 64, 12.0, 12.0, hbar_eff=1.0)


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(GridError):
            Grid2D(100, 128, 10.0, 10.0)
        with pytest.raises(GridError):
            Grid2D(32, 32, 10.0, 10.0)
        with pytest.raises(GridError):
            Grid2D(64, 64, -1.0, 10.0)
        with pytest.raises(GridError):
            Grid2D(64, 64, 10.0, 10.0, hbar_eff=0.0)

    @pytest.mark.parametrize("args", [
        (64.0, 64, 10.0, 10.0), (64, True, 10.0, 10.0),
        (64, 64, "10", 10.0), (64, 64, 10.0, np.inf),
        (64, 64, 10.0, 10.0, None)])
    def test_rejects_wrong_types(self, args):
        with pytest.raises(GridError):
            Grid2D(*args)

    def test_construction_allocates_no_mesh(self):
        grid = Grid2D(2 ** 20, 2 ** 20, 10.0, 10.0)
        assert grid.gaussian_widths([0.5, 0.5]) == (0.5, 0.5)
        assert not {"X", "Y", "KX", "KY", "k2"} & set(vars(grid))

    def test_state_pickles_its_grid_as_the_five_inputs(self):
        grid = Grid2D(128, 128, 12.0, 12.0, hbar_eff=0.5)
        state = init_gaussian(grid, PhasePoint(0.73, -0.41, 0.3, -0.2),
                              (0.6, 0.8))
        assert not any(isinstance(v, np.ndarray) for v in vars(grid).values())
        data = pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
        # the amplitudes, 16 * 128^2 bytes, and little else
        assert len(data) < 16 * 128 * 128 + 1024
        back = pickle.loads(data)
        assert vars(back.grid) == vars(grid)
        assert not {"X", "Y", "KX", "KY", "k2"} & set(vars(back.grid))
        assert back.psi.dtype == state.psi.dtype
        assert back.psi.tobytes() == state.psi.tobytes()
        assert back.t == state.t
        for a, b in zip(back.grid.wavenumbers(), grid.wavenumbers()):
            np.testing.assert_array_equal(a, b)

    def test_cell_geometry(self, grid64):
        assert grid64.dx == pytest.approx(12.0 / 64)
        assert grid64.cell_area == pytest.approx((12.0 / 64) ** 2)


def mesh_reference(grid):
    """The full-grid position and wavenumber meshes X, Y, KX, KY."""
    x = (np.arange(grid.nx) - grid.nx // 2) * grid.dx
    y = (np.arange(grid.ny) - grid.ny // 2) * grid.dy
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy)
    return (*np.meshgrid(x, y, indexing="ij"),
            *np.meshgrid(kx, ky, indexing="ij"))


class TestBroadcastAxes:
    """The grid's broadcast axes give every grid point the operands that
    full meshes give it, so each result keeps its bits."""

    grid = Grid2D(128, 64, 12.0, 10.0, hbar_eff=0.5)
    z = PhasePoint(0.73, -0.41, 0.3, -0.2)

    def test_axes_are_the_meshes(self):
        X, Y, KX, KY = mesh_reference(self.grid)
        x, y = self.grid.positions()
        kx, ky = self.grid.wavenumbers()
        assert x.shape == kx.shape == (128, 1)
        assert y.shape == ky.shape == (1, 64)
        for axis, mesh in ((x, X), (y, Y), (kx, KX), (ky, KY)):
            assert np.broadcast_to(axis, mesh.shape).tobytes() == \
                mesh.tobytes()

    def test_init_gaussian_bits(self):
        X, Y, _, _ = mesh_reference(self.grid)
        z, (sx, sy) = self.z, (0.6, 0.8)
        psi = np.exp(-(X - z.qx) ** 2 / (4.0 * sx * sx)
                     - (Y - z.qy) ** 2 / (4.0 * sy * sy)
                     + 1j * (z.px * X + z.py * Y) / self.grid.hbar)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * self.grid.cell_area)
        state = init_gaussian(self.grid, z, (sx, sy))
        assert state.psi.shape == psi.shape
        assert state.psi.tobytes() == psi.tobytes()

    @pytest.mark.parametrize("family", sorted(MODEL_FAMILIES))
    def test_potential_bits(self, family):
        model = make_model(family, None, 0.7)
        X, Y, _, _ = mesh_reference(self.grid)
        V = model.potential_xy(*self.grid.positions())
        assert V.shape == X.shape
        assert V.tobytes() == model.potential_xy(X, Y).tobytes()

    def test_position_moments_bits(self):
        X, Y, _, _ = mesh_reference(self.grid)
        psi = init_gaussian(self.grid, self.z, (0.6, 0.8)).psi
        rho = (psi.real ** 2 + psi.imag ** 2) * self.grid.cell_area
        mx, my = float(np.sum(rho * X)), float(np.sum(rho * Y))
        assert _moments(rho, *self.grid.positions()) == (
            (mx, my), (float(np.sum(rho * (X - mx) ** 2)),
                       float(np.sum(rho * (Y - my) ** 2))))

    @pytest.mark.parametrize("track_momentum", [False, True])
    def test_grid_holds_no_array_after_use(self, track_momentum):
        grid = Grid2D(64, 64, 12.0, 12.0)
        state = init_gaussian(grid, PhasePoint(0.5, 0, 0, 0.3), (0.5, 0.5))
        propagate_wavepacket(state, Harmonic2D(1, 1), 1e-3, 4,
                             track_momentum=track_momentum)
        assert not any(isinstance(v, np.ndarray) for v in vars(grid).values())


class TestInitGaussian:
    def test_mean_position_matches_center(self, grid128):
        z = PhasePoint(0.73, -0.41, 0.3, -0.2)
        state = init_gaussian(grid128, z, (SIGMA_COHERENT, SIGMA_COHERENT))
        rho = np.abs(state.psi) ** 2 * grid128.cell_area
        x, y = grid128.positions()
        assert np.sum(rho * x) == pytest.approx(z.qx, abs=1e-10)
        assert np.sum(rho * y) == pytest.approx(z.qy, abs=1e-10)

    def test_variance_matches_width(self, grid128):
        state = init_gaussian(grid128, PhasePoint(0.5, 0.0, 0.0, 0.0),
                              (0.6, 0.8))
        rho = np.abs(state.psi) ** 2 * grid128.cell_area
        x, y = grid128.positions()
        mx = np.sum(rho * x)
        vx = np.sum(rho * (x - mx) ** 2)
        my = np.sum(rho * y)
        vy = np.sum(rho * (y - my) ** 2)
        assert vx == pytest.approx(0.36, abs=1e-8)
        assert vy == pytest.approx(0.64, abs=1e-8)

    def test_minimum_uncertainty_product(self, grid128):
        state = init_gaussian(grid128, PhasePoint(0.0, 0.0, 0.4, -0.1),
                              (SIGMA_COHERENT, SIGMA_COHERENT))
        series, _ = propagate_wavepacket(state, Harmonic2D(1.0, 1.0),
                                         1e-3, 1, track_momentum=True)
        product = np.sqrt(series.var_q[0] * series.var_p[0])
        assert np.all(product >= 0.5 * (1 - 1e-8))
        assert np.all(product <= 0.5 * (1 + 1e-6))

    def test_norm_is_one(self, grid128):
        state = init_gaussian(grid128, PhasePoint(0, 0, 0, 0), (0.5, 0.5))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_width_constraints(self, grid64):
        with pytest.raises(GridError):
            init_gaussian(grid64, PhasePoint(0, 0, 0, 0), (0.1, 0.5))
        with pytest.raises(GridError):
            init_gaussian(grid64, PhasePoint(0, 0, 0, 0), (0.5, 2.0))


class TestPropagation:
    def test_harmonic_coherent_state(self, grid128):
        z0 = PhasePoint(1.0, 0.0, 0.0, 0.5)
        state = init_gaussian(grid128, z0,
                              (SIGMA_COHERENT, SIGMA_COHERENT))
        n = 6000
        dt = 2 * np.pi / n
        series, _ = propagate_wavepacket(state, Harmonic2D(1.0, 1.0), dt, n,
                                         sample_every=60)
        exact_x = z0.qx * np.cos(series.t) + z0.px * np.sin(series.t)
        exact_y = z0.qy * np.cos(series.t) + z0.py * np.sin(series.t)
        assert np.max(np.abs(series.mean_q[:, 0] - exact_x)) < 1e-6
        assert np.max(np.abs(series.mean_q[:, 1] - exact_y)) < 1e-6
        assert np.max(np.abs(series.var_q - 0.5)) < 1e-6

    def test_free_gaussian_spreading(self):
        grid = Grid2D(256, 256, 48.0, 48.0, hbar_eff=1.0)
        sigma = 0.5
        state = init_gaussian(grid, PhasePoint(0, 0, 0, 0), (sigma, sigma))
        series, _ = propagate_wavepacket(state, SeparableQuartic(0.0, 0.0),
                                         0.05, 60, sample_every=6)
        expected = sigma ** 2 * (1.0 + (series.t / (2 * sigma ** 2)) ** 2)
        assert np.max(np.abs(series.var_q[:, 0] / expected - 1.0)) < 1e-6
        assert np.max(np.abs(series.var_q[:, 1] / expected - 1.0)) < 1e-6

    def test_norm_conservation_1e4_steps(self, grid64):
        state = init_gaussian(grid64, PhasePoint(1.0, 0.0, 0.0, 0.5),
                              (SIGMA_COHERENT, SIGMA_COHERENT))
        _, final = propagate_wavepacket(state, Harmonic2D(1.0, 1.0), 1e-3,
                                        10_000, sample_every=1000)
        assert abs(final.norm() - 1.0) < 1e-10

    def test_dt_halving_convergence(self, grid64):
        state = init_gaussian(grid64, PhasePoint(1.0, 0.0, 0.0, 0.5),
                              (SIGMA_COHERENT, SIGMA_COHERENT))
        model = Harmonic2D(1.0, 1.0)
        a, _ = propagate_wavepacket(state, model, np.pi / 5000, 5000,
                                    sample_every=100)
        b, _ = propagate_wavepacket(state, model, np.pi / 10_000, 10_000,
                                    sample_every=200)
        assert np.max(np.abs(a.mean_q - b.mean_q)) < 1e-7

    def test_energy_expectation_drift(self, grid128):
        model = Harmonic2D(1.0, 1.0)
        state = init_gaussian(grid128, PhasePoint(1.0, 0.0, 0.0, 0.5),
                              (SIGMA_COHERENT, SIGMA_COHERENT))

        def energy(s):
            g = s.grid
            V = model.potential_xy(*g.positions())
            kx, ky = g.wavenumbers()
            phi = np.fft.fft2(s.psi)
            w = np.abs(phi) ** 2
            w /= w.sum()
            kinetic = (np.sum(w * g.hbar ** 2 * (kx ** 2 + ky ** 2))
                       / (2 * model.mass))
            return kinetic + np.sum(np.abs(s.psi) ** 2 * V) * g.cell_area

        e0 = energy(state)
        _, final = propagate_wavepacket(state, model, 2 * np.pi / 3000, 3000)
        assert abs(energy(final) - e0) / abs(e0) < 1e-6

    def test_uncertainty_bound_along_anharmonic_run(self):
        grid = Grid2D(128, 128, 4.8, 4.8, hbar_eff=0.04)
        sigma = np.sqrt(0.04 / 2)
        state = init_gaussian(grid, PhasePoint(0.0, 0.8, 1.1489, 0.2),
                              (sigma, sigma))
        series, _ = propagate_wavepacket(state, PullenEdmonds(1.0), 2e-3,
                                         2000, sample_every=100,
                                         track_momentum=True)
        product = np.sqrt(series.var_q * series.var_p)
        assert np.all(product >= 0.5 * grid.hbar * (1 - 1e-8))

    def test_boundary_leak_detected(self):
        # free spreading in a box that is far too small
        grid = Grid2D(64, 64, 8.0, 8.0, hbar_eff=1.0)
        state = init_gaussian(grid, PhasePoint(0, 0, 0, 0), (0.5, 0.5))
        with pytest.raises(BoundaryLeakError):
            propagate_wavepacket(state, SeparableQuartic(0.0, 0.0), 0.05,
                                 200, sample_every=10)

    @pytest.mark.parametrize("sample_every", [True, 0, 2.0, 7],
                             ids=["bool", "zero", "float", "non-divisor"])
    def test_sampling_validation(self, grid64, sample_every):
        state = init_gaussian(grid64, PhasePoint(0, 0, 0, 0), (0.5, 0.5))
        with pytest.raises(DomainError):
            propagate_wavepacket(state, Harmonic2D(1, 1), 1e-3, 100,
                                 sample_every=sample_every)

    @pytest.mark.parametrize("track_momentum", [False, True])
    def test_split_step_matches_the_plain_loop(self, grid64, track_momentum):
        # the in-place step must give the same bits as the plain one. The
        # FFT is the left operand of the kinetic product, as numpy's
        # temporary elision made it in `kinetic * fft2(psi)` on grids of
        # 128^2 and up; numpy's complex product is not bitwise commutative.
        model = PullenEdmonds(1.0)
        state = init_gaussian(grid64, PhasePoint(0.5, -0.3, 0.8, 0.4),
                              (0.5, 0.5))
        dt, n = 0.01, 40
        _, final = propagate_wavepacket(state, model, dt, n, sample_every=5,
                                        track_momentum=track_momentum)
        half_v = np.exp(-0.5j * dt * model.potential_xy(*grid64.positions())
                        / grid64.hbar)
        kx, ky = grid64.wavenumbers()
        kinetic = np.exp(-0.5j * dt * grid64.hbar * (kx ** 2 + ky ** 2)
                         / model.mass)
        psi = state.psi.copy()
        for _ in range(n):
            psi *= half_v
            psi = np.fft.ifft2(np.fft.fft2(psi) * kinetic)
            psi *= half_v
        assert np.array_equal(final.psi, psi)

    @pytest.mark.parametrize("dt, n_steps", [
        (True, 10), (1e-3, True), (float("nan"), 10), (float("inf"), 10),
        (-1e-3, 10), (1e-3, 0)])
    def test_step_rule(self, grid64, dt, n_steps):
        state = init_gaussian(grid64, PhasePoint(0, 0, 0, 0), (0.5, 0.5))
        with pytest.raises(DomainError):
            propagate_wavepacket(state, Harmonic2D(1, 1), dt, n_steps)

    def test_norm_drift_detected(self, grid64):
        from decochaos.errors import NormDriftError
        from decochaos.quantum import WavepacketState

        state = init_gaussian(grid64, PhasePoint(0, 0, 0, 0), (0.5, 0.5))
        broken = WavepacketState(grid64, state.psi * 1.001, 0.0)
        with pytest.raises(NormDriftError):
            propagate_wavepacket(broken, Harmonic2D(1, 1), 1e-3, 10)


class TestBreakTime:
    def test_identical_series_never_breaks(self):
        t = np.linspace(0.0, 10.0, 101)
        z = np.zeros((101, 4))
        z[:, 0] = np.cos(t)
        traj = Trajectory(t, z, np.full(101, 0.5))
        series = ExpectationSeries(t, z[:, :2].copy(),
                                   np.full((101, 2), 0.25))
        assert ehrenfest_break_time(series, traj, 0.05) is None

    def test_harmonic_coherent_never_breaks(self, grid128):
        z0 = PhasePoint(1.0, 0.0, 0.0, 0.5)
        model = Harmonic2D(1.0, 1.0)
        state = init_gaussian(grid128, z0,
                              (SIGMA_COHERENT, SIGMA_COHERENT))
        series, _ = propagate_wavepacket(state, model, 2 * np.pi / 3000,
                                         3000, sample_every=30)
        traj = propagate(model, z0, 2 * np.pi / 3000, 3000)
        assert ehrenfest_break_time(series, traj, 1e-4) is None

    def test_crossing_is_interpolated(self):
        t = np.linspace(0.0, 10.0, 101)
        z = np.zeros((101, 4))
        traj = Trajectory(t, z, np.zeros(101))
        mean_q = np.zeros((101, 2))
        mean_q[:, 0] = 0.01 * t      # linear departure
        series = ExpectationSeries(t, mean_q, np.full((101, 2), 0.1))
        t_break = ehrenfest_break_time(series, traj, 0.055)
        assert t_break == pytest.approx(5.5, abs=1e-9)

    @pytest.mark.parametrize("threshold", [True, "1", np.nan, np.inf, 0, -1])
    def test_threshold_is_a_positive_finite_number(self, threshold):
        t = np.linspace(0.0, 10.0, 101)
        traj = Trajectory(t, np.zeros((101, 4)), np.zeros(101))
        series = ExpectationSeries(t, np.zeros((101, 2)), np.zeros((101, 2)))
        with pytest.raises(DomainError, match="threshold"):
            ehrenfest_break_time(series, traj, threshold)

    def test_window_mismatch_raises(self):
        t_long = np.linspace(0.0, 10.0, 101)
        t_short = np.linspace(0.0, 5.0, 51)
        traj = Trajectory(t_short, np.zeros((51, 4)), np.zeros(51))
        series = ExpectationSeries(t_long, np.zeros((101, 2)),
                                   np.zeros((101, 2)))
        with pytest.raises(GridMismatchError):
            ehrenfest_break_time(series, traj, 0.1)

    def test_chaotic_breaks_before_regular(self):
        # matched hbar_eff, widths and total energy; values recorded as
        # regression baselines from this exact setup
        hbar = 0.04
        sigma = np.sqrt(hbar / 2)
        grid = Grid2D(128, 128, 4.8, 4.8, hbar_eff=hbar)
        cases = {
            "chaotic": (PullenEdmonds(1.0),
                        PhasePoint(0.0, 0.8, 1.1489125293076055, 0.2)),
            "regular": (SeparableQuartic(1.0, 1.0),
                        PhasePoint(0.5, 0.4, 1.340130590651523, 0.4)),
        }
        breaks = {}
        for name, (model, z0) in cases.items():
            state = init_gaussian(grid, z0, (sigma, sigma))
            series, _ = propagate_wavepacket(state, model, 2e-3, 11_000,
                                             sample_every=20)
            traj = propagate(model, z0, 1e-3, 22_000)
            threshold = 0.05 * position_diameter(traj)
            breaks[name] = ehrenfest_break_time(series, traj, threshold)
        assert breaks["chaotic"] is not None
        assert breaks["regular"] is not None
        assert breaks["chaotic"] < breaks["regular"]
        assert breaks["chaotic"] == pytest.approx(4.792, rel=0.05)
        assert breaks["regular"] == pytest.approx(6.055, rel=0.05)


class TestSnapshots:
    def test_roundtrip(self, tmp_path, grid64):
        state = init_gaussian(grid64, PhasePoint(0.3, -0.2, 0.5, 0.1),
                              (0.5, 0.7))
        series, final = propagate_wavepacket(state, Harmonic2D(1.0, 1.0),
                                             1e-3, 100)
        path = tmp_path / "psi.bin"
        save_wavepacket(final, path)
        assert path.read_bytes() == final.psi.astype("<c16").tobytes()
        header = dict(line.split() for line in
                      (tmp_path / "psi.bin.hdr").read_text().splitlines())
        assert vars(Grid2D(int(header["nx"]), int(header["ny"]),
                           float(header["lx"]), float(header["ly"]),
                           float(header["hbar_eff"]))) == vars(grid64)
        assert float(header["t"]) == final.t

    def test_header_is_text(self, tmp_path, grid64):
        state = init_gaussian(grid64, PhasePoint(0, 0, 0, 0), (0.5, 0.5))
        path = tmp_path / "psi.bin"
        save_wavepacket(state, path)
        header = (tmp_path / "psi.bin.hdr").read_text()
        assert "nx 64" in header and "hbar_eff" in header
        raw = np.fromfile(path, dtype="<c16")
        assert raw.size == 64 * 64
