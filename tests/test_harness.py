import contextlib
import copy
import csv
import dataclasses
import datetime
import json
import math
import os
import signal
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from decochaos import classical, decoherence, harness
from decochaos.cli import main as cli_main
from decochaos.decoherence import RegimeRun, compare_regimes
from decochaos.errors import (BoundaryLeakError, ConfigError, DomainError,
                              EscapeError)
from decochaos.harness import (_parse_config, compare_command, load_config,
                               run_experiment, write_csv)
from decochaos.models import PhasePoint
from decochaos.quantum import Grid2D, init_gaussian, propagate_wavepacket
from decochaos.series import DecoherenceSeries, DriveDifference

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")

MINIMAL = {
    "seed": 42,
    "model": {"family": "harmonic2d"},
    "initial": {"z": [1.0, 0.0, 0.0, 0.5]},
    "integrator": {"dt": 0.01, "n_steps": 200},
}

SMALL_RUN = {
    "schema_version": 1,
    "seed": 7,
    "engine": "classical",
    "slug": "small",
    "model": {"family": "harmonic2d",
              "params": {"omega_x": 1.0, "omega_y": 1.0}},
    "initial": {"z": [1.0, 0.0, 0.0, 0.5],
                "delta_z": [0.01, 0.0, 0.0, 0.0]},
    "integrator": {"dt": 0.002, "n_steps": 3000},
    "bath": {"coupling": 1.0, "omega_max": 10.0, "temperature": 1000.0,
             "n_modes": 500},
}


# a short engine: both run on a 64^2 grid
BOTH_RUN = {**SMALL_RUN, "engine": "both",
            "integrator": {"dt": 0.002, "n_steps": 600},
            "grid": {"nx": 64, "ny": 64, "lx": 12.0, "ly": 12.0,
                     "hbar_eff": 1.0, "widths": [0.7, 0.7],
                     "sample_every": 10}}


def short_shipped_pair():
    """The shipped compare pair cut to t = 30, without the exact oracle and
    with the saturation-aware default fit window."""
    def short(name):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        return dataclasses.replace(
            cfg, integrator=dataclasses.replace(cfg.integrator,
                                                n_steps=6000),
            bath=dataclasses.replace(cfg.bath, n_modes=None),
            fit=dataclasses.replace(cfg.fit, window=None))

    return short("regular_quartic.yaml"), short("chaotic_henon.yaml")


def write_yaml(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def read_columns(path, *keys):
    with open(path, encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    return [np.array([float(r[k]) for r in rows]) for k in keys]


def csv_fields(data):
    """Each column of CSV bytes by header name, as its fields' bytes."""
    header, *rows = data.splitlines()
    return dict(zip(header.decode().split(","),
                    zip(*(row.split(b",") for row in rows))))


def header(path):
    return Path(path).read_text().splitlines()[0]


TRAJECTORY = "t,qx,qy,px,py,energy,D,separation,energy_drift"
PACKET = ["mean_qx", "mean_qy", "var_qx", "var_qy"]


@pytest.fixture
def no_child_left():
    """Fail the test if it leaves a child process, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sub_run_outputs(record):
    """A comparison's manifest, results apart from the sub-run paths and
    checks, and each sub-run's manifest, results, checks and error."""
    results = {k: v for k, v in record.results.items()
               if k not in ("regular_run", "chaotic_run")}
    subs = {}
    for label in ("regular", "chaotic"):
        with open(os.path.join(record.results[f"{label}_run"],
                               "record.json")) as fh:
            sub = json.load(fh)
        subs[label] = {k: sub[k] for k in ("manifest", "results", "checks",
                                           "error")}
    return record.manifest, results, record.checks, subs


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, MINIMAL))
        assert cfg.engine == "classical"
        assert cfg.integrator.escape_radius == 1e3
        assert cfg.integrator.energy_drift_bound == 1e-6
        assert cfg.initial.delta_z is None
        assert cfg.bath is None

    def test_bath_sampling_bound_named_in_rejection(self, tmp_path):
        bad = copy.deepcopy(MINIMAL)
        bad["bath"] = {"coupling": 1.0, "omega_max": 100.0,
                       "temperature": 10.0}
        bad["integrator"] = {"dt": 0.01, "n_steps": 100}
        with pytest.raises(ConfigError, match=r"pi/\(10\*omega_max\)"):
            load_config(write_yaml(tmp_path, bad))

    def test_unknown_family_lists_valid_ones(self, tmp_path):
        bad = copy.deepcopy(MINIMAL)
        bad["model"]["family"] = "morse"
        with pytest.raises(ConfigError, match="separable_quartic"):
            load_config(write_yaml(tmp_path, bad))

    def test_seed_is_mandatory(self, tmp_path):
        bad = copy.deepcopy(MINIMAL)
        del bad["seed"]
        # the message names the file, whose directory is named after
        # this test: match the entry, not the path
        with pytest.raises(ConfigError, match="  - seed: "):
            load_config(write_yaml(tmp_path, bad))

    def test_errors_are_aggregated(self, tmp_path):
        bad = {"model": {"family": "nope"}, "initial": {"z": [0, 0, 0, 0]},
               "integrator": {"dt": -1, "n_steps": 0}}
        with pytest.raises(ConfigError) as exc:
            load_config(write_yaml(tmp_path, bad))
        assert len(exc.value.errors) >= 3

    def test_unknown_key_rejected(self, tmp_path):
        bad = copy.deepcopy(MINIMAL)
        bad["intergrator"] = bad["integrator"]
        with pytest.raises(ConfigError, match="intergrator"):
            load_config(write_yaml(tmp_path, bad))

    def test_superposition_is_an_unknown_key(self, tmp_path):
        data = {**MINIMAL, "superposition": {"c1": 0.6, "c2": 0.8}}
        with pytest.raises(ConfigError,
                           match="unknown config key 'superposition'"):
            load_config(write_yaml(tmp_path, data))

    def test_readme_config_sketch_parses(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            text = fh.read()
        sketch = text.split("## Config sketch", 1)[1]
        sketch = sketch.split("```yaml\n", 1)[1].split("```", 1)[0]
        config = _parse_config(yaml.safe_load(sketch))
        assert config.lyapunov is not None and config.grid is not None

    def test_quantum_engine_requires_grid(self, tmp_path):
        bad = copy.deepcopy(MINIMAL)
        bad["engine"] = "quantum"
        with pytest.raises(ConfigError, match="grid"):
            load_config(write_yaml(tmp_path, bad))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/experiment.yaml")

    def test_roundtrip_equality(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        again = _parse_config(
            json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert again == cfg

    def test_shipped_configs_are_valid(self):
        for name in ("regular_quartic.yaml", "chaotic_henon.yaml",
                     "chaotic_henon_full.yaml"):
            cfg = load_config(os.path.join(CONFIG_DIR, name))
            assert cfg.seed == 20260808

    @pytest.mark.parametrize("change, field", [
        ({"integrator": {"dt": 0.01, "n_steps": True}}, "n_steps"),
        ({"bath": {"coupling": float("inf"), "omega_max": 10.0,
                   "temperature": 1000.0}}, "bath: coupling"),
        ({"bath": {"coupling": 1.0, "omega_max": float("nan"),
                   "temperature": 1000.0}}, "bath: omega_max"),
        ({"bath": {"coupling": 1.0, "omega_max": 10.0,
                   "temperature": float("inf")}}, "bath.temperature"),
        ({"slug": "../../etc"}, "slug"),
        ({"slug": "nested/run"}, "slug"),
        ({"slug": ".."}, "slug"),
        ({"seed": -1}, "seed"),
        ({"output_dir": 5}, "output_dir"),
    ], ids=["n_steps-true", "coupling-inf", "omega_max-nan",
            "temperature-inf", "slug-parent", "slug-separator", "slug-dots",
            "seed-negative", "output_dir-number"])
    def test_boundary_values_rejected(self, tmp_path, change, field):
        with pytest.raises(ConfigError, match=field):
            load_config(write_yaml(tmp_path, {**MINIMAL, **change}))

    def test_overrides_keep_the_root_rule(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n")
        with pytest.raises(ConfigError, match="config root must be a mapping"):
            load_config(str(path), seed=1)

    @pytest.mark.parametrize("n_modes", [20, 40, 190])
    def test_bath_that_recurs_within_the_run_is_rejected(
            self, tmp_path, capsys, n_modes):
        # the lag kernel of n modes up to omega_max = 10 returns at
        # 2 pi n / 10; the run spans 24000 * 0.005 = 120
        data = _shipped("chaotic_henon.yaml")
        data["bath"]["n_modes"] = n_modes
        with pytest.raises(ConfigError) as exc:
            _parse_config(data)
        (message,) = exc.value.errors
        assert message.startswith("bath.n_modes: ")
        assert f"{2 * math.pi * n_modes / 10:g}" in message
        assert "n_steps*dt = 120" in message
        runs = tmp_path / "runs"
        assert cli_main(["decohere", "--config", write_yaml(tmp_path, data),
                         "--out", str(runs)]) == 1
        assert f"  - {message}" in capsys.readouterr().err
        assert not runs.exists()

    def test_bath_that_recurs_after_the_run_is_accepted(self):
        data = _shipped("chaotic_henon.yaml")
        data["bath"]["n_modes"] = 191      # recurs at 120.01
        assert _parse_config(data).bath.n_modes == 191

    @pytest.mark.parametrize("name", ["regular_quartic.yaml",
                                      "chaotic_henon.yaml",
                                      "chaotic_henon_full.yaml"])
    def test_shipped_configs_pass_the_recurrence_rule(self, name):
        load_config(os.path.join(CONFIG_DIR, name))

    def test_failed_integrator_dt_is_the_only_error(self):
        # the lyapunov section is valid; only its 100*dt part needs the dt
        data = {**MINIMAL, "integrator": {"dt": -1, "n_steps": 200},
                "lyapunov": {"total_time": 200.0, "renorm_interval": 2.0}}
        with pytest.raises(ConfigError) as exc:
            _parse_config(data)
        assert [e.split(":")[0] for e in exc.value.errors] == [
            "integrator.dt"]


class TestRunExperiment:
    def test_asymptotic_gamma_is_half_c_t_times_d(self, tmp_path):
        # the high-temperature limit gamma = (C T / 2) D, bit for bit
        cfg = load_config(os.path.join(CONFIG_DIR, "chaotic_henon.yaml"))
        record = run_experiment(cfg, str(tmp_path))
        assert record.error is None
        D, gamma = read_columns(os.path.join(record.path, "classical.csv"),
                                "D", "gamma_asymptotic")
        np.testing.assert_array_equal(
            gamma, 0.5 * cfg.bath.coupling * cfg.bath.temperature * D)

    def test_zero_displacement_yields_zero_gamma(self, tmp_path):
        data = copy.deepcopy(SMALL_RUN)
        data["initial"]["delta_z"] = [0.0, 0.0, 0.0, 0.0]
        cfg = load_config(write_yaml(tmp_path, data))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is None
        gamma, oracle = read_columns(
            os.path.join(record.path, "classical.csv"), "gamma_asymptotic",
            "gamma_oracle")
        assert gamma.size == 3001
        assert np.all(gamma == 0.0) and np.all(oracle == 0.0)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        a = run_experiment(cfg, str(tmp_path / "runs"))
        b = run_experiment(cfg, str(tmp_path / "runs"))
        assert a.manifest == b.manifest
        assert a.path != b.path

    def test_csv_interfaces(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        # one table per time grid: the orbit, its divergence and the
        # exponents it drives share the integrator's samples
        path = os.path.join(record.path, "classical.csv")
        assert header(path) == f"{TRAJECTORY},gamma_asymptotic,gamma_oracle"
        row = Path(path).read_text().splitlines()[1]
        assert len(row.split(",")) == 11
        assert set(record.manifest) == {"config.snapshot", "classical.csv"}

    def test_both_engines_report_both(self, tmp_path):
        data = copy.deepcopy(SMALL_RUN)
        data["engine"] = "both"
        data["grid"] = {"nx": 64, "ny": 64, "lx": 12.0, "ly": 12.0,
                        "hbar_eff": 1.0,
                        "widths": [0.7071067811865476, 0.7071067811865476],
                        "sample_every": 10}
        cfg = load_config(write_yaml(tmp_path, data))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is None
        assert set(record.manifest) == {"config.snapshot", "classical.csv",
                                        "quantum.csv"}
        assert header(os.path.join(record.path, "classical.csv")) == \
            f"{TRAJECTORY},gamma_asymptotic,gamma_oracle"
        assert header(os.path.join(record.path, "quantum.csv")).split(",") == [
            "t", *(f"{tag}_{name}" for tag in ("z1", "z2") for name in PACKET),
            "gamma_asymptotic", "gamma_oracle"]
        # harmonic packet means follow the classical orbit, so the two
        # engines agree on the exponent
        g = record.results["gamma"]
        assert g["quantum"]["gamma_asymptotic_final"] == pytest.approx(
            g["classical"]["gamma_asymptotic_final"], rel=1e-4)
        assert record.results["ehrenfest_break_time"] is None
        assert record.results["hartree_error"]["value"] > 0

    def test_packets_match_sequential_propagation(
            self, tmp_path, monkeypatch, no_child_left):
        cfg = load_config(write_yaml(tmp_path, BOTH_RUN))
        forked = run_experiment(cfg, str(tmp_path / "forked"))
        # without os.fork both packets run here, one after the other
        monkeypatch.delattr(os, "fork")
        inline = run_experiment(cfg, str(tmp_path / "inline"))
        assert forked.error is None and inline.error is None
        spec = cfg.grid
        grid = Grid2D(spec.nx, spec.ny, spec.lx, spec.ly, spec.hbar_eff)
        z1 = PhasePoint(*cfg.initial.z)
        z2 = z1 + PhasePoint(*cfg.initial.delta_z)
        tables = [csv_fields(Path(record.path, "quantum.csv").read_bytes())
                  for record in (forked, inline)]
        for tag, z in (("z1", z1), ("z2", z2)):
            series, _ = propagate_wavepacket(
                init_gaussian(grid, z, spec.widths), cfg.model.build(),
                cfg.integrator.dt, cfg.integrator.n_steps, spec.sample_every)
            sequential = csv_fields(single_process_csv(
                ["t", *(f"{tag}_{name}" for name in PACKET)],
                [series.t, *series.mean_q.T, *series.var_q.T]))
            for table in tables:
                assert {k: table[k] for k in sequential} == sequential

    @pytest.mark.parametrize("failing", ["z1", "z2"])
    def test_packet_failure_is_recorded_in_packet_order(
            self, tmp_path, monkeypatch, no_child_left, failing):
        path = write_yaml(tmp_path, BOTH_RUN)
        cfg = load_config(path)
        spec = cfg.grid
        z1 = PhasePoint(*cfg.initial.z)
        z = z1 if failing == "z1" else z1 + PhasePoint(*cfg.initial.delta_z)
        real = harness.propagate_wavepacket

        def leaky(state, *args):
            if np.array_equal(state.psi,
                              init_gaussian(state.grid, z, spec.widths).psi):
                raise BoundaryLeakError(f"{failing} leaks")
            return real(state, *args)

        monkeypatch.setattr(harness, "propagate_wavepacket", leaky)
        root = tmp_path / "runs"
        assert cli_main(["decohere", "--config", path, "--out",
                         str(root)]) == 2
        [run_dir] = root.iterdir()
        payload = json.loads((run_dir / "record.json").read_text())
        assert payload["error"] == {"type": "BoundaryLeakError",
                                    "message": f"{failing} leaks"}
        # z2 failing leaves z1's columns; z1 failing leaves no table
        quantum = run_dir / "quantum.csv"
        assert ("quantum.csv" in payload["manifest"]) == (failing == "z2")
        assert quantum.exists() == (failing == "z2")
        if failing == "z2":
            assert header(quantum).split(",") == [
                "t", *(f"z1_{name}" for name in PACKET)]

    def test_packet_child_ending_without_a_result_is_recorded(
            self, tmp_path, monkeypatch, no_child_left):
        # z2 is the one packet propagated in a forked child
        parent = os.getpid()
        real = harness.propagate_wavepacket

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(harness, "propagate_wavepacket", dying)
        path = write_yaml(tmp_path, BOTH_RUN)
        root = tmp_path / "runs"
        assert cli_main(["decohere", "--config", path, "--out",
                         str(root)]) == 2
        [run_dir] = root.iterdir()
        payload = json.loads((run_dir / "record.json").read_text())
        assert payload["error"] == {
            "type": "ChildProcessError",
            "message": "forked dying ended with exit code 3 and no result"}
        assert "quantum.csv" in payload["manifest"]
        assert header(run_dir / "quantum.csv").split(",") == [
            "t", *(f"z1_{name}" for name in PACKET)]

    @pytest.mark.parametrize("data, command, files", [
        (SMALL_RUN, "decohere", {"config.snapshot", "classical.csv"}),
        (BOTH_RUN, "decohere", {"config.snapshot", "classical.csv",
                                "quantum.csv"}),
        (SMALL_RUN, "no-memory", {"config.snapshot", "classical.csv"}),
        ({**BOTH_RUN, "grid": {**BOTH_RUN["grid"], "save_snapshots": True}},
         "decohere", {"config.snapshot", "classical.csv", "quantum.csv",
                      "psi_z1.bin", "psi_z1.bin.hdr", "psi_z2.bin",
                      "psi_z2.bin.hdr"}),
        (SMALL_RUN, "compare", {"gamma_ratio.csv"})],
        ids=["classical", "both", "oracle-memory-error", "snapshots",
             "compare"])
    def test_run_directory_holds_the_manifest_and_record(
            self, tmp_path, monkeypatch, no_child_left, data, command, files):
        # the manifest is every file but record.json: no temporary file
        # of a forked write_csv half is left behind to be manifested
        if command == "no-memory":
            monkeypatch.setattr(harness, "decoherence_exponent_oracle",
                                no_memory)
        cfg = load_config(write_yaml(tmp_path, data))
        root = str(tmp_path / "runs")
        record = (compare_command(cfg, cfg, root) if command == "compare"
                  else run_experiment(cfg, root))
        assert (record.error is None) == (command != "no-memory")
        assert set(record.manifest) == files
        assert sorted(os.listdir(record.path)) == sorted(
            [*files, "record.json"])

    def test_record_holds_no_copy_of_the_config(self, tmp_path):
        # a run's config is its config.snapshot, pinned by the manifest;
        # compare's results name both sub-run directories, which hold theirs
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        root = str(tmp_path / "runs")
        run = run_experiment(cfg, root)
        assert load_config(os.path.join(run.path, "config.snapshot")) == cfg
        for record in (run, compare_command(cfg, cfg, root)):
            payload = json.loads(Path(record.path, "record.json").read_text())
            assert "config" not in payload

    def test_classical_gamma_is_the_recorded_column(self, tmp_path):
        # compare reads a sub-run's exponent from memory; %.17g round-trips
        # a double, so the column holds the same bits
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        t, gamma = read_columns(os.path.join(record.path, "classical.csv"),
                                "t", "gamma_asymptotic")
        assert record.classical_gamma.t.tobytes() == t.tobytes()
        assert record.classical_gamma.gamma.tobytes() == gamma.tobytes()

    def test_quantum_run_holds_no_classical_gamma(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, {**BOTH_RUN,
                                                "engine": "quantum"}))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is None
        assert record.classical_gamma is None
        # in memory only: record.json holds no such key
        text = Path(record.path, "record.json").read_text()
        assert "classical_gamma" not in text

    def test_zero_energy_start_has_a_finite_energy_drift(self, tmp_path):
        # E(0) = 0 on both orbits: the origin at rest and a displacement
        # along the saddle's unstable direction, so the drift is scaled by
        # the largest kinetic energy
        data = {**MINIMAL, "model": {"family": "inverted_harmonic",
                                     "params": {"k": 1.0}},
                "initial": {"z": [0.0, 0.0, 0.0, 0.0],
                            "delta_z": [1e-4, 0.0, 1e-4, 0.0]},
                "integrator": {"dt": 0.002, "n_steps": 750}}
        cfg = load_config(write_yaml(tmp_path, data))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is None
        assert record.results["initial_energy"] == 0.0
        assert record.checks["energy_drift"]["pass"]
        assert 0.0 < record.results["energy_drift"] <= 1e-6

    def test_oracle_memory_error_keeps_the_classical_columns(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "decoherence_exponent_oracle", no_memory)
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error == {"type": "MemoryError",
                                "message": "Unable to allocate 8.00 TiB"}
        # the orbit and divergence columns, and no exponent column
        path = os.path.join(record.path, "classical.csv")
        assert header(path) == TRAJECTORY
        assert len(Path(path).read_text().splitlines()) == 3002
        assert set(record.manifest) == {"config.snapshot", "classical.csv"}
        assert record.manifest["classical.csv"] == harness._sha256(path)

    def test_energy_drift_covers_both_orbits(self, tmp_path):
        # a quartic orbit's frequency grows with its amplitude, so at one dt
        # the displaced orbit, of five times the amplitude, drifts more
        data = {**MINIMAL, "model": {"family": "separable_quartic"},
                "initial": {"z": [0.2, 0.0, 0.0, 0.0],
                            "delta_z": [0.8, 0.0, 0.0, 0.0]},
                "integrator": {"dt": 0.05, "n_steps": 400,
                               "energy_drift_bound": 1e-7}}
        cfg = load_config(write_yaml(tmp_path, data))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is None
        model = cfg.model.build()
        z1, z2 = (model.energy_drift(classical.propagate(
            model, PhasePoint(*z), 0.05, 400)).max()
            for z in ((0.2, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)))
        assert z1 < 1e-7 < z2
        drift = record.results["energy_drift"]
        assert drift == pytest.approx(z2, rel=1e-12)
        assert record.checks["energy_drift"] == {"value": drift,
                                                 "bound": 1e-7, "pass": False}

    def test_dead_csv_half_is_recorded(self, tmp_path, monkeypatch,
                                       no_child_left):
        # a classical run forks only write_csv's second halves
        real = harness._beside

        def die(*_args):
            os._exit(3)

        monkeypatch.setattr(harness, "_beside",
                            lambda here, _, *args: real(here, die, *args))
        path = write_yaml(tmp_path, SMALL_RUN)
        root = tmp_path / "runs"
        assert cli_main(["decohere", "--config", path, "--out",
                         str(root)]) == 2
        [run_dir] = root.iterdir()
        payload = json.loads((run_dir / "record.json").read_text())
        assert payload["error"] == {
            "type": "ChildProcessError",
            "message": "forked die ended with exit code 3 and no result"}
        # the half-written table is kept and checksummed
        assert set(payload["manifest"]) == {"config.snapshot",
                                            "classical.csv"}
        assert sorted(os.listdir(run_dir)) == ["classical.csv",
                                               "config.snapshot",
                                               "record.json"]

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        from decochaos.harness import OUTPUT_ROOT_ENV

        root = tmp_path / "env-root"
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(root))
        cfg = load_config(write_yaml(tmp_path, MINIMAL))
        record = run_experiment(cfg)
        assert os.path.commonpath([record.path, str(root)]) == str(root)

    def test_snapshot_reloads_to_equal_config(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        reloaded = load_config(os.path.join(record.path, "config.snapshot"))
        assert reloaded == cfg

    @pytest.mark.parametrize("name, window, kind", [
        ("chaotic_henon.yaml", None, "exponential"),
        ("regular_quartic.yaml", [30.0, 120.0], "power_law")])
    def test_rate_over_2lambda_for_an_exponential_fit(self, tmp_path, name,
                                                      window, kind):
        data = _shipped(name)
        data["integrator"]["n_steps"] = 24000
        data["bath"].pop("n_modes", None)
        data["fit"]["window"] = window
        data["lyapunov"] = {"total_time": 200.0, "renorm_interval": 2.0}
        record = run_experiment(_parse_config(data), str(tmp_path))
        res = record.results
        assert res["divergence_fit"]["kind"] == kind
        if kind == "exponential":
            assert res["rate_over_2lambda"] == (
                res["divergence_fit"]["exponent_or_rate"]
                / (2 * res["lyapunov"]["lambda_max"]))
        else:
            assert "rate_over_2lambda" not in res

    def test_record_content_and_manifest(self, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR, "chaotic_henon_full.yaml"))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is None
        res = record.results
        assert res["lyapunov"]["lambda_max"] > 0
        assert res["divergence_fit"]["kind"] == "exponential"
        assert res["gamma"]["classical"]["oracle_rel_diff"] <= 0.05
        assert record.checks["expected_scaling"]["pass"]
        assert record.checks["energy_drift"]["pass"]
        # every file in the run directory is manifested with its checksum
        on_disk = {f for f in os.listdir(record.path) if f != "record.json"}
        assert on_disk == set(record.manifest)
        payload = json.loads(Path(record.path, "record.json").read_text())
        assert payload["manifest"] == record.manifest
        assert payload["package_version"]

    def test_record_writes_numpy_values_as_json_numbers(self, tmp_path):
        run = harness.RunRecord(str(tmp_path), "numpy")
        run.results.update(f=np.float64(0.1), b=np.bool_(True),
                           i=np.int64(3), a=np.array([1.0, 2.5]))
        run.check("c", np.float64(0.25), np.int64(1), np.bool_(True))
        run.check("d", np.array([1, 2]), None, np.float64(0.0))
        record = run.record()
        with open(os.path.join(record.path, "record.json")) as fh:
            payload = json.load(fh)
        assert payload["results"] == {"a": [1.0, 2.5], "b": True, "f": 0.1,
                                      "i": 3}
        assert [type(payload["results"][k]) for k in "abfi"] == [
            list, bool, float, int]
        assert payload["checks"] == {
            "c": {"value": 0.25, "bound": 1, "pass": True},
            "d": {"value": [1, 2], "bound": None, "pass": False}}
        assert type(payload["checks"]["c"]["bound"]) is int
        assert all(type(check["pass"]) is bool
                   for check in record.checks.values())

    def test_escape_captured_with_partial_outputs(self, tmp_path):
        data = copy.deepcopy(SMALL_RUN)
        data["model"] = {"family": "inverted_harmonic", "params": {"k": 1.0}}
        data["initial"] = {"z": [0.5, 0.0, 0.0, 0.0],
                           "delta_z": [0.0, 0.0, 0.0, 0.0]}
        data["integrator"] = {"dt": 0.01, "n_steps": 2000,
                              "escape_radius": 10.0}
        del data["bath"]
        cfg = load_config(write_yaml(tmp_path, data))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is not None
        assert record.error["type"] == "EscapeError"
        assert os.path.exists(os.path.join(record.path, "config.snapshot"))

    def test_quantum_failure_keeps_classical_outputs(self, tmp_path):
        # boundary leak in the quantum stage is captured; the classical
        # artifacts written before it stay on disk and in the manifest
        data = copy.deepcopy(SMALL_RUN)
        del data["bath"]
        data["engine"] = "both"
        data["model"] = {"family": "separable_quartic",
                         "params": {"a": 0.0, "b": 0.0}}
        data["initial"] = {"z": [0.0, 0.0, 0.3, 0.0],
                           "delta_z": [0.0, 0.0, 0.0, 0.0]}
        data["integrator"] = {"dt": 0.01, "n_steps": 600}
        data["grid"] = {"nx": 64, "ny": 64, "lx": 8.0, "ly": 8.0,
                        "hbar_eff": 1.0, "widths": [0.5, 0.5],
                        "sample_every": 10}
        cfg = load_config(write_yaml(tmp_path, data))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is not None
        assert record.error["type"] == "BoundaryLeakError"
        assert "classical.csv" in record.manifest
        assert header(os.path.join(record.path, "classical.csv")) == \
            TRAJECTORY
        assert not os.path.exists(os.path.join(record.path, "quantum.csv"))

    @staticmethod
    def fixed_point_record(tmp_path, data):
        """Run decohere on data; return its exit code and record."""
        path = write_yaml(tmp_path, data)
        assert cli_main(["validate-config", "--config", path]) == 0
        code = cli_main(["decohere", "--config", path, "--out",
                         str(tmp_path / "runs")])
        (rundir,) = os.listdir(tmp_path / "runs")
        with open(tmp_path / "runs" / rundir / "record.json") as fh:
            return code, json.load(fh)

    # at rest at the saddle point: the start's shell diameter is 0
    FIXED_POINT = {"seed": 1, "engine": "classical",
                   "model": {"family": "inverted_harmonic",
                             "params": {"k": 1.0}},
                   "initial": {"z": [0.0, 0.0, 0.0, 0.0]},
                   "integrator": {"dt": 0.002, "n_steps": 750},
                   "fit": {"expected_scaling": "exponential"}}

    def test_fixed_point_start_needs_an_explicit_delta_z(self, tmp_path):
        code, record = self.fixed_point_record(tmp_path, self.FIXED_POINT)
        assert code == 2
        assert record["error"]["type"] == "DomainError"
        assert record["error"]["message"].startswith("initial.delta_z: ")
        assert list(record["manifest"]) == ["config.snapshot"]

    def test_fixed_point_packets_need_an_explicit_threshold(
            self, tmp_path, monkeypatch):
        def no_packet(*_args):
            raise AssertionError("a packet ran")

        monkeypatch.setattr(harness, "init_gaussian", no_packet)
        data = {**self.FIXED_POINT, "engine": "both",
                "initial": {"z": [0.0, 0.0, 0.0, 0.0],
                            "delta_z": [1e-4, 0.0, 1e-4, 0.0]},
                "grid": {"nx": 128, "ny": 128, "lx": 3.2, "ly": 3.2,
                         "hbar_eff": 0.01, "widths": [0.0707, 0.0707],
                         "sample_every": 10}}
        code, record = self.fixed_point_record(tmp_path, data)
        assert code == 2
        assert record["error"]["type"] == "DomainError"
        assert record["error"]["message"].startswith("ehrenfest.threshold: ")
        # the classical stage ran and has no saturation at a zero scale
        assert set(record["manifest"]) == {"config.snapshot", "classical.csv"}
        assert record["results"]["shell_diameter"] == 0.0
        assert record["results"]["saturation_time"] is None

    def test_alternate_initial_conditions_retried(self, tmp_path):
        # first z sits on a regular island; the alternate is chaotic
        data = {
            "seed": 1,
            "slug": "retry",
            "model": {"family": "henon_heiles", "params": {"lam": 1.0}},
            "initial": {
                "z": [0.0, 0.1, 0.5692099788303083, 0.0],
                "delta_z": [5.0e-7, 5.0e-7, 5.0e-7, 5.0e-7],
                "alternates": [[-0.1, 0.3, 0.4531372124791047, 0.2]],
            },
            "integrator": {"dt": 0.005, "n_steps": 24000},
            "fit": {"expected_scaling": "exponential"},
        }
        cfg = load_config(write_yaml(tmp_path, data))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is None
        attempts = record.results["attempts"]
        assert len(attempts) == 2
        assert attempts[0]["flagged"]
        assert not attempts[1]["flagged"]
        assert record.results["initial_z"][1] == pytest.approx(0.3)
        assert record.checks["expected_scaling"]["pass"]

    @pytest.mark.parametrize("alternates", [0, 2])
    def test_one_drive_difference_per_start(self, tmp_path, monkeypatch,
                                            alternates):
        # a harmonic pair never diverges exponentially, so every start
        # is flagged and tried
        built = []
        original = DriveDifference.from_trajectories.__func__

        def counted(cls, a, b):
            built.append(1)
            return original(cls, a, b)

        monkeypatch.setattr(DriveDifference, "from_trajectories",
                            classmethod(counted))
        data = copy.deepcopy(SMALL_RUN)
        data["initial"]["alternates"] = [[0.5, 0.0, 0.0, 1.0]] * alternates
        data["fit"] = {"expected_scaling": "exponential"}
        record = run_experiment(load_config(write_yaml(tmp_path, data)),
                                str(tmp_path / "runs"))
        assert record.error is None
        assert len(built) == len(record.results["attempts"]) == \
            1 + alternates


    def test_only_fit_failures_mean_no_fit(self, tmp_path, monkeypatch):
        data = copy.deepcopy(SMALL_RUN)
        data["fit"] = {"window": [20.0, 30.0]}
        del data["bath"]["n_modes"]
        cfg = load_config(write_yaml(tmp_path, data))
        # the run ends at t = 6, so the window is empty: a FitError, and
        # the run goes on unfitted
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is None
        assert record.results["divergence_fit"] is None

        def broken(*args, **kwargs):
            raise DomainError("not a fit failure")

        monkeypatch.setattr(harness, "classify_scaling", broken)
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error == {"type": "DomainError",
                                "message": "not a fit failure"}


class TestCompareCommand:
    def test_matching_rules_enforced(self, tmp_path):
        reg = load_config(os.path.join(CONFIG_DIR, "regular_quartic.yaml"))
        cha = load_config(os.path.join(CONFIG_DIR, "chaotic_henon.yaml"))
        import dataclasses

        bad_bath = dataclasses.replace(
            cha, bath=dataclasses.replace(cha.bath, temperature=500.0))
        with pytest.raises(ConfigError, match="temperature"):
            compare_command(reg, bad_bath, str(tmp_path))
        bad_dz = dataclasses.replace(
            cha, initial=dataclasses.replace(
                cha.initial, delta_z=(1e-6, 1e-6, 1e-6, 1e-6)))
        with pytest.raises(ConfigError, match="delta_z"):
            compare_command(reg, bad_dz, str(tmp_path))
        bad_energy = dataclasses.replace(
            cha, initial=dataclasses.replace(
                cha.initial, z=(0.0, 0.0, 0.1, 0.0)))
        with pytest.raises(ConfigError, match="energies"):
            compare_command(reg, bad_energy, str(tmp_path))
        bad_engine = dataclasses.replace(cha, engine="quantum")
        with pytest.raises(ConfigError, match="classical"):
            compare_command(reg, bad_engine, str(tmp_path))

    def test_self_comparison_shows_no_dominance(self, tmp_path):
        data = copy.deepcopy(SMALL_RUN)
        cfg = load_config(write_yaml(tmp_path, data))
        record = compare_command(cfg, cfg, str(tmp_path / "runs"))
        assert record.results["dominates"] is False
        assert record.results["t_star"] is None
        ratio_csv = os.path.join(record.path, "gamma_ratio.csv")
        rows = Path(ratio_csv).read_text().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows
                if r.split(",")[1] != "nan"]
        assert all(abs(v - 1.0) < 1e-12 for v in vals)

    def test_compare_writes_ratio_csv_and_record_only(self, tmp_path):
        # the comparison's results live in record.json alone; its one
        # other file is the ratio series
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        record = compare_command(cfg, cfg, str(tmp_path / "runs"))
        assert set(record.manifest) == {"gamma_ratio.csv"}
        assert sorted(os.listdir(record.path)) == ["gamma_ratio.csv",
                                                   "record.json"]
        with open(os.path.join(record.path, "record.json")) as fh:
            results = json.load(fh)["results"]
        assert results == record.results
        assert {"regular_fit", "chaotic_fit", "t_star", "dominates",
                "within_ehrenfest", "ehrenfest_windows"} <= set(results)

    def test_in_memory_compare_matches_the_csv_path(self, tmp_path):
        # compare builds both sides from the sub-runs' series in memory;
        # rebuilt from their CSVs (17 digits round-trip a float64) the
        # comparison must come out the same, and its fits are the ones
        # the sub-runs recorded
        configs = dict(zip(("regular", "chaotic"), short_shipped_pair()))
        record = compare_command(configs["regular"], configs["chaotic"],
                                 str(tmp_path / "runs"))
        res = record.results

        runs = {}
        for label, cfg in configs.items():
            rundir = res[f"{label}_run"]
            t, g = read_columns(os.path.join(rundir, "classical.csv"), "t",
                                "gamma_asymptotic")
            with open(os.path.join(rundir, "record.json")) as fh:
                recorded = json.load(fh)["results"]["divergence_fit"]
            assert recorded is not None
            assert res[f"{label}_fit"] == recorded
            runs[label] = RegimeRun(
                label, DecoherenceSeries(t, g, source="asymptotic"),
                ehrenfest_t_max=cfg.ehrenfest.t_max)
        expected = compare_regimes(runs["regular"], runs["chaotic"],
                                   runs["regular"].gamma.t)

        assert expected.dominates and res["dominates"] is True
        assert res["t_star"] == expected.t_star
        (ratio,) = read_columns(os.path.join(record.path, "gamma_ratio.csv"),
                                "ratio")
        np.testing.assert_array_equal(ratio, expected.ratio)

    def test_compare_fits_each_divergence_once(self, tmp_path, monkeypatch):
        # the chaotic sub-run fits in a forked child, so each fit leaves
        # a line in a file that both processes append to
        calls = tmp_path / "fits.log"
        calls.touch()

        def counted(*args, **kwargs):
            with open(calls, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            return classical.classify_scaling(*args, **kwargs)

        for module in (harness, decoherence):
            if hasattr(module, "classify_scaling"):
                monkeypatch.setattr(module, "classify_scaling", counted)
        compare_command(*short_shipped_pair(), str(tmp_path / "runs"))
        assert len(calls.read_text().splitlines()) == 2

    def test_forked_sub_run_matches_sequential_sub_runs(
            self, tmp_path, monkeypatch, no_child_left):
        pair = short_shipped_pair()
        forked = compare_command(*pair, str(tmp_path / "forked"))
        # without os.fork the sub-runs run one after the other, here
        monkeypatch.delattr(os, "fork")
        inline = compare_command(*pair, str(tmp_path / "inline"))
        assert sub_run_outputs(forked) == sub_run_outputs(inline)

    @pytest.mark.parametrize("failing", [
        ("regular",), ("chaotic",), ("regular", "chaotic")],
        ids=["regular", "chaotic", "both"])
    def test_failing_sub_run_exits_2(self, tmp_path, capsys, no_child_left,
                                     failing):
        # z starts at |q| = 1, outside an escape radius of 0.9
        bad = copy.deepcopy(SMALL_RUN)
        bad["integrator"]["escape_radius"] = 0.9
        paths = {label: write_yaml(tmp_path, bad if label in failing
                                   else SMALL_RUN, f"{label}.yaml")
                 for label in ("regular", "chaotic")}
        runs = tmp_path / "runs"
        assert cli_main(["compare", "--config", paths["regular"],
                         "--config-chaotic", paths["chaotic"],
                         "--out", str(runs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"runtime failure: {failing[0]} run failed: "
                              f"{{'type': 'EscapeError'")
        # both sub-runs ran to the end; the comparison was not written
        assert sorted(name.split("-", 1)[1]
                      for name in os.listdir(runs)) == ["small", "small"]

    def test_chaotic_child_ending_without_a_result_exits_2(
            self, tmp_path, monkeypatch, capsys, no_child_left):
        # the chaotic sub-run is the one that runs in a forked child
        parent = os.getpid()
        real = harness.run_experiment

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(harness, "run_experiment", dying)
        path = write_yaml(tmp_path, SMALL_RUN)
        runs = tmp_path / "runs"
        assert cli_main(["compare", "--config", path, "--config-chaotic",
                         path, "--out", str(runs)]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: chaotic run failed: forked dying ended with "
            "exit code 3 and no result\n")
        # the regular sub-run ran to the end; nothing was compared
        [regular] = runs.iterdir()
        assert regular.name.endswith("-small")
        payload = json.loads((regular / "record.json").read_text())
        assert payload["error"] is None
        assert sorted(os.listdir(regular)) == ["classical.csv",
                                               "config.snapshot",
                                               "record.json"]

    def test_dead_csv_half_of_the_comparison_exits_2(
            self, tmp_path, monkeypatch, capsys, no_child_left):
        # armed once both sub-runs are done: only gamma_ratio.csv's half dies
        armed, real_beside = [], harness._beside
        real_compare = harness.compare_regimes

        def die(*_args):
            os._exit(3)

        def compare(*args):
            armed.append(True)
            return real_compare(*args)

        monkeypatch.setattr(harness, "compare_regimes", compare)
        monkeypatch.setattr(harness, "_beside", lambda here, fn, *args:
                            real_beside(here, die if armed else fn, *args))
        path = write_yaml(tmp_path, SMALL_RUN)
        runs = tmp_path / "runs"
        assert cli_main(["compare", "--config", path, "--config-chaotic",
                         path, "--out", str(runs)]) == 2
        [compared] = runs.glob("*-compare")
        payload = json.loads((compared / "record.json").read_text())
        assert payload["error"]["type"] == "ChildProcessError"
        assert set(payload["manifest"]) == {"gamma_ratio.csv"}

    def test_sub_runs_sharing_a_slug_get_two_directories(
            self, tmp_path, monkeypatch, no_child_left):
        # a clock that reads one instant at its first call in each
        # process: both sub-runs stamp their directories alike
        real = datetime.datetime
        first = []

        class Clock(real):
            @classmethod
            def now(cls, tz=None):
                if first:
                    return real.now(tz)
                first.append(True)
                return real(2026, 1, 1, tzinfo=tz)

        monkeypatch.setattr(harness, "_dt", types.SimpleNamespace(
            datetime=Clock, timezone=datetime.timezone))
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        record = compare_command(cfg, cfg, str(tmp_path / "runs"))
        sub_runs = {record.results["regular_run"],
                    record.results["chaotic_run"]}
        assert len(sub_runs) == 2
        assert str(tmp_path / "runs" / "20260101T000000.000000-small") in \
            sub_runs
        assert all(os.path.isfile(os.path.join(path, "record.json"))
                   for path in sub_runs)


def single_process_csv(header, columns):
    """The bytes of formatting every row in order in one process."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return (",".join(header) + "\n" + "".join(
        row % values for values in zip(*columns))).encode("ascii")


def nothing():
    return None


def no_memory(*_args):
    raise MemoryError("Unable to allocate 8.00 TiB")


class TestForked:
    """harness._beside: here() in this process, there(*args) in a forked
    child."""

    def test_result_larger_than_the_pipe_buffer(self, no_child_left):
        values = np.arange(100_000.0)    # 800 kB pickled
        signal.alarm(30)    # SIGALRM ends the run if the join deadlocks
        try:
            result = harness._beside(nothing, np.copy, values)[1]
        finally:
            signal.alarm(0)
        np.testing.assert_array_equal(result, values)

    def test_child_ending_without_a_result(self, no_child_left):
        with pytest.raises(ChildProcessError, match="exit code 3"):
            harness._beside(nothing, os._exit, 3)

    @pytest.mark.parametrize("exc", [
        EscapeError("escaped", 1.5, PhasePoint(1.0, 0.0, 0.0, 0.5)),
        ConfigError(["a: bad", "b: worse"]),
        ConfigError(["a: bad"], "experiment.yaml")],
        ids=["EscapeError", "ConfigError", "ConfigError-path"])
    def test_package_exception_comes_back_whole(self, no_child_left, exc):
        def fail():
            raise exc

        with pytest.raises(type(exc)) as caught:
            harness._beside(nothing, fail)
        assert type(caught.value) is type(exc)
        assert str(caught.value) == str(exc)
        assert vars(caught.value) == vars(exc)

    def test_here_failing_is_raised_and_the_child_reaped(self,
                                                         no_child_left):
        def fail():
            raise EscapeError("here escaped", 2.0, None)

        with pytest.raises(EscapeError, match="here escaped"):
            harness._beside(fail, np.copy, np.arange(100_000.0))

    @pytest.mark.parametrize("there", ["raises", "dies"])
    def test_here_failing_wins_over_the_child(self, no_child_left, there):
        def here():
            raise ConfigError(["here: bad"])

        def fail():
            raise EscapeError("there escaped", 1.0, None)

        with pytest.raises(ConfigError, match="here: bad"):
            if there == "raises":
                harness._beside(here, fail)
            else:
                harness._beside(here, os._exit, 3)

    def test_without_fork_here_runs_then_there(self, monkeypatch,
                                               no_child_left):
        def step(order, name, value):
            order.append(name)
            return value * 2

        forked_order = []
        forked = harness._beside(lambda: step(forked_order, "here", 1),
                                 step, forked_order, "there", 2)
        monkeypatch.delattr(os, "fork")
        order = []
        inline = harness._beside(lambda: step(order, "here", 1),
                                 step, order, "there", 2)
        assert order == ["here", "there"]
        assert forked_order == ["here"]    # there appended in the child
        assert inline == forked == (2, 4)


class TestWriteCsv:
    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 60001])
    def test_halves_join_into_the_single_process_bytes(
            self, tmp_path, monkeypatch, no_child_left, fork, n):
        if not fork:
            monkeypatch.delattr(os, "fork")
        rng = np.random.default_rng(n)
        columns = [0.005 * np.arange(n), rng.standard_normal(n),
                   1e-300 * rng.standard_normal(n)]
        path = tmp_path / "x.csv"
        write_csv(str(path), ["t", "a", "b"], columns)
        assert path.read_bytes() == single_process_csv(["t", "a", "b"],
                                                       columns)
        assert os.listdir(tmp_path) == ["x.csv"]

    @pytest.mark.parametrize("half", ["first", "second"])
    def test_a_failing_half_exits_1(self, tmp_path, monkeypatch, capsys,
                                    no_child_left, half):
        # /dev/full takes writes and fails them with ENOSPC on a flush
        out = str(tmp_path / "x.csv")
        if half == "first":
            monkeypatch.setattr(
                harness, "open", lambda path, *args, **kwargs: open(
                    "/dev/full" if path == out else path, *args, **kwargs),
                raising=False)
        else:
            monkeypatch.setattr(harness, "tempfile", types.SimpleNamespace(
                TemporaryFile=lambda *args, **kwargs: open(
                    "/dev/full", "w+", encoding="ascii")))
        with pytest.raises(OSError, match="No space left"):
            write_csv(out, ["t"], [np.arange(3.0)])
        path = write_yaml(tmp_path, MINIMAL)
        assert cli_main(["propagate", "--config", path, "--out", out]) == 1
        assert "No space left" in capsys.readouterr().err

    def test_a_dead_half_exits_2(self, tmp_path, monkeypatch, capsys,
                                 no_child_left):
        real = harness._beside

        def die(*_args):
            os._exit(3)

        monkeypatch.setattr(harness, "_beside",
                            lambda here, _, *args: real(here, die, *args))
        path = write_yaml(tmp_path, MINIMAL)
        out = str(tmp_path / "x.csv")
        assert cli_main(["propagate", "--config", path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: forked die ended with exit code 3 and no "
            "result\n")

    def test_unequal_columns_raise(self, tmp_path):
        # a table gathers columns from several stages: none is cut short
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="unequal length"):
            write_csv(str(path), ["t", "a", "b"],
                      [np.arange(3.0), np.arange(3.0), np.arange(2.0)])
        assert not path.exists()

    def test_format_and_line_endings(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["t", "v"],
                  [np.array([0.0, 1.0 / 3.0]), np.array([1.0, 2.0])])
        raw = path.read_bytes()
        assert b"\r" not in raw
        text = raw.decode().splitlines()
        assert text[0] == "t,v"
        assert text[2].startswith("0.33333333333333331,")

    def test_special_values_bytes(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["a", "b"],
                  [np.array([np.nan, -0.0, 0.1]),
                   np.array([np.inf, 5e-324, -np.inf])])
        assert path.read_bytes() == (
            b"a,b\n"
            b"nan,inf\n"
            b"-0,4.9406564584124654e-324\n"
            b"0.10000000000000001,-inf\n")


class TestCli:
    def test_cli_import_leaves_out_scipy(self):
        # scipy is a test dependency only
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import decochaos.cli; "
                "print(sorted(m for m in sys.modules if 'scipy' in m))")
        done = subprocess.run([sys.executable, "-c", code, src], check=True,
                              capture_output=True, text=True)
        assert done.stdout.strip() == "[]"

    def test_validate_ok_and_fail(self, tmp_path, capsys):
        good = write_yaml(tmp_path, MINIMAL)
        assert cli_main(["validate-config", "--config", good]) == 0
        bad = copy.deepcopy(MINIMAL)
        del bad["seed"]
        bad_path = write_yaml(tmp_path, bad, "bad.yaml")
        assert cli_main(["validate-config", "--config", bad_path]) == 1

    def test_decohere_and_overrides(self, tmp_path, capsys):
        path = write_yaml(tmp_path, SMALL_RUN)
        code = cli_main(["decohere", "--config", path, "--out",
                         str(tmp_path / "runs"), "--seed", "99"])
        assert code == 0
        out = capsys.readouterr().out
        assert "run directory" in out
        run_dirs = os.listdir(tmp_path / "runs")
        assert len(run_dirs) == 1
        snapshot = yaml.safe_load(
            (tmp_path / "runs" / run_dirs[0] / "config.snapshot").read_text())
        assert snapshot["seed"] == 99

    def test_propagate_writes_csv(self, tmp_path):
        path = write_yaml(tmp_path, MINIMAL)
        out = str(tmp_path / "traj.csv")
        assert cli_main(["propagate", "--config", path, "--out", out]) == 0
        assert header(out) == "t,qx,qy,px,py,energy"

    def test_propagate_of_a_zero_energy_start_reports_a_finite_drift(
            self, tmp_path, capsys):
        # E(0) = 0 on the saddle's unstable direction
        data = {**MINIMAL, "model": {"family": "inverted_harmonic",
                                     "params": {"k": 1.0}},
                "initial": {"z": [1e-4, 0.0, 1e-4, 0.0]},
                "integrator": {"dt": 0.002, "n_steps": 750}}
        out = str(tmp_path / "traj.csv")
        assert cli_main(["propagate", "--config", write_yaml(tmp_path, data),
                         "--out", out]) == 0
        printed = capsys.readouterr().out
        drift = float(printed.rpartition("energy drift ")[2].rstrip(")\n"))
        assert 0.0 < drift <= 1e-6

    @pytest.mark.parametrize("change", [
        {"fit": {"window": "70, 300"}},
        {"fit": [70.0, 300.0]},
        {"grid": {"nx": 64, "ny": 64, "lx": "twelve", "ly": 12.0,
                  "widths": [0.7, 0.7]}},
        {"lyapunov": {"total_time": "2e4", "renorm_interval": 2.0}},
        {"bath": {"coupling": "1.0", "omega_max": 10.0,
                  "temperature": 1000.0}},
        {"ehrenfest": [75.0]},
        {"model": {"family": ["harmonic2d"]}},
        {"model": {"family": "harmonic2d", "params": []}},
        {"initial": {"z": [1.0, 0.0, 0.0, 0.5], "alternates": {}}},
        {"initial": {"z": [1.0, 0.0, 0.0, 0.5], "alternates": ""}},
    ], ids=["fit.window-string", "fit-list", "grid.lx-string",
            "lyapunov.total_time-string", "bath.coupling-string",
            "ehrenfest-list", "model.family-list", "model.params-list",
            "initial.alternates-mapping", "initial.alternates-string"])
    def test_malformed_section_exits_1(self, tmp_path, capsys, change):
        path = write_yaml(tmp_path, {**MINIMAL, **change})
        assert cli_main(["validate-config", "--config", path]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_bytes(yaml.safe_dump(MINIMAL).encode()
                         + b'slug: "\xff\xfe"\n')
        assert cli_main(["validate-config", "--config", str(path)]) == 1
        assert f"cannot parse {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["slug"])
    @pytest.mark.parametrize("value", ["run\0x", "run\ud800"],
                             ids=["nul", "lone-surrogate"])
    def test_path_no_file_system_takes_exits_1(self, tmp_path, capsys, key,
                                               value):
        # os.makedirs raises ValueError on either, so decohere would fail
        path = write_yaml(tmp_path, {**MINIMAL, key: value})
        assert cli_main(["validate-config", "--config", path]) == 1
        assert f"  - {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("slug", ["s" * 232, "s" * 233, "\u00e9" * 117],
                             ids=["232-bytes", "233-bytes", "234-utf8-bytes"])
    def test_slug_fits_a_run_directory_name(self, tmp_path, capsys, slug):
        # the run directory is <22-character stamp>-<slug>, at most the
        # 255 bytes of a file name
        path = write_yaml(tmp_path, {**MINIMAL, "slug": slug})
        if len(os.fsencode(slug)) <= 232:
            assert cli_main(["validate-config", "--config", path]) == 0
            assert cli_main(["decohere", "--config", path, "--out",
                             str(tmp_path / "runs")]) == 0
            [run_dir] = (tmp_path / "runs").iterdir()
            assert len(os.fsencode(run_dir.name)) == 255
        else:
            assert cli_main(["validate-config", "--config", path]) == 1
            assert "  - slug: must be at most 232 bytes" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("section", ["model", "initial", "integrator",
                                         "lyapunov", "grid", "bath", "fit",
                                         "ehrenfest"])
    def test_unknown_section_key_exits_1(self, tmp_path, capsys, section):
        data = copy.deepcopy(FULL)
        data[section]["typo"] = 1
        path = write_yaml(tmp_path, data)
        assert cli_main(["validate-config", "--config", path]) == 1
        assert (f"unknown config key '{section}.typo'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, section", [
        ("bath.n_mode", {"coupling": 1.0, "omega_max": 10.0,
                         "temperature": 1000.0, "n_mode": 500}),
        ("lyapunov.dtt", {"total_time": 20.0, "renorm_interval": 2.0,
                          "dtt": 0.02}),
    ], ids=["bath.n_mode", "lyapunov.dtt"])
    def test_decohere_rejects_a_misspelt_key(self, tmp_path, capsys, key,
                                             section):
        # each would run other physics than it declares: no exact oracle,
        # or the tangent loop at integrator.dt
        path = write_yaml(tmp_path, {**SMALL_RUN, key.split(".")[0]: section})
        runs = tmp_path / "runs"
        assert cli_main(["decohere", "--config", path, "--out",
                         str(runs)]) == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not runs.exists()

    @pytest.mark.parametrize("change, key", [
        ({"model": {"family": "separable_quartic",
                    "params": {"a": float("nan")}}}, "model"),
        ({"model": {"family": "separable_quartic", "params": {"a": "2"}}},
         "model"),
        ({"initial": {"z": ["1", 0.0, 0.0, 0.5]}}, "initial"),
        ({"grid": {"nx": 64, "ny": 64, "lx": 12.0, "ly": 12.0,
                   "widths": [0.7, 0.7], "save_snapshots": "no"}},
         "grid.save_snapshots"),
    ], ids=["param-nan", "param-string", "z-string",
            "save_snapshots-string"])
    def test_non_numbers_are_not_coerced(self, tmp_path, capsys, change,
                                         key):
        path = write_yaml(tmp_path, {**MINIMAL, **change})
        assert cli_main(["validate-config", "--config", path]) == 1
        assert f"  - {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("change, key", [
        ({"integrator": {"dt": 0.01, "n_steps": 10 ** 30}},
         "integrator.n_steps"),
        ({"bath": {"coupling": 1.0, "omega_max": 10.0, "temperature": 1000.0,
                   "n_modes": 10 ** 30}}, "bath.n_modes"),
    ], ids=["n_steps", "n_modes"])
    def test_count_no_array_can_hold_exits_1(self, tmp_path, capsys, change,
                                             key):
        path = write_yaml(tmp_path, {**MINIMAL, **change})
        assert cli_main(["validate-config", "--config", path]) == 1
        assert f"  - {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("change, key", [
        ({"integrator": {"dt": 0.01, "n_steps": 2 ** 62}},
         "integrator.n_steps"),
        ({"bath": {"coupling": 1.0, "omega_max": 10.0, "temperature": 1000.0,
                   "n_modes": 2 ** 62}}, "bath.n_modes"),
        ({"engine": "both", "grid": {"nx": 2 ** 62, "ny": 64, "lx": 12.0,
                                     "ly": 12.0, "widths": [0.7, 0.7]}},
         "grid"),
        ({"lyapunov": {"total_time": 1.0e30, "renorm_interval": 2.0}},
         "lyapunov"),
    ], ids=["n_steps", "n_modes", "grid.nx", "lyapunov.total_time"])
    def test_count_whose_array_outgrows_the_address_space_exits_1(
            self, tmp_path, capsys, change, key):
        # each count is within sys.maxsize, but its largest array's bytes
        # are not; rejected before anything is allocated
        path = write_yaml(tmp_path, {**MINIMAL, **change})
        assert cli_main(["validate-config", "--config", path]) == 1
        assert f"  - {key}" in capsys.readouterr().err

    def test_decohere_rejects_lyapunov_blocks_no_array_can_hold(
            self, tmp_path, capsys):
        with open(os.path.join(CONFIG_DIR, "chaotic_henon_full.yaml")) as fh:
            data = yaml.safe_load(fh)
        data["lyapunov"]["total_time"] = 1.0e30
        path = write_yaml(tmp_path, data)
        runs = tmp_path / "runs"
        assert cli_main(["decohere", "--config", path, "--out",
                         str(runs)]) == 1
        assert "  - lyapunov" in capsys.readouterr().err
        assert not runs.exists()

    def test_seed_keeps_its_range(self, tmp_path):
        path = write_yaml(tmp_path, {**MINIMAL, "seed": 10 ** 30})
        assert cli_main(["validate-config", "--config", path]) == 0

    def test_memory_error_leaves_a_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr("decochaos.harness.discretize_bath", no_memory)
        path = write_yaml(tmp_path, SMALL_RUN)
        code = cli_main(["decohere", "--config", path, "--out",
                         str(tmp_path / "runs")])
        assert code == 2
        (rundir,) = os.listdir(tmp_path / "runs")
        with open(tmp_path / "runs" / rundir / "record.json") as fh:
            record = json.load(fh)
        assert record["error"] == {"type": "MemoryError",
                                   "message": "Unable to allocate 8.00 TiB"}
        # what the run gathered before the failure is kept and checksummed
        assert "classical.csv" in record["manifest"]

    @pytest.mark.parametrize("command, work", [
        ("propagate", "propagate"), ("lyapunov", "max_lyapunov")])
    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch,
                                  command, work):
        # as numpy fails to allocate the orbit of 2**40 steps
        monkeypatch.setattr(f"decochaos.harness.{work}", no_memory)
        data = copy.deepcopy(SMALL_RUN)
        data["lyapunov"] = {"total_time": 200.0, "renorm_interval": 1.0}
        out = tmp_path / "x.csv"
        assert cli_main([command, "--config", write_yaml(tmp_path, data),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("runtime failure: Unable to "
                                           "allocate 8.00 TiB\n")
        assert not out.exists()

    def test_output_dir_is_an_unknown_key(self, tmp_path, capsys):
        # the output root is --out, else $DECOCHAOS_RUNS, else ./runs
        path = write_yaml(tmp_path, {**MINIMAL, "output_dir": "runs"})
        assert cli_main(["validate-config", "--config", path]) == 1
        assert "  - unknown config key 'output_dir'" in capsys.readouterr().err

    def test_engine_override_revalidates(self, tmp_path):
        # quantum engine needs a grid section; the override must not
        # sneak past that constraint
        path = write_yaml(tmp_path, MINIMAL)
        code = cli_main(["decohere", "--config", path, "--engine", "quantum",
                         "--out", str(tmp_path / "runs")])
        assert code == 1

    @pytest.mark.parametrize("change, option", [
        ({"engine": "quantum"}, ["--engine", "classical"]),
        ({"seed": -1}, ["--seed", "3"]),
    ], ids=["engine-without-grid", "seed-negative"])
    def test_override_rescues_the_key_it_replaces(self, tmp_path, capsys,
                                                 change, option):
        # the file is invalid only in the key the option replaces
        path = write_yaml(tmp_path, {**SMALL_RUN, **change})
        assert cli_main(["validate-config", "--config", path]) == 1
        runs = tmp_path / "runs"
        assert cli_main(["decohere", "--config", path, "--out", str(runs),
                         *option]) == 0
        (rundir,) = os.listdir(runs)
        snapshot = yaml.safe_load((runs / rundir / "config.snapshot")
                                  .read_text())
        key, value = option[0][2:], yaml.safe_load(option[1])
        assert snapshot[key] == value

    def test_fit_from_csv(self, tmp_path, capsys):
        t = np.linspace(0.0, 10.0, 401)
        path = str(tmp_path / "div.csv")
        write_csv(path, ["t", "D"], [t, t ** 3])
        code = cli_main(["fit", "--csv", path, "--window", "1", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "power_law" in out

    @pytest.mark.parametrize("text, message", [
        (None, "No such file"),
        ("t,E\n0,0\n1,1\n", "no 'D' column"),
        ("t,D\n0,0\n1,one\n", "could not convert"),
        ("t,D\n0,1\n1,2\n", "must start at zero"),
        ("t,D\n0,0\n1,nan\n2,3\n", "must be finite"),
    ], ids=["missing-file", "no-D-column", "non-numeric", "not-divergence",
            "non-finite"])
    def test_fit_from_bad_csv_exits_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "div.csv"
        if text is not None:
            path.write_text(text)
        assert cli_main(["fit", "--csv", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_fit_config_reports_the_decohere_fit(self, tmp_path, capsys):
        with open(os.path.join(CONFIG_DIR, "chaotic_henon.yaml")) as fh:
            data = yaml.safe_load(fh)
        data["integrator"]["n_steps"] = 6000
        del data["bath"]["n_modes"]
        path = write_yaml(tmp_path, data)
        runs = tmp_path / "runs"
        assert cli_main(["decohere", "--config", path, "--out",
                         str(runs)]) == 0
        (rundir,) = os.listdir(runs)
        with open(runs / rundir / "record.json") as fh:
            recorded = json.load(fh)["results"]["divergence_fit"]
        capsys.readouterr()
        assert cli_main(["fit", "--config", path]) == 0
        printed = dict(line.split(": ", 1)
                       for line in capsys.readouterr().out.splitlines())
        assert printed["kind"] == recorded["kind"]
        assert printed["exponent_or_rate"] == \
            f"{recorded['exponent_or_rate']:.6g}"
        assert printed["window"] == str(tuple(recorded["window"]))

    def test_fit_csv_of_a_run_matches_fit_config(self, tmp_path, capsys):
        with open(os.path.join(CONFIG_DIR, "chaotic_henon.yaml")) as fh:
            data = yaml.safe_load(fh)
        data["integrator"]["n_steps"] = 6000
        del data["bath"]["n_modes"]
        path = write_yaml(tmp_path, data)
        runs = tmp_path / "runs"
        assert cli_main(["decohere", "--config", path, "--out",
                         str(runs)]) == 0
        (rundir,) = runs.iterdir()
        with open(rundir / "record.json") as fh:
            recorded = json.load(fh)["results"]["divergence_fit"]
        capsys.readouterr()
        printed = []
        for source in (["--config", path],
                       ["--csv", str(rundir / "classical.csv")]):
            assert cli_main(["fit", *source, "--window",
                             *map(repr, recorded["window"])]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].startswith(f"kind: {recorded['kind']}\n")

    @pytest.mark.parametrize("name, n_steps, saturation, window", [
        ("chaotic_henon.yaml", 6000, None, [7.5, 30.0]),
        ("chaotic_henon.yaml", 16000, 73.63, [18.4075, 73.63]),
        ("regular_quartic.yaml", 60000, None, [70.0, 300.0])],
        ids=["6000-None", "16000-73.63", "regular_quartic"])
    def test_fit_csv_of_a_run_without_window_matches_the_run(
            self, tmp_path, capsys, name, n_steps, saturation, window):
        # the chaotic record's window is the saturation-aware default,
        # which fit --csv rebuilds from the table's separation, qx and qy
        # (the orbits separate at t = 73.63, after the end of the shorter
        # run); the regular record's is its config's fit.window, which
        # fit --csv reads from the config.snapshot beside the table
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            data = yaml.safe_load(fh)
        data["integrator"]["n_steps"] = n_steps
        data["bath"].pop("n_modes", None)
        path = write_yaml(tmp_path, data)
        runs = tmp_path / "runs"
        assert cli_main(["decohere", "--config", path, "--out",
                         str(runs)]) == 0
        (rundir,) = runs.iterdir()
        with open(rundir / "record.json") as fh:
            recorded = json.load(fh)["results"]
        capsys.readouterr()
        printed = []
        for source in (["--config", path],
                       ["--csv", str(rundir / "classical.csv")]):
            assert cli_main(["fit", *source]) == 0
            printed.append(capsys.readouterr().out)
        fit = recorded["divergence_fit"]
        assert printed[0] == printed[1] == (
            f"kind: {fit['kind']}\n"
            f"exponent_or_rate: {fit['exponent_or_rate']:.6g}\n"
            f"r_squared: {fit['r_squared']:.6f}\n"
            f"window: {tuple(fit['window'])}\n")
        assert recorded["saturation_time"] == saturation
        assert fit["window"] == pytest.approx(window)

    def test_fit_csv_without_window_or_separation_fits_the_last_3_4(
            self, tmp_path, capsys):
        t = np.linspace(0.0, 10.0, 401)
        path = str(tmp_path / "div.csv")
        write_csv(path, ["t", "D"], [t, t ** 3])
        assert cli_main(["fit", "--csv", path]) == 0
        out = capsys.readouterr().out
        assert "kind: power_law\n" in out
        assert "window: (2.5, 10.0)\n" in out

    @pytest.mark.parametrize("text, message", [
        ("t,D,separation\n0,0,0\n1,1,x\n", "could not convert"),
        ("t,D,qx,qy\n0,0,1,0\n1,1,1\n", "real number, not"),
    ], ids=["non-numeric-separation", "short-row"])
    def test_fit_from_bad_optional_column_exits_1(self, tmp_path, capsys,
                                                  text, message):
        path = tmp_path / "div.csv"
        path.write_text(text)
        assert cli_main(["fit", "--csv", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_fit_config_without_a_fit_exits_2(self, tmp_path, capsys):
        # the run ends at t = 6: the window holds no samples
        path = write_yaml(tmp_path, SMALL_RUN)
        assert cli_main(["fit", "--config", path, "--window", "20",
                         "30"]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_fit_csv_names_a_bad_snapshot_beside_it(self, tmp_path, capsys):
        t = np.linspace(0.0, 10.0, 401)
        csv_path = str(tmp_path / "classical.csv")
        write_csv(csv_path, ["t", "D"], [t, t ** 3])
        snapshot = write_yaml(tmp_path, {**SMALL_RUN, "seed": -1},
                              "config.snapshot")
        assert cli_main(["fit", "--csv", csv_path]) == 1
        assert (f"error: invalid configuration in {snapshot}:\n"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("window", [
        ["10", "1"], ["1", "1"], ["nan", "10"], ["1", "inf"]],
        ids=["reversed", "empty", "nan", "inf"])
    def test_fit_window_follows_the_config_rule(self, tmp_path, capsys,
                                                window):
        t = np.linspace(0.0, 10.0, 401)
        csv_path = str(tmp_path / "div.csv")
        write_csv(csv_path, ["t", "D"], [t, t ** 3])
        config = write_yaml(tmp_path, SMALL_RUN)
        for source in (["--csv", csv_path], ["--config", config]):
            assert cli_main(["fit", *source, "--window", *window]) == 1
            assert "  - --window: need [t_lo, t_hi] with t_lo < t_hi" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("command, out", [
        ("propagate", "missing/x.csv"), ("decohere", "file/sub")])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, command, out):
        # a missing parent directory, and a file where the run directory's
        # parent should be
        (tmp_path / "file").write_text("")
        path = write_yaml(tmp_path, SMALL_RUN)
        out = str(tmp_path / out)
        assert cli_main([command, "--config", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out in err

    @pytest.mark.parametrize("command, work", [
        ("propagate", "propagate"), ("lyapunov", "max_lyapunov")])
    def test_unwritable_out_fails_before_the_work(self, tmp_path, capsys,
                                                  monkeypatch, command, work):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(f"decochaos.harness.{work}", never)
        data = copy.deepcopy(SMALL_RUN)
        data["lyapunov"] = {"total_time": 200.0, "renorm_interval": 1.0}
        path = write_yaml(tmp_path, data)
        out = str(tmp_path / "missing" / "x.csv")
        assert cli_main([command, "--config", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err

    def test_checking_out_leaves_no_file_behind(self, tmp_path):
        # a run that fails after the --out check must not leave an
        # empty CSV where none was
        data = copy.deepcopy(MINIMAL)
        data["model"] = {"family": "inverted_harmonic"}
        data["initial"] = {"z": [0.5, 0.0, 0.0, 0.0]}
        data["integrator"] = {"dt": 0.01, "n_steps": 2000,
                              "escape_radius": 5.0}
        path = write_yaml(tmp_path, data)
        out = tmp_path / "x.csv"
        assert cli_main(["propagate", "--config", path, "--out",
                         str(out)]) == 2
        assert not out.exists()

    def test_runtime_failure_exit_code(self, tmp_path):
        data = copy.deepcopy(MINIMAL)
        data["model"] = {"family": "inverted_harmonic"}
        data["initial"] = {"z": [0.5, 0.0, 0.0, 0.0]}
        data["integrator"] = {"dt": 0.01, "n_steps": 2000,
                              "escape_radius": 5.0}
        path = write_yaml(tmp_path, data)
        code = cli_main(["decohere", "--config", path, "--out",
                         str(tmp_path / "runs")])
        assert code == 2

    def test_lyapunov_command(self, tmp_path, capsys):
        data = copy.deepcopy(MINIMAL)
        data["model"] = {"family": "inverted_harmonic", "params": {"k": 1.0}}
        data["initial"] = {"z": [0.0, 0.0, 0.0, 0.0]}
        data["lyapunov"] = {"total_time": 200.0, "renorm_interval": 1.0}
        path = write_yaml(tmp_path, data)
        out_csv = str(tmp_path / "lyap.csv")
        assert cli_main(["lyapunov", "--config", path, "--out",
                         out_csv]) == 0
        printed = capsys.readouterr().out
        assert "lambda_max" in printed
        assert header(out_csv) == "t,lambda_running"

    @pytest.mark.parametrize("argv", [
        ["propagate", "--seed", "1"], ["propagate", "--engine", "both"],
        ["lyapunov", "--engine", "both"], ["fit", "--seed", "1"],
        ["fit", "--engine", "both"], ["fit", "--out", "x"]])
    def test_options_a_command_ignores_are_errors(self, tmp_path, argv,
                                                  capsys):
        path = write_yaml(tmp_path, SMALL_RUN)
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--config", path])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_compare_command_cli(self, tmp_path, capsys):
        path = write_yaml(tmp_path, SMALL_RUN)
        code = cli_main(["compare", "--config", path, "--config-chaotic",
                         path, "--out", str(tmp_path / "runs")])
        assert code == 0
        printed = capsys.readouterr().out
        assert '"dominates": false' in printed

    def test_compare_names_the_bad_config(self, tmp_path, capsys):
        good = write_yaml(tmp_path, SMALL_RUN)
        bad = write_yaml(tmp_path, {**SMALL_RUN, "seed": -1}, "chaotic.yaml")
        assert cli_main(["compare", "--config", good, "--config-chaotic", bad,
                         "--out", str(tmp_path / "runs")]) == 1
        assert (f"error: invalid configuration in {bad}:\n"
                f"  - seed: must be an integer >= 0\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()


# Every section present and valid; the property test below breaks one to
# three places of it at a time.
FULL = {
    "schema_version": 1, "seed": 3, "engine": "both", "slug": "full",
    "model": {"family": "separable_quartic",
              "params": {"a": 1.0, "b": 1.0}, "mass": 1.0},
    "initial": {"z": [0.4, 0.3, 0.47, 0.3],
                "delta_z": [5e-7, 5e-7, 5e-7, 5e-7],
                "alternates": [[0.3, 0.4, 0.47, 0.3]]},
    "integrator": {"dt": 0.005, "n_steps": 4000, "escape_radius": 1000.0,
                   "energy_drift_bound": 1e-8},
    "lyapunov": {"total_time": 200.0, "renorm_interval": 2.0, "dt": 0.01},
    "grid": {"nx": 128, "ny": 128, "lx": 12.0, "ly": 12.0, "hbar_eff": 1.0,
             "widths": [0.7071, 0.7071], "sample_every": 5,
             "save_snapshots": False},
    "bath": {"coupling": 1.0, "omega_max": 10.0, "temperature": 1000.0,
             "n_modes": 2000},
    "fit": {"window": [5.0, 20.0], "expected_scaling": "power_law"},
    "ehrenfest": {"t_max": 15.0, "threshold": 0.01},
}


def _paths(node, prefix=()):
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


FULL_PATHS = [p for p in _paths(FULL) if p]

# boundary values get a branch of their own so they come up often
_special = st.sampled_from([
    None, True, False, 0, 1, -1, 64, 2 ** 20, 10 ** 30, 10 ** 400,
    float("inf"), float("-inf"), float("nan"), 0.0, -1.0, 1e-300, 1e300,
    "", "1", "0.5", "harmonic2d", "both", "a/b", ".."])
_scalars = st.one_of(_special, st.integers(), st.floats(),
                     st.text(max_size=6))
_values = st.one_of(
    _special, _scalars, st.lists(_scalars, max_size=5),
    st.dictionaries(st.text(max_size=4), _scalars, max_size=3))


def _replaced(changes):
    """FULL with each (path, value) set in turn, skipping a path that an
    earlier change cut off."""
    data = copy.deepcopy(FULL)
    for path, value in changes:
        node = data
        try:
            for key in path[:-1]:
                node = node[key]
            if isinstance(node, (dict, list)):
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass
    return data


def test_full_config_is_valid():
    assert _parse_config(copy.deepcopy(FULL)).grid.nx == 128


@settings(max_examples=300)
@given(changes=st.lists(st.tuples(st.sampled_from(FULL_PATHS), _values),
                        min_size=1, max_size=3))
def test_any_config_parses_or_raises_config_error(tmp_path_factory,
                                                  changes):
    # parsing allocates nothing sized by grid.nx/ny or bath.n_modes, so
    # huge counts are safe to draw here
    data = _replaced(changes)
    try:
        _parse_config(data)
    except ConfigError:
        pass
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli_main(["validate-config", "--config", str(path)]) in (0, 1)


def _shipped(name):
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        return yaml.safe_load(fh)


# the shipped configs, and FULL: a both config with a grid section
FUZZ_BASES = [_shipped(name) for name in (
    "regular_quartic.yaml", "chaotic_henon.yaml", "chaotic_henon_full.yaml")
] + [FULL]
_fuzz_values = st.one_of(
    _values, st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["\0", "run\0", "a/\0b", "\ud800", "runs\udcff"]))


@st.composite
def _one_field_changed(draw):
    """A FUZZ_BASES config with one field set or deleted; slug is drawn
    as often as all other fields together."""
    data = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    path = draw(st.one_of(st.just(("slug",)),
                          st.sampled_from([p for p in _paths(data) if p])))
    node = data
    for key in path[:-1]:
        node = node[key]
    if draw(st.booleans()) and path[-1] in (
            node if isinstance(node, dict) else range(len(node))):
        del node[path[-1]]
    else:
        node[path[-1]] = draw(_fuzz_values)
    return data


@settings(max_examples=300, deadline=None)
@example(data={**FULL, "slug": "run\0"})
@given(data=_one_field_changed())
def test_accepted_config_names_a_run_directory_the_os_takes(data):
    try:
        config = _parse_config(data)
    except ConfigError:
        return
    # a NUL or lone surrogate raises ValueError here, as in os.makedirs
    with contextlib.suppress(OSError):
        os.stat(os.path.join("runs", f"x-{config.slug}"))
