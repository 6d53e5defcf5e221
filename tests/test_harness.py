import copy
import csv
import dataclasses
import json
import os

import numpy as np
import pytest
import yaml

from decochaos.cli import main as cli_main
from decochaos.decoherence import RegimeRun, compare_regimes
from decochaos.errors import ConfigError
from decochaos.harness import (ExperimentConfig, compare_command, load_config,
                               run_experiment, write_csv)
from decochaos.series import DecoherenceSeries, DivergenceSeries

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

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


def write_yaml(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def read_columns(path, *keys):
    with open(path, encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    return [np.array([float(r[k]) for r in rows]) for k in keys]


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, MINIMAL))
        assert cfg.engine == "classical"
        assert cfg.integrator.escape_radius == 1e3
        assert cfg.integrator.energy_drift_bound == 1e-6
        assert cfg.initial.delta_z is None
        assert cfg.bath is None
        assert cfg.superposition == pytest.approx((2 ** -0.5, 2 ** -0.5))

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
        with pytest.raises(ConfigError, match="seed"):
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
        again = ExperimentConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_shipped_configs_are_valid(self):
        for name in ("regular_quartic.yaml", "chaotic_henon.yaml",
                     "chaotic_henon_full.yaml"):
            cfg = load_config(os.path.join(CONFIG_DIR, name))
            assert cfg.seed == 20260808

    @pytest.mark.parametrize("change, field", [
        ({"integrator": {"dt": 0.01, "n_steps": True}}, "n_steps"),
        ({"bath": {"coupling": float("inf"), "omega_max": 10.0,
                   "temperature": 1000.0}}, "bath.coupling"),
        ({"bath": {"coupling": 1.0, "omega_max": float("nan"),
                   "temperature": 1000.0}}, "bath.omega_max"),
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


class TestRunExperiment:
    def test_zero_displacement_yields_zero_gamma(self, tmp_path):
        data = copy.deepcopy(SMALL_RUN)
        data["initial"]["delta_z"] = [0.0, 0.0, 0.0, 0.0]
        cfg = load_config(write_yaml(tmp_path, data))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        assert record.error is None
        gamma_csv = os.path.join(record.path, "decoherence_classical.csv")
        rows = [line.split(",") for line in
                open(gamma_csv).read().splitlines()[1:]]
        assert all(float(r[1]) == 0.0 for r in rows)
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        a = run_experiment(cfg, str(tmp_path / "runs"))
        b = run_experiment(cfg, str(tmp_path / "runs"))
        assert a.manifest == b.manifest
        assert a.path != b.path

    def test_csv_interfaces(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, SMALL_RUN))
        record = run_experiment(cfg, str(tmp_path / "runs"))
        headers = {
            "divergence.csv": "t,D,separation,energy_drift",
            "decoherence_classical.csv":
                "t,gamma_asymptotic,gamma_oracle,engine",
            "trajectory.csv": "t,qx,qy,px,py,energy",
        }
        for name, header in headers.items():
            first = open(os.path.join(record.path, name)).readline().strip()
            assert first == header, name
        row = open(os.path.join(record.path,
                                "decoherence_classical.csv")).readlines()[1]
        assert row.strip().endswith(",classical")
        # the oracle column lives in decoherence_<engine>.csv only
        assert "gamma_oracle_classical.csv" not in record.manifest

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
        for name in ("decoherence_classical.csv", "decoherence_quantum.csv",
                     "expectations_z1.csv", "expectations_z2.csv"):
            assert name in record.manifest
        header = open(os.path.join(record.path,
                                   "expectations_z1.csv")).readline().strip()
        assert header == "t,mean_qx,mean_qy,var_qx,var_qy"
        # harmonic packet means follow the classical orbit, so the two
        # engines agree on the exponent
        g = record.results["gamma"]
        assert g["quantum"]["gamma_asymptotic_final"] == pytest.approx(
            g["classical"]["gamma_asymptotic_final"], rel=1e-4)
        assert record.results["ehrenfest_break_time"] is None
        assert record.results["hartree_error"]["value"] > 0

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
        payload = json.load(open(os.path.join(record.path, "record.json")))
        assert payload["manifest"] == record.manifest
        assert payload["package_version"]

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
        assert "divergence.csv" in record.manifest
        assert os.path.exists(os.path.join(record.path, "trajectory.csv"))

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
        rows = open(ratio_csv).read().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows
                if r.split(",")[1] != "nan"]
        assert all(abs(v - 1.0) < 1e-12 for v in vals)

    def test_in_memory_compare_matches_the_csv_path(self, tmp_path):
        # compare builds both sides from the sub-runs' series in memory;
        # rebuilt from their CSVs (17 digits round-trip a float64) the
        # comparison must come out the same
        def short(name):
            cfg = load_config(os.path.join(CONFIG_DIR, name))
            return dataclasses.replace(
                cfg, integrator=dataclasses.replace(cfg.integrator,
                                                    n_steps=6000),
                bath=dataclasses.replace(cfg.bath, n_modes=None),
                fit=dataclasses.replace(cfg.fit, window=None))

        configs = {"regular": short("regular_quartic.yaml"),
                   "chaotic": short("chaotic_henon.yaml")}
        record = compare_command(configs["regular"], configs["chaotic"],
                                 str(tmp_path / "runs"))
        res = record.results

        runs = {}
        for label, cfg in configs.items():
            rundir = res[f"{label}_run"]
            t, g = read_columns(
                os.path.join(rundir, "decoherence_classical.csv"),
                "t", "gamma_asymptotic")
            td, D = read_columns(os.path.join(rundir, "divergence.csv"),
                                 "t", "D")
            with open(os.path.join(rundir, "record.json")) as fh:
                window = json.load(fh)["results"]["divergence_fit"]["window"]
            runs[label] = RegimeRun(
                label, DecoherenceSeries(t, g, source="asymptotic",
                                         engine="classical"),
                divergence=DivergenceSeries(td, D), fit_window=tuple(window),
                ehrenfest_t_max=cfg.ehrenfest.t_max)
        expected = compare_regimes(runs["regular"], runs["chaotic"],
                                   runs["regular"].gamma.t)

        assert expected.dominates and res["dominates"] is True
        assert res["t_star"] == expected.t_star
        assert res["chaotic_fit"]["exponent_or_rate"] == \
            expected.chaotic_fit.exponent_or_rate
        (ratio,) = read_columns(os.path.join(record.path, "gamma_ratio.csv"),
                                "ratio")
        np.testing.assert_array_equal(ratio, expected.ratio)


class TestWriteCsv:
    def test_format_and_line_endings(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["t", "v", "tag"],
                  [np.array([0.0, 1.0 / 3.0]), np.array([1.0, 2.0]),
                   ["a", "b"]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        text = raw.decode().splitlines()
        assert text[0] == "t,v,tag"
        assert text[2].startswith("0.33333333333333331,")


class TestCli:
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
        snapshot = yaml.safe_load(open(
            tmp_path / "runs" / run_dirs[0] / "config.snapshot"))
        assert snapshot["seed"] == 99

    def test_propagate_writes_csv(self, tmp_path):
        path = write_yaml(tmp_path, MINIMAL)
        out = str(tmp_path / "traj.csv")
        assert cli_main(["propagate", "--config", path, "--out", out]) == 0
        header = open(out).readline().strip()
        assert header == "t,qx,qy,px,py,energy"

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
    ], ids=["fit.window-string", "fit-list", "grid.lx-string",
            "lyapunov.total_time-string", "bath.coupling-string",
            "ehrenfest-list", "model.family-list"])
    def test_malformed_section_exits_1(self, tmp_path, capsys, change):
        path = write_yaml(tmp_path, {**MINIMAL, **change})
        assert cli_main(["validate-config", "--config", path]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_engine_override_revalidates(self, tmp_path):
        # quantum engine needs a grid section; the override must not
        # sneak past that constraint
        path = write_yaml(tmp_path, MINIMAL)
        code = cli_main(["decohere", "--config", path, "--engine", "quantum",
                         "--out", str(tmp_path / "runs")])
        assert code == 1

    def test_fit_from_csv(self, tmp_path, capsys):
        t = np.linspace(0.0, 10.0, 401)
        path = str(tmp_path / "div.csv")
        write_csv(path, ["t", "D"], [t, t ** 3])
        code = cli_main(["fit", "--csv", path, "--window", "1", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "power_law" in out

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
        assert open(out_csv).readline().strip() == "t,lambda_running"

    def test_compare_command_cli(self, tmp_path, capsys):
        path = write_yaml(tmp_path, SMALL_RUN)
        code = cli_main(["compare", "--config", path, "--config-chaotic",
                         path, "--out", str(tmp_path / "runs")])
        assert code == 0
        printed = capsys.readouterr().out
        assert '"dominates": false' in printed
