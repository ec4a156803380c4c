import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from alphagames import alpha, derivatives
from alphagames.app import ConfigError, ExperimentConfig, _noise, main, run


def write_config(tmp_path, **kw):
    base = {"preset": "lq", "players": 2, "steps": 10, "paths": 800,
            "seed": 3, "out": str(tmp_path / "out")}
    base.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path, base


class TestConfig:
    def test_roundtrip_idempotent(self, tmp_path):
        path, raw = write_config(tmp_path)
        cfg = ExperimentConfig.from_file(str(path))
        canon = cfg.canonical()
        cfg2 = ExperimentConfig.from_dict(canon)
        assert cfg2.canonical() == canon

    def test_unknown_key_rejected(self, tmp_path):
        path, _ = write_config(tmp_path, typo_key=1)
        with pytest.raises(ConfigError, match="typo_key"):
            ExperimentConfig.from_file(str(path))

    def test_parse_error_cites_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"preset": "lq",\n  "players": }')
        with pytest.raises(ConfigError, match="line 2"):
            ExperimentConfig.from_file(str(path))

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"paths": 10})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"steps": 1})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"preset": "nope"})

    def test_eps_schedule_must_halve(self):
        for bad in ([], [0.01, 0.004], [0.01, 0.0]):
            with pytest.raises(ConfigError, match="eps_schedule"):
                ExperimentConfig.from_dict({"eps_schedule": bad})
        ExperimentConfig.from_dict({"eps_schedule": [0.02, 0.01]})

    def test_sens_method_accepted(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"players": 2, "steps": 8, "paths": 600, "method": "SENS",
             "preset_params": {"Qhat": [0.5, 1.5], "G": [0.5, 1.5]},
             "anchors": ["zero"], "directions": ["const"],
             "out": str(tmp_path / "o")})
        rep = run(cfg, "alpha")
        assert rep["results"]["alpha_empirical"] > 0
        with pytest.raises(ConfigError, match="method"):
            ExperimentConfig.from_dict({"method": "ADJOINT"})

    def test_overrides_win(self, tmp_path):
        path, _ = write_config(tmp_path)
        cfg = ExperimentConfig.from_file(str(path), {"seed": 99,
                                                     "paths": None})
        assert cfg.seed == 99 and cfg.paths == 800

    def test_long_run_guard(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"paths": 400_000, "steps": 200, "players": 16,
             "out": str(tmp_path)})
        with pytest.raises(ConfigError, match="allow-long"):
            run(cfg, "scaling")


class TestSubcommands:
    def test_simulate_writes_report_and_tables(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"players": 2, "steps": 10, "paths": 800, "seed": 3,
             "out": str(tmp_path / "o")})
        rep = run(cfg, "simulate")
        assert rep["passed"]
        assert (tmp_path / "o" / "report.json").exists()
        assert (tmp_path / "o" / "tables" / "moments.csv").exists()
        blob = json.loads((tmp_path / "o" / "report.json").read_text())
        assert blob["results"]["validation_passed"]

    def test_bound_subcommand(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"preset": "mean-field", "players": 3, "steps": 10,
             "paths": 800, "out": str(tmp_path / "o")})
        rep = run(cfg, "bound")
        assert rep["results"]["alpha_bound"] > 0
        assert rep["results"]["symbolic_constant"] == 1.0

    def test_alpha_subcommand(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"players": 2, "steps": 8, "paths": 600,
             "preset_params": {"Qhat": [0.5, 1.5], "G": [0.5, 1.5]},
             "anchors": ["zero"], "directions": ["const"],
             "out": str(tmp_path / "o")})
        rep = run(cfg, "alpha")
        assert rep["results"]["alpha_empirical"] > 0

    def test_deriv_matches_cross_check_first_order(self, tmp_path):
        base = {"preset": "tanh-coupled", "players": 2, "steps": 8,
                "paths": 600, "anchors": ["constant:0.5"],
                "directions": ["const", "ramp", "sine"]}
        tables = {}
        for sub, table in (("deriv", "derivatives.csv"),
                           ("cross-check", "cross_check.csv")):
            cfg = ExperimentConfig.from_dict(dict(base,
                                                  out=str(tmp_path / sub)))
            run(cfg, sub)
            with open(tmp_path / sub / "tables" / table) as fh:
                tables[sub] = list(csv.DictReader(fh))
        deriv = tables["deriv"]
        first = [r for r in tables["cross-check"] if r["order"] == "first"]
        by_target = {}
        for r in deriv:
            by_target.setdefault((r["i"], r["h"], r["dir_h"]), {})[
                r["method"]] = r["value"]
        assert len(deriv) == 3 * len(by_target) == 3 * 2 * 2 * 3
        assert all(sorted(v) == ["BSDE", "FD", "SENS"]
                   for v in by_target.values())
        assert len(first) == 2 * 2 * 2
        for r in first:
            got = by_target[(r["i"], r["h"], r["dir_h"])]
            assert (got["FD"], got["SENS"], got["BSDE"]) == \
                (r["fd"], r["sens"], r["bsde"])

    def test_deriv_fails_on_a_disagreeing_route(self, tmp_path,
                                                monkeypatch):
        # deriv checks cross-check's first-order agreement rule, so a
        # route that drifts off the others fails the run and exits 1
        path, _ = write_config(tmp_path, directions=["const", "ramp"])
        cfg = ExperimentConfig.from_file(str(path))
        rep = run(cfg, "deriv")
        assert rep["passed"] and rep["results"]["all_agree"]
        sens = derivatives.first_derivative_sens

        def shifted(*args, **kwargs):
            return {key: dataclasses.replace(est, value=est.value + 1.0)
                    for key, est in sens(*args, **kwargs).items()}

        monkeypatch.setattr(derivatives, "first_derivative_sens", shifted)
        rep = run(cfg, "deriv")
        assert not rep["passed"] and not rep["results"]["all_agree"]
        assert main(["deriv", "--config", str(path)]) == 1

    def test_potential_value_matches_library(self, tmp_path):
        # the subcommand reads the profile's potential off the deviation
        # gaps' shared base line integral
        cfg = ExperimentConfig.from_dict(
            {"preset": "common-noise", "players": 2, "steps": 8,
             "paths": 500, "quad_order": 2, "anchors": ["constant:0.5"],
             "directions": ["const", "ramp"], "out": str(tmp_path / "o")})
        rep = run(cfg, "potential")
        spec, _ = cfg.build_game()
        value, se = alpha.potential_value(
            spec, cfg.anchor_profiles(2)[-1], cfg.grid(), _noise(cfg, spec),
            order=cfg.quad_order)
        assert rep["results"]["potential_value"] == value
        assert rep["results"]["potential_se"] == se

    def test_unknown_subcommand(self, tmp_path):
        cfg = ExperimentConfig.from_dict({"out": str(tmp_path)})
        with pytest.raises(ConfigError):
            run(cfg, "frobnicate")


class TestCli:
    def run_cli(self, args, env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        for k, v in (env_extra or {}).items():
            env[k] = v
        return subprocess.run(
            [sys.executable, "-m", "alphagames.app"] + args,
            capture_output=True, text=True, env=env)

    def test_exit_codes(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = self.run_cli(["simulate", "--config", str(path)])
        assert out.returncode == 0, out.stderr
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out = self.run_cli(["simulate", "--config", str(bad)])
        assert out.returncode == 2

    @pytest.mark.parametrize("subcommand,bad", [
        ("cross-check", {"directions": []}),
        ("potential", {"quad_order": 0}),
        ("scaling", {"scaling_players": []}),
        ("scaling", {"scaling_players": [2, 0]}),
        ("simulate", {"preset_params": {"foo": 1}}),
        ("simulate", {"preset_params": {"R": -1}}),
        ("alpha", {"anchors": ["constant:abc"]}),
    ])
    def test_invalid_config_exits_two(self, tmp_path, capsys, subcommand,
                                      bad):
        path, _ = write_config(tmp_path, paths=200, **bad)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(path))
        assert main([subcommand, "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_scaling_rejects_preset_params(self, tmp_path, capsys):
        # the sweep builds every game from the spread alone, so these
        # parameters would be dropped silently
        path, _ = write_config(tmp_path, paths=200, steps=4,
                               scaling_players=[2, 4],
                               preset_params={"R": 5.0, "A": -2.0})
        assert main(["scaling", "--config", str(path)]) == 2
        assert "preset_params" in capsys.readouterr().err

    def test_potential_failed_gap_exits_one(self, tmp_path):
        path, _ = write_config(tmp_path, preset="tanh-coupled", paths=400,
                               quad_order=2, anchors=["constant:0.5"],
                               directions=["const", "ramp"])
        out = self.run_cli(["potential", "--config", str(path)])
        assert out.returncode == 1, out.stderr
        with open(tmp_path / "out" / "tables" / "potential_gaps.csv") as fh:
            flags = [r["ok"] for r in csv.DictReader(fh)]
        assert "0" in flags and "1" in flags

    def test_reproducible_across_thread_counts(self, tmp_path):
        """Identical config and seed give bit-identical numeric output,
        report and tables, regardless of the BLAS/OpenMP thread
        environment."""
        path, _ = write_config(tmp_path, paths=600, steps=8,
                               preset_params={"Qhat": [0.5, 1.5],
                                              "D": 0.2},
                               anchors=["zero"], directions=["const"])
        reports, tables = [], []
        for threads, outdir in (("1", "a"), ("4", "b")):
            out = self.run_cli(
                ["cross-check", "--config", str(path), "--out",
                 str(tmp_path / outdir)],
                env_extra={"OMP_NUM_THREADS": threads,
                           "OPENBLAS_NUM_THREADS": threads,
                           "MKL_NUM_THREADS": threads})
            assert out.returncode in (0, 1), out.stderr
            blob = json.loads(
                (tmp_path / outdir / "report.json").read_text())
            blob["timing"] = None
            blob["config"]["out"] = None
            reports.append(json.dumps(blob, sort_keys=True))
            tables.append({p.name: p.read_bytes() for p in sorted(
                (tmp_path / outdir / "tables").glob("*.csv"))})
        assert reports[0] == reports[1]
        assert list(tables[0]) == ["cross_check.csv"]
        assert tables[0] == tables[1]

    def test_rerun_bit_identical(self, tmp_path):
        path, _ = write_config(tmp_path, paths=600, steps=8)
        for outdir in ("r1", "r2"):
            out = self.run_cli(["simulate", "--config", str(path), "--out",
                                str(tmp_path / outdir)])
            assert out.returncode == 0
        a = json.loads((tmp_path / "r1" / "report.json").read_text())
        b = json.loads((tmp_path / "r2" / "report.json").read_text())
        a["timing"] = b["timing"] = None
        a["config"]["out"] = b["config"]["out"] = None
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
