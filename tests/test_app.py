import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from alphagames import alpha, derivatives
from alphagames.model import ControlProfile, NoiseBundle
from alphagames.presets import build_preset, lq_scaling_params
from alphagames.app import (SUBCOMMANDS, ConfigError, ExperimentConfig,
                            _noise, main, run)
from alphagames.bsde import RegressionBasis


def read_strict(path):
    """A report parsed as strict JSON: NaN and Infinity are rejected."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in {path}")
    return json.loads(path.read_text(), parse_constant=reject)


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

    def test_alpha_fails_on_a_non_finite_asymmetry(self, tmp_path,
                                                  monkeypatch):
        # a NaN asymmetry certifies nothing: the run fails and exits 1
        path, _ = write_config(tmp_path, steps=6, paths=300,
                               anchors=["zero"], directions=["const"])
        cfg = ExperimentConfig.from_file(str(path))
        assert run(cfg, "alpha")["passed"]
        empirical = alpha.empirical_alpha

        def nan_pair(*args, **kwargs):
            rep = empirical(*args, **kwargs)
            asym = rep.asymmetry.copy()
            asym[0, 1] = asym[1, 0] = np.nan
            return alpha.AlphaReport.from_asymmetry(asym, rep.asymmetry_se,
                                                    rep.notes)

        monkeypatch.setattr(alpha, "empirical_alpha", nan_pair)
        assert not run(cfg, "alpha")["passed"]
        assert main(["alpha", "--config", str(path)]) == 1

    def test_scaling_rows_match_fresh_bundles(self, tmp_path):
        # the sweep draws one grid at its widest game; each row must
        # equal the pairwise evaluator on that game's own fresh noise,
        # in whatever order the players are listed
        path, _ = write_config(tmp_path, steps=6, paths=500,
                               scaling_players=[4, 2], directions=["const"])
        cfg = ExperimentConfig.from_file(str(path))
        res = run(cfg, "scaling")["results"]
        assert res["players"] == [4, 2]
        with open(tmp_path / "out" / "tables" / "scaling.csv") as fh:
            rows = list(csv.DictReader(fh))
        grid = cfg.grid()
        for n, got, row in zip([4, 2], res["alpha_empirical"], rows):
            params = lq_scaling_params(n, spread=cfg.spread)
            spec, _ = build_preset("lq", n, **params)
            noise = NoiseBundle.generate(cfg.seed, grid, cfg.paths,
                                         spec.n_drivers)
            asym, se = alpha.pairwise_quadratic_asymmetry(
                spec, params["Qhat"], params["G"], ControlProfile.zeros(n),
                cfg.direction_controls()[0], grid, noise)
            want = alpha.AlphaReport.from_asymmetry(asym, se, [])
            assert got == want.alpha_empirical
            assert int(row["players"]) == n
            assert float(row["alpha_empirical"]) == want.alpha_empirical
            assert float(row["alpha_se"]) == want.alpha_empirical_se

    def test_nash_gap_reports_bsde_regression_diagnostics(self, tmp_path):
        # every backward sweep of the potential minimization is folded
        # into the report, as potential reports its own
        path, _ = write_config(tmp_path, steps=4, paths=200, quad_order=1)
        rep = run(ExperimentConfig.from_file(str(path)), "nash-gap")
        fits = rep["results"]["bsde_regression"]
        assert np.isfinite(fits["condition_max"])
        assert fits["condition_max"] >= 1.0
        assert fits["ridge_escalated"] is False

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

    def test_reports_bsde_regression_diagnostics(self, tmp_path):
        # the backward sweeps' worst fits reach the report, finite; the
        # matrix fit's residual exists only where matrix layers are solved
        base = {"preset": "tanh-coupled", "players": 2, "steps": 6,
                "paths": 400, "anchors": ["constant:0.5"],
                "directions": ["const", "ramp"], "quad_order": 2,
                "method": "BSDE"}
        for sub, matrices in (("deriv", False), ("cross-check", True),
                              ("potential", False), ("alpha", True)):
            cfg = ExperimentConfig.from_dict(dict(base,
                                                  out=str(tmp_path / sub)))
            fits = run(cfg, sub)["results"]["bsde_regression"]
            assert fits["ridge_escalated"] is False
            assert fits["ridge_max"] == RegressionBasis().ridge
            assert 1.0 <= fits["condition_max"] < RegressionBasis().cond_limit
            residuals = ["residual_max", "martingale_residual_max"]
            if matrices:
                residuals.append("matrix_residual_max")
            else:
                assert fits["matrix_residual_max"] is None
            for key in residuals:
                assert np.isfinite(fits[key]) and fits[key] > 0, key

    def test_deriv_fails_on_a_disagreeing_route(self, tmp_path,
                                                monkeypatch):
        # deriv checks cross-check's first-order agreement rule, so a
        # route that drifts off the others fails the run and exits 1
        path, _ = write_config(tmp_path, directions=["const", "ramp"])
        cfg = ExperimentConfig.from_file(str(path))
        rep = run(cfg, "deriv")
        assert rep["passed"] and rep["results"]["all_agree"]
        sens = derivatives.sens_derivatives

        def shifted(*args, **kwargs):
            (first, second), pathwise = sens(*args, **kwargs)
            return ({key: dataclasses.replace(est, value=est.value + 1.0)
                     for key, est in first.items()}, second), pathwise

        monkeypatch.setattr(derivatives, "sens_derivatives", shifted)
        rep = run(cfg, "deriv")
        assert not rep["passed"] and not rep["results"]["all_agree"]
        assert main(["deriv", "--config", str(path)]) == 1

    def test_cross_check_fails_on_a_disagreeing_route(self, tmp_path,
                                                      monkeypatch):
        # a second-order route that drifts off the other two fails the
        # run and exits 1
        path, _ = write_config(tmp_path, directions=["const", "ramp"])
        cfg = ExperimentConfig.from_file(str(path))
        rep = run(cfg, "cross-check")
        assert rep["passed"] and rep["results"]["all_agree"]
        sens = derivatives.sens_derivatives

        def shifted(*args, **kwargs):
            (first, second), pathwise = sens(*args, **kwargs)
            return (first, {
                key: dataclasses.replace(est, value=est.value + 1.0)
                for key, est in second.items()}), pathwise

        monkeypatch.setattr(derivatives, "sens_derivatives", shifted)
        rep = run(cfg, "cross-check")
        assert not rep["passed"] and not rep["results"]["all_agree"]
        assert main(["cross-check", "--config", str(path)]) == 1

    def test_scaling_fails_without_decay(self, tmp_path, monkeypatch):
        # an asymmetry that does not decay in N leaves the slope band,
        # which fails the run and exits 1
        path, _ = write_config(tmp_path, steps=6, paths=200,
                               scaling_players=[4, 8, 16],
                               directions=["const"])
        cfg = ExperimentConfig.from_file(str(path))
        rep = run(cfg, "scaling")
        assert rep["passed"] and rep["results"]["decay_ok"]

        def flat(spec, *args):
            n = spec.n_players
            return (np.ones((n, n)) - np.eye(n)) / (n - 1), np.zeros((n, n))

        monkeypatch.setattr(alpha, "pairwise_quadratic_asymmetry", flat)
        rep = run(cfg, "scaling")
        assert rep["results"]["alpha_empirical"] == [2.0, 2.0, 2.0]
        assert not rep["passed"] and not rep["results"]["decay_ok"]
        assert main(["scaling", "--config", str(path)]) == 1

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
        ("alpha", {"anchors": ["constant:nan"]}),
        ("alpha", {"anchors": ["constant:inf"]}),
        ("scaling", {"spread": 5.0, "scaling_players": [2, 4]}),
    ])
    def test_invalid_config_exits_two(self, tmp_path, capsys, subcommand,
                                      bad):
        path, _ = write_config(tmp_path, paths=200, **bad)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(path))
        assert main([subcommand, "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand,bad", [
        ("simulate", {"paths": 1000.5}),
        ("simulate", {"steps": 4.5}),
        ("simulate", {"seed": True}),
        ("simulate", {"seed": "x"}),
        ("simulate", {"horizon": "1"}),
        ("potential", {"quad_order": 2.5}),
        ("alpha", {"anchors": []}),
        ("scaling", {"scaling_players": [2, 4.0]}),
        ("scaling", {"spread": "wide"}),
    ])
    def test_ill_typed_config_exits_two(self, tmp_path, capsys, subcommand,
                                        bad):
        # each of these crashed with a traceback (exit 1, which is
        # reserved for a failed check) or ran with a bool for an integer
        path, _ = write_config(tmp_path, **bad)
        assert main([subcommand, "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand,bad", [
        ("simulate", {"eps_schedule": 0.01}),
        ("cross-check", {"directions": 7}),
        ("alpha", {"anchors": "zero"}),
        ("alpha", {"anchors": [0.5]}),
        ("scaling", {"scaling_players": 4}),
        ("scaling", {"allow_long": "no"}),
        ("simulate", {"export_paths": 1}),
        ("simulate", {"preset": ["lq"]}),
        ("alpha", {"method": None}),
        ("simulate", {"out": 5}),
        ("simulate", {"preset_params": [["R", 2.0]]}),
    ])
    def test_wrongly_typed_config_exits_two(self, tmp_path, capsys,
                                            subcommand, bad):
        # a bare number where a list belongs crashed with a traceback
        # (exit 1); a string for a flag was read by its truth value, so
        # "allow_long": "no" skipped the long-run guard
        path, _ = write_config(tmp_path, **bad)
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

    @pytest.mark.parametrize("A,passed", [(10.0, True), (15.0, False)])
    def test_bound_exits_one_on_overflow(self, tmp_path, capsys, A, passed):
        # at A = 15 the energy constant's chain overflows: the report is
        # still written, as strict JSON with null for each non-finite
        # number (the bound was a bare NaN token), and the vacuous bound
        # fails the run
        path, _ = write_config(tmp_path, preset_params={"A": A})
        assert main(["bound", "--config", str(path)]) == (0 if passed else 1)
        rep = read_strict(tmp_path / "out" / "report.json")
        assert rep["passed"] is passed
        assert (rep["results"]["alpha_bound"] is not None) is passed

    def test_every_subcommand_runs_and_writes_strict_json(self, tmp_path):
        for sub in SUBCOMMANDS:
            path, _ = write_config(tmp_path, paths=100, steps=3,
                                   quad_order=1, scaling_players=[2, 4],
                                   directions=["const", "ramp"],
                                   out=str(tmp_path / sub))
            code = main([sub, "--config", str(path)])
            rep = read_strict(tmp_path / sub / "report.json")
            assert rep["subcommand"] == sub
            assert code == (0 if rep["passed"] else 1), sub

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
