"""Experiment orchestration and the ``alpha-games`` command line.

One documented JSON config file per run; CLI flags override config
keys.  Every subcommand writes ``report.json`` plus CSV tables under
``tables/`` in the output directory.  Exit codes: 0 all enabled checks
pass, 1 a check failed, 2 config error.

Reports are bit-exactly reproducible for a fixed config and seed: all
randomness is counter-based, reductions avoid threaded BLAS, and JSON
emission uses canonical key order.  Wall-clock timings live in their
own section and are excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import alpha as alpha_mod
from . import derivatives as deriv_mod
from .bsde import RegressionBasis
from .model import (Control, ControlProfile, NoiseBundle, SampleBox,
                    TimeGrid, direction_dictionary, validate_game)
from .presets import PRESET_IDS, build_preset, lq_scaling_params
from .sim import (empirical_moment, propagate_second_sensitivities,
                  propagate_sensitivities, simulate_paths)

SUBCOMMANDS = ("simulate", "deriv", "cross-check", "alpha", "bound",
               "scaling", "potential", "nash-gap")

_DIRECTION_NAMES = ("const", "ramp", "sine", "half")

# rough per-subcommand path*step*player work multipliers for the
# long-run guard (about ten minutes of desk-scale work)
_WORK_MULT = {"simulate": 2, "deriv": 60, "cross-check": 200, "alpha": 80,
              "bound": 0, "scaling": 400, "potential": 60, "nash-gap": 120}
_WORK_LIMIT = 2.5e10


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    preset: str = "lq"
    players: int = 2
    horizon: float = 1.0
    steps: int = 40
    paths: int = 10_000
    seed: int = 7
    out: str = "runs/latest"
    preset_params: dict = field(default_factory=dict)
    directions: tuple = _DIRECTION_NAMES
    eps_schedule: tuple = deriv_mod.EPS_SCHEDULE
    method: str = "FD"
    quad_order: int = 8
    anchors: tuple = ("zero", "constant:0.5")
    scaling_players: tuple = (2, 4, 8, 16)
    spread: float = 1.5
    export_paths: bool = False
    allow_long: bool = False

    def __post_init__(self):
        if self.preset not in PRESET_IDS:
            raise ConfigError(f"preset: unknown id {self.preset!r}")
        if self.players < 1:
            raise ConfigError("players: must be >= 1")
        if self.paths < 100:
            raise ConfigError("paths: must be >= 100")
        if self.steps < 2:
            raise ConfigError("steps: must be >= 2")
        if self.horizon <= 0:
            raise ConfigError("horizon: must be positive")
        if self.method not in ("FD", "BSDE", "SENS"):
            raise ConfigError("method: must be FD, BSDE or SENS")
        try:
            deriv_mod._check_schedule(self.eps_schedule)
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"eps_schedule: {e}")
        if not self.directions:
            raise ConfigError("directions: must name at least one direction")
        for name in self.directions:
            if name not in _DIRECTION_NAMES:
                raise ConfigError(f"directions: unknown name {name!r}")
        if self.quad_order < 1:
            raise ConfigError("quad_order: must be >= 1")
        if not self.scaling_players or min(self.scaling_players) < 1:
            raise ConfigError("scaling_players: must be nonempty, each >= 1")
        try:
            self.build_game()
        except (TypeError, ValueError) as e:
            raise ConfigError(f"preset_params: {e}")
        self.anchor_profiles(1)  # parses every anchor

    @classmethod
    def from_file(cls, path: str, overrides: dict = None):
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config parse error at line {e.lineno}, "
                              f"column {e.colno}: {e.msg}")
        return cls.from_dict(raw, overrides)

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict = None):
        known = set(cls.__dataclass_fields__)
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        merged = dict(raw)
        for k, v in (overrides or {}).items():
            if v is not None:
                merged[k] = v
        for tup_key in ("directions", "eps_schedule", "anchors",
                        "scaling_players"):
            if tup_key in merged:
                merged[tup_key] = tuple(merged[tup_key])
        return cls(**merged)

    def canonical(self) -> dict:
        out = {}
        for name in sorted(self.__dataclass_fields__):
            v = getattr(self, name)
            if isinstance(v, tuple):
                v = list(v)
            out[name] = v
        return out

    def grid(self) -> TimeGrid:
        return TimeGrid(n_steps=self.steps, horizon=self.horizon)

    def build_game(self, n_players: int = None):
        n = n_players if n_players is not None else self.players
        return build_preset(self.preset, n, **self.preset_params)

    def direction_controls(self) -> list:
        full = direction_dictionary(self.horizon)
        by_name = dict(zip(_DIRECTION_NAMES, full))
        return [by_name[n] for n in self.directions]

    def anchor_profiles(self, n_players: int) -> list:
        profs = []
        for spec_str in self.anchors:
            kind, _, arg = spec_str.partition(":")
            if kind == "zero":
                profs.append(ControlProfile.zeros(n_players))
            elif kind == "constant":
                try:
                    c = float(arg or 0.5)
                except ValueError:
                    raise ConfigError(f"anchors: bad constant {arg!r}")
                profs.append(ControlProfile.constants([c] * n_players))
            elif kind == "ramp":
                T = self.horizon
                profs.append(ControlProfile(
                    [Control.from_time_function(lambda t: t / T, label="ramp")
                     for _ in range(n_players)]))
            else:
                raise ConfigError(f"anchors: unknown kind {kind!r}")
        return profs


def _build_id() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return "unknown"


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _estimate_work(cfg: ExperimentConfig, subcommand: str) -> float:
    mult = _WORK_MULT.get(subcommand, 10)
    players = (max(cfg.scaling_players) if subcommand == "scaling"
               else cfg.players)
    return float(cfg.paths) * cfg.steps * players * mult


def _noise(cfg: ExperimentConfig, spec) -> NoiseBundle:
    return NoiseBundle.generate(cfg.seed, cfg.grid(), cfg.paths,
                                spec.n_drivers)


def run(cfg: ExperimentConfig, subcommand: str) -> dict:
    """Execute one subcommand; returns the report dictionary (also
    written to disk together with the CSV tables)."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    work = _estimate_work(cfg, subcommand)
    if work > _WORK_LIMIT and not cfg.allow_long:
        raise ConfigError(
            f"estimated work {work:.2e} units exceeds the ten-minute desk "
            f"budget; rerun with --allow-long to proceed")

    out_dir = Path(cfg.out)
    tables = out_dir / "tables"
    t0 = time.monotonic()
    results, ok = _DISPATCH[subcommand](cfg, tables)
    elapsed = time.monotonic() - t0

    report = {
        "config": cfg.canonical(),
        "subcommand": subcommand,
        "build_id": _build_id(),
        "seeds": {"master": cfg.seed},
        "results": results,
        "passed": bool(ok),
        "timing": {"seconds": elapsed},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=1))
    return report


def _cmd_simulate(cfg: ExperimentConfig, tables: Path):
    spec, ledger = cfg.build_game()
    noise = _noise(cfg, spec)
    ens = simulate_paths(spec, cfg.anchor_profiles(spec.n_players)[0],
                         cfg.grid(), noise)
    validation = validate_game(spec, ledger, SampleBox(), 256)
    moments = {}
    rows = []
    for i in range(spec.n_players):
        for p in (2, 4):
            v, se = empirical_moment(ens, i, p)
            moments[f"player{i}_p{p}"] = {"value": v, "se": se}
            rows.append([i, p, v, se])
    _write_csv(tables / "moments.csv", ["player", "order", "value", "se"],
               rows)
    if cfg.export_paths:
        rows = []
        for k, t in enumerate(cfg.grid().nodes):
            for p in range(min(cfg.paths, 200)):
                rows.append([p, t] + [float(x) for x in ens.states[p, k]])
        _write_csv(tables / "paths.csv",
                   ["path", "t"] + [f"X_{i}" for i in range(spec.n_players)],
                   rows)
    results = {"moments": moments,
               "validation_passed": validation.passed,
               "validation_worst_ratio": validation.worst().ratio}
    return results, validation.passed


def _first_order(cfg: ExperimentConfig, spec, controls, dirs,
                 pair_targets=()):
    """Every first-order route on shared work: one ensemble, one
    sensitivity sweep over all (player, direction) targets, one FD sweep
    per target, one SENS contraction, and one backward sweep for every
    BSDE job, which include every cost player's mixed derivative in the
    responses to each ``(a, b)`` pair of target indices in
    ``pair_targets``.  Returns the ensemble, noise, sensitivities, one
    (i, h, direction name, FD, SENS, BSDE) row per cost player and
    target, target-major, and the mixed BSDE estimates by (i, pair)."""
    grid = cfg.grid()
    noise = _noise(cfg, spec)
    N = spec.n_players
    targets = [(h, d) for h in range(N) for d in dirs]
    names = [name for _ in range(N) for name in cfg.directions[:len(dirs)]]
    ens = simulate_paths(spec, controls, grid, noise)
    sens = propagate_sensitivities(spec, ens, targets, noise)
    sv = deriv_mod.first_derivative_sens(spec, ens, noise, sens)
    bs, bs2 = deriv_mod.bsde_derivatives(
        spec, ens, noise, RegressionBasis(),
        first_jobs=[(i, h, d) for h, d in targets for i in range(N)],
        second_jobs=[(i, sens[a], sens[b]) for a, b in pair_targets
                     for i in range(N)])
    rows = []
    for s, ((h, direction), name) in enumerate(zip(targets, names)):
        fd = deriv_mod.first_derivative_fd_sweep(
            spec, controls, h, direction, grid, noise, cfg.eps_schedule)
        rows += [(i, h, name, fd[i], sv[(i, s)], bs[s * N + i])
                 for i in range(N)]
    second = {(i, q): bs2[q * N + i] for q in range(len(pair_targets))
              for i in range(N)}
    return ens, noise, sens, rows, second


def _agree(a, b, tol):
    return abs(a.value - b.value) <= tol


def _first_order_agree(fd, sv, bs, eps_min) -> bool:
    """First-order agreement: FD against SENS and against BSDE, each
    within three combined standard errors plus ten smallest FD steps."""
    tol_s = 3.0 * (fd.std_error + sv.std_error) + 10.0 * eps_min
    tol_b = 3.0 * (fd.std_error + bs.std_error) + 10.0 * eps_min
    return _agree(fd, sv, tol_s) and _agree(fd, bs, tol_b)


def _cmd_deriv(cfg: ExperimentConfig, tables: Path):
    """Every first-order route, checked by cross-check's rule."""
    spec, _ = cfg.build_game()
    controls = cfg.anchor_profiles(spec.n_players)[0]
    _, _, _, first, _ = _first_order(cfg, spec, controls,
                                     cfg.direction_controls())
    rows = [[i, h, -1, name, "", est.method, est.value, est.std_error]
            for i, h, name, *ests in first for est in ests]
    _write_csv(tables / "derivatives.csv",
               ["i", "h", "l", "dir_h", "dir_l", "method", "value", "se"],
               rows)
    eps_min = min(cfg.eps_schedule)
    ok = all(_first_order_agree(fd, sv, bs, eps_min)
             for *_, fd, sv, bs in first)
    return {"n_rows": len(rows), "all_agree": ok}, ok


def _cmd_cross_check(cfg: ExperimentConfig, tables: Path):
    """Three-route agreement for first and second derivatives."""
    spec, _ = cfg.build_game()
    grid = cfg.grid()
    N = spec.n_players
    controls = cfg.anchor_profiles(N)[0]
    dirs = cfg.direction_controls()[:2]
    dir_names = list(cfg.directions)[:2]
    eps_min = min(cfg.eps_schedule)
    # pair q pairs target (h, first direction) with (l, second direction)
    d1 = 1 % len(dirs)
    pair_targets = [(h * len(dirs), l * len(dirs) + d1)
                    for h in range(N) for l in range(h + 1, N)]
    ens, noise, sens, first, bsdes = _first_order(cfg, spec, controls, dirs,
                                                  pair_targets)
    rows, ok = [], True
    for i, h, name, fd, sv, bs in first:
        good = _first_order_agree(fd, sv, bs, eps_min)
        ok = ok and good
        rows.append(["first", i, h, -1, name, "", fd.value, sv.value,
                     bs.value, float("nan"), int(good)])

    pairs = [(sens[a], sens[b]) for a, b in pair_targets]
    fds = [deriv_mod.second_derivative_fd_sweep(
               spec, controls, sh.perturbed_player, sl.perturbed_player,
               sh.direction, sl.direction, grid, noise, cfg.eps_schedule)
           for sh, sl in pairs]
    mixed = propagate_second_sensitivities(spec, ens, pairs, noise)
    zos = deriv_mod.second_derivative_z_oracle(spec, ens, noise, pairs,
                                               mixed, range(N))
    del mixed
    for q, ((sh, sl), fd_q) in enumerate(zip(pairs, fds)):
        for i, fd in enumerate(fd_q):
            zo, bs = zos[(i, q)], bsdes[(i, q)]
            tol_fz = 5.0 * (fd.std_error + zo.std_error) + 20.0 * eps_min
            tol_fb = 5.0 * (fd.std_error + bs.std_error) + 20.0 * eps_min
            tol_bz = 5.0 * (bs.std_error + zo.std_error) + 20.0 * eps_min
            good = (_agree(fd, zo, tol_fz) and _agree(fd, bs, tol_fb)
                    and _agree(bs, zo, tol_bz))
            ok = ok and good
            rows.append(["second", i, sh.perturbed_player,
                         sl.perturbed_player, dir_names[0],
                         dir_names[d1], fd.value, float("nan"), bs.value,
                         zo.value, int(good)])
    _write_csv(tables / "cross_check.csv",
               ["order", "i", "h", "l", "dir_h", "dir_l", "fd", "sens",
                "bsde", "z_oracle", "agree"], rows)
    return {"n_rows": len(rows), "all_agree": ok}, ok


def _cmd_alpha(cfg: ExperimentConfig, tables: Path):
    spec, _ = cfg.build_game()
    noise = _noise(cfg, spec)
    report = alpha_mod.empirical_alpha(
        spec, cfg.anchor_profiles(spec.n_players), cfg.direction_controls(),
        cfg.grid(), noise, method=cfg.method, eps_schedule=cfg.eps_schedule)
    rows = []
    for i in range(spec.n_players):
        for j in range(spec.n_players):
            rows.append([i, j, float(report.asymmetry[i, j]),
                         float(report.asymmetry_se[i, j])])
    _write_csv(tables / "asymmetry.csv", ["i", "j", "value", "se"], rows)
    return report.to_jsonable(), True


def _cmd_bound(cfg: ExperimentConfig, tables: Path):
    spec, ledger = cfg.build_game()
    report = alpha_mod.theoretical_alpha_bound(
        ledger, spec.n_players, cfg.horizon, spec.n_drivers)
    rows = [[f"{i},{j}", v["C0"], v["C1_over_N"], v["C2_over_N2"],
             v["Ctilde"]] for (i, j), v in
            sorted(report.bound_breakdown.items())]
    _write_csv(tables / "bound_breakdown.csv",
               ["pair", "C0", "C1_over_N", "C2_over_N2", "Ctilde"], rows)
    out = report.to_jsonable()
    out["ledger"] = ledger.to_jsonable()
    return out, True


def _cmd_scaling(cfg: ExperimentConfig, tables: Path):
    """Empirical alpha and the closed-form bound along a player sweep of
    the heterogeneous weakly coupled family."""
    if cfg.preset != "lq":
        raise ConfigError("scaling runs use the lq preset")
    if cfg.preset_params:
        raise ConfigError("scaling runs take no preset_params")
    rows = []
    alphas, bounds_v = [], []
    for n in cfg.scaling_players:
        params = lq_scaling_params(n, spread=cfg.spread)
        spec, ledger = build_preset("lq", n, **params)
        grid = cfg.grid()
        noise = NoiseBundle.generate(cfg.seed, grid, cfg.paths,
                                     spec.n_drivers)
        direction = cfg.direction_controls()[0]
        asym, se = alpha_mod.pairwise_quadratic_asymmetry(
            spec, params["Qhat"], params["G"], ControlProfile.zeros(n),
            direction, grid, noise)
        row = asym.sum(axis=1)
        ib = int(np.argmax(row))
        a_emp = float(2.0 * row[ib])
        a_se = float(2.0 * np.sqrt(np.sum(se[ib] ** 2)))
        bound = alpha_mod.theoretical_alpha_bound(ledger, n, cfg.horizon)
        rows.append([n, a_emp, a_se, bound.alpha_bound])
        alphas.append(a_emp)
        bounds_v.append(bound.alpha_bound)
    _write_csv(tables / "scaling.csv",
               ["players", "alpha_empirical", "alpha_se", "alpha_bound"],
               rows)
    ns = np.asarray(cfg.scaling_players, dtype=float)
    slope_emp = float(np.polyfit(np.log(ns), np.log(np.maximum(alphas,
                                                               1e-300)), 1)[0])
    slope_bound = float(np.polyfit(np.log(ns),
                                   np.log(np.maximum(bounds_v, 1e-300)),
                                   1)[0])
    ok = -1.4 <= slope_emp <= -0.6 and slope_bound <= slope_emp + 0.25
    return {"players": list(cfg.scaling_players),
            "alpha_empirical": alphas, "alpha_bound": bounds_v,
            "slope_empirical": slope_emp, "slope_bound": slope_bound,
            "decay_ok": ok}, ok


def _cmd_potential(cfg: ExperimentConfig, tables: Path):
    spec, _ = cfg.build_game()
    grid = cfg.grid()
    noise = _noise(cfg, spec)
    profile = cfg.anchor_profiles(spec.n_players)[-1]
    dirs = cfg.direction_controls()
    moves = [(i, scale, d) for i in range(spec.n_players)
             for scale, d in zip((0.5, -0.5), dirs[:2])]
    gaps, (value, se) = alpha_mod.potential_deviation_gaps(
        spec, profile, [(i, profile[i] + scale * d) for i, scale, d in moves],
        grid, noise, order=cfg.quad_order)
    rows, ok = [], True
    for (i, scale, d), gap in zip(moves, gaps):
        good = gap["gap"] <= 3.0 * gap["se"] + 1e-3
        ok = ok and good
        rows.append([i, d.label, scale, gap["cost_change"],
                     gap["potential_change"], gap["gap"], gap["se"],
                     int(good)])
    _write_csv(tables / "potential_gaps.csv",
               ["player", "direction", "scale", "cost_change",
                "potential_change", "gap", "se", "ok"], rows)
    return {"potential_value": value, "potential_se": se,
            "max_gap": max(g["gap"] for g in gaps)}, ok


def _cmd_nash_gap(cfg: ExperimentConfig, tables: Path):
    """Minimize the candidate potential over a three-parameter control
    family, then measure exploitability of the minimizer."""
    from scipy.optimize import minimize

    spec, _ = cfg.build_game()
    grid = cfg.grid()
    noise = _noise(cfg, spec)
    T = cfg.horizon

    def family(theta):
        t0, t1, t2 = (float(v) for v in theta)
        return Control.from_time_function(
            lambda t: t0 + t1 * t / T + t2 * np.sin(2 * np.pi * t / T),
            label=f"family({t0:.3f},{t1:.3f},{t2:.3f})")

    def profile_of(theta):
        return ControlProfile([family(theta)] * spec.n_players)

    cache = {}

    def phi(theta):
        key = tuple(np.round(theta, 10))
        if key not in cache:
            v, _ = alpha_mod.potential_value(spec, profile_of(theta), grid,
                                             noise, order=cfg.quad_order)
            cache[key] = v
        return cache[key]

    res = minimize(phi, x0=np.zeros(3), method="Nelder-Mead",
                   options={"maxfev": 60, "xatol": 1e-3, "fatol": 1e-5})
    theta_star = res.x
    prof_star = profile_of(theta_star)
    phi_star = phi(theta_star)

    # candidate unilateral deviations from the same family
    offsets = [np.array(v) for v in
               ([0.2, 0, 0], [-0.2, 0, 0], [0, 0.3, 0], [0, 0, 0.3])]
    deviations = [[family(theta_star + off) for off in offsets]
                  for _ in range(spec.n_players)]
    per_player, overall = alpha_mod.exploitability(spec, prof_star,
                                                   deviations, grid, noise)
    # suboptimality of the minimizer within the tested family
    phi_devs = []
    for i in range(spec.n_players):
        for off in offsets:
            v, _ = alpha_mod.potential_value(
                spec, prof_star.with_player(i, family(theta_star + off)),
                grid, noise, order=cfg.quad_order)
            phi_devs.append(v)
    eps_opt = max(0.0, phi_star - min(phi_devs))
    # standard error of the player attaining the maximum gain
    se_cap = max(per_player)[1]
    ok = overall <= eps_opt + 3.0 * se_cap + 1e-3
    rows = [[i, v, se] for i, (v, se) in enumerate(per_player)]
    _write_csv(tables / "exploitability.csv", ["player", "gain", "se"], rows)
    return {"theta_star": [float(v) for v in theta_star],
            "phi_star": phi_star, "eps_opt": eps_opt,
            "exploitability": overall,
            "per_player": [[v, se] for v, se in per_player],
            "nash_gap_ok": ok}, ok


_DISPATCH = {
    "simulate": _cmd_simulate,
    "deriv": _cmd_deriv,
    "cross-check": _cmd_cross_check,
    "alpha": _cmd_alpha,
    "bound": _cmd_bound,
    "scaling": _cmd_scaling,
    "potential": _cmd_potential,
    "nash-gap": _cmd_nash_gap,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alpha-games",
        description="Monte Carlo sensitivity analysis and near-potential "
                    "certification for N-player stochastic differential "
                    "games")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=False,
                        help="JSON config file (defaults applied if omitted)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--paths", type=int)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--players", type=int)
    parser.add_argument("--out")
    parser.add_argument("--allow-long", action="store_true", default=None,
                        dest="allow_long")
    parser.add_argument("--export-paths", action="store_true", default=None,
                        dest="export_paths")
    args = parser.parse_args(argv)

    overrides = {"seed": args.seed, "paths": args.paths, "steps": args.steps,
                 "players": args.players, "out": args.out,
                 "allow_long": args.allow_long,
                 "export_paths": args.export_paths}
    try:
        if args.config:
            cfg = ExperimentConfig.from_file(args.config, overrides)
        else:
            cfg = ExperimentConfig.from_dict({}, overrides)
        report = run(cfg, args.subcommand)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"subcommand": args.subcommand,
                      "passed": report["passed"],
                      "out": cfg.out}, sort_keys=True))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
