"""The benchmark's workloads: the config each one generates from the
benchmark seed, and the checks its outputs must pass.

Every check compares the program's output against an independent
computation or an exact relation between two of its estimators; none
compares against a stored copy of earlier output.  A check returns a
list of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

import numpy as np


def config_seed(seed: int) -> int:
    """The program's seed for benchmark seed ``seed``."""
    return random.Random(seed).randrange(1, 2**31 - 1)


def _rows(out: Path, table: str) -> list:
    with open(out / "tables" / table, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


# -- cross-check-tanh -------------------------------------------------------

CROSS_CHECK_PLAYERS = 3
# FD and SENS differentiate the same Euler paths, so they differ only by
# FD truncation and float32 rounding of the resimulation legs (measured
# up to 3e-6 first order, 3.4e-4 second order at 2500 paths); the Monte
# Carlo error of the estimates is about 1e-2.
FIRST_ORDER_TOL = 1e-4
SECOND_ORDER_TOL = 2e-3


def cross_check_config(seed: int) -> dict:
    return {"preset": "tanh-coupled", "players": CROSS_CHECK_PLAYERS,
            "paths": 2500, "steps": 40, "seed": config_seed(seed),
            "anchors": ["constant:0.5"], "directions": ["const", "ramp"]}


def check_cross_check(out: Path, exit_code: int) -> list:
    n = CROSS_CHECK_PLAYERS
    rows = _rows(out, "cross_check.csv")
    first = [r for r in rows if r["order"] == "first"]
    second = [r for r in rows if r["order"] == "second"]
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    if len(first) != n * n * 2 or len(second) != n * n * (n - 1) // 2:
        errors.append(f"row counts {len(first)} first, {len(second)} second")
    for r in rows:
        if r["agree"] != "1":
            errors.append(f"agree flag 0 on {r['order']} i={r['i']} "
                          f"h={r['h']} l={r['l']}")
    for r in first:
        d = abs(float(r["fd"]) - float(r["sens"]))
        if not d <= FIRST_ORDER_TOL:
            errors.append(f"|FD - SENS| = {d:.3g} on i={r['i']} h={r['h']}")
    for r in second:
        d = abs(float(r["fd"]) - float(r["z_oracle"]))
        if not d <= SECOND_ORDER_TOL:
            errors.append(f"|mixed FD - Z-oracle| = {d:.3g} on i={r['i']} "
                          f"h={r['h']} l={r['l']}")
    return errors


# -- potential-common-noise -------------------------------------------------

POTENTIAL_PLAYERS = 3
POTENTIAL_CONTROL = 0.5


def potential_config(seed: int) -> dict:
    return {"preset": "common-noise", "players": POTENTIAL_PLAYERS,
            "paths": 1000, "steps": 40, "seed": config_seed(seed),
            "quad_order": 2, "anchors": [f"constant:{POTENTIAL_CONTROL}"],
            "directions": ["const", "ramp"]}


def check_potential(out: Path, exit_code: int) -> list:
    n, c = POTENTIAL_PLAYERS, POTENTIAL_CONTROL
    # symmetric costs with R = 1, T = 1: the state terms of the line
    # integral cancel, leaving N * R * c^2 * T / 2
    exact = n * 1.0 * c * c * 1.0 / 2.0
    results = _report(out)["results"]
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    v, se = results["potential_value"], results["potential_se"]
    if not abs(v - exact) <= 3.0 * se + 1e-6:
        errors.append(f"potential {v!r} +- {se:.3g}, expected {exact}")
    rows = _rows(out, "potential_gaps.csv")
    if len(rows) != 2 * n:
        errors.append(f"{len(rows)} deviation rows, expected {2 * n}")
    for r in rows:
        gap, gse = float(r["gap"]), float(r["se"])
        # the 1e-3 slack covers a time-discretisation offset near 7e-4
        if not gap <= 3.0 * gse + 1e-3:
            errors.append(f"gap {gap:.3g} > 3*{gse:.3g} + 1e-3 for player "
                          f"{r['player']} {r['direction']}")
    return errors


# -- scaling-lq -------------------------------------------------------------

SCALING_PLAYERS = (2, 4, 8, 16)
SCALING_STEPS = 40
SCALING_SPREAD = 1.5


def scaling_config(seed: int) -> dict:
    return {"preset": "lq", "paths": 6000, "steps": SCALING_STEPS,
            "seed": config_seed(seed), "horizon": 1.0,
            "scaling_players": list(SCALING_PLAYERS),
            "spread": SCALING_SPREAD, "directions": ["const"]}


def closed_form_alpha(n: int) -> float:
    """Empirical alpha of the decay family under a unit constant
    direction.  Its dynamics are decoupled with additive noise, so each
    own-control response is deterministic: y_{k+1} = y_k (1 + A dt) + B dt
    with A = -0.3, B = 1 and y_0 = 0."""
    dt = 1.0 / SCALING_STEPS
    z = (2.0 * np.arange(n) - (n - 1)) / max(n - 1, 1)
    qhat = 1.0 + SCALING_SPREAD * z / n
    g = 1.0 + SCALING_SPREAD * z / n
    y, running = 0.0, 0.0
    for _ in range(SCALING_STEPS):
        running += y * y
        y = y * (1.0 - 0.3 * dt) + dt
    asym = ((np.abs(qhat[:, None] - qhat[None, :]) * dt * running
             + np.abs(g[:, None] - g[None, :]) * y * y) * (n - 1) / n**2)
    return float(2.0 * asym.sum(axis=1).max())


def check_scaling(out: Path, exit_code: int) -> list:
    rows = _rows(out, "scaling.csv")
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    players = [int(r["players"]) for r in rows]
    if players != list(SCALING_PLAYERS):
        errors.append(f"player sweep {players}")
        return errors
    alphas = [float(r["alpha_empirical"]) for r in rows]
    for n, a in zip(players, alphas):
        ref = closed_form_alpha(n)
        if not abs(a - ref) <= 1e-9 * ref:
            errors.append(f"alpha {a!r} at N={n}, closed form {ref!r}")
    slope = np.polyfit(np.log(players), np.log(alphas), 1)[0]
    if not -1.4 <= slope <= -0.6:
        errors.append(f"fitted decay slope {slope:.3f} outside [-1.4, -0.6]")
    return errors


# name -> (subcommand, config for a seed, output check)
WORKLOADS = {
    "cross-check-tanh": ("cross-check", cross_check_config,
                         check_cross_check),
    "potential-common-noise": ("potential", potential_config,
                               check_potential),
    "scaling-lq": ("scaling", scaling_config, check_scaling),
}
