"""Directional derivatives of player costs by three independent routes.

* FD: common-random-number resimulation differences with a geometric
  epsilon schedule and Richardson extrapolation;
* SENS: forward sensitivity processes contracted against cost
  gradients;
* BSDE: adjoint pairs contracted against the control loadings, which
  needs no forward sensitivity at all for first derivatives and no
  mixed second-order sensitivity for second derivatives.

Each route has one implementation.  The FD sweeps yield every cost
player's estimate at once; the SENS, BSDE and Z-oracle contractions run
over a whole list of perturbation targets (first order) or response
pairs (second order) in one time sweep that evaluates each step's
partials once, and return ``{(cost player, target or pair index):
estimate}``.

All dt-integrals use the left endpoint, matching the Euler filtration.
Standard errors always come from pathwise differences, never from
differencing two independent estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import AdjointSolution, SecondAdjointSolution, _first_adjoint_sweep
from .model import Control, ControlProfile, GameSpec, NoiseBundle, TimeGrid
from .sim import (PathEnsemble, _bilinear_sources, _dot, _second_order_slices,
                  assemble_variational, simulate_cost_batch)

__all__ = [
    "DerivativeEstimate",
    "cost_pathwise",
    "cost_value",
    "first_derivative_fd_sweep",
    "first_derivative_sens",
    "first_derivative_bsde",
    "second_derivative_fd_sweep",
    "second_derivative_z_oracle",
    "second_derivative_bsde",
]

EPS_SCHEDULE = (1e-2, 5e-3, 2.5e-3)


@dataclass
class DerivativeEstimate:
    value: float
    std_error: float
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise FloatingPointError("derivative estimate is not finite")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")

    @classmethod
    def from_pathwise(cls, acc: np.ndarray, method: str, metadata: dict):
        """Sample mean of a pathwise estimator with its standard error."""
        return cls(value=float(acc.mean()),
                   std_error=float(acc.std(ddof=1) / np.sqrt(acc.shape[0])),
                   method=method, metadata=metadata)


def _keyed_estimates(acc: np.ndarray, keys: list, method: str, metadata,
                     return_pathwise: bool = False):
    """One estimate per row of ``acc`` (rows in ``keys`` order, paths
    last), labelled by ``metadata(key)``; with ``return_pathwise`` also
    the pathwise rows under the same keys."""
    pathwise = dict(zip(keys, acc.reshape(len(keys), -1)))
    est = {key: DerivativeEstimate.from_pathwise(pw, method, metadata(key))
           for key, pw in pathwise.items()}
    if return_pathwise:
        return est, pathwise
    return est


def cost_pathwise(spec: GameSpec, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path realized cost of every player, shape (P, N)."""
    grid = ensemble.grid
    P = ensemble.n_paths
    N = spec.n_players
    out = np.zeros((P, N))
    for k, t in enumerate(grid.nodes[:-1]):
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        for i in range(N):
            out[:, i] += spec.running_cost[i].value(t, x, u) * grid.dt
    xT = ensemble.states[:, -1, :]
    for i in range(N):
        out[:, i] += spec.terminal_cost[i].value(xT)
    return out


def cost_value(spec: GameSpec, ensemble: PathEnsemble):
    """Sample mean and standard error of each player's cost."""
    pc = cost_pathwise(spec, ensemble)
    P = pc.shape[0]
    return pc.mean(axis=0), pc.std(axis=0, ddof=1) / np.sqrt(P)


def _richardson(columns: list, order: int = 2) -> np.ndarray:
    """Richardson table for a halving step schedule; ``columns`` holds
    pathwise estimates at eps, eps/2, eps/4, ...; leading error term
    eps^order, subsequent terms two orders apart."""
    table = [np.asarray(c, dtype=float) for c in columns]
    level = 0
    while len(table) > 1:
        level += 1
        factor = 2.0 ** (order + 2 * (level - 1))
        table = [(factor * table[j + 1] - table[j]) / (factor - 1.0)
                 for j in range(len(table) - 1)]
    return table[0]


def _check_schedule(eps_schedule):
    eps = list(eps_schedule)
    if not eps:
        raise ValueError("epsilon schedule must be nonempty")
    for a, b in zip(eps, eps[1:]):
        if not np.isclose(a / b, 2.0):
            raise ValueError("epsilon schedule must halve at each level")
    return eps


def _fd_estimate(columns: list, eps: list, metadata: dict):
    """Richardson-extrapolated FD estimate from one pathwise column per
    epsilon level; returns the estimate and its pathwise array."""
    est = _richardson(columns, order=2)
    metadata.update(eps_schedule=list(eps),
                    levels=[float(np.mean(c)) for c in columns])
    return DerivativeEstimate.from_pathwise(est, "FD", metadata), est


def first_derivative_fd_sweep(spec: GameSpec, controls: ControlProfile,
                              h: int, direction: Control, grid: TimeGrid,
                              noise: NoiseBundle,
                              eps_schedule=EPS_SCHEDULE) -> list:
    """Central difference in player h's direction for every cost
    functional at once; all resimulation legs run in one batched sweep
    under common random numbers.  Returns one estimate per player."""
    eps = _check_schedule(eps_schedule)
    profiles = []
    for e in eps:
        profiles.append(controls.perturbed(h, direction, e))
        profiles.append(controls.perturbed(h, direction, -e))
    costs = simulate_cost_batch(spec, profiles, grid, noise)
    return [_fd_estimate([(costs[2 * m, :, i] - costs[2 * m + 1, :, i])
                          / (2 * e) for m, e in enumerate(eps)], eps,
                         {"player": i, "perturbed": h,
                          "direction": direction.label})[0]
            for i in range(spec.n_players)]


def first_derivative_sens(spec: GameSpec, ensemble: PathEnsemble,
                          noise: NoiseBundle, sens_list) -> dict:
    """Sensitivity-process route for every cost player against every
    sensitivity in ``sens_list``: contract the linearized state response
    against the running/terminal cost gradients, plus the direct
    control term.  Cost gradients and direction values are evaluated
    once per step.  Returns {(i, sensitivity index): estimate}."""
    grid = ensemble.grid
    N = spec.n_players
    acc = np.zeros((N, len(sens_list), ensemble.n_paths))
    for k, t in enumerate(grid.nodes[:-1]):
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        dvals = [s.direction(t, k, noise.increments) for s in sens_list]
        for i in range(N):
            fy = spec.running_cost[i].dy(t, x, u)
            fu = spec.running_cost[i].du(t, x, u)
            for s, sens in enumerate(sens_list):
                acc[i, s] += (_dot(fy, sens.values[:, k, :])
                              + fu[:, sens.perturbed_player] * dvals[s]
                              ) * grid.dt
    xT = ensemble.states[:, -1, :]
    for i in range(N):
        gy = spec.terminal_cost[i].dy(xT)
        for s, sens in enumerate(sens_list):
            acc[i, s] += _dot(gy, sens.values[:, -1, :])
    keys = [(i, s) for i in range(N) for s in range(len(sens_list))]
    return _keyed_estimates(
        acc, keys, "SENS",
        lambda key: {"player": key[0],
                     "perturbed": sens_list[key[1]].perturbed_player,
                     "direction": sens_list[key[1]].direction.label})


def _bsde_integrand(costate, loading, h, dub_h, dus_h, fu):
    """Adjoint-route integrand in player h's control per unit direction
    at one step, from a cost player's costate (P, N), martingale loading
    (P, D, N) and running-cost control gradient fu."""
    return costate[:, h] * dub_h + dus_h * loading[:, h, h] + fu[:, h]


def first_derivative_bsde(spec: GameSpec, ensemble: PathEnsemble,
                          noise: NoiseBundle, adjoints, targets,
                          return_pathwise: bool = False):
    """Adjoint route for every costate in ``adjoints`` against every
    (h, direction) target: the derivative is the time integral of the
    direction times (costate against the drift control loading, the
    diffusion control loading against the matching martingale
    component, and the direct cost term).

    Returns {(adjoint player, target index): estimate}; with
    ``return_pathwise`` also the pathwise integrals under the same keys.
    """
    grid = ensemble.grid
    acc = np.zeros((len(adjoints), len(targets), ensemble.n_paths))
    for k, t in enumerate(grid.nodes[:-1]):
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        loadings = {h: (spec.drift[h].du(t, x[:, h], x, u[:, h]),
                        spec.diffusion[h].du(t, x[:, h], x, u[:, h]))
                    for h in sorted({h for h, _ in targets})}
        dvals = [d(t, k, noise.increments) for _, d in targets]
        for a, adj in enumerate(adjoints):
            fu = spec.running_cost[adj.player].du(t, x, u)
            for s, (h, _) in enumerate(targets):
                acc[a, s] += _bsde_integrand(
                    adj.P_vals[:, k], adj.Q_vals[:, k], h, *loadings[h],
                    fu) * dvals[s] * grid.dt
    keys = [(adj.player, s) for adj in adjoints for s in range(len(targets))]
    return _keyed_estimates(
        acc, keys, "BSDE",
        lambda key: {"player": key[0], "perturbed": targets[key[1]][0],
                     "direction": targets[key[1]][1].label},
        return_pathwise)


def _own_control_integrals(spec, ensemble, noise, basis, directions):
    """Pathwise adjoint-route derivative of each player's cost in its
    own control along ``directions[h]``, shape (N, P), contracted step
    by step from one backward sweep; the terms are summed forward in
    time afterwards, as in ``first_derivative_bsde``, bit for bit."""
    grid = ensemble.grid
    N = spec.n_players
    terms = np.empty((N, grid.n_steps, ensemble.n_paths))
    sweep = _first_adjoint_sweep(spec, ensemble, noise, basis, range(N))
    next(sweep)  # the terminal layer enters no integrand
    for k, costates, martingales, _ in sweep:
        t, x = grid.nodes[k], ensemble.states[:, k]
        u = ensemble.realized_controls[:, k]
        for h in range(N):
            terms[h, k] = _bsde_integrand(
                costates[:, h], martingales[:, :, h], h,
                spec.drift[h].du(t, x[:, h], x, u[:, h]),
                spec.diffusion[h].du(t, x[:, h], x, u[:, h]),
                spec.running_cost[h].du(t, x, u)
            ) * directions[h](t, k, noise.increments) * grid.dt
    integrals = np.zeros((N, ensemble.n_paths))
    for k in range(grid.n_steps):
        integrals += terms[:, k]
    return integrals


def second_derivative_fd_sweep(spec: GameSpec, controls: ControlProfile,
                               h: int, l: int, dir_h: Control, dir_l: Control,
                               grid: TimeGrid, noise: NoiseBundle,
                               eps_schedule=EPS_SCHEDULE,
                               return_pathwise: bool = False):
    """Four-point central mixed difference for every cost functional at
    once, with all legs in one batched common-random-number sweep.
    Returns one estimate per player; with ``return_pathwise`` also the
    per-player pathwise Richardson arrays, which share their legs and
    so difference with a pathwise standard error."""
    if h == l:
        raise ValueError("mixed second derivative requires distinct players")
    eps = _check_schedule(eps_schedule)
    signs = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
    profiles = [controls.perturbed(h, dir_h, sa * e).perturbed(l, dir_l,
                                                               sb * e)
                for e in eps for sa, sb in signs]
    costs = simulate_cost_batch(spec, profiles, grid, noise)
    out, pathwise = [], []
    for i in range(spec.n_players):
        columns = [sum(sa * sb * costs[4 * m + q, :, i]
                       for q, (sa, sb) in enumerate(signs)) / (4.0 * e * e)
                   for m, e in enumerate(eps)]
        est, pw = _fd_estimate(columns, eps,
                               {"player": i, "pair": (h, l),
                                "directions": (dir_h.label, dir_l.label)})
        out.append(est)
        pathwise.append(pw)
    if return_pathwise:
        return out, pathwise
    return out


def _pair_players(pairs) -> list:
    """(h, l) of each (sens_h, sens_l) pair; the players must differ."""
    players = [(sh.perturbed_player, sl.perturbed_player) for sh, sl in pairs]
    if any(h == l for h, l in players):
        raise ValueError("mixed second derivative requires distinct players")
    return players


def second_derivative_z_oracle(spec: GameSpec, ensemble: PathEnsemble,
                               noise: NoiseBundle, pairs, mixed, players,
                               return_pathwise: bool = False):
    """Mixed-sensitivity route for every cost player in ``players``
    against every ``(sens_h, sens_l)`` pair, ``mixed[q]`` being pair q's
    mixed response: the running and terminal cost quadratic forms in
    the two responses and directions plus the cost gradients against
    the mixed response.

    Returns {(i, pair index): estimate}; with ``return_pathwise`` also
    the pathwise integrals under the same keys.
    """
    hl = _pair_players(pairs)
    if any(mx.players != pl for mx, pl in zip(mixed, hl)):
        raise ValueError("mixed sensitivity was built for different players")
    players = list(players)
    grid = ensemble.grid
    acc = np.zeros((len(players), len(pairs), ensemble.n_paths))
    for k, t in enumerate(grid.nodes[:-1]):
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        dvals = [(sh.direction(t, k, noise.increments),
                  sl.direction(t, k, noise.increments)) for sh, sl in pairs]
        for a, i in enumerate(players):
            f = spec.running_cost[i]
            fy, fyy = f.dy(t, x, u), f.dyy(t, x, u)
            fyu, fuu = f.dyu(t, x, u), f.duu(t, x, u)
            for q, ((sh, sl), (h, l)) in enumerate(zip(pairs, hl)):
                yh, yl = sh.values[:, k, :], sl.values[:, k, :]
                du_h, du_l = dvals[q]
                acc[a, q] += (np.einsum("pa,pab,pb->p", yh, fyy, yl,
                                        optimize=False)
                              + du_h * _dot(fyu[:, :, h], yl)
                              + du_l * _dot(yh, fyu[:, :, l])
                              + fuu[:, h, l] * du_h * du_l) * grid.dt
                acc[a, q] += _dot(fy, mixed[q].values[:, k, :]) * grid.dt
    xT = ensemble.states[:, -1, :]
    for a, i in enumerate(players):
        gyy = spec.terminal_cost[i].dyy(xT)
        gy = spec.terminal_cost[i].dy(xT)
        for q, (sh, sl) in enumerate(pairs):
            acc[a, q] += np.einsum("pa,pab,pb->p", sh.values[:, -1, :], gyy,
                                   sl.values[:, -1, :], optimize=False)
            acc[a, q] += _dot(gy, mixed[q].values[:, -1, :])
    return _keyed_estimates(
        acc, [(i, q) for i in players for q in range(len(pairs))],
        "Z-ORACLE", lambda key: {"player": key[0], "pair": hl[key[1]]},
        return_pathwise)


def second_derivative_bsde(spec: GameSpec, ensemble: PathEnsemble,
                           noise: NoiseBundle, first: AdjointSolution,
                           second: SecondAdjointSolution, pairs,
                           return_pathwise: bool = False):
    """Adjoint route for the mixed second derivatives of one cost
    player, whose adjoint pair is (``first``, ``second``), against every
    ``(sens_h, sens_l)`` pair; the mixed sensitivity is eliminated
    entirely.

    The martingale loadings enter with a fixed orientation: the term in
    player h's direction reads row h of driver h's loading, the term in
    player l's direction reads column l of driver l's loading.  That is
    the orientation under which the product-trace bookkeeping closes.

    Returns {(first.player, pair index): estimate}; with
    ``return_pathwise`` also the pathwise integrals under the same keys.
    """
    i = first.player
    if second.player != i:
        raise ValueError("adjoint pairs belong to different players")
    hl = _pair_players(pairs)
    grid = ensemble.grid
    acc = np.zeros((len(pairs), ensemble.n_paths))
    for k, t in enumerate(grid.nodes[:-1]):
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        vc = assemble_variational(spec, t, x, u)
        so = _second_order_slices(spec, t, x, u)
        P2, Q2 = second.P2[:, k], second.Q2[:, k]
        fyu = spec.running_cost[i].dyu(t, x, u)
        fuu = spec.running_cost[i].duu(t, x, u)
        qdiag = np.stack([first.Q_vals[:, k, j, j]
                          for j in range(spec.n_players)], axis=1)
        for q, ((sh, sl), (h, l)) in enumerate(zip(pairs, hl)):
            yh, yl = sh.values[:, k, :], sl.values[:, k, :]
            du_h = sh.direction(t, k, noise.increments)
            du_l = sl.direction(t, k, noise.increments)
            dus_h, dus_l = vc.dus[:, h], vc.dus[:, l]
            term_h = (vc.dub[:, h] * _dot(P2[:, h, :], yl)
                      + dus_h * P2[:, h, h] * _dot(vc.diffusion_row(h), yl)
                      + dus_h * _dot(Q2[:, h, h, :], yl))
            term_h += _dot(fyu[:, :, h], yl)
            term_l = (vc.dub[:, l] * _dot(yh, P2[:, :, l])
                      + dus_l * P2[:, l, l] * _dot(vc.diffusion_row(l), yh)
                      + dus_l * _dot(yh, Q2[:, l, :, l]))
            term_l += _dot(yh, fyu[:, :, l])
            direct = fuu[:, h, l] * du_h * du_l
            drift_src, diff_src = _bilinear_sources(
                so, yh, yl, du_h, du_l, h, l, with_joint_hessian=False)
            coupling = _dot(first.P_vals[:, k, :], drift_src)
            coupling += _dot(qdiag, diff_src)
            acc[q] += (term_h * du_h + term_l * du_l + direct
                       + coupling) * grid.dt
    return _keyed_estimates(
        acc, [(i, q) for q in range(len(pairs))], "BSDE",
        lambda key: {"player": key[0], "pair": hl[key[1]]}, return_pathwise)
