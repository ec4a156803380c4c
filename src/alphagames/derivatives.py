"""Directional derivatives of player costs by three independent routes.

* FD: common-random-number resimulation differences with a geometric
  epsilon schedule and Richardson extrapolation;
* SENS: forward sensitivity processes contracted against cost
  gradients;
* BSDE: adjoint pairs contracted against the control loadings, which
  needs no forward sensitivity at all for first derivatives and no
  mixed second-order sensitivity for second derivatives.

Each route has one implementation and yields every cost player's
estimate at once; the first-order SENS and BSDE contractions also run
over a whole list of perturbation targets in one time sweep.

All dt-integrals use the left endpoint, matching the Euler filtration.
Standard errors always come from pathwise differences, never from
differencing two independent estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import AdjointSolution, SecondAdjointSolution, _first_adjoint_sweep
from .model import Control, ControlProfile, GameSpec, NoiseBundle, TimeGrid
from .sim import (PathEnsemble, SecondSensitivityEnsemble,
                  SensitivityEnsemble, assemble_variational,
                  second_order_cross_sources, simulate_cost_batch)

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
                acc[i, s] += (np.einsum("pa,pa->p", fy, sens.values[:, k, :],
                                        optimize=False)
                              + fu[:, sens.perturbed_player] * dvals[s]
                              ) * grid.dt
    xT = ensemble.states[:, -1, :]
    for i in range(N):
        gy = spec.terminal_cost[i].dy(xT)
        for s, sens in enumerate(sens_list):
            acc[i, s] += np.einsum("pa,pa->p", gy, sens.values[:, -1, :],
                                   optimize=False)
    return {(i, s): DerivativeEstimate.from_pathwise(
                acc[i, s], "SENS",
                {"player": i, "perturbed": sens.perturbed_player,
                 "direction": sens.direction.label})
            for i in range(N) for s, sens in enumerate(sens_list)}


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
    pathwise = dict(zip(keys, acc.reshape(-1, ensemble.n_paths)))
    est = {(i, s): DerivativeEstimate.from_pathwise(
               pathwise[(i, s)], "BSDE",
               {"player": i, "perturbed": targets[s][0],
                "direction": targets[s][1].label})
           for i, s in keys}
    if return_pathwise:
        return est, pathwise
    return est


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


def _cost_cross_terms(spec, i, t, x, u, yh, yl, du_h, du_l, h, l):
    """Running-cost quadratic form in the two responses and directions."""
    f = spec.running_cost[i]
    fyy = f.dyy(t, x, u)
    fyu = f.dyu(t, x, u)
    fuu = f.duu(t, x, u)
    return (np.einsum("pa,pab,pb->p", yh, fyy, yl, optimize=False)
            + du_h * np.einsum("pa,pa->p", fyu[:, :, h], yl, optimize=False)
            + du_l * np.einsum("pa,pa->p", yh, fyu[:, :, l], optimize=False)
            + fuu[:, h, l] * du_h * du_l)


def second_derivative_z_oracle(spec: GameSpec, controls: ControlProfile,
                               ensemble: PathEnsemble, noise: NoiseBundle,
                               sens_h: SensitivityEnsemble,
                               sens_l: SensitivityEnsemble,
                               mixed: SecondSensitivityEnsemble,
                               i: int, return_pathwise: bool = False):
    """Mixed-sensitivity route: cost quadratic form in the first-order
    responses plus cost gradients against the mixed response."""
    h, l = sens_h.perturbed_player, sens_l.perturbed_player
    if mixed.players != (h, l):
        raise ValueError("mixed sensitivity was built for different players")
    grid = ensemble.grid
    acc = np.zeros(ensemble.n_paths)
    for k, t in enumerate(grid.nodes[:-1]):
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        du_h = sens_h.direction(t, k, noise.increments)
        du_l = sens_l.direction(t, k, noise.increments)
        acc += _cost_cross_terms(spec, i, t, x, u, sens_h.values[:, k, :],
                                 sens_l.values[:, k, :], du_h, du_l,
                                 h, l) * grid.dt
        fy = spec.running_cost[i].dy(t, x, u)
        acc += np.einsum("pa,pa->p", fy, mixed.values[:, k, :],
                         optimize=False) * grid.dt
    xT = ensemble.states[:, -1, :]
    gyy = spec.terminal_cost[i].dyy(xT)
    gy = spec.terminal_cost[i].dy(xT)
    acc += np.einsum("pa,pab,pb->p", sens_h.values[:, -1, :], gyy,
                     sens_l.values[:, -1, :], optimize=False)
    acc += np.einsum("pa,pa->p", gy, mixed.values[:, -1, :], optimize=False)
    est = DerivativeEstimate.from_pathwise(acc, "Z-ORACLE",
                                           {"player": i, "pair": (h, l)})
    if return_pathwise:
        return est, acc
    return est


def second_derivative_bsde(spec: GameSpec, controls: ControlProfile,
                           ensemble: PathEnsemble, noise: NoiseBundle,
                           first: AdjointSolution,
                           second: SecondAdjointSolution,
                           sens_h: SensitivityEnsemble,
                           sens_l: SensitivityEnsemble,
                           return_pathwise: bool = False):
    """Adjoint route for the mixed second derivative; the mixed
    sensitivity is eliminated entirely.

    The martingale loadings enter with a fixed orientation: the term in
    player h's direction reads row h of driver h's loading, the term in
    player l's direction reads column l of driver l's loading.  That is
    the orientation under which the product-trace bookkeeping closes.
    """
    i = first.player
    if second.player != i:
        raise ValueError("adjoint pairs belong to different players")
    h, l = sens_h.perturbed_player, sens_l.perturbed_player
    if h == l:
        raise ValueError("mixed second derivative requires distinct players")
    grid = ensemble.grid
    acc = np.zeros(ensemble.n_paths)
    for k, t in enumerate(grid.nodes[:-1]):
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        yh = sens_h.values[:, k, :]
        yl = sens_l.values[:, k, :]
        du_h = sens_h.direction(t, k, noise.increments)
        du_l = sens_l.direction(t, k, noise.increments)
        vc = assemble_variational(spec, t, x, u)
        P2 = second.P2[:, k]

        dub_h = vc.dub[:, h]
        dus_h = vc.dus[:, h]
        pi_row_h = vc.diffusion_row(h)
        term_h = (dub_h * np.einsum("pa,pa->p", P2[:, h, :], yl,
                                    optimize=False)
                  + dus_h * P2[:, h, h]
                  * np.einsum("pa,pa->p", pi_row_h, yl, optimize=False)
                  + dus_h * np.einsum(
                      "pa,pa->p", second.Q2[:, k, h, h, :], yl,
                      optimize=False))
        fyu = spec.running_cost[i].dyu(t, x, u)
        term_h += np.einsum("pa,pa->p", fyu[:, :, h], yl, optimize=False)

        dub_l = vc.dub[:, l]
        dus_l = vc.dus[:, l]
        pi_row_l = vc.diffusion_row(l)
        term_l = (dub_l * np.einsum("pa,pa->p", yh, P2[:, :, l],
                                    optimize=False)
                  + dus_l * P2[:, l, l]
                  * np.einsum("pa,pa->p", pi_row_l, yh, optimize=False)
                  + dus_l * np.einsum(
                      "pa,pa->p", yh, second.Q2[:, k, l, :, l],
                      optimize=False))
        term_l += np.einsum("pa,pa->p", yh, fyu[:, :, l], optimize=False)

        fuu = spec.running_cost[i].duu(t, x, u)
        direct = fuu[:, h, l] * du_h * du_l

        drift_src, diff_src = second_order_cross_sources(
            spec, t, x, u, yh, yl, du_h, du_l, h, l)
        coupling = np.einsum("pa,pa->p", first.P_vals[:, k, :], drift_src,
                             optimize=False)
        qdiag = np.stack([first.Q_vals[:, k, j, j]
                          for j in range(spec.n_players)], axis=1)
        coupling += np.einsum("pj,pj->p", qdiag, diff_src, optimize=False)

        acc += (term_h * du_h + term_l * du_l + direct + coupling) * grid.dt

    est = DerivativeEstimate.from_pathwise(acc, "BSDE",
                                           {"player": i, "pair": (h, l)})
    if return_pathwise:
        return est, acc
    return est
