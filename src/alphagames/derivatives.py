"""Directional derivatives of player costs by three independent routes.

* FD: common-random-number resimulation differences with a geometric
  epsilon schedule and Richardson extrapolation;
* SENS: forward sensitivity processes contracted against cost
  gradients;
* BSDE: adjoint pairs contracted against the control loadings, which
  needs no forward sensitivity at all for first derivatives and no
  mixed second-order sensitivity for second derivatives.

Each route has one implementation.  The FD sweeps yield every cost
player's estimate at once; the SENS and Z-oracle contractions run over
a whole list of perturbation targets (first order) or response pairs
(second order) in one time sweep that evaluates each step's partials
once, and return ``{(cost player, target or pair index): estimate}``.
The BSDE route takes first- and second-order jobs for any cost players
together and contracts them inside the one backward sweep that solves
their adjoints, from the linearization and second partials that sweep
evaluated, so no adjoint is ever stored; it returns ``{job index:
estimate}`` per order.

All dt-integrals use the left endpoint, matching the Euler filtration.
Standard errors always come from pathwise differences, never from
differencing two independent estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import RegressionBasis, _adjoint_sweep
from .model import (Control, ControlProfile, GameSpec, NoiseBundle, Slice,
                    TimeGrid)
from .sim import PathEnsemble, _bilinear_sources, _dot, simulate_cost_batch

__all__ = [
    "DerivativeEstimate",
    "cost_pathwise",
    "cost_value",
    "first_derivative_fd_sweep",
    "first_derivative_sens",
    "second_derivative_fd_sweep",
    "second_derivative_z_oracle",
    "bsde_derivatives",
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
    pathwise = dict(zip(keys, acc.reshape(len(keys), acc.shape[-1])))
    est = {key: DerivativeEstimate.from_pathwise(pw, method, metadata(key))
           for key, pw in pathwise.items()}
    if return_pathwise:
        return est, pathwise
    return est


def _slices(ensemble: PathEnsemble):
    """(k, slice) at every step's left endpoint."""
    for k, t in enumerate(ensemble.grid.nodes[:-1]):
        x = ensemble.states[:, k, :]
        yield k, Slice(t, x, x, ensemble.realized_controls[:, k, :])


def _terminal(ensemble: PathEnsemble) -> Slice:
    xT = ensemble.states[:, -1, :]
    return Slice(ensemble.grid.horizon, xT, xT)


def cost_pathwise(spec: GameSpec, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path realized cost of every player, shape (P, N)."""
    out = np.zeros((ensemble.n_paths, spec.n_players))
    for _, sl in _slices(ensemble):
        out += spec.running_cost.value(sl) * ensemble.grid.dt
    out += spec.terminal_cost.value(_terminal(ensemble))
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
    for k, sl in _slices(ensemble):
        dvals = [s.direction(sl.t, k, noise.increments) for s in sens_list]
        fy, fu = spec.running_cost.dy(sl), spec.running_cost.du(sl)
        for i in range(N):
            for s, sens in enumerate(sens_list):
                acc[i, s] += (_dot(fy[:, i], sens.values[:, k, :])
                              + fu[:, i, sens.perturbed_player] * dvals[s]
                              ) * grid.dt
    gy = spec.terminal_cost.dy(_terminal(ensemble))
    for i in range(N):
        for s, sens in enumerate(sens_list):
            acc[i, s] += _dot(gy[:, i], sens.values[:, -1, :])
    keys = [(i, s) for i in range(N) for s in range(len(sens_list))]
    return _keyed_estimates(
        acc, keys, "SENS",
        lambda key: {"player": key[0],
                     "perturbed": sens_list[key[1]].perturbed_player,
                     "direction": sens_list[key[1]].direction.label})


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
    f, g = spec.running_cost, spec.terminal_cost
    for k, s in _slices(ensemble):
        dvals = [(sh.direction(s.t, k, noise.increments),
                  sl.direction(s.t, k, noise.increments)) for sh, sl in pairs]
        fy, fyy, fyu, fuu = f.dy(s), f.dyy(s), f.dyu(s), f.duu(s)
        for a, i in enumerate(players):
            for q, ((sh, sl), (h, l)) in enumerate(zip(pairs, hl)):
                yh, yl = sh.values[:, k, :], sl.values[:, k, :]
                du_h, du_l = dvals[q]
                acc[a, q] += (np.einsum("pa,pab,pb->p", yh, fyy[:, i], yl,
                                        optimize=False)
                              + du_h * _dot(fyu[:, i, :, h], yl)
                              + du_l * _dot(yh, fyu[:, i, :, l])
                              + fuu[:, i, h, l] * du_h * du_l) * grid.dt
                acc[a, q] += _dot(fy[:, i],
                                  mixed[q].values[:, k, :]) * grid.dt
    end = _terminal(ensemble)
    gy, gyy = g.dy(end), g.dyy(end)
    for a, i in enumerate(players):
        for q, (sh, sl) in enumerate(pairs):
            acc[a, q] += np.einsum("pa,pab,pb->p", sh.values[:, -1, :],
                                   gyy[:, i], sl.values[:, -1, :],
                                   optimize=False)
            acc[a, q] += _dot(gy[:, i], mixed[q].values[:, -1, :])
    return _keyed_estimates(
        acc, [(i, q) for i in players for q in range(len(pairs))],
        "Z-ORACLE", lambda key: {"player": key[0], "pair": hl[key[1]]},
        return_pathwise)


def _direction_values(directions, t, k, noise):
    """Each distinct direction's values at step k, keyed by identity."""
    distinct = {id(d): d for d in directions}
    return {key: d(t, k, noise.increments) for key, d in distinct.items()}


def bsde_derivatives(spec: GameSpec, ensemble: PathEnsemble,
                     noise: NoiseBundle, basis: RegressionBasis,
                     first_jobs=(), second_jobs=(),
                     return_pathwise: bool = False):
    """Adjoint route for every first-order job ``(i, h, direction)``
    (player i's cost in player h's direction) and second-order job ``(i,
    sens_h, sens_l)`` (in two distinct players' response directions).
    One backward sweep solves every cost player's costate pair and every
    second-order cost player's matrix adjoint; each step's layers are
    contracted into the integrands as they are solved, then dropped.
    First order: the direction times (costate against the drift control
    loading, diffusion control loading against the matching martingale
    component, direct cost term).  Second order: no mixed sensitivity;
    the term in player h's direction reads row h of driver h's loading,
    the term in l's reads column l of driver l's, the orientation under
    which the product-trace bookkeeping closes.  The integrands are
    summed forward in time afterwards; first-order ones are stored per
    (cost player, perturbed player) and take each job's direction then.

    Returns ``(first, second)``, each ``{job index: estimate}``; with
    ``return_pathwise`` also the pathwise integrals under the same keys.
    """
    first_jobs, second_jobs = list(first_jobs), list(second_jobs)
    hl = _pair_players([(sh, sl) for _, sh, sl in second_jobs])
    second = sorted({i for i, _, _ in second_jobs})
    players = sorted({i for i, _, _ in first_jobs} | set(second))
    rows = sorted({(i, h) for i, h, _ in first_jobs})
    own = {i: q for q, i in enumerate(players)}
    grid = ensemble.grid
    N, M, P, dt = spec.n_players, grid.n_steps, ensemble.n_paths, grid.dt
    integrands = np.empty((len(rows), M, P))
    terms = np.empty((len(second_jobs), M, P))
    sweep = _adjoint_sweep(spec, ensemble, noise, basis, players, second)
    next(sweep)  # the terminal layers enter no integrand
    f = spec.running_cost
    for step in sweep:
        k, vc, at = step.k, step.vc, step.vc.slice
        t = grid.nodes[k]
        fu = f.du(at) if rows else None
        for r, (i, h) in enumerate(rows):
            q = own[i]
            integrands[r, k] = (step.costates[:, q, h] * vc.dub[:, h]
                                + vc.dus[:, h] * step.loadings[:, h, q, h]
                                + fu[:, i, h])
        fyu, fuu = (f.dyu(at), f.duu(at)) if second else (None, None)
        cost = {i: (s, own[i], fyu[:, i], fuu[:, i],
                    np.stack([step.loadings[:, j, own[i], j]
                              for j in range(N)], axis=1))
                for s, i in enumerate(second)}
        dvals = _direction_values([sens.direction for _, sh, sl in second_jobs
                                   for sens in (sh, sl)], t, k, noise)
        sources = {}
        for n, ((i, sh, sl), (h, l)) in enumerate(zip(second_jobs, hl)):
            s, q, fyu, fuu, qdiag = cost[i]
            P2, Q2 = step.matrices[:, s], step.matrix_loadings[:, :, s]
            yh, yl = sh.values[:, k, :], sl.values[:, k, :]
            du_h, du_l = dvals[id(sh.direction)], dvals[id(sl.direction)]
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
            key = (id(sh), id(sl))
            if key not in sources:
                sources[key] = _bilinear_sources(
                    step.slices, yh, yl, du_h, du_l, h, l,
                    with_joint_hessian=False)
            drift_src, diff_src = sources[key]
            coupling = _dot(step.costates[:, q], drift_src)
            coupling += _dot(qdiag, diff_src)
            terms[n, k] = (term_h * du_h + term_l * du_l + direct
                           + coupling) * dt

    first_acc = np.zeros((len(first_jobs), P))
    row_of = [rows.index((i, h)) for i, h, _ in first_jobs]
    second_acc = np.zeros((len(second_jobs), P))
    for k in range(M):
        dvals = _direction_values([d for _, _, d in first_jobs],
                                  grid.nodes[k], k, noise)
        for n, (_, _, d) in enumerate(first_jobs):
            first_acc[n] += integrands[row_of[n], k] * dvals[id(d)] * dt
        second_acc += terms[:, k]
    first = _keyed_estimates(
        first_acc, list(range(len(first_jobs))), "BSDE",
        lambda n: {"player": first_jobs[n][0], "perturbed": first_jobs[n][1],
                   "direction": first_jobs[n][2].label}, return_pathwise)
    second = _keyed_estimates(
        second_acc, list(range(len(second_jobs))), "BSDE",
        lambda n: {"player": second_jobs[n][0], "pair": hl[n]},
        return_pathwise)
    if return_pathwise:
        return (first[0], second[0]), (first[1], second[1])
    return first, second
