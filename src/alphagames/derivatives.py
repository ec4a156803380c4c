"""Directional derivatives of player costs by three independent routes.

* FD: common-random-number resimulation differences with a geometric
  epsilon schedule and Richardson extrapolation;
* SENS: forward sensitivity processes contracted against cost
  gradients, and for second derivatives the mixed response contracted
  with the cost quadratic forms (the Z-oracle);
* BSDE: adjoint pairs contracted against the control loadings, which
  needs no forward sensitivity at all for first derivatives and no
  mixed second-order sensitivity for second derivatives.

Each route has one implementation and one call shape.  The FD sweeps
yield every cost player's estimate at once.  The SENS and BSDE routes
are one driver each, ``sens_derivatives`` and ``bsde_derivatives``,
and take the same two job lists: first-order jobs ``(i, h, direction)``
and second-order jobs ``(i, (h, dir_h), (l, dir_l))``.  A job names
(player, direction) targets, never a stored response, so each driver
builds every response it reads from its own ensemble.  Each runs every
job in one time sweep that evaluates each step's partials and each
distinct direction once, adds each step's integrands into per-path
sums as they are solved, and returns ``((first, second),
(first_pathwise, second_pathwise))`` keyed by job index.  The SENS
driver contracts its jobs inside the one forward sweep that steps
their responses, so it stores no response; the BSDE driver stores the
responses its second-order jobs read, then contracts every job inside
the one backward sweep that solves their adjoints, so neither an
adjoint nor an integrand history is stored.

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
from .sim import (PathEnsemble, _bilinear_sources, _direction_values, _dot,
                  _forward, propagate_sensitivities, simulate_cost_batch)

__all__ = [
    "DerivativeEstimate",
    "cost_pathwise",
    "cost_value",
    "first_derivative_fd_sweep",
    "second_derivative_fd_sweep",
    "sens_derivatives",
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


def _keyed_estimates(acc: np.ndarray, method: str, metadata):
    """One estimate per row of ``acc`` (job index, paths last), labelled
    by ``metadata(index)``, and the pathwise rows under the same keys."""
    pathwise = dict(enumerate(acc))
    est = {n: DerivativeEstimate.from_pathwise(pw, method, metadata(n))
           for n, pw in pathwise.items()}
    return est, pathwise


def cost_pathwise(spec: GameSpec, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path realized cost of every player, shape (P, N)."""
    grid, states = ensemble.grid, ensemble.states
    out = np.zeros((ensemble.n_paths, spec.n_players))
    for k, t in enumerate(grid.nodes[:-1]):
        x = states[:, k, :]
        out += spec.running_cost.value(
            Slice(t, x, x, ensemble.realized_controls[:, k, :])) * grid.dt
    xT = states[:, -1, :]
    out += spec.terminal_cost.value(Slice(grid.horizon, xT, xT))
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


def second_derivative_fd_sweep(spec: GameSpec, controls: ControlProfile,
                               h: int, l: int, dir_h: Control, dir_l: Control,
                               grid: TimeGrid, noise: NoiseBundle,
                               eps_schedule=EPS_SCHEDULE):
    """Four-point central mixed difference for every cost functional at
    once, with all legs in one batched common-random-number sweep.
    Returns one estimate per player and the per-player pathwise
    Richardson arrays, which share their legs and so difference with a
    pathwise standard error."""
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
    return out, pathwise


def _job_targets(first_jobs, second_jobs):
    """The distinct (player, direction) targets the jobs read, keyed by
    (h, id(direction)) in order of first use: a first-order job ``(i,
    h, d)`` reads one, a second-order job ``(i, (h, dh), (l, dl))`` two
    of distinct players and the mixed response of their pair, built
    with the lower player's target first, so a swapped job shares it.
    Returns the targets, the distinct pairs as target indices, each
    first-order job's target and each second-order job's (a, b, q): its
    two targets in job order and its pair."""
    index, pairs = {}, {}

    def target(h, d):
        return index.setdefault((h, id(d)), (len(index), (h, d)))[0]

    first = [target(h, d) for _, h, d in first_jobs]
    second = []
    for _, (h, dh), (l, dl) in second_jobs:
        if h == l:
            raise ValueError(
                "mixed second derivative requires distinct players")
        a, b = target(h, dh), target(l, dl)
        second.append((a, b, pairs.setdefault((a, b) if h < l else (b, a),
                                              len(pairs))))
    return [t for _, t in index.values()], list(pairs), first, second


def sens_derivatives(spec: GameSpec, ensemble: PathEnsemble,
                     noise: NoiseBundle, first_jobs=(), second_jobs=()):
    """Forward route for every first-order job ``(i, h, direction)``
    (player i's cost in player h's direction) and second-order job ``(i,
    (h, dir_h), (l, dir_l))`` (in two distinct players' directions), the
    job lists of ``bsde_derivatives``.  One forward sweep steps the
    response of each distinct (player, direction) target and the mixed
    response of each distinct pair, so a swapped job shares it and no
    estimate depends on the call's other jobs; each node's running-cost
    partials are evaluated once and every job is contracted as its
    responses are solved.  ``SENS``: the response against the cost
    gradients plus the direct control term.  ``Z-ORACLE``: the cost
    quadratic forms in the two responses and directions plus the cost
    gradients against the mixed response.

    Returns ``((first, second), (first_pathwise, second_pathwise))``,
    each ``{job index: ...}``.
    """
    first_jobs, second_jobs = list(first_jobs), list(second_jobs)
    targets, pairs, row, col = _job_targets(first_jobs, second_jobs)
    hl = [(h, l) for _, (h, _), (l, _) in second_jobs]
    dt = ensemble.grid.dt
    first_acc = np.zeros((len(first_jobs), ensemble.n_paths))
    second_acc = np.zeros((len(second_jobs), ensemble.n_paths))
    f, g = spec.running_cost, spec.terminal_cost
    for k, s, dvals, y, z in _forward(spec, ensemble, noise, targets, pairs):
        if s.u is None:
            break
        fy = f.dy(s)
        fu = f.du(s) if first_jobs else None
        for n, ((i, h, d), r) in enumerate(zip(first_jobs, row)):
            first_acc[n] += (_dot(fy[:, i], y[:, r])
                             + fu[:, i, h] * dvals[id(d)]) * dt
        fyy, fyu, fuu = ((f.dyy(s), f.dyu(s), f.duu(s)) if second_jobs
                         else (None, None, None))
        for n, ((i, (h, dh), (l, dl)), (a, b, q)) in enumerate(
                zip(second_jobs, col)):
            yh, yl = y[:, a], y[:, b]
            du_h, du_l = dvals[id(dh)], dvals[id(dl)]
            second_acc[n] += (np.einsum("pa,pab,pb->p", yh, fyy[:, i], yl,
                                        optimize=False)
                              + du_h * _dot(fyu[:, i, :, h], yl)
                              + du_l * _dot(yh, fyu[:, i, :, l])
                              + fuu[:, i, h, l] * du_h * du_l) * dt
            second_acc[n] += _dot(fy[:, i], z[:, q]) * dt
        # freed before the forward sweep assembles the next step
        del fy, fu, fyy, fyu, fuu
    gy = g.dy(s)
    for n, ((i, *_), r) in enumerate(zip(first_jobs, row)):
        first_acc[n] += _dot(gy[:, i], y[:, r])
    gyy = g.dyy(s) if second_jobs else None
    for n, ((i, *_), (a, b, q)) in enumerate(zip(second_jobs, col)):
        second_acc[n] += np.einsum("pa,pab,pb->p", y[:, a], gyy[:, i],
                                   y[:, b], optimize=False)
        second_acc[n] += _dot(gy[:, i], z[:, q])
    first = _keyed_estimates(
        first_acc, "SENS",
        lambda n: {"player": first_jobs[n][0], "perturbed": first_jobs[n][1],
                   "direction": first_jobs[n][2].label})
    second = _keyed_estimates(
        second_acc, "Z-ORACLE",
        lambda n: {"player": second_jobs[n][0], "pair": hl[n]})
    return (first[0], second[0]), (first[1], second[1])


_WORST_FITS = {"condition_max": "condition", "ridge_max": "ridge",
               "residual_max": "residual_norm",
               "martingale_residual_max": "martingale_residual_norm",
               "matrix_residual_max": "matrix_residual_norm"}


def _worst_fits(fits: dict, values: dict) -> None:
    """Fold fit diagnostics, keyed as in ``bsde_derivatives``' regression
    summary, into the running worst fits ``fits``: the largest of each
    value, None while no value was given (no matrix layers), and
    whether any ridge escalated."""
    for key, value in values.items():
        if key == "ridge_escalated":
            fits[key] = fits.get(key, False) or value
        elif value is None:
            fits.setdefault(key, None)
        else:
            fits[key] = (value if fits.get(key) is None
                         else max(fits[key], value))


def bsde_derivatives(spec: GameSpec, ensemble: PathEnsemble,
                     noise: NoiseBundle, basis: RegressionBasis,
                     first_jobs=(), second_jobs=()):
    """Adjoint route for every first-order job ``(i, h, direction)``
    (player i's cost in player h's direction) and second-order job ``(i,
    (h, dir_h), (l, dir_l))`` (in two distinct players' directions).
    When there are second-order jobs, one forward pass first stores the
    first-order response of each distinct target they read.  One
    backward sweep solves every cost player's costate pair and every
    second-order cost player's matrix adjoint; each step's layers are
    contracted into the integrands as they are solved, then dropped.
    First order: the direction times (costate against the drift control
    loading, diffusion control loading against the matching martingale
    component, direct cost term).  Second order: no mixed sensitivity;
    the term in player h's direction reads row h of driver h's loading,
    the term in l's column l of driver l's, the orientation under which
    the product-trace bookkeeping closes (the loadings are symmetric, so
    both are the one fitted row).  Each step's integrands are added into
    per-path sums as they are solved, in the sweep's order (k
    descending); a first-order integrand is formed once per
    (cost player, perturbed player) and step, and taken by each job's
    direction.  Every estimate's ``metadata["regression"]`` holds the
    sweep's worst fits: the largest condition number and ridge, whether
    any ridge escalated, and the largest value, martingale and matrix
    residuals (None without matrix layers).

    Returns ``((first, second), (first_pathwise, second_pathwise))``,
    each ``{job index: ...}``.
    """
    first_jobs, second_jobs = list(first_jobs), list(second_jobs)
    targets, _, _, col = _job_targets((), second_jobs)
    hl = [(h, l) for _, (h, _), (l, _) in second_jobs]
    responses = (propagate_sensitivities(spec, ensemble, targets, noise)
                 if second_jobs else [])
    second = sorted({i for i, _, _ in second_jobs})
    players = sorted({i for i, _, _ in first_jobs} | set(second))
    rows = sorted({(i, h) for i, h, _ in first_jobs})
    row_of = [rows.index((i, h)) for i, h, _ in first_jobs]
    own = {i: q for q, i in enumerate(players)}
    grid = ensemble.grid
    P, dt = ensemble.n_paths, grid.dt
    first_acc = np.zeros((len(first_jobs), P))
    second_acc = np.zeros((len(second_jobs), P))
    fits = {}
    sweep = _adjoint_sweep(spec, ensemble, noise, basis, players, second)
    next(sweep)  # the terminal layers enter no integrand
    f = spec.running_cost
    for step in sweep:
        _worst_fits(fits, {key: getattr(step.diagnostics, name)
                           for key, name in _WORST_FITS.items()})
        k, vc, at = step.k, step.vc, step.vc.slice
        diff_rows = vc.diffusion_rows
        t = grid.nodes[k]
        dvals = _direction_values(
            [d for *_, d in first_jobs] + [d for _, d in targets], t, k,
            noise)
        fu = f.du(at) if rows else None
        row_terms = [step.costates[:, own[i], h] * vc.dub[:, h]
                      + vc.dus[:, h] * step.loadings[:, own[i], h]
                      + fu[:, i, h] for i, h in rows]
        for n, (_, _, d) in enumerate(first_jobs):
            first_acc[n] += row_terms[row_of[n]] * dvals[id(d)] * dt
        fyu, fuu = (f.dyu(at), f.duu(at)) if second else (None, None)
        cost = {i: (s, own[i], fyu[:, i], fuu[:, i])
                for s, i in enumerate(second)}
        sources = {}
        for n, ((i, (h, dh), (l, dl)), (a, b, _)) in enumerate(
                zip(second_jobs, col)):
            s, q, fyu, fuu = cost[i]
            P2, Q2 = step.matrices[:, s], step.matrix_loadings[:, s]
            yh, yl = responses[a][:, k], responses[b][:, k]
            du_h, du_l = dvals[id(dh)], dvals[id(dl)]
            dus_h, dus_l = vc.dus[:, h], vc.dus[:, l]
            term_h = (vc.dub[:, h] * _dot(P2[:, h, :], yl)
                      + dus_h * P2[:, h, h] * _dot(diff_rows[:, h], yl)
                      + dus_h * _dot(Q2[:, h], yl))
            term_h += _dot(fyu[:, :, h], yl)
            term_l = (vc.dub[:, l] * _dot(yh, P2[:, :, l])
                      + dus_l * P2[:, l, l] * _dot(diff_rows[:, l], yh)
                      + dus_l * _dot(yh, Q2[:, l]))
            term_l += _dot(yh, fyu[:, :, l])
            direct = fuu[:, h, l] * du_h * du_l
            if (a, b) not in sources:
                sources[a, b] = _bilinear_sources(
                    step.slices, yh, yl, du_h, du_l, h, l,
                    with_joint_hessian=False)
            drift_src, diff_src = sources[a, b]
            coupling = _dot(step.costates[:, q], drift_src)
            coupling += _dot(step.loadings[:, q], diff_src)
            second_acc[n] += (term_h * du_h + term_l * du_l + direct
                              + coupling) * dt

    fits["ridge_escalated"] = fits["ridge_max"] > basis.ridge
    first = _keyed_estimates(
        first_acc, "BSDE",
        lambda n: {"player": first_jobs[n][0], "perturbed": first_jobs[n][1],
                   "direction": first_jobs[n][2].label, "regression": fits})
    second = _keyed_estimates(
        second_acc, "BSDE",
        lambda n: {"player": second_jobs[n][0], "pair": hl[n],
                   "regression": fits})
    return (first[0], second[0]), (first[1], second[1])
