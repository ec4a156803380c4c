"""Forward simulation: state paths and pathwise control sensitivities.

Explicit Euler on a uniform grid throughout.  All perturbed ensembles
reuse one NoiseBundle (common random numbers), and the first/second
order sensitivity recursions consume the exact same increments as the
state they linearize; they run over lists of targets or response pairs
with one linearization per step for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (Control, ControlProfile, GameSpec, NoiseBundle, Slice,
                    TimeGrid)

__all__ = [
    "PathEnsemble",
    "SensitivityEnsemble",
    "SecondSensitivityEnsemble",
    "VariationalCoefficients",
    "simulate_paths",
    "simulate_cost_batch",
    "assemble_variational",
    "propagate_sensitivity",
    "propagate_sensitivities",
    "propagate_second_sensitivities",
    "empirical_moment",
]


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated joint state paths and the controls that produced them."""

    states: np.ndarray  # (P, M+1, N)
    realized_controls: np.ndarray  # (P, M+1, N)
    grid: TimeGrid
    seed: int

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class SensitivityEnsemble:
    """Pathwise derivative of the state in one player's control direction."""

    values: np.ndarray  # (P, M+1, N)
    perturbed_player: int
    direction: Control
    grid: TimeGrid
    seed: int


@dataclass(frozen=True)
class SecondSensitivityEnsemble:
    """Pathwise mixed derivative for two distinct players' directions."""

    values: np.ndarray  # (P, M+1, N)
    players: tuple
    directions: tuple
    grid: TimeGrid
    seed: int


@dataclass(frozen=True)
class VariationalCoefficients:
    """First-order coefficient data of the linearized state system.

    Stored as the primitive partial arrays; the dense matrices of the
    linear system are built on demand.  ``drift_state`` is the N x N
    matrix acting on the sensitivity vector in the drift (own-state
    diagonal plus joint-state block); ``diffusion_state(j)`` is the
    matrix in front of driver j, nonzero only in row j.  ``slice`` is
    the slice the partials were evaluated on; the step's second
    partials and cost evaluators read it too.
    """

    dxb: np.ndarray   # (P, N)
    dyb: np.ndarray   # (P, N, N), row i = gradient of drift_i in the joint state
    dub: np.ndarray   # (P, N)
    dxs: np.ndarray   # (P, N)
    dys: np.ndarray   # (P, N, N)
    dus: np.ndarray   # (P, N)
    slice: Slice

    @property
    def n_players(self) -> int:
        return self.dxb.shape[1]

    def drift_state(self) -> np.ndarray:
        """(P, N, N): diagonal own-state partials plus the coupling block."""
        P, N = self.dxb.shape
        out = self.dyb.copy()
        idx = np.arange(N)
        out[:, idx, idx] += self.dxb
        return out

    def diffusion_row(self, j: int) -> np.ndarray:
        """(P, N): the only nonzero row (row j) of driver j's matrix."""
        row = self.dys[:, j, :].copy()
        row[:, j] += self.dxs[:, j]
        return row

    def diffusion_state(self, j: int) -> np.ndarray:
        """(P, N, N): dense matrix of driver j; zero outside row j."""
        P, N = self.dxs.shape
        out = np.zeros((P, N, N))
        out[:, j, :] = self.diffusion_row(j)
        return out

    def drift_control(self, h: int) -> np.ndarray:
        """(P, N): control-direction drift loading, single entry h."""
        P, N = self.dub.shape
        out = np.zeros((P, N))
        out[:, h] = self.dub[:, h]
        return out

    def diffusion_control(self, j: int) -> np.ndarray:
        """(P, N): control-direction loading of driver j, single entry j."""
        P, N = self.dus.shape
        out = np.zeros((P, N))
        out[:, j] = self.dus[:, j]
        return out


def _check_pair(ensemble: PathEnsemble, noise: NoiseBundle):
    if ensemble.seed != noise.seed or ensemble.grid != noise.grid:
        raise ValueError("ensemble and noise bundle must share seed and grid")


def _check_noise(spec: GameSpec, grid: TimeGrid, noise: NoiseBundle):
    if noise.grid != grid:
        raise ValueError("noise bundle was generated for a different grid")
    if noise.n_drivers != spec.n_drivers:
        raise ValueError("noise bundle driver count does not match the game")


def simulate_paths(spec: GameSpec, controls: ControlProfile, grid: TimeGrid,
                   noise: NoiseBundle) -> PathEnsemble:
    """Explicit Euler simulation of the joint state system."""
    _check_noise(spec, grid, noise)
    N, M, P = spec.n_players, grid.n_steps, noise.n_paths
    dt = grid.dt
    nodes = grid.nodes

    states = np.empty((P, M + 1, N))
    realized = np.empty((P, M + 1, N))
    states[:, 0, :] = spec.initial_states(noise.seed, P)

    for k in range(M):
        t = nodes[k]
        x = states[:, k, :]
        u = controls.evaluate(t, k, noise)
        realized[:, k, :] = u
        nxt = states[:, k + 1, :]
        sl = Slice(t, x, x, u)
        nxt[:] = (x + spec.drift.value(sl) * dt
                  + spec.diffusion.value(sl) * noise.increments[:, k, :N])
        if spec.common_noise:
            nxt += noise.increments[:, k, N][:, None]
        if not np.all(np.isfinite(nxt)):
            bad = np.argwhere(~np.isfinite(nxt))[0]
            raise FloatingPointError(
                f"non-finite state at path {bad[0]}, step {k + 1}, "
                f"player {bad[1]}")
    realized[:, M, :] = controls.evaluate(nodes[M], M, noise)
    return PathEnsemble(states=states, realized_controls=realized,
                        grid=grid, seed=noise.seed)


def simulate_cost_batch(spec: GameSpec, profiles, grid: TimeGrid,
                        noise: NoiseBundle,
                        dtype=np.float32) -> np.ndarray:
    """Pathwise costs of several control profiles in one stacked sweep.

    All profiles share the same increments (common random numbers);
    states are stacked along the path axis so evaluator call overhead
    is amortized across legs, and only the running cost accumulator is
    kept, never the trajectories.  Legs default to single precision:
    the rounding noise is orders of magnitude below Monte Carlo error
    for difference estimators and halves the memory traffic.  The
    sweep's (L*P, N) arrays are stored player-major, so every
    elementwise evaluator operation runs along the long path axis.
    Returns (L, P, N) in double precision.
    """
    _check_noise(spec, grid, noise)
    N, M, P = spec.n_players, grid.n_steps, noise.n_paths
    L = len(profiles)
    dt = grid.dt
    nodes = grid.nodes

    x = np.tile(spec.initial_states(noise.seed, P), (L, 1)).astype(
        dtype, order="F")
    cost = np.zeros((L * P, N), order="F")
    # (M, D, P): step k's increments of every driver, player-major
    increments = noise.increments.transpose(1, 2, 0).astype(dtype,
                                                             order="C")
    dt_c = np.asarray(dt, dtype=dtype)
    for k in range(M):
        t = nodes[k]
        u = np.concatenate(
            [prof.evaluate(t, k, noise) for prof in profiles],
            axis=0).astype(dtype, order="F")
        inc = increments[k]
        sl = Slice(t, x, x, u)
        cost += spec.running_cost.value(sl) * dt
        s = np.asarray(spec.diffusion.value(sl), dtype=dtype)
        # increments broadcast over the leg axis, no tiling copies
        nxt = (x + spec.drift.value(sl) * dt_c
               + (s.reshape(L, P, N) * inc[:N].T[None]).reshape(L * P, N)
               ).astype(dtype)
        if spec.common_noise:
            nxt += np.tile(inc[N], L)[:, None]
        if not np.all(np.isfinite(nxt)):
            raise FloatingPointError(
                f"non-finite state at step {k + 1} in batched simulation")
        x = nxt
    cost += spec.terminal_cost.value(Slice(nodes[M], x, x))
    return cost.reshape(L, P, N)


def assemble_variational(spec: GameSpec, t: float, x: np.ndarray,
                         u: np.ndarray) -> VariationalCoefficients:
    """Evaluate the linearization coefficients at one time slice.

    ``x`` and ``u`` have shape (P, N).  Sparsity is structural: the
    drift matrix couples through the joint-state gradients, each driver
    matrix is supported on its own row, and the control loadings have a
    single entry.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sl = Slice(t, x, x, np.atleast_2d(np.asarray(u, dtype=float)))
    b, s = spec.drift, spec.diffusion
    return VariationalCoefficients(dxb=b.dx(sl), dyb=b.dy(sl), dub=b.du(sl),
                                   dxs=s.dx(sl), dys=s.dy(sl), dus=s.du(sl),
                                   slice=sl)


def propagate_sensitivities(spec: GameSpec, controls: ControlProfile,
                            ensemble: PathEnsemble, targets,
                            noise: NoiseBundle, dtype=np.float64) -> list:
    """Euler recursion for the linearized response to control
    perturbations, on the same increments as the state.

    ``targets`` is a list of (player, direction) pairs; all responses
    share one sweep so the linearization is assembled once per step.
    ``dtype`` controls the response storage; single precision halves
    the footprint of wide sweeps and its rounding noise is far below
    the Monte Carlo error of anything contracted against the output.
    """
    _check_pair(ensemble, noise)
    N, M, P = spec.n_players, ensemble.grid.n_steps, ensemble.n_paths
    D = len(targets)
    dt = ensemble.grid.dt
    nodes = ensemble.grid.nodes

    Y = np.zeros((P, M + 1, D, N), dtype=dtype)
    for k in range(M):
        t = nodes[k]
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        yk = Y[:, k, :, :]
        vc = assemble_variational(spec, t, x, u)
        drift = (vc.dxb[:, None, :] * yk
                 + np.einsum("pij,pdj->pdi", vc.dyb, yk, optimize=False))
        diff = (vc.dxs[:, None, :] * yk
                + np.einsum("pij,pdj->pdi", vc.dys, yk, optimize=False))
        for d, (h, direction) in enumerate(targets):
            du_h = direction(t, k, noise.increments)
            drift[:, d, h] += vc.dub[:, h] * du_h
            diff[:, d, h] += vc.dus[:, h] * du_h
        Y[:, k + 1, :, :] = (yk + drift * dt
                             + diff * noise.increments[:, k, None, :N])
    return [SensitivityEnsemble(values=Y[:, :, d, :],
                                perturbed_player=h, direction=direction,
                                grid=ensemble.grid, seed=ensemble.seed)
            for d, (h, direction) in enumerate(targets)]


def propagate_sensitivity(spec: GameSpec, controls: ControlProfile,
                          ensemble: PathEnsemble, h: int, direction: Control,
                          noise: NoiseBundle) -> SensitivityEnsemble:
    """Single-target convenience wrapper around the shared sweep."""
    return propagate_sensitivities(spec, controls, ensemble,
                                   [(h, direction)], noise)[0]


def _second_order_slices(spec: GameSpec, sl: Slice):
    """Second partials ``(dxx, dxu, dxy, duy, dyy)`` of the drift and
    the diffusion at one slice, keyed "b" and "s"."""
    return {tag: (c.dxx(sl), c.dxu(sl), c.dxy(sl), c.duy(sl), c.dyy(sl))
            for tag, c in (("b", spec.drift), ("s", spec.diffusion))}


def _dot(a, b):
    """Per-path inner product of two (P, n) arrays, shape (P,)."""
    return np.einsum("pa,pa->p", a, b, optimize=False)


def _bilinear_sources(so, yh, yl, du_h, du_l, h: int, l: int,
                      with_joint_hessian: bool):
    """Drift and diffusion forcing, each (P, N), of the mixed response:
    bilinear in the responses ``yh``/``yl`` through the slice's second
    partials ``so``, plus the direction/state cross terms; diffusion
    driver i forces component i only.  The adjoint route books the
    joint-state curvature in the matrix-adjoint driver, so it passes
    ``with_joint_hessian=False``."""
    P, N = yh.shape
    out = []
    for tag, (dxx, dxu, dxy, duy, dyy) in so.items():
        quad = (yh[:, :] * dxx * yl[:, :]
                + yh * np.einsum("pin,pn->pi", dxy, yl, optimize=False)
                + np.einsum("pin,pn->pi", dxy, yh, optimize=False) * yl)
        if with_joint_hessian:
            quad = quad + dyy.bilinear(yh, yl)
        cross = np.zeros((P, N))
        cross[:, h] += du_h * (dxu[:, h] * yl[:, h] + _dot(duy[:, h, :], yl))
        cross[:, l] += du_l * (dxu[:, l] * yh[:, l] + _dot(duy[:, l, :], yh))
        out.append(quad + cross)
    return out[0], out[1]


def propagate_second_sensitivities(spec: GameSpec, ensemble: PathEnsemble,
                                   pairs, noise: NoiseBundle) -> list:
    """Mixed second-order sensitivity for each ``(sens_h, sens_l)`` pair
    of two distinct players' responses, all in one sweep.

    Linear part identical to the first-order recursion (no control
    source); forcing is bilinear in the two first-order sensitivities
    plus the direction/state cross terms.  The linearization and the
    second partials are evaluated once per step for every pair.
    """
    _check_pair(ensemble, noise)
    for sens_h, sens_l in pairs:
        if sens_h.perturbed_player == sens_l.perturbed_player:
            raise ValueError("mixed sensitivity requires two distinct players")
        if sens_h.seed != ensemble.seed or sens_l.seed != ensemble.seed:
            raise ValueError(
                "sensitivities must be built on the same ensemble")
    N, M, P = spec.n_players, ensemble.grid.n_steps, ensemble.n_paths
    dt = ensemble.grid.dt
    nodes = ensemble.grid.nodes

    Z = [np.zeros((P, M + 1, N)) for _ in pairs]
    for k in range(M):
        t = nodes[k]
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        vc = assemble_variational(spec, t, x, u)
        so = _second_order_slices(spec, vc.slice)
        for (sens_h, sens_l), zq in zip(pairs, Z):
            zk = zq[:, k, :]
            drift_src, diff_src = _bilinear_sources(
                so, sens_h.values[:, k, :], sens_l.values[:, k, :],
                sens_h.direction(t, k, noise.increments),
                sens_l.direction(t, k, noise.increments),
                sens_h.perturbed_player, sens_l.perturbed_player,
                with_joint_hessian=True)
            drift = (vc.dxb * zk
                     + np.einsum("pij,pj->pi", vc.dyb, zk, optimize=False)
                     + drift_src)
            diff = (vc.dxs * zk
                    + np.einsum("pij,pj->pi", vc.dys, zk, optimize=False)
                    + diff_src)
            zq[:, k + 1, :] = (zk + drift * dt
                               + diff * noise.increments[:, k, :N])
    return [SecondSensitivityEnsemble(
                values=zq,
                players=(sens_h.perturbed_player, sens_l.perturbed_player),
                directions=(sens_h.direction, sens_l.direction),
                grid=ensemble.grid, seed=ensemble.seed)
            for (sens_h, sens_l), zq in zip(pairs, Z)]


def empirical_moment(ensemble: PathEnsemble, player: int, p: float):
    """Sup over grid nodes of the sample mean of |X|^p, with the
    standard error at the maximizing node."""
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = np.abs(ensemble.states[:, :, player]) ** p  # (P, M+1)
    means = vals.mean(axis=0)
    k = int(np.argmax(means))
    se = float(vals[:, k].std(ddof=1) / np.sqrt(vals.shape[0]))
    return float(means[k]), se
