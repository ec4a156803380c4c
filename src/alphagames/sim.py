"""Forward simulation: state paths and pathwise control sensitivities.

Explicit Euler on a uniform grid with one step of each kind, on one
NoiseBundle (common random numbers) for every perturbed ensemble.
``_euler`` advances stacked legs, one per control profile, stored
player-major, and yields each node's ``Slice``: ``simulate_paths``
records one double-precision leg, ``simulate_cost_batch`` and the
scaling pass consume it without storing a trajectory.
``_response_step`` advances a (P, R, N) stack of linearized responses
on the same increments, with one linearization per step for the stack:
first-order sensitivities, mixed responses and the scaling pass.
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


def _euler(spec: GameSpec, profiles, grid: TimeGrid, noise: NoiseBundle,
           dtype=np.float64):
    """The explicit Euler state step over stacked legs, one per control
    profile.  Yields every node's ``Slice``, the terminal one without
    controls; states are (L*P, N), leg-major rows stored player-major.
    The step runs when the next slice is asked for, so the consumer must
    not write to the one it holds."""
    _check_noise(spec, grid, noise)
    N, M, P = spec.n_players, grid.n_steps, noise.n_paths
    for prof in profiles:
        if len(prof) != N:
            raise ValueError(f"control profile has {len(prof)} players, "
                             f"the game {N}")
    L = len(profiles)
    nodes = grid.nodes
    dt = np.asarray(grid.dt, dtype=dtype)
    x = np.tile(spec.initial_states(noise.seed, P), (L, 1)).astype(
        dtype, order="F")
    for k in range(M):
        sl = Slice(nodes[k], x, x, np.concatenate(
            [prof.evaluate(nodes[k], k, noise) for prof in profiles],
            axis=0).astype(dtype, order="F"))
        yield sl
        # this step's increments, (D, P) player-major like the states
        inc = np.ascontiguousarray(noise.increments[:, k, :].T, dtype=dtype)
        s = np.asarray(spec.diffusion.value(sl), dtype=dtype)
        # increments broadcast over the leg axis, no tiling copies
        x = (x + spec.drift.value(sl) * dt
             + (s.reshape(L, P, N) * inc[:N].T).reshape(L * P, N)
             ).astype(dtype, copy=False)
        if spec.common_noise:
            x += np.tile(inc[N], L)[:, None]
        if not np.all(np.isfinite(x)):
            row, i = np.argwhere(~np.isfinite(x))[0]
            raise FloatingPointError(
                f"non-finite state in leg {row // P}, path {row % P}, "
                f"step {k + 1}, player {i}")
    yield Slice(nodes[M], x, x)


def simulate_paths(spec: GameSpec, controls: ControlProfile, grid: TimeGrid,
                   noise: NoiseBundle) -> PathEnsemble:
    """Explicit Euler simulation of the joint state system: one
    double-precision leg of the Euler step, recorded path-major."""
    P, M, N = noise.n_paths, grid.n_steps, spec.n_players
    states = np.empty((P, M + 1, N))
    realized = np.empty((P, M + 1, N))
    for k, sl in enumerate(_euler(spec, [controls], grid, noise)):
        states[:, k, :] = sl.x
        if sl.u is not None:
            realized[:, k, :] = sl.u
    realized[:, M, :] = controls.evaluate(grid.nodes[M], M, noise)
    return PathEnsemble(states=states, realized_controls=realized,
                        grid=grid, seed=noise.seed)


def simulate_cost_batch(spec: GameSpec, profiles, grid: TimeGrid,
                        noise: NoiseBundle,
                        dtype=np.float32) -> np.ndarray:
    """Pathwise costs of several control profiles, run as the legs of
    one Euler sweep on the same increments; only the cost accumulator is
    kept.  Legs default to single precision: the rounding noise is
    orders of magnitude below Monte Carlo error for difference
    estimators and halves the memory traffic.  Returns (L, P, N) in
    double precision.
    """
    P, N = noise.n_paths, spec.n_players
    cost = np.zeros((len(profiles) * P, N), order="F")
    for sl in _euler(spec, profiles, grid, noise, dtype):
        if sl.u is None:
            cost += spec.terminal_cost.value(sl)
        else:
            cost += spec.running_cost.value(sl) * grid.dt
    return cost.reshape(len(profiles), P, N)


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


def _linearizations(spec: GameSpec, ensemble: PathEnsemble):
    """(k, t, linearization) at every step's left endpoint."""
    for k, t in enumerate(ensemble.grid.nodes[:-1]):
        yield k, t, assemble_variational(
            spec, t, ensemble.states[:, k, :],
            ensemble.realized_controls[:, k, :])


def _response_step(vc: VariationalCoefficients, y: np.ndarray, dt: float,
                   dw: np.ndarray, controls=(), forcing=None) -> np.ndarray:
    """The explicit Euler step of the linearized state system for a
    (P, R, N) stack of responses ``y``, with ``dw`` the step's (P, N)
    private-driver increments.  ``controls`` lists per response r the
    perturbed player h and its direction's values du, added in place at
    entry (r, h); ``forcing`` is a dense (drift, diffusion) pair.
    """
    drift = (vc.dxb[:, None, :] * y
             + np.einsum("pij,prj->pri", vc.dyb, y, optimize=False))
    diff = (vc.dxs[:, None, :] * y
            + np.einsum("pij,prj->pri", vc.dys, y, optimize=False))
    for r, (h, du) in enumerate(controls):
        drift[:, r, h] += vc.dub[:, h] * du
        diff[:, r, h] += vc.dus[:, h] * du
    if forcing is not None:
        drift += forcing[0]
        diff += forcing[1]
    return y + drift * dt + diff * dw[:, None, :]


def propagate_sensitivities(spec: GameSpec, ensemble: PathEnsemble, targets,
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
    Y = np.zeros((P, M + 1, len(targets), N), dtype=dtype)
    for k, t, vc in _linearizations(spec, ensemble):
        Y[:, k + 1] = _response_step(
            vc, Y[:, k], ensemble.grid.dt, noise.increments[:, k, :N],
            controls=[(h, d(t, k, noise.increments)) for h, d in targets])
    return [SensitivityEnsemble(values=Y[:, :, d, :],
                                perturbed_player=h, direction=direction,
                                grid=ensemble.grid, seed=ensemble.seed)
            for d, (h, direction) in enumerate(targets)]


def propagate_sensitivity(spec: GameSpec, ensemble: PathEnsemble, h: int,
                          direction: Control,
                          noise: NoiseBundle) -> SensitivityEnsemble:
    """Single-target convenience wrapper around the shared sweep."""
    return propagate_sensitivities(spec, ensemble, [(h, direction)],
                                   noise)[0]


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
    of two distinct players' responses, all in one sweep: the pairs run
    as one stack of the response step, forced bilinearly in the two
    first-order sensitivities plus the direction/state cross terms.
    """
    _check_pair(ensemble, noise)
    for sens_h, sens_l in pairs:
        if sens_h.perturbed_player == sens_l.perturbed_player:
            raise ValueError("mixed sensitivity requires two distinct players")
        if sens_h.seed != ensemble.seed or sens_l.seed != ensemble.seed:
            raise ValueError(
                "sensitivities must be built on the same ensemble")
    N, M, P = spec.n_players, ensemble.grid.n_steps, ensemble.n_paths
    R = len(pairs)
    Z = np.zeros((R, P, M + 1, N))  # Z[q] is pair q's contiguous history
    z = np.zeros((P, R, N))
    forcing = (np.empty((P, R, N)), np.empty((P, R, N)))
    for k, t, vc in _linearizations(spec, ensemble):
        so = _second_order_slices(spec, vc.slice)
        for q, (sens_h, sens_l) in enumerate(pairs):
            forcing[0][:, q], forcing[1][:, q] = _bilinear_sources(
                so, sens_h.values[:, k, :], sens_l.values[:, k, :],
                sens_h.direction(t, k, noise.increments),
                sens_l.direction(t, k, noise.increments),
                sens_h.perturbed_player, sens_l.perturbed_player,
                with_joint_hessian=True)
        z = _response_step(vc, z, ensemble.grid.dt,
                           noise.increments[:, k, :N], forcing=forcing)
        Z[:, :, k + 1, :] = z.transpose(1, 0, 2)
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
