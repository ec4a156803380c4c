"""Forward simulation: state paths and pathwise control sensitivities.

Explicit Euler on a uniform grid with one step of each kind, on one
NoiseBundle (common random numbers) for every perturbed ensemble.
``_euler`` advances stacked legs, one per control profile, stored
player-major, and yields each node's ``Slice``: ``simulate_paths``
records one double-precision leg, ``simulate_cost_batch`` and the
pairwise evaluator's path route consume it without storing a
trajectory.
``_response_step`` advances a (P, R, N) stack of linearized responses
on the same increments, with one linearization per step for the stack.
``_forward``, the twin of ``bsde._adjoint_sweep``, is the one forward
sweep of the linearized system over a stored ensemble: it steps the
first-order responses to (player, direction) targets and the mixed
second-order responses of pairs of them, named by target index, and
yields both stacks at every node.  ``propagate_sensitivities`` stores
the first-order histories, for the backward sweep that reads them in
reverse; ``derivatives.sens_derivatives`` contracts every response as
it is solved and stores none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .model import ControlProfile, GameSpec, NoiseBundle, Slice, TimeGrid

__all__ = [
    "PathEnsemble",
    "VariationalCoefficients",
    "simulate_paths",
    "simulate_cost_batch",
    "assemble_variational",
    "propagate_sensitivities",
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
class VariationalCoefficients:
    """First-order coefficient data of the linearized state system.

    Stored as the primitive partial arrays.  ``drift_matrix`` is the
    N x N matrix acting on the sensitivity vector in the drift (own-state
    diagonal plus joint-state block); the matrix in front of driver j is
    nonzero only in row j, ``diffusion_rows[:, j]``; both are built on
    first use and kept.  Player h's control loads the drift by ``dub[:,
    h]`` and driver h by ``dus[:, h]``, each in entry h only.  A joint
    gradient the coefficient does not supply is ``None``, read as zero.
    ``additive_noise`` holds when the diffusion supplies no first
    partial, so the responses have no diffusion term of their own.
    ``slice`` is the slice the partials were evaluated on; the step's
    second partials and cost evaluators read it too.
    """

    dxb: np.ndarray   # (P, N)
    dyb: Optional[np.ndarray]  # (P, N, N), row i = gradient of drift_i in y
    dub: np.ndarray   # (P, N)
    dxs: np.ndarray   # (P, N)
    dys: Optional[np.ndarray]  # (P, N, N)
    dus: np.ndarray   # (P, N)
    slice: Slice
    additive_noise: bool

    @cached_property
    def drift_matrix(self) -> np.ndarray:
        """(P, N, N): diagonal own-state partials plus the coupling block."""
        return _plus_diagonal(self.dyb, self.dxb)

    @cached_property
    def diffusion_rows(self) -> np.ndarray:
        """(P, N, N): row j is the only nonzero row of driver j's matrix."""
        return _plus_diagonal(self.dys, self.dxs)


def _plus_diagonal(block: Optional[np.ndarray], diag: np.ndarray):
    """(P, N, N): ``block`` (zero when None) plus ``diag`` on the diagonal,
    read-only, since every reader of the step shares it."""
    P, N = diag.shape
    out = np.zeros((P, N, N)) if block is None else block.copy()
    out.reshape(P, N * N)[:, ::N + 1] += diag
    out.flags.writeable = False
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
    single entry.  A joint gradient that is not supplied is not
    evaluated.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sl = Slice(t, x, x, np.atleast_2d(np.asarray(u, dtype=float)))
    b, s = spec.drift, spec.diffusion

    def joint(c):
        return c.dy(sl) if "dy" in c.supplied else None

    return VariationalCoefficients(
        dxb=b.dx(sl), dyb=joint(b), dub=b.du(sl),
        dxs=s.dx(sl), dys=joint(s), dus=s.du(sl), slice=sl,
        additive_noise=spec.has_additive_noise())


def _response_step(vc: VariationalCoefficients, y: np.ndarray, dt: float,
                   dw: np.ndarray, controls=(), forcing=None) -> np.ndarray:
    """The explicit Euler step of the linearized state system for a
    (P, R, N) stack of responses ``y``, with ``dw`` the step's (P, N)
    private-driver increments.  ``controls`` lists per response r the
    perturbed player h and its direction's values du, added in place at
    entry (r, h); ``forcing`` is a dense (drift, diffusion) pair.
    Terms of partials declared zero are skipped: the joint contraction
    of a gradient that is not supplied, and the diffusion response of
    additive noise without forcing.  What is skipped would add only
    exact zeros, so the result has the same bits.
    """
    def term(dx, dy, dsource, force):
        acc = dx[:, None, :] * y
        if dy is not None:
            acc += np.einsum("pij,prj->pri", dy, y, optimize=False)
        for r, (h, du) in enumerate(controls):
            acc[:, r, h] += dsource[:, h] * du
        if force is not None:
            acc += force
        return acc

    drift_force, diff_force = forcing or (None, None)
    out = term(vc.dxb, vc.dyb, vc.dub, drift_force)
    out *= dt
    out += y
    if forcing is not None or not vc.additive_noise:
        diffusion = term(vc.dxs, vc.dys, vc.dus, diff_force)
        diffusion *= dw[:, None, :]
        out += diffusion
    return out


def propagate_sensitivities(spec: GameSpec, ensemble: PathEnsemble, targets,
                            noise: NoiseBundle) -> list:
    """Euler recursion for the linearized response to control
    perturbations, on the same increments as the state.

    ``targets`` is a list of (player, direction) pairs; all responses
    share one forward sweep, so the linearization is assembled once per
    step.  Returns each target's response history, (P, M+1, N).
    """
    targets = list(targets)
    N, M, P = spec.n_players, ensemble.grid.n_steps, ensemble.n_paths
    Y = np.empty((P, M + 1, len(targets), N))
    for k, _, _, y, _ in _forward(spec, ensemble, noise, targets):
        Y[:, k] = y
    return list(np.moveaxis(Y, 2, 0))


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


def _direction_values(directions, t, k, noise):
    """Each distinct direction's values at step k, keyed by identity."""
    distinct = {id(d): d for d in directions}
    return {key: d(t, k, noise.increments) for key, d in distinct.items()}


def _forward(spec: GameSpec, ensemble: PathEnsemble, noise: NoiseBundle,
             targets=(), pairs=()):
    """The forward sweep of the linearized state system over a stored
    ensemble: the first-order response to each (player, direction) of
    ``targets``, and the mixed response of each (a, b) of ``pairs``,
    two targets of distinct players named by index, forced bilinearly
    in their responses at the node plus the direction/state cross
    terms.

    Yields ``(k, slice, direction values, y, z)`` at every node: the
    values of each target's direction keyed by identity, and the stacks
    ``y`` (P, R, N) and ``z`` (P, S, N); the terminal slice has no
    controls, and the terminal node no values.  The stacks are stepped,
    as new arrays, when the next node is asked for.  Only ``z`` reads
    second partials; affine coefficients have none, so ``z`` stays zero
    unstepped.
    """
    _check_pair(ensemble, noise)
    targets, pairs = list(targets), list(pairs)
    grid, N, P = ensemble.grid, spec.n_players, ensemble.n_paths
    y = np.zeros((P, len(targets), N))
    z = np.zeros((P, len(pairs), N))
    mixed = bool(pairs) and not spec.has_affine_coefficients()
    forcing = (np.empty(z.shape), np.empty(z.shape)) if mixed else None
    for k, t in enumerate(grid.nodes[:-1]):
        x, u = ensemble.states[:, k, :], ensemble.realized_controls[:, k, :]
        vc = assemble_variational(spec, t, x, u) if targets else None
        sl = Slice(t, x, x, u) if vc is None else vc.slice
        dvals = _direction_values([d for _, d in targets], t, k, noise)
        yield k, sl, dvals, y, z
        dw = noise.increments[:, k, :N]
        if mixed:
            so = _second_order_slices(spec, sl)
            for q, (a, b) in enumerate(pairs):
                (h, dh), (l, dl) = targets[a], targets[b]
                forcing[0][:, q], forcing[1][:, q] = _bilinear_sources(
                    so, y[:, a], y[:, b], dvals[id(dh)], dvals[id(dl)], h, l,
                    with_joint_hessian=True)
            z = _response_step(vc, z, grid.dt, dw, forcing=forcing)
        if targets:
            y = _response_step(vc, y, grid.dt, dw,
                               controls=[(h, dvals[id(d)])
                                         for h, d in targets])
        # one step's partials are held at a time
        vc = sl = so = None
    xT = ensemble.states[:, -1, :]
    yield grid.n_steps, Slice(grid.horizon, xT, xT), {}, y, z


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
