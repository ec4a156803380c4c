"""Regression Monte Carlo solvers for linear backward SDEs.

The generic solver runs backward induction with least-squares
conditional expectations on a global polynomial basis of the state:

* terminal layer is the terminal functional evaluated pathwise;
* the martingale component of driver j at step k is the regression of
  next-layer value times that driver's increment, divided by dt; the
  projection is linear in its targets, so every driver's target is a
  column block of one stacked fit per step (one moment contraction,
  one normal-equation solve, one fitted contraction);
* the value layer at step k is the regression of next-layer value plus
  dt times the (explicitly evaluated) affine driver.

The first- and second-order adjoint systems of a game are instances of
this solver: the first is vector-valued with the transposed
linearization coefficients, the second is the row-major vectorization
of a matrix-valued system whose driver couples the unknown through the
same coefficients on both sides and is forced by cost Hessians plus
first-adjoint-weighted coefficient Hessians.

Every solver runs through one backward loop.  The adjoint sweep solves
the first-order systems of any set of players and the matrix systems of
any subset of them in one pass with one linearization per step, and
yields each step's layers with that slice data, so the derivative
contractions consume the layers as they are solved; the stored solves
are thin consumers of the same sweep.

All reductions go through ``np.einsum`` so results do not depend on
BLAS threading.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .model import ControlProfile, GameSpec, NoiseBundle, Slice
from .sim import (PathEnsemble, SensitivityEnsemble, VariationalCoefficients,
                  _second_order_slices, assemble_variational)

__all__ = [
    "RegressionBasis",
    "LinearBsdeSpec",
    "BsdeSolution",
    "AdjointSolution",
    "SecondAdjointSolution",
    "solve_linear_bsde",
    "apriori_constant",
    "apriori_bound_check",
    "solve_first_adjoint",
    "solve_first_adjoints",
    "solve_second_adjoint",
    "MatrixItoProcess",
    "trace_duality_residual",
    "sensitivity_outer_process",
    "second_adjoint_process",
]


@dataclass(frozen=True)
class RegressionBasis:
    """Global polynomial basis: constant, coordinates, and all degree-2
    monomials of the N state coordinates.  Columns are standardized per
    step before the normal equations are formed."""

    ridge: float = 1e-8
    ridge_max: float = 1e-2
    cond_limit: float = 1e12

    def design(self, x: np.ndarray) -> np.ndarray:
        P, N = x.shape
        cols = [np.ones(P)]
        for a in range(N):
            cols.append(x[:, a])
        for a in range(N):
            for b in range(a, N):
                cols.append(x[:, a] * x[:, b])
        return np.stack(cols, axis=1)

    def n_features(self, n_states: int) -> int:
        return 1 + n_states + n_states * (n_states + 1) // 2


@dataclass
class StepDiagnostics:
    step: int
    basis_size: int
    condition: float
    ridge: float
    residual_norm: float
    martingale_residual_norm: float


class _Regressor:
    """Per-step least squares with ridge escalation on ill-conditioning."""

    def __init__(self, basis: RegressionBasis, x: np.ndarray, step: int):
        phi = basis.design(x)
        # standardize non-constant columns for conditioning
        mu = phi.mean(axis=0)
        sd = phi.std(axis=0)
        sd[sd < 1e-300] = 1.0
        mu[0], sd[0] = 0.0, 1.0
        self.phi = (phi - mu) / sd
        self.basis = basis
        gram = np.einsum("pf,pg->fg", self.phi, self.phi, optimize=False)
        # absolute ridge: invisible on healthy standardized columns
        # (normal-equation orthogonality stays at rounding level), a
        # pivot for genuinely degenerate ones
        lam = basis.ridge
        cond = np.linalg.cond(gram + lam * np.eye(gram.shape[0]))
        while cond > basis.cond_limit and lam < basis.ridge_max:
            lam *= 10.0
            cond = np.linalg.cond(gram + lam * np.eye(gram.shape[0]))
        if cond > basis.cond_limit:
            raise np.linalg.LinAlgError(
                f"regression singular at step {step} "
                f"(condition {cond:.3e} after ridge escalation)")
        self.gram = gram + lam * np.eye(gram.shape[0])
        self.cond = float(cond)
        self.lam = float(lam)
        self.step = step
        self.residual_norm = 0.0
        self.martingale_residual_norm = 0.0

    def fit(self, targets: np.ndarray) -> np.ndarray:
        """Fitted values (P, m) of the conditional expectation of each
        target column given the step's state."""
        moments = np.einsum("pf,pm->fm", self.phi, targets, optimize=False)
        coef = np.linalg.solve(self.gram, moments)
        fitted = np.einsum("pf,fm->pm", self.phi, coef, optimize=False)
        resid = targets - fitted
        np.square(resid, out=resid)
        self.residual_norm = float(np.sqrt(np.mean(resid)))
        return fitted

    def fit_martingale(self, ynext: np.ndarray, dw: np.ndarray,
                       dt: float) -> np.ndarray:
        """Martingale components (P, d, m) of every driver: the stacked
        fit of ``ynext * dw[:, j] / dt`` for each of the d drivers."""
        t = ynext[:, None, :] * dw[:, :, None]
        t /= dt
        P, d, m = t.shape
        fitted = self.fit(t.reshape(P, d * m)).reshape(P, d, m)
        self.martingale_residual_norm = self.residual_norm
        return fitted

    def diagnostics(self) -> StepDiagnostics:
        return StepDiagnostics(self.step, self.phi.shape[1], self.cond,
                               self.lam, self.residual_norm,
                               self.martingale_residual_norm)


@dataclass
class LinearBsdeSpec:
    """Linear backward system: value dimension m, driver count d.

    ``terminal(ensemble) -> (P, m)``; ``value_coef(k, ensemble) ->
    (P, m, m)`` multiplies the value, ``driver_coef(k, j, ensemble) ->
    (P, m, m)`` multiplies driver j's martingale component, and
    ``forcing(k, ensemble) -> (P, m)`` is the affine part.  Any of the
    coefficient callables may be None (zero).
    """

    m: int
    d: int
    terminal: Callable
    value_coef: Optional[Callable] = None
    driver_coef: Optional[Callable] = None
    forcing: Optional[Callable] = None


@dataclass
class BsdeSolution:
    y: np.ndarray  # (P, M+1, m)
    z: np.ndarray  # (P, M, d, m)
    diagnostics: list

    def diagnostics_jsonable(self) -> list:
        return [asdict(d) for d in self.diagnostics]


def _backward(ensemble: PathEnsemble, noise: NoiseBundle,
              basis: RegressionBasis, d: int, terminal: np.ndarray, step):
    """The backward loop of every solver: at each step k from M-1 down
    to 0 one regressor fits the martingale components (P, d, m) of
    every column of the next value layer (P, m) in one stacked fit, and
    ``step(k, reg, ynext, z)`` returns the fitted value layer and what
    to yield."""
    if ensemble.seed != noise.seed or ensemble.grid != noise.grid:
        raise ValueError("ensemble and noise bundle must share seed and grid")
    dt = ensemble.grid.dt
    ynext = terminal
    for k in range(ensemble.grid.n_steps - 1, -1, -1):
        reg = _Regressor(basis, ensemble.states[:, k, :], k)
        z = reg.fit_martingale(ynext, noise.increments[:, k, :d], dt)
        ynext, out = step(k, reg, ynext, z)
        yield out


def solve_linear_bsde(spec: LinearBsdeSpec, ensemble: PathEnsemble,
                      noise: NoiseBundle,
                      basis: RegressionBasis = RegressionBasis()) -> BsdeSolution:
    """Backward induction with least-squares conditional expectations."""
    M = ensemble.grid.n_steps
    P = ensemble.n_paths
    dt = ensemble.grid.dt
    m, d = spec.m, spec.d

    y = np.empty((P, M + 1, m))
    z = np.empty((P, M, d, m))
    y[:, M, :] = np.asarray(spec.terminal(ensemble), dtype=float).reshape(P, m)
    if not np.all(np.isfinite(y[:, M, :])):
        raise FloatingPointError("non-finite terminal values")

    def step(k, reg, ynext, zk):
        z[:, k] = zk
        driver = np.zeros((P, m))
        if spec.value_coef is not None:
            A = spec.value_coef(k, ensemble)
            driver += np.einsum("pab,pb->pa", A, ynext, optimize=False)
        if spec.driver_coef is not None:
            for j in range(d):
                B = spec.driver_coef(k, j, ensemble)
                if B is not None:
                    driver += np.einsum("pab,pb->pa", B, z[:, k, j, :],
                                        optimize=False)
        if spec.forcing is not None:
            driver += spec.forcing(k, ensemble)
        y[:, k, :] = reg.fit(ynext + dt * driver)
        return y[:, k, :], reg.diagnostics()

    diags = list(_backward(ensemble, noise, basis, d, y[:, M, :], step))
    return BsdeSolution(y=y, z=z, diagnostics=diags[::-1])


def apriori_constant(c1: float, d: int, T: float) -> float:
    """Closed-form constant of the energy bound for the linear system.

    Built from the coefficient norm bound ``c1``, the driver count, and
    the horizon, via the Burkholder-Davis-Gundy / Gronwall chain with
    every intermediate constant kept explicit.  Always >= 1.
    """
    kappa = 2.0 * c1 + 2.0 * c1 * c1 * d
    expk = math.exp(kappa)
    c3 = T * kappa * expk + 1.0
    s = c3 + expk
    kcap = c1 * c1 * (d + 1) + 1.0
    a_y = 8.0 * (kcap * s + 1.0)
    b_y = 8.0 * (2.0 * kcap**2 * s**2 + 1.0)
    a_z = s + a_y / (2.0 * kcap)
    b_z = 2.0 * kcap * s**2 + b_y / (2.0 * kcap)
    return max(a_y + a_z, b_y + b_z)


def apriori_bound_check(spec: LinearBsdeSpec, solution: BsdeSolution,
                        ensemble: PathEnsemble, noise: NoiseBundle) -> dict:
    """Energy of the solved pair versus the closed-form bound.

    lhs is the sample mean of sup_t |y|^2 plus the time-integrated
    squared martingale components; rhs is the constant (assembled from
    the worst sampled Frobenius norms of the coefficients) times the
    sample mean of |terminal|^2 + (int |forcing| dt)^2.
    """
    M = ensemble.grid.n_steps
    dt = ensemble.grid.dt
    P = ensemble.n_paths

    c1 = 0.0
    fint = np.zeros(P)
    for k in range(M):
        if spec.value_coef is not None:
            A = spec.value_coef(k, ensemble)
            c1 = max(c1, float(np.max(np.sqrt(
                np.einsum("pab,pab->p", A, A, optimize=False)))))
        if spec.driver_coef is not None:
            for j in range(spec.d):
                B = spec.driver_coef(k, j, ensemble)
                if B is not None:
                    c1 = max(c1, float(np.max(np.sqrt(
                        np.einsum("pab,pab->p", B, B, optimize=False)))))
        if spec.forcing is not None:
            f = spec.forcing(k, ensemble)
            fint += np.sqrt(np.einsum("pa,pa->p", f, f, optimize=False)) * dt

    ysq = np.einsum("pka,pka->pk", solution.y, solution.y, optimize=False)
    lhs = float(np.mean(np.max(ysq, axis=1))
                + np.mean(np.einsum("pkja,pkja->p", solution.z, solution.z,
                                    optimize=False)) * dt)
    xi = solution.y[:, M, :]
    const = apriori_constant(c1, spec.d, ensemble.grid.horizon)
    rhs = const * float(np.mean(
        np.einsum("pa,pa->p", xi, xi, optimize=False) + fint**2))
    return {"lhs": lhs, "rhs": rhs, "constant": const, "coef_norm": c1,
            "ratio": lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf)}


@dataclass
class AdjointSolution:
    """First-order adjoint pair for one player.

    ``P_vals[p, k, :]`` is the costate vector; ``Q_vals[p, k, j, :]``
    the martingale loading of driver j.
    """

    player: int
    P_vals: np.ndarray  # (P, M+1, N)
    Q_vals: np.ndarray  # (P, M, D, N)
    diagnostics: list


@dataclass
class SecondAdjointSolution:
    """Matrix-valued adjoint for one player; slices are symmetric.

    The backward system does not depend on which pair of players is
    being differentiated, so one solve serves every pair.
    """

    player: int
    P2: np.ndarray  # (P, M+1, N, N)
    Q2: np.ndarray  # (P, M, D, N, N)
    diagnostics: list


@dataclass(frozen=True)
class AdjointStep:
    """One backward step's solved layers and the slice data they were
    solved with.  Costates and loadings are ordered as the sweep's
    ``players``, matrix layers as its ``second`` players."""

    k: int
    vc: VariationalCoefficients
    slices: Optional[dict]           # second partials, with matrix layers
    costates: np.ndarray             # (P, Q, N)
    loadings: np.ndarray             # (P, D, Q, N)
    matrices: Optional[np.ndarray]   # (P, S, N, N)
    matrix_loadings: Optional[np.ndarray]  # (P, D, S, N, N)
    diagnostics: StepDiagnostics


def _matrix_driver(B0, rows, so, mat, zmat, fyy, costate, qdiag):
    """Driver of one player's matrix system at one step, on its layer
    ``mat`` and martingale components ``zmat`` (P, D, N, N): the
    transposed drift linearization ``B0`` from the left and ``B0`` from
    the right, each driver's matrix (supported on row j of ``rows``)
    sandwiching the layer and hitting its martingale component from
    both sides, plus the forcing: the running-cost Hessian ``fyy`` and
    the pure joint-state coefficient Hessians of ``so`` weighted by the
    costate pair (``costate``, and ``qdiag``, each driver's own
    component of its loading)."""
    out = np.einsum("pba,pbc->pac", B0, mat, optimize=False)
    out += np.einsum("pab,pbc->pac", mat, B0, optimize=False)
    N = mat.shape[-1]
    diag = mat[:, np.arange(N), np.arange(N)]
    out += np.einsum("pj,pja,pjb->pab", diag, rows, rows, optimize=False)
    for j in range(N):
        # driver matrix j has a single row; its transpose against the
        # martingale layer contributes two outer-product terms
        out += np.einsum("pa,pb->pab", rows[:, j, :], zmat[:, j, j, :],
                         optimize=False)
        out += np.einsum("pa,pb->pab", zmat[:, j, :, j], rows[:, j, :],
                         optimize=False)
    out += fyy
    out += so["b"][4].weighted(costate)
    out += so["s"][4].weighted(qdiag)
    return out


def _adjoint_sweep(spec, ensemble, noise, basis, players, second=()):
    """Backward sweep of the costate systems of ``players`` and the
    matrix systems of the players in ``second``, each also in
    ``players`` because its step-k costate pair forces its matrix
    system.  A costate system has the terminal-cost gradient as terminal
    value and the transposed linearization plus the running-cost
    gradient as driver; a matrix system has the terminal-cost Hessian
    and ``_matrix_driver``, and each fitted layer is symmetrized.
    Own-slot curvature is booked in the derivative integrands instead,
    the split under which the product-trace identities close.

    The systems share every coefficient, so each step assembles one
    linearization, evaluates the second partials once when matrix
    layers are asked for, and fits every layer's martingale components
    as stacked columns of one regressor; then comes the costate value
    fit, then the matrix value fit, whose driver reads the step's
    costates.  Yields the terminal layers ``(costates (P, Q, N),
    matrices (P, S, N, N))``, then one ``AdjointStep`` per step, k =
    M-1 down to 0."""
    players, second = list(players), list(second)
    N, D = spec.n_players, spec.n_drivers
    P = ensemble.n_paths
    dt = ensemble.grid.dt
    Q, S = len(players), len(second)
    own = [players.index(p) for p in second]
    cols = Q * N

    def split(layer):
        lead = layer.shape[:-1]
        return (layer[..., :cols].reshape(lead + (Q, N)),
                layer[..., cols:].reshape(lead + (S, N, N)))

    terminal = np.empty((P, cols + S * N * N))
    costates, matrices = split(terminal)
    xT = ensemble.states[:, -1, :]
    end = Slice(ensemble.grid.horizon, xT, xT)
    costates[:] = spec.terminal_cost.dy(end)[:, players]
    if S:
        matrices[:] = spec.terminal_cost.dyy(end)[:, second]
    yield costates, matrices

    def step(k, reg, ynext, z):
        ycost, ymat = split(ynext)
        zcost, zmat = split(z)
        t = ensemble.grid.nodes[k]
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        vc = assemble_variational(spec, t, x, u)
        B0 = vc.drift_state()
        driver = np.einsum("pba,pqb->pqa", B0, ycost, optimize=False)
        for j in range(N):
            # driver matrix j is the transpose of a single-row matrix
            driver += np.einsum("pa,pq->pqa", vc.diffusion_row(j),
                                zcost[:, j, :, j], optimize=False)
        driver += spec.running_cost.dy(vc.slice)[:, players]
        costates = reg.fit((ycost + dt * driver).reshape(P, cols)).reshape(
            P, Q, N)
        if not S:
            return costates.reshape(P, cols), AdjointStep(
                k, vc, None, costates, zcost, None, None, reg.diagnostics())
        so = _second_order_slices(spec, vc.slice)
        rows = np.stack([vc.diffusion_row(j) for j in range(N)], axis=1)
        fyy = spec.running_cost.dyy(vc.slice)
        targets = np.empty((P, S, N, N))
        for s, (p, q) in enumerate(zip(second, own)):
            qdiag = np.stack([zcost[:, j, q, j] for j in range(N)], axis=1)
            driver = _matrix_driver(B0, rows, so, ymat[:, s], zmat[:, :, s],
                                    fyy[:, p], costates[:, q], qdiag)
            targets[:, s] = ymat[:, s] + dt * driver
        fitted = reg.fit(targets.reshape(P, S * N * N)).reshape(P, S, N, N)
        matrices = 0.5 * (fitted + np.swapaxes(fitted, 2, 3))
        layer = np.concatenate([costates.reshape(P, cols),
                                matrices.reshape(P, S * N * N)], axis=1)
        return layer, AdjointStep(k, vc, so, costates, zcost, matrices,
                                  zmat, reg.diagnostics())

    yield from _backward(ensemble, noise, basis, D, terminal, step)


def solve_first_adjoints(spec: GameSpec, controls: ControlProfile,
                         ensemble: PathEnsemble, noise: NoiseBundle,
                         basis: RegressionBasis, players) -> list:
    """Costate systems for several players, every step's layers stored."""
    players = list(players)
    P, M = ensemble.n_paths, ensemble.grid.n_steps
    y = np.empty((P, M + 1, len(players), spec.n_players))
    z = np.empty((P, M, spec.n_drivers, len(players), spec.n_players))
    sweep = _adjoint_sweep(spec, ensemble, noise, basis, players)
    y[:, M] = next(sweep)[0]
    diags = []
    for step in sweep:
        y[:, step.k], z[:, step.k] = step.costates, step.loadings
        diags.append(step.diagnostics)
    # basic slices: views into the shared solve buffers, no copies
    return [AdjointSolution(player=p, P_vals=y[:, :, q, :],
                            Q_vals=z[:, :, :, q, :],
                            diagnostics=diags[::-1])
            for q, p in enumerate(players)]


def solve_first_adjoint(spec: GameSpec, controls: ControlProfile,
                        ensemble: PathEnsemble, noise: NoiseBundle,
                        basis: RegressionBasis, player: int) -> AdjointSolution:
    """Costate system whose terminal value is the terminal-cost gradient
    and whose driver transposes the state linearization."""
    return solve_first_adjoints(spec, controls, ensemble, noise, basis,
                                [player])[0]


def solve_second_adjoint(spec: GameSpec, ensemble: PathEnsemble,
                         noise: NoiseBundle, basis: RegressionBasis,
                         player: int) -> SecondAdjointSolution:
    """Matrix-valued backward system of one player (see
    ``_adjoint_sweep``), every step's layers stored; its costate pair is
    solved alongside and dropped."""
    N, D = spec.n_players, spec.n_drivers
    P, M = ensemble.n_paths, ensemble.grid.n_steps
    P2 = np.empty((P, M + 1, N, N))
    Q2 = np.empty((P, M, D, N, N))
    sweep = _adjoint_sweep(spec, ensemble, noise, basis, [player], [player])
    P2[:, M] = next(sweep)[1][:, 0]
    diags = []
    for step in sweep:
        P2[:, step.k] = step.matrices[:, 0]
        Q2[:, step.k] = step.matrix_loadings[:, :, 0]
        diags.append(step.diagnostics)
    return SecondAdjointSolution(player=player, P2=P2, Q2=Q2,
                                 diagnostics=diags[::-1])


@dataclass
class MatrixItoProcess:
    """Matrix process with recorded drift/diffusion decomposition."""

    values: np.ndarray     # (P, M+1, n, n)
    drift: np.ndarray      # (P, M, n, n)
    diffusion: np.ndarray  # (P, M, D, n, n)


def trace_duality_residual(p_like: MatrixItoProcess,
                           y_like: MatrixItoProcess, dt: float):
    """Pathwise defect of the product-trace identity.

    For matrix processes dY = Phi dt + sum_j Psi^j dW^j and
    dP = Theta dt + sum_j Q^j dW^j, the expected trace of P_T Y_T minus
    that of P_0 Y_0 equals the expected time integral of
    tr[Theta Y + P Phi + sum_j Q^j Psi^j].  Returns (residual, se).
    """
    if p_like.values.shape != y_like.values.shape:
        raise ValueError("shape mismatch between the two processes")
    term = np.einsum("pab,pba->p", p_like.values[:, -1], y_like.values[:, -1],
                     optimize=False)
    start = np.einsum("pab,pba->p", p_like.values[:, 0], y_like.values[:, 0],
                      optimize=False)
    integ = (np.einsum("pkab,pkba->p", p_like.drift, y_like.values[:, :-1],
                       optimize=False)
             + np.einsum("pkab,pkba->p", p_like.values[:, :-1], y_like.drift,
                         optimize=False)
             + np.einsum("pkjab,pkjba->p", p_like.diffusion, y_like.diffusion,
                         optimize=False)) * dt
    per_path = term - start - integ
    n = per_path.shape[0]
    return float(abs(np.mean(per_path))), float(per_path.std(ddof=1) / np.sqrt(n))


def sensitivity_outer_process(spec: GameSpec, ensemble: PathEnsemble,
                              noise: NoiseBundle, sens_h: SensitivityEnsemble,
                              sens_l: SensitivityEnsemble) -> MatrixItoProcess:
    """Outer product of two first-order sensitivities with its exact
    drift/diffusion decomposition (product rule plus covariation)."""
    h, l = sens_h.perturbed_player, sens_l.perturbed_player
    N = spec.n_players
    M = ensemble.grid.n_steps
    P = ensemble.n_paths
    vals = np.einsum("pka,pkb->pkab", sens_l.values, sens_h.values,
                     optimize=False)
    drift = np.empty((P, M, N, N))
    diffusion = np.zeros((P, M, N, N, N))
    for k in range(M):
        t = ensemble.grid.nodes[k]
        vc = assemble_variational(spec, t, ensemble.states[:, k, :],
                                  ensemble.realized_controls[:, k, :])
        yh = sens_h.values[:, k, :]
        yl = sens_l.values[:, k, :]
        du_h = sens_h.direction(t, k, noise.increments)
        du_l = sens_l.direction(t, k, noise.increments)
        B0 = vc.drift_state()
        Y = vals[:, k]
        d = (np.einsum("pab,pcb->pac", Y, B0, optimize=False)
             + np.einsum("pab,pbc->pac", B0, Y, optimize=False))
        d += np.einsum("pa,pb,p->pab", yl, vc.drift_control(h), du_h,
                       optimize=False)
        d += np.einsum("pa,pb,p->pab", vc.drift_control(l), yh, du_l,
                       optimize=False)
        for j in range(N):
            Pi = vc.diffusion_state(j)
            sh = np.einsum("pab,pb->pa", Pi, yh, optimize=False)
            sl = np.einsum("pab,pb->pa", Pi, yl, optimize=False)
            if j == h:
                sh = sh + vc.diffusion_control(h) * du_h[:, None]
            if j == l:
                sl = sl + vc.diffusion_control(l) * du_l[:, None]
            d += np.einsum("pa,pb->pab", sl, sh, optimize=False)
            diffusion[:, k, j] = (np.einsum("pab,pcb->pac", Y, Pi,
                                            optimize=False)
                                  + np.einsum("pab,pbc->pac", Pi, Y,
                                              optimize=False))
            if j == h:
                diffusion[:, k, j] += np.einsum(
                    "pa,pb,p->pab", yl, vc.diffusion_control(h), du_h,
                    optimize=False)
            if j == l:
                diffusion[:, k, j] += np.einsum(
                    "pa,pb,p->pab", vc.diffusion_control(l), yh, du_l,
                    optimize=False)
        drift[:, k] = d
    return MatrixItoProcess(values=vals, drift=drift, diffusion=diffusion)


def second_adjoint_process(spec: GameSpec, ensemble: PathEnsemble,
                           first: AdjointSolution,
                           second: SecondAdjointSolution) -> MatrixItoProcess:
    """The solved matrix adjoint as an Ito process: drift is minus the
    driver recomputed at each step's stored layers, diffusion the
    stored martingale loadings."""
    N = spec.n_players
    M = ensemble.grid.n_steps
    P = ensemble.n_paths
    drift = np.empty((P, M, N, N))
    for k in range(M):
        t = ensemble.grid.nodes[k]
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        vc = assemble_variational(spec, t, x, u)
        rows = np.stack([vc.diffusion_row(j) for j in range(N)], axis=1)
        qdiag = np.stack([first.Q_vals[:, k, j, j] for j in range(N)], axis=1)
        drift[:, k] = -_matrix_driver(
            vc.drift_state(), rows, _second_order_slices(spec, vc.slice),
            second.P2[:, k], second.Q2[:, k],
            spec.running_cost.dyy(vc.slice)[:, second.player],
            first.P_vals[:, k, :], qdiag)
    return MatrixItoProcess(values=second.P2,
                            drift=drift,
                            diffusion=second.Q2[:, :, :N, :, :])
