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

One per-step backward sweep solves the first-order systems of any set
of players together; it serves the stored solve and the potential's
line integral, which contracts each step's layers as they are solved.

All reductions go through ``np.einsum`` so results do not depend on
BLAS threading.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .model import ControlProfile, GameSpec, NoiseBundle
from .sim import PathEnsemble, SensitivityEnsemble, assemble_variational

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
    coefficient callables may be None (zero).  ``postprocess`` is
    applied to each fitted value layer (the matrix-valued instance
    symmetrizes there).
    """

    m: int
    d: int
    terminal: Callable
    value_coef: Optional[Callable] = None
    driver_coef: Optional[Callable] = None
    forcing: Optional[Callable] = None
    postprocess: Optional[Callable] = None


@dataclass
class BsdeSolution:
    y: np.ndarray  # (P, M+1, m)
    z: np.ndarray  # (P, M, d, m)
    diagnostics: list

    def diagnostics_jsonable(self) -> list:
        return [asdict(d) for d in self.diagnostics]


def solve_linear_bsde(spec: LinearBsdeSpec, ensemble: PathEnsemble,
                      noise: NoiseBundle,
                      basis: RegressionBasis = RegressionBasis()) -> BsdeSolution:
    """Backward induction with least-squares conditional expectations."""
    if ensemble.seed != noise.seed or ensemble.grid != noise.grid:
        raise ValueError("ensemble and noise bundle must share seed and grid")
    M = ensemble.grid.n_steps
    P = ensemble.n_paths
    dt = ensemble.grid.dt
    m, d = spec.m, spec.d

    y = np.empty((P, M + 1, m))
    z = np.empty((P, M, d, m))
    y[:, M, :] = np.asarray(spec.terminal(ensemble), dtype=float).reshape(P, m)
    if not np.all(np.isfinite(y[:, M, :])):
        raise FloatingPointError("non-finite terminal values")
    diags = []

    for k in range(M - 1, -1, -1):
        reg = _Regressor(basis, ensemble.states[:, k, :], k)
        ynext = y[:, k + 1, :]
        z[:, k] = reg.fit_martingale(ynext, noise.increments[:, k, :d], dt)
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
        fitted = reg.fit(ynext + dt * driver)
        if spec.postprocess is not None:
            fitted = spec.postprocess(fitted)
        y[:, k, :] = fitted
        diags.append(reg.diagnostics())
    diags.reverse()
    return BsdeSolution(y=y, z=z, diagnostics=diags)


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

    def q_own_component(self, h: int) -> np.ndarray:
        """Component h of driver h's loading, shape (P, M)."""
        return self.Q_vals[:, :, h, h]


def _first_adjoint_sweep(spec, ensemble, noise, basis, players):
    """Backward sweep of the costate systems of ``players``, which share
    every coefficient, so each step fits all Q players' layers as
    stacked columns of one regressor.  Yields the terminal value layer
    (P, Q, N), then ``(k, value layer (P, Q, N), martingale layer
    (P, D, Q, N), diagnostics)`` for k = M-1 down to 0."""
    if ensemble.seed != noise.seed or ensemble.grid != noise.grid:
        raise ValueError("ensemble and noise bundle must share seed and grid")
    N, D = spec.n_players, spec.n_drivers
    P = ensemble.n_paths
    dt = ensemble.grid.dt
    Q = len(players)

    ynext = np.empty((P, Q, N))
    xT = ensemble.states[:, -1, :]
    for q, p in enumerate(players):
        ynext[:, q, :] = spec.terminal_cost[p].dy(xT)
    yield ynext

    for k in range(ensemble.grid.n_steps - 1, -1, -1):
        reg = _Regressor(basis, ensemble.states[:, k, :], k)
        z = reg.fit_martingale(ynext.reshape(P, Q * N),
                               noise.increments[:, k, :D],
                               dt).reshape(P, D, Q, N)
        t = ensemble.grid.nodes[k]
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        vc = assemble_variational(spec, t, x, u)
        B0 = vc.drift_state()
        driver = np.einsum("pba,pqb->pqa", B0, ynext, optimize=False)
        for j in range(N):
            # driver matrix j is the transpose of a single-row matrix
            driver += np.einsum("pa,pq->pqa", vc.diffusion_row(j),
                                z[:, j, :, j], optimize=False)
        for q, p in enumerate(players):
            driver[:, q, :] += spec.running_cost[p].dy(t, x, u)
        ynext = reg.fit((ynext + dt * driver).reshape(P, Q * N)).reshape(
            P, Q, N)
        yield k, ynext, z, reg.diagnostics()


def solve_first_adjoints(spec: GameSpec, controls: ControlProfile,
                         ensemble: PathEnsemble, noise: NoiseBundle,
                         basis: RegressionBasis, players) -> list:
    """Costate systems for several players, every step's layers stored."""
    players = list(players)
    P, M = ensemble.n_paths, ensemble.grid.n_steps
    y = np.empty((P, M + 1, len(players), spec.n_players))
    z = np.empty((P, M, spec.n_drivers, len(players), spec.n_players))
    sweep = _first_adjoint_sweep(spec, ensemble, noise, basis, players)
    y[:, M] = next(sweep)
    diags = []
    for k, yk, zk, diag in sweep:
        y[:, k], z[:, k] = yk, zk
        diags.append(diag)
    diags.reverse()
    # basic slices: views into the shared solve buffers, no copies
    return [AdjointSolution(player=p, P_vals=y[:, :, q, :],
                            Q_vals=z[:, :, :, q, :],
                            diagnostics=diags)
            for q, p in enumerate(players)]


def solve_first_adjoint(spec: GameSpec, controls: ControlProfile,
                        ensemble: PathEnsemble, noise: NoiseBundle,
                        basis: RegressionBasis, player: int) -> AdjointSolution:
    """Costate system whose terminal value is the terminal-cost gradient
    and whose driver transposes the state linearization."""
    return solve_first_adjoints(spec, controls, ensemble, noise, basis,
                                [player])[0]


def coefficient_hessians(spec: GameSpec, ensemble: PathEnsemble, k: int):
    """Pure joint-state Hessians of each player's drift and diffusion.

    Only the explicit joint-state slot is differentiated; own-slot
    curvature is booked in the derivative integrands instead, which is
    the split under which the product-trace identities close.  Returns
    (Hb, Hs), each (P, N, N, N) with [:, i] the Hessian of player i's
    coefficient.
    """
    t = ensemble.grid.nodes[k]
    x = ensemble.states[:, k, :]
    u = ensemble.realized_controls[:, k, :]
    P, N = x.shape
    Hb = np.empty((P, N, N, N))
    Hs = np.empty((P, N, N, N))
    for i in range(N):
        xi, ui = x[:, i], u[:, i]
        Hb[:, i] = spec.drift[i].dyy(t, xi, x, ui)
        Hs[:, i] = spec.diffusion[i].dyy(t, xi, x, ui)
    return Hb, Hs


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


def _lyapunov_action(vc, mat):
    """Driver action on a matrix layer: transposed drift linearization
    from the left, drift linearization from the right, plus each
    driver's diffusion matrix sandwiching the layer.  Exploits the
    single-row support of the diffusion matrices."""
    B0 = vc.drift_state()
    out = np.einsum("pba,pbc->pac", B0, mat, optimize=False)
    out += np.einsum("pab,pbc->pac", mat, B0, optimize=False)
    N = mat.shape[-1]
    rows = np.stack([vc.diffusion_row(j) for j in range(N)], axis=1)  # (P,j,a)
    diag = mat[:, np.arange(N), np.arange(N)]
    out += np.einsum("pj,pja,pjb->pab", diag, rows, rows, optimize=False)
    return out, rows


def solve_second_adjoint(spec: GameSpec, ensemble: PathEnsemble,
                         noise: NoiseBundle, basis: RegressionBasis,
                         player: int,
                         first: AdjointSolution) -> SecondAdjointSolution:
    """Matrix-valued backward system, regression on the vectorized
    layers, driver applied in matrix form.

    Driver: the unknown matrix is hit by the transposed drift
    linearization on the left and the drift linearization on the right,
    sandwiched between each driver's diffusion matrix, and each
    martingale component is hit from both sides by its driver's matrix;
    forcing is the running-cost joint Hessian plus the coefficient
    Hessians weighted by the first-order costate.  Terminal value is
    the terminal-cost Hessian.  Each fitted layer is symmetrized.
    """
    if first.player != player:
        raise ValueError("first-order adjoint was solved for another player")
    if ensemble.seed != noise.seed or ensemble.grid != noise.grid:
        raise ValueError("ensemble and noise bundle must share seed and grid")
    N, D = spec.n_players, spec.n_drivers
    M = ensemble.grid.n_steps
    P = ensemble.n_paths
    dt = ensemble.grid.dt
    m = N * N

    P2 = np.empty((P, M + 1, N, N))
    Q2 = np.empty((P, M, D, N, N))
    P2[:, M] = spec.terminal_cost[player].dyy(ensemble.states[:, -1, :])
    diags = []

    for k in range(M - 1, -1, -1):
        reg = _Regressor(basis, ensemble.states[:, k, :], k)
        ynext = P2[:, k + 1]
        Q2[:, k] = reg.fit_martingale(ynext.reshape(P, m),
                                      noise.increments[:, k, :D],
                                      dt).reshape(P, D, N, N)
        t = ensemble.grid.nodes[k]
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        vc = assemble_variational(spec, t, x, u)
        driver, rows = _lyapunov_action(vc, ynext)
        for j in range(N):
            # driver matrix j has a single row; its transpose against
            # the martingale layer contributes two outer-product terms
            zrow = Q2[:, k, j, j, :]            # row j of layer j
            zcol = Q2[:, k, j, :, j]            # column j of layer j
            driver += np.einsum("pa,pb->pab", rows[:, j, :], zrow,
                                optimize=False)
            driver += np.einsum("pa,pb->pab", zcol, rows[:, j, :],
                                optimize=False)
        driver += spec.running_cost[player].dyy(t, x, u)
        Hb, Hs = coefficient_hessians(spec, ensemble, k)
        driver += np.einsum("pi,piab->pab", first.P_vals[:, k, :], Hb,
                            optimize=False)
        qdiag = np.stack([first.Q_vals[:, k, j, j] for j in range(N)], axis=1)
        driver += np.einsum("pj,pjab->pab", qdiag, Hs, optimize=False)

        fitted = reg.fit((ynext + dt * driver).reshape(P, m)).reshape(P, N, N)
        P2[:, k] = 0.5 * (fitted + np.transpose(fitted, (0, 2, 1)))
        diags.append(reg.diagnostics())
    diags.reverse()
    return SecondAdjointSolution(player=player, P2=P2, Q2=Q2,
                                 diagnostics=diags)


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
    recomputed driver, diffusion the stored martingale loadings."""
    N = spec.n_players
    M = ensemble.grid.n_steps
    P = ensemble.n_paths
    drift = np.empty((P, M, N, N))
    for k in range(M):
        t = ensemble.grid.nodes[k]
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        vc = assemble_variational(spec, t, x, u)
        B0 = vc.drift_state()
        Pmat = second.P2[:, k]
        drv = (np.einsum("pba,pbc->pac", B0, Pmat, optimize=False)
               + np.einsum("pab,pbc->pac", Pmat, B0, optimize=False))
        for j in range(N):
            Pi = vc.diffusion_state(j)
            drv += np.einsum("pba,pbc,pcd->pad", Pi, Pmat, Pi, optimize=False)
            Qj = second.Q2[:, k, j]
            drv += (np.einsum("pba,pbc->pac", Pi, Qj, optimize=False)
                    + np.einsum("pab,pbc->pac", Qj, Pi, optimize=False))
        drv += spec.running_cost[second.player].dyy(t, x, u)
        Hb, Hs = coefficient_hessians(spec, ensemble, k)
        drv += np.einsum("pi,piab->pab", first.P_vals[:, k, :], Hb,
                         optimize=False)
        qdiag = np.stack([first.Q_vals[:, k, j, j] for j in range(N)], axis=1)
        drv += np.einsum("pj,pjab->pab", qdiag, Hs, optimize=False)
        drift[:, k] = -drv
    return MatrixItoProcess(values=second.P2,
                            drift=drift,
                            diffusion=second.Q2[:, :, :N, :, :])
