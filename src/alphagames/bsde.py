"""Regression Monte Carlo solvers for linear backward SDEs.

The generic solver runs backward induction with least-squares
conditional expectations on a global polynomial basis of the state:

* terminal layer is the terminal functional evaluated pathwise;
* the martingale component of driver j at step k is the regression of
  next-layer value times that driver's increment, divided by dt; the
  projection is linear in its targets, so every fitted target is a
  column of one stacked fit per step (one moment contraction, one
  normal-equation solve, one fitted contraction), and each solver
  chooses its columns: the generic solver fits every driver's
  component of every value column;
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
yields each step's layers with that slice data.  Driver j moves only
state j, so every driver and contraction reads driver j's martingale
component of costate entry j and of row j and column j of a matrix
layer; the sweep fits those columns and no others.  No adjoint layer is
stored: the derivative contractions and the product-trace duality check
consume each step's layers as they are solved.

All reductions go through ``np.einsum`` so results do not depend on
BLAS threading.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .model import GameSpec, NoiseBundle, Slice
from .sim import (PathEnsemble, VariationalCoefficients,
                  _second_order_slices, assemble_variational,
                  propagate_sensitivities)

__all__ = [
    "RegressionBasis",
    "LinearBsdeSpec",
    "BsdeSolution",
    "solve_linear_bsde",
    "apriori_constant",
    "apriori_bound_check",
    "trace_duality",
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
    matrix_residual_norm: Optional[float] = None  # matrix value fit's


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

    def fit_martingale(self, targets: np.ndarray) -> np.ndarray:
        """``fit`` of martingale targets (P, m), each column a next-layer
        value times one driver's increment over dt; the residual is kept
        as the martingale fit's."""
        fitted = self.fit(targets)
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
              basis: RegressionBasis, terminal: np.ndarray, step):
    """The backward loop of every solver: at each step k from M-1 down
    to 0 one regressor on the step's states, and ``step(k, reg, ynext)``
    fits the martingale columns its solver reads (one stacked
    ``fit_martingale``) and the value layer, and returns that layer and
    what to yield."""
    if ensemble.seed != noise.seed or ensemble.grid != noise.grid:
        raise ValueError("ensemble and noise bundle must share seed and grid")
    ynext = terminal
    for k in range(ensemble.grid.n_steps - 1, -1, -1):
        reg = _Regressor(basis, ensemble.states[:, k, :], k)
        ynext, out = step(k, reg, ynext)
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

    def step(k, reg, ynext):
        # every driver's component of every value column
        t = ynext[:, None, :] * noise.increments[:, k, :d, None]
        t /= dt
        z[:, k] = reg.fit_martingale(t.reshape(P, d * m)).reshape(P, d, m)
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

    diags = list(_backward(ensemble, noise, basis, y[:, M, :], step))
    return BsdeSolution(y=y, z=z, diagnostics=diags[::-1])


def apriori_constant(c1: float, d: int, T: float) -> float:
    """Closed-form constant of the energy bound for the linear system.

    Built from the coefficient norm bound ``c1``, the driver count, and
    the horizon, via the Burkholder-Davis-Gundy / Gronwall chain with
    every intermediate constant kept explicit.  Always >= 1; infinite
    when the chain overflows double precision.
    """
    kappa = 2.0 * c1 + 2.0 * c1 * c1 * d
    try:
        expk = math.exp(kappa)
        c3 = T * kappa * expk + 1.0
        s = c3 + expk
        kcap = c1 * c1 * (d + 1) + 1.0
        a_y = 8.0 * (kcap * s + 1.0)
        b_y = 8.0 * (2.0 * kcap**2 * s**2 + 1.0)
        a_z = s + a_y / (2.0 * kcap)
        b_z = 2.0 * kcap * s**2 + b_y / (2.0 * kcap)
    except OverflowError:
        return math.inf
    return max(a_y + a_z, b_y + b_z)


def apriori_bound_check(spec: LinearBsdeSpec, solution: BsdeSolution,
                        ensemble: PathEnsemble, noise: NoiseBundle) -> dict:
    """Energy of the solved pair versus the closed-form bound.

    lhs is the sample mean of sup_t |y|^2 plus the time-integrated
    squared martingale components; rhs is the constant (assembled from
    the worst sampled Frobenius norms of the coefficients) times the
    sample mean of |terminal|^2 + (int |forcing| dt)^2.  An infinite
    constant bounds nothing, so its ratio is infinite.
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
            "ratio": (lhs / rhs if 0 < rhs < np.inf
                      else (0.0 if lhs == 0 else np.inf))}


@dataclass(frozen=True)
class AdjointStep:
    """One backward step's solved layers and the slice data they were
    solved with.  Costates and loadings are ordered as the sweep's
    ``players``, matrix layers as its ``second`` players.  Only the
    martingale columns that are read are kept: ``loadings[:, q, j]`` is
    driver j's component j of costate q, and ``matrix_loadings`` is the
    pair ``(rows, columns)``, ``rows[:, s, j]`` being row j and
    ``columns[:, s, j]`` column j of driver j's component of matrix
    layer s."""

    k: int
    vc: VariationalCoefficients
    slices: Optional[dict]           # second partials, with matrix layers
    costates: np.ndarray             # (P, Q, N)
    loadings: np.ndarray             # (P, Q, N)
    matrices: Optional[np.ndarray]   # (P, S, N, N)
    matrix_loadings: Optional[tuple]  # two (P, S, N, N): rows, columns
    diagnostics: StepDiagnostics


def _matrix_driver(B0, rows, so, mat, zrow, zcol, fyy, costate, qdiag):
    """Driver of one player's matrix system at one step, on its layer
    ``mat`` and martingale components, of which driver j's row j is
    ``zrow[:, j]`` and its column j ``zcol[:, j]`` (each (P, N, N)):
    the transposed drift linearization ``B0`` from the left and ``B0``
    from the right, each driver's matrix (supported on row j of
    ``rows``) sandwiching the layer and hitting its martingale component
    from both sides, plus the forcing: the running-cost Hessian ``fyy``
    and the pure joint-state coefficient Hessians of ``so`` weighted by
    the costate pair (``costate``, and ``qdiag``, each driver's own
    component of its loading)."""
    out = np.einsum("pba,pbc->pac", B0, mat, optimize=False)
    out += np.einsum("pab,pbc->pac", mat, B0, optimize=False)
    N = mat.shape[-1]
    diag = mat[:, np.arange(N), np.arange(N)]
    out += np.einsum("pj,pja,pjb->pab", diag, rows, rows, optimize=False)
    for j in range(N):
        # driver matrix j has a single row; its transpose against the
        # martingale layer contributes two outer-product terms
        out += np.einsum("pa,pb->pab", rows[:, j, :], zrow[:, j, :],
                         optimize=False)
        out += np.einsum("pa,pb->pab", zcol[:, j, :], rows[:, j, :],
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
    layers are asked for, and fits only the martingale columns that are
    read, as stacked columns of one regressor: Q*N costate columns
    (driver j's component j) and 2*S*N*N matrix columns (driver j's row
    j and column j); driver N of a common noise is never read, so never
    fitted.  Then comes the costate value fit, then the matrix value
    fit, whose driver reads the step's costates.  Yields the terminal
    layers ``(costates (P, Q, N), matrices (P, S, N, N))``, then one
    ``AdjointStep`` per step, k = M-1 down to 0."""
    players, second = list(players), list(second)
    N = spec.n_players
    P = ensemble.n_paths
    dt = ensemble.grid.dt
    Q, S = len(players), len(second)
    own = [players.index(p) for p in second]
    cols = Q * N

    def split(layer):
        """Costate columns (.., Q, N) and matrix columns (.., -1, N, N)."""
        lead = layer.shape[:-1]
        return (layer[..., :cols].reshape(lead + (Q, N)),
                layer[..., cols:].reshape(lead + (-1, N, N)))

    terminal = np.empty((P, cols + S * N * N))
    costates, matrices = split(terminal)
    xT = ensemble.states[:, -1, :]
    end = Slice(ensemble.grid.horizon, xT, xT)
    costates[:] = spec.terminal_cost.dy(end)[:, players]
    if S:
        matrices[:] = spec.terminal_cost.dyy(end)[:, second]
    yield costates, matrices

    def step(k, reg, ynext):
        ycost, ymat = split(ynext)
        dw = noise.increments[:, k, None, :N, None]
        targets = np.empty((P, cols + 2 * S * N * N))
        tcost, tmat = split(targets)  # matrix rows, then matrix columns
        np.multiply(ycost, dw[..., 0], out=tcost)
        np.multiply(ymat, dw, out=tmat[:, :S])
        np.multiply(np.swapaxes(ymat, 2, 3), dw, out=tmat[:, S:])
        targets /= dt
        zcost, zmat = split(reg.fit_martingale(targets))
        zrow, zcol = zmat[:, :S], zmat[:, S:]
        t = ensemble.grid.nodes[k]
        x = ensemble.states[:, k, :]
        u = ensemble.realized_controls[:, k, :]
        vc = assemble_variational(spec, t, x, u)
        B0 = vc.drift_state()
        driver = np.einsum("pba,pqb->pqa", B0, ycost, optimize=False)
        for j in range(N):
            # driver matrix j is the transpose of a single-row matrix
            driver += np.einsum("pa,pq->pqa", vc.diffusion_row(j),
                                zcost[:, :, j], optimize=False)
        driver += spec.running_cost.dy(vc.slice)[:, players]
        costates = reg.fit((ycost + dt * driver).reshape(P, cols)).reshape(
            P, Q, N)
        diagnostics = reg.diagnostics()
        if not S:
            return costates.reshape(P, cols), AdjointStep(
                k, vc, None, costates, zcost, None, None, diagnostics)
        so = _second_order_slices(spec, vc.slice)
        rows = np.stack([vc.diffusion_row(j) for j in range(N)], axis=1)
        fyy = spec.running_cost.dyy(vc.slice)
        targets = np.empty((P, S, N, N))
        for s, (p, q) in enumerate(zip(second, own)):
            driver = _matrix_driver(B0, rows, so, ymat[:, s], zrow[:, s],
                                    zcol[:, s], fyy[:, p], costates[:, q],
                                    zcost[:, q])
            targets[:, s] = ymat[:, s] + dt * driver
        fitted = reg.fit(targets.reshape(P, S * N * N)).reshape(P, S, N, N)
        diagnostics.matrix_residual_norm = reg.residual_norm
        matrices = 0.5 * (fitted + np.swapaxes(fitted, 2, 3))
        layer = np.concatenate([costates.reshape(P, cols),
                                matrices.reshape(P, S * N * N)], axis=1)
        return layer, AdjointStep(k, vc, so, costates, zcost, matrices,
                                  (zrow, zcol), diagnostics)

    yield from _backward(ensemble, noise, basis, terminal, step)


def trace_duality(spec: GameSpec, ensemble: PathEnsemble, noise: NoiseBundle,
                  basis: RegressionBasis, player: int, target_h, target_l):
    """Defect of the product-trace identity between ``player``'s matrix
    adjoint P (dP = Theta dt + sum_j Q^j dW^j, Theta minus its driver)
    and the outer product Y = y_l y_h' of the first-order responses to
    the (player, direction) targets ``target_h`` = (h, dir_h) and
    ``target_l`` = (l, dir_l), built on the ensemble in one forward pass
    (dY = Phi dt + sum_j Psi^j dW^j, by the product rule):
    E tr[P_T Y_T] - E tr[P_0 Y_0] equals the expected time integral of
    tr[Theta Y + P Phi + sum_j Q^j Psi^j].

    Streamed over one backward sweep: each step's integrand is
    contracted as its layers are solved, so only a per-path accumulator
    is kept.  Driver j moves response component j only, so Y's
    diffusion is Psi^j = e_j a_j y_h' + y_l b_j e_j' with a_j, b_j the
    two responses' loadings on driver j.  Returns (residual, se)."""
    (h, dir_h), (l, dir_l) = target_h, target_l
    N, dt = spec.n_players, ensemble.grid.dt
    resp_h, resp_l = propagate_sensitivities(spec, ensemble,
                                             [target_h, target_l], noise)

    def pair(mat, k):
        """tr[mat Y_k] = y_h' mat y_l, per path."""
        return np.einsum("pa,pab,pb->p", resp_h[:, k], mat, resp_l[:, k],
                         optimize=False)

    sweep = _adjoint_sweep(spec, ensemble, noise, basis, [player], [player])
    per_path = pair(next(sweep)[1][:, 0], -1)
    for step in sweep:
        k, vc = step.k, step.vc
        t = ensemble.grid.nodes[k]
        yh, yl = resp_h[:, k], resp_l[:, k]
        du_h = dir_h(t, k, noise.increments)
        du_l = dir_l(t, k, noise.increments)
        B0 = vc.drift_state()
        rows = np.stack([vc.diffusion_row(j) for j in range(N)], axis=1)
        # each response's drift and its loading on each private driver
        mu_h = np.einsum("pab,pb->pa", B0, yh, optimize=False)
        mu_l = np.einsum("pab,pb->pa", B0, yl, optimize=False)
        mu_h[:, h] += vc.dub[:, h] * du_h
        mu_l[:, l] += vc.dub[:, l] * du_l
        b = np.einsum("pja,pa->pj", rows, yh, optimize=False)
        a = np.einsum("pja,pa->pj", rows, yl, optimize=False)
        b[:, h] += vc.dus[:, h] * du_h
        a[:, l] += vc.dus[:, l] * du_l
        mat = step.matrices[:, 0]
        zrow, zcol = (z[:, 0] for z in step.matrix_loadings)
        theta = -_matrix_driver(
            B0, rows, step.slices, mat, zrow, zcol,
            spec.running_cost.dyy(vc.slice)[:, player],
            step.costates[:, 0], step.loadings[:, 0])
        integrand = pair(theta, k)
        # tr[P Phi], P symmetric: Phi = mu_l y_h' + y_l mu_h'
        # + sum_j a_j b_j e_j e_j'
        integrand += np.einsum("pa,pab,pb->p", yh, mat, mu_l, optimize=False)
        integrand += np.einsum("pa,pab,pb->p", mu_h, mat, yl, optimize=False)
        integrand += np.einsum("pjj,pj,pj->p", mat, a, b, optimize=False)
        # sum_j tr[Q^j Psi^j] = a_j (y_h' Q^j)_j + b_j (Q^j y_l)_j
        integrand += np.einsum("pj,pa,pja->p", a, yh, zcol, optimize=False)
        integrand += np.einsum("pj,pja,pa->p", b, zrow, yl, optimize=False)
        per_path -= integrand * dt
    per_path -= pair(mat, 0)   # the k = 0 layer
    n = per_path.shape[0]
    return float(abs(np.mean(per_path))), float(per_path.std(ddof=1)
                                                 / np.sqrt(n))
