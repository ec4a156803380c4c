"""Near-potential certification.

A game is an alpha-potential game when every unilateral deviation's
cost change equals the change of one scalar function up to alpha.  The
relevant alpha is controlled by the worst cross-player asymmetry of
mixed second derivatives; this module measures that asymmetry
empirically (a lower estimate over a fixed control/direction
dictionary) and assembles the closed-form upper bound from the
constant ledger, so the true value is bracketed.

Bound formulas keep every constant explicit.  The one genuinely
unspecified outer constant is surfaced as ``symbolic_constant`` in
every report (1.0 by convention) and never folded in silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bsde import RegressionBasis, apriori_constant
from .derivatives import (EPS_SCHEDULE, _worst_fits, bsde_derivatives,
                          second_derivative_fd_sweep, sens_derivatives)
from .model import (ConstantLedger, Control, ControlProfile, GameSpec,
                    NoiseBundle, TimeGrid)
from .sim import (_euler, _response_step, assemble_variational,
                  simulate_cost_batch, simulate_paths)

__all__ = [
    "AlphaReport",
    "BoundLedger",
    "asymmetry",
    "empirical_alpha",
    "build_bound_ledger",
    "theoretical_alpha_bound",
    "cor_decay_bound",
    "moment_bound_constants",
    "sensitivity_moment_bound",
    "potential_value",
    "potential_deviation_gaps",
    "exploitability",
]


@dataclass
class AlphaReport:
    """Empirical asymmetry and/or closed-form bound breakdown."""

    n_players: int
    asymmetry: np.ndarray = None          # (N, N), symmetric, zero diagonal
    asymmetry_se: np.ndarray = None
    alpha_empirical: float = None
    alpha_empirical_se: float = None
    bound_breakdown: dict = field(default_factory=dict)
    alpha_bound: float = None
    symbolic_constant: float = 1.0
    notes: list = field(default_factory=list)
    bsde_regression: dict = None          # worst fits of BSDE asymmetry

    @classmethod
    def from_asymmetry(cls, asym: np.ndarray, se: np.ndarray, notes):
        """Empirical alpha from an (N, N) asymmetry matrix: twice its
        worst row sum, with that row's combined standard error."""
        row = asym.sum(axis=1)
        ib = int(np.argmax(row))
        return cls(n_players=asym.shape[0], asymmetry=asym, asymmetry_se=se,
                   alpha_empirical=float(2.0 * row[ib]),
                   alpha_empirical_se=float(2.0 * np.sqrt(np.sum(se[ib]**2))),
                   notes=list(notes))

    def to_jsonable(self) -> dict:
        out = {"n_players": self.n_players,
               "symbolic_constant": self.symbolic_constant,
               "notes": list(self.notes)}
        if self.asymmetry is not None:
            out["asymmetry"] = self.asymmetry.tolist()
            out["asymmetry_se"] = self.asymmetry_se.tolist()
            out["alpha_empirical"] = self.alpha_empirical
            out["alpha_empirical_se"] = self.alpha_empirical_se
        if self.bsde_regression is not None:
            out["bsde_regression"] = self.bsde_regression
        if self.alpha_bound is not None:
            out["alpha_bound"] = self.alpha_bound
            out["bound_breakdown"] = {
                f"{i},{j}": v for (i, j), v in
                sorted(self.bound_breakdown.items())}
        return out


@dataclass
class BoundLedger:
    """Derived constants: coefficient-matrix norm caps, the explicit
    linear-backward-system energy constant, the squared-gradient
    aggregates per pair, and the decay-corollary coefficient
    combinations."""

    n_players: int
    horizon: float
    n_drivers: int
    b0_norm: float
    pi0_norm: float
    c1: float                        # energy constant at the norm caps
    adjoint_energy: dict             # (i, j) -> costate energy bound
    mc1: float
    mc2: float

    def to_jsonable(self) -> dict:
        return {"n_players": self.n_players, "horizon": self.horizon,
                "n_drivers": self.n_drivers, "b0_norm": self.b0_norm,
                "pi0_norm": self.pi0_norm, "c1": self.c1,
                "adjoint_energy": {
                    f"{i},{j}": v
                    for (i, j), v in sorted(self.adjoint_energy.items())},
                "mc1": self.mc1, "mc2": self.mc2}


def _mean_se(pathwise: np.ndarray):
    """Sample mean of a pathwise quantity and its standard error."""
    n = pathwise.shape[0]
    return float(pathwise.mean()), float(pathwise.std(ddof=1) / np.sqrt(n))


def _pair_asymmetry(spec, controls, pairs, dirs, grid, noise, method,
                    eps_schedule, basis, fits) -> dict:
    """Worst asymmetry of each pair (i, j) in ``pairs`` over every
    direction pair (di, dj): the largest |mean| of the pathwise
    difference d_ij - d_ji of player i's mixed derivative in (di, dj)
    and player j's in (dj, di), with its pathwise se.  Player i's
    direction is outermost and the first maximum is kept; a NaN is kept
    over every number.  Returns {(i, j): (value, se)}.

    ``FD`` differences the pathwise Richardson arrays of one mixed sweep
    per direction pair, whose legs the two cost functionals share.  The
    other routes make one driver call on one ensemble with every job
    ``(i, (i, di), (j, dj))`` and ``(j, (j, dj), (i, di))``: ``SENS``
    contracts them in one forward sweep, ``BSDE`` in one backward sweep
    whose worst fits are folded into ``fits``.
    """
    if method not in ("FD", "BSDE", "SENS"):
        raise ValueError("method must be 'FD', 'BSDE', or 'SENS'")
    dirs = list(dirs)
    rows = [(i, di, j) for i, j in pairs for di in dirs]

    def pathwise():
        """d_ij then d_ji for each row and each dj, in that order."""
        if method == "FD":
            for i, di, j in rows:
                for dj in dirs:
                    _, pw = second_derivative_fd_sweep(
                        spec, controls, i, j, di, dj, grid, noise,
                        eps_schedule)
                    yield from (pw[i], pw[j])
            return
        ens = simulate_paths(spec, controls, grid, noise)
        jobs = [(a, (a, da), (b, db)) for i, di, j in rows for dj in dirs
                for a, da, b, db in ((i, di, j, dj), (j, dj, i, di))]
        if method == "SENS":
            _, (_, pw) = sens_derivatives(spec, ens, noise, second_jobs=jobs)
        else:
            (_, est), (_, pw) = bsde_derivatives(spec, ens, noise, basis,
                                                 second_jobs=jobs)
            _worst_fits(fits, est[0].metadata["regression"])
        yield from pw.values()

    best = {}
    values = pathwise()
    for i, _, j in rows:
        for _ in dirs:
            d_ij, d_ji = next(values), next(values)
            value, se = _mean_se(d_ij - d_ji)
            if ((i, j) not in best or abs(value) > best[(i, j)][0]
                    or np.isnan(value)):
                best[(i, j)] = (abs(value), se)
    return best


def asymmetry(spec: GameSpec, controls: ControlProfile, i: int, j: int,
              dirs, grid: TimeGrid, noise: NoiseBundle,
              method: str = "FD", eps_schedule=EPS_SCHEDULE,
              basis: RegressionBasis = RegressionBasis()):
    """Worst asymmetry of the (i, j) mixed derivatives over every pair
    of directions from ``dirs``; returns (value, se at the argmax).
    Methods ``FD``, ``SENS`` and ``BSDE`` as in ``empirical_alpha``."""
    if i == j:
        raise ValueError("asymmetry is defined for distinct players")
    return _pair_asymmetry(spec, controls, [(i, j)], dirs, grid, noise,
                           method, eps_schedule, basis, {})[(i, j)]


def empirical_alpha(spec: GameSpec, anchors, dirs, grid: TimeGrid,
                    noise: NoiseBundle, method: str = "FD",
                    eps_schedule=EPS_SCHEDULE,
                    basis: RegressionBasis = RegressionBasis()) -> AlphaReport:
    """Empirical lower estimate of alpha over sampled anchors and the
    direction dictionary: every pair's worst asymmetry over the anchors,
    then twice the worst row sum of the asymmetry matrix.  ``FD``
    differences mixed resimulation sweeps, ``SENS`` contracts forward
    and mixed sensitivities (the Z-oracle), ``BSDE`` contracts adjoints
    in one backward sweep per anchor and reports the worst fits of them
    all as ``bsde_regression``."""
    if not anchors or not dirs:
        raise ValueError("anchor and direction dictionaries must be nonempty")
    N = spec.n_players
    pairs = [(i, j) for i in range(N) for j in range(i + 1, N)]
    asym = np.zeros((N, N))
    asym_se = np.zeros((N, N))
    fits = {}
    for controls in anchors:
        worst = _pair_asymmetry(spec, controls, pairs, dirs, grid, noise,
                                method, eps_schedule, basis, fits)
        for (i, j), (v, se) in worst.items():
            # a NaN asymmetry is kept, so that the report shows it
            if v > asym[i, j] or np.isnan(v):
                asym[i, j] = asym[j, i] = v
                asym_se[i, j] = asym_se[j, i] = se
    report = AlphaReport.from_asymmetry(
        asym, asym_se,
        [f"lower estimate over {len(anchors)} anchor profile(s) and "
         f"{len(dirs)} directions per player, method {method}"])
    report.bsde_regression = fits or None
    return report


def pairwise_quadratic_asymmetry(spec: GameSpec, qhat, gterm,
                                 controls: ControlProfile,
                                 direction: Control, grid: TimeGrid,
                                 noise: NoiseBundle):
    """All-pairs mixed-derivative asymmetry for affine-coefficient games
    with quadratic distance-to-average costs, in one streaming sweep.

    For this structure the mixed control response vanishes and each
    cost Hessian is rank one in the deviation-from-average direction,
    so every ordered pair's second derivative reduces to a projected
    product of two first-order responses.  Exact algebra, not an
    approximation.  The state and the N responses are stepped and
    contracted as they go, so memory stays at one time slice regardless
    of N.  Returns (asymmetry, se) matrices.
    """
    if not spec.has_affine_coefficients():
        raise ValueError("streaming pairwise evaluator needs affine "
                         "coefficients")
    N = spec.n_players
    P = noise.n_paths
    dt = grid.dt
    qhat = np.broadcast_to(np.asarray(qhat, dtype=float), (N,))
    gterm = np.broadcast_to(np.asarray(gterm, dtype=float), (N,))

    def pair_accumulate(acc_t, y_slice, weights):
        # proj[p, d, i] = (own minus average) of response d at player i;
        # acc_t[p, d, i] += weights[i] * proj[p, i, i] * proj[p, d, i]
        proj = y_slice - y_slice.mean(axis=2, keepdims=True)
        own = weights * np.diagonal(proj, axis1=1, axis2=2)  # (P, N)
        np.multiply(own[:, None, :], proj, out=proj)
        acc_t += proj

    # acc_t[p, j, i] accumulates player i's mixed derivative in (i, j)
    acc_t = np.zeros((P, N, N))
    y = np.zeros((P, N, N))  # slice of responses, axis 1 = perturbed player
    for k, sl in enumerate(_euler(spec, [controls], grid, noise)):
        if sl.u is None:
            break
        vc = assemble_variational(spec, sl.t, sl.x, sl.u)
        du = direction(sl.t, k, noise.increments)
        pair_accumulate(acc_t, y, qhat * dt)
        y = _response_step(vc, y, dt, noise.increments[:, k, :N],
                           controls=[(h, du) for h in range(N)])
    pair_accumulate(acc_t, y, gterm)

    # diff_t[p, j, i] = acc[p, i, j] - acc[p, j, i]; the results are
    # made contiguous so that row sums keep numpy's summation order
    diff_t = acc_t - np.transpose(acc_t, (0, 2, 1))
    asym = np.ascontiguousarray(np.abs(diff_t.mean(axis=0)).T)
    se = np.ascontiguousarray((diff_t.std(axis=0, ddof=1) / np.sqrt(P)).T)
    np.fill_diagonal(asym, 0.0)
    np.fill_diagonal(se, 0.0)
    return asym, se


def build_bound_ledger(ledger: ConstantLedger, n_players: int, horizon: float,
                       n_drivers: int = None) -> BoundLedger:
    """Derived constants from the primitive ledger.

    The coefficient-matrix norm caps follow from the ledger scalings:
    the drift matrix is bounded by the own-state constant plus the
    coupling constant times (2/N - 1/N^2); each diffusion matrix by the
    own-state constant plus the coupling constant over sqrt(N).  The
    energy constant is evaluated at those caps with a unit driver
    budget: the caps already bound the aggregated martingale
    coefficient, and the closed-form population decay statements hold
    only for a constant that depends on nothing but the horizon and
    the caps.
    """
    N = n_players
    d = n_drivers if n_drivers is not None else N
    b0 = ledger.L_b_state + ledger.L_y_b * (2.0 / N - 1.0 / N**2)
    pi0 = ledger.L_sigma_state + ledger.L_y_sigma / math.sqrt(N)
    c1 = apriori_constant(max(b0, pi0), 1, horizon)
    lam = {}
    for (i, j), g in ledger.cost_gaps.items():
        lam[(i, j)] = c1 * float(
            np.sum(g.g_y0 ** 2) + np.sum(g.g_yy ** 2)
            + 3.0 * horizon * (np.sum(g.f_y0 ** 2) + np.sum(g.f_yy ** 2)
                               + np.sum(g.f_yu ** 2)))
    Lyb, Lys = ledger.L_y_b, ledger.L_y_sigma
    L = ledger.L_y_b_sigma
    mc1 = (Lyb + L * Lyb + Lyb * L**2 + ledger.L_b * L**2
           + 2.0 * Lyb * (1.0 + L + L**2) + 2.0 * ledger.L_b * L
           + Lyb
           + Lys + L * Lys + Lys * L**2 + ledger.L_sigma * L**2
           + 2.0 * Lys * (1.0 + L + L**2) + 2.0 * ledger.L_sigma * L
           + Lys)
    mc2 = (Lyb + Lys) * L**2
    return BoundLedger(n_players=N, horizon=horizon, n_drivers=d,
                       b0_norm=b0, pi0_norm=pi0, c1=c1, adjoint_energy=lam,
                       mc1=mc1, mc2=mc2)


def theoretical_alpha_bound(ledger: ConstantLedger, n_players: int,
                            horizon: float, n_drivers: int = None,
                            symbolic_constant: float = 1.0) -> AlphaReport:
    """Closed-form upper bound: per-pair constants split into an O(1),
    an O(1/N), and an O(1/N^2) block, then alpha is the symbolic outer
    constant times the worst row sum."""
    N = n_players
    bounds = build_bound_ledger(ledger, N, horizon, n_drivers)
    L = ledger.L_y_b_sigma
    Lb, Ls = ledger.L_b, ledger.L_sigma
    Lyb, Lys = ledger.L_y_b, ledger.L_y_sigma
    C = symbolic_constant
    poly = 1.0 + L + L**2
    sqrt_term_coef = (Lys * poly + (Ls * L**2 + 2.0 * Lys) * poly
                      + 2.0 * L * (Ls + Lys)
                      + Lyb * poly + (Lb * L**2 + 2.0 * Lyb) * poly
                      + 2.0 * L * (Lb + Lyb))
    breakdown = {}
    mat = np.zeros((N, N))
    for (i, j), g in ledger.cost_gaps.items():
        root_lam = math.sqrt(bounds.adjoint_energy[(i, j)])
        c0 = (g.f_yy[i, j] + g.f_yu[i, j] + g.f_yu[j, i] + g.f_uu[i, j]
              + g.g_yy[i, j])
        sum_l = sum(g.f_yy[i, l] + g.f_yu[l, i] + g.g_yy[i, l]
                    for l in range(N) if l != j)
        sum_h = sum(g.f_yy[h, j] + g.f_yu[h, j] + g.g_yy[h, j]
                    for h in range(N) if h != i)
        c1 = L * (sum_l + sum_h) + C * root_lam * sqrt_term_coef
        sum_hl = sum(g.f_yy[h, l] + g.g_yy[h, l]
                     for h in range(N) if h != i
                     for l in range(N) if l != j)
        c2 = L**2 * (sum_hl + C * root_lam * (Lys + Lyb))
        ctilde = c0 + c1 / N + c2 / N**2
        breakdown[(i, j)] = {"C0": float(c0), "C1_over_N": float(c1 / N),
                             "C2_over_N2": float(c2 / N**2),
                             "Ctilde": float(ctilde),
                             "adjoint_energy": bounds.adjoint_energy[(i, j)]}
        mat[i, j] = mat[j, i] = ctilde
    alpha = C * float(np.max(mat.sum(axis=1)))
    return AlphaReport(
        n_players=N, bound_breakdown=breakdown, alpha_bound=alpha,
        symbolic_constant=C,
        notes=["outer constant reported symbolically (default 1.0), "
               "never folded in",
               f"energy constant {bounds.c1:.6g} at coefficient norm caps "
               f"b0<={bounds.b0_norm:.6g}, pi0<={bounds.pi0_norm:.6g}"])


def cor_decay_bound(L: float, L_tilde: float, beta: float, n_players: int,
                    bounds: BoundLedger, symbolic_constant: float = 1.0):
    """Three-term decay bound for games whose pairwise cost-difference
    derivatives decay like N^-beta / N^-2beta, valid for beta > 1/2.

    The last term's N-power comes with the square root of the energy
    constant; the heterogeneity scale multiplies all three terms (the
    original statement absorbs it into the outer constant).
    """
    if beta <= 0.5:
        raise ValueError("beta must exceed 1/2")
    N = n_players
    C = symbolic_constant
    Lybs = L + 3.0 * L * L  # coupling cap with all primitive constants <= L
    term1 = (L_tilde / N ** (2.0 * beta)) * (C + 2.0 * Lybs + 2.0 * Lybs**2)
    term2 = 4.0 * Lybs * L_tilde / N ** (1.0 + min(beta, 2.0 * beta - 1.0))
    term3 = (C * math.sqrt(bounds.c1) * max(bounds.mc1, bounds.mc2)
             * L_tilde / N ** ((beta + 1.0) / 2.0))
    return term1 + term2 + term3, (term1, term2, term3)


def moment_bound_constants(ledger: ConstantLedger, p: float, xi_moments,
                           control_norms, horizon: float, n_players: int):
    """Closed-form p-th moment bound constants for the state system.

    ``xi_moments[i]`` is E|xi_i|^p and ``control_norms[i]`` the p-th
    power time-integral norm of player i's control.  Returns the base
    terms, the two exponential rates, and the final per-player caps.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    Lb, Lyb = ledger.L_b, ledger.L_y_b
    Ls, Lys = ledger.L_sigma, ledger.L_y_sigma
    T = horizon
    base = Lb + 4.0 * (p - 1.0) * Ls**2
    I0 = [xi_moments[i] + base * T + base * control_norms[i]
          for i in range(n_players)]
    I1 = ((6.0 * Ls**2 + 2.0 * Lys**2) * p * p
          + (3.0 * Lb + Lyb + 14.0 * Ls**2 - 2.0 * Lys**2) * p
          - 2.0 * Lb + 8.0 * Ls**2)
    I2 = (Lb * (3.0 * p - 2.0) + Lyb * (p - 1.0)
          + 2.0 * (p - 1.0) * (3.0 * p - 4.0) * Ls**2
          + 2.0 * (p - 1.0) * (p - 2.0) * Lys**2)
    coupling = (Lyb + 4.0 * (p - 1.0) * Lys**2) / n_players
    sum_i0 = float(np.sum(I0))
    CX = [(I0[i] + coupling * sum_i0 * math.exp(I1 * T)) * math.exp(I2 * T)
          for i in range(n_players)]
    return {"I0": I0, "I1": I1, "I2": I2, "C_X": CX}


def sensitivity_moment_bound(ledger: ConstantLedger, p: float,
                             direction_norm: float, horizon: float,
                             h: int, i: int, n_players: int) -> float:
    """Closed-form p-th moment bound for the first-order sensitivity:
    the perturbed player's own component carries an O(1) term, every
    other component only the 1/N coupling factor.  ``direction_norm``
    is the p-th power time-integral norm of the direction."""
    if p < 2:
        raise ValueError("p must be >= 2")
    Lb, Lyb = ledger.L_b, ledger.L_y_b
    Ls, Lys = ledger.L_sigma, ledger.L_y_sigma
    T = horizon
    I3 = (p * Lb + Lyb * p
          + 1.5 * (p - 1.0) * p * (Ls**2 + Lys**2)
          + (p - 1.0) * (1.5 * p - 2.0))
    I4 = I3 - 3.0 * (p - 1.0) * Lys**2 - Lyb
    lead = ((Lyb + 3.0 * (p - 1.0) * Lys**2) / n_players) * T \
        * math.exp(I3 * T) * (Lb + 3.0 * (p - 1.0) * Ls)
    own = (3.0 * p - 2.0) if h == i else 0.0
    return (lead + own) * math.exp(I4 * T) * direction_norm


def _gauss_legendre_01(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _potential_pathwise(spec, anchor, profile, grid, noise, basis, order,
                        fits):
    """Pathwise quadrature accumulation of the line-integrated own-
    control derivatives; one simulation and one backward sweep over all
    players per node, contracted step by step as it is solved.  Each
    sweep's worst fits are folded into ``fits``."""
    directions = [c + (-1.0) * a for c, a in zip(profile, anchor)]
    nodes, weights = _gauss_legendre_01(order)
    acc = np.zeros(noise.n_paths)
    for r, w in zip(nodes, weights):
        ens = simulate_paths(spec, anchor.combine(profile, 1.0 - r, r), grid,
                             noise)
        (first, _), (integrals, _) = bsde_derivatives(
            spec, ens, noise, basis,
            first_jobs=[(h, h, d) for h, d in enumerate(directions)])
        _worst_fits(fits, first[0].metadata["regression"])
        for h in range(len(directions)):
            acc += w * integrals[h]
    return acc


def potential_value(spec: GameSpec, profile: ControlProfile, grid: TimeGrid,
                    noise: NoiseBundle, anchor: ControlProfile = None,
                    basis: RegressionBasis = RegressionBasis(),
                    order: int = 8, fits: dict = None):
    """Candidate potential at a profile: line integral from the anchor
    (default zero profile) of the sum of own-control derivatives; one
    backward sweep for all players per Gauss-Legendre node.  The worst
    fits of those sweeps are folded into ``fits`` when one is given, as
    ``potential_deviation_gaps`` folds its own."""
    if anchor is None:
        anchor = ControlProfile.zeros(spec.n_players)
    return _mean_se(_potential_pathwise(spec, anchor, profile, grid, noise,
                                        basis, order,
                                        {} if fits is None else fits))


def potential_deviation_gaps(spec: GameSpec, profile: ControlProfile,
                             deviations, grid: TimeGrid, noise: NoiseBundle,
                             anchor: ControlProfile = None,
                             basis: RegressionBasis = RegressionBasis(),
                             order: int = 8):
    """|cost change - potential change| for each unilateral deviation
    ``(i, control)`` in ``deviations``, with a pathwise (common random
    numbers) standard error.  The profile's costs and line integral are
    computed once and shared by every deviation; the costs of the
    profile and of every deviation are the legs of one Euler sweep.

    Returns ``(gaps, (value, se))``: one dict per deviation, and the
    profile's candidate potential as ``potential_value`` computes it.
    Every gap's ``regression`` holds the worst fits over every backward
    sweep of the call, the profile's and each deviation's at each
    quadrature node, as ``bsde_derivatives`` summarizes one sweep.
    """
    if anchor is None:
        anchor = ControlProfile.zeros(spec.n_players)
    moved = [profile.with_player(i, deviation) for i, deviation in deviations]
    base_cost, *costs = simulate_cost_batch(spec, [profile] + moved, grid,
                                            noise, dtype=np.float64)
    fits = {}
    base_phi = _potential_pathwise(spec, anchor, profile, grid, noise, basis,
                                   order, fits)
    out = []
    for (i, _), deviated, cost in zip(deviations, moved, costs):
        dv = cost[:, i] - base_cost[:, i]
        dphi = (_potential_pathwise(spec, anchor, deviated, grid, noise,
                                    basis, order, fits) - base_phi)
        mean, se = _mean_se(dv - dphi)
        out.append({"cost_change": float(dv.mean()),
                    "potential_change": float(dphi.mean()),
                    "gap": abs(mean), "se": se, "regression": fits})
    return out, _mean_se(base_phi)


def exploitability(spec: GameSpec, profile: ControlProfile, deviations,
                   grid: TimeGrid, noise: NoiseBundle):
    """Per-player best cost improvement over a deviation dictionary.

    ``deviations[i]`` is a nonempty list of candidate controls for
    player i.  Returns per-player (improvement, se) of the best
    candidate, unclamped (negative when no candidate improves), and
    the overall maximum improvement.  The costs of the profile and of
    every candidate are the legs of one Euler sweep.
    """
    legs = [(i, cand) for i in range(spec.n_players)
            for cand in deviations[i]]
    base, *costs = simulate_cost_batch(
        spec, [profile] + [profile.with_player(i, c) for i, c in legs], grid,
        noise, dtype=np.float64)
    gains = [[] for _ in range(spec.n_players)]
    for (i, _), cost in zip(legs, costs):
        gains[i].append(_mean_se(base[:, i] - cost[:, i]))
    per_player = [max(g, key=lambda r: r[0]) for g in gains]
    overall = max(v for v, _ in per_player)
    return per_player, overall
