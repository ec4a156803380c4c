"""Built-in game families.

Four presets, addressable by string id:

* ``lq``: weakly coupled linear state dynamics with quadratic costs
  penalizing distance to the population average; supports controlled
  diffusion.
* ``mean-field``: nonlinear drift/diffusion coupling through a smooth
  function of the empirical mean, costs heterogeneous only through the
  mean, so all pairwise cost-difference derivatives decay in N.
* ``common-noise``: control-driven private states plus a Brownian
  driver shared by everyone; no state coupling at all.
* ``tanh-coupled``: a smooth, bounded-derivative test game with every
  second-order channel active (state, control, and cross curvature in
  both drift and diffusion).

Every builder returns the game together with a ledger of Lipschitz/
coupling constants and exact (or analytically bounded) sup-norms of
the pairwise cost-difference derivatives, so the closed-form near-
potential bounds are computable without any sampling.
"""

from __future__ import annotations

import numpy as np

from .model import (Coefficient, ConstantLedger, CostGapNorms, GameSpec,
                    Hessian, InitialSampler, RunningCost, TerminalCost)

__all__ = [
    "build_lq_game",
    "build_mean_field_game",
    "build_common_noise_game",
    "build_tanh_game",
    "build_preset",
    "lq_scaling_params",
    "PRESET_IDS",
]

PRESET_IDS = ("lq", "mean-field", "common-noise", "tanh-coupled")

# max of |d^2/dm^2 tanh(m)|, attained at tanh(m)^2 = 1/3
TANH_D2_MAX = 4.0 / (3.0 * np.sqrt(3.0))


def _as_array(v, n, name):
    arr = np.broadcast_to(np.asarray(v, dtype=float), (n,)).copy()
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _on_paths(s, a):
    """Copy of the constant array ``a`` on every path of the slice."""
    return np.broadcast_to(a, (s.y.shape[0],) + a.shape).copy()


def _states_like(s, op, row, column):
    """``op(row, column)`` of a per-player (N,) row and a per-path (P, 1)
    column, laid out like the slice's states, so that the sweep's
    elementwise operations keep running along one memory layout."""
    out = np.empty_like(s.x, dtype=np.result_type(row, column))
    return op(row, column, out=out)


def _game(n, xi_mean, xi_std, **evaluators):
    return GameSpec(n_players=n, horizon=1.0,
                    initial_samplers=[InitialSampler.normal(xi_mean, xi_std)
                                      for _ in range(n)], **evaluators)


def _sech2(th):
    return 1.0 - th * th


def _d2tanh(th):
    return -2.0 * th * (1.0 - th * th)


def _avg_cost_pair(n, i, qi, qj, j):
    """Hessian sup-norms of q_i*(y_i - mean)^2/2 - q_j*(y_j - mean)^2/2."""
    kd = np.eye(n)
    wi = np.einsum("h,l->hl", kd[i] - 1.0 / n, kd[i] - 1.0 / n)
    wj = np.einsum("h,l->hl", kd[j] - 1.0 / n, kd[j] - 1.0 / n)
    return np.abs(qi * wi - qj * wj)


def _outer(a):
    """Stack of the outer products of the rows of ``a`` with themselves."""
    return np.einsum("ih,il->ihl", a, a)


def _deviation(s):
    """Every player's state minus the average, (P, N)."""
    return s.y - s.mean[:, None]


def _quadratic_costs(n, qhat, r, gterm):
    """Running/terminal costs 0.5*(qhat_i (y_i - mean)^2 + r_i u_i^2),
    0.5*g_i (y_i - mean)^2, with exact partials; row i of ``w`` is the
    gradient of y_i - mean."""
    kd = np.eye(n)
    w = kd - 1.0 / n
    q_yy = qhat[:, None, None] * _outer(w)
    r_uu = r[:, None, None] * _outer(kd)
    g_yy = gterm[:, None, None] * _outer(w)
    running = RunningCost(
        value=lambda s: 0.5 * (qhat * _deviation(s)**2 + r * s.u**2),
        dy=lambda s: (qhat * _deviation(s))[:, :, None] * w,
        du=lambda s: (r * s.u)[:, :, None] * kd,
        dyy=lambda s: _on_paths(s, q_yy),
        duu=lambda s: _on_paths(s, r_uu))
    terminal = TerminalCost(
        value=lambda s: 0.5 * gterm * _deviation(s)**2,
        dy=lambda s: (gterm * _deviation(s))[:, :, None] * w,
        dyy=lambda s: _on_paths(s, g_yy))
    return running, terminal


def _quadratic_cost_gaps(n, qhat, r, gterm):
    gaps = {}
    for i in range(n):
        for j in range(i + 1, n):
            kd = np.eye(n)
            f_uu = np.abs(r[i] * np.einsum("h,l->hl", kd[i], kd[i])
                          - r[j] * np.einsum("h,l->hl", kd[j], kd[j]))
            gaps[(i, j)] = CostGapNorms(
                f_yy=_avg_cost_pair(n, i, qhat[i], qhat[j], j),
                f_yu=np.zeros((n, n)),
                f_uu=f_uu,
                g_yy=_avg_cost_pair(n, i, gterm[i], gterm[j], j),
                f_y0=np.zeros(n),
                g_y0=np.zeros(n),
            )
    return gaps


def build_lq_game(n_players: int, A=-0.3, Abar=0.2, B=1.0, b0=0.0,
                  C=0.0, Cbar=0.0, D=0.0, s0=0.3,
                  Qhat=1.0, R=1.0, G=1.0,
                  xi_mean=0.5, xi_std=0.3):
    """Linear dynamics coupled through the population average, with
    quadratic distance-to-average costs."""
    n = n_players
    A = _as_array(A, n, "A"); Abar = _as_array(Abar, n, "Abar")
    B = _as_array(B, n, "B"); b0 = _as_array(b0, n, "b0")
    C = _as_array(C, n, "C"); Cbar = _as_array(Cbar, n, "Cbar")
    D = _as_array(D, n, "D"); s0 = _as_array(s0, n, "s0")
    Qhat = _as_array(Qhat, n, "Qhat"); R = _as_array(R, n, "R")
    G = _as_array(G, n, "G")
    if np.any(R <= 0) or np.any(Qhat < 0) or np.any(G < 0):
        raise ValueError("need R > 0, Qhat >= 0, G >= 0")

    def linear(own, average, control, const):
        # a partial whose parameter row is all zero is left out, which
        # declares it zero, so the sweeps skip its terms
        coupling = np.repeat((average / n)[:, None], n, axis=1)
        return Coefficient(
            value=lambda s: own * s.x
            + _states_like(s, np.multiply, average, s.mean[:, None])
            + control * s.u + const,
            dx=(lambda s: np.full_like(s.x, own)) if np.any(own) else None,
            du=((lambda s: np.full_like(s.x, control))
                if np.any(control) else None),
            dy=(lambda s: _on_paths(s, coupling)) if np.any(average)
            else None)

    running, terminal = _quadratic_costs(n, Qhat, R, G)
    spec = _game(n, xi_mean, xi_std, drift=linear(A, Abar, B, b0),
                 diffusion=linear(C, Cbar, D, s0), running_cost=running,
                 terminal_cost=terminal)

    ledger = ConstantLedger(
        L_b=float(np.max(np.maximum(np.abs(A) + np.abs(B), np.abs(b0)))),
        L_y_b=float(np.max(np.abs(Abar))),
        L_sigma=float(np.max(np.maximum(np.abs(C) + np.abs(D), np.abs(s0)))),
        L_y_sigma=float(np.max(np.abs(Cbar))),
        cost_gaps=_quadratic_cost_gaps(n, Qhat, R, G),
        L_b_state=float(np.max(np.abs(A))),
        L_sigma_state=float(np.max(np.abs(C))),
    )
    return spec, ledger


def lq_scaling_params(n_players: int, spread: float = 1.5,
                      Qhat0: float = 1.0, G0: float = 1.0) -> dict:
    """Heterogeneous family for decay studies: per-player cost weights
    are Qhat0*(1 + spread*z_i/N) with a fixed pattern z_i in [-1, 1],
    so individual heterogeneity is of negligible-agent size and
    pairwise gaps shrink like 1/N while the dimensionless spread stays
    fixed.  Players interact through the cost average only; the state
    dynamics are decoupled, which keeps the closed-form bound's energy
    constant from growing with the driver count and leaves the
    cost-driven decay visible on both the empirical and bound sides."""
    n = n_players
    z = (2.0 * np.arange(n) - (n - 1)) / max(n - 1, 1)
    return {
        "Qhat": Qhat0 * (1.0 + spread * z / n),
        "G": G0 * (1.0 + spread * z / n),
        "A": -0.3, "Abar": 0.0, "B": 1.0, "C": 0.0, "Cbar": 0.0,
        "D": 0.0, "s0": 0.3, "R": 1.0,
    }


def build_mean_field_game(n_players: int, a=-0.4, kappa_b=0.5, beta=1.0,
                          s0=0.3, kappa_s=0.2, d=0.0,
                          r=1.0, c=None, gamma=None,
                          xi_mean=0.3, xi_std=0.5):
    """Coupling exclusively through tanh of the empirical mean; cost
    heterogeneity enters only through the mean, so all pairwise
    cost-difference derivatives carry 1/N and 1/N^2 factors."""
    n = n_players
    a = _as_array(a, n, "a"); beta = _as_array(beta, n, "beta")
    s0 = _as_array(s0, n, "s0"); d = _as_array(d, n, "d")
    kappa_b = float(kappa_b); kappa_s = float(kappa_s); r = float(r)
    if c is None:
        c = 0.5 + 0.5 * np.arange(n) / max(n - 1, 1)
    if gamma is None:
        gamma = 0.4 + 0.4 * np.arange(n) / max(n - 1, 1)
    c = _as_array(c, n, "c"); gamma = _as_array(gamma, n, "gamma")
    kd = np.eye(n)

    def sech2(v):
        return 1.0 / np.cosh(v) ** 2

    def d2tanh(v):
        return -2.0 * np.tanh(v) * sech2(v)

    def gradient(s, scale):
        """(P, N, N): player i's gradient of scale_i * tanh(mean)."""
        return scale * sech2(s.mean)[:, None, None] * np.ones(
            s.y.shape + (n,))

    def hessian(s, scale):
        """(P, N, N, N): player i's Hessian of scale_i * tanh(mean)."""
        return scale * d2tanh(s.mean)[:, None, None, None] * np.ones(
            s.y.shape + (n, n))

    drift = Coefficient(
        value=lambda s: a * s.x + (kappa_b * np.tanh(s.mean))[:, None]
        + beta * s.u,
        dx=lambda s: np.full_like(s.x, a),
        du=lambda s: np.full_like(s.x, beta),
        dy=lambda s: gradient(s, kappa_b / n),
        dyy=lambda s: Hessian.dense(hessian(s, kappa_b / n ** 2)))
    diffusion = Coefficient(
        value=lambda s: _states_like(s, np.add, s0, (kappa_s * np.tanh(
            s.mean))[:, None]) + d * s.u,
        du=lambda s: np.full_like(s.x, d),
        dy=lambda s: gradient(s, kappa_s / n),
        dyy=lambda s: Hessian.dense(hessian(s, kappa_s / n ** 2)))
    r_uu = r * _outer(kd)
    running = RunningCost(
        value=lambda s: 0.5 * r * s.u**2
        + _states_like(s, np.multiply, c, np.tanh(s.mean)[:, None]),
        dy=lambda s: gradient(s, (c / n)[:, None]),
        du=lambda s: (r * s.u)[:, :, None] * kd,
        dyy=lambda s: hessian(s, (c / n ** 2)[:, None, None]),
        duu=lambda s: _on_paths(s, r_uu))
    terminal = TerminalCost(
        value=lambda s: gamma * np.tanh(s.mean)[:, None],
        dy=lambda s: gradient(s, (gamma / n)[:, None]),
        dyy=lambda s: hessian(s, (gamma / n ** 2)[:, None, None]))
    spec = _game(n, xi_mean, xi_std, drift=drift, diffusion=diffusion,
                 running_cost=running, terminal_cost=terminal)
    gaps = {}
    ones = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dc = abs(c[i] - c[j]); dg = abs(gamma[i] - gamma[j])
            f_uu = r * (np.einsum("h,l->hl", kd[i], kd[i])
                        + np.einsum("h,l->hl", kd[j], kd[j]))
            gaps[(i, j)] = CostGapNorms(
                f_yy=dc * TANH_D2_MAX / n**2 * ones,
                f_yu=np.zeros((n, n)),
                f_uu=f_uu,
                g_yy=dg * TANH_D2_MAX / n**2 * ones,
                f_y0=dc / n * np.ones(n),
                g_y0=dg / n * np.ones(n),
            )
    ledger = ConstantLedger(
        L_b=float(np.max(np.abs(a) + np.abs(beta))),
        L_y_b=kappa_b,
        L_sigma=float(np.max(np.maximum(np.abs(s0), np.abs(d)))),
        L_y_sigma=kappa_s,
        cost_gaps=gaps,
        L_b_state=float(np.max(np.abs(a))),
        L_sigma_state=0.0,
    )
    return spec, ledger


def build_common_noise_game(n_players: int, b=1.0, s=0.3,
                            Qhat=1.0, R=1.0, G=1.0,
                            xi_mean=0.5, xi_std=0.3):
    """Control-driven private states plus a shared Brownian driver.

    The coefficient processes must be bounded; state coupling is
    identically zero, so the state-Lipschitz ledger entries vanish
    while the control loading is kept for the growth checks.
    """
    n = n_players
    b = _as_array(b, n, "b"); s = _as_array(s, n, "s")
    Qhat = _as_array(Qhat, n, "Qhat"); R = _as_array(R, n, "R")
    G = _as_array(G, n, "G")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(s))):
        raise ValueError("coefficient processes must be bounded")
    if np.any(R <= 0) or np.any(Qhat < 0) or np.any(G < 0):
        raise ValueError("need R > 0, Qhat >= 0, G >= 0")

    running, terminal = _quadratic_costs(n, Qhat, R, G)
    spec = _game(n, xi_mean, xi_std,
                 drift=Coefficient(value=lambda sl: b * sl.u,
                                   du=lambda sl: np.full_like(sl.x, b)),
                 diffusion=Coefficient(lambda sl: np.full_like(sl.x, s)),
                 running_cost=running, terminal_cost=terminal,
                 common_noise=True)
    ledger = ConstantLedger(
        L_b=float(np.max(np.abs(b))),
        L_y_b=0.0,
        L_sigma=float(np.max(np.abs(s))),
        L_y_sigma=0.0,
        cost_gaps=_quadratic_cost_gaps(n, Qhat, R, G),
        L_b_state=0.0,
        L_sigma_state=0.0,
    )
    return spec, ledger


def build_tanh_game(n_players: int = 3, a=None, kappa_b=0.5, beta=None,
                    gamma_b=0.3, s0=None, kappa_s=0.2, d=None, eta=0.15,
                    r=1.0, q=None, chi=None, gterm=None,
                    xi_mean=0.3, xi_std=0.5):
    """Smooth nonlinear test game: every first and second order channel
    of the pipeline is exercised (state curvature, control curvature,
    control/state and control/coupling cross terms, controlled
    diffusion, heterogeneous costs)."""
    n = n_players
    a = _as_array(-0.5 + 0.1 * np.arange(n) if a is None else a, n, "a")
    beta = _as_array(1.0 + 0.1 * ((np.arange(n) % 3) - 1)
                     if beta is None else beta, n, "beta")
    s0 = _as_array(0.3 + 0.05 * np.arange(n) if s0 is None else s0, n, "s0")
    d = _as_array(0.25 + 0.05 * ((np.arange(n) % 3) - 1)
                  if d is None else d, n, "d")
    q = _as_array(0.6 + 0.4 * ((np.arange(n) % 3) == 0)
                  if q is None else q, n, "q")
    chi = _as_array(0.2 + 0.1 * (np.arange(n) % 3 == 0)
                    if chi is None else chi, n, "chi")
    gterm = _as_array(0.5 + 0.3 * ((np.arange(n) % 3) == 0)
                      if gterm is None else gterm, n, "gterm")
    kappa_b = float(kappa_b); gamma_b = float(gamma_b)
    kappa_s = float(kappa_s); eta = float(eta); r = float(r)

    kd = np.eye(n)
    w = kd - 1.0 / n  # row i: gradient of y_i - mean

    def drift_dy(s):
        sech2_y = _sech2(s.tanh_y)[:, None, :]
        return ((kappa_b / n) * sech2_y
                + (gamma_b / n) * sech2_y * s.tanh_u[:, :, None])

    drift = Coefficient(
        value=lambda s: a * s.tanh_x + (kappa_b / n) * s.tanh_sum[:, None]
        + beta * s.u + (gamma_b / n) * s.tanh_sum[:, None] * s.tanh_u,
        dx=lambda s: a * _sech2(s.tanh_x),
        du=lambda s: beta
        + (gamma_b / n) * s.tanh_sum[:, None] * _sech2(s.tanh_u),
        dy=drift_dy,
        dxx=lambda s: a * _d2tanh(s.tanh_x),
        duu=lambda s: (gamma_b / n) * s.tanh_sum[:, None] * _d2tanh(s.tanh_u),
        duy=lambda s: (gamma_b / n) * _sech2(s.tanh_y)[:, None, :]
        * _sech2(s.tanh_u)[:, :, None],
        dyy=lambda s: Hessian.diagonal(
            ((kappa_b / n) + (gamma_b / n) * s.tanh_u)[:, :, None]
            * _d2tanh(s.tanh_y)[:, None, :]),
    )
    diffusion = Coefficient(
        value=lambda s: _states_like(
            s, np.add, s0, (kappa_s / n) * s.tanh_sum[:, None])
        + d * s.u + eta * s.tanh_x * s.tanh_u,
        dx=lambda s: eta * _sech2(s.tanh_x) * s.tanh_u,
        du=lambda s: d + eta * s.tanh_x * _sech2(s.tanh_u),
        dy=lambda s: np.broadcast_to(
            ((kappa_s / n) * _sech2(s.tanh_y))[:, None, :],
            s.y.shape + (n,)).copy(),
        dxx=lambda s: eta * _d2tanh(s.tanh_x) * s.tanh_u,
        dxu=lambda s: eta * _sech2(s.tanh_x) * _sech2(s.tanh_u),
        duu=lambda s: eta * s.tanh_x * _d2tanh(s.tanh_u),
        dyy=lambda s: Hessian.diagonal(np.broadcast_to(
            ((kappa_s / n) * _d2tanh(s.tanh_y))[:, None, :],
            s.y.shape + (n,))),
    )

    q_hess = q[:, None, None] * _outer(w)
    g_hess = gterm[:, None, None] * _outer(w)
    e_hess = _outer(kd)
    running = RunningCost(
        value=lambda s: 0.5 * (r * s.u**2 + q * _deviation(s)**2)
        + (chi / n) * s.tanh_u * s.tanh_sum[:, None],
        dy=lambda s: (q * _deviation(s))[:, :, None] * w
        + ((chi / n) * s.tanh_u)[:, :, None] * _sech2(s.tanh_y)[:, None, :],
        du=lambda s: (r * s.u + (chi / n) * _sech2(s.tanh_u)
                      * s.tanh_sum[:, None])[:, :, None] * kd,
        dyy=lambda s: np.broadcast_to(q_hess, s.y.shape + (n, n))
        + ((chi / n) * s.tanh_u)[:, :, None, None]
        * _d2tanh(s.tanh_y)[:, None, :, None] * kd,
        dyu=lambda s: (chi / n)[:, None, None]
        * (_sech2(s.tanh_u)[:, :, None]
           * _sech2(s.tanh_y)[:, None, :])[:, :, :, None]
        * kd[:, None, :],
        duu=lambda s: (r + (chi / n) * _d2tanh(s.tanh_u)
                       * s.tanh_sum[:, None])[:, :, None, None] * e_hess,
    )
    terminal = TerminalCost(
        value=lambda s: 0.5 * gterm * _deviation(s)**2,
        dy=lambda s: (gterm * _deviation(s))[:, :, None] * w,
        dyy=lambda s: _on_paths(s, g_hess))
    spec = _game(n, xi_mean, xi_std, drift=drift, diffusion=diffusion,
                 running_cost=running, terminal_cost=terminal)

    gaps = {}
    for i in range(n):
        for j in range(i + 1, n):
            kdn = np.eye(n)
            f_yy = (np.abs(q[i] * np.einsum("h,l->hl", kdn[i] - 1.0 / n,
                                            kdn[i] - 1.0 / n)
                           - q[j] * np.einsum("h,l->hl", kdn[j] - 1.0 / n,
                                              kdn[j] - 1.0 / n))
                    + (chi[i] + chi[j]) * TANH_D2_MAX / n * np.eye(n))
            f_yu = (chi[i] / n) * np.outer(np.ones(n), kdn[i]) \
                + (chi[j] / n) * np.outer(np.ones(n), kdn[j])
            f_uu = ((r + chi[i] * TANH_D2_MAX)
                    * np.einsum("h,l->hl", kdn[i], kdn[i])
                    + (r + chi[j] * TANH_D2_MAX)
                    * np.einsum("h,l->hl", kdn[j], kdn[j]))
            g_yy = np.abs(gterm[i] * np.einsum(
                "h,l->hl", kdn[i] - 1.0 / n, kdn[i] - 1.0 / n)
                - gterm[j] * np.einsum("h,l->hl", kdn[j] - 1.0 / n,
                                       kdn[j] - 1.0 / n))
            gaps[(i, j)] = CostGapNorms(
                f_yy=f_yy, f_yu=f_yu, f_uu=f_uu, g_yy=g_yy,
                f_y0=np.zeros(n),
                g_y0=np.zeros(n),
            )

    ledger = ConstantLedger(
        L_b=float(np.max(np.abs(a) + np.abs(beta)
                         + abs(gamma_b) * (1.0 + TANH_D2_MAX))),
        L_y_b=abs(kappa_b) + abs(gamma_b),
        L_sigma=float(np.max(np.maximum(
            np.abs(d) + abs(eta) * (2.0 + TANH_D2_MAX),
            np.abs(s0) + abs(eta)))),
        L_y_sigma=abs(kappa_s),
        cost_gaps=gaps,
        L_b_state=float(np.max(np.abs(a))),
        L_sigma_state=abs(eta),
    )
    return spec, ledger


def build_preset(preset: str, n_players: int, **params):
    """Build a preset game by string id; returns (spec, ledger)."""
    if preset == "lq":
        return build_lq_game(n_players, **params)
    if preset == "mean-field":
        return build_mean_field_game(n_players, **params)
    if preset == "common-noise":
        return build_common_noise_game(n_players, **params)
    if preset == "tanh-coupled":
        return build_tanh_game(n_players, **params)
    raise ValueError(f"unknown preset {preset!r}; "
                     f"choose one of {', '.join(PRESET_IDS)}")
