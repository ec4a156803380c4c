"""Independent oracles used by the tests.

Everything here is deliberately written against closed-form formulas or
plain ODE integration, never against the library's own Monte Carlo
pipelines, so agreement is evidence rather than tautology.
"""

import numpy as np


def ou_terminal_moments(theta: float, sigma: float, T: float):
    """Mean and variance of dX = -theta X dt + sigma dW, X_0 = 0."""
    mean = 0.0
    var = sigma**2 * (1.0 - np.exp(-2.0 * theta * T)) / (2.0 * theta)
    return mean, var


def rk4(f, y0, t0, t1, n_steps):
    """Fixed-step classical Runge-Kutta for vector ODEs."""
    y = np.asarray(y0, dtype=float)
    h = (t1 - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def scalar_lq_cost(A, B, C, D, s0, Qhat, R, G, u_fn, xi_mean, xi_var, T,
                   n_steps=4000):
    """Cost of a deterministic control in the scalar linear model
    dX = (A X + B u)dt + (C X + D u + s0)dW via the first two moment
    ODEs, integrated with fine RK4.

    Cost is 0.5 E[int (Qhat X^2 + R u^2) dt + G X_T^2].
    """
    def rhs(t, y):
        m, s, c = y  # mean, second moment, running cost accumulator
        u = u_fn(t)
        dm = A * m + B * u
        ds = 2 * A * s + 2 * B * u * m + (C**2 * s
                                          + 2 * C * (D * u + s0) * m
                                          + (D * u + s0) ** 2)
        dc = 0.5 * (Qhat * s + R * u * u)
        return np.array([dm, ds, dc])

    y = rk4(rhs, [xi_mean, xi_var + xi_mean**2, 0.0], 0.0, T, n_steps)
    return y[2] + 0.5 * G * y[1]


def scalar_lq_optimal_control(A, B, Qhat, R, G, xi_mean, T, n_steps=4000):
    """Open-loop optimum for the additive-noise scalar problem
    (C = D = 0): the deterministic tracking problem for the mean.

    Returns a callable t -> u*(t) built from the Riccati flow
    P' = -(2 A P + Qhat - P^2 B^2 / R), P(T) = G and the mean flow
    m' = (A - B^2 P / R) m, with u*(t) = -(B / R) P(t) m(t).
    """
    h = T / n_steps
    P = np.empty(n_steps + 1)
    P[n_steps] = G
    for k in range(n_steps - 1, -1, -1):
        def rhs(t, y):
            return -(2 * A * y + Qhat - y * y * B * B / R)
        tk = k * h
        y = P[k + 1]
        k1 = rhs(tk + h, y)
        k2 = rhs(tk + h / 2, y - h / 2 * k1)
        k3 = rhs(tk + h / 2, y - h / 2 * k2)
        k4 = rhs(tk, y - h * k3)
        P[k] = y - h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    m = np.empty(n_steps + 1)
    m[0] = xi_mean
    for k in range(n_steps):
        m[k + 1] = m[k] + h * (A - B * B * P[k] / R) * m[k]
    ts = np.linspace(0.0, T, n_steps + 1)

    def u_star(t):
        k = min(int(t / h), n_steps)
        return -(B / R) * P[k] * m[k]

    return u_star, ts, P, m


def bs_closed_form_bsde(a, T, w_paths, nodes):
    """Exact solution pair of the scalar linear backward equation with
    terminal value W_T and value coefficient a: the value process is
    W_t e^{a(T-t)}, the martingale loading e^{a(T-t)}."""
    decay = np.exp(a * (T - nodes))
    return w_paths * decay[None, :], np.broadcast_to(decay[None, :],
                                                     w_paths.shape)


def decay_family_asymmetry(A, B, qhat, gterm, dt, n_steps):
    """Pairwise mixed-derivative asymmetry of the lq decay family
    (decoupled dynamics, additive noise, quadratic distance-to-average
    costs) under the unit constant direction.  Each response is
    deterministic, y_{k+1} = y_k (1 + A dt) + B dt from y_0 = 0, so pair
    (i, j) reads (|qhat_i - qhat_j| dt sum_{k<M} y_k^2
    + |g_i - g_j| y_M^2) (N - 1) / N^2."""
    y, running = 0.0, 0.0
    for _ in range(n_steps):
        running += y * y
        y = y * (1.0 + A * dt) + B * dt
    qhat, gterm = np.asarray(qhat, float), np.asarray(gterm, float)
    n = len(qhat)
    return ((np.abs(qhat[:, None] - qhat[None, :]) * dt * running
             + np.abs(gterm[:, None] - gterm[None, :]) * y * y)
            * (n - 1) / n**2)
