"""Domain types for N-player controlled diffusions.

A game is a bundle of per-player coefficient evaluators (drift and
diffusion of the private state), per-player cost evaluators, initial
state samplers, and an optional shared Brownian driver.  Evaluators
carry analytic partial derivatives; nothing in this module integrates
anything.  All types are immutable after construction and evaluators
are required to be pure functions of their arguments.

Conventions used throughout the package:

* private states are one-dimensional, so a game with N players has an
  N-dimensional joint state;
* evaluators are vectorized over Monte Carlo paths: ``t`` is a scalar,
  own state ``x`` and own control ``u`` have shape ``(P,)``, the joint
  state ``y`` has shape ``(P, N)``;
* gradients in the joint state have shape ``(P, N)`` and joint-state
  Hessians ``(P, N, N)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng

__all__ = [
    "Coefficient",
    "RunningCost",
    "TerminalCost",
    "InitialSampler",
    "GameSpec",
    "TimeGrid",
    "NoiseBundle",
    "Control",
    "ControlProfile",
    "direction_dictionary",
    "CostGapNorms",
    "ConstantLedger",
    "SampleBox",
    "validate_game",
    "fd_coefficient",
]


def _zeros_like_x(t, x, y, u):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zeros_like_y(t, x, y, u):
    return np.zeros_like(np.asarray(y, dtype=float))


def _zeros_hess(t, x, y, u):
    y = np.asarray(y, dtype=float)
    return np.zeros(y.shape + (y.shape[-1],))


class Coefficient:
    """One player's drift or diffusion term with analytic partials.

    Any partial not supplied is identically zero.  ``dy`` returns the
    full gradient in the joint state, ``dyy`` the full Hessian, and
    ``dxy``/``duy`` the mixed own-state/joint-state and control/joint-
    state derivative vectors.
    """

    def __init__(self, value, dx=None, du=None, dy=None, dxx=None, dxu=None,
                 duu=None, dxy=None, duy=None, dyy=None):
        self.value = value
        self.dx = dx or _zeros_like_x
        self.du = du or _zeros_like_x
        self.dy = dy or _zeros_like_y
        self.dxx = dxx or _zeros_like_x
        self.dxu = dxu or _zeros_like_x
        self.duu = duu or _zeros_like_x
        self.dxy = dxy or _zeros_like_y
        self.duy = duy or _zeros_like_y
        self.dyy = dyy or _zeros_hess
        self.is_affine = all(f is None for f in
                             (dxx, dxu, duu, dxy, duy, dyy))


class RunningCost:
    """Per-player running cost f(t, y, u) with partials in (y, u).

    Here ``y`` is the joint state (P, N) and ``u`` the joint control
    profile (P, N).  ``dyu[a, b]`` is the derivative in state ``a`` and
    control ``b``.
    """

    def __init__(self, value, dy=None, du=None, dyy=None, dyu=None, duu=None):
        zeros_vec = lambda t, y, u: np.zeros_like(np.asarray(y, dtype=float))
        zeros_mat = lambda t, y, u: np.zeros(
            np.asarray(y).shape + (np.asarray(y).shape[-1],))
        self.value = value
        self.dy = dy or zeros_vec
        self.du = du or zeros_vec
        self.dyy = dyy or zeros_mat
        self.dyu = dyu or zeros_mat
        self.duu = duu or zeros_mat


class TerminalCost:
    """Per-player terminal cost g(y) with gradient and Hessian."""

    def __init__(self, value, dy=None, dyy=None):
        self.value = value
        self.dy = dy or (lambda y: np.zeros_like(np.asarray(y, dtype=float)))
        self.dyy = dyy or (lambda y: np.zeros(
            np.asarray(y).shape + (np.asarray(y).shape[-1],)))


class InitialSampler:
    """Seeded sampler for one player's initial state.

    Draws are a pure function of (seed, path index, player index), so
    ensembles of different sizes agree on their common paths.
    """

    def __init__(self, kind: str, **params):
        if kind not in ("constant", "normal", "uniform"):
            raise ValueError(f"unknown initial sampler kind {kind!r}")
        self.kind = kind
        self.params = params

    @classmethod
    def constant(cls, c: float) -> "InitialSampler":
        return cls("constant", c=float(c))

    @classmethod
    def normal(cls, mean: float = 0.0, std: float = 1.0) -> "InitialSampler":
        return cls("normal", mean=float(mean), std=float(std))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "InitialSampler":
        return cls("uniform", lo=float(lo), hi=float(hi))

    def draw(self, seed: int, n_paths: int, player: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n_paths, self.params["c"])
        p = np.arange(n_paths, dtype=np.uint64)
        u = rng.uniform(seed, p, np.uint64(0), np.uint64(player),
                        np.uint64(rng.STREAM_INITIAL))
        if self.kind == "uniform":
            lo, hi = self.params["lo"], self.params["hi"]
            return lo + (hi - lo) * u
        from scipy.special import ndtri
        return self.params["mean"] + self.params["std"] * ndtri(u)

    def second_moment(self) -> float:
        """E[xi^2], exact for the supported families."""
        if self.kind == "constant":
            return self.params["c"] ** 2
        if self.kind == "normal":
            return self.params["mean"] ** 2 + self.params["std"] ** 2
        lo, hi = self.params["lo"], self.params["hi"]
        return (hi * hi + hi * lo + lo * lo) / 3.0

    def moment(self, p: int) -> float:
        """E[|xi|^p] by fixed-seed Monte Carlo (exact for constants)."""
        if self.kind == "constant":
            return abs(self.params["c"]) ** p
        if p == 2:
            return self.second_moment()
        draws = self.draw(12345, 1 << 16, 0)
        return float(np.mean(np.abs(draws) ** p))


@dataclass(frozen=True)
class GameSpec:
    """Full definition of an N-player game."""

    n_players: int
    horizon: float
    initial_samplers: Sequence[InitialSampler]
    drift: Sequence[Coefficient]
    diffusion: Sequence[Coefficient]
    running_cost: Sequence[RunningCost]
    terminal_cost: Sequence[TerminalCost]
    common_noise: bool = False

    def __post_init__(self):
        n = self.n_players
        if n < 1:
            raise ValueError("n_players must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        for name in ("initial_samplers", "drift", "diffusion",
                     "running_cost", "terminal_cost"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have one entry per player")

    @property
    def n_drivers(self) -> int:
        return self.n_players + (1 if self.common_noise else 0)

    def has_affine_coefficients(self) -> bool:
        """True when every drift/diffusion second partial is the zero
        default, in which case the mixed control response vanishes
        identically."""
        return all(c.is_affine for c in
                   list(self.drift) + list(self.diffusion))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T]; the last node is T exactly."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class NoiseBundle:
    """Gaussian increments on a grid, one column per Brownian driver.

    ``increments[p, k, j]`` has variance dt and is reproducible
    bit-exactly from (seed, p, k, j) alone.
    """

    seed: int
    grid: TimeGrid
    n_paths: int
    n_drivers: int
    increments: np.ndarray = field(repr=False)

    @classmethod
    def generate(cls, seed: int, grid: TimeGrid, n_paths: int,
                 n_drivers: int) -> "NoiseBundle":
        z = rng.normal_grid(seed, n_paths, grid.n_steps, n_drivers)
        z *= np.sqrt(grid.dt)
        return cls(seed=seed, grid=grid, n_paths=n_paths,
                   n_drivers=n_drivers, increments=z)

    def truncated_after(self, step: int) -> "NoiseBundle":
        """Copy with all increments from ``step`` onwards zeroed."""
        inc = self.increments.copy()
        inc[:, step:, :] = 0.0
        return NoiseBundle(seed=self.seed, grid=self.grid,
                           n_paths=self.n_paths, n_drivers=self.n_drivers,
                           increments=inc)


class Control:
    """One player's adapted open-loop control.

    The evaluator receives ``(t, k, increments)`` where ``increments``
    is the full (P, M, D) noise tensor; an adapted control may only
    read columns strictly before step ``k``.  Scalar returns broadcast
    over paths.  Controls are closed under scalar combination.
    """

    def __init__(self, fn: Callable, label: str = "control"):
        self.fn = fn
        self.label = label

    def __call__(self, t: float, k: int, increments: np.ndarray) -> np.ndarray:
        out = self.fn(t, k, increments)
        out = np.asarray(out, dtype=float)
        if out.ndim == 0:
            out = np.full(increments.shape[0], float(out))
        return out

    def __add__(self, other: "Control") -> "Control":
        return Control(lambda t, k, w: self(t, k, w) + other(t, k, w),
                       label=f"({self.label}+{other.label})")

    def __rmul__(self, c: float) -> "Control":
        c = float(c)
        return Control(lambda t, k, w: c * self(t, k, w),
                       label=f"{c}*{self.label}")

    def __mul__(self, c: float) -> "Control":
        return self.__rmul__(c)

    def __neg__(self) -> "Control":
        return self.__rmul__(-1.0)

    @classmethod
    def zero(cls) -> "Control":
        return cls(lambda t, k, w: 0.0, label="0")

    @classmethod
    def constant(cls, c: float) -> "Control":
        c = float(c)
        return cls(lambda t, k, w: c, label=f"const({c})")

    @classmethod
    def from_time_function(cls, f: Callable[[float], float],
                           label: str = "t->f(t)") -> "Control":
        return cls(lambda t, k, w: f(t), label=label)

    @classmethod
    def own_noise_feedback(cls, driver: int, scale: float = 1.0) -> "Control":
        """tanh of the driver's Brownian position; adapted by construction."""
        def fn(t, k, w):
            if k == 0:
                return np.zeros(w.shape[0])
            return np.tanh(scale * np.sum(w[:, :k, driver], axis=1))
        return cls(fn, label=f"tanh(W_{driver})")


class ControlProfile:
    """A full strategy profile: one Control per player."""

    def __init__(self, controls: Sequence[Control]):
        self.controls = list(controls)

    def __len__(self) -> int:
        return len(self.controls)

    def __getitem__(self, i: int) -> Control:
        return self.controls[i]

    @classmethod
    def zeros(cls, n: int) -> "ControlProfile":
        return cls([Control.zero() for _ in range(n)])

    @classmethod
    def constants(cls, values: Sequence[float]) -> "ControlProfile":
        return cls([Control.constant(v) for v in values])

    def evaluate(self, t: float, k: int, noise: NoiseBundle) -> np.ndarray:
        """Joint control values at node k, shape (P, N)."""
        cols = [c(t, k, noise.increments) for c in self.controls]
        return np.stack(cols, axis=1)

    def with_player(self, h: int, control: Control) -> "ControlProfile":
        new = list(self.controls)
        new[h] = control
        return ControlProfile(new)

    def perturbed(self, h: int, direction: Control,
                  eps: float) -> "ControlProfile":
        return self.with_player(h, self.controls[h] + eps * direction)

    def combine(self, other: "ControlProfile", w_self: float,
                w_other: float) -> "ControlProfile":
        return ControlProfile([w_self * a + w_other * b
                               for a, b in zip(self.controls, other.controls)])

    def h2_norm_estimate(self, grid: TimeGrid, noise: NoiseBundle,
                         player: int, p: int = 2) -> float:
        """Monte Carlo estimate of E[int |u|^p dt]^(1/p)."""
        total = np.zeros(noise.n_paths)
        for k, t in enumerate(grid.nodes[:-1]):
            total += np.abs(self.controls[player](t, k, noise.increments)) ** p
        return float(np.mean(total * grid.dt)) ** (1.0 / p)


def direction_dictionary(horizon: float) -> list[Control]:
    """The fixed perturbation dictionary used in derivative sweeps."""
    T = float(horizon)
    return [
        Control.constant(1.0),
        Control.from_time_function(lambda t: t / T, label="ramp"),
        Control.from_time_function(lambda t: np.sin(2.0 * np.pi * t / T),
                                   label="sine"),
        Control.from_time_function(lambda t: 1.0 if t < T / 2 else 0.0,
                                   label="first-half"),
    ]


@dataclass
class CostGapNorms:
    """Sup-norms of derivatives of the cost difference of one pair.

    ``f_yy[h, l]`` bounds the (state_h, state_l) second derivative of
    f_i - f_j, ``f_yu[h, l]`` the (state_h, control_l) one, and so on.
    ``f_y0``/``g_y0`` record first derivatives at the origin.
    """

    f_yy: np.ndarray
    f_yu: np.ndarray
    f_uu: np.ndarray
    g_yy: np.ndarray
    f_y0: np.ndarray
    g_y0: np.ndarray
    sampled: bool = False


@dataclass
class ConstantLedger:
    """Lipschitz/coupling constants feeding the closed-form alpha bounds.

    ``L_b``/``L_sigma`` bound the own-state, control, and second own-
    state/control derivative groups of the coefficients; ``L_y_b``/
    ``L_y_sigma`` bound the joint-state coupling with the 1/N and 1/N^2
    scalings.  ``L_b_state``/``L_sigma_state`` bound only the state
    derivative part and default to the full constants; they drive the
    coefficient-matrix norm bounds.  ``cost_gaps[(i, j)]`` holds the
    pairwise cost-difference derivative sup-norms for i < j.
    """

    L_b: float
    L_y_b: float
    L_sigma: float
    L_y_sigma: float
    cost_gaps: dict = field(default_factory=dict)
    L_b_state: Optional[float] = None
    L_sigma_state: Optional[float] = None

    def __post_init__(self):
        for name in ("L_b", "L_y_b", "L_sigma", "L_y_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.L_b_state is None:
            self.L_b_state = self.L_b
        if self.L_sigma_state is None:
            self.L_sigma_state = self.L_sigma

    @property
    def L_y_b_sigma(self) -> float:
        """Combined drift/diffusion coupling constant."""
        return self.L_y_b + 3.0 * self.L_y_sigma**2

    def gap(self, i: int, j: int) -> CostGapNorms:
        key = (min(i, j), max(i, j))
        return self.cost_gaps[key]

    def to_jsonable(self) -> dict:
        out = {
            "L_b": self.L_b, "L_y_b": self.L_y_b,
            "L_sigma": self.L_sigma, "L_y_sigma": self.L_y_sigma,
            "L_y_b_sigma": self.L_y_b_sigma,
            "L_b_state": self.L_b_state, "L_sigma_state": self.L_sigma_state,
            "cost_gap_sup_norms": {}, "cost_gap_base": {},
        }
        for (i, j), g in sorted(self.cost_gaps.items()):
            key = f"{i},{j}"
            out["cost_gap_sup_norms"][key] = {
                "f_yy": g.f_yy.tolist(), "f_yu": g.f_yu.tolist(),
                "f_uu": g.f_uu.tolist(), "g_yy": g.g_yy.tolist(),
                "sampled": g.sampled,
            }
            out["cost_gap_base"][key] = {
                "f_y0": g.f_y0.tolist(), "g_y0": g.g_y0.tolist(),
            }
        return out


@dataclass(frozen=True)
class SampleBox:
    """Compact box from which validation points are drawn."""

    x_lo: float = -2.0
    x_hi: float = 2.0
    u_lo: float = -2.0
    u_hi: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.x_lo) and np.isfinite(self.x_hi)
                and np.isfinite(self.u_lo) and np.isfinite(self.u_hi)):
            raise ValueError("sample box must be finite")


def _sample_points(spec: GameSpec, box: SampleBox, n: int, seed: int = 2024):
    """Quasi-uniform (t, x, y, u) draws on the box, vectorized."""
    N = spec.n_players
    idx = np.arange(n, dtype=np.uint64)
    cols = []
    for c in range(2 * N + 2):
        cols.append(rng.uniform(seed, idx, np.uint64(10_000 + c), np.uint64(0),
                                np.uint64(rng.STREAM_SCRATCH)))
    t = cols[0] * spec.horizon
    x = box.x_lo + (box.x_hi - box.x_lo) * cols[1]
    y = np.stack([box.x_lo + (box.x_hi - box.x_lo) * cols[2 + a]
                  for a in range(N)], axis=1)
    u = np.stack([box.u_lo + (box.u_hi - box.u_lo) * cols[2 + N + a]
                  for a in range(N)], axis=1)
    return t, x, y, u


def _ratio(value: float, bound: float) -> float:
    if bound > 0:
        return value / bound
    return 0.0 if value <= 1e-300 else np.inf


@dataclass
class ValidationRecord:
    player: int
    coefficient: str
    inequality: str
    worst_value: float
    bound: float
    ratio: float


@dataclass
class ValidationReport:
    records: list
    passed: bool
    messages: list

    def worst(self) -> ValidationRecord:
        return max(self.records, key=lambda r: r.ratio)


def validate_game(spec: GameSpec, ledger: ConstantLedger,
                  box: SampleBox = SampleBox(), n_samples: int = 256,
                  check_fd: bool = True) -> ValidationReport:
    """Check the coefficient growth/decay inequalities against the ledger.

    Each inequality is sampled on the box; the report lists the worst
    ratio of sampled value to ledger bound.  The game passes iff every
    ratio is at most 1 + 1e-6.  Non-finite evaluator output raises with
    a diagnostic naming the player, point, and derivative tag.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    N = spec.n_players
    records: list[ValidationRecord] = []
    messages: list[str] = []

    ts, xs, ys, us = _sample_points(spec, box, n_samples)
    kd = np.eye(N)

    for i in range(N):
        for tag, coef, L, L_y in (("b", spec.drift[i], ledger.L_b, ledger.L_y_b),
                                  ("sigma", spec.diffusion[i], ledger.L_sigma,
                                   ledger.L_y_sigma)):
            u_own = us[:, i]
            zero_x = np.zeros_like(xs)
            zero_y = np.zeros_like(ys)
            evals = {
                "value0": coef.value(ts, zero_x, zero_y, u_own),
                "dx": coef.dx(ts, xs, ys, u_own),
                "du": coef.du(ts, xs, ys, u_own),
                "duu": coef.duu(ts, xs, ys, u_own),
                "dxx": coef.dxx(ts, xs, ys, u_own),
                "dxu": coef.dxu(ts, xs, ys, u_own),
                "dy": coef.dy(ts, xs, ys, u_own),
                "dxy": coef.dxy(ts, xs, ys, u_own),
                "duy": coef.duy(ts, xs, ys, u_own),
                "dyy": coef.dyy(ts, xs, ys, u_own),
            }
            for name, arr in evals.items():
                bad = ~np.isfinite(arr)
                if np.any(bad):
                    p = int(np.argwhere(bad)[0][0])
                    raise FloatingPointError(
                        f"non-finite {tag}_{i} derivative {name} for player "
                        f"{i} at t={ts[p]:.4g}, x={xs[p]:.4g}, u={u_own[p]:.4g}")

            growth = np.abs(evals["value0"]) / (1.0 + np.abs(u_own))
            checks = [
                ("linear growth |phi(t,0,0,u)|", float(np.max(growth)), L),
                ("|d_x|+|d_u|+|d_uu|",
                 float(np.max(np.abs(evals["dx"]) + np.abs(evals["du"])
                              + np.abs(evals["duu"]))), L),
                ("|d_xx|+|d_xu|",
                 float(np.max(np.abs(evals["dxx"]) + np.abs(evals["dxu"]))), L),
                ("N*|d_yj|", float(np.max(N * np.abs(evals["dy"]))), L_y),
                ("N*(|d_xyj|+|d_uyj|)",
                 float(np.max(N * (np.abs(evals["dxy"])
                                   + np.abs(evals["duy"])))), L_y),
                ("N*|d_yjyj|",
                 float(np.max(N * np.abs(evals["dyy"][:, np.arange(N),
                                                      np.arange(N)]))), L_y),
            ]
            if N > 1:
                off = np.abs(evals["dyy"]) * (1.0 - kd)
                checks.append(("N^2*|d_yjyk|, j!=k",
                               float(np.max(N * N * off)), L_y))
            for label, worst, bound in checks:
                records.append(ValidationRecord(
                    player=i, coefficient=tag, inequality=label,
                    worst_value=worst, bound=bound,
                    ratio=_ratio(worst, bound)))

    # cost second derivatives bounded on the box, and pairwise gap
    # sup-norms never exceeded by sampled values
    for i in range(N):
        f, g = spec.running_cost[i], spec.terminal_cost[i]
        for name, arr in (("f_yy", f.dyy(ts, ys, us)),
                          ("f_yu", f.dyu(ts, ys, us)),
                          ("f_uu", f.duu(ts, ys, us)),
                          ("g_yy", g.dyy(ys))):
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(
                    f"non-finite cost derivative {name} for player {i}")
    for (i, j), gap in ledger.cost_gaps.items():
        fi, fj = spec.running_cost[i], spec.running_cost[j]
        gi, gj = spec.terminal_cost[i], spec.terminal_cost[j]
        pairs = (
            ("f_yy", np.abs(fi.dyy(ts, ys, us) - fj.dyy(ts, ys, us)), gap.f_yy),
            ("f_yu", np.abs(fi.dyu(ts, ys, us) - fj.dyu(ts, ys, us)), gap.f_yu),
            ("f_uu", np.abs(fi.duu(ts, ys, us) - fj.duu(ts, ys, us)), gap.f_uu),
            ("g_yy", np.abs(gi.dyy(ys) - gj.dyy(ys)), gap.g_yy),
        )
        for name, sampled, bound in pairs:
            worst = float(np.max(sampled - bound[None]))
            ref = float(np.max(bound)) if np.max(bound) > 0 else 1.0
            records.append(ValidationRecord(
                player=i, coefficient=f"gap({i},{j}).{name}",
                inequality="sampled <= sup-norm",
                worst_value=worst, bound=0.0,
                ratio=1.0 + worst / ref if worst > 1e-9 * ref else 0.0))

    if check_fd:
        msgs = _check_partial_consistency(spec, ts, xs, ys, us)
        messages.extend(msgs)

    passed = all(r.ratio <= 1.0 + 1e-6 for r in records) and not messages
    return ValidationReport(records=records, passed=passed, messages=messages)


def _check_partial_consistency(spec, ts, xs, ys, us, tol=1e-4):
    """Central finite differences of each value evaluator versus the
    supplied first partials; second partials versus differences of the
    first partials."""
    msgs = []
    N = spec.n_players

    def close(analytic, fd, what, player):
        err = np.max(np.abs(analytic - fd) - tol * (1.0 + np.abs(analytic)))
        if err > 0:
            msgs.append(f"{what} of player {player}: analytic/FD mismatch "
                        f"(excess {err:.3e})")

    for i in range(N):
        u_own = us[:, i]
        for tag, c in (("b", spec.drift[i]), ("sigma", spec.diffusion[i])):
            hx = 1e-5 * (1.0 + np.abs(xs))
            fd_dx = (c.value(ts, xs + hx, ys, u_own)
                     - c.value(ts, xs - hx, ys, u_own)) / (2 * hx)
            close(c.dx(ts, xs, ys, u_own), fd_dx, f"d_x {tag}", i)
            hu = 1e-5 * (1.0 + np.abs(u_own))
            fd_du = (c.value(ts, xs, ys, u_own + hu)
                     - c.value(ts, xs, ys, u_own - hu)) / (2 * hu)
            close(c.du(ts, xs, ys, u_own), fd_du, f"d_u {tag}", i)
            fd_dxx = (c.dx(ts, xs + hx, ys, u_own)
                      - c.dx(ts, xs - hx, ys, u_own)) / (2 * hx)
            close(c.dxx(ts, xs, ys, u_own), fd_dxx, f"d_xx {tag}", i)
            fd_dxu = (c.dx(ts, xs, ys, u_own + hu)
                      - c.dx(ts, xs, ys, u_own - hu)) / (2 * hu)
            close(c.dxu(ts, xs, ys, u_own), fd_dxu, f"d_xu {tag}", i)
            fd_duu = (c.du(ts, xs, ys, u_own + hu)
                      - c.du(ts, xs, ys, u_own - hu)) / (2 * hu)
            close(c.duu(ts, xs, ys, u_own), fd_duu, f"d_uu {tag}", i)
            for a in range(N):
                ha = 1e-5 * (1.0 + np.abs(ys[:, a]))
                e = np.zeros_like(ys); e[:, a] = ha
                fd_dya = (c.value(ts, xs, ys + e, u_own)
                          - c.value(ts, xs, ys - e, u_own)) / (2 * ha)
                close(c.dy(ts, xs, ys, u_own)[:, a], fd_dya,
                      f"d_y{a} {tag}", i)
                fd_dxy = (c.dx(ts, xs, ys + e, u_own)
                          - c.dx(ts, xs, ys - e, u_own)) / (2 * ha)
                close(c.dxy(ts, xs, ys, u_own)[:, a], fd_dxy,
                      f"d_xy{a} {tag}", i)
                fd_duy = (c.du(ts, xs, ys + e, u_own)
                          - c.du(ts, xs, ys - e, u_own)) / (2 * ha)
                close(c.duy(ts, xs, ys, u_own)[:, a], fd_duy,
                      f"d_uy{a} {tag}", i)
                fd_dyy = (c.dy(ts, xs, ys + e, u_own)
                          - c.dy(ts, xs, ys - e, u_own)) / (2 * ha[:, None])
                close(c.dyy(ts, xs, ys, u_own)[:, a, :], fd_dyy,
                      f"d_y{a}y. {tag}", i)

        f, g = spec.running_cost[i], spec.terminal_cost[i]
        for a in range(N):
            ha = 1e-5 * (1.0 + np.abs(ys[:, a]))
            ey = np.zeros_like(ys); ey[:, a] = ha
            fd = (f.value(ts, ys + ey, us) - f.value(ts, ys - ey, us)) / (2 * ha)
            close(f.dy(ts, ys, us)[:, a], fd, f"d_y{a} f", i)
            fdg = (g.value(ys + ey) - g.value(ys - ey)) / (2 * ha)
            close(g.dy(ys)[:, a], fdg, f"d_y{a} g", i)
            hu = 1e-5 * (1.0 + np.abs(us[:, a]))
            eu = np.zeros_like(us); eu[:, a] = hu
            fdu = (f.value(ts, ys, us + eu) - f.value(ts, ys, us - eu)) / (2 * hu)
            close(f.du(ts, ys, us)[:, a], fdu, f"d_u{a} f", i)
            fd2 = (f.dy(ts, ys + ey, us) - f.dy(ts, ys - ey, us)) / (2 * ha[:, None])
            close(f.dyy(ts, ys, us)[:, :, a], fd2, f"d_y.y{a} f", i)
            fd2u = (f.dy(ts, ys, us + eu) - f.dy(ts, ys, us - eu)) / (2 * hu[:, None])
            close(f.dyu(ts, ys, us)[:, :, a], fd2u, f"d_y.u{a} f", i)
            fd2uu = (f.du(ts, ys, us + eu) - f.du(ts, ys, us - eu)) / (2 * hu[:, None])
            close(f.duu(ts, ys, us)[:, :, a], fd2uu, f"d_u.u{a} f", i)
            fd2g = (g.dy(ys + ey) - g.dy(ys - ey)) / (2 * ha[:, None])
            close(g.dyy(ys)[:, :, a], fd2g, f"d_y.y{a} g", i)
    return msgs


def fd_coefficient(value: Callable, rel_step: float = 1e-5) -> Coefficient:
    """Wrap a bare value evaluator with central-difference partials.

    Convenience for prototyping custom games; preset games supply
    analytic partials and should not use this in the core pipeline.
    """
    def hstep(v):
        return rel_step * (1.0 + np.abs(v))

    def dx(t, x, y, u):
        h = hstep(x)
        return (value(t, x + h, y, u) - value(t, x - h, y, u)) / (2 * h)

    def du(t, x, y, u):
        h = hstep(u)
        return (value(t, x, y, u + h) - value(t, x, y, u - h)) / (2 * h)

    def dy(t, x, y, u):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for a in range(y.shape[-1]):
            h = hstep(y[:, a])
            e = np.zeros_like(y); e[:, a] = h
            out[:, a] = (value(t, x, y + e, u) - value(t, x, y - e, u)) / (2 * h)
        return out

    def dxx(t, x, y, u):
        h = hstep(x)
        return (value(t, x + h, y, u) - 2 * value(t, x, y, u)
                + value(t, x - h, y, u)) / (h * h)

    def duu(t, x, y, u):
        h = hstep(u)
        return (value(t, x, y, u + h) - 2 * value(t, x, y, u)
                + value(t, x, y, u - h)) / (h * h)

    def dxu(t, x, y, u):
        hx, hu = hstep(x), hstep(u)
        return ((value(t, x + hx, y, u + hu) - value(t, x + hx, y, u - hu)
                 - value(t, x - hx, y, u + hu) + value(t, x - hx, y, u - hu))
                / (4 * hx * hu))

    def dxy(t, x, y, u):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        hx = hstep(x)
        for a in range(y.shape[-1]):
            h = hstep(y[:, a])
            e = np.zeros_like(y); e[:, a] = h
            out[:, a] = ((value(t, x + hx, y + e, u) - value(t, x + hx, y - e, u)
                          - value(t, x - hx, y + e, u) + value(t, x - hx, y - e, u))
                         / (4 * hx * h))
        return out

    def duy(t, x, y, u):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        hu = hstep(u)
        for a in range(y.shape[-1]):
            h = hstep(y[:, a])
            e = np.zeros_like(y); e[:, a] = h
            out[:, a] = ((value(t, x, y + e, u + hu) - value(t, x, y - e, u + hu)
                          - value(t, x, y + e, u - hu) + value(t, x, y - e, u - hu))
                         / (4 * hu * h))
        return out

    def dyy(t, x, y, u):
        y = np.asarray(y, dtype=float)
        N = y.shape[-1]
        out = np.zeros(y.shape + (N,))
        for a in range(N):
            ha = hstep(y[:, a])
            ea = np.zeros_like(y); ea[:, a] = ha
            for b in range(a, N):
                if a == b:
                    out[:, a, a] = (value(t, x, y + ea, u) - 2 * value(t, x, y, u)
                                    + value(t, x, y - ea, u)) / (ha * ha)
                else:
                    hb = hstep(y[:, b])
                    eb = np.zeros_like(y); eb[:, b] = hb
                    v = ((value(t, x, y + ea + eb, u) - value(t, x, y + ea - eb, u)
                          - value(t, x, y - ea + eb, u) + value(t, x, y - ea - eb, u))
                         / (4 * ha * hb))
                    out[:, a, b] = v
                    out[:, b, a] = v
        return out

    return Coefficient(value, dx=dx, du=du, dy=dy, dxx=dxx, dxu=dxu,
                       duu=duu, dxy=dxy, duy=duy, dyy=dyy)
