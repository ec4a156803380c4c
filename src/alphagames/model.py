"""Domain types for N-player controlled diffusions.

A game is a bundle of joint evaluators, one per quantity (the drift
and the diffusion of the private states, the running and the terminal
costs), each returning every player at once, plus per-player initial
state samplers and an optional shared Brownian driver.  Evaluators
carry analytic partial derivatives; nothing in this module integrates
anything.  All types are immutable after construction.  Evaluators are
pure functions of the slice they read and keep no module-level state:
what several of them share (the state mean, tanh of the state and the
control, the tanh sum) is computed lazily on the slice and freed with
it.

Conventions used throughout the package:

* private states are one-dimensional, so a game with N players has an
  N-dimensional joint state;
* every evaluator reads one ``Slice(t, x, y, u)`` over P Monte Carlo
  paths: own states ``x``, joint state ``y`` and own controls ``u``,
  each (P, N), column i being player i's; ``t`` is a scalar in the
  sweeps and a (P, 1) column in validation.  The sweeps pass the same
  array as ``x`` and ``y``; validation samples them independently.
  Coefficients read ``x``, ``y`` and ``u``; costs read ``y`` and ``u``
  only (terminal costs ``y`` only);
* coefficient values and own partials (``dx, du, dxx, dxu, duu``) are
  (P, N), column i for player i; joint gradients (``dy, dxy, duy``)
  are (P, N, N), row i for player i; joint-state Hessians are a
  ``Hessian`` of declared structure;
* cost values are (P, N), cost gradients (P, N, N) and cost Hessians
  (P, N, N, N), player first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng

__all__ = [
    "Slice",
    "Hessian",
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


class Slice:
    """One time step's evaluator arguments (see the module conventions)
    and the quantities several evaluators share, each computed on first
    use and freed with the slice."""

    def __init__(self, t, x, y, u=None):
        self.t, self.x, self.y, self.u = t, x, y, u

    # reductions over players run on row-major copies: numpy sums rows
    # of eight or more in another order than columns

    @cached_property
    def mean(self):
        """(P,) average of the joint state."""
        return np.ascontiguousarray(self.y).mean(axis=1)

    @cached_property
    def tanh_y(self):
        return np.tanh(self.y)

    @cached_property
    def tanh_x(self):
        return self.tanh_y if self.x is self.y else np.tanh(self.x)

    @cached_property
    def tanh_u(self):
        return np.tanh(self.u)

    @cached_property
    def tanh_sum(self):
        """(P,) sum over players of tanh of the joint state."""
        return np.ascontiguousarray(self.tanh_y).sum(axis=1)


class Hessian:
    """Joint-state Hessians of every player's coefficient at one slice,
    in a declared structure: ``zero``; ``diagonal``, where ``data[p, i,
    n]`` is player i's second derivative in y_n and every mixed entry
    is zero; or ``dense``, ``data[p, i, n, m]``.  Consumers use only the
    two contractions and the dense view, so none branches on the
    structure, and a zero or diagonal Hessian never builds an N^4 array
    per path.  Contractions sum in ascending index order."""

    def __init__(self, kind: str, shape, data=None):
        self.kind, self.shape, self.data = kind, tuple(shape), data

    @classmethod
    def zero(cls, shape) -> "Hessian":
        """Identically zero; ``shape`` is (P, N)."""
        return cls("zero", shape)

    @classmethod
    def diagonal(cls, data) -> "Hessian":
        return cls("diagonal", data.shape[:2], data)

    @classmethod
    def dense(cls, data) -> "Hessian":
        return cls("dense", data.shape[:2], data)

    def bilinear(self, a, b) -> np.ndarray:
        """(P, N): row i is the form of player i's Hessian on the (P, N)
        vectors ``a`` and ``b``."""
        if self.kind == "dense":
            return np.einsum("pn,pinm,pm->pi", a, self.data, b,
                             optimize=False)
        out = np.zeros(self.shape)
        if self.kind == "diagonal":
            terms = a[:, None, :] * self.data * b[:, None, :]
            for n in range(self.shape[1]):
                out += terms[..., n]
        return out

    def weighted(self, w) -> np.ndarray:
        """(P, N, N): the players' Hessians summed with (P, N) weights."""
        if self.kind == "dense":
            return np.einsum("pi,piab->pab", w, self.data, optimize=False)
        P, N = self.shape
        out = np.zeros((P, N, N))
        if self.kind == "diagonal":
            terms = w[:, :, None] * self.data
            diagonal = np.einsum("pii->pi", out)  # writable view
            for i in range(N):
                diagonal += terms[:, i]
        return out

    def dense_view(self) -> np.ndarray:
        """(P, N, N, N) array of every entry."""
        P, N = self.shape
        if self.kind == "dense":
            return self.data
        if self.kind == "diagonal":
            return self.data[..., None] * np.eye(N)
        return np.zeros((P, N, N, N))


def _zero(tail):
    """Evaluator of a partial declared zero: (P, N) plus ``tail`` more
    axes of size N, or a zero ``Hessian`` when ``tail`` is None."""
    def zero(s):
        P, N = s.y.shape
        if tail is None:
            return Hessian.zero((P, N))
        return np.zeros((P, N) + (N,) * tail)
    return zero


class _Evaluators:
    """A value evaluator plus the partials named in ``PARTIALS`` (name ->
    trailing N axes after (P, N)); a partial not supplied is identically
    zero."""

    PARTIALS: dict = {}

    def __init__(self, value, **partials):
        unknown = set(partials) - set(self.PARTIALS)
        if unknown:
            raise TypeError(f"unknown partials {sorted(unknown)}")
        self.value = value
        self.supplied = {k for k, f in partials.items() if f is not None}
        for name, tail in self.PARTIALS.items():
            setattr(self, name, partials.get(name) or _zero(tail))


class Coefficient(_Evaluators):
    """Drift or diffusion of every player's private state, b_i(t, x_i,
    y, u_i), with analytic partials in the own state, the own control
    and the joint state; ``dyy`` returns a ``Hessian``."""

    PARTIALS = {"dx": 0, "du": 0, "dxx": 0, "dxu": 0, "duu": 0,
                "dy": 1, "dxy": 1, "duy": 1, "dyy": None}

    @property
    def is_affine(self) -> bool:
        """Every second partial is declared zero."""
        return not self.supplied - {"dx", "du", "dy"}


class RunningCost(_Evaluators):
    """Every player's running cost f_i(t, y, u) with partials in the
    joint state and control; ``dyu[:, i, a, b]`` is player i's
    derivative in state a and control b."""

    PARTIALS = {"dy": 1, "du": 1, "dyy": 2, "dyu": 2, "duu": 2}


class TerminalCost(_Evaluators):
    """Every player's terminal cost g_i(y) with gradient and Hessian."""

    PARTIALS = {"dy": 1, "dyy": 2}


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
    drift: Coefficient
    diffusion: Coefficient
    running_cost: RunningCost
    terminal_cost: TerminalCost
    common_noise: bool = False

    def __post_init__(self):
        if self.n_players < 1:
            raise ValueError("n_players must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if len(self.initial_samplers) != self.n_players:
            raise ValueError("initial_samplers must have one entry per player")

    @property
    def n_drivers(self) -> int:
        return self.n_players + (1 if self.common_noise else 0)

    def has_affine_coefficients(self) -> bool:
        """True when every drift/diffusion second partial is declared
        zero, in which case the mixed control response vanishes
        identically."""
        return self.drift.is_affine and self.diffusion.is_affine

    def has_additive_noise(self) -> bool:
        """True when the diffusion supplies no first partial, so the
        linearized responses have no diffusion term of their own."""
        return not self.diffusion.supplied & {"dx", "du", "dy"}

    def has_path_independent_responses(self, direction) -> bool:
        """True when every first-order response to ``direction`` is the
        same on every path: affine coefficients, additive noise and a
        direction that reads no noise.  The linearization then reads
        neither state nor control, and the response steps read no
        increment."""
        return (self.has_affine_coefficients() and self.has_additive_noise()
                and not direction.reads_noise)

    def initial_states(self, seed: int, n_paths: int) -> np.ndarray:
        """(P, N) initial states, player i's column drawn by its sampler."""
        return np.stack([s.draw(seed, n_paths, i)
                         for i, s in enumerate(self.initial_samplers)], axis=1)


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
    ``reads_noise`` declares whether the values may depend on the
    increments: a bare ``Control(fn)`` may, the time-function
    constructors do not, and a combination reads noise when any of its
    operands does.
    """

    def __init__(self, fn: Callable, label: str = "control",
                 reads_noise: bool = True):
        self.fn = fn
        self.label = label
        self.reads_noise = reads_noise

    def __call__(self, t: float, k: int, increments: np.ndarray) -> np.ndarray:
        out = self.fn(t, k, increments)
        out = np.asarray(out, dtype=float)
        if out.ndim == 0:
            out = np.full(increments.shape[0], float(out))
        return out

    def __add__(self, other: "Control") -> "Control":
        return Control(lambda t, k, w: self(t, k, w) + other(t, k, w),
                       label=f"({self.label}+{other.label})",
                       reads_noise=self.reads_noise or other.reads_noise)

    def __rmul__(self, c: float) -> "Control":
        c = float(c)
        return Control(lambda t, k, w: c * self(t, k, w),
                       label=f"{c}*{self.label}",
                       reads_noise=self.reads_noise)

    def __mul__(self, c: float) -> "Control":
        return self.__rmul__(c)

    def __neg__(self) -> "Control":
        return self.__rmul__(-1.0)

    @classmethod
    def zero(cls) -> "Control":
        return cls(lambda t, k, w: 0.0, label="0", reads_noise=False)

    @classmethod
    def constant(cls, c: float) -> "Control":
        c = float(c)
        return cls(lambda t, k, w: c, label=f"const({c})", reads_noise=False)

    @classmethod
    def from_time_function(cls, f: Callable[[float], float],
                           label: str = "t->f(t)") -> "Control":
        return cls(lambda t, k, w: f(t), label=label, reads_noise=False)

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


def _per_player(a) -> np.ndarray:
    """(N,) maxima of an array whose axis 1 is the player."""
    return np.max(a, axis=tuple(d for d in range(a.ndim) if d != 1))


def validate_game(spec: GameSpec, ledger: ConstantLedger,
                  box: SampleBox = SampleBox(), n_samples: int = 256,
                  check_fd: bool = True) -> ValidationReport:
    """Check the coefficient growth/decay inequalities against the ledger.

    Each inequality is sampled on the box; the report lists the worst
    ratio of sampled value to ledger bound.  The game passes iff every
    ratio is at most 1 + 1e-6.  Non-finite evaluator output raises with
    a diagnostic naming the player, point, and derivative tag.  Every
    player's own state is the same sample, drawn independently of the
    joint state.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    N = spec.n_players
    records: list[ValidationRecord] = []

    ts, xs, ys, us = _sample_points(spec, box, n_samples)
    x = np.repeat(xs[:, None], N, axis=1)
    sl = Slice(ts[:, None], x, ys, us)
    origin = Slice(ts[:, None], np.zeros_like(x), np.zeros_like(ys), us)
    kd = np.eye(N)

    checks = {}
    for tag, coef, L, L_y in (("b", spec.drift, ledger.L_b, ledger.L_y_b),
                              ("sigma", spec.diffusion, ledger.L_sigma,
                               ledger.L_y_sigma)):
        e = {"value0": coef.value(origin),
             **{name: getattr(coef, name)(sl) for name in
                ("dx", "du", "duu", "dxx", "dxu", "dy", "dxy", "duy")},
             "dyy": coef.dyy(sl).dense_view()}
        inequalities = [
            ("linear growth |phi(t,0,0,u)|",
             np.abs(e["value0"]) / (1.0 + np.abs(us)), L),
            ("|d_x|+|d_u|+|d_uu|",
             np.abs(e["dx"]) + np.abs(e["du"]) + np.abs(e["duu"]), L),
            ("|d_xx|+|d_xu|", np.abs(e["dxx"]) + np.abs(e["dxu"]), L),
            ("N*|d_yj|", N * np.abs(e["dy"]), L_y),
            ("N*(|d_xyj|+|d_uyj|)",
             N * (np.abs(e["dxy"]) + np.abs(e["duy"])), L_y),
            ("N*|d_yjyj|",
             N * np.abs(e["dyy"][:, :, np.arange(N), np.arange(N)]), L_y),
        ] + ([("N^2*|d_yjyk|, j!=k",
               N * N * (np.abs(e["dyy"]) * (1.0 - kd)), L_y)]
             if N > 1 else [])
        checks[tag] = e, [(label, _per_player(arr), bound)
                          for label, arr, bound in inequalities]
    for i in range(N):
        for tag, (e, inequalities) in checks.items():
            for name, arr in e.items():
                bad = ~np.isfinite(arr[:, i])
                if np.any(bad):
                    p = int(np.argwhere(bad)[0][0])
                    raise FloatingPointError(
                        f"non-finite {tag}_{i} derivative {name} for player "
                        f"{i} at t={ts[p]:.4g}, x={xs[p]:.4g}, "
                        f"u={us[p, i]:.4g}")
            records += [ValidationRecord(
                player=i, coefficient=tag, inequality=label,
                worst_value=float(worst[i]), bound=bound,
                ratio=_ratio(float(worst[i]), bound))
                for label, worst, bound in inequalities]

    # cost second derivatives bounded on the box, and pairwise gap
    # sup-norms never exceeded by sampled values
    f, g = spec.running_cost, spec.terminal_cost
    hessians = (("f_yy", f.dyy(sl)), ("f_yu", f.dyu(sl)),
                ("f_uu", f.duu(sl)), ("g_yy", g.dyy(sl)))
    for i in range(N):
        for name, arr in hessians:
            if not np.all(np.isfinite(arr[:, i])):
                raise FloatingPointError(
                    f"non-finite cost derivative {name} for player {i}")
    for (i, j), gap in ledger.cost_gaps.items():
        for name, arr in hessians:
            bound = getattr(gap, name)
            worst = float(np.max(np.abs(arr[:, i] - arr[:, j]) - bound[None]))
            ref = float(np.max(bound)) if np.max(bound) > 0 else 1.0
            records.append(ValidationRecord(
                player=i, coefficient=f"gap({i},{j}).{name}",
                inequality="sampled <= sup-norm",
                worst_value=worst, bound=0.0,
                ratio=1.0 + worst / ref if worst > 1e-9 * ref else 0.0))

    messages = _check_partial_consistency(spec, sl) if check_fd else []
    passed = all(r.ratio <= 1.0 + 1e-6 for r in records) and not messages
    return ValidationReport(records=records, passed=passed, messages=messages)


def _shifted(s: Slice, *shifts) -> Slice:
    """``s`` with each (argument, displacement) of ``shifts`` added in
    turn."""
    args = dict(x=s.x, y=s.y, u=s.u)
    for name, d in shifts:
        args[name] = args[name] + d
    return Slice(s.t, **args)


def _coordinate(v, a, rel_step=1e-5):
    """Step (P,) of coordinate a of the (P, N) ``v``, and the (P, N)
    displacement that moves that coordinate alone by it."""
    h = rel_step * (1.0 + np.abs(v[:, a]))
    e = np.zeros(v.shape)
    e[:, a] = h
    return h, e


def _check_partial_consistency(spec, sl, tol=1e-4):
    """Central finite differences of each value evaluator versus the
    supplied first partials; second partials versus differences of the
    first partials.  Messages are ordered by player."""
    found = []

    def close(analytic, fd, what):
        err = _per_player(np.abs(analytic - fd)
                          - tol * (1.0 + np.abs(analytic)))
        found.extend((i, f"{what} of player {i}: analytic/FD mismatch "
                         f"(excess {err[i]:.3e})")
                     for i in np.flatnonzero(err > 0))

    def diff(fn, name, delta, h):
        """Central difference of ``fn`` with slice argument ``name``
        moved by +-``delta``, over the step ``h``."""
        d = (fn(_shifted(sl, (name, delta)))
             - fn(_shifted(sl, (name, -delta))))
        return d / (2 * h).reshape(h.shape + (1,) * (d.ndim - h.ndim))

    N = spec.n_players
    hx = 1e-5 * (1.0 + np.abs(sl.x))
    hu = 1e-5 * (1.0 + np.abs(sl.u))
    for tag, c in (("b", spec.drift), ("sigma", spec.diffusion)):
        close(c.dx(sl), diff(c.value, "x", hx, hx), f"d_x {tag}")
        close(c.du(sl), diff(c.value, "u", hu, hu), f"d_u {tag}")
        close(c.dxx(sl), diff(c.dx, "x", hx, hx), f"d_xx {tag}")
        close(c.dxu(sl), diff(c.dx, "u", hu, hu), f"d_xu {tag}")
        close(c.duu(sl), diff(c.du, "u", hu, hu), f"d_uu {tag}")
        dy, dxy, duy = c.dy(sl), c.dxy(sl), c.duy(sl)
        dyy = c.dyy(sl).dense_view()
        for a in range(N):
            h, e = _coordinate(sl.y, a)
            close(dy[:, :, a], diff(c.value, "y", e, h), f"d_y{a} {tag}")
            close(dxy[:, :, a], diff(c.dx, "y", e, h), f"d_xy{a} {tag}")
            close(duy[:, :, a], diff(c.du, "y", e, h), f"d_uy{a} {tag}")
            close(dyy[:, :, a, :], diff(c.dy, "y", e, h), f"d_y{a}y. {tag}")

    f, g = spec.running_cost, spec.terminal_cost
    fy, fu, gy = f.dy(sl), f.du(sl), g.dy(sl)
    fyy, fyu, fuu, gyy = f.dyy(sl), f.dyu(sl), f.duu(sl), g.dyy(sl)
    for a in range(N):
        ha, ey = _coordinate(sl.y, a)
        hb, eu = _coordinate(sl.u, a)
        close(fy[:, :, a], diff(f.value, "y", ey, ha), f"d_y{a} f")
        close(gy[:, :, a], diff(g.value, "y", ey, ha), f"d_y{a} g")
        close(fu[:, :, a], diff(f.value, "u", eu, hb), f"d_u{a} f")
        close(fyy[..., a], diff(f.dy, "y", ey, ha), f"d_y.y{a} f")
        close(fyu[..., a], diff(f.dy, "u", eu, hb), f"d_y.u{a} f")
        close(fuu[..., a], diff(f.du, "u", eu, hb), f"d_u.u{a} f")
        close(gyy[..., a], diff(g.dy, "y", ey, ha), f"d_y.y{a} g")
    return [msg for _, msg in sorted(found, key=lambda m: m[0])]


def fd_coefficient(value: Callable, rel_step: float = 1e-5) -> Coefficient:
    """Wrap a bare joint value evaluator with central-difference partials.

    Convenience for prototyping custom games; preset games supply
    analytic partials and should not use this in the core pipeline.
    """
    def own(s, name):
        """Shift (argument, displacement, step) of every own state or
        control."""
        h = rel_step * (1.0 + np.abs(getattr(s, name)))
        return name, h, h

    def coordinate(s, a):
        """Shift of joint-state coordinate a, its step as a column."""
        h, e = _coordinate(s.y, a, rel_step)
        return "y", e, h[:, None]

    def moved(s, *shifts):
        return value(_shifted(s, *shifts))

    def first(s, a):
        name, d, h = a
        return (moved(s, (name, d)) - moved(s, (name, -d))) / (2 * h)

    def second(s, a, b):
        (na, da, ha), (nb, db, hb) = a, b
        if a is b:
            return (moved(s, (na, da)) - 2 * value(s)
                    + moved(s, (na, -da))) / (ha * ha)
        return ((moved(s, (na, da), (nb, db)) - moved(s, (na, da), (nb, -db))
                 - moved(s, (na, -da), (nb, db))
                 + moved(s, (na, -da), (nb, -db))) / (4 * ha * hb))

    def joint(fn):
        """(P, N, N) partial: column a from the shift of coordinate a."""
        return lambda s: np.stack([fn(s, coordinate(s, a))
                                   for a in range(s.y.shape[1])], axis=2)

    def own_second(na, nb):
        def partial(s):
            a = own(s, na)
            return second(s, a, a if na == nb else own(s, nb))
        return partial

    def dyy(s):
        shifts = [coordinate(s, a) for a in range(s.y.shape[1])]
        return Hessian.dense(np.stack([np.stack([second(s, a, b)
                                                 for b in shifts], axis=2)
                                       for a in shifts], axis=2))

    return Coefficient(
        value, dx=lambda s: first(s, own(s, "x")),
        du=lambda s: first(s, own(s, "u")),
        dxx=own_second("x", "x"), dxu=own_second("x", "u"),
        duu=own_second("u", "u"), dy=joint(first),
        dxy=joint(lambda s, a: second(s, own(s, "x"), a)),
        duy=joint(lambda s, a: second(s, own(s, "u"), a)), dyy=dyy)
