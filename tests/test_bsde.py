import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import alphagames as ag
from alphagames.bsde import (LinearBsdeSpec, _adjoint_sweep, _Regressor,
                             apriori_bound_check, apriori_constant,
                             solve_linear_bsde)
from alphagames.model import Coefficient, RunningCost, TerminalCost

from oracles import bs_closed_form_bsde


def brownian_ensemble(seed, n_steps, n_paths, a=0.5):
    """State = a single Brownian motion; terminal value W_T."""
    spec, _ = ag.build_lq_game(1, A=0.0, Abar=0.0, B=0.0, C=0.0, Cbar=0.0,
                               D=0.0, s0=1.0, Qhat=0.0, R=1.0, G=0.0,
                               xi_mean=0.0, xi_std=0.0)
    grid = ag.TimeGrid(n_steps, 1.0)
    noise = ag.NoiseBundle.generate(seed, grid, n_paths, 1)
    ens = ag.simulate_paths(spec, ag.ControlProfile.zeros(1), grid, noise)
    return spec, grid, noise, ens


class TestLinearSolver:
    def test_constant_terminal(self):
        _, grid, noise, ens = brownian_ensemble(1, 10, 2000)
        bspec = LinearBsdeSpec(m=1, d=1,
                               terminal=lambda e: np.full((e.n_paths, 1), 2.5))
        sol = solve_linear_bsde(bspec, ens, noise)
        assert np.allclose(sol.y, 2.5, atol=1e-5)
        # the conditional expectation behind z is exactly zero; the
        # pathwise regression carries projection noise of order
        # sqrt(Var(target) * n_features / n_paths)
        dt = grid.dt
        floor = 5.0 * np.sqrt((2.5**2 / dt) * 10 / ens.n_paths)
        assert abs(sol.z.mean()) < floor
        assert np.sqrt((sol.z**2).mean()) < floor

    def test_unit_forcing_integrates_time(self):
        _, grid, noise, ens = brownian_ensemble(2, 20, 2000)
        bspec = LinearBsdeSpec(
            m=1, d=1,
            terminal=lambda e: np.zeros((e.n_paths, 1)),
            forcing=lambda k, e: np.ones((e.n_paths, 1)))
        sol = solve_linear_bsde(bspec, ens, noise)
        for k, t in enumerate(grid.nodes):
            assert np.allclose(sol.y[:, k, 0], 1.0 - t, atol=1e-5)
        floor = 5.0 * np.sqrt((1.0 / grid.dt) * 10 / ens.n_paths)
        assert np.sqrt((sol.z**2).mean()) < floor

    def test_closed_form_instance(self):
        a = 0.5
        _, grid, noise, ens = brownian_ensemble(3, 50, 40_000, a)
        bspec = LinearBsdeSpec(
            m=1, d=1,
            terminal=lambda e: e.states[:, -1, :],
            value_coef=lambda k, e: np.full((e.n_paths, 1, 1), a))
        sol = solve_linear_bsde(bspec, ens, noise)
        y_exact, z_exact = bs_closed_form_bsde(a, 1.0, ens.states[:, :, 0],
                                               grid.nodes)
        num = np.mean(np.sum((sol.y[:, :, 0] - y_exact) ** 2, 1) * grid.dt)
        den = np.mean(np.sum(y_exact ** 2, 1) * grid.dt)
        assert np.sqrt(num / den) < 0.05

    def test_terminal_consistency_exact(self):
        _, grid, noise, ens = brownian_ensemble(4, 10, 1000)
        xi = np.tanh(ens.states[:, -1, :])
        bspec = LinearBsdeSpec(m=1, d=1, terminal=lambda e: xi)
        sol = solve_linear_bsde(bspec, ens, noise)
        assert np.array_equal(sol.y[:, -1, :], xi)

    def test_martingale_increment_orthogonality(self):
        _, grid, noise, ens = brownian_ensemble(5, 10, 20_000)
        bspec = LinearBsdeSpec(m=1, d=1,
                               terminal=lambda e: e.states[:, -1, :] ** 2)
        sol = solve_linear_bsde(bspec, ens, noise)
        k = 5
        reg = _Regressor(ag.RegressionBasis(), ens.states[:, k, :], k)
        target = sol.y[:, k + 1, :]
        fitted = reg.fit(target)
        resid = (target - fitted)[:, 0]
        phi = reg.phi
        for c in range(phi.shape[1]):
            col = phi[:, c]
            denom = np.sqrt((resid ** 2).sum() * (col ** 2).sum())
            corr = abs((resid * col).sum()) / denom if denom > 0 else 0.0
            assert corr <= 1e-8

    def test_diagnostics_recorded(self):
        _, grid, noise, ens = brownian_ensemble(6, 8, 500)
        bspec = LinearBsdeSpec(m=1, d=1,
                               terminal=lambda e: e.states[:, -1, :])
        sol = solve_linear_bsde(bspec, ens, noise)
        assert len(sol.diagnostics) == 8
        blob = sol.diagnostics_jsonable()
        assert all(d["condition"] < 1e12 for d in blob)
        # the martingale fit keeps its own residual: its targets carry
        # the increment noise, which the state basis cannot explain
        res = [d["martingale_residual_norm"] for d in blob]
        assert all(np.isfinite(r) and r > 0 for r in res)
        assert res != [d["residual_norm"] for d in blob]


class TestAprioriBound:
    def test_constant_instance_ratio_below_one(self):
        _, grid, noise, ens = brownian_ensemble(1, 10, 2000)
        c = 1.7
        bspec = LinearBsdeSpec(m=1, d=1,
                               terminal=lambda e: np.full((e.n_paths, 1), c))
        sol = solve_linear_bsde(bspec, ens, noise)
        rep = apriori_bound_check(bspec, sol, ens, noise)
        # lhs = c^2 plus the martingale projection-noise energy
        noise_energy = 10 * (c**2 / grid.dt) * 10 / ens.n_paths
        assert c * c <= rep["lhs"] <= c * c + 5 * noise_energy
        assert rep["constant"] >= 1.0
        assert rep["rhs"] >= c * c
        assert rep["ratio"] <= 1.0

    def test_forcing_instance(self):
        _, grid, noise, ens = brownian_ensemble(2, 20, 2000)
        bspec = LinearBsdeSpec(
            m=1, d=1,
            terminal=lambda e: np.zeros((e.n_paths, 1)),
            forcing=lambda k, e: np.ones((e.n_paths, 1)))
        sol = solve_linear_bsde(bspec, ens, noise)
        rep = apriori_bound_check(bspec, sol, ens, noise)
        assert rep["ratio"] <= 1.0

    def test_overflowing_constant_fails(self):
        _, grid, noise, ens = brownian_ensemble(1, 10, 500)
        bspec = LinearBsdeSpec(
            m=1, d=1, terminal=lambda e: np.ones((e.n_paths, 1)),
            value_coef=lambda k, e: np.full((e.n_paths, 1, 1), 15.0))
        sol = solve_linear_bsde(bspec, ens, noise)
        rep = apriori_bound_check(bspec, sol, ens, noise)
        assert rep["constant"] == math.inf
        assert not rep["ratio"] <= 1.0

    @pytest.mark.parametrize("trial", range(20))
    def test_random_bounded_instances(self, trial):
        gen = np.random.default_rng(100 + trial)
        m = int(gen.integers(1, 4))
        d = int(gen.integers(1, 4))
        n_low = 12 + 2 * trial
        spec, _ = ag.build_lq_game(1, A=0.0, Abar=0.0, B=0.0, C=0.0,
                                   Cbar=0.0, D=0.0, s0=1.0, Qhat=0.0,
                                   R=1.0, G=0.0, xi_mean=0.0, xi_std=0.0)
        grid = ag.TimeGrid(n_low, 1.0)
        noise = ag.NoiseBundle.generate(trial, grid, 4000, d)
        # state carries d drivers: widen the game driver count via a
        # custom d-player zero game so the bundle matches
        zero = Coefficient(lambda s: np.zeros_like(s.x))
        unit = Coefficient(lambda s: np.ones_like(s.x))
        gspec = ag.GameSpec(
            n_players=d, horizon=1.0,
            initial_samplers=[ag.InitialSampler.constant(0.0)] * d,
            drift=zero, diffusion=unit,
            running_cost=RunningCost(lambda s: np.zeros(s.y.shape)),
            terminal_cost=TerminalCost(lambda s: np.zeros(s.y.shape)))
        ens = ag.simulate_paths(gspec, ag.ControlProfile.zeros(d), grid,
                                noise)
        A = gen.normal(size=(m, m)) * 0.5
        Bs = gen.normal(size=(d, m, m)) * 0.4
        fvec = gen.normal(size=m)
        wmix = gen.normal(size=m)
        bspec = LinearBsdeSpec(
            m=m, d=d,
            terminal=lambda e: np.tanh(e.states[:, -1, :1]) * wmix[None, :],
            value_coef=lambda k, e: np.broadcast_to(
                A, (e.n_paths, m, m)).copy(),
            driver_coef=lambda k, j, e: np.broadcast_to(
                Bs[j], (e.n_paths, m, m)).copy(),
            forcing=lambda k, e: np.broadcast_to(
                fvec, (e.n_paths, m)).copy())
        sol = solve_linear_bsde(bspec, ens, noise)
        rep = apriori_bound_check(bspec, sol, ens, noise)
        assert rep["ratio"] <= 1.0


def solved_sweep(spec, ens, noise, players, second=()):
    """Terminal layers and every step's ``AdjointStep`` of one backward
    sweep, keyed by k."""
    sweep = _adjoint_sweep(spec, ens, noise, ag.RegressionBasis(), players,
                           second)
    terminal = next(sweep)
    return terminal, {step.k: step for step in sweep}


class TestFirstAdjoint:
    def test_constant_costs_zero(self):
        spec, _ = ag.build_lq_game(2, Qhat=0.0, G=0.0)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 2000, 2)
        prof = ag.ControlProfile.constants([0.1, -0.1])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        (costates, _), steps = solved_sweep(spec, ens, noise, [0])
        assert np.allclose(costates, 0.0, atol=1e-10)
        for step in steps.values():
            assert np.allclose(step.costates, 0.0, atol=1e-10)
            assert np.allclose(step.loadings, 0.0, atol=1e-8)

    def test_scalar_linear_terminal_unit(self):
        # single player, control drift, constant diffusion, terminal
        # cost equal to the state: costate is identically one
        zero_run = RunningCost(lambda s: np.zeros(s.y.shape))
        linear_term = TerminalCost(value=lambda s: s.y.copy(),
                                   dy=lambda s: np.ones(s.y.shape + (1,)))
        spec = ag.GameSpec(
            n_players=1, horizon=1.0,
            initial_samplers=[ag.InitialSampler.constant(0.0)],
            drift=Coefficient(value=lambda s: s.u,
                              du=lambda s: np.ones_like(s.x)),
            diffusion=Coefficient(lambda s: np.full_like(s.x, 0.3)),
            running_cost=zero_run, terminal_cost=linear_term)
        grid = ag.TimeGrid(20, 1.0)
        noise = ag.NoiseBundle.generate(4, grid, 5000, 1)
        prof = ag.ControlProfile.constants([0.5])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        (costates, _), steps = solved_sweep(spec, ens, noise, [0])
        assert np.allclose(costates, 1.0, atol=1e-5)
        for step in steps.values():
            assert np.allclose(step.costates, 1.0, atol=1e-5)
        loadings = np.stack([s.loadings for s in steps.values()])
        floor = 5.0 * np.sqrt((1.0 / grid.dt) * 10 / ens.n_paths)
        assert np.sqrt((loadings**2).mean()) < floor

    def test_lq_terminal_condition_pathwise(self):
        n = 3
        G = [1.0, 1.5, 0.7]
        spec, _ = ag.build_lq_game(n, D=0.4, G=G)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(5, grid, 3000, n)
        prof = ag.ControlProfile.constants([0.1, -0.2, 0.0])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        xT = ens.states[:, -1, :]
        # the sweep's first yield is the terminal layer of every player
        costates, _ = next(_adjoint_sweep(spec, ens, noise,
                                          ag.RegressionBasis(), range(n)))
        for i in range(n):
            weights = np.full(n, -1.0 / n)
            weights[i] += 1.0
            expect = (G[i] * (xT[:, i] - xT.mean(axis=1)))[:, None] \
                * weights[None, :]
            assert np.allclose(costates[:, i], expect)

    def test_stacked_matches_single(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(8, 1.0)
        noise = ag.NoiseBundle.generate(6, grid, 2000, 2)
        prof = ag.ControlProfile.constants([0.2, -0.1])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        (costates, _), steps = solved_sweep(spec, ens, noise, [0, 1])
        for p in (0, 1):
            (solo, _), solo_steps = solved_sweep(spec, ens, noise, [p])
            assert np.array_equal(costates[:, p], solo[:, 0])
            for k, step in steps.items():
                assert np.array_equal(step.costates[:, p],
                                      solo_steps[k].costates[:, 0])
                assert np.array_equal(step.loadings[:, p],
                                      solo_steps[k].loadings[:, 0])

    def test_overwritten_ensemble_not_served_stale_slices(self):
        # a slice cache keyed on object identity once served the
        # previous contents of an ensemble whose arrays were overwritten
        spec, _ = ag.build_tanh_game(3)
        grid = ag.TimeGrid(20, 1.0)
        noise = ag.NoiseBundle.generate(8, grid, 4000, 3)
        first = ag.ControlProfile.constants([0.5] * 3)
        second = ag.ControlProfile.constants([-0.4] * 3)
        ens = ag.simulate_paths(spec, first, grid, noise)
        other = ag.simulate_paths(spec, second, grid, noise)
        # the forward pass ends on the last slice, where the backward
        # solve below starts
        ag.propagate_sensitivities(
            spec, ens, [(h, ag.Control.constant(1.0)) for h in (0, 1)],
            noise)
        np.copyto(ens.states, other.states)
        np.copyto(ens.realized_controls, other.realized_controls)
        (got, _), got_steps = solved_sweep(spec, ens, noise, [0])
        (want, _), want_steps = solved_sweep(spec, other, noise, [0])
        assert np.array_equal(got, want)
        for k, step in want_steps.items():
            assert np.array_equal(got_steps[k].costates, step.costates)
            assert np.array_equal(got_steps[k].loadings, step.loadings)

    def test_costate_is_state_measurable(self):
        # fitted layers are functions of the step's basis by
        # construction: refitting them on the same basis is exact
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(8, 1.0)
        noise = ag.NoiseBundle.generate(7, grid, 4000, 2)
        prof = ag.ControlProfile.constants([0.2, -0.1])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        _, steps = solved_sweep(spec, ens, noise, [0])
        k = 3
        costate = steps[k].costates[:, 0]
        reg = _Regressor(ag.RegressionBasis(), ens.states[:, k, :], k)
        assert np.allclose(reg.fit(costate), costate, atol=1e-7)


class TestSecondAdjoint:
    def test_zero_costs_zero(self):
        spec, _ = ag.build_lq_game(2, Qhat=0.0, G=0.0)
        grid = ag.TimeGrid(8, 1.0)
        noise = ag.NoiseBundle.generate(8, grid, 2000, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        (_, matrices), steps = solved_sweep(spec, ens, noise, [0], [0])
        assert np.allclose(matrices, 0.0, atol=1e-10)
        for step in steps.values():
            assert np.allclose(step.matrices, 0.0, atol=1e-10)
            assert np.allclose(step.matrix_loadings, 0.0, atol=1e-8)

    def test_scalar_quadratic_terminal_unit(self):
        zero_run = RunningCost(lambda s: np.zeros(s.y.shape))
        quad_term = TerminalCost(
            value=lambda s: 0.5 * s.y ** 2,
            dy=lambda s: s.y[:, :, None].copy(),
            dyy=lambda s: np.ones(s.y.shape + (1, 1)))
        spec = ag.GameSpec(
            n_players=1, horizon=1.0,
            initial_samplers=[ag.InitialSampler.constant(0.0)],
            drift=Coefficient(value=lambda s: s.u,
                              du=lambda s: np.ones_like(s.x)),
            diffusion=Coefficient(lambda s: np.full_like(s.x, 0.3)),
            running_cost=zero_run, terminal_cost=quad_term)
        grid = ag.TimeGrid(12, 1.0)
        noise = ag.NoiseBundle.generate(9, grid, 4000, 1)
        prof = ag.ControlProfile.constants([0.5])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        (_, matrices), steps = solved_sweep(spec, ens, noise, [0], [0])
        assert np.allclose(matrices, 1.0, atol=1e-5)
        for step in steps.values():
            assert np.allclose(step.matrices, 1.0, atol=1e-5)

    def test_lq_terminal_hessian_pattern(self):
        n = 2
        G = [2.0, 1.0]
        spec, _ = ag.build_lq_game(n, G=G)
        grid = ag.TimeGrid(6, 1.0)
        noise = ag.NoiseBundle.generate(10, grid, 1000, n)
        prof = ag.ControlProfile.zeros(n)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        (_, matrices), steps = solved_sweep(spec, ens, noise, [0], [0])
        w = np.array([1 - 0.5, -0.5])
        expect = G[0] * np.outer(w, w)
        assert np.allclose(matrices[:, 0], expect[None])
        for step in steps.values():
            layer = step.matrices[:, 0]
            assert np.abs(layer - np.swapaxes(layer, 1, 2)).max() <= 1e-10

    @pytest.mark.parametrize("preset,n,params", [("tanh-coupled", 3, {}),
                                                 ("lq", 2, {"D": 0.4})])
    def test_stored_layers_are_the_stacked_sweeps_slices(self, preset, n,
                                                          params):
        # every player's costate and matrix layers solved in one stacked
        # sweep; each player's own sweep gives that sweep's slice for it
        spec, _ = ag.build_preset(preset, n, **params)
        grid = ag.TimeGrid(6, 1.0)
        noise = ag.NoiseBundle.generate(12, grid, 800, spec.n_drivers)
        prof = ag.ControlProfile.constants([0.2 - 0.15 * i for i in range(n)])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        (costates, matrices), steps = solved_sweep(spec, ens, noise,
                                                   range(n), range(n))
        assert sorted(steps) == list(range(grid.n_steps))
        for i in range(n):
            (solo_c, solo_m), solo = solved_sweep(spec, ens, noise, [i], [i])
            assert np.array_equal(solo_m[:, 0], matrices[:, i])
            assert np.array_equal(solo_c[:, 0], costates[:, i])
            for k, step in steps.items():
                assert np.array_equal(solo[k].matrices[:, 0],
                                      step.matrices[:, i])
                assert np.array_equal(solo[k].matrix_loadings[:, 0],
                                      step.matrix_loadings[:, i])
                assert np.array_equal(solo[k].costates[:, 0],
                                      step.costates[:, i])
                assert np.array_equal(solo[k].loadings[:, 0],
                                      step.loadings[:, i])

    def test_matrix_layers_keep_the_costate_residual(self):
        # each step's diagnostics carry the costate value fit's residual
        # and the matrix value fit's, neither overwriting the other
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(6, 1.0)
        noise = ag.NoiseBundle.generate(4, grid, 1500, 2)
        prof = ag.ControlProfile.constants([0.3, -0.2])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        _, plain = solved_sweep(spec, ens, noise, [0, 1])
        _, with_matrices = solved_sweep(spec, ens, noise, [0, 1], [0, 1])
        for k, step in with_matrices.items():
            want = plain[k].diagnostics
            got = step.diagnostics
            assert got.residual_norm == want.residual_norm
            assert want.matrix_residual_norm is None
            assert np.isfinite(got.matrix_residual_norm)
            assert got.matrix_residual_norm > 0


class TestStackedMartingaleFit:
    """Each backward step fits its martingale targets as columns of one
    regression; replaying the full per-driver fits of one step must
    reproduce every fitted column bit for bit."""

    @pytest.fixture(params=["tanh-coupled", "common-noise"])
    def solved(self, request):
        spec, _ = ag.build_preset(request.param, 2)
        grid = ag.TimeGrid(6, 1.0)
        noise = ag.NoiseBundle.generate(4, grid, 1500, spec.n_drivers)
        prof = ag.ControlProfile.constants([0.3, -0.2])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        return spec, prof, ens, noise, grid.dt

    @staticmethod
    def replay(ens, noise, dt, ynext, k):
        """Per-driver fits of step k, stacked along axis 1."""
        reg = _Regressor(ag.RegressionBasis(), ens.states[:, k, :], k)
        return np.stack([reg.fit(ynext * noise.increments[:, k, j][:, None]
                                 / dt)
                         for j in range(noise.n_drivers)], axis=1)

    def test_linear_bsde(self, solved):
        spec, _, ens, noise, dt = solved
        lin = LinearBsdeSpec(
            m=2, d=noise.n_drivers,
            terminal=lambda e: np.tanh(e.states[:, -1, :]),
            forcing=lambda k, e: np.cos(e.states[:, k, :]))
        sol = solve_linear_bsde(lin, ens, noise)
        k = 2
        want = self.replay(ens, noise, dt, sol.y[:, k + 1], k)
        assert np.allclose(sol.z[:, k], want, rtol=0, atol=0)

    def test_first_adjoints(self, solved):
        spec, prof, ens, noise, dt = solved
        _, steps = solved_sweep(spec, ens, noise, [0, 1])
        P, k = ens.n_paths, 2
        want = self.replay(ens, noise, dt,
                           steps[k + 1].costates.reshape(P, -1), k)
        N = spec.n_players
        want = want.reshape(P, -1, 2, N)   # (P, driver, costate, entry)
        got = steps[k].loadings            # driver j's entry j
        for j in range(N):
            assert np.allclose(got[:, :, j], want[:, j, :, j], rtol=0, atol=0)

    def test_second_adjoint(self, solved):
        # the matrix columns are fitted together with the costate
        # columns; the columns of one fit are independent, and driver
        # j's one fitted row is its full component's row j and column j
        spec, prof, ens, noise, dt = solved
        _, steps = solved_sweep(spec, ens, noise, [1], [1])
        P, k, N = ens.n_paths, 2, spec.n_players
        want = self.replay(ens, noise, dt,
                           steps[k + 1].matrices[:, 0].reshape(P, -1), k)
        want = want.reshape(P, -1, N, N)   # (P, driver, row, column)
        loadings = steps[k].matrix_loadings[:, 0]
        for j in range(N):
            assert np.allclose(loadings[:, j], want[:, j, j, :], rtol=0,
                               atol=0)
            assert np.allclose(loadings[:, j], want[:, j, :, j], rtol=0,
                               atol=0)

    def test_asymmetric_terminal_hessian_is_symmetrized(self):
        # a terminal Hessian that is symmetric only up to rounding still
        # gives an exactly symmetric terminal layer, so the one fitted
        # row of each driver is also its column of the full fit
        spec, _ = ag.build_tanh_game(2)
        g = spec.terminal_cost

        def skewed(sl):
            out = g.dyy(sl).copy()
            out[:, :, 0, 1] += 1e-3 * np.tanh(sl.y[:, 1])[:, None]
            return out

        spec = dataclasses.replace(spec, terminal_cost=TerminalCost(
            g.value, dy=g.dy, dyy=skewed))
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(6, grid, 1200, 2)
        ens = ag.simulate_paths(spec, ag.ControlProfile.constants(
            [0.3, -0.2]), grid, noise)
        (_, matrices), steps = solved_sweep(spec, ens, noise, [0, 1],
                                            [0, 1])
        xT = ens.states[:, -1, :]
        raw = skewed(ag.Slice(1.0, xT, xT))
        assert not np.array_equal(raw, np.swapaxes(raw, 2, 3))
        assert np.array_equal(matrices, np.swapaxes(matrices, 2, 3))
        P, k, N = ens.n_paths, grid.n_steps - 1, 2
        for s in range(2):
            want = self.replay(ens, noise, grid.dt,
                               matrices[:, s].reshape(P, -1), k)
            want = want.reshape(P, -1, N, N)
            loadings = steps[k].matrix_loadings[:, s]
            for j in range(N):
                assert np.array_equal(loadings[:, j], want[:, j, j, :])
                assert np.array_equal(loadings[:, j], want[:, j, :, j])


def trace_case(preset, paths=2000, steps=10, **params):
    """Ensemble, noise and two players' (player, direction) targets for
    the product-trace identity of player 0's matrix adjoint."""
    spec, _ = ag.build_preset(preset, 2, **params)
    grid = ag.TimeGrid(steps, 1.0)
    noise = ag.NoiseBundle.generate(11, grid, paths, spec.n_drivers)
    prof = ag.ControlProfile.constants([0.1, -0.1])
    ens = ag.simulate_paths(spec, prof, grid, noise)
    d1, d2 = ag.direction_dictionary(1.0)[:2]
    return spec, ens, noise, (0, d1), (1, d2)


LQ_TRACE = {"D": 0.4, "Qhat": [0.8, 1.2], "G": [1.0, 0.6]}


class TestTraceDuality:
    @pytest.mark.parametrize("preset,params,want", [
        ("lq", LQ_TRACE, (0.0077937578543047226, 0.0011291372296892105)),
        ("tanh-coupled", {}, (0.004408355355573782, 0.0006542560587806176)),
    ])
    def test_pinned_residuals(self, preset, params, want):
        # (residual, se) of the earlier whole-grid computation, which
        # stored both adjoints and the outer product's Ito decomposition
        spec, ens, noise, th, tl = trace_case(preset, **params)
        got = ag.trace_duality(spec, ens, noise, ag.RegressionBasis(), 0,
                               th, tl)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_memory_below_one_grid_buffer(self):
        # streamed: nothing of size (P, M+1, N, N) is ever held beside
        # the two (P, M+1, N) response histories the call builds
        P, M, N = 1000, 100, 2
        spec, ens, noise, th, tl = trace_case("lq", P, M, **LQ_TRACE)
        tracemalloc.start()
        try:
            ag.trace_duality(spec, ens, noise, ag.RegressionBasis(), 0,
                             th, tl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * P * (M + 1) * N * 8 + P * (M + 1) * N * N * 8

    def test_lq_adjoint_outer_product_pair(self):
        spec, _ = ag.build_lq_game(2, D=0.4, Qhat=[0.8, 1.2], G=[1.0, 0.6])
        grid = ag.TimeGrid(20, 1.0)
        noise = ag.NoiseBundle.generate(11, grid, 20_000, 2)
        prof = ag.ControlProfile.constants([0.1, -0.1])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        d1, d2 = ag.direction_dictionary(1.0)[:2]
        res, se = ag.trace_duality(spec, ens, noise, ag.RegressionBasis(), 0,
                                   (0, d1), (1, d2))
        assert res <= 3 * se + 5 * grid.dt


class TestAprioriConstant:
    def test_monotone_in_inputs(self):
        base = apriori_constant(0.5, 2, 1.0)
        assert apriori_constant(1.0, 2, 1.0) > base
        assert apriori_constant(0.5, 3, 1.0) > base
        assert apriori_constant(0.5, 2, 2.0) > base
        assert apriori_constant(0.0, 1, 1.0) >= 1.0

    def test_overflow_is_infinite(self):
        # the chain's squares leave double precision near c1 = 15
        assert np.isfinite(apriori_constant(10.0, 1, 1.0))
        assert apriori_constant(15.0, 1, 1.0) == math.inf
