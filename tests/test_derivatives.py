import numpy as np
import pytest

import alphagames as ag
from alphagames.derivatives import (EPS_SCHEDULE, first_derivative_fd_sweep,
                                    second_derivative_fd_sweep)
from alphagames.model import Coefficient, RunningCost, TerminalCost

from oracles import scalar_lq_cost


def control_drift_game(n=1, g_slope=1.0, sigma=0.3):
    """dX_i = u_i dt + sigma dW_i with terminal cost slope * x_i."""
    return ag.GameSpec(
        n_players=n, horizon=1.0,
        initial_samplers=[ag.InitialSampler.constant(0.0)] * n,
        drift=Coefficient(value=lambda s: s.u,
                          du=lambda s: np.ones_like(s.x)),
        diffusion=Coefficient(lambda s: np.full_like(s.x, sigma)),
        running_cost=RunningCost(lambda s: np.zeros(s.y.shape)),
        terminal_cost=TerminalCost(
            value=lambda s: g_slope * s.y,
            dy=lambda s: np.broadcast_to(g_slope * np.eye(n),
                                         s.y.shape + (n,)).copy()))


def product_cost_game():
    """Trivial dynamics; running cost of player 0 is u_1 * u_2."""
    def only_player_0(a):
        return np.stack([a, np.zeros_like(a)], axis=1)

    costs = RunningCost(
        value=lambda s: only_player_0(s.u[:, 0] * s.u[:, 1]),
        du=lambda s: only_player_0(np.stack([s.u[:, 1], s.u[:, 0]], axis=1)),
        duu=lambda s: only_player_0(np.broadcast_to(
            np.array([[0.0, 1.0], [1.0, 0.0]]), (s.y.shape[0], 2, 2))))
    return ag.GameSpec(
        n_players=2, horizon=1.0,
        initial_samplers=[ag.InitialSampler.constant(0.0)] * 2,
        drift=Coefficient(lambda s: np.zeros_like(s.x)),
        diffusion=Coefficient(lambda s: np.ones_like(s.x)),
        running_cost=costs,
        terminal_cost=TerminalCost(lambda s: np.zeros(s.y.shape)))


@pytest.fixture(scope="module")
def tanh_setup():
    spec, _ = ag.build_tanh_game(3)
    grid = ag.TimeGrid(25, 1.0)
    noise = ag.NoiseBundle.generate(17, grid, 20_000, 3)
    controls = ag.ControlProfile.constants([0.2, -0.1, 0.3])
    ens = ag.simulate_paths(spec, controls, grid, noise)
    return spec, grid, noise, controls, ens


class TestCostValue:
    def test_zero_costs(self):
        spec = product_cost_game()
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(0, grid, 200, 2)
        ens = ag.simulate_paths(spec, ag.ControlProfile.zeros(2), grid, noise)
        vals, _ = ag.cost_value(spec, ens)
        assert vals[1] == 0.0

    def test_unit_running_cost_integrates_horizon(self):
        one_run = RunningCost(lambda s: np.ones(s.y.shape))
        zero = Coefficient(lambda s: np.zeros_like(s.x))
        spec = ag.GameSpec(
            n_players=1, horizon=1.0,
            initial_samplers=[ag.InitialSampler.constant(0.0)],
            drift=zero, diffusion=zero,
            running_cost=one_run,
            terminal_cost=TerminalCost(lambda s: np.zeros(s.y.shape)))
        grid = ag.TimeGrid(16, 1.0)
        noise = ag.NoiseBundle.generate(0, grid, 100, 1)
        ens = ag.simulate_paths(spec, ag.ControlProfile.zeros(1), grid, noise)
        vals, ses = ag.cost_value(spec, ens)
        assert np.isclose(vals[0], 1.0) and ses[0] == 0.0

    def test_scalar_quadratic_against_moment_ode_oracle(self):
        A, B, C, D, s0 = -0.4, 1.0, 0.2, 0.3, 0.3
        Qhat, R, G = 0.8, 1.0, 0.6
        xi_mean, xi_std = 0.5, 0.3
        # single-player variant with own-state quadratic costs
        quad_run = RunningCost(
            value=lambda s: 0.5 * (Qhat * s.y ** 2 + R * s.u ** 2),
            dy=lambda s: Qhat * s.y[:, :, None],
            du=lambda s: R * s.u[:, :, None],
            dyy=lambda s: np.full(s.y.shape + (1, 1), Qhat),
            duu=lambda s: np.full(s.y.shape + (1, 1), R))
        quad_term = TerminalCost(
            value=lambda s: 0.5 * G * s.y ** 2,
            dy=lambda s: G * s.y[:, :, None],
            dyy=lambda s: np.full(s.y.shape + (1, 1), G))
        spec = ag.GameSpec(
            n_players=1, horizon=1.0,
            initial_samplers=[ag.InitialSampler.normal(xi_mean, xi_std)],
            drift=Coefficient(
                value=lambda s: A * s.x + B * s.u,
                dx=lambda s: np.full_like(s.x, A),
                du=lambda s: np.full_like(s.x, B)),
            diffusion=Coefficient(
                value=lambda s: C * s.x + D * s.u + s0,
                dx=lambda s: np.full_like(s.x, C),
                du=lambda s: np.full_like(s.x, D)),
            running_cost=quad_run, terminal_cost=quad_term)
        grid = ag.TimeGrid(100, 1.0)
        noise = ag.NoiseBundle.generate(21, grid, 100_000, 1)
        u_fn = lambda t: 0.4 - 0.3 * t
        prof = ag.ControlProfile([ag.Control.from_time_function(u_fn)])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        vals, ses = ag.cost_value(spec, ens)
        oracle = scalar_lq_cost(A, B, C, D, s0, Qhat, R, G, u_fn,
                                xi_mean, xi_std**2, 1.0)
        assert abs(vals[0] - oracle) <= 3 * ses[0] + 5 * grid.dt


class TestFirstDerivatives:
    def test_constant_costs_fd_zero(self):
        spec, _ = ag.build_lq_game(2, Qhat=0.0, G=0.0)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(1, grid, 500, 2)
        est = first_derivative_fd_sweep(spec, ag.ControlProfile.zeros(2), 1,
                                        ag.Control.constant(1.0), grid,
                                        noise)[0]
        assert abs(est.value) <= 3 * est.std_error + 1e-6

    def test_linear_response_is_horizon(self):
        # control drift, linear terminal cost: the derivative is exactly
        # the horizon, with zero pathwise spread for FD
        spec = control_drift_game()
        grid = ag.TimeGrid(20, 1.0)
        noise = ag.NoiseBundle.generate(2, grid, 1000, 1)
        prof = ag.ControlProfile.zeros(1)
        d = ag.Control.constant(1.0)
        fd = first_derivative_fd_sweep(spec, prof, 0, d, grid, noise)[0]
        assert abs(fd.value - 1.0) < 1e-4 and fd.std_error < 1e-4
        ens = ag.simulate_paths(spec, prof, grid, noise)
        sens = ag.propagate_sensitivity(spec, ens, 0, d, noise)
        sv = ag.first_derivative_sens(spec, ens, noise, [sens])[(0, 0)]
        assert np.isclose(sv.value, 1.0) and sv.std_error < 1e-12
        bs = ag.bsde_derivatives(spec, ens, noise, ag.RegressionBasis(),
                                 first_jobs=[(0, 0, d)])[0][0]
        assert abs(bs.value - 1.0) < 1e-6

    def test_zero_direction_exact_zero(self, tanh_setup):
        spec, grid, noise, controls, ens = tanh_setup
        sens = ag.propagate_sensitivity(spec, ens, 1, ag.Control.zero(), noise)
        est = ag.first_derivative_sens(spec, ens, noise, [sens])[(0, 0)]
        assert est.value == 0.0 and est.std_error == 0.0

    def test_three_routes_agree_tanh(self, tanh_setup):
        spec, grid, noise, controls, ens = tanh_setup
        basis = ag.RegressionBasis()
        d = ag.direction_dictionary(1.0)[2]
        for (i, h) in [(0, 1), (2, 0)]:
            fd = first_derivative_fd_sweep(spec, controls, h, d, grid,
                                           noise)[i]
            sens = ag.propagate_sensitivity(spec, ens, h, d, noise)
            sv = ag.first_derivative_sens(spec, ens, noise, [sens])[(i, 0)]
            bs = ag.bsde_derivatives(spec, ens, noise, basis,
                                     first_jobs=[(i, h, d)])[0][0]
            assert abs(fd.value - sv.value) <= \
                3 * (fd.std_error + sv.std_error) + 10 * min(EPS_SCHEDULE)
            assert abs(fd.value - bs.value) <= \
                3 * (fd.std_error + bs.std_error) + 10 * min(EPS_SCHEDULE)

    def test_diffusion_controlled_lq_fd_vs_bsde(self):
        spec, _ = ag.build_lq_game(2, D=0.5, Qhat=[0.8, 1.2], G=[1.0, 0.7])
        grid = ag.TimeGrid(25, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 20_000, 2)
        prof = ag.ControlProfile.constants([0.1, -0.2])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        basis = ag.RegressionBasis()
        d = ag.Control.constant(1.0)
        for i, h in [(0, 0), (0, 1), (1, 0)]:
            fd = first_derivative_fd_sweep(spec, prof, h, d, grid, noise)[i]
            bs = ag.bsde_derivatives(spec, ens, noise, basis,
                                     first_jobs=[(i, h, d)])[0][0]
            assert abs(fd.value - bs.value) <= \
                3 * (fd.std_error + bs.std_error) + 10 * min(EPS_SCHEDULE)

    def test_linearity_in_direction(self, tanh_setup):
        spec, grid, noise, controls, ens = tanh_setup
        d = ag.Control.constant(1.0)
        scaled = 2.5 * d
        sens1 = ag.propagate_sensitivity(spec, ens, 0, d, noise)
        sens2 = ag.propagate_sensitivity(spec, ens, 0, scaled, noise)
        a = ag.first_derivative_sens(spec, ens, noise, [sens1])[(1, 0)]
        b = ag.first_derivative_sens(spec, ens, noise, [sens2])[(1, 0)]
        assert np.isclose(b.value, 2.5 * a.value, rtol=1e-12)
        basis = ag.RegressionBasis()
        ba = ag.bsde_derivatives(spec, ens, noise, basis,
                                 first_jobs=[(1, 0, d)])[0][0]
        bb = ag.bsde_derivatives(spec, ens, noise, basis,
                                 first_jobs=[(1, 0, scaled)])[0][0]
        assert np.isclose(bb.value, 2.5 * ba.value, rtol=1e-12)

    def test_forward_difference_order_at_least_one(self, tanh_setup):
        spec, grid, noise, controls, ens = tanh_setup
        d = ag.Control.constant(1.0)
        sens = ag.propagate_sensitivity(spec, ens, 0, d, noise)
        ref = ag.first_derivative_sens(spec, ens, noise, [sens])[(0, 0)]
        from alphagames.derivatives import cost_pathwise
        errs = []
        eps_list = [4e-2, 2e-2, 1e-2]
        base = cost_pathwise(spec, ens)[:, 0]
        for e in eps_list:
            up = ag.simulate_paths(spec, controls.perturbed(0, d, e), grid,
                                   noise)
            fwd = (cost_pathwise(spec, up)[:, 0] - base) / e
            errs.append(abs(fwd.mean() - ref.value))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert slope >= 0.9


class TestSecondDerivatives:
    def test_decoupled_game_zero(self):
        spec, _ = ag.build_lq_game(2, Abar=0.0, Cbar=0.0, Qhat=0.0, G=0.0)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(4, grid, 500, 2)
        d = ag.Control.constant(1.0)
        est = second_derivative_fd_sweep(spec, ag.ControlProfile.zeros(2),
                                         0, 1, d, d, grid, noise)[0]
        assert abs(est.value) <= 3 * est.std_error + 1e-6

    def test_product_cost_gives_horizon(self):
        spec = product_cost_game()
        grid = ag.TimeGrid(20, 1.0)
        noise = ag.NoiseBundle.generate(5, grid, 2000, 2)
        prof = ag.ControlProfile.zeros(2)
        d = ag.Control.constant(1.0)
        fd = second_derivative_fd_sweep(spec, prof, 0, 1, d, d, grid,
                                        noise)[0]
        assert abs(fd.value - 1.0) < 1e-4
        ens = ag.simulate_paths(spec, prof, grid, noise)
        sh = ag.propagate_sensitivity(spec, ens, 0, d, noise)
        sl = ag.propagate_sensitivity(spec, ens, 1, d, noise)
        mixed = ag.propagate_second_sensitivities(spec, ens, [(sh, sl)],
                                                  noise)
        zo = ag.second_derivative_z_oracle(spec, ens, noise, [(sh, sl)],
                                           mixed, [0])[(0, 0)]
        assert np.isclose(zo.value, 1.0)
        bs = ag.bsde_derivatives(spec, ens, noise, ag.RegressionBasis(),
                                 second_jobs=[(0, sh, sl)])[1][0]
        assert abs(bs.value - 1.0) < 1e-5

    def test_same_player_rejected(self):
        spec = product_cost_game()
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(0, grid, 100, 2)
        d = ag.Control.constant(1.0)
        with pytest.raises(ValueError):
            second_derivative_fd_sweep(spec, ag.ControlProfile.zeros(2), 1,
                                       1, d, d, grid, noise)

    def test_three_way_agreement_tanh(self, tanh_setup):
        spec, grid, noise, controls, ens = tanh_setup
        basis = ag.RegressionBasis()
        du = ag.Control.constant(1.0)
        dv = ag.direction_dictionary(1.0)[1]
        h, l = 0, 2
        sh = ag.propagate_sensitivity(spec, ens, h, du, noise)
        sl = ag.propagate_sensitivity(spec, ens, l, dv, noise)
        mixed = ag.propagate_second_sensitivities(spec, ens, [(sh, sl)],
                                                  noise)
        eps_min = min(EPS_SCHEDULE)
        fds = second_derivative_fd_sweep(spec, controls, h, l, du, dv, grid,
                                         noise)
        zos = ag.second_derivative_z_oracle(spec, ens, noise, [(sh, sl)],
                                            mixed, range(3))
        _, bss = ag.bsde_derivatives(spec, ens, noise, basis,
                                     second_jobs=[(i, sh, sl)
                                                  for i in range(3)])
        for i in range(3):
            fd = fds[i]
            zo = zos[(i, 0)]
            bs = bss[i]
            assert abs(fd.value - zo.value) <= \
                5 * (fd.std_error + zo.std_error) + 20 * eps_min
            assert abs(fd.value - bs.value) <= \
                5 * (fd.std_error + bs.std_error) + 20 * eps_min
            assert abs(bs.value - zo.value) <= \
                5 * (bs.std_error + zo.std_error) + 20 * eps_min

    def test_exchange_symmetry(self, tanh_setup):
        spec, grid, noise, controls, ens = tanh_setup
        du = ag.Control.constant(1.0)
        dv = ag.direction_dictionary(1.0)[1]
        sh = ag.propagate_sensitivity(spec, ens, 0, du, noise)
        sl = ag.propagate_sensitivity(spec, ens, 1, dv, noise)
        pairs = [(sh, sl), (sl, sh)]
        mixed = ag.propagate_second_sensitivities(spec, ens, pairs, noise)
        zos = ag.second_derivative_z_oracle(spec, ens, noise, pairs, mixed,
                                            [0])
        z1, z2 = zos[(0, 0)], zos[(0, 1)]
        assert abs(z1.value - z2.value) <= 1e-10
        fd1 = second_derivative_fd_sweep(spec, controls, 0, 1, du, dv, grid,
                                         noise)[0]
        fd2 = second_derivative_fd_sweep(spec, controls, 1, 0, dv, du, grid,
                                         noise)[0]
        assert abs(fd1.value - fd2.value) <= \
            5 * (fd1.std_error + fd2.std_error) + 1e-8


def _stored_first_order(spec, ens, noise, adj, h, direction):
    """Pathwise adjoint-route integral of ``adj.player``'s cost in player
    h's direction, contracted from a stored costate pair after the
    solve: the left-endpoint sum in forward time."""
    grid = ens.grid
    acc = np.zeros(ens.n_paths)
    for k, t in enumerate(grid.nodes[:-1]):
        x = ens.states[:, k, :]
        sl = ag.Slice(t, x, x, ens.realized_controls[:, k, :])
        integrand = (adj.P_vals[:, k, h] * spec.drift.du(sl)[:, h]
                     + spec.diffusion.du(sl)[:, h]
                     * adj.Q_vals[:, k, h, h]
                     + spec.running_cost.du(sl)[:, adj.player, h])
        acc += integrand * direction(t, k, noise.increments) * grid.dt
    return acc


class TestSweepHelpers:
    def test_batched_contractions_match_single_target(self, tanh_setup):
        spec, grid, noise, controls, ens = tanh_setup
        basis = ag.RegressionBasis()
        dirs = ag.direction_dictionary(1.0)[:2]
        targets = [(h, d) for h in range(3) for d in dirs]
        sens_all = ag.propagate_sensitivities(spec, ens, targets, noise)
        sens_table = ag.first_derivative_sens(spec, ens, noise, sens_all)
        bsde_table, _ = ag.bsde_derivatives(
            spec, ens, noise, basis,
            first_jobs=[(i, h, d) for h, d in targets for i in range(3)])
        for tidx, (h, d) in enumerate(targets[:3]):
            single = ag.propagate_sensitivity(spec, ens, h, d, noise)
            for i in (0, 2):
                sv = ag.first_derivative_sens(spec, ens, noise,
                                              [single])[(i, 0)]
                bs = ag.bsde_derivatives(spec, ens, noise, basis,
                                         first_jobs=[(i, h, d)])[0][0]
                assert np.isclose(sens_table[(i, tidx)].value, sv.value,
                                  rtol=1e-10)
                assert np.isclose(bsde_table[3 * tidx + i].value, bs.value,
                                  rtol=1e-10)

    @pytest.mark.parametrize("preset,n", [("tanh-coupled", 3),
                                          ("common-noise", 2), ("lq", 4)])
    def test_streamed_own_control_integrals_match_stored(self, preset, n):
        # one sweep for every player, contracted step by step as it is
        # solved, against a stored single-player solve contracted after
        spec, _ = ag.build_preset(preset, n)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(4, grid, 1500, spec.n_drivers)
        prof = ag.ControlProfile.constants([0.3 - 0.2 * i for i in range(n)])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        basis = ag.RegressionBasis()
        dirs = ag.direction_dictionary(1.0)
        directions = [dirs[h % len(dirs)] for h in range(n)]
        _, (got, _) = ag.bsde_derivatives(
            spec, ens, noise, basis,
            first_jobs=[(h, h, directions[h]) for h in range(n)],
            return_pathwise=True)
        assert sorted(got) == list(range(n))
        for h in range(n):
            adj = ag.solve_first_adjoint(spec, prof, ens, noise, basis, h)
            want = _stored_first_order(spec, ens, noise, adj, h,
                                       directions[h])
            assert np.allclose(got[h], want, rtol=0, atol=0)


def _second_order_case(preset, n, **params):
    """Small ensemble with every ordered pair of distinct players'
    responses over two directions, in both orientations."""
    spec, _ = ag.build_preset(preset, n, **params)
    grid = ag.TimeGrid(8, 1.0)
    noise = ag.NoiseBundle.generate(6, grid, 600, spec.n_drivers)
    prof = ag.ControlProfile.constants([0.2 - 0.15 * i for i in range(n)])
    ens = ag.simulate_paths(spec, prof, grid, noise)
    dirs = ag.direction_dictionary(1.0)[:2]
    sens = ag.propagate_sensitivities(
        spec, ens, [(h, d) for h in range(n) for d in dirs], noise)
    pairs = [(sh, sl) for sh in sens for sl in sens
             if sh.perturbed_player != sl.perturbed_player]
    return spec, prof, ens, noise, pairs


CASES = [("tanh-coupled", 3, {}), ("lq", 2, {"D": 0.4})]


class TestSecondOrderEngine:
    @pytest.mark.parametrize("preset,n,params", CASES)
    def test_batched_routes_match_one_pair_calls(self, preset, n, params):
        spec, prof, ens, noise, pairs = _second_order_case(preset, n,
                                                           **params)
        basis = ag.RegressionBasis()
        mixed = ag.propagate_second_sensitivities(spec, ens, pairs, noise)
        _, zo = ag.second_derivative_z_oracle(spec, ens, noise, pairs, mixed,
                                              range(n), return_pathwise=True)
        jobs = [(i, sh, sl) for i in range(n) for sh, sl in pairs]
        _, (_, bs) = ag.bsde_derivatives(spec, ens, noise, basis,
                                         second_jobs=jobs,
                                         return_pathwise=True)
        assert sorted(zo) == [(i, q) for i in range(n)
                              for q in range(len(pairs))]
        assert sorted(bs) == list(range(len(jobs)))
        for q, pair in enumerate(pairs):
            one = ag.propagate_second_sensitivities(spec, ens, [pair], noise)
            np.testing.assert_allclose(mixed[q].values, one[0].values,
                                       rtol=0, atol=0)
            for i in range(n):
                _, zo1 = ag.second_derivative_z_oracle(
                    spec, ens, noise, [pair], one, [i], return_pathwise=True)
                _, (_, bs1) = ag.bsde_derivatives(
                    spec, ens, noise, basis, second_jobs=[(i, *pair)],
                    return_pathwise=True)
                np.testing.assert_allclose(zo[(i, q)], zo1[(i, 0)],
                                           rtol=0, atol=0)
                np.testing.assert_allclose(bs[i * len(pairs) + q], bs1[0],
                                           rtol=0, atol=0)

    def test_one_linearization_per_step_for_all_pairs(self, monkeypatch):
        from alphagames import bsde as bsde_mod
        from alphagames import sim as sim_mod
        spec, prof, ens, noise, pairs = _second_order_case("tanh-coupled", 3)
        pairs = [pairs[0], pairs[5], pairs[-1]]
        dirs = ag.direction_dictionary(1.0)[:2]
        calls = {"linearization": 0, "second partials": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        linearization = counting("linearization",
                                 sim_mod.assemble_variational)
        second_partials = counting("second partials",
                                   sim_mod._second_order_slices)
        for mod in (sim_mod, bsde_mod):
            monkeypatch.setattr(mod, "assemble_variational", linearization)
            monkeypatch.setattr(mod, "_second_order_slices", second_partials)
        M = ens.grid.n_steps
        ag.propagate_second_sensitivities(spec, ens, pairs, noise)
        assert calls == {"linearization": M, "second partials": M}
        # every cost player's first- and second-order jobs in one sweep;
        # solving each player's adjoints apart and contracting them
        # again linearized 7M times
        calls.update({"linearization": 0, "second partials": 0})
        ag.bsde_derivatives(
            spec, ens, noise, ag.RegressionBasis(),
            first_jobs=[(i, h, d) for i in range(3) for h in range(3)
                        for d in dirs],
            second_jobs=[(i, sh, sl) for i in range(3) for sh, sl in pairs])
        assert calls == {"linearization": M, "second partials": M}


class TestAdjointSweep:
    @pytest.mark.parametrize("preset,n,params", CASES)
    def test_first_order_jobs_match_one_job_calls(self, preset, n, params):
        # first-order jobs of every cost player, swept with every
        # second-order job, against one sweep per first-order job
        spec, prof, ens, noise, pairs = _second_order_case(preset, n,
                                                           **params)
        basis = ag.RegressionBasis()
        dirs = ag.direction_dictionary(1.0)[:2]
        jobs = [(i, h, d) for i in range(n) for h in range(n) for d in dirs]
        _, (first, _) = ag.bsde_derivatives(
            spec, ens, noise, basis, first_jobs=jobs,
            second_jobs=[(i, sh, sl) for i in range(n) for sh, sl in pairs],
            return_pathwise=True)
        assert sorted(first) == list(range(len(jobs)))
        for n_job, job in enumerate(jobs):
            _, (one, _) = ag.bsde_derivatives(spec, ens, noise, basis,
                                              first_jobs=[job],
                                              return_pathwise=True)
            np.testing.assert_allclose(first[n_job], one[0], rtol=0, atol=0)

    def test_jobs_need_distinct_players(self):
        spec, prof, ens, noise, pairs = _second_order_case("lq", 2)
        sh = pairs[0][0]
        with pytest.raises(ValueError):
            ag.bsde_derivatives(spec, ens, noise, ag.RegressionBasis(),
                                second_jobs=[(0, sh, sh)])
