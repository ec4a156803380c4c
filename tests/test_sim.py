import numpy as np
import pytest

import alphagames as ag
from alphagames.model import Coefficient, RunningCost, TerminalCost
from alphagames.sim import simulate_cost_batch

from oracles import ou_terminal_moments


def make_game(n, drift=None, diffusion=None, xi=0.0, horizon=1.0):
    zero = Coefficient(lambda s: np.zeros_like(s.x))
    return ag.GameSpec(
        n_players=n, horizon=horizon,
        initial_samplers=[ag.InitialSampler.constant(xi)] * n,
        drift=drift or zero,
        diffusion=diffusion or zero,
        running_cost=RunningCost(lambda s: np.zeros(s.y.shape)),
        terminal_cost=TerminalCost(lambda s: np.zeros(s.y.shape)))


CONTROL_DRIFT = Coefficient(value=lambda s: s.u,
                            du=lambda s: np.ones_like(s.x))
UNIT_DIFFUSION = Coefficient(lambda s: np.ones_like(s.x))
OU_DRIFT = Coefficient(value=lambda s: -s.x,
                       dx=lambda s: np.full_like(s.x, -1.0))


class TestSimulate:
    def test_zero_dynamics_constant(self):
        spec = make_game(2, xi=3.5)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(0, grid, 50, 2)
        ens = ag.simulate_paths(spec, ag.ControlProfile.zeros(2), grid, noise)
        assert np.all(ens.states == 3.5)

    def test_unit_control_drift_exact_ramp(self):
        spec = make_game(2, drift=CONTROL_DRIFT)
        grid = ag.TimeGrid(8, 1.0)
        noise = ag.NoiseBundle.generate(0, grid, 16, 2)
        ens = ag.simulate_paths(spec, ag.ControlProfile.constants([1.0, 1.0]),
                                grid, noise)
        for k, t in enumerate(grid.nodes):
            assert np.allclose(ens.states[:, k, :], t)

    def test_ou_terminal_moments(self):
        spec = make_game(1, drift=OU_DRIFT, diffusion=UNIT_DIFFUSION)
        grid = ag.TimeGrid(200, 1.0)
        P = 100_000
        noise = ag.NoiseBundle.generate(12, grid, P, 1)
        ens = ag.simulate_paths(spec, ag.ControlProfile.zeros(1), grid, noise)
        xT = ens.states[:, -1, 0]
        mean, var = ou_terminal_moments(1.0, 1.0, 1.0)
        se_mean = xT.std(ddof=1) / np.sqrt(P)
        assert abs(xT.mean() - mean) < 3 * se_mean
        se_var = xT.var(ddof=1) * np.sqrt(2.0 / P)
        assert abs(xT.var(ddof=1) - var) < 3 * se_var + 2 * grid.dt

    def test_determinism_and_adaptedness(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(5, grid, 200, 2)
        prof = ag.ControlProfile.constants([0.1, -0.2])
        a = ag.simulate_paths(spec, prof, grid, noise)
        b = ag.simulate_paths(spec, prof, grid, noise)
        assert np.array_equal(a.states, b.states)
        cut = ag.simulate_paths(spec, prof, grid, noise.truncated_after(4))
        assert np.array_equal(a.states[:, :5, :], cut.states[:, :5, :])

    def test_driver_count_checked(self):
        spec = make_game(2)
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(0, grid, 10, 3)
        with pytest.raises(ValueError):
            ag.simulate_paths(spec, ag.ControlProfile.zeros(2), grid, noise)

    def test_common_noise_shared_driver(self):
        spec, _ = ag.build_common_noise_game(2, b=0.0, s=0.0)
        grid = ag.TimeGrid(6, 1.0)
        noise = ag.NoiseBundle.generate(4, grid, 100, 3)
        ens = ag.simulate_paths(spec, ag.ControlProfile.zeros(2), grid, noise)
        # with only the shared driver active, deviations from the start
        # are identical across players
        d0 = ens.states[:, -1, 0] - ens.states[:, 0, 0]
        d1 = ens.states[:, -1, 1] - ens.states[:, 0, 1]
        assert np.allclose(d0, d1)

    @pytest.mark.parametrize("preset,n", [
        ("tanh-coupled", 3), ("tanh-coupled", 16), ("lq", 4),
        ("mean-field", 8), ("common-noise", 10)])
    @pytest.mark.parametrize("feedback", [False, True],
                             ids=["constant", "noise-feedback"])
    def test_batched_costs_match_plain_simulation(self, preset, n, feedback):
        # a double-precision leg of the stacked sweep (player-major) and
        # the recorded ensemble (path-major) are the same Euler step, so
        # every evaluator gives the same bits in either layout
        spec, _ = ag.build_preset(preset, n)
        grid = ag.TimeGrid(12, 1.0)
        noise = ag.NoiseBundle.generate(8, grid, 500, spec.n_drivers)
        if feedback:
            prof = ag.ControlProfile([ag.Control.own_noise_feedback(i, 0.7)
                                      for i in range(n)])
        else:
            prof = ag.ControlProfile.constants(
                [0.2 - 0.05 * i for i in range(n)])
        profs = [prof, ag.ControlProfile.zeros(n)]
        batch = simulate_cost_batch(spec, profs, grid, noise,
                                    dtype=np.float64)
        from alphagames.derivatives import cost_pathwise
        for li, prof in enumerate(profs):
            ens = ag.simulate_paths(spec, prof, grid, noise)
            pc = cost_pathwise(spec, ens)
            assert np.allclose(batch[li], pc, rtol=0, atol=0)

    def test_profile_length_must_match_players(self):
        # a one-entry profile was once broadcast to every player
        spec, _ = ag.build_tanh_game(3)
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(8, grid, 50, 3)
        short = ag.ControlProfile.constants([0.5])
        with pytest.raises(ValueError, match="1 players, the game 3"):
            ag.simulate_paths(spec, short, grid, noise)
        with pytest.raises(ValueError, match="1 players, the game 3"):
            simulate_cost_batch(spec, [ag.ControlProfile.zeros(3), short],
                                grid, noise)

    def test_blow_up_names_leg_path_step_and_player(self):
        # the drift is infinite where a control exceeds one: player 1
        # on path 3 only
        spec = make_game(2, drift=Coefficient(
            lambda s: np.where(s.u > 1.0, np.inf, 0.0)))
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(0, grid, 10, 2)
        spike = ag.Control(lambda t, k, w: np.where(
            np.arange(w.shape[0]) == 3, 2.0, 0.0))
        bad = ag.ControlProfile([ag.Control.zero(), spike])
        with pytest.raises(FloatingPointError,
                           match="leg 0, path 3, step 1, player 1"):
            ag.simulate_paths(spec, bad, grid, noise)
        with pytest.raises(FloatingPointError,
                           match="leg 1, path 3, step 1, player 1"):
            simulate_cost_batch(spec, [ag.ControlProfile.zeros(2), bad],
                                grid, noise)

    @pytest.mark.parametrize("build,drivers", [
        (ag.build_tanh_game, 3),           # one driver too many
        (ag.build_common_noise_game, 2),   # the shared driver missing
    ])
    def test_batched_costs_reject_driver_mismatch(self, build, drivers):
        spec, _ = build(2)
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(8, grid, 50, drivers)
        prof = ag.ControlProfile.zeros(2)
        with pytest.raises(ValueError, match="driver count"):
            ag.simulate_paths(spec, prof, grid, noise)
        with pytest.raises(ValueError, match="driver count"):
            simulate_cost_batch(spec, [prof], grid, noise)


class TestVariational:
    def test_sparsity_and_lq_blocks(self):
        n = 3
        A, Abar, B = -0.3, 0.6, 1.2
        spec, _ = ag.build_lq_game(n, A=A, Abar=Abar, B=B, C=0.0, Cbar=0.0,
                                   D=0.5, s0=0.3)
        x = np.zeros((4, n)); u = np.zeros((4, n))
        vc = ag.assemble_variational(spec, 0.0, x, u)
        B0 = vc.drift_state()
        expect = np.full((n, n), Abar / n) + np.eye(n) * A
        assert np.allclose(B0[0], expect)
        for j in range(n):
            Pi = vc.diffusion_state(j)
            mask = np.ones((n, n), bool); mask[j, :] = False
            assert np.all(Pi[0][mask] == 0.0)
        b1 = vc.drift_control(1)
        assert np.allclose(b1[0], [0.0, B, 0.0])
        pi1 = vc.diffusion_control(2)
        assert np.allclose(pi1[0], [0.0, 0.0, 0.5])

    def test_diffusion_state_independent_of_coupling(self):
        # diffusion without joint-state dependence: each driver matrix
        # is the pure own-state single-entry pattern
        spec, _ = ag.build_lq_game(2, C=0.7, Cbar=0.0, D=0.0)
        x = np.random.default_rng(0).normal(size=(5, 2))
        vc = ag.assemble_variational(spec, 0.0, x, np.zeros((5, 2)))
        for j in range(2):
            Pi = vc.diffusion_state(j)
            expect = np.zeros((2, 2)); expect[j, j] = 0.7
            assert np.allclose(Pi[0], expect)

    def test_mean_drift_coupling_block(self):
        n = 4
        drift = Coefficient(
            value=lambda s: np.broadcast_to(s.y.mean(axis=1)[:, None],
                                            s.y.shape),
            dy=lambda s: np.full(s.y.shape + (n,), 1.0 / n))
        spec = make_game(n, drift=drift)
        vc = ag.assemble_variational(spec, 0.0, np.zeros((3, n)),
                                     np.zeros((3, n)))
        assert np.allclose(vc.dyb[0], 1.0 / n)


class TestSensitivity:
    def test_zero_direction_zero(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 100, 2)
        ens = ag.simulate_paths(spec, ag.ControlProfile.zeros(2), grid, noise)
        sens = ag.propagate_sensitivity(spec, ens, 0, ag.Control.zero(), noise)
        assert np.all(sens.values == 0.0)

    def test_forced_ramp(self):
        spec = make_game(2, drift=CONTROL_DRIFT, diffusion=UNIT_DIFFUSION)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 64, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        sens = ag.propagate_sensitivity(spec, ens, 0,
                                        ag.Control.constant(1.0), noise)
        for k, t in enumerate(grid.nodes):
            assert np.allclose(sens.values[:, k, 0], t)
            assert np.all(sens.values[:, k, 1] == 0.0)

    def test_matches_resimulation_difference(self):
        spec, _ = ag.build_tanh_game(3)
        grid = ag.TimeGrid(25, 1.0)
        P = 20_000
        noise = ag.NoiseBundle.generate(7, grid, P, 3)
        prof = ag.ControlProfile.constants([0.2, -0.1, 0.3])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        h, eps = 1, 1e-3
        direction = ag.Control.constant(1.0)
        sens = ag.propagate_sensitivity(spec, ens, h, direction, noise)
        up = ag.simulate_paths(spec, prof.perturbed(h, direction, eps),
                               grid, noise)
        fd = (up.states - ens.states) / eps
        gap = np.abs(sens.values - fd)
        se = gap.std() / np.sqrt(P)
        assert gap.max() <= 3 * se + 10 * eps

    def test_pathwise_linearity(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(8, 1.0)
        noise = ag.NoiseBundle.generate(2, grid, 256, 2)
        prof = ag.ControlProfile.constants([0.1, 0.2])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        d1 = ag.Control.constant(1.0)
        d2 = ag.Control.from_time_function(lambda t: np.sin(t))
        combo = 2.0 * d1 + (-0.5) * d2
        y1 = ag.propagate_sensitivity(spec, ens, 0, d1, noise)
        y2 = ag.propagate_sensitivity(spec, ens, 0, d2, noise)
        yc = ag.propagate_sensitivity(spec, ens, 0, combo, noise)
        assert np.allclose(yc.values, 2.0 * y1.values - 0.5 * y2.values,
                           rtol=1e-12, atol=1e-12)

    def test_shared_sweep_matches_single(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(8, 1.0)
        noise = ag.NoiseBundle.generate(2, grid, 128, 2)
        prof = ag.ControlProfile.constants([0.1, 0.2])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        dirs = ag.direction_dictionary(1.0)[:2]
        targets = [(h, d) for h in range(2) for d in dirs]
        batch = ag.propagate_sensitivities(spec, ens, targets, noise)
        for (h, d), got in zip(targets, batch):
            single = ag.propagate_sensitivity(spec, ens, h, d, noise)
            assert np.allclose(got.values, single.values, rtol=0, atol=0)


class TestSecondSensitivity:
    def test_affine_coefficients_zero(self):
        spec, _ = ag.build_lq_game(2, D=0.5)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 100, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        d = ag.Control.constant(1.0)
        sh = ag.propagate_sensitivity(spec, ens, 0, d, noise)
        sl = ag.propagate_sensitivity(spec, ens, 1, d, noise)
        mixed, = ag.propagate_second_sensitivities(spec, ens, [(sh, sl)],
                                                   noise)
        assert np.all(mixed.values == 0.0)
        assert spec.has_affine_coefficients()

    def test_zero_direction_zero(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 100, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        sh = ag.propagate_sensitivity(spec, ens, 0, ag.Control.zero(), noise)
        sl = ag.propagate_sensitivity(spec, ens, 1,
                                      ag.Control.constant(1.0), noise)
        mixed, = ag.propagate_second_sensitivities(spec, ens, [(sh, sl)],
                                                   noise)
        assert np.all(mixed.values == 0.0)

    def test_same_player_rejected(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 32, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        d = ag.Control.constant(1.0)
        sh = ag.propagate_sensitivity(spec, ens, 0, d, noise)
        s2 = ag.propagate_sensitivity(spec, ens, 0, d, noise)
        with pytest.raises(ValueError):
            ag.propagate_second_sensitivities(spec, ens, [(sh, s2)], noise)

    def test_every_pair_checked(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 32, 2)
        other = ag.NoiseBundle.generate(4, grid, 32, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        ens_other = ag.simulate_paths(spec, prof, grid, other)
        d = ag.Control.constant(1.0)
        sh = ag.propagate_sensitivity(spec, ens, 0, d, noise)
        sl = ag.propagate_sensitivity(spec, ens, 1, d, noise)
        s2 = ag.propagate_sensitivity(spec, ens, 0, d, noise)
        foreign = ag.propagate_sensitivity(spec, ens_other, 1, d, other)
        for bad in ((sh, s2), (sh, foreign)):
            with pytest.raises(ValueError):
                ag.propagate_second_sensitivities(spec, ens, [(sh, sl), bad],
                                                  noise)

    def test_exchange_symmetry(self):
        spec, _ = ag.build_tanh_game(3)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(9, grid, 500, 3)
        prof = ag.ControlProfile.constants([0.1, 0.0, -0.1])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        du = ag.Control.constant(1.0)
        dv = ag.Control.from_time_function(lambda t: t)
        sh = ag.propagate_sensitivity(spec, ens, 0, du, noise)
        sl = ag.propagate_sensitivity(spec, ens, 2, dv, noise)
        m1, m2 = ag.propagate_second_sensitivities(spec, ens,
                                                   [(sh, sl), (sl, sh)], noise)
        assert np.allclose(m1.values, m2.values, rtol=1e-12, atol=1e-14)

    def test_matches_second_difference_stencil(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(25, 1.0)
        P = 20_000
        noise = ag.NoiseBundle.generate(13, grid, P, 2)
        prof = ag.ControlProfile.constants([0.2, -0.1])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        eps = 1e-3
        du = ag.Control.constant(1.0)
        dv = ag.Control.from_time_function(lambda t: t)
        sh = ag.propagate_sensitivity(spec, ens, 0, du, noise)
        sl = ag.propagate_sensitivity(spec, ens, 1, dv, noise)
        mixed, = ag.propagate_second_sensitivities(spec, ens, [(sh, sl)],
                                                   noise)
        pp = ag.simulate_paths(
            spec, prof.perturbed(0, du, eps).perturbed(1, dv, eps),
            grid, noise)
        p0 = ag.simulate_paths(spec, prof.perturbed(0, du, eps), grid, noise)
        q0 = ag.simulate_paths(spec, prof.perturbed(1, dv, eps), grid, noise)
        stencil = (pp.states - p0.states - q0.states + ens.states) / eps**2
        gap = np.abs(mixed.values - stencil)
        se = gap.std() / np.sqrt(P)
        assert gap.max() <= 3 * se + 20 * eps


class TestEmpiricalMoment:
    def test_constant_paths(self):
        spec = make_game(1, xi=-2.0)
        grid = ag.TimeGrid(5, 1.0)
        noise = ag.NoiseBundle.generate(0, grid, 40, 1)
        ens = ag.simulate_paths(spec, ag.ControlProfile.zeros(1), grid, noise)
        val, se = ag.empirical_moment(ens, 0, 3)
        assert val == 8.0 and se == 0.0
        val0, _ = ag.empirical_moment(
            ag.simulate_paths(make_game(1, xi=0.0),
                              ag.ControlProfile.zeros(1), grid,
                              ag.NoiseBundle.generate(0, grid, 40, 1)), 0, 2)
        assert val0 == 0.0

    def test_ou_sup_second_moment(self):
        spec = make_game(1, drift=OU_DRIFT, diffusion=UNIT_DIFFUSION)
        grid = ag.TimeGrid(200, 1.0)
        noise = ag.NoiseBundle.generate(12, grid, 100_000, 1)
        ens = ag.simulate_paths(spec, ag.ControlProfile.zeros(1), grid, noise)
        val, se = ag.empirical_moment(ens, 0, 2)
        _, var = ou_terminal_moments(1.0, 1.0, 1.0)  # variance is increasing
        assert abs(val - var) < 3 * se + 2 * grid.dt

    def test_order_checked(self):
        spec = make_game(1)
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(0, grid, 16, 1)
        ens = ag.simulate_paths(spec, ag.ControlProfile.zeros(1), grid, noise)
        with pytest.raises(ValueError):
            ag.empirical_moment(ens, 0, 0.5)
