import numpy as np
import pytest

import alphagames as ag
from alphagames.alpha import pairwise_quadratic_asymmetry
from alphagames.model import Coefficient, RunningCost, TerminalCost
from alphagames.presets import lq_scaling_params
from alphagames.sim import (VariationalCoefficients, _forward,
                            _response_step, simulate_cost_batch)

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


def mixed_histories(spec, ens, noise, pairs):
    """(S, P, M+1, N): the mixed response of each pair of (player,
    direction) targets at every node, read from the forward sweep."""
    out = np.empty((len(pairs), ens.n_paths, ens.grid.n_steps + 1,
                    spec.n_players))
    targets = [target for pair in pairs for target in pair]
    for k, *_, z in _forward(spec, ens, noise, targets,
                             [(2 * q, 2 * q + 1) for q in range(len(pairs))]):
        out[:, :, k] = z.transpose(1, 0, 2)
    return out


def response(spec, ens, h, direction, noise):
    """(P, M+1, N): the first-order response history to one target."""
    return ag.propagate_sensitivities(spec, ens, [(h, direction)], noise)[0]


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
        profs = [prof, ag.ControlProfile.zeros(n),
                 prof.with_player(0, ag.Control.constant(-0.4)),
                 prof.with_player(n - 1, ag.Control.own_noise_feedback(0))]
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
        # C = Cbar = 0: driver j's matrix, supported on row j, vanishes
        for j in range(n):
            assert np.all(vc.diffusion_row(j) == 0.0)
        # each control loads its own drift and its own driver only
        assert np.allclose(vc.dub, B)
        assert np.allclose(vc.dus, 0.5)

    def test_diffusion_state_independent_of_coupling(self):
        # diffusion without joint-state dependence: each driver matrix
        # is the pure own-state single-entry pattern
        spec, _ = ag.build_lq_game(2, C=0.7, Cbar=0.0, D=0.0)
        x = np.random.default_rng(0).normal(size=(5, 2))
        vc = ag.assemble_variational(spec, 0.0, x, np.zeros((5, 2)))
        for j in range(2):
            expect = np.zeros(2); expect[j] = 0.7
            assert np.allclose(vc.diffusion_row(j), expect)

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
        sens = response(spec, ens, 0, ag.Control.zero(), noise)
        assert np.all(sens == 0.0)

    def test_forced_ramp(self):
        spec = make_game(2, drift=CONTROL_DRIFT, diffusion=UNIT_DIFFUSION)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 64, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        sens = response(spec, ens, 0, ag.Control.constant(1.0), noise)
        for k, t in enumerate(grid.nodes):
            assert np.allclose(sens[:, k, 0], t)
            assert np.all(sens[:, k, 1] == 0.0)

    def test_matches_resimulation_difference(self):
        spec, _ = ag.build_tanh_game(3)
        grid = ag.TimeGrid(25, 1.0)
        P = 20_000
        noise = ag.NoiseBundle.generate(7, grid, P, 3)
        prof = ag.ControlProfile.constants([0.2, -0.1, 0.3])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        h, eps = 1, 1e-3
        direction = ag.Control.constant(1.0)
        sens = response(spec, ens, h, direction, noise)
        up = ag.simulate_paths(spec, prof.perturbed(h, direction, eps),
                               grid, noise)
        fd = (up.states - ens.states) / eps
        gap = np.abs(sens - fd)
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
        y1 = response(spec, ens, 0, d1, noise)
        y2 = response(spec, ens, 0, d2, noise)
        yc = response(spec, ens, 0, combo, noise)
        assert np.allclose(yc, 2.0 * y1 - 0.5 * y2, rtol=1e-12, atol=1e-12)

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
            assert got.shape == (128, 9, 2)
            assert np.allclose(got, response(spec, ens, h, d, noise),
                               rtol=0, atol=0)


class TestResponseStep:
    """Terms of partials declared zero are skipped, and skipping them
    leaves every bit of the step unchanged."""

    P, R, N = 40, 3, 4

    def linearization(self, gen, declared, additive):
        """The same coefficients twice over: with the joint gradients
        not supplied (and, for additive noise, no diffusion partial),
        and with them supplied as explicit zero arrays."""
        P, N = self.P, self.N
        dxb, dub = gen.normal(size=(P, N)), gen.normal(size=(P, N))
        dxs, dus = ((np.zeros((P, N)), np.zeros((P, N))) if additive
                    else (gen.normal(size=(P, N)), gen.normal(size=(P, N))))
        if declared:
            return VariationalCoefficients(dxb, None, dub, dxs, None, dus,
                                           None, additive)
        zero = np.zeros((P, N, N))
        return VariationalCoefficients(dxb, zero, dub, dxs, zero.copy(),
                                       dus, None, False)

    @pytest.mark.parametrize("additive", [False, True],
                             ids=["state-noise", "additive-noise"])
    @pytest.mark.parametrize("with_controls", [False, True],
                             ids=["no-controls", "controls"])
    @pytest.mark.parametrize("with_forcing", [False, True],
                             ids=["no-forcing", "forcing"])
    def test_declared_zero_gives_same_bits(self, additive, with_controls,
                                           with_forcing):
        P, R, N = self.P, self.R, self.N
        gen = np.random.default_rng(11)
        seed = gen.integers(1 << 30)
        y = gen.normal(size=(P, R, N))
        dw = gen.normal(scale=0.1, size=(P, N))
        controls = ([(r % N, gen.normal(size=P)) for r in range(R)]
                    if with_controls else ())
        forcing = ((gen.normal(size=(P, R, N)), gen.normal(size=(P, R, N)))
                   if with_forcing else None)
        steps = [_response_step(
                     self.linearization(np.random.default_rng(seed),
                                        declared, additive),
                     y, 0.05, dw, controls=controls, forcing=forcing)
                 for declared in (True, False)]
        assert steps[0].tobytes() == steps[1].tobytes()

    def test_scaling_pass_makes_no_joint_contraction(self, monkeypatch):
        # the decay family's dynamics are decoupled, so its joint
        # gradients are declared zero; contracting them took two
        # per-path (N, N) x (N, N) einsums per step
        joint = "pij,prj->pri"
        subscripts = []
        einsum = np.einsum

        def counting(sub, *operands, **kwargs):
            subscripts.append(sub)
            return einsum(sub, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        grid = ag.TimeGrid(6, 1.0)

        def contractions(n, **params):
            spec, _ = ag.build_preset("lq", n, **params)
            noise = ag.NoiseBundle.generate(4, grid, 200, spec.n_drivers)
            subscripts.clear()
            pairwise_quadratic_asymmetry(
                spec, params["Qhat"], params["G"], ag.ControlProfile.zeros(n),
                ag.Control.constant(1.0), grid, noise)
            return subscripts.count(joint)

        n = 4
        params = lq_scaling_params(n)
        assert contractions(n, **params) == 0
        # a drift coupled through the average contracts once per step;
        # its additive noise still contracts nothing
        assert contractions(n, **dict(params, Abar=0.2)) == grid.n_steps


class TestSecondSensitivity:
    def test_affine_coefficients_zero(self):
        spec, _ = ag.build_lq_game(2, D=0.5)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 100, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        d = ag.Control.constant(1.0)
        mixed, = mixed_histories(spec, ens, noise, [((0, d), (1, d))])
        assert np.all(mixed == 0.0)
        assert spec.has_affine_coefficients()

    def test_affine_game_is_not_stepped(self, monkeypatch):
        # no second partials, so the mixed responses vanish: zeros are
        # yielded for every pair without evaluating a second partial;
        # only the pairs' first-order responses are linearized, once
        # per step
        from alphagames import sim as sim_mod
        spec, _ = ag.build_lq_game(2, D=0.2)
        grid = ag.TimeGrid(6, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 100, 2)
        ens = ag.simulate_paths(spec, ag.ControlProfile.constants([0.3, -0.2]),
                                grid, noise)
        dirs = ag.direction_dictionary(1.0)[:2]
        th, tl = (0, dirs[0]), (1, dirs[1])
        calls = {"linearization": [], "second partials": []}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key].append(args[1])
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(sim_mod, "assemble_variational", counting(
            "linearization", sim_mod.assemble_variational))
        monkeypatch.setattr(sim_mod, "_second_order_slices", counting(
            "second partials", sim_mod._second_order_slices))
        mixed = mixed_histories(spec, ens, noise, [(th, tl), (tl, th)])
        assert calls == {"linearization": list(grid.nodes[:-1]),
                         "second partials": []}
        assert len(mixed) == 2
        for m in mixed:
            assert m.shape == (100, 7, 2)
            assert np.all(m == 0.0) and not np.signbit(m).any()

    def test_zero_direction_zero(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 100, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        mixed, = mixed_histories(spec, ens, noise, [
            ((0, ag.Control.zero()), (1, ag.Control.constant(1.0)))])
        assert np.all(mixed == 0.0)

    def test_same_player_rejected(self):
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 32, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        d = ag.Control.constant(1.0)
        with pytest.raises(ValueError):
            ag.sens_derivatives(spec, ens, noise,
                                second_jobs=[(0, (0, d), (0, d))])

    def test_every_pair_checked(self):
        # a job names targets, not stored responses, so no response of
        # another ensemble can enter; a same-player pair anywhere in
        # the list, or noise of another seed, is refused
        spec, _ = ag.build_tanh_game(2)
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 32, 2)
        other = ag.NoiseBundle.generate(4, grid, 32, 2)
        prof = ag.ControlProfile.zeros(2)
        ens = ag.simulate_paths(spec, prof, grid, noise)
        d = ag.Control.constant(1.0)
        good = (0, (0, d), (1, d))
        for bad, bundle in (((1, (0, d), (0, d)), noise), (good, other)):
            for driver, args in ((ag.sens_derivatives, ()),
                                 (ag.bsde_derivatives,
                                  (ag.RegressionBasis(),))):
                with pytest.raises(ValueError):
                    driver(spec, ens, bundle, *args, (), [good, bad])

    def test_exchange_symmetry(self):
        spec, _ = ag.build_tanh_game(3)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(9, grid, 500, 3)
        prof = ag.ControlProfile.constants([0.1, 0.0, -0.1])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        du = ag.Control.constant(1.0)
        dv = ag.Control.from_time_function(lambda t: t)
        th, tl = (0, du), (2, dv)
        m1, m2 = mixed_histories(spec, ens, noise, [(th, tl), (tl, th)])
        assert np.allclose(m1, m2, rtol=1e-12, atol=1e-14)

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
        mixed, = mixed_histories(spec, ens, noise, [((0, du), (1, dv))])
        pp = ag.simulate_paths(
            spec, prof.perturbed(0, du, eps).perturbed(1, dv, eps),
            grid, noise)
        p0 = ag.simulate_paths(spec, prof.perturbed(0, du, eps), grid, noise)
        q0 = ag.simulate_paths(spec, prof.perturbed(1, dv, eps), grid, noise)
        stencil = (pp.states - p0.states - q0.states + ens.states) / eps**2
        gap = np.abs(mixed - stencil)
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
