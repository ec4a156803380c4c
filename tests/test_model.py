import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphagames as ag
from alphagames import rng
from alphagames.model import Coefficient, ConstantLedger, RunningCost, TerminalCost


def zero_game(n):
    return ag.GameSpec(
        n_players=n, horizon=1.0,
        initial_samplers=[ag.InitialSampler.constant(0.0)] * n,
        drift=Coefficient(lambda s: np.zeros_like(s.x)),
        diffusion=Coefficient(lambda s: np.zeros_like(s.x)),
        running_cost=RunningCost(lambda s: np.zeros(s.y.shape)),
        terminal_cost=TerminalCost(lambda s: np.zeros(s.y.shape)))


class TestPhilox:
    def test_known_answer_vectors(self):
        # reference outputs of the 10-round 4x32 generator
        out = rng.philox4x32(0, 0, 0, 0, 0)
        assert [int(v) for v in out] == [0x6627E8D5, 0xE169C58D,
                                         0xBC57AC4C, 0x9B00DBD8]
        out = rng.philox4x32(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF,
                             0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF)
        assert [int(v) for v in out] == [0x408F276D, 0x41C83B0E,
                                         0xA20BC7C6, 0x6D5451FD]
        out = rng.philox4x32(0x243F6A88, 0x85A308D3, 0x13198A2E,
                             0x03707344, 0x299F31D0A4093822)
        assert [int(v) for v in out] == [0xD16CFE09, 0x94FDCCEB,
                                         0x5001E420, 0x24126EA1]

    def test_counters_unmodified_and_broadcast_matches_scalars(self):
        # the rounds run in place: they must work on copies of the
        # counters, and each broadcast lane must be its own scalar call
        c0 = np.arange(3, dtype=np.uint64)[:, None]
        c1 = np.array([5, 0xFFFFFFFF], dtype=np.uint64)[None, :]
        c2 = np.uint64(7)
        c3 = np.array([[2, 3]], dtype=np.uint64)
        before = [np.array(c, copy=True) for c in (c0, c1, c2, c3)]
        out = rng.philox4x32(c0, c1, c2, c3, 0x299F31D0A4093822)
        for c, b in zip((c0, c1, c2, c3), before):
            assert np.array_equal(c, b)
        assert all(w.shape == (3, 2) for w in out)
        for a in range(3):
            for b in range(2):
                one = rng.philox4x32(int(c0[a, 0]), int(c1[0, b]), int(c2),
                                     int(c3[0, b]), 0x299F31D0A4093822)
                assert [int(w[a, b]) for w in out] == [int(v) for v in one]

    def test_bit_exact_by_counter(self):
        grid = ag.TimeGrid(4, 1.0)
        big = ag.NoiseBundle.generate(7, grid, 1000, 3)
        small = ag.NoiseBundle.generate(7, grid, 10, 3)
        # entries depend only on (seed, path, step, driver)
        assert np.array_equal(big.increments[:10], small.increments)
        again = ag.NoiseBundle.generate(7, grid, 1000, 3)
        assert np.array_equal(big.increments, again.increments)

    def test_leading_drivers_are_a_smaller_bundle(self):
        # the N-driver noise is the first N columns of any wider grid,
        # which lets a player sweep draw one grid at its widest game
        grid = ag.TimeGrid(6, 1.5)
        wide = ag.NoiseBundle.generate(5, grid, 700, 16)
        small = ag.NoiseBundle.generate(5, grid, 700, 3)
        assert np.array_equal(wide.increments[:, :, :3], small.increments)
        lead = wide.leading_drivers(3)
        assert (lead.n_drivers, lead.n_paths, lead.seed) == (3, 700, 5)
        assert lead.increments.shape == small.increments.shape
        assert np.array_equal(lead.increments, small.increments)
        assert np.shares_memory(lead.increments, wide.increments)
        for bad in (0, 17):
            with pytest.raises(ValueError):
                wide.leading_drivers(bad)

    @pytest.mark.parametrize("blocks, tail, n_steps, n_drivers", [
        (3, 77, 8, 4),    # three full path blocks and a ragged tail
        (3, 5, 40, 1),    # one driver
        (0, 100, 10, 3),  # fewer paths than one block
    ])
    def test_normal_grid_blocks_match_one_shot(self, blocks, tail, n_steps,
                                               n_drivers):
        rows = rng._BLOCK_COUNTERS // (n_steps * n_drivers)
        n_paths = blocks * rows + tail
        p = np.arange(n_paths, dtype=np.uint64)[:, None, None]
        k = np.arange(n_steps, dtype=np.uint64)[None, :, None]
        j = np.arange(n_drivers, dtype=np.uint64)[None, None, :]
        one_shot = rng.standard_normal(11, p, k, j, np.uint64(0))
        grid = rng.normal_grid(11, n_paths, n_steps, n_drivers)
        assert grid.shape == (n_paths, n_steps, n_drivers)
        assert np.array_equal(grid, one_shot)

    def test_increment_moments(self):
        grid = ag.TimeGrid(5, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 20_000, 2)
        dt = grid.dt
        for j in range(2):
            for k in range(5):
                col = noise.increments[:, k, j]
                se_mean = np.sqrt(dt / col.size)
                assert abs(col.mean()) < 5 * se_mean
                se_var = dt * np.sqrt(2.0 / col.size)
                assert abs(col.var() - dt) < 5 * se_var


class TestControls:
    def test_linear_combination_pointwise(self):
        a = ag.Control.constant(2.0)
        b = ag.Control.from_time_function(lambda t: t)
        c = 3.0 * a + (-1.0) * b
        w = np.zeros((5, 4, 1))
        assert np.allclose(c(0.5, 2, w), 3.0 * 2.0 - 0.5)

    @pytest.mark.parametrize("trial", range(16))
    def test_adaptedness(self, trial):
        scale = 0.25 + 0.05 * trial
        ctrl = ag.Control.own_noise_feedback(0, scale=scale)
        grid = ag.TimeGrid(8, 1.0)
        noise = ag.NoiseBundle.generate(trial, grid, 64, 1)
        k = 1 + trial % 6
        full = ctrl(grid.nodes[k], k, noise.increments)
        truncated = noise.truncated_after(k)
        cut = ctrl(grid.nodes[k], k, truncated.increments)
        assert np.array_equal(full, cut)

    def test_h2_norm_estimate(self):
        grid = ag.TimeGrid(50, 1.0)
        noise = ag.NoiseBundle.generate(1, grid, 100, 1)
        prof = ag.ControlProfile.constants([2.0])
        norm = prof.h2_norm_estimate(grid, noise, 0)
        assert np.isclose(norm, 2.0)

    def test_perturbed_profile(self):
        prof = ag.ControlProfile.zeros(2)
        pert = prof.perturbed(1, ag.Control.constant(1.0), 0.5)
        w = np.zeros((3, 2, 2))
        assert np.allclose(pert.evaluate(0.0, 0, _noise_stub(w)), [[0, 0.5]] * 3)


def _noise_stub(increments):
    grid = ag.TimeGrid(increments.shape[1], 1.0)
    return ag.NoiseBundle(seed=0, grid=grid, n_paths=increments.shape[0],
                          n_drivers=increments.shape[2],
                          increments=increments)


class TestLedger:
    @given(st.floats(0, 10), st.floats(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_coupling_arithmetic(self, lyb, lys):
        led = ConstantLedger(L_b=1.0, L_y_b=lyb, L_sigma=1.0, L_y_sigma=lys)
        assert led.L_y_b_sigma == lyb + 3.0 * lys**2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLedger(L_b=-1.0, L_y_b=0.0, L_sigma=0.0, L_y_sigma=0.0)

    def test_serialization_roundtrip_fields(self):
        _, ledger = ag.build_lq_game(2, Qhat=[0.5, 1.5])
        blob = ledger.to_jsonable()
        assert blob["L_y_b_sigma"] == ledger.L_y_b_sigma
        assert "0,1" in blob["cost_gap_sup_norms"]


class TestValidateGame:
    def test_zero_game_zero_ledger_passes(self):
        spec = zero_game(2)
        ledger = ConstantLedger(L_b=0.0, L_y_b=0.0, L_sigma=0.0,
                                L_y_sigma=0.0)
        rep = ag.validate_game(spec, ledger, ag.SampleBox(), 64)
        assert rep.passed
        assert all(r.ratio == 0.0 for r in rep.records)

    def test_mean_field_average_saturates(self):
        n = 4
        drift = Coefficient(
            value=lambda s: np.broadcast_to(s.y.mean(axis=1)[:, None],
                                            s.y.shape),
            dy=lambda s: np.full(s.y.shape + (n,), 1.0 / n))
        spec = ag.GameSpec(
            n_players=n, horizon=1.0,
            initial_samplers=[ag.InitialSampler.constant(0.0)] * n,
            drift=drift,
            diffusion=Coefficient(lambda s: np.zeros_like(s.x)),
            running_cost=RunningCost(lambda s: np.zeros(s.y.shape)),
            terminal_cost=TerminalCost(lambda s: np.zeros(s.y.shape)))
        ledger = ConstantLedger(L_b=0.0, L_y_b=1.0, L_sigma=0.0,
                                L_y_sigma=0.0)
        rep = ag.validate_game(spec, ledger, ag.SampleBox(), 64)
        assert rep.passed
        sat = [r for r in rep.records if r.inequality == "N*|d_yj|"
               and r.coefficient == "b"]
        assert all(np.isclose(r.ratio, 1.0) for r in sat)

    def test_full_coupling_fails_with_ratio_n(self):
        n = 4
        j = 1
        drift = Coefficient(
            value=lambda s: np.broadcast_to(s.y[:, j:j + 1], s.y.shape),
            dy=lambda s: np.broadcast_to(
                np.eye(n)[j], s.y.shape + (n,)).copy())
        spec = ag.GameSpec(
            n_players=n, horizon=1.0,
            initial_samplers=[ag.InitialSampler.constant(0.0)] * n,
            drift=drift,
            diffusion=Coefficient(lambda s: np.zeros_like(s.x)),
            running_cost=RunningCost(lambda s: np.zeros(s.y.shape)),
            terminal_cost=TerminalCost(lambda s: np.zeros(s.y.shape)))
        ledger = ConstantLedger(L_b=1.0, L_y_b=1.0, L_sigma=0.0,
                                L_y_sigma=0.0)
        rep = ag.validate_game(spec, ledger, ag.SampleBox(), 64)
        assert not rep.passed
        worst = rep.worst()
        assert worst.inequality == "N*|d_yj|"
        assert np.isclose(worst.ratio, n)

    def test_nonfinite_evaluator_diagnostic(self):
        spec = zero_game(1)
        bad = Coefficient(value=lambda s: np.full_like(s.x, np.inf))
        spec = ag.GameSpec(
            n_players=1, horizon=1.0,
            initial_samplers=spec.initial_samplers,
            drift=bad, diffusion=spec.diffusion,
            running_cost=spec.running_cost,
            terminal_cost=spec.terminal_cost)
        ledger = ConstantLedger(L_b=1.0, L_y_b=0.0, L_sigma=0.0,
                                L_y_sigma=0.0)
        with pytest.raises(FloatingPointError, match="player 0"):
            ag.validate_game(spec, ledger, ag.SampleBox(), 8, check_fd=False)

    @pytest.mark.parametrize("preset,n", [("lq", 2), ("mean-field", 3),
                                          ("common-noise", 3),
                                          ("tanh-coupled", 3)])
    def test_presets_validate_with_fd_consistency(self, preset, n):
        spec, ledger = ag.build_preset(preset, n)
        rep = ag.validate_game(spec, ledger, ag.SampleBox(), 256)
        assert rep.passed, (rep.worst(), rep.messages[:3])

    def test_fd_wrapper_consistency(self):
        wrapped = ag.fd_coefficient(
            lambda s: np.sin(s.x) * np.cos(s.u)
            + (s.y.mean(axis=1) ** 2)[:, None])
        t = np.zeros((32, 1))
        gen = np.random.default_rng(0)
        x, u = gen.normal(size=32), gen.normal(size=32)
        y = gen.normal(size=(32, 3))
        # every player's own state and control are the same draws
        x = np.repeat(x[:, None], 3, axis=1)
        u = np.repeat(u[:, None], 3, axis=1)
        sl = ag.Slice(t, x, y, u)
        assert np.allclose(wrapped.dx(sl), np.cos(x) * np.cos(u), atol=1e-6)
        assert np.allclose(wrapped.dyy(sl).dense_view(),
                           np.full((32, 3, 3, 3), 2.0 / 9.0), atol=1e-4)


class TestLqDeclarations:
    """The lq preset supplies a partial only when its parameter row has
    a nonzero entry; a partial left out is declared zero."""

    @pytest.mark.parametrize("Abar,Cbar", [
        (0.0, 0.0), (0.2, 0.0), (0.0, 0.3),
        ([0.0, 0.2, 0.0], [0.0, 0.0, 0.1])])
    def test_joint_gradient_supplied_only_when_coupled(self, Abar, Cbar):
        spec, ledger = ag.build_lq_game(3, Abar=Abar, C=0.2, Cbar=Cbar)
        assert ("dy" in spec.drift.supplied) == bool(np.any(Abar))
        assert ("dy" in spec.diffusion.supplied) == bool(np.any(Cbar))
        assert spec.has_affine_coefficients()
        rep = ag.validate_game(spec, ledger, ag.SampleBox(), 128)
        assert rep.passed, (rep.worst(), rep.messages[:3])

    def test_additive_noise_supplies_no_diffusion_partial(self):
        spec, ledger = ag.build_lq_game(3, Abar=0.0, C=0.0, Cbar=0.0, D=0.0)
        assert spec.drift.supplied == {"dx", "du"}
        assert spec.diffusion.supplied == set()
        assert spec.has_affine_coefficients()
        rep = ag.validate_game(spec, ledger, ag.SampleBox(), 128)
        assert rep.passed, (rep.worst(), rep.messages[:3])


class TestSlice:
    @pytest.mark.parametrize("preset", ag.PRESET_IDS)
    def test_evaluators_keep_no_slice_data_alive(self, preset):
        # evaluators share work through the slice only: once the slice
        # is gone, neither its inputs nor the quantities it computed
        # for the evaluators stay alive
        spec, _ = ag.build_preset(preset, 3)
        gen = np.random.default_rng(0)
        x, u = gen.normal(size=(64, 3)), gen.normal(size=(64, 3))
        sl = ag.Slice(0.5, x, x, u)
        for ev in (spec.drift, spec.diffusion, spec.running_cost,
                   spec.terminal_cost):
            ev.value(sl)
            for name in ev.PARTIALS:
                getattr(ev, name)(sl)
        arrays = [x, u] + [v for v in vars(sl).values()
                           if isinstance(v, np.ndarray)]
        assert len(arrays) > 2 or preset in ("lq", "common-noise")
        refs = [weakref.ref(a) for a in arrays]
        del sl, x, u, arrays
        gc.collect()
        assert all(r() is None for r in refs)

    def test_shared_quantities_computed_once(self):
        x = np.arange(6.0).reshape(2, 3)
        sl = ag.Slice(0.0, x, x, -x)
        assert sl.tanh_x is sl.tanh_y
        assert sl.tanh_sum is sl.tanh_sum
        assert np.array_equal(sl.mean, [1.0, 4.0])
        apart = ag.Slice(0.0, x, x.copy(), x)
        assert apart.tanh_x is not apart.tanh_y


class TestHessian:
    def test_structures_contract_like_their_dense_view(self):
        gen = np.random.default_rng(3)
        P, N = 7, 3
        a, b, w = (gen.normal(size=(P, N)) for _ in range(3))
        for h in (ag.Hessian.zero((P, N)),
                  ag.Hessian.diagonal(gen.normal(size=(P, N, N))),
                  ag.Hessian.dense(gen.normal(size=(P, N, N, N)))):
            dense = h.dense_view()
            assert dense.shape == (P, N, N, N)
            assert np.allclose(h.bilinear(a, b),
                               np.einsum("pn,pinm,pm->pi", a, dense, b))
            assert np.allclose(h.weighted(w),
                               np.einsum("pi,piab->pab", w, dense))


class TestSamplers:
    def test_constant_and_moments(self):
        s = ag.InitialSampler.constant(2.5)
        assert np.all(s.draw(0, 8, 0) == 2.5)
        assert s.moment(4) == 2.5 ** 4
        n = ag.InitialSampler.normal(1.0, 2.0)
        assert np.isclose(n.second_moment(), 1.0 + 4.0)
        draws = n.draw(5, 50_000, 0)
        assert abs(draws.mean() - 1.0) < 5 * 2.0 / np.sqrt(50_000)

    def test_reproducible(self):
        s = ag.InitialSampler.uniform(-1.0, 1.0)
        assert np.array_equal(s.draw(3, 100, 1), s.draw(3, 100, 1))
        assert not np.array_equal(s.draw(3, 100, 1), s.draw(4, 100, 1))
