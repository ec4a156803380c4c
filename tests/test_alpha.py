import math

import numpy as np
import pytest

import alphagames as ag
from alphagames.alpha import build_bound_ledger, pairwise_quadratic_asymmetry
from alphagames.model import ConstantLedger
from alphagames.presets import lq_scaling_params

from oracles import (decay_family_asymmetry, scalar_lq_cost,
                     scalar_lq_optimal_control)


# empirical_alpha's (asymmetry, asymmetry_se, alpha_empirical,
# alpha_empirical_se) on tanh-coupled N=3, 2000 paths x 16 steps, seed
# 17, anchors zero and constant 0.5, the first two dictionary
# directions; recorded while FD, SENS and BSDE each had their own
# asymmetry path, before they became one table.  The BSDE standard
# errors were recorded again, last bits only, when the backward sweep
# began summing its integrands as they are solved (k descending)
PINNED = {  # upper entries (0,1) (0,2) (1,2), their se, alpha, se
    "FD": (
        (0.07392428782095703, 0.08569709781587945,
         0.010460213011386513),
        (0.0010469723177552247, 0.0012564138473189625,
         0.0002381779319357196),
        0.31924277127367295, 0.0032709183969525037),
    "SENS": (
        (0.07412904971172667, 0.08575215831307752,
         0.010469123728286907),
        (0.0010390629953343535, 0.0012489887577984463,
         0.00023084615304093492),
        0.31976241604960837, 0.003249384449633564),
    "BSDE": (
        (0.07190531207145502, 0.08289702461032084,
         0.010414901127946241),
        (0.0007041819500278711, 0.0008261008037023113,
         0.00020101906223950926),
        0.3096046733635517, 0.0021710041516520965),
}


class TestAsymmetry:
    @pytest.mark.parametrize("method", ["FD", "SENS", "BSDE"])
    def test_empirical_alpha_pinned(self, method):
        spec, _ = ag.build_preset("tanh-coupled", 3)
        grid = ag.TimeGrid(16, 1.0)
        noise = ag.NoiseBundle.generate(17, grid, 2000, spec.n_drivers)
        anchors = [ag.ControlProfile.zeros(3),
                   ag.ControlProfile.constants([0.5] * 3)]
        rep = ag.empirical_alpha(spec, anchors,
                                 ag.direction_dictionary(1.0)[:2], grid,
                                 noise, method=method)
        asym, se, alpha, alpha_se = PINNED[method]
        upper = np.triu_indices(3, 1)
        for got, want in ((rep.asymmetry, asym), (rep.asymmetry_se, se)):
            assert got[upper].tolist() == list(want)
            assert np.array_equal(got, got.T) and not np.diag(got).any()
        assert rep.alpha_empirical == alpha
        assert rep.alpha_empirical_se == alpha_se

    def test_fully_symmetric_two_player(self):
        spec, _ = ag.build_lq_game(2, Qhat=1.0, G=1.0)
        grid = ag.TimeGrid(16, 1.0)
        noise = ag.NoiseBundle.generate(1, grid, 2000, 2)
        dirs = ag.direction_dictionary(1.0)[:2]
        v, se = ag.asymmetry(spec, ag.ControlProfile.zeros(2), 0, 1, dirs,
                             grid, noise, method="FD")
        assert v <= 3 * se + 1e-9

    def test_symmetric_costs_heterogeneous_dynamics(self):
        # identical cost weights with different mean reversion is still
        # an exact-potential configuration
        spec, _ = ag.build_lq_game(2, A=[-0.4, -0.1], Qhat=1.0, G=1.0)
        grid = ag.TimeGrid(16, 1.0)
        noise = ag.NoiseBundle.generate(2, grid, 2000, 2)
        dirs = [ag.Control.constant(1.0)]
        v, se = ag.asymmetry(spec, ag.ControlProfile.zeros(2), 0, 1, dirs,
                             grid, noise, method="FD")
        assert v <= 3 * se + 1e-9

    def test_heterogeneous_positive_and_methods_agree(self):
        spec, _ = ag.build_lq_game(2, Qhat=[0.5, 1.5], G=[0.5, 1.5])
        grid = ag.TimeGrid(20, 1.0)
        noise = ag.NoiseBundle.generate(3, grid, 4000, 2)
        dirs = [ag.Control.constant(1.0)]
        prof = ag.ControlProfile.zeros(2)
        vfd, _ = ag.asymmetry(spec, prof, 0, 1, dirs, grid, noise,
                              method="FD")
        vsens, _ = ag.asymmetry(spec, prof, 0, 1, dirs, grid, noise,
                                method="SENS")
        vbsde, _ = ag.asymmetry(spec, prof, 0, 1, dirs, grid, noise,
                                method="BSDE")
        assert vfd > 0.1
        # FD legs run in single precision; the stencil rounding noise
        # is a few 1e-5 while all Monte Carlo tolerances are 1e-2-scale
        assert np.isclose(vfd, vsens, rtol=1e-3)
        assert np.isclose(vfd, vbsde, rtol=0.08)
        asym, _ = pairwise_quadratic_asymmetry(
            spec, [0.5, 1.5], [0.5, 1.5], prof, dirs[0], grid, noise)
        assert np.isclose(asym[0, 1], vsens, rtol=1e-9)

    def test_same_player_rejected(self):
        spec, _ = ag.build_lq_game(2)
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(0, grid, 200, 2)
        with pytest.raises(ValueError):
            ag.asymmetry(spec, ag.ControlProfile.zeros(2), 1, 1,
                         [ag.Control.constant(1.0)], grid, noise)

    def test_empirical_alpha_distributed_game(self):
        # no coupling anywhere: costs depend only on own control
        spec, _ = ag.build_lq_game(2, Abar=0.0, Cbar=0.0, Qhat=0.0, G=0.0)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(4, grid, 1000, 2)
        rep = ag.empirical_alpha(spec, [ag.ControlProfile.zeros(2)],
                                 [ag.Control.constant(1.0)], grid, noise,
                                 method="FD")
        assert rep.alpha_empirical <= 3 * rep.alpha_empirical_se + 1e-9

    def test_nan_asymmetry_is_kept(self, monkeypatch):
        # a NaN in a later direction pair of the first anchor must
        # survive both the worst-over-directions and the worst-over-
        # anchors maxima, so that the report cannot pass as finite
        from alphagames import alpha
        spec, _ = ag.build_lq_game(2, Qhat=[0.5, 1.5], G=[0.5, 1.5])
        grid = ag.TimeGrid(4, 1.0)
        noise = ag.NoiseBundle.generate(2, grid, 300, 2)
        mean_se, calls = alpha._mean_se, []

        def nan_on_second(pathwise):
            calls.append(None)
            return (np.nan, np.nan) if len(calls) == 2 else mean_se(pathwise)

        monkeypatch.setattr(alpha, "_mean_se", nan_on_second)
        dirs = [ag.Control.constant(1.0), ag.Control.constant(-0.5)]
        rep = ag.empirical_alpha(spec, [ag.ControlProfile.zeros(2)] * 2,
                                 dirs, grid, noise, method="SENS")
        assert len(calls) == 8
        assert np.isnan(rep.asymmetry[0, 1]) and np.isnan(rep.asymmetry[1, 0])
        assert np.isnan(rep.alpha_empirical)

    def test_empirical_alpha_identical_players_zero(self):
        spec, _ = ag.build_lq_game(3, Qhat=0.9, G=0.8)
        grid = ag.TimeGrid(12, 1.0)
        noise = ag.NoiseBundle.generate(5, grid, 1500, 3)
        rep = ag.empirical_alpha(spec, [ag.ControlProfile.zeros(3)],
                                 [ag.Control.constant(1.0)], grid, noise,
                                 method="SENS")
        assert rep.alpha_empirical <= 3 * rep.alpha_empirical_se + 1e-9
        assert np.allclose(rep.asymmetry, rep.asymmetry.T)
        assert np.all(np.diag(rep.asymmetry) == 0.0)

    def test_pairwise_streams_without_a_stored_ensemble(self):
        # states and responses are contracted step by step; storing the
        # ensemble's states and controls, (P, M+1, N) float64 each, took
        # twice the cap
        import tracemalloc
        n, P, M = 2, 2000, 200
        params = lq_scaling_params(n)
        spec, _ = ag.build_preset("lq", n, **params)
        grid = ag.TimeGrid(M, 1.0)
        noise = ag.NoiseBundle.generate(14, grid, P, spec.n_drivers)
        states = P * (M + 1) * n * 8
        tracemalloc.start()
        try:
            pairwise_quadratic_asymmetry(
                spec, params["Qhat"], params["G"], ag.ControlProfile.zeros(n),
                ag.Control.constant(1.0), grid, noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < states

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_decay_family_matches_closed_form(self, n):
        # the scaling pass's family: decoupled dynamics and additive
        # noise make every response deterministic
        params = lq_scaling_params(n)
        spec, _ = ag.build_preset("lq", n, **params)
        grid = ag.TimeGrid(20, 1.0)
        noise = ag.NoiseBundle.generate(21, grid, 300, spec.n_drivers)
        asym, se = pairwise_quadratic_asymmetry(
            spec, params["Qhat"], params["G"],
            ag.ControlProfile.constants([0.3] * n), ag.Control.constant(1.0),
            grid, noise)
        expect = decay_family_asymmetry(params["A"], params["B"],
                                        params["Qhat"], params["G"],
                                        grid.dt, grid.n_steps)
        assert expect.max() > 0
        assert np.allclose(asym, expect, rtol=1e-9, atol=0)
        assert np.all(se <= 1e-9 * expect.max())


class TestBounds:
    def test_zero_gaps_zero_bound(self):
        _, ledger = ag.build_lq_game(2, Abar=0.0, Cbar=0.0, Qhat=1.0, G=1.0)
        rep = ag.theoretical_alpha_bound(ledger, 2, 1.0)
        assert rep.alpha_bound == 0.0

    def test_no_diffusion_control_reduction(self):
        """With both diffusion constants zeroed (deterministic noise
        loading, the reduced regime's convention), the general per-pair
        constant must equal the reduced drift-only expression evaluated
        independently."""
        _, built = ag.build_lq_game(3, Qhat=[0.5, 1.0, 1.5],
                                    G=[0.4, 0.8, 1.2],
                                    C=0.0, Cbar=0.0, D=0.0, s0=0.3)
        ledger = ConstantLedger(L_b=built.L_b, L_y_b=built.L_y_b,
                                L_sigma=0.0, L_y_sigma=0.0,
                                cost_gaps=built.cost_gaps,
                                L_b_state=built.L_b_state,
                                L_sigma_state=0.0)
        assert ledger.L_y_sigma == 0.0
        N, T = 3, 1.0
        rep = ag.theoretical_alpha_bound(ledger, N, T)
        bounds = build_bound_ledger(ledger, N, T)
        Lyb = ledger.L_y_b
        Lb = ledger.L_b
        for (i, j), entry in rep.bound_breakdown.items():
            g = ledger.gap(i, j)
            root = math.sqrt(bounds.adjoint_energy[(i, j)])
            c0 = (g.f_yy[i, j] + g.f_yu[i, j] + g.f_yu[j, i]
                  + g.f_uu[i, j] + g.g_yy[i, j])
            sum_l = sum(g.f_yy[i, l] + g.f_yu[l, i] + g.g_yy[i, l]
                        for l in range(N) if l != j)
            sum_h = sum(g.f_yy[h, j] + g.f_yu[h, j] + g.g_yy[h, j]
                        for h in range(N) if h != i)
            poly = 1.0 + Lyb + Lyb**2
            # reduced display: every term built from the drift coupling
            c1 = Lyb * (sum_l + sum_h) + root * (
                Lyb * poly + (Lb * Lyb**2 + 2 * Lyb) * poly
                + 2 * Lyb * (Lb + Lyb))
            sum_hl = sum(g.f_yy[h, l] + g.g_yy[h, l]
                         for h in range(N) if h != i
                         for l in range(N) if l != j)
            c2 = Lyb**2 * (sum_hl + root * Lyb)
            expect = c0 + c1 / N + c2 / N**2
            assert np.isclose(entry["Ctilde"], expect, rtol=1e-12)

    def test_scale_equivariance(self):
        _, ledger1 = ag.build_lq_game(2, Qhat=[0.5, 1.5], G=[0.5, 1.5])
        kappa = 3.0
        _, ledger2 = ag.build_lq_game(2, Qhat=[0.5 * kappa, (0.5 + kappa)],
                                      G=[0.5, 1.5])
        # scale the stored gap sup-norms directly instead
        import copy
        ledger2 = copy.deepcopy(ledger1)
        for g in ledger2.cost_gaps.values():
            g.f_yy *= kappa; g.f_yu *= kappa; g.f_uu *= kappa
            g.g_yy *= kappa; g.f_y0 *= kappa; g.g_y0 *= kappa
        r1 = ag.theoretical_alpha_bound(ledger1, 2, 1.0)
        r2 = ag.theoretical_alpha_bound(ledger2, 2, 1.0)
        for key in r1.bound_breakdown:
            assert np.isclose(r2.bound_breakdown[key]["Ctilde"],
                              kappa * r1.bound_breakdown[key]["Ctilde"],
                              rtol=1e-9)
        assert np.isclose(r2.alpha_bound, kappa * r1.alpha_bound, rtol=1e-9)

    def test_mean_field_bound_decays_like_inverse_n(self):
        bounds = []
        for n in (4, 8, 16):
            _, ledger = ag.build_mean_field_game(n)
            bounds.append(ag.theoretical_alpha_bound(ledger, n, 1.0)
                          .alpha_bound)
        slopes = np.diff(np.log(bounds)) / np.diff(np.log([4.0, 8.0, 16.0]))
        assert np.all(slopes < -0.8)

    def test_empirical_below_bound_on_presets(self):
        grid = ag.TimeGrid(16, 1.0)
        for preset, n in (("lq", 2), ("tanh-coupled", 2), ("mean-field", 2),
                          ("common-noise", 2)):
            spec, ledger = ag.build_preset(preset, n)
            noise = ag.NoiseBundle.generate(6, grid, 2000, spec.n_drivers)
            rep = ag.empirical_alpha(spec, [ag.ControlProfile.zeros(n)],
                                     [ag.Control.constant(1.0)], grid,
                                     noise, method="FD")
            bound = ag.theoretical_alpha_bound(ledger, n, 1.0,
                                               spec.n_drivers)
            assert rep.alpha_empirical <= bound.alpha_bound \
                + 3 * rep.alpha_empirical_se + 1e-9, preset

    def test_decay_bound_formula(self):
        led = ConstantLedger(L_b=0.5, L_y_b=0.5, L_sigma=0.5, L_y_sigma=0.5)
        bounds = build_bound_ledger(led, 4, 1.0)
        val0, _ = ag.cor_decay_bound(0.5, 0.0, 1.0, 4, bounds)
        assert val0 == 0.0
        # beta = 1: the slowest term decays like 1/N
        vals = [ag.cor_decay_bound(0.5, 1.0, 1.0, n, bounds)[0]
                for n in (8, 16, 32)]
        slopes = np.diff(np.log(vals)) / np.diff(np.log([8.0, 16.0, 32.0]))
        assert np.all(slopes < -0.95) and np.all(slopes > -1.4)
        # beta = 0.75: dominant exponent is (beta + 1) / 2
        v4, terms4 = ag.cor_decay_bound(0.5, 1.0, 0.75, 4, bounds)
        v16, terms16 = ag.cor_decay_bound(0.5, 1.0, 0.75, 16, bounds)
        assert terms4[2] == max(terms4)
        assert np.isclose(terms16[2] / terms4[2], (16 / 4) ** (-0.875),
                          rtol=1e-12)
        with pytest.raises(ValueError):
            ag.cor_decay_bound(0.5, 1.0, 0.5, 4, bounds)


class TestMomentBounds:
    def test_all_zero_constants(self):
        led = ConstantLedger(L_b=0.0, L_y_b=0.0, L_sigma=0.0, L_y_sigma=0.0)
        out = ag.moment_bound_constants(led, 2, [1.7], [0.0], 1.0, 1)
        assert out["C_X"][0] == 1.7

    def test_printed_formula_hand_value(self):
        led = ConstantLedger(L_b=1.0, L_y_b=0.0, L_sigma=0.0, L_y_sigma=0.0)
        out = ag.moment_bound_constants(led, 2, [1.0], [0.0], 1.0, 1)
        assert out["I0"] == [2.0]
        assert out["I2"] == 4.0
        assert np.isclose(out["C_X"][0], 2.0 * math.exp(4.0), rtol=1e-12)

    def test_sensitivity_bound_corner_cases(self):
        led = ConstantLedger(L_b=0.0, L_y_b=0.0, L_sigma=0.0, L_y_sigma=0.0)
        assert ag.sensitivity_moment_bound(led, 2, 1.0, 1.0, 0, 1, 4) == 0.0
        own = ag.sensitivity_moment_bound(led, 2, 1.0, 1.0, 1, 1, 4)
        assert np.isclose(own, 4.0 * math.exp(1.0), rtol=1e-12)

    def test_monotone_in_horizon_and_constants(self):
        led = ConstantLedger(L_b=0.5, L_y_b=0.2, L_sigma=0.3, L_y_sigma=0.1)
        base = ag.moment_bound_constants(led, 2, [1.0, 1.0], [0.5, 0.5],
                                         1.0, 2)["C_X"][0]
        longer = ag.moment_bound_constants(led, 2, [1.0, 1.0], [0.5, 0.5],
                                           2.0, 2)["C_X"][0]
        bigger = ag.moment_bound_constants(
            ConstantLedger(L_b=1.0, L_y_b=0.2, L_sigma=0.3, L_y_sigma=0.1),
            2, [1.0, 1.0], [0.5, 0.5], 1.0, 2)["C_X"][0]
        assert longer > base and bigger > base

    def test_empirical_moments_below_closed_form(self):
        spec, ledger = ag.build_lq_game(2, D=0.3)
        grid = ag.TimeGrid(40, 1.0)
        noise = ag.NoiseBundle.generate(7, grid, 20_000, 2)
        prof = ag.ControlProfile.constants([0.3, -0.3])
        ens = ag.simulate_paths(spec, prof, grid, noise)
        for p in (2, 4):
            xi = [s.moment(p) for s in spec.initial_samplers]
            un = [prof.h2_norm_estimate(grid, noise, i, p) ** p
                  for i in range(2)]
            caps = ag.moment_bound_constants(ledger, p, xi, un, 1.0, 2)
            for i in range(2):
                emp, _ = ag.empirical_moment(ens, i, p)
                assert emp <= caps["C_X"][i]
        # sensitivity moments against their closed-form cap
        d = ag.Control.constant(1.0)
        sens, = ag.propagate_sensitivities(spec, ens, [(0, d)], noise)
        for p in (2, 4):
            for i in range(2):
                cap = ag.sensitivity_moment_bound(ledger, p, 1.0, 1.0, 0, i,
                                                  2)
                emp = np.max(np.mean(np.abs(sens[:, :, i]) ** p,
                                     axis=0))
                assert emp <= cap


class TestPotential:
    def test_anchor_equals_profile_zero(self):
        spec, _ = ag.build_lq_game(2)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(8, grid, 1000, 2)
        prof = ag.ControlProfile.zeros(2)
        val, se = ag.potential_value(spec, prof, grid, noise)
        assert abs(val) <= 3 * se + 1e-12

    def test_single_player_line_integral_is_cost_difference(self):
        spec, _ = ag.build_lq_game(1, Qhat=0.8, G=0.5, xi_mean=0.4, D=0.2)
        grid = ag.TimeGrid(20, 1.0)
        noise = ag.NoiseBundle.generate(9, grid, 5000, 1)
        prof = ag.ControlProfile.constants([0.7])
        val, se = ag.potential_value(spec, prof, grid, noise)
        ens_a = ag.simulate_paths(spec, prof, grid, noise)
        ens_z = ag.simulate_paths(spec, ag.ControlProfile.zeros(1), grid,
                                  noise)
        va, _ = ag.cost_value(spec, ens_a)
        vz, _ = ag.cost_value(spec, ens_z)
        assert abs(val - (va[0] - vz[0])) <= 3 * se + 5 * grid.dt

    def test_symmetric_deviation_gap_small(self):
        spec, _ = ag.build_lq_game(2, Qhat=1.0, G=1.0)
        grid = ag.TimeGrid(25, 1.0)
        noise = ag.NoiseBundle.generate(10, grid, 4000, 2)
        prof = ag.ControlProfile.constants([0.3, 0.3])
        dev = prof[0] + 0.4 * ag.Control.constant(1.0)
        (out,), _ = ag.potential_deviation_gaps(spec, prof, [(0, dev)],
                                                grid, noise)
        assert out["gap"] <= 3 * out["se"] + 5 * grid.dt

    def test_heterogeneous_gap_below_alpha_budget(self):
        spec, ledger = ag.build_lq_game(2, Qhat=[0.6, 1.4], G=[0.6, 1.4])
        grid = ag.TimeGrid(25, 1.0)
        noise = ag.NoiseBundle.generate(11, grid, 4000, 2)
        prof = ag.ControlProfile.zeros(2)
        dev = ag.Control.constant(0.5)
        (out,), _ = ag.potential_deviation_gaps(spec, prof, [(0, dev)],
                                                grid, noise)
        bound = ag.theoretical_alpha_bound(ledger, 2, 1.0).alpha_bound
        assert out["gap"] <= bound + 3 * out["se"]

    def test_gap_decays_with_population(self):
        gaps = {}
        for n in (2, 8):
            params = lq_scaling_params(n)
            spec, _ = ag.build_preset("lq", n, **params)
            grid = ag.TimeGrid(16, 1.0)
            noise = ag.NoiseBundle.generate(12, grid, 2000, n)
            prof = ag.ControlProfile.zeros(n)
            dev = ag.Control.constant(0.5)
            (out,), _ = ag.potential_deviation_gaps(spec, prof, [(0, dev)],
                                                    grid, noise)
            gaps[n] = out["gap"]
        assert gaps[8] <= gaps[2] + 1e-3


    def test_line_integral_memory_below_two_players_loadings(self):
        # each step's costate layers are contracted into the integrands
        # and dropped; the cap is two players' martingale loadings
        # (P, M, D, N), which storing one player's adjoint pair per solve
        # (about 17 MB here) or every player's (about 39 MB) exceeds
        import tracemalloc
        n, P, M = 3, 2000, 40
        spec, _ = ag.build_preset("common-noise", n)
        grid = ag.TimeGrid(M, 1.0)
        noise = ag.NoiseBundle.generate(13, grid, P, spec.n_drivers)
        prof = ag.ControlProfile.constants([0.5] * n)
        loadings = P * M * spec.n_drivers * n * 8
        tracemalloc.start()
        try:
            ag.potential_value(spec, prof, grid, noise, order=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * loadings


class TestExploitability:
    def test_single_player_optimum_not_exploitable(self):
        A, B, Qhat, R, G = -0.3, 1.0, 0.8, 1.0, 0.6
        xi_mean = 0.8
        quad_run = ag.RunningCost(
            value=lambda s: 0.5 * (Qhat * s.y ** 2 + R * s.u ** 2),
            dy=lambda s: Qhat * s.y[:, :, None],
            du=lambda s: R * s.u[:, :, None],
            dyy=lambda s: np.full(s.y.shape + (1, 1), Qhat),
            duu=lambda s: np.full(s.y.shape + (1, 1), R))
        quad_term = ag.TerminalCost(
            value=lambda s: 0.5 * G * s.y ** 2,
            dy=lambda s: G * s.y[:, :, None],
            dyy=lambda s: np.full(s.y.shape + (1, 1), G))
        from alphagames.model import Coefficient
        spec = ag.GameSpec(
            n_players=1, horizon=1.0,
            initial_samplers=[ag.InitialSampler.normal(xi_mean, 0.2)],
            drift=Coefficient(
                value=lambda s: A * s.x + B * s.u,
                dx=lambda s: np.full_like(s.x, A),
                du=lambda s: np.full_like(s.x, B)),
            diffusion=Coefficient(lambda s: np.full_like(s.x, 0.3)),
            running_cost=quad_run, terminal_cost=quad_term)
        u_star, ts, P, m = scalar_lq_optimal_control(A, B, Qhat, R, G,
                                                     xi_mean, 1.0)
        grid = ag.TimeGrid(40, 1.0)
        noise = ag.NoiseBundle.generate(13, grid, 10_000, 1)
        prof = ag.ControlProfile([ag.Control.from_time_function(u_star)])
        devs = [[prof[0] + s * d for s in (0.3, -0.3)
                 for d in ag.direction_dictionary(1.0)[:2]]]
        per_player, overall = ag.exploitability(spec, prof, devs, grid,
                                                noise)
        best_se = max(se for _, se in per_player)
        assert overall <= 3 * best_se + 5 * grid.dt

    def test_reports_positive_improvement_when_suboptimal(self):
        spec, _ = ag.build_lq_game(1, Qhat=0.0, G=0.0)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(14, grid, 500, 1)
        prof = ag.ControlProfile.constants([1.0])  # pure control cost
        devs = [[ag.Control.constant(0.0)]]
        per_player, overall = ag.exploitability(spec, prof, devs, grid,
                                                noise)
        assert overall > 0.4  # moving to zero control saves ~R/2

    def test_reports_raw_gain_and_se_when_nothing_improves(self):
        # a clamped gain would read 0 with se 0 and could fail no check
        spec, _ = ag.build_lq_game(2)
        grid = ag.TimeGrid(10, 1.0)
        noise = ag.NoiseBundle.generate(15, grid, 500, 2)
        prof = ag.ControlProfile.zeros(2)
        devs = [[ag.Control.constant(2.0), ag.Control.constant(-2.0)]] * 2
        per_player, overall = ag.exploitability(spec, prof, devs, grid,
                                                noise)
        assert overall <= 0.0
        assert all(g <= 0.0 and se > 0.0 for g, se in per_player)
