"""Simulate a preset game and check its constant ledger.

Builds the weakly coupled quadratic game, evaluates its joint drift
for every player on one slice of states and controls, validates every
coefficient growth/decay inequality against the auto-filled ledger,
simulates an ensemble, and compares empirical state moments with the
closed-form caps implied by the same ledger.
"""

import numpy as np

import alphagames as ag

N, STEPS, PATHS, SEED = 3, 40, 20_000, 7

spec, ledger = ag.build_lq_game(N, D=0.3, Qhat=[0.6, 1.0, 1.4])
grid = ag.TimeGrid(STEPS, 1.0)
noise = ag.NoiseBundle.generate(SEED, grid, PATHS, spec.n_drivers)
controls = ag.ControlProfile.constants([0.3, 0.0, -0.3])

print("== ledger ==")
print(f"  L_b={ledger.L_b:.3f}  L_y_b={ledger.L_y_b:.3f}  "
      f"L_sigma={ledger.L_sigma:.3f}  L_y_sigma={ledger.L_y_sigma:.3f}  "
      f"combined coupling={ledger.L_y_b_sigma:.3f}")

x0 = spec.initial_states(SEED, 4)
u0 = controls.evaluate(0.0, 0, noise)[:4]
slice0 = ag.Slice(0.0, x0, x0, u0)
print("== joint evaluators at t=0, first 4 paths ==")
print(f"  drift (P, N) =\n{spec.drift.value(slice0).round(4)}")
print(f"  d drift_0 / d y = {spec.drift.dy(slice0)[0, 0].round(4)}  "
      f"(row 0 of the (P, N, N) joint gradient)")
print(f"  joint-state Hessian structure: {spec.drift.dyy(slice0).kind}")

report = ag.validate_game(spec, ledger, ag.SampleBox(), 256)
worst = report.worst()
print(f"== validation ==  passed={report.passed}  "
      f"worst ratio={worst.ratio:.4f} ({worst.coefficient}, "
      f"{worst.inequality})")

ens = ag.simulate_paths(spec, controls, grid, noise)
print("== simulation ==")
print(f"  mean X_T = {ens.states[:, -1, :].mean(axis=0).round(4)}")

for p in (2, 4):
    xi = [s.moment(p) for s in spec.initial_samplers]
    un = [controls.h2_norm_estimate(grid, noise, i, p) ** p
          for i in range(N)]
    caps = ag.moment_bound_constants(ledger, p, xi, un, 1.0, N)
    for i in range(N):
        emp, se = ag.empirical_moment(ens, i, p)
        print(f"  sup_t E|X_{i}|^{p} = {emp:8.4f} (se {se:.4f})  "
              f"<= closed-form cap {caps['C_X'][i]:.3e}")
