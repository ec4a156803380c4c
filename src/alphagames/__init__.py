"""Monte Carlo toolkit for N-player stochastic differential games.

Simulates controlled diffusions, computes first- and second-order
directional derivatives of player costs by resimulation, forward
sensitivities, and adjoint backward systems solved with regression
Monte Carlo, and certifies how far a game is from admitting an exact
potential function (the game's alpha), both empirically and through
closed-form constant ledgers.
"""

from .model import (Coefficient, ConstantLedger, Control, ControlProfile,
                    CostGapNorms, GameSpec, Hessian, InitialSampler,
                    NoiseBundle, RunningCost, SampleBox, Slice, TerminalCost,
                    TimeGrid, direction_dictionary, fd_coefficient,
                    validate_game)
from .sim import (PathEnsemble, SecondSensitivityEnsemble,
                  SensitivityEnsemble, VariationalCoefficients,
                  assemble_variational, empirical_moment,
                  propagate_second_sensitivities, propagate_sensitivities,
                  propagate_sensitivity, simulate_cost_batch, simulate_paths)
from .bsde import (AdjointSolution, BsdeSolution, LinearBsdeSpec,
                   MatrixItoProcess, RegressionBasis, SecondAdjointSolution,
                   apriori_bound_check, apriori_constant,
                   second_adjoint_process, sensitivity_outer_process,
                   solve_first_adjoint, solve_linear_bsde,
                   solve_second_adjoint, trace_duality_residual)
from .derivatives import (DerivativeEstimate, bsde_derivatives,
                          cost_pathwise, cost_value,
                          first_derivative_fd_sweep, first_derivative_sens,
                          second_derivative_fd_sweep,
                          second_derivative_z_oracle)
from .alpha import (AlphaReport, BoundLedger, asymmetry, build_bound_ledger,
                    cor_decay_bound, empirical_alpha, exploitability,
                    moment_bound_constants, potential_deviation_gaps,
                    potential_value, sensitivity_moment_bound,
                    theoretical_alpha_bound)
from .presets import (PRESET_IDS, build_common_noise_game, build_lq_game,
                      build_mean_field_game, build_preset, build_tanh_game,
                      lq_scaling_params)

__version__ = "0.1.0"
